#include "service/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "frontend/composition.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "rules/rules.h"
#include "runtime/wjrt.h"
#include "service/bundle.h"
#include "service/protocol.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "support/timer.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj::service {

namespace {

// Artifacts the daemon dlopen()s with RTLD_NOW resolve their wjrt_*
// references from the host executable (CMAKE_ENABLE_EXPORTS). The service
// code never calls the runtime itself, so a static-archive link of a
// daemon binary would otherwise drop wjrt.cpp's objects and every dlopen
// would fail with "undefined symbol". Taking one address forces the TU in.
[[gnu::used]] void* const kKeepRuntimeLinked =
    reinterpret_cast<void*>(&wjrt_alloc_array);

int envInt(const char* name, int dflt) {
    const char* v = std::getenv(name);
    if (!v || !*v) return dflt;
    const int n = std::atoi(v);
    return n > 0 ? n : dflt;
}

/// One client connection. Shared between its reader thread and every
/// worker holding one of its jobs, so a response can be written (or its
/// failure swallowed) after the reader is long gone — a client that
/// disconnects mid-compile never orphans the in-flight entry.
struct Conn {
    int fd = -1;
    std::mutex wmu;                ///< frame-granularity write interleaving
    std::atomic<int> inflight{0};  ///< admission: this client's queued+running compiles

    ~Conn() { closeNow(); }

    /// Releases the fd as soon as the reader is done with it (a long-running
    /// daemon must not hold one fd per disconnected client until shutdown).
    /// Only the owning reader (or the destructor, after the reader is gone)
    /// calls this; in-flight workers replying afterwards see fd == -1.
    void closeNow() noexcept {
        if (fd < 0) return;
        // Unblock a worker mid-write first: a peer that vanished without
        // reading can leave writeFrame blocked while it holds wmu.
        ::shutdown(fd, SHUT_RDWR);
        std::lock_guard<std::mutex> lock(wmu);
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }

    /// Wakes a reader blocked in readFrame() without invalidating the fd.
    /// Lock-free on purpose: taking wmu here could deadlock behind the very
    /// blocked write this shutdown is meant to unblock.
    void shutdownNow() noexcept {
        if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }

    /// Best-effort response: a dead peer is not an error for the daemon.
    void reply(const Frame& f) noexcept {
        std::lock_guard<std::mutex> lock(wmu);
        if (fd < 0) return;  // connection already torn down
        try {
            writeFrame(fd, f);
        } catch (const WjError&) {
        }
    }
};
using ConnPtr = std::shared_ptr<Conn>;

/// What one compile request resolves to — shared verbatim by every joined
/// request, so a typed failure (e.g. COMPILE_ERROR from an injected fault)
/// reaches all waiters, not just the leader.
struct Outcome {
    bool ok = false;
    ErrCode code = ErrCode::Internal;
    std::string message;
    uint64_t key = 0;
    std::string path;
    bool cacheHit = false;
    int attempts = 0;
};

struct Job {
    ConnPtr conn;
    uint64_t reqId = 0;
    std::string body;
    int64_t admittedNs = 0;
};

/// A request the lookup lane could not answer, handed to the cc lane. The
/// leader of its key carries the promise every joiner's future reads.
struct CcJob {
    Job job;
    std::string cSource;
    std::string method;
    uint64_t sourceHash = 0;
    uint64_t key = 0;
    std::unique_ptr<std::promise<Outcome>> lead;  ///< null for a joiner
    std::shared_future<Outcome> outcome;
    int64_t handoffNs = 0;
};

struct Counters {
    trace::Counter& reqTotal;
    trace::Counter& reqCompile;
    trace::Counter& reqStats;
    trace::Counter& reqPing;
    trace::Counter& reqShutdown;
    trace::Counter& reqBad;
    trace::Counter& compileOk;
    trace::Counter& compileErr;
    trace::Counter& joins;
    trace::Counter& rejectClient;
    trace::Counter& rejectQueue;
    trace::Counter& rejectDraining;
    trace::Counter& inflightNow;
    trace::Histogram& requestMicros;
    trace::Histogram& compileMicros;
    trace::Histogram& queueWaitMicros;  ///< admission to lookup-lane start
    trace::Histogram& ccWaitMicros;     ///< handoff to cc-lane start

    static Counters& instance() {
        auto& m = trace::Metrics::instance();
        static Counters c{
            m.counter("wjd.requests.total"),
            m.counter("wjd.requests.compile"),
            m.counter("wjd.requests.stats"),
            m.counter("wjd.requests.ping"),
            m.counter("wjd.requests.shutdown"),
            m.counter("wjd.requests.bad"),
            m.counter("wjd.compile.ok"),
            m.counter("wjd.compile.errors"),
            m.counter("wjd.compile.joins"),
            m.counter("wjd.admission.rejects.client"),
            m.counter("wjd.admission.rejects.queue"),
            m.counter("wjd.admission.rejects.draining"),
            m.counter("wjd.inflight.current"),
            m.histogram("wjd.request.micros"),
            m.histogram("wjd.compile.micros"),
            m.histogram("wjd.queue.wait.micros"),
            m.histogram("wjd.cc.wait.micros"),
        };
        return c;
    }
};

} // namespace

struct Daemon::Impl {
    DaemonOptions opts;
    int workers = 4;
    int maxPerClient = 8;
    int queueCap = 64;

    int listenFd = -1;
    std::atomic<bool> stopping{false};
    bool started = false;

    std::thread acceptThread;
    std::vector<std::thread> pool;

    std::mutex mu;  ///< both queues, inflightKeys, activeJobs, conns, readers
    std::condition_variable cv;       ///< lookup lane: work available / exit
    std::condition_variable ccCv;     ///< cc lane: work available / exit
    std::condition_variable drainCv;  ///< wait()/Shutdown: drain progress
    std::deque<Job> queue;            ///< admitted, awaiting the lookup lane
    std::deque<CcJob> ccQueue;        ///< handed off, awaiting the cc lane
    int activeJobs = 0;               ///< requests a lane thread is holding
    int shutdownRepliers = 0;  ///< readers still owing a Shutdown Ok
    bool workersExit = false;
    std::vector<ConnPtr> conns;  ///< open connections (erased on reader exit)
    uint64_t nextReaderId = 0;
    std::map<uint64_t, std::thread> readers;  ///< live readers, one per connection
    std::vector<std::thread> deadReaders;     ///< exited readers awaiting join

    /// In-process singleflight: cache key -> the one compile resolving it.
    std::map<uint64_t, std::shared_future<Outcome>> inflightKeys;

    /// Modules whose only on-disk artifact is their scratch .so (cache
    /// disabled or store failed). Pinned so the path= we reported stays
    /// valid for the daemon's lifetime — NativeModule removes its scratch
    /// dir on destruction.
    std::mutex pinMu;
    std::vector<std::shared_ptr<NativeModule>> pinnedModules;

    // ---- request pipeline ---------------------------------------------
    bool lookup(const std::string& rawBody, Outcome& out, CcJob& miss);
    void handOff(CcJob cj);
    Outcome compile(const CcJob& cj);
    Outcome served(uint64_t key, const CompileResult& cr);
    std::string artifactPathFor(uint64_t key, const CompileResult& cr);
    void finish(const Job& job, const Outcome& out);
    void lookupLoop();
    void ccLoop();
    void readerLoop(ConnPtr conn, uint64_t readerId);
    void acceptLoop();
    void reapDeadReaders();
    bool drained() {
        return queue.empty() && ccQueue.empty() && activeJobs == 0;
    }
};

// ---------------------------------------------------------------- pipeline

/// The lookup lane's part of one request: decode, parse, rules, translate,
/// key, then the registry and the on-disk cache. Returns true with `out`
/// set when the request is answered here (a typed error or a hit); false
/// with `miss` filled in when it needs the cc lane.
bool Daemon::Impl::lookup(const std::string& rawBody, Outcome& out, CcJob& miss) {
    Body req;
    try {
        req = decodeBody(rawBody);
    } catch (const UsageError& e) {
        out.code = ErrCode::BadRequest;
        out.message = e.what();
        return true;
    }
    const std::string* newExpr = req.find("new");
    const std::string* method = req.find("method");
    if (!newExpr || !method || newExpr->empty() || method->empty()) {
        out.code = ErrCode::BadRequest;
        out.message = "compile request requires new= and method= kv entries";
        return true;
    }

    Translation tr;
    try {
        trace::Span parseSpan("wjd", "parse");
        Program prog = frontend::parseProgram(req.payload);
        parseSpan.end();

        requireCodingRules(prog);
        Interp in(prog);
        Value receiver = frontend::parseComposition(in, *newExpr);
        std::vector<Value> args;
        if (const std::string* a = req.find("args")) {
            std::istringstream ss(*a);
            std::string tok;
            while (ss >> tok) args.push_back(frontend::parseArgLiteral(tok));
        }
        trace::Span xlSpan("wjd", "translate");
        tr = translate(GraphSnapshot(prog, receiver, args), *method, TranslateOptions::fromEnv());
    } catch (const UsageError& e) {
        // Thrown by the parser with line/col context; by the composition /
        // argument readers without. The distinction the client cares about
        // is "fix your module" vs "fix your request" — parse errors carry
        // the "parse error at" prefix.
        const bool isParse = std::string(e.what()).find("parse error") != std::string::npos;
        out.code = isParse ? ErrCode::ParseError : ErrCode::SemanticError;
        out.message = e.what();
        return true;
    } catch (const WjError& e) {
        // Coding-rule violations, analysis defects, composition failures.
        out.code = ErrCode::SemanticError;
        out.message = e.what();
        return true;
    } catch (const std::exception& e) {
        // Backstop for anything the frontend throws beyond its typed
        // errors (std::bad_alloc on a pathological module, library
        // exceptions): malformed input is never a daemon crash.
        out.code = ErrCode::Internal;
        out.message = e.what();
        return true;
    }

    const uint64_t key = cacheKeyFor(tr.cSource);
    {
        const int64_t t0 = nowNs();
        trace::Span lookupSpan("wjd", "lookup");
        CompileResult cr;
        try {
            cr = loadCompiled(key);
        } catch (const std::exception&) {
            // The cc lane repeats the lookup and reports its failure typed.
        }
        if (cr.module) {
            out = served(key, cr);
            Counters::instance().compileMicros.observe((nowNs() - t0) / 1000);
            return true;
        }
    }
    miss.cSource = std::move(tr.cSource);
    miss.method = *method;
    miss.sourceHash = tr.sourceHash;
    miss.key = key;
    return false;
}

/// Moves a miss from the lookup lane to the cc lane. Under `mu` it either
/// joins the compile already in flight for its key or becomes that key's
/// leader, and is queued in the same step: a leader is always queued ahead
/// of its joiners, so a joiner blocking a cc thread never waits on a
/// compile that no thread has started.
void Daemon::Impl::handOff(CcJob cj) {
    cj.handoffNs = nowNs();
    bool joined = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = inflightKeys.find(cj.key);
        joined = it != inflightKeys.end();
        if (joined) {
            cj.outcome = it->second;
        } else {
            cj.lead = std::make_unique<std::promise<Outcome>>();
            cj.outcome = cj.lead->get_future().share();
            inflightKeys.emplace(cj.key, cj.outcome);
        }
        ccQueue.push_back(std::move(cj));
        --activeJobs;  // queued again, so the drain still waits for it
    }
    if (joined) Counters::instance().joins.inc();
    ccCv.notify_one();
}

/// The leader's compile of its key: compileAndLoad(), whose lookup half
/// catches a module published since the lookup lane missed.
Outcome Daemon::Impl::compile(const CcJob& cj) {
    Outcome res;
    res.key = cj.key;
    const int64_t t0 = nowNs();
    trace::Span ccSpan("wjd", "compile");
    try {
        res = served(cj.key, compileAndLoad(cj.cSource, cj.method, cj.sourceHash));
    } catch (const CompilerUnavailableError& e) {
        res.code = ErrCode::CompilerUnavailable;
        res.message = e.what();
    } catch (const WjError& e) {
        res.code = ErrCode::CompileError;
        res.message = e.what();
    } catch (const std::exception& e) {
        res.code = ErrCode::Internal;
        res.message = e.what();
    }
    if (!res.ok) Counters::instance().compileErr.inc();
    Counters::instance().compileMicros.observe((nowNs() - t0) / 1000);
    return res;
}

/// The Ok outcome for a module either lane obtained under `key`.
Outcome Daemon::Impl::served(uint64_t key, const CompileResult& cr) {
    Outcome res;
    res.ok = true;
    res.code = ErrCode::None;
    res.key = key;
    res.cacheHit = cr.cacheHit;
    res.attempts = cr.attempts;
    res.path = artifactPathFor(key, cr);
    Counters::instance().compileOk.inc();
    return res;
}

/// The path= a compile reply may legitimately report: the published cache
/// entry when it exists, else the artifact the module was actually loaded
/// from (WJ_CACHE=0, or store() failed on a full disk) — pinned so the
/// scratch dir outlives the reply. Empty only when no on-disk artifact
/// survives (e.g. an in-memory hit whose cache entry was evicted since).
std::string Daemon::Impl::artifactPathFor(uint64_t key, const CompileResult& cr) {
    std::error_code ec;
    const std::string published = JitCache::instance().entryPath(key);
    if (!published.empty() && std::filesystem::exists(published, ec)) return published;
    if (cr.module) {
        const std::string& loaded = cr.module->loadedPath();
        if (!loaded.empty() && std::filesystem::exists(loaded, ec)) {
            std::lock_guard<std::mutex> lock(pinMu);
            pinnedModules.push_back(cr.module);
            return loaded;
        }
    }
    return std::string();
}

// ------------------------------------------------------------------ threads

/// Replies to `job` and releases its admission slots.
void Daemon::Impl::finish(const Job& job, const Outcome& out) {
    if (out.ok) {
        Body b;
        b.set("key", format("%016llx", static_cast<unsigned long long>(out.key)));
        b.set("path", out.path);
        b.set("cacheHit", out.cacheHit ? "1" : "0");
        b.set("attempts", format("%d", out.attempts));
        job.conn->reply(makeOk(job.reqId, std::move(b)));
    } else {
        job.conn->reply(makeError(job.reqId, out.code, out.message));
    }
    job.conn->inflight.fetch_sub(1);
    Counters::instance().inflightNow.add(-1);
    Counters::instance().requestMicros.observe((nowNs() - job.admittedNs) / 1000);
    {
        std::lock_guard<std::mutex> lock(mu);
        --activeJobs;
    }
    drainCv.notify_all();
}

void Daemon::Impl::lookupLoop() {
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return workersExit || !queue.empty(); });
            if (queue.empty()) return;  // workersExit and nothing left
            job = std::move(queue.front());
            queue.pop_front();
            ++activeJobs;
        }
        Counters::instance().queueWaitMicros.observe((nowNs() - job.admittedNs) / 1000);
        Outcome out;
        CcJob miss;
        if (lookup(job.body, out, miss)) {
            finish(job, out);
        } else {
            miss.job = std::move(job);
            handOff(std::move(miss));
        }
    }
}

void Daemon::Impl::ccLoop() {
    for (;;) {
        CcJob cj;
        {
            std::unique_lock<std::mutex> lock(mu);
            ccCv.wait(lock, [&] { return workersExit || !ccQueue.empty(); });
            if (ccQueue.empty()) return;  // workersExit and nothing left
            cj = std::move(ccQueue.front());
            ccQueue.pop_front();
            ++activeJobs;
        }
        Counters::instance().ccWaitMicros.observe((nowNs() - cj.handoffNs) / 1000);
        Outcome out;
        if (cj.lead) {
            out = compile(cj);
            // Publish to joiners, THEN retire the key: a request handed off
            // between set_value and erase still joins a completed future
            // (instant get()), never a dangling one.
            cj.lead->set_value(out);
            std::lock_guard<std::mutex> lock(mu);
            inflightKeys.erase(cj.key);
        } else {
            trace::Span joinSpan("wjd", "compile.join");
            out = cj.outcome.get();
        }
        finish(cj.job, out);
    }
}

void Daemon::Impl::readerLoop(ConnPtr conn, uint64_t readerId) {
    auto& C = Counters::instance();
    for (;;) {
        Frame f;
        try {
            if (!readFrame(conn->fd, f)) break;  // clean EOF
        } catch (const WjError& e) {
            // Malformed header/frame: answer if the pipe still works, then
            // hang up. The daemon itself never goes down over junk bytes.
            C.reqBad.inc();
            conn->reply(makeError(0, ErrCode::BadRequest, e.what()));
            break;
        }
        C.reqTotal.inc();
        switch (f.type) {
        case MsgType::Ping: {
            C.reqPing.inc();
            Body b;
            b.set("pong", "1");
            conn->reply(makeOk(f.reqId, std::move(b)));
            break;
        }
        case MsgType::Stats: {
            C.reqStats.inc();
            Body b;
            b.payload = trace::Metrics::instance().toJson();
            conn->reply(makeOk(f.reqId, std::move(b)));
            break;
        }
        case MsgType::Shutdown: {
            C.reqShutdown.inc();
            // Register as a pending replier BEFORE flipping stopping, so
            // wait() cannot tear the connections down between our drain
            // wake-up and the Ok write below.
            {
                std::lock_guard<std::mutex> lock(mu);
                ++shutdownRepliers;
            }
            stopping.store(true);
            ::shutdown(listenFd, SHUT_RDWR);
            cv.notify_all();
            // Drain before answering: the Ok is the contract that every
            // admitted compile has completed and responded.
            {
                std::unique_lock<std::mutex> lock(mu);
                drainCv.wait(lock, [&] { return drained(); });
            }
            Body b;
            b.set("drained", "1");
            conn->reply(makeOk(f.reqId, std::move(b)));
            {
                std::lock_guard<std::mutex> lock(mu);
                --shutdownRepliers;
            }
            drainCv.notify_all();
            break;
        }
        case MsgType::Compile: {
            C.reqCompile.inc();
            if (stopping.load()) {
                C.rejectDraining.inc();
                conn->reply(makeError(f.reqId, ErrCode::ShuttingDown,
                                      "daemon is draining; not accepting new work"));
                break;
            }
            if (conn->inflight.load() >= maxPerClient) {
                C.rejectClient.inc();
                conn->reply(makeError(
                    f.reqId, ErrCode::ResourceExhausted,
                    format("client in-flight cap reached (%d); wait for responses",
                           maxPerClient)));
                break;
            }
            bool queued = false;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (static_cast<int>(queue.size() + ccQueue.size()) < queueCap) {
                    conn->inflight.fetch_add(1);
                    Job j;
                    j.conn = conn;
                    j.reqId = f.reqId;
                    j.body = std::move(f.body);
                    j.admittedNs = nowNs();
                    queue.push_back(std::move(j));
                    queued = true;
                }
            }
            if (queued) {
                C.inflightNow.inc();
                cv.notify_one();
            } else {
                C.rejectQueue.inc();
                conn->reply(makeError(f.reqId, ErrCode::ResourceExhausted,
                                      format("compile queue is full (%d)", queueCap)));
            }
            break;
        }
        default:
            C.reqBad.inc();
            conn->reply(makeError(f.reqId, ErrCode::BadRequest,
                                  format("unknown request type %u",
                                         static_cast<unsigned>(f.type))));
            break;
        }
    }
    // Reader exits on EOF/junk. Jobs this client still has queued run to
    // completion (the Conn outlives us via shared_ptr); their responses
    // fail silently in reply(). Release the fd NOW and hand our thread to
    // the reap list — a daemon serving many short-lived clients must not
    // accumulate one fd + one joinable thread per past connection.
    bool ownsConn = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto cit = std::find(conns.begin(), conns.end(), conn);
        if (cit != conns.end()) {
            conns.erase(cit);
            ownsConn = true;  // wait() has not claimed this conn for teardown
        }
        auto rit = readers.find(readerId);
        if (rit != readers.end()) {
            deadReaders.push_back(std::move(rit->second));
            readers.erase(rit);
        }
    }
    // Exactly one side closes: if wait() swapped the containers first, it
    // owns the conn (and joins our thread via its swapped-out map); closing
    // here too would race its shutdownNow() against fd reuse.
    if (ownsConn) conn->closeNow();
}

void Daemon::Impl::reapDeadReaders() {
    std::vector<std::thread> dead;
    {
        std::lock_guard<std::mutex> lock(mu);
        dead.swap(deadReaders);
    }
    // A thread on the list is in (or past) its last statement; these joins
    // return immediately or near enough.
    for (auto& t : dead) t.join();
}

void Daemon::Impl::acceptLoop() {
    for (;;) {
        reapDeadReaders();
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            if (stopping.load()) return;  // listen socket shut down: drain begins
            if (errno == EBADF || errno == EINVAL) return;  // socket gone
            // Transient failures — ECONNABORTED (peer gave up in the
            // backlog), EMFILE/ENFILE fd pressure, ENOBUFS/ENOMEM — must
            // not silently end accepting while the daemon lives on; back
            // off briefly and keep serving.
            if (!opts.quiet) {
                std::fprintf(stderr, "wjd: accept() failed: %s; retrying\n",
                             std::strerror(errno));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }
        if (stopping.load()) {
            ::close(fd);
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        // Spawn under mu: the reader's exit epilogue also takes mu, so it
        // cannot race ahead of its own registration in `readers`.
        std::lock_guard<std::mutex> lock(mu);
        const uint64_t id = nextReaderId++;
        conns.push_back(conn);
        readers.emplace(id, std::thread([this, conn, id] { readerLoop(conn, id); }));
    }
}

// ------------------------------------------------------------------- Daemon

namespace {

// Self-pipe: the handler only write()s (async-signal-safe); a watcher
// thread turns the byte into a requestStop() call, which may take locks.
int g_sigPipe[2] = {-1, -1};

// The daemon the watcher acts on. Registered by installSignalDrain and
// cleared by ~Daemon under g_sigMu, so a SIGTERM racing destruction makes
// the watcher see nullptr instead of calling into a destroyed object.
std::mutex g_sigMu;
Daemon* g_sigDaemon = nullptr;

extern "C" void wjdSignalHandler(int) {
    const char b = 1;
    [[maybe_unused]] ssize_t r = ::write(g_sigPipe[1], &b, 1);
}

} // namespace

Daemon::Daemon(DaemonOptions opts) : impl_(new Impl) {
    impl_->opts = std::move(opts);
}

Daemon::~Daemon() {
    {
        std::lock_guard<std::mutex> lock(g_sigMu);
        if (g_sigDaemon == this) g_sigDaemon = nullptr;
    }
    requestStop();
    wait();
}

const std::string& Daemon::socketPath() const { return impl_->opts.socketPath; }

void Daemon::start() {
    Impl& d = *impl_;
    if (d.opts.socketPath.empty()) throw UsageError("wjd: socket path is required");
    if (d.opts.socketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
        throw UsageError("wjd: socket path too long: " + d.opts.socketPath);
    }
    d.workers = d.opts.workers > 0 ? d.opts.workers : envInt("WJD_WORKERS", 4);
    d.maxPerClient =
        d.opts.maxInflightPerClient > 0 ? d.opts.maxInflightPerClient
                                        : envInt("WJD_MAX_INFLIGHT", 8);
    d.queueCap = d.opts.queueCap > 0 ? d.opts.queueCap : envInt("WJD_QUEUE_CAP", 64);

    // Worker threads race their eviction sweeps against each other's
    // publishes; the grace window makes that safe (see jit/cache.h). Only
    // a default — an explicit setting (tests) wins.
    ::setenv("WJ_CACHE_EVICT_GRACE_MS", "10000", /*overwrite=*/0);

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, d.opts.socketPath.c_str(), sizeof(addr.sun_path) - 1);

    d.listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (d.listenFd < 0) throw UsageError("wjd: socket() failed");
    if (::bind(d.listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        if (errno == EADDRINUSE) {
            // A previous daemon's socket file. If nobody answers, it is
            // stale (crashed daemon) — steal it; if a live daemon answers,
            // refuse to fight over the path.
            const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            const bool live =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
            if (probe >= 0) ::close(probe);
            if (live) {
                ::close(d.listenFd);
                d.listenFd = -1;
                throw UsageError("wjd: a daemon is already listening on " + d.opts.socketPath);
            }
            ::unlink(d.opts.socketPath.c_str());
            if (::bind(d.listenFd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
                ::close(d.listenFd);
                d.listenFd = -1;
                throw UsageError("wjd: cannot bind " + d.opts.socketPath + ": " +
                                 std::strerror(errno));
            }
        } else {
            ::close(d.listenFd);
            d.listenFd = -1;
            throw UsageError("wjd: cannot bind " + d.opts.socketPath + ": " +
                             std::strerror(errno));
        }
    }
    if (::listen(d.listenFd, 128) != 0) {
        ::close(d.listenFd);
        d.listenFd = -1;
        throw UsageError(std::string("wjd: listen() failed: ") + std::strerror(errno));
    }

    if (!d.opts.bundleDir.empty()) {
        const int n = loadBundleDir(d.opts.bundleDir, d.opts.quiet);
        if (!d.opts.quiet) {
            std::fprintf(stderr, "wjd: preloaded %d bundle(s) from %s\n", n,
                         d.opts.bundleDir.c_str());
        }
    }

    d.started = true;
    for (int i = 0; i < d.workers; ++i) {
        d.pool.emplace_back([&d] { d.lookupLoop(); });
        d.pool.emplace_back([&d] { d.ccLoop(); });
    }
    d.acceptThread = std::thread([&d] { d.acceptLoop(); });
    if (!d.opts.quiet) {
        std::fprintf(stderr, "wjd: listening on %s (%d workers per lane, %d/client, queue %d)\n",
                     d.opts.socketPath.c_str(), d.workers, d.maxPerClient, d.queueCap);
    }
}

void Daemon::requestStop() {
    Impl& d = *impl_;
    d.stopping.store(true);
    if (d.listenFd >= 0) ::shutdown(d.listenFd, SHUT_RDWR);
    d.cv.notify_all();
    d.ccCv.notify_all();
    d.drainCv.notify_all();
}

void Daemon::wait() {
    Impl& d = *impl_;
    if (!d.started) {
        if (d.listenFd >= 0) {
            ::close(d.listenFd);
            d.listenFd = -1;
        }
        return;
    }
    {
        std::unique_lock<std::mutex> lock(d.mu);
        d.drainCv.wait(lock, [&] {
            return d.stopping.load() && d.drained() && d.shutdownRepliers == 0;
        });
        d.workersExit = true;
    }
    d.cv.notify_all();
    d.ccCv.notify_all();
    for (auto& t : d.pool) t.join();
    d.pool.clear();
    if (d.acceptThread.joinable()) d.acceptThread.join();
    // Every admitted job has responded; now hang up on idle readers. A
    // reader exiting concurrently either removed its conn from d.conns
    // before the swap (it closed the fd itself, we never see it) or finds
    // the swapped-out containers empty and leaves both its conn and its
    // thread handle to us — never both sides touching one fd.
    std::vector<ConnPtr> conns;
    std::map<uint64_t, std::thread> readers;
    std::vector<std::thread> deadReaders;
    {
        std::lock_guard<std::mutex> lock(d.mu);
        conns.swap(d.conns);
        readers.swap(d.readers);
        deadReaders.swap(d.deadReaders);
    }
    for (auto& c : conns) c->shutdownNow();
    for (auto& kv : readers) kv.second.join();
    for (auto& t : deadReaders) t.join();
    for (auto& c : conns) c->closeNow();
    if (d.listenFd >= 0) {
        ::close(d.listenFd);
        d.listenFd = -1;
        ::unlink(d.opts.socketPath.c_str());
    }
    d.started = false;
    if (!d.opts.quiet) std::fprintf(stderr, "wjd: drained, exiting\n");
}

// ------------------------------------------------------------- signal drain

void installSignalDrain(Daemon& d) {
    if (g_sigPipe[0] >= 0) throw UsageError("wjd: signal drain already installed");
    if (::pipe(g_sigPipe) != 0) throw UsageError("wjd: pipe() failed");
    {
        std::lock_guard<std::mutex> lock(g_sigMu);
        g_sigDaemon = &d;
    }
    // The watcher deliberately does NOT capture the Daemon: it outlives any
    // one daemon (detached, blocked in read) and must consult the registry
    // under the lock each time it fires.
    std::thread([] {
        char b;
        while (::read(g_sigPipe[0], &b, 1) < 0 && errno == EINTR) {
        }
        std::lock_guard<std::mutex> lock(g_sigMu);
        if (g_sigDaemon) g_sigDaemon->requestStop();
    }).detach();
    struct sigaction sa{};
    sa.sa_handler = wjdSignalHandler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

} // namespace wj::service
