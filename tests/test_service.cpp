// The wjd compile service (src/service/): protocol framing, in-flight
// dedup, the lookup lane answering hits while the cc lane compiles,
// admission control, typed error taxonomy, graceful drain, and the
// daemon's resilience to misbehaving clients.
//
// Two tiers:
//   * ServiceTest — an in-process Daemon on a private socket + private
//     compile cache per test. Fast, deterministic, and the metrics
//     registry is shared with the test so counters can be asserted
//     directly.
//   * ProcWjdTest (ctest label "proc") — forks the REAL wjd binary
//     (path injected via the WJD_BIN compile definition) to cover what
//     only a separate process can: SIGTERM drain and the cross-process
//     single-cc guarantee of two daemons sharing one cache directory.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "service/bundle.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "support/diagnostics.h"
#include "support/scratch.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace fs = std::filesystem;
using namespace wj;
using namespace wj::service;

namespace {

/// A tiny valid module whose generated C differs per `nonce`, so every
/// test (and every phase within a test) can mint fresh cache keys.
std::string moduleSource(int nonce) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "@WootinJ\n"
                  "class Svc%d {\n"
                  "    Svc%d() {}\n"
                  "    int run(int n) {\n"
                  "        int acc = 0;\n"
                  "        for (int i = 0; i < n; i = i + 1) { acc = acc + i * %d; }\n"
                  "        return acc;\n"
                  "    }\n"
                  "}\n",
                  nonce, nonce, nonce % 97 + 1);
    return buf;
}

/// Per-run nonce base so repeated ctest invocations against a reused
/// build tree never collide on cache keys across tests.
int nonceBase() {
    static int base = static_cast<int>((::getpid() % 10000) * 1000);
    return base;
}

class ServiceTest : public ::testing::Test {
protected:
    void SetUp() override {
        scratch_ = makeScratchDir("wjd_test");
        setenv("WJ_CACHE_DIR", (scratch_ + "/cache").c_str(), 1);
        setenv("WJ_CACHE", "1", 1);
        unsetenv("WJ_CACHE_MAX_BYTES");
        JitCache::instance().clearLoaded();
        fault::FaultPlan::instance().disarm();
    }

    void TearDown() override {
        // A test that holds its compiles behind gateCompiler() releases
        // them here too, so the drain below cannot wait on a held cc.
        std::ofstream(scratch_ + "/release");
        daemon_.reset();
        fault::FaultPlan::instance().disarm();
        unsetenv("WJ_CACHE_DIR");
        unsetenv("WJ_CC");
        unsetenv("WJ_JIT_RETRIES");
        unsetenv("WJ_JIT_BACKOFF_MS");
        JitCache::instance().clearLoaded();
        std::error_code ec;
        fs::remove_all(scratch_, ec);
    }

    /// Starts the in-process daemon (quiet, private socket in scratch).
    Daemon& startDaemon(int workers = 2, int maxInflight = 0, int queueCap = 0) {
        DaemonOptions o;
        o.socketPath = scratch_ + "/wjd.sock";
        o.workers = workers;
        o.maxInflightPerClient = maxInflight;
        o.queueCap = queueCap;
        o.quiet = true;
        daemon_ = std::make_unique<Daemon>(o);
        daemon_->start();
        return *daemon_;
    }

    Client connect() {
        Client c;
        c.connect(daemon_->socketPath());
        return c;
    }

    /// A compiler wrapper that logs each run to `<scratch>/cc-runs`, then
    /// blocks until `<scratch>/release` exists and runs cc. Set as WJ_CC,
    /// it holds every cold compile for as long as the test wants.
    std::string gateCompiler() {
        const std::string path = scratch_ + "/gate-cc.sh";
        {
            std::ofstream out(path);
            out << "#!/bin/sh\necho run >> '" << scratch_ << "/cc-runs'\n"
                << "while [ ! -e '" << scratch_ << "/release' ]; do sleep 0.01; done\n"
                << "exec cc \"$@\"\n";
        }
        ::chmod(path.c_str(), 0755);
        return path;
    }

    /// Compiler runs the gate has logged so far.
    int gateRuns() {
        std::ifstream in(scratch_ + "/cc-runs");
        int n = 0;
        for (std::string line; std::getline(in, line);) ++n;
        return n;
    }

    void openGate() { std::ofstream(scratch_ + "/release"); }
    void closeGate() { fs::remove(scratch_ + "/release"); }

    std::string scratch_;
    std::unique_ptr<Daemon> daemon_;
};

/// Sends a Compile of moduleSource(nonce) without waiting for the reply.
void sendCompile(Client& c, int nonce, uint64_t reqId) {
    Body b;
    b.set("new", "Svc" + std::to_string(nonce) + "()");
    b.set("method", "run");
    b.set("args", "8");
    b.payload = moduleSource(nonce);
    writeFrame(c.fd(), Frame{MsgType::Compile, reqId, encodeBody(b)});
}

/// Reads one reply if it arrives within `ms`; false on timeout.
bool replyWithin(Client& c, int ms, Frame& out) {
    pollfd p{c.fd(), POLLIN, 0};
    return ::poll(&p, 1, ms) == 1 && c.readReply(out);
}

/// Polls `pred` for up to 10 s.
template <class Pred>
bool eventually(Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
}

/// kv field of a decoded body, "" when absent.
std::string bodyField(const Body& b, const std::string& key) {
    const std::string* v = b.find(key);
    return v ? *v : std::string();
}

/// Counter value out of the daemon's Stats JSON ( "name": value ).
int64_t counterIn(const std::string& json, const std::string& name) {
    const std::string needle = "\"" + name + "\": ";
    const size_t at = json.find(needle);
    if (at == std::string::npos) return -1;
    return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

/// Sample count of a histogram in the Stats JSON, -1 when absent.
int64_t histogramCountIn(const std::string& json, const std::string& name) {
    return counterIn(json, name + "\": {\"count");
}

} // namespace

// ------------------------------------------------------------ basic RPCs

TEST_F(ServiceTest, PingStatsAndColdWarmCompile) {
    startDaemon();
    Client c = connect();
    EXPECT_TRUE(c.ping().ok);

    const int nonce = nonceBase() + 1;
    const std::string src = moduleSource(nonce);
    const std::string newExpr = "Svc" + std::to_string(nonce) + "()";

    Client::Reply cold = c.compile(src, newExpr, "run", "8");
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_GE(cold.attempts, 1);
    EXPECT_TRUE(fs::exists(cold.path)) << cold.path;

    Client::Reply warm = c.compile(src, newExpr, "run", "8");
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.keyHex, cold.keyHex);

    Client::Reply st = c.stats();
    ASSERT_TRUE(st.ok);
    EXPECT_GE(counterIn(st.statsJson, "wjd.requests.total"), 4);
    EXPECT_GE(counterIn(st.statsJson, "wjd.compile.ok"), 2);
}

// The module registry keeps what the lookup lane loaded: once a key has
// been read from disk, its next hit is a map lookup, with no disk read,
// CRC or dlopen, although no reply holds the module any more.
TEST_F(ServiceTest, SecondHitOfAModuleIsServedFromMemory) {
    startDaemon();
    Client c = connect();
    const int nonce = nonceBase() + 120;
    const std::string src = moduleSource(nonce);
    const std::string newExpr = "Svc" + std::to_string(nonce) + "()";
    Client::Reply cold = c.compile(src, newExpr, "run", "4");
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_FALSE(cold.cacheHit);
    JitCache::instance().clearLoaded();  // the first hit reads the disk, as a new daemon would

    trace::Counter& memory = trace::Metrics::instance().counter("jit.cache.hits.memory");
    trace::Counter& disk = trace::Metrics::instance().counter("jit.cache.hits.disk");
    const int64_t memory0 = memory.value();
    const int64_t disk0 = disk.value();
    Client::Reply first = c.compile(src, newExpr, "run", "4");
    ASSERT_TRUE(first.ok) << first.message;
    EXPECT_TRUE(first.cacheHit);
    EXPECT_EQ(0, memory.value() - memory0);
    EXPECT_EQ(1, disk.value() - disk0);

    Client::Reply second = c.compile(src, newExpr, "run", "4");
    ASSERT_TRUE(second.ok) << second.message;
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.keyHex, first.keyHex);
    EXPECT_EQ(1, memory.value() - memory0);
    EXPECT_EQ(1, disk.value() - disk0);
}

TEST_F(ServiceTest, BundleBuiltByAnotherRecipeIsSkipped) {
    // A bundle records the key its module was built under. Once the fixed
    // compile recipe changes (here: the old -lm link instead of the lean
    // -nodefaultlibs -lgcc), the recorded key no longer matches and the
    // bundle must be skipped, not served as a hit.
    Translation tr;
    tr.cSource = "int wj_bundle_probe(void) { return " + std::to_string(nonceBase() + 7) + "; }\n";
    tr.entrySymbol = "wj_bundle_probe";
    const std::string dir = scratch_ + "/bundle";
    const BundleInfo info = writeBundle(dir, tr, "recipe_probe");
    EXPECT_EQ(cacheKeyFor(tr.cSource), info.key);

    JitCache::instance().clearDisk();
    EXPECT_EQ(1, loadBundleDir(dir, /*quiet=*/true));

    const std::string recipe = compileRecipe();
    const size_t link = recipe.find(" -nodefaultlibs -lgcc");
    ASSERT_NE(link, std::string::npos) << recipe;
    const uint64_t oldKey = JitCache::keyOf(tr.cSource, resolvedCompiler(), resolvedFlags(),
                                            toolchainVersion(recipe.substr(0, link) + " -lm"));
    std::string manifest;
    {
        std::ifstream in(info.manifestPath);
        manifest.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    const std::string keyHex = format("%016llx", static_cast<unsigned long long>(info.key));
    const size_t at = manifest.find(keyHex);
    ASSERT_NE(at, std::string::npos) << manifest;
    manifest.replace(at, keyHex.size(),
                     format("%016llx", static_cast<unsigned long long>(oldKey)));
    std::ofstream(info.manifestPath, std::ios::trunc) << manifest;

    JitCache::instance().clearDisk();
    EXPECT_EQ(0, loadBundleDir(dir, /*quiet=*/true));
    EXPECT_TRUE(JitCache::instance().lookup(oldKey).empty());
}

TEST_F(ServiceTest, TypedErrorsForBadModules) {
    startDaemon();
    Client c = connect();

    // Parse error: daemon answers typed, stays up.
    Client::Reply parseErr = c.compile("class {", "X()", "run");
    EXPECT_FALSE(parseErr.ok);
    EXPECT_EQ(ErrCode::ParseError, parseErr.code);
    EXPECT_NE(parseErr.message.find("parse error"), std::string::npos) << parseErr.message;

    // Semantically broken: valid syntax, unknown receiver class.
    Client::Reply semErr =
        c.compile(moduleSource(nonceBase() + 2), "NoSuchClass()", "run");
    EXPECT_FALSE(semErr.ok);
    EXPECT_EQ(ErrCode::SemanticError, semErr.code);

    // Missing required fields is a BAD_REQUEST, not a crash.
    Body b;
    b.set("method", "run");
    b.payload = moduleSource(nonceBase() + 3);
    Frame req{MsgType::Compile, 77, encodeBody(b)};
    writeFrame(c.fd(), req);
    Frame resp;
    ASSERT_TRUE(c.readReply(resp));
    EXPECT_EQ(MsgType::Error, resp.type);
    Body eb = decodeBody(resp.body);
    EXPECT_EQ(errName(ErrCode::BadRequest), bodyField(eb, "name"));

    EXPECT_TRUE(c.ping().ok);
}

// ------------------------------------------------- in-flight compile dedup

TEST_F(ServiceTest, ConcurrentSameKeyCompilesCollapseToOneCc) {
    startDaemon(4);
    const int nonce = nonceBase() + 10;
    const std::string src = moduleSource(nonce);
    const std::string newExpr = "Svc" + std::to_string(nonce) + "()";

    const CacheStats before = JitCache::instance().stats();
    const int64_t joinsBefore =
        trace::Metrics::instance().counter("wjd.compile.joins").value();

    constexpr int kClients = 8;
    std::atomic<int> okCount{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&] {
            Client c;
            c.connect(daemon_->socketPath());
            while (!go.load()) std::this_thread::yield();
            Client::Reply r = c.compile(src, newExpr, "run", "8");
            if (r.ok) okCount.fetch_add(1);
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    EXPECT_EQ(kClients, okCount.load());
    // The herd cost exactly one external cc invocation...
    const CacheStats after = JitCache::instance().stats();
    EXPECT_EQ(1, after.misses - before.misses);
    // ...because the daemon joined the rest onto the in-flight compile.
    EXPECT_GE(trace::Metrics::instance().counter("wjd.compile.joins").value(),
              joinsBefore + 1);
}

TEST_F(ServiceTest, ClientDisconnectMidCompileDoesNotOrphanTheEntry) {
    startDaemon(2);
    const int nonce = nonceBase() + 20;
    const std::string src = moduleSource(nonce);
    const std::string newExpr = "Svc" + std::to_string(nonce) + "()";

    // Client A submits a fresh module and vanishes without reading the
    // response — mid-compile from the daemon's point of view.
    {
        Client a = connect();
        Body b;
        b.set("new", newExpr);
        b.set("method", "run");
        b.set("args", "8");
        b.payload = src;
        Frame req{MsgType::Compile, 1, encodeBody(b)};
        writeFrame(a.fd(), req);
        a.close();
    }

    // The compile must complete anyway (the artifact warms the cache) and
    // the in-flight entry must be reaped: client B's request for the SAME
    // key succeeds — either joined onto A's still-running compile or served
    // from the cache A's orphaned compile populated.
    Client b = connect();
    Client::Reply r = b.compile(src, newExpr, "run", "8");
    ASSERT_TRUE(r.ok) << r.message;

    // Once everything settled, the daemon reports zero in-flight work.
    // (A's worker may still be tearing down its job when B's joined reply
    // arrives, so poll briefly rather than sampling once.)
    int64_t inflight = -1;
    for (int i = 0; i < 100; ++i) {
        Client::Reply st = b.stats();
        ASSERT_TRUE(st.ok);
        inflight = counterIn(st.statsJson, "wjd.inflight.current");
        if (inflight == 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(0, inflight) << "orphaned in-flight work after client disconnect";
    EXPECT_TRUE(b.ping().ok);
}

// ------------------------------------------------- lookup lane, cc lane

TEST_F(ServiceTest, HitIsAnsweredWhileEveryWorkerCompiles) {
    // One worker per lane. A cold compile is held inside cc; a warm hit on
    // another connection must still be answered, because a hit never
    // queues behind a compile.
    setenv("WJ_CC", gateCompiler().c_str(), 1);  // WJ_CC is part of the key
    startDaemon(1);
    const int hitNonce = nonceBase() + 100, coldNonce = nonceBase() + 101;

    openGate();
    Client warm = connect();
    Client::Reply w = warm.compile(moduleSource(hitNonce),
                                   "Svc" + std::to_string(hitNonce) + "()", "run", "8");
    ASSERT_TRUE(w.ok) << w.message;
    ASSERT_FALSE(w.cacheHit);
    closeGate();

    Client cold = connect();
    sendCompile(cold, coldNonce, 1);
    ASSERT_TRUE(eventually([&] { return gateRuns() == 2; })) << "cold compile never started";

    Client hot = connect();
    sendCompile(hot, hitNonce, 2);
    Frame hit;
    ASSERT_TRUE(replyWithin(hot, 10000, hit)) << "the hit waited behind the held compile";
    ASSERT_EQ(MsgType::Ok, hit.type);
    EXPECT_EQ("1", bodyField(decodeBody(hit.body), "cacheHit"));
    Frame early;
    EXPECT_FALSE(replyWithin(cold, 0, early)) << "the held compile answered early";

    openGate();
    Frame coldReply;
    ASSERT_TRUE(replyWithin(cold, 60000, coldReply));
    ASSERT_EQ(MsgType::Ok, coldReply.type);
    EXPECT_EQ("0", bodyField(decodeBody(coldReply.body), "cacheHit"));
    EXPECT_EQ(2, gateRuns());

    // Both queue waits are measured: every request entered the lookup
    // lane, and the two misses (warm-up and cold) the cc lane.
    Client::Reply st = hot.stats();
    ASSERT_TRUE(st.ok);
    EXPECT_GE(histogramCountIn(st.statsJson, "wjd.queue.wait.micros"), 3) << st.statsJson;
    EXPECT_GE(histogramCountIn(st.statsJson, "wjd.cc.wait.micros"), 2) << st.statsJson;
}

TEST_F(ServiceTest, HitIsAnsweredWhileAHerdJoinsOneHeldCompile) {
    // Four identical cold requests and one hit, one worker per lane. The
    // first cold request leads the compile; the other three join it in
    // the cc lane, so the lookup lane stays free for the hit. Only after
    // the gate opens do the four cold replies arrive, from one cc run.
    setenv("WJ_CC", gateCompiler().c_str(), 1);
    startDaemon(1);
    const int hitNonce = nonceBase() + 110, coldNonce = nonceBase() + 111;

    openGate();
    Client warm = connect();
    ASSERT_TRUE(warm.compile(moduleSource(hitNonce), "Svc" + std::to_string(hitNonce) + "()",
                             "run", "8")
                    .ok);
    closeGate();

    auto& metrics = trace::Metrics::instance();
    const int64_t joins0 = metrics.counter("wjd.compile.joins").value();
    const int64_t misses0 = JitCache::instance().stats().misses;

    std::vector<Client> herd;
    for (int i = 0; i < 4; ++i) herd.push_back(connect());
    sendCompile(herd[0], coldNonce, 1);
    ASSERT_TRUE(eventually([&] { return gateRuns() == 2; })) << "cold compile never started";
    for (int i = 1; i < 4; ++i) sendCompile(herd[i], coldNonce, 1);
    ASSERT_TRUE(eventually([&] {
        return metrics.counter("wjd.compile.joins").value() - joins0 == 3;
    })) << "the herd did not join the held compile";

    Client hot = connect();
    sendCompile(hot, hitNonce, 2);
    Frame hit;
    ASSERT_TRUE(replyWithin(hot, 10000, hit)) << "the hit waited behind the held compile";
    ASSERT_EQ(MsgType::Ok, hit.type);
    EXPECT_EQ("1", bodyField(decodeBody(hit.body), "cacheHit"));
    for (Client& c : herd) {
        Frame early;
        EXPECT_FALSE(replyWithin(c, 0, early)) << "a held request answered early";
    }

    openGate();
    std::string key;
    for (Client& c : herd) {
        Frame r;
        ASSERT_TRUE(replyWithin(c, 60000, r));
        ASSERT_EQ(MsgType::Ok, r.type);
        const Body b = decodeBody(r.body);
        EXPECT_EQ("0", bodyField(b, "cacheHit"));
        if (key.empty()) key = bodyField(b, "key");
        EXPECT_EQ(key, bodyField(b, "key"));
    }
    EXPECT_EQ(2, gateRuns()) << "the herd ran cc more than once";
    EXPECT_EQ(1, JitCache::instance().stats().misses - misses0);
    EXPECT_EQ(3, metrics.counter("wjd.compile.joins").value() - joins0);
}

// -------------------------------------------------------- fault injection

TEST_F(ServiceTest, InjectedCompileFailureIsTypedAndDaemonSurvives) {
    setenv("WJ_JIT_RETRIES", "0", 1);    // no ladder: first failure is final
    setenv("WJ_JIT_BACKOFF_MS", "1", 1);
    startDaemon();
    Client c = connect();

    // Arm: the next external-compiler invocation fails (simulated OOM).
    fault::FaultPlan::instance().configure("failcompile:nth=1,count=1");
    Client::Reply fail =
        c.compile(moduleSource(nonceBase() + 30), "Svc" + std::to_string(nonceBase() + 30) + "()",
                  "run", "8");
    EXPECT_FALSE(fail.ok);
    EXPECT_EQ(ErrCode::CompileError, fail.code);
    EXPECT_NE(fail.message.find("injected"), std::string::npos) << fail.message;

    // The daemon is unharmed: the same module compiles once the fault
    // cleared (the failed attempt must not have poisoned the cache).
    fault::FaultPlan::instance().disarm();
    Client::Reply r =
        c.compile(moduleSource(nonceBase() + 30), "Svc" + std::to_string(nonceBase() + 30) + "()",
                  "run", "8");
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_FALSE(r.cacheHit);

    Client::Reply st = c.stats();
    EXPECT_GE(counterIn(st.statsJson, "wjd.compile.errors"), 1);
}

// ------------------------------------------------------- admission control

TEST_F(ServiceTest, SaturatedQueueShedsLoadWithTypedRejections) {
    // One worker and a 2-slot queue: a pipelined burst must overflow.
    startDaemon(1, 64, 2);
    Client c = connect();

    constexpr int kBurst = 16;
    for (int i = 0; i < kBurst; ++i) {
        const int nonce = nonceBase() + 40 + i;
        Body b;
        b.set("new", "Svc" + std::to_string(nonce) + "()");
        b.set("method", "run");
        b.set("args", "8");
        b.payload = moduleSource(nonce);
        Frame req{MsgType::Compile, static_cast<uint64_t>(i + 1), encodeBody(b)};
        writeFrame(c.fd(), req);
    }
    int accepted = 0, rejected = 0, other = 0;
    for (int i = 0; i < kBurst; ++i) {
        Frame resp;
        ASSERT_TRUE(c.readReply(resp)) << "connection died mid-burst";
        if (resp.type == MsgType::Ok) {
            ++accepted;
        } else {
            Body eb = decodeBody(resp.body);
            if (bodyField(eb, "name") == errName(ErrCode::ResourceExhausted)) ++rejected;
            else ++other;
        }
    }
    EXPECT_EQ(kBurst, accepted + rejected);
    EXPECT_EQ(0, other);
    EXPECT_GE(rejected, 1) << "a 2-slot queue should shed a 16-deep burst";
    EXPECT_GE(accepted, 1);
    EXPECT_TRUE(c.ping().ok) << "daemon must stay responsive after shedding";

    Client::Reply st = c.stats();
    EXPECT_GE(counterIn(st.statsJson, "wjd.admission.rejects.queue"), 1);
}

TEST_F(ServiceTest, PerClientInflightCapRejectsTheGreedyClient) {
    // Per-client cap of 1 with a deep queue: pipelining two compiles on one
    // connection must bounce the second, while a second CONNECTION is
    // admitted fine.
    startDaemon(1, 1, 64);
    Client greedy = connect();
    for (int i = 0; i < 2; ++i) {
        const int nonce = nonceBase() + 60 + i;
        Body b;
        b.set("new", "Svc" + std::to_string(nonce) + "()");
        b.set("method", "run");
        b.set("args", "8");
        b.payload = moduleSource(nonce);
        Frame req{MsgType::Compile, static_cast<uint64_t>(i + 1), encodeBody(b)};
        writeFrame(greedy.fd(), req);
    }
    int okN = 0, rejectedN = 0;
    for (int i = 0; i < 2; ++i) {
        Frame resp;
        ASSERT_TRUE(greedy.readReply(resp));
        if (resp.type == MsgType::Ok) ++okN;
        else if (bodyField(decodeBody(resp.body), "name") ==
                 errName(ErrCode::ResourceExhausted))
            ++rejectedN;
    }
    EXPECT_EQ(1, okN);
    EXPECT_EQ(1, rejectedN);

    Client::Reply st = greedy.stats();
    EXPECT_GE(counterIn(st.statsJson, "wjd.admission.rejects.client"), 1);
}

// ------------------------------------------------------------ protocol edge

TEST_F(ServiceTest, GarbageBytesGetBadRequestNotACrash) {
    startDaemon();
    Client c = connect();
    // Wrong magic entirely; at least one full header's worth of bytes so
    // the daemon's framed read completes and can reject it.
    const char junk[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
    static_assert(sizeof junk - 1 >= 20);
    c.sendRaw(junk, sizeof junk - 1);
    Frame resp;
    ASSERT_TRUE(c.readReply(resp)) << "daemon should answer before closing";
    EXPECT_EQ(MsgType::Error, resp.type);
    EXPECT_EQ(errName(ErrCode::BadRequest), bodyField(decodeBody(resp.body), "name"));

    // That connection is dead, but the daemon is not.
    Client c2 = connect();
    EXPECT_TRUE(c2.ping().ok);
}

TEST_F(ServiceTest, OversizedBodyIsRejected) {
    startDaemon();
    Client c = connect();
    // Valid magic, absurd bodyLen: must be refused without allocating it.
    unsigned char hdr[20] = {0};
    hdr[0] = 'W'; hdr[1] = 'J'; hdr[2] = 'D'; hdr[3] = '1';
    hdr[4] = 1;                               // type Compile
    hdr[16] = 0xff; hdr[17] = 0xff; hdr[18] = 0xff; hdr[19] = 0x7f;  // ~2 GiB
    c.sendRaw(hdr, sizeof hdr);
    Frame resp;
    ASSERT_TRUE(c.readReply(resp));
    EXPECT_EQ(MsgType::Error, resp.type);
    Client c2 = connect();
    EXPECT_TRUE(c2.ping().ok);
}

TEST_F(ServiceTest, TruncatedFrameThenDisconnectLeavesDaemonHealthy) {
    startDaemon();
    {
        Client c = connect();
        unsigned char partial[8] = {'W', 'J', 'D', '1', 1, 0, 0, 0};
        c.sendRaw(partial, sizeof partial);  // half a header, then EOF
        c.close();
    }
    Client c2 = connect();
    EXPECT_TRUE(c2.ping().ok);
}

#ifdef __linux__
/// Open fds of this process — the in-process daemon's fds included.
int openFdCount() {
    int n = 0;
    for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/fd")) ++n;
    return n;
}

TEST_F(ServiceTest, DisconnectedClientsReleaseTheirFds) {
    startDaemon();
    // Warm up one connect/disconnect cycle so lazily-created fds (metrics
    // files, cache dir handles) are part of the baseline.
    {
        Client w = connect();
        ASSERT_TRUE(w.ping().ok);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const int baseline = openFdCount();

    // A long-running daemon's stated workload: many short-lived clients.
    // Each accepted connection must give its fd back when the client
    // hangs up, not hold it until daemon shutdown.
    constexpr int kClients = 50;
    for (int i = 0; i < kClients; ++i) {
        Client c = connect();
        ASSERT_TRUE(c.ping().ok);
    }

    // Readers close their fd on EOF asynchronously; poll briefly.
    int now = -1;
    for (int i = 0; i < 100; ++i) {
        now = openFdCount();
        if (now <= baseline + 2) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_LE(now, baseline + 2)
        << kClients << " disconnected clients leaked fds (baseline " << baseline << ")";
    // And the daemon is still accepting.
    Client again = connect();
    EXPECT_TRUE(again.ping().ok);
}
#endif

// ---------------------------------------------------------- graceful drain

TEST_F(ServiceTest, ShutdownDrainsInflightCompilesFirst) {
    startDaemon(1);
    const int nonce = nonceBase() + 70;

    // Queue a fresh compile, then immediately request shutdown from a
    // second connection. The shutdown must not be acknowledged until the
    // compile finished, and the compile client must still get its answer.
    Client worker = connect();
    Body b;
    b.set("new", "Svc" + std::to_string(nonce) + "()");
    b.set("method", "run");
    b.set("args", "8");
    b.payload = moduleSource(nonce);
    auto& metrics = trace::Metrics::instance();
    const int64_t finishedBefore = metrics.histogram("wjd.request.micros").count();
    Frame req{MsgType::Compile, 9, encodeBody(b)};
    writeFrame(worker.fd(), req);

    // Shutdown must race an admitted compile, not a frame the daemon has
    // not read yet: wait until the compile is queued, running or done.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (metrics.counter("wjd.inflight.current").value() < 1 &&
           metrics.histogram("wjd.request.micros").count() == finishedBefore) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "compile never admitted";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    Client admin = connect();
    Client::Reply sd = admin.shutdown();
    EXPECT_TRUE(sd.ok);

    Frame resp;
    ASSERT_TRUE(worker.readReply(resp)) << "in-flight compile was dropped by shutdown";
    EXPECT_EQ(MsgType::Ok, resp.type);

    daemon_->wait();
    // Post-drain: new connections are refused (socket is gone).
    Client late;
    EXPECT_THROW(late.connect(scratch_ + "/wjd.sock"), UsageError);
    daemon_.reset();
}

TEST_F(ServiceTest, CompilesArrivingDuringDrainGetShuttingDown) {
    startDaemon(1);
    Client c = connect();
    ASSERT_TRUE(c.ping().ok);
    daemon_->requestStop();
    // The existing connection stays readable during the drain; a new
    // Compile on it must bounce with the typed drain code.
    Client::Reply r = c.compile(moduleSource(nonceBase() + 80),
                                "Svc" + std::to_string(nonceBase() + 80) + "()", "run");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(ErrCode::ShuttingDown, r.code);
    daemon_->wait();
    daemon_.reset();
}

// ======================================================================
// ProcWjdTest — the real binary (label "proc"; WJD_BIN from CMake).
// ======================================================================

namespace {

struct WjdProc {
    pid_t pid = -1;
    std::string sock;
};

/// Forks WJD_BIN --socket <sock> --quiet with the given extra env.
WjdProc spawnWjd(const std::string& sock,
                 const std::vector<std::pair<std::string, std::string>>& env = {}) {
    WjdProc p;
    p.sock = sock;
    p.pid = ::fork();
    if (p.pid == 0) {
        for (const auto& [k, v] : env) ::setenv(k.c_str(), v.c_str(), 1);
        ::execl(WJD_BIN, WJD_BIN, "--socket", sock.c_str(), "--quiet",
                static_cast<char*>(nullptr));
        ::_exit(127);
    }
    return p;
}

/// Polls until the daemon answers a ping (10 s budget).
bool awaitUp(const std::string& sock) {
    for (int i = 0; i < 200; ++i) {
        try {
            Client c;
            c.connect(sock);
            if (c.ping().ok) return true;
        } catch (const WjError&) {
        }
        ::usleep(50 * 1000);
    }
    return false;
}

/// waitpid with a 30 s watchdog; returns the exit status, -1 on timeout.
int awaitExit(pid_t pid) {
    for (int i = 0; i < 600; ++i) {
        int status = 0;
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) return status;
        ::usleep(50 * 1000);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
}

class ProcWjdTest : public ::testing::Test {
protected:
    void SetUp() override { scratch_ = makeScratchDir("wjd_proc"); }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(scratch_, ec);
    }
    std::string scratch_;
};

} // namespace

TEST_F(ProcWjdTest, SigtermDrainsInflightWorkThenExitsZero) {
    // A wrapper compiler that sleeps keeps the compile in flight long
    // enough to SIGTERM the daemon mid-build deterministically.
    const std::string wrapper = scratch_ + "/slow-cc.sh";
    {
        std::ofstream out(wrapper);
        out << "#!/bin/sh\nsleep 0.5\nexec cc \"$@\"\n";
    }
    ::chmod(wrapper.c_str(), 0755);

    const std::string sock = scratch_ + "/wjd.sock";
    WjdProc d = spawnWjd(sock, {{"WJ_CACHE_DIR", scratch_ + "/cache"},
                                {"WJ_CC", wrapper}});
    ASSERT_TRUE(awaitUp(sock));

    // Submit a fresh compile; once the daemon reports it in flight,
    // SIGTERM. Drain semantics: the response must still arrive, the
    // process must exit 0, and the socket file must be removed.
    const int nonce = nonceBase() + 90;
    Client c;
    c.connect(sock);
    Body b;
    b.set("new", "Svc" + std::to_string(nonce) + "()");
    b.set("method", "run");
    b.set("args", "8");
    b.payload = moduleSource(nonce);
    Frame req{MsgType::Compile, 5, encodeBody(b)};
    writeFrame(c.fd(), req);

    bool inflightSeen = false;
    for (int i = 0; i < 200 && !inflightSeen; ++i) {
        Client probe;
        probe.connect(sock);
        Client::Reply st = probe.stats();
        inflightSeen = st.ok && counterIn(st.statsJson, "wjd.inflight.current") >= 1;
        if (!inflightSeen) ::usleep(10 * 1000);
    }
    ASSERT_TRUE(inflightSeen) << "compile never showed up as in-flight";

    ASSERT_EQ(0, ::kill(d.pid, SIGTERM));

    Frame resp;
    ASSERT_TRUE(c.readReply(resp)) << "SIGTERM dropped an in-flight compile";
    EXPECT_EQ(MsgType::Ok, resp.type);

    const int status = awaitExit(d.pid);
    ASSERT_NE(-1, status) << "daemon hung after SIGTERM";
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "exit status " << status;
    EXPECT_FALSE(fs::exists(sock)) << "socket file left behind";
}

TEST_F(ProcWjdTest, TwoDaemonsOneCacheCompileTheSameModuleOnce) {
    // Two independent wjd processes share one cache directory. The same
    // fresh module submitted to both concurrently must cost exactly ONE
    // external cc invocation: the second daemon joins the first's build
    // via the cross-process BuildLock (or adopts the published artifact).
    //
    // cc invocations are counted exactly with a wrapper compiler that
    // appends to a log before delegating; a 300 ms sleep in the wrapper
    // forces the two submissions to overlap.
    const std::string log = scratch_ + "/cc.log";
    const std::string wrapper = scratch_ + "/cc-wrapper.sh";
    {
        std::ofstream out(wrapper);
        out << "#!/bin/sh\necho x >> '" << log << "'\nsleep 0.3\nexec cc \"$@\"\n";
    }
    ::chmod(wrapper.c_str(), 0755);

    const std::string cacheDir = scratch_ + "/cache";
    std::vector<std::pair<std::string, std::string>> env = {
        {"WJ_CACHE_DIR", cacheDir}, {"WJ_CC", wrapper}};
    WjdProc d1 = spawnWjd(scratch_ + "/wjd1.sock", env);
    WjdProc d2 = spawnWjd(scratch_ + "/wjd2.sock", env);
    ASSERT_TRUE(awaitUp(d1.sock));
    ASSERT_TRUE(awaitUp(d2.sock));

    const int nonce = nonceBase() + 95;
    const std::string src = moduleSource(nonce);
    const std::string newExpr = "Svc" + std::to_string(nonce) + "()";

    Client::Reply r1, r2;
    std::thread t1([&] {
        Client c;
        c.connect(d1.sock);
        r1 = c.compile(src, newExpr, "run", "8");
    });
    std::thread t2([&] {
        Client c;
        c.connect(d2.sock);
        r2 = c.compile(src, newExpr, "run", "8");
    });
    t1.join();
    t2.join();

    ASSERT_TRUE(r1.ok) << r1.message;
    ASSERT_TRUE(r2.ok) << r2.message;
    EXPECT_EQ(r1.keyHex, r2.keyHex);

    // Exactly one wrapper invocation across both daemons.
    int ccRuns = 0;
    {
        std::ifstream in(log);
        std::string line;
        while (std::getline(in, line)) ++ccRuns;
    }
    EXPECT_EQ(1, ccRuns) << "both daemons ran cc for the same key";

    // And the dedup is visible in the daemons' own metrics: one of them
    // joined a foreign in-flight build (crossproc) or served the freshly
    // published entry as a hit.
    const bool oneJoined = r1.cacheHit != r2.cacheHit;
    int64_t crossJoins = 0;
    for (const auto& sock : {d1.sock, d2.sock}) {
        Client c;
        c.connect(sock);
        Client::Reply st = c.stats();
        if (st.ok) crossJoins += std::max<int64_t>(
            0, counterIn(st.statsJson, "jit.cache.joins.crossproc"));
    }
    EXPECT_TRUE(oneJoined || crossJoins >= 1)
        << "no evidence of cross-process dedup (hits " << r1.cacheHit << "/"
        << r2.cacheHit << ", crossJoins " << crossJoins << ")";

    for (const auto& d : {d1, d2}) {
        Client c;
        c.connect(d.sock);
        (void)c.shutdown();
        const int status = awaitExit(d.pid);
        EXPECT_TRUE(status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
}
