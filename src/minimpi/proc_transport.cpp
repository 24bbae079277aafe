// ProcTransport: MiniMPI ranks as real processes.
//
// Each rank is a forked child of the launching process. The data plane is
// a matrix of single-producer/single-consumer byte rings in anonymous
// MAP_SHARED memory — one ring per ordered (src, dest) pair, condvar-free
// (acquire/release atomics + bounded spin with backoff on both ends).
// Each ring is a byte stream: a frame of any length streams through it in
// pieces as the receiver frees room, so every message from a source takes
// the same path and FIFO per source holds by construction. A per-child
// drainer thread reassembles frames into a local tag-matched mailbox so
// recv semantics (FIFO per source, ANY_SOURCE, timeouts) are identical to
// the threads transport.
//
// The control plane is a socketpair per child to the parent: READY before
// the world starts (no rank body runs until every fork has succeeded),
// DONE or an error report at the end. The
// parent supervises: it reaps children with waitpid — a rank that dies by
// a real signal (SIGKILL from a WJ_FAULT kill rule, an external `kill`, a
// crash) aborts the world with an error naming the child's pid and signal
// plus the same per-rank wait dump the watchdog produces — and runs the
// two-sample stall watchdog against the shared-memory wait states.
//
// Determinism contract (tested across transports): tag matching, FIFO per
// source, collective shapes and reduction order are byte-identical to the
// threads transport. The barrier is the only structural difference — a
// dissemination barrier built on system-channel messages (a condvar can't
// cross address spaces) — and its messages are exempt from fault-plan
// message rules so WJ_FAULT drop/dup/corrupt/delay counting replays
// identically on both transports.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#ifdef __GLIBC__
#include <stdio_ext.h>
#endif
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fault/fault.h"
#include "minimpi/minimpi.h"
#include "minimpi/transport.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj::minimpi {

namespace {

// Dissemination-barrier rounds use system-channel tags from this base so
// they can never cross-match collective traffic (tags 1..3).
constexpr int kTagBarrierBase = 1000;

// Control-protocol opcodes (child -> parent over the socketpair).
constexpr uint8_t kCtlReady = 'R';
constexpr uint8_t kCtlDone = 'D';
constexpr uint8_t kCtlExecError = 'E';
constexpr uint8_t kCtlUsageError = 'U';

// Grace period between the abort flag rising and the parent SIGKILLing
// children that have not exited on their own.
constexpr auto kAbortGrace = std::chrono::seconds(5);

// How long either end of a ring keeps yielding after its last progress
// before it falls back to 100 µs sleeps: long enough to span a ping-pong
// turnaround and the drainer's copy of a full 256 KiB ring. Measured in
// time, not in loop turns, so the window does not shrink when a turn
// gets cheaper.
constexpr auto kSpinWindow = std::chrono::microseconds(200);

/// One idle turn of a ring end whose last progress was at `since`.
void backOff(std::chrono::steady_clock::time_point since) {
    if (std::chrono::steady_clock::now() - since < kSpinWindow) {
        std::this_thread::yield();
    } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

std::string srcName(int src) {
    return src == kAnySource ? std::string("ANY") : std::to_string(src);
}

size_t alignUp(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }

/// Per-rank shared cell: watchdog-visible wait state + identity.
struct alignas(64) RankCell {
    std::atomic<int32_t> state{kRankRunning};
    std::atomic<int32_t> src{0};
    std::atomic<int32_t> tag{0};
    std::atomic<int32_t> channel{0};
    std::atomic<int32_t> depth{0};  // local mailbox depth (for dumps)
    std::atomic<int32_t> pid{0};
};

/// Shared control block at the head of the mapping.
struct SharedHeader {
    std::atomic<uint32_t> go{0};
    std::atomic<uint32_t> aborted{0};
    std::atomic<uint64_t> progress{0};
    std::atomic<int32_t> deadRank{-1};
    std::atomic<int32_t> deadPid{0};
    std::atomic<int32_t> deadSig{0};
    std::atomic<int64_t> messages{0};
    std::atomic<int64_t> bytes{0};
    std::atomic<int32_t> resultKind{0};
    std::atomic<int64_t> resultBits{0};
    std::atomic<uint32_t> resultSet{0};
};

/// SPSC byte-ring header; the data area follows the struct. `head` is
/// bytes ever produced, `tail` bytes ever consumed — free space is
/// capacity - (head - tail), and offsets wrap modulo capacity.
struct alignas(64) RingHdr {
    std::atomic<uint64_t> head{0};
    char pad0[64 - sizeof(std::atomic<uint64_t>)];
    std::atomic<uint64_t> tail{0};
    char pad1[64 - sizeof(std::atomic<uint64_t>)];
};

struct FrameHeader {
    uint32_t len = 0;  // payload bytes following this header
    int32_t src = 0;
    int32_t tag = 0;
    int32_t channel = 0;
};

void ringCopyIn(uint8_t* data, size_t cap, uint64_t at, const void* src, size_t n) {
    if (n == 0) return;  // an empty payload may have no buffer at all
    const size_t off = static_cast<size_t>(at % cap);
    const size_t first = std::min(n, cap - off);
    std::memcpy(data + off, src, first);
    if (first < n) std::memcpy(data, static_cast<const uint8_t*>(src) + first, n - first);
}

void ringCopyOut(const uint8_t* data, size_t cap, uint64_t at, void* dst, size_t n) {
    if (n == 0) return;
    const size_t off = static_cast<size_t>(at % cap);
    const size_t first = std::min(n, cap - off);
    std::memcpy(dst, data + off, first);
    if (first < n) std::memcpy(static_cast<uint8_t*>(dst) + first, data, n - first);
}

bool writeAll(int fd, const void* buf, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(buf);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

class ProcTransport final : public Transport {
public:
    explicit ProcTransport(int size) : size_(size) {}
    ~ProcTransport() override { releaseRun(); }

    TransportKind kindId() const noexcept override { return TransportKind::Proc; }

    void run(const std::function<void(int)>& body, int watchdogMs) override;
    void finishRun() override;

    void post(int dest, Message msg) override;
    Message take(int me, int src, int tag, int channel, int timeoutMs) override;
    void fillPayload(Message* msg, const void* buf, size_t bytes) override {
        msg->data.assign(static_cast<const uint8_t*>(buf),
                         static_cast<const uint8_t*>(buf) + bytes);
    }
    void recycle(std::vector<uint8_t>&&) override {}
    void barrier(int me) override;

    void publishResult(int kind, int64_t bits) override {
        hdr_->resultKind.store(kind, std::memory_order_relaxed);
        hdr_->resultBits.store(bits, std::memory_order_relaxed);
        hdr_->resultSet.store(1, std::memory_order_release);
    }
    bool takeResult(int* kind, int64_t* bits) override {
        if (!resultSet_) return false;
        resultSet_ = false;
        *kind = resultKind_;
        *bits = resultBits_;
        return true;
    }

    CommStats stats() const override { return total_; }
    bool watchdogFired() const noexcept override { return watchdogFired_.load(); }
    std::string peerDescription(int rank) const override;

private:
    struct ChildState {
        pid_t pid = -1;
        int fd = -1;  // parent end of the control socketpair
        bool reaped = false;
        bool ready = false;
        bool signaled = false;
        int exitCode = 0;
        int sig = 0;
        std::vector<uint8_t> buf;  // control-stream reassembly
    };

    /// A frame whose header the drainer has read but whose payload is
    /// still streaming in.
    struct PartialFrame {
        bool open = false;
        size_t got = 0;  // payload bytes received so far
        Message msg;
    };

    // ---- setup / teardown ---------------------------------------------
    void setupRun();
    void releaseRun();

    RingHdr* ring(int src, int dest) const {
        return reinterpret_cast<RingHdr*>(ringBase_ +
                                          (static_cast<size_t>(src) * size_ + dest) *
                                              ringStride_);
    }
    uint8_t* ringData(RingHdr* r) const {
        return reinterpret_cast<uint8_t*>(r) + sizeof(RingHdr);
    }

    // ---- child side ----------------------------------------------------
    [[noreturn]] void childMain(int rank, const std::function<void(int)>& body);
    void deliverLocal(Message msg);
    void ringSend(int dest, const Message& msg);
    void drainLoop();
    bool drainRings();
    void publishAbortLocally();
    [[noreturn]] void childAbortExit(const std::string& why);

    // ---- parent side ---------------------------------------------------
    void supervise(int watchdogMs);
    void parseControl(ChildState& c);
    std::string procDump() const;
    std::string deadChildReport() const;
    std::string rankStatus(int r) const;

    int size_;

    // Accumulated across runs (stats() contract: since construction).
    CommStats total_;
    std::atomic<bool> watchdogFired_{false};
    bool resultSet_ = false;
    int resultKind_ = 0;
    int64_t resultBits_ = 0;

    // Per-run shared mapping.
    SharedHeader* hdr_ = nullptr;
    RankCell* cells_ = nullptr;
    uint8_t* ringBase_ = nullptr;
    size_t ringBytes_ = 0;   // data bytes per directed ring
    size_t ringStride_ = 0;  // sizeof(RingHdr) + ringBytes_
    void* shm_ = nullptr;
    size_t shmLen_ = 0;
    std::string tracePath_;  // parent's trace destination at run start

    // Parent-side per-run state.
    std::vector<ChildState> children_;
    std::exception_ptr primaryErr_;
    std::exception_ptr secondaryErr_;

    // Child-side state (fresh copy-on-write after every fork).
    int childRank_ = -1;
    int ctlFd_ = -1;
    std::vector<PartialFrame> partial_;  // per source: the frame being drained
    std::mutex mbM_;
    std::condition_variable mbCv_;
    std::deque<Message> mb_;
    bool localAbort_ = false;
    std::string abortText_;
    std::atomic<bool> drainStop_{false};
    std::thread drainer_;
};

// ------------------------------------------------------------ setup

void ProcTransport::setupRun() {
    releaseRun();

    // Ring sizing: 256 KiB per directed pair, shrunk so the whole matrix
    // stays under 64 MiB at large rank counts (cluster-shaped worlds).
    size_t rb = 256u << 10;
    const size_t budget = 64u << 20;
    while (rb > 4096 && rb * static_cast<size_t>(size_) * size_ > budget) rb /= 2;
    ringBytes_ = rb;
    ringStride_ = sizeof(RingHdr) + ringBytes_;

    const size_t hdrEnd = alignUp(sizeof(SharedHeader), 64);
    const size_t cellsEnd = hdrEnd + alignUp(sizeof(RankCell) * size_, 64);
    shmLen_ = cellsEnd + ringStride_ * static_cast<size_t>(size_) * size_;
    shm_ = ::mmap(nullptr, shmLen_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (shm_ == MAP_FAILED) {
        shm_ = nullptr;
        throw ExecError(format("proc transport: mmap of %zu shared bytes failed: %s", shmLen_,
                               std::strerror(errno)));
    }
    uint8_t* base = static_cast<uint8_t*>(shm_);
    hdr_ = new (base) SharedHeader();
    cells_ = reinterpret_cast<RankCell*>(base + hdrEnd);
    for (int r = 0; r < size_; ++r) new (cells_ + r) RankCell();
    ringBase_ = base + cellsEnd;
    for (int s = 0; s < size_; ++s)
        for (int d = 0; d < size_; ++d) new (ring(s, d)) RingHdr();
}

void ProcTransport::releaseRun() {
    for (ChildState& c : children_) {
        if (c.fd >= 0) ::close(c.fd);
    }
    children_.clear();
    if (shm_) {
        ::munmap(shm_, shmLen_);
        shm_ = nullptr;
        hdr_ = nullptr;
        cells_ = nullptr;
        ringBase_ = nullptr;
    }
}

// ------------------------------------------------------------ run (parent)

void ProcTransport::run(const std::function<void(int)>& body, int watchdogMs) {
    setupRun();
    watchdogFired_.store(false);
    resultSet_ = false;
    primaryErr_ = nullptr;
    secondaryErr_ = nullptr;
    tracePath_ = trace::Tracer::instance().isEnabled() ? trace::Tracer::instance().path()
                                                       : std::string();

    children_.resize(static_cast<size_t>(size_));
    for (int r = 0; r < size_; ++r) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            hdr_->aborted.store(1);
            throw ExecError(format("proc transport: socketpair failed: %s",
                                   std::strerror(errno)));
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(sv[0]);
            ::close(sv[1]);
            hdr_->aborted.store(1);
            // Children already forked will observe the abort and exit; the
            // supervisor below reaps them before we rethrow.
            primaryErr_ = std::make_exception_ptr(
                ExecError(format("proc transport: fork of rank %d failed: %s", r,
                                 std::strerror(errno))));
            children_.resize(static_cast<size_t>(r));
            break;
        }
        if (pid == 0) {
            // Child: keep only our control end; drop the parent ends of
            // every sibling forked so far so their EOFs stay meaningful.
            ::close(sv[0]);
            for (int k = 0; k < r; ++k) {
                if (children_[static_cast<size_t>(k)].fd >= 0) {
                    ::close(children_[static_cast<size_t>(k)].fd);
                }
            }
            childRank_ = r;
            ctlFd_ = sv[1];
            childMain(r, body);  // never returns
        }
        ::close(sv[1]);
        children_[static_cast<size_t>(r)].pid = pid;
        children_[static_cast<size_t>(r)].fd = sv[0];
        cells_[r].pid.store(static_cast<int32_t>(pid), std::memory_order_release);
        ::fcntl(sv[0], F_SETFL, O_NONBLOCK);
    }

    supervise(watchdogMs);

    // Fold this run's shared counters into the since-construction totals
    // (the proc transport always copies, so no pooled/zero-copy split).
    total_.messages += hdr_->messages.load(std::memory_order_relaxed);
    total_.bytes += hdr_->bytes.load(std::memory_order_relaxed);
    if (hdr_->resultSet.load(std::memory_order_acquire)) {
        resultSet_ = true;
        resultKind_ = hdr_->resultKind.load(std::memory_order_relaxed);
        resultBits_ = hdr_->resultBits.load(std::memory_order_relaxed);
    }

    std::exception_ptr err = primaryErr_ ? primaryErr_ : secondaryErr_;
    // Keep the mapping alive until finishRun() (trace merge) — releaseRun
    // happens at the next run() or destruction.
    if (err) std::rethrow_exception(err);
}

void ProcTransport::supervise(int watchdogMs) {
    using clock = std::chrono::steady_clock;
    bool goSent = false;
    bool graceArmed = false;
    clock::time_point graceDeadline{};

    // Watchdog sampling state (same two-sample rule as the threads
    // transport, driven from the supervisor loop).
    uint64_t lastProgress = ~uint64_t{0};
    bool stalledOnce = false;
    auto nextSample = clock::now() + std::chrono::milliseconds(
                                         watchdogMs > 0 ? std::max(1, watchdogMs / 2) : 0);

    auto allReaped = [&] {
        for (const ChildState& c : children_) {
            if (!c.reaped) return false;
        }
        return true;
    };

    while (!allReaped()) {
        // 1. Control traffic.
        std::vector<pollfd> fds;
        for (ChildState& c : children_) {
            if (c.fd >= 0) fds.push_back({c.fd, POLLIN, 0});
        }
        if (!fds.empty()) ::poll(fds.data(), fds.size(), 20);
        for (ChildState& c : children_) {
            if (c.fd < 0) continue;
            for (;;) {
                uint8_t tmp[4096];
                const ssize_t n = ::read(c.fd, tmp, sizeof tmp);
                if (n > 0) {
                    c.buf.insert(c.buf.end(), tmp, tmp + n);
                    continue;
                }
                if (n == 0) {  // EOF: child side closed (exit)
                    ::close(c.fd);
                    c.fd = -1;
                    break;
                }
                if (errno == EINTR) continue;
                break;  // EAGAIN
            }
            parseControl(c);
        }

        // 2. Reap.
        for (size_t i = 0; i < children_.size(); ++i) {
            ChildState& c = children_[i];
            if (c.reaped || c.pid < 0) continue;
            int status = 0;
            const pid_t got = ::waitpid(c.pid, &status, WNOHANG);
            if (got != c.pid) continue;
            c.reaped = true;
            if (WIFSIGNALED(status)) {
                c.signaled = true;
                c.sig = WTERMSIG(status);
                int32_t expect = -1;
                if (hdr_->deadRank.compare_exchange_strong(expect, static_cast<int32_t>(i))) {
                    hdr_->deadPid.store(static_cast<int32_t>(c.pid));
                    hdr_->deadSig.store(c.sig);
                }
                hdr_->aborted.store(1, std::memory_order_release);
                if (!primaryErr_) {
                    primaryErr_ = std::make_exception_ptr(ExecError(deadChildReport()));
                }
            } else if (WIFEXITED(status)) {
                c.exitCode = WEXITSTATUS(status);
                if (c.exitCode != 0) hdr_->aborted.store(1, std::memory_order_release);
            }
        }

        // 3. Start the world once every fork has succeeded.
        if (!goSent) {
            bool allReady = true;
            for (const ChildState& c : children_) allReady = allReady && c.ready;
            if (allReady && !children_.empty()) {
                hdr_->go.store(1, std::memory_order_release);
                goSent = true;
            }
        }

        // 4. Stall watchdog.
        if (watchdogMs > 0 && goSent && !hdr_->aborted.load() && clock::now() >= nextSample) {
            nextSample = clock::now() + std::chrono::milliseconds(std::max(1, watchdogMs / 2));
            const uint64_t p = hdr_->progress.load(std::memory_order_relaxed);
            bool anyBlocked = false, allQuiet = true;
            for (int r = 0; r < size_; ++r) {
                if (children_[static_cast<size_t>(r)].reaped) continue;  // dead = quiet
                const int s = cells_[r].state.load(std::memory_order_acquire);
                if (s == kRankBlockedRecv || s == kRankBlockedBarrier) anyBlocked = true;
                else if (s != kRankDone) allQuiet = false;
            }
            const bool stalled = anyBlocked && allQuiet && p == lastProgress;
            if (stalled && stalledOnce) {
                watchdogFired_.store(true);
                if (!primaryErr_) {
                    primaryErr_ = std::make_exception_ptr(ExecError(format(
                        "MiniMPI watchdog: global stall — no progress for ~%d ms with every "
                        "live rank blocked (transport=proc); aborting world. Per-rank wait "
                        "state:%s",
                        watchdogMs, procDump().c_str())));
                }
                hdr_->aborted.store(1, std::memory_order_release);
            }
            stalledOnce = stalled;
            lastProgress = p;
        }

        // 5. Abort grace: children observe the flag and exit on their own;
        // anything still alive after the grace period is SIGKILLed.
        if (hdr_->aborted.load()) {
            if (!graceArmed) {
                graceArmed = true;
                graceDeadline = clock::now() + kAbortGrace;
            } else if (clock::now() >= graceDeadline) {
                for (ChildState& c : children_) {
                    if (!c.reaped && c.pid > 0) ::kill(c.pid, SIGKILL);
                }
                graceDeadline = clock::now() + kAbortGrace;
            }
        }
    }

    // Drain any control bytes that raced the exits, then close.
    for (ChildState& c : children_) {
        if (c.fd < 0) continue;
        for (;;) {
            uint8_t tmp[4096];
            const ssize_t n = ::read(c.fd, tmp, sizeof tmp);
            if (n > 0) {
                c.buf.insert(c.buf.end(), tmp, tmp + n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            break;
        }
        parseControl(c);
        ::close(c.fd);
        c.fd = -1;
    }

    // A child that died without managing an error report still fails the
    // run deterministically.
    if (!primaryErr_ && !secondaryErr_) {
        for (size_t i = 0; i < children_.size(); ++i) {
            const ChildState& c = children_[i];
            if (!c.signaled && c.exitCode != 0) {
                primaryErr_ = std::make_exception_ptr(ExecError(
                    format("proc transport: rank %zu (pid %d) exited with status %d without "
                           "reporting an error",
                           i, static_cast<int>(c.pid), c.exitCode)));
                break;
            }
        }
    }
}

void ProcTransport::parseControl(ChildState& c) {
    size_t at = 0;
    while (at < c.buf.size()) {
        const uint8_t op = c.buf[at];
        if (op == kCtlReady) {
            c.ready = true;
            ++at;
            continue;
        }
        if (op == kCtlDone) {
            ++at;
            continue;
        }
        if (op == kCtlExecError || op == kCtlUsageError) {
            if (c.buf.size() - at < 1 + sizeof(uint32_t)) break;  // partial
            uint32_t len = 0;
            std::memcpy(&len, c.buf.data() + at + 1, sizeof len);
            if (c.buf.size() - at < 1 + sizeof len + len) break;  // partial
            std::string text(reinterpret_cast<const char*>(c.buf.data() + at + 1 + sizeof len),
                             len);
            at += 1 + sizeof len + len;
            // Secondary errors ("world aborted" echoes from ranks that were
            // only collateral damage) must not mask the root cause.
            const bool secondary = text.find("MPI world aborted") != std::string::npos;
            auto err = op == kCtlUsageError
                           ? std::make_exception_ptr(UsageError(text))
                           : std::make_exception_ptr(ExecError(text));
            if (secondary) {
                if (!secondaryErr_) secondaryErr_ = std::move(err);
            } else if (!primaryErr_) {
                primaryErr_ = std::move(err);
            }
            continue;
        }
        ++at;  // unknown byte: skip (robustness over strictness here)
    }
    c.buf.erase(c.buf.begin(), c.buf.begin() + static_cast<ptrdiff_t>(at));
}

std::string ProcTransport::rankStatus(int r) const {
    const ChildState& c = children_[static_cast<size_t>(r)];
    if (c.signaled) {
        return format("pid %d, killed by signal %d (%s)", static_cast<int>(c.pid), c.sig,
                      strsignal(c.sig));
    }
    if (c.reaped) return format("pid %d, exited %d", static_cast<int>(c.pid), c.exitCode);
    return format("pid %d, running", static_cast<int>(c.pid));
}

std::string ProcTransport::procDump() const {
    std::string out;
    for (int r = 0; r < size_; ++r) {
        const int32_t depth = cells_[r].depth.load(std::memory_order_relaxed);
        switch (cells_[r].state.load(std::memory_order_acquire)) {
        case kRankBlockedRecv:
            out += format("\n  rank %d: blocked in recv(src=%s, tag=%d, %s channel), "
                          "mailbox depth %d [%s]",
                          r, srcName(cells_[r].src.load()).c_str(), cells_[r].tag.load(),
                          cells_[r].channel.load() == 0 ? "user" : "collective", depth,
                          rankStatus(r).c_str());
            break;
        case kRankBlockedBarrier:
            out += format("\n  rank %d: blocked in barrier, mailbox depth %d [%s]", r, depth,
                          rankStatus(r).c_str());
            break;
        case kRankDone:
            out += format("\n  rank %d: finished [%s]", r, rankStatus(r).c_str());
            break;
        default:
            out += format("\n  rank %d: running, mailbox depth %d [%s]", r, depth,
                          rankStatus(r).c_str());
            break;
        }
    }
    return out;
}

std::string ProcTransport::deadChildReport() const {
    const int r = hdr_->deadRank.load();
    const int pid = hdr_->deadPid.load();
    const int sig = hdr_->deadSig.load();
    return format("MiniMPI proc transport: rank %d (pid %d) died: killed by signal %d (%s) — "
                  "aborting world. Per-rank wait state:%s",
                  r, pid, sig, strsignal(sig), procDump().c_str());
}

std::string ProcTransport::peerDescription(int rank) const {
    if (!cells_ || rank < 0 || rank >= size_) return "";
    const int pid = cells_[rank].pid.load(std::memory_order_acquire);
    if (hdr_ && hdr_->deadRank.load() == rank) {
        return format("pid %d, killed by signal %d (%s)", pid, hdr_->deadSig.load(),
                      strsignal(hdr_->deadSig.load()));
    }
    const int st = cells_[rank].state.load(std::memory_order_acquire);
    return format("pid %d, %s", pid, st == kRankDone ? "finished" : "alive");
}

// ------------------------------------------------------------ child side

void ProcTransport::childMain(int rank, const std::function<void(int)>& body) {
    // The child inherited the parent's stdio buffers; anything the parent
    // printed-but-not-flushed before fork would otherwise be emitted again
    // by every rank at exit.
#ifdef __GLIBC__
    __fpurge(stdout);
#endif

    // A control-socket write after the parent went away must surface as
    // EPIPE, not kill the child silently.
    ::signal(SIGPIPE, SIG_IGN);

    // WJ_FAULT kill rules deliver a REAL SIGKILL in a process rank — the
    // crash the checkpoint/restart machinery claims to survive.
    fault::FaultPlan::killWithSigkill(true);

    // Per-process span file: the parent merges them by rank at exit.
    if (!tracePath_.empty()) {
        trace::Tracer::instance().enable(tracePath_ + ".rank" + std::to_string(rank));
    }

    // The rank's metrics sidecar counts only what the rank did, not the
    // parent's counts inherited through fork.
    trace::Metrics::instance().reset();

    partial_.assign(static_cast<size_t>(size_), PartialFrame{});
    mb_.clear();
    localAbort_ = false;
    drainStop_.store(false);

    // Report ready and wait for `go`: no rank body starts until every
    // fork has succeeded.
    uint8_t ready = kCtlReady;
    writeAll(ctlFd_, &ready, 1);
    while (!hdr_->go.load(std::memory_order_acquire)) {
        if (hdr_->aborted.load()) ::_exit(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    drainer_ = std::thread([this] { drainLoop(); });

    int exitCode = 0;
    std::string errText;
    uint8_t errOp = kCtlExecError;
    try {
        body(rank);
        cells_[rank].state.store(kRankDone, std::memory_order_release);
    } catch (const UsageError& e) {
        errOp = kCtlUsageError;
        errText = e.what();
    } catch (const std::exception& e) {
        errText = e.what();
    } catch (...) {
        errText = format("rank %d: unknown exception", rank);
    }

    if (!errText.empty()) {
        exitCode = 1;
        // Wake the peers first, then tell the parent why.
        hdr_->aborted.store(1, std::memory_order_release);
        const uint32_t len = static_cast<uint32_t>(errText.size());
        writeAll(ctlFd_, &errOp, 1);
        writeAll(ctlFd_, &len, sizeof len);
        writeAll(ctlFd_, errText.data(), len);
    } else {
        uint8_t done = kCtlDone;
        writeAll(ctlFd_, &done, 1);
    }

    drainStop_.store(true);
    if (drainer_.joinable()) drainer_.join();

    if (!tracePath_.empty()) trace::Tracer::instance().flush();
    std::fflush(nullptr);
    // _exit, not exit: the child inherited the parent's atexit stack
    // (bench JSON writers, tracer flush to the PARENT's path) and must not
    // run it.
    ::_exit(exitCode);
}

void ProcTransport::deliverLocal(Message msg) {
    {
        std::lock_guard<std::mutex> lock(mbM_);
        mb_.push_back(std::move(msg));
    }
    cells_[childRank_].depth.fetch_add(1, std::memory_order_relaxed);
    hdr_->progress.fetch_add(1, std::memory_order_relaxed);
    mbCv_.notify_all();
}

void ProcTransport::childAbortExit(const std::string& why) {
    // Unrecoverable transport-level failure inside a rank: report and die;
    // the parent turns this into the world's error.
    throw ExecError(why);
}

/// Streams one frame into the (me -> dest) ring: the header goes in whole,
/// then the payload in as many pieces as the receiver's drainer frees room
/// for, so a frame of any length fits a ring of any size.
void ProcTransport::ringSend(int dest, const Message& msg) {
    RingHdr* r = ring(childRank_, dest);
    uint8_t* data = ringData(r);
    FrameHeader fh;
    fh.len = static_cast<uint32_t>(msg.data.size());
    fh.src = msg.src;
    fh.tag = msg.tag;
    fh.channel = msg.channel;
    bool headerSent = false;
    size_t sent = 0;  // payload bytes already in the ring
    auto lastProgress = std::chrono::steady_clock::now();
    for (;;) {
        const uint64_t head = r->head.load(std::memory_order_relaxed);
        const uint64_t tail = r->tail.load(std::memory_order_acquire);
        size_t room = ringBytes_ - static_cast<size_t>(head - tail);
        uint64_t at = head;
        if (!headerSent && room >= sizeof fh) {
            ringCopyIn(data, ringBytes_, at, &fh, sizeof fh);
            at += sizeof fh;
            room -= sizeof fh;
            headerSent = true;
        }
        if (headerSent) {
            const size_t n = std::min(room, msg.data.size() - sent);
            ringCopyIn(data, ringBytes_, at, msg.data.data() + sent, n);
            at += n;
            sent += n;
        }
        if (at != head) {
            r->head.store(at, std::memory_order_release);
            if (sent == msg.data.size()) return;
            lastProgress = std::chrono::steady_clock::now();
            continue;
        }
        // Ring full: the receiver's drainer frees space continuously unless
        // it is gone. A finished rank stops draining — drop quietly, the
        // message is unobservable. A dead world aborts the send.
        if (hdr_->aborted.load()) {
            childAbortExit(format(
                "MPI world aborted (rank %d blocked sending to rank %d, transport=proc)",
                childRank_, dest));
        }
        if (cells_[dest].state.load(std::memory_order_acquire) == kRankDone) return;
        backOff(lastProgress);
    }
}

void ProcTransport::post(int dest, Message msg) {
    if (dest < 0 || dest >= size_) {
        throw ExecError(format("MPI send to invalid rank %d (from rank %d, tag %d)", dest,
                               msg.src, msg.tag));
    }
    // Barrier traffic exists only on this transport (the threads barrier is
    // a condvar), so it is exempt from traffic accounting AND from fault
    // message rules — otherwise stats() and WJ_FAULT counting could never
    // replay identically across transports.
    const bool barrierMsg = msg.channel == 1 && msg.tag >= kTagBarrierBase;
    if (!barrierMsg) {
        hdr_->messages.fetch_add(1, std::memory_order_relaxed);
        hdr_->bytes.fetch_add(static_cast<int64_t>(msg.data.size()),
                              std::memory_order_relaxed);
        static auto& userBytes = trace::Metrics::instance().counter("comm.bytes.user");
        static auto& sysBytes = trace::Metrics::instance().counter("comm.bytes.collective");
        static auto& msgs = trace::Metrics::instance().counter("comm.messages");
        (msg.channel == 0 ? userBytes : sysBytes).add(static_cast<int64_t>(msg.data.size()));
        msgs.inc();
    }
    bool duplicate = false;
    if (!barrierMsg && fault::FaultPlan::active()) {
        switch (fault::FaultPlan::instance().onMessage(msg.src, dest, msg.tag, msg.data)) {
        case fault::MsgFate::Drop: return;
        case fault::MsgFate::Duplicate: duplicate = true; break;
        case fault::MsgFate::Deliver: break;
        }
    }
    if (dest == childRank_) {
        if (duplicate) deliverLocal(msg);
        deliverLocal(std::move(msg));
        return;
    }
    if (duplicate) ringSend(dest, msg);
    ringSend(dest, msg);
}

/// Moves every byte the rings hold into the per-source partial frames and
/// delivers each frame once all of its payload has arrived.
bool ProcTransport::drainRings() {
    bool got = false;
    for (int s = 0; s < size_; ++s) {
        if (s == childRank_) continue;
        RingHdr* r = ring(s, childRank_);
        const uint8_t* data = ringData(r);
        PartialFrame& pf = partial_[static_cast<size_t>(s)];
        for (;;) {
            const uint64_t head = r->head.load(std::memory_order_acquire);
            uint64_t tail = r->tail.load(std::memory_order_relaxed);
            if (tail == head) break;
            if (!pf.open) {  // a sender publishes a header whole
                FrameHeader fh;
                ringCopyOut(data, ringBytes_, tail, &fh, sizeof fh);
                tail += sizeof fh;
                pf.open = true;
                pf.got = 0;
                pf.msg.src = fh.src;
                pf.msg.tag = fh.tag;
                pf.msg.channel = fh.channel;
                pf.msg.data.resize(fh.len);
            }
            const size_t n =
                std::min(pf.msg.data.size() - pf.got, static_cast<size_t>(head - tail));
            ringCopyOut(data, ringBytes_, tail, pf.msg.data.data() + pf.got, n);
            pf.got += n;
            r->tail.store(tail + n, std::memory_order_release);
            got = true;
            if (pf.got < pf.msg.data.size()) break;  // the rest is still streaming
            pf.open = false;
            deliverLocal(std::move(pf.msg));
            pf.msg = Message();
        }
    }
    return got;
}

void ProcTransport::publishAbortLocally() {
    std::string text;
    const int dead = hdr_->deadRank.load();
    if (dead >= 0) {
        text = format("MPI world aborted: rank %d (pid %d) died, killed by signal %d (%s)",
                      dead, hdr_->deadPid.load(), hdr_->deadSig.load(),
                      strsignal(hdr_->deadSig.load()));
    } else {
        text = "MPI world aborted by another rank";
    }
    {
        std::lock_guard<std::mutex> lock(mbM_);
        if (localAbort_) return;
        localAbort_ = true;
        abortText_ = std::move(text);
    }
    mbCv_.notify_all();
}

void ProcTransport::drainLoop() {
    auto lastFrame = std::chrono::steady_clock::now();
    for (;;) {
        const bool got = drainRings();
        if (hdr_->aborted.load(std::memory_order_acquire)) publishAbortLocally();
        if (drainStop_.load(std::memory_order_acquire)) return;
        if (got) {
            lastFrame = std::chrono::steady_clock::now();
        } else {
            backOff(lastFrame);
        }
    }
}

Message ProcTransport::take(int me, int src, int tag, int channel, int timeoutMs) {
    if (src != kAnySource && (src < 0 || src >= size_)) {
        throw ExecError(format("rank %d: MPI recv from invalid rank %d (tag %d)", me, src, tag));
    }
    RankCell& cell = cells_[me];
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
    bool timedOut = false;
    std::unique_lock<std::mutex> lock(mbM_);
    for (;;) {
        if (localAbort_) {
            throw ExecError(format("%s (rank %d was in recv src=%s tag=%d, transport=proc)",
                                   abortText_.c_str(), me, srcName(src).c_str(), tag));
        }
        auto it = std::find_if(mb_.begin(), mb_.end(), [&](const Message& m) {
            return m.channel == channel && m.tag == tag && (src == kAnySource || m.src == src);
        });
        if (it != mb_.end()) {
            Message msg = std::move(*it);
            mb_.erase(it);
            cell.depth.fetch_sub(1, std::memory_order_relaxed);
            hdr_->progress.fetch_add(1, std::memory_order_relaxed);
            return msg;
        }
        if (timedOut) {
            const std::string peer =
                src == kAnySource ? std::string() : ", peer " + peerDescription(src);
            throw ExecError(format(
                "MPI recv timeout at rank %d after %d ms (src=%s, tag=%d, transport=proc%s)",
                me, timeoutMs, srcName(src).c_str(), tag, peer.c_str()));
        }
        cell.src.store(src, std::memory_order_relaxed);
        cell.tag.store(tag, std::memory_order_relaxed);
        cell.channel.store(channel, std::memory_order_relaxed);
        cell.state.store(kRankBlockedRecv, std::memory_order_release);
        if (timeoutMs < 0) {
            mbCv_.wait(lock);
        } else if (mbCv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            timedOut = true;  // one more pass over the queue before throwing
        }
        cell.state.store(kRankRunning, std::memory_order_release);
    }
}

/// Dissemination barrier: ceil(log2(n)) rounds; in round k, rank r signals
/// (r + 2^k) mod n and waits for (r - 2^k) mod n, each round on its own
/// system tag. After the last round every rank has transitively heard from
/// every other. FIFO per (src, tag) keeps back-to-back barriers from
/// cross-matching.
void ProcTransport::barrier(int me) {
    if (size_ == 1) {
        hdr_->progress.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    cells_[me].state.store(kRankBlockedBarrier, std::memory_order_release);
    uint8_t token = 1;
    int round = 0;
    for (int dist = 1; dist < size_; dist <<= 1, ++round) {
        const int to = (me + dist) % size_;
        const int from = (me - dist % size_ + size_) % size_;
        Message msg;
        msg.src = me;
        msg.tag = kTagBarrierBase + round;
        msg.channel = 1;
        msg.data.assign(&token, &token + 1);
        post(to, std::move(msg));
        Message got = take(me, from, kTagBarrierBase + round, 1, -1);
        (void)got;
        cells_[me].state.store(kRankBlockedBarrier, std::memory_order_release);
    }
    cells_[me].state.store(kRankRunning, std::memory_order_release);
}

// ------------------------------------------------------------ trace merge

void ProcTransport::finishRun() {
    if (tracePath_.empty()) return;
    std::vector<std::string> rankFiles;
    for (int r = 0; r < size_; ++r) {
        const std::string f = tracePath_ + ".rank" + std::to_string(r);
        if (::access(f.c_str(), R_OK) == 0) rankFiles.push_back(f);
    }
    if (!rankFiles.empty()) trace::mergeProcessTraces(tracePath_, rankFiles);
}

} // namespace

std::unique_ptr<Transport> makeProcTransport(int size) {
    return std::make_unique<ProcTransport>(size);
}

} // namespace wj::minimpi
