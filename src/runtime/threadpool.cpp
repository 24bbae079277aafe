#include "runtime/threadpool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include <unistd.h>

#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj::runtime {

namespace {
thread_local bool g_onWorker = false;

// Bounded polling before a thread parks on a condition variable. An idle
// worker polls the claim word for kWorkerSpin, which spans the serial code
// between the back-to-back dispatches of a solver iteration; a caller
// whose last chunks run on workers polls for kCallerSpin, which rides out
// a worker that lost its core for a while. Both yield after kPauseSpins
// polls, so a spinner that shares a core with the thread it waits on hands
// the core over instead of burning its time slice. The values and the
// sweep behind them are in EXPERIMENTS.md.
constexpr auto kWorkerSpin = std::chrono::microseconds(50);
constexpr auto kCallerSpin = std::chrono::microseconds(200);
constexpr int kPauseSpins = 64;

// Claim word layout: generation (32 bits) | chunk count (16) | next (16).
constexpr int kMaxChunks = 0xFFFF;
int wordNext(uint64_t w) { return static_cast<int>(w & 0xFFFF); }
int wordChunks(uint64_t w) { return static_cast<int>((w >> 16) & 0xFFFF); }

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/// Polls `ready` until it holds or `budget` has passed: pause first, then
/// yield. Returns the final verdict of `ready`.
template <class Pred>
bool spinFor(std::chrono::microseconds budget, Pred ready) {
    for (int i = 0; i < kPauseSpins; ++i) {
        if (ready()) return true;
        cpuRelax();
    }
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (!ready()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::yield();
    }
    return true;
}
} // namespace

ThreadPool& ThreadPool::instance() {
    // Leaked on purpose: worker threads may outlive static destructors of
    // translation units that still hold the JIT'ed code calling into them.
    static ThreadPool* pool = new ThreadPool();
    // Fork safety for the proc MPI transport: a forked child inherits the
    // pool object but none of its worker threads, so dispatching on the
    // stale pool would hang. Detect the pid change and hand out a fresh
    // pool (the parent's shell is leaked — the child's address space is
    // disposable by construction).
    static pid_t owner = ::getpid();
    if (::getpid() != owner) {
        pool = new ThreadPool();
        owner = ::getpid();
    }
    return *pool;
}

bool ThreadPool::onWorkerThread() noexcept { return g_onWorker; }

int ThreadPool::configuredThreads() {
    if (const char* v = std::getenv("WJ_THREADS"); v && *v) {
        return std::max(1, std::atoi(v));
    }
    return 1;
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_.store(true);
    }
    wake_.notify_all();
    for (auto& t : workers_) t.join();
}

void ThreadPool::ensureWorkers(int want) {
    if (static_cast<int>(workers_.size()) >= want) return;
    std::lock_guard<std::mutex> lock(m_);
    while (static_cast<int>(workers_.size()) < want) {
        const int slot = static_cast<int>(workers_.size());
        workers_.emplace_back([this, slot] { workerMain(slot); });
        ++spawned_;
    }
}

int ThreadPool::claim(int slot) noexcept {
    uint64_t w = claim_.load(std::memory_order_acquire);
    // A failed CAS reloads w, possibly with a newer generation; claiming
    // from that one is fine because job_ is read only after the claim.
    while (wordNext(w) < wordChunks(w) && slot < wordChunks(w) - 1) {
        if (claim_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            return wordNext(w);
        }
    }
    return -1;
}

void ThreadPool::runChunk(int chunk, bool onWorker) noexcept {
    // The unfinished claimed chunk keeps this job's dispatcher waiting, so
    // job_ and its ctx stay valid until the decrement below.
    const Job& job = job_;
    int64_t clo, chi;
    staticChunk(job.lo, job.hi, job.chunks, chunk, &clo, &chi);
    try {
        if (onWorker) {
            // Workers carry no rank binding of their own; tag the chunk
            // span with the dispatching rank so Perfetto groups it under
            // the rank that issued the loop.
            trace::setThreadRank(job.traceRank);
            trace::Span span("pool", "chunk", "lo", clo, "hi", chi, "slot", chunk);
            job.body(clo, chi, job.ctx);
        } else {
            job.body(clo, chi, job.ctx);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(m_);
        if (!error_) error_ = std::current_exception();
    }
    if (onWorker) trace::setThreadRank(-1);
    // seq_cst pairs with the caller's park (callerParked_, then a load of
    // unfinished_): one of the two sides sees the other.
    if (unfinished_.fetch_sub(1) == 1 && callerParked_.load()) {
        std::lock_guard<std::mutex> lock(m_);
        done_.notify_one();
    }
}

void ThreadPool::workerMain(int slot) {
    g_onWorker = true;
    const auto claimable = [this, slot] {
        const uint64_t w = claim_.load();
        return stop_.load(std::memory_order_relaxed) ||
               (wordNext(w) < wordChunks(w) && slot < wordChunks(w) - 1);
    };
    for (;;) {
        if (!spinFor(kWorkerSpin, claimable)) {
            std::unique_lock<std::mutex> lock(m_);
            // seq_cst pairs with the dispatcher's publish (claim_, then a
            // load of parked_): one of the two sides sees the other.
            parked_.fetch_add(1);
            wake_.wait(lock, claimable);
            parked_.fetch_sub(1);
        }
        if (stop_.load()) return;
        for (int c; (c = claim(slot)) >= 0;) runChunk(c, true);
    }
}

void ThreadPool::parallelFor(int64_t lo, int64_t hi, Body body, void* ctx) {
    if (hi <= lo) return;
    const int64_t n = hi - lo;
    const int threads = static_cast<int>(
        std::min<int64_t>({configuredThreads(), n, kMaxChunks}));
    static auto& dispatchCount = trace::Metrics::instance().counter("pool.dispatches");
    static auto& inlineCount = trace::Metrics::instance().counter("pool.dispatches.inline");
    trace::Span span("pool", "parallelFor", "n", n, "threads", threads);
    if (threads <= 1 || g_onWorker) {
        inlineCount.inc();
        span.arg(1, "threads", 1);
        body(lo, hi, ctx);
        return;
    }
    // Another rank's dispatch is in flight: don't queue behind it (the
    // owner may hold the workers for a whole compute region) — run inline.
    bool expected = false;
    if (!busy_.compare_exchange_strong(expected, true, std::memory_order_acquire)) {
        inlineCount.inc();
        span.arg(1, "threads", 1);
        body(lo, hi, ctx);
        return;
    }
    dispatchCount.inc();
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    ensureWorkers(threads - 1);
    job_ = {body, ctx, lo, hi, threads, trace::threadRank()};
    unfinished_.store(threads, std::memory_order_relaxed);
    claim_.store((++gen_ << 32) | (static_cast<uint64_t>(threads) << 16));
    if (parked_.load() > 0) {
        { std::lock_guard<std::mutex> lock(m_); }
        wake_.notify_all();
    }

    for (int c; (c = claim(-1)) >= 0;) runChunk(c, false);

    const auto finished = [this] { return unfinished_.load() == 0; };
    if (!spinFor(kCallerSpin, finished)) {
        std::unique_lock<std::mutex> lock(m_);
        callerParked_.store(true);
        done_.wait(lock, finished);
        callerParked_.store(false);
    }
    // Every chunk's error_ write happened before its decrement, which the
    // final load of unfinished_ synchronizes with.
    const std::exception_ptr err = std::exchange(error_, nullptr);
    busy_.store(false, std::memory_order_release);
    if (err) std::rethrow_exception(err);
}

int64_t ThreadPool::dispatches() const noexcept {
    return dispatches_.load(std::memory_order_relaxed);
}

int64_t ThreadPool::workersSpawned() const noexcept {
    std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(m_));
    return spawned_;
}

} // namespace wj::runtime
