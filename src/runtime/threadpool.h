// The intra-rank worker pool behind wjrt_parallel_for and GpuSim's
// block-parallel fast path.
//
// The paper's hybrid runs place one MPI rank per node and fill the node's
// cores with threads. WootinC mirrors that: MiniMPI ranks are OS threads,
// and each rank fans loop iterations out to this process-wide pool. The
// pool is persistent (workers are created once and reused across JIT
// invocations — test_parallel asserts this) and sized by WJ_THREADS.
//
// Determinism contract: parallelFor splits [lo, hi) into at most
// `threads()` *static contiguous chunks* — chunk boundaries depend only on
// the range and the thread count, never on scheduling. Because the
// translator only dispatches loops whose iterations have disjoint write
// sets, every memory cell is written by the same iteration — hence the
// same value — regardless of which thread runs which chunk, so results are
// bitwise-identical to the serial loop for every WJ_THREADS value.
//
// Handshake: chunks are claimed, not owned. A dispatch publishes its job
// and one atomic claim word (generation, chunk count, next chunk); the
// caller and the workers take chunk indices from it with CAS. The caller
// keeps claiming after its first chunk, so a dispatch whose workers are
// slow to wake degrades to the serial loop instead of waiting for them. A
// worker that wakes late sees a newer generation (or no chunk left) and
// claims nothing, so it never touches the stack-held ctx of a finished
// job. Idle workers, and a caller whose remaining chunks are running on
// workers, poll for a bounded time (pause, then yield) before parking on
// a condition variable; the budgets are the constants in threadpool.cpp.
//
// Nesting and rank-safety: a parallelFor issued from inside a worker (a
// nested proven-parallel loop, or two MiniMPI ranks racing for the pool)
// runs inline and serial on the caller. onWorkerThread() lets the runtime
// assert that comm/checkpoint intrinsics only execute on a rank's main
// thread — the parallelizer must never have let them into a loop body.
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wj::runtime {

class ThreadPool {
public:
    /// The process-wide pool (workers are lazily created on first parallel
    /// dispatch and reused until process exit).
    static ThreadPool& instance();

    /// True on a pool worker thread, inside its body callback.
    static bool onWorkerThread() noexcept;

    /// Target thread count: max(1, $WJ_THREADS), re-read on every call so
    /// tests and wjc --threads can change it between invocations.
    static int configuredThreads();

    using Body = void (*)(int64_t lo, int64_t hi, void* ctx);

    /// Runs body over [lo, hi) split into static contiguous chunks, one per
    /// thread; the caller and the workers claim chunks until none is left,
    /// and the call returns only when every chunk finished. An exception
    /// thrown by any chunk (e.g. a wjrt_trap bounds guard) is rethrown
    /// here, first-thrower-wins. Serial inline when hi - lo < 2,
    /// threads() == 1, or nested.
    void parallelFor(int64_t lo, int64_t hi, Body body, void* ctx);

    /// Dispatches that actually fanned out (≥ 2 chunks) — pool-reuse tests.
    int64_t dispatches() const noexcept;
    /// Workers ever created; stable across invocations at a fixed
    /// WJ_THREADS, proving the pool persists instead of respawning.
    int64_t workersSpawned() const noexcept;

    ~ThreadPool();

private:
    ThreadPool() = default;
    void ensureWorkers(int want);
    void workerMain(int slot);
    /// Claims the next chunk of the published job, or returns -1 when none
    /// is left. Worker `slot` only joins jobs of more than slot + 1 chunks,
    /// so surplus workers from a wider earlier dispatch stay parked.
    int claim(int slot) noexcept;
    /// Runs claimed chunk `chunk` of job_ and retires it.
    void runChunk(int chunk, bool onWorker) noexcept;

    struct Job {
        Body body = nullptr;
        void* ctx = nullptr;
        int64_t lo = 0, hi = 0;
        int chunks = 0;
        int traceRank = -1; // dispatching rank, for worker-chunk spans
    };

    /// One dispatch owns the workers at a time; a losing rank runs its
    /// range inline and serial instead of blocking (results are identical
    /// either way — see the determinism contract above).
    std::atomic<bool> busy_{false};
    /// (generation << 32) | (chunks << 16) | next unclaimed chunk.
    std::atomic<uint64_t> claim_{0};
    /// Chunks of the current job not yet finished; the caller waits for 0.
    std::atomic<int> unfinished_{0};
    std::atomic<int> parked_{0};        // workers blocked on wake_
    std::atomic<bool> callerParked_{false};
    std::atomic<bool> stop_{false};
    std::atomic<int64_t> dispatches_{0};

    /// Written by the busy_ owner before it publishes claim_; read by a
    /// worker only after it claimed a chunk, which keeps the job alive.
    Job job_;
    uint64_t gen_ = 0;                  // busy_ owner only
    std::vector<std::thread> workers_;  // busy_ owner only (and ~ThreadPool)

    std::mutex m_;                  // parking, error_, spawned_
    std::condition_variable wake_;  // parked workers wait for a claimable job
    std::condition_variable done_;  // parked caller waits for unfinished_ == 0
    std::exception_ptr error_;
    int64_t spawned_ = 0;
};

/// Chunk `i` of `chunks` over [lo, hi): the deterministic static split
/// shared by the pool and its tests.
inline void staticChunk(int64_t lo, int64_t hi, int chunks, int i, int64_t* clo, int64_t* chi) {
    const int64_t n = hi - lo;
    *clo = lo + n * i / chunks;
    *chi = lo + n * (i + 1) / chunks;
}

} // namespace wj::runtime
