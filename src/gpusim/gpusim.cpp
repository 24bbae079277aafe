#include "gpusim/gpusim.h"

#include <ucontext.h>

#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <vector>

#include "runtime/threadpool.h"
#include "support/diagnostics.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj::gpusim {

// ------------------------------------------------------------------- fibers

namespace {
constexpr size_t kFiberStackBytes = 256 * 1024;
constexpr int64_t kMaxBlockThreads = 1024;  // CUDA's per-block limit
} // namespace

/// Cooperative fiber running one logical GPU thread of a barrier-using block.
struct Fiber {
    ucontext_t ctx{};
    ucontext_t* scheduler = nullptr;
    std::vector<char> stack;
    ThreadCtx tc;
    KernelFn kernel = nullptr;
    void* args = nullptr;
    bool done = false;
    bool atBarrier = false;
};

namespace {

thread_local Fiber* g_currentFiber = nullptr;

extern "C" void wjGpusimTrampoline() {
    Fiber* f = g_currentFiber;
    f->kernel(&f->tc, f->args);
    f->done = true;
    swapcontext(&f->ctx, f->scheduler);
}

} // namespace

void syncThreads(ThreadCtx* tc) {
    if (!tc || !tc->fiber) {
        throw ExecError("syncthreads() in a kernel launched without barrier support "
                        "(translator should have set needsSync)");
    }
    Fiber* f = tc->fiber;
    f->atBarrier = true;
    swapcontext(&f->ctx, f->scheduler);
}

// ------------------------------------------------------------------- Device

Device::Device(int id) : id_(id) {}

Device::~Device() {
    // Paper: "garbage collection ... [is] developers' responsibility"; we
    // still release on teardown so long test runs don't leak host RAM.
    for (auto& [p, sz] : live_) std::free(p);
}

void* Device::malloc(int64_t bytes) {
    if (bytes < 0) throw ExecError("gpu malloc of negative size");
    void* p = std::malloc(static_cast<size_t>(bytes ? bytes : 1));
    if (!p) throw ExecError("device out of memory");
    live_.emplace(p, bytes);
    bytesLive_ += bytes;
    bytesPeak_ = std::max(bytesPeak_, bytesLive_);
    return p;
}

void Device::free(void* p) {
    auto it = live_.find(p);
    if (it == live_.end()) throw ExecError("gpu free of a pointer not allocated on this device");
    bytesLive_ -= it->second;
    std::free(p);
    live_.erase(it);
}

bool Device::owns(const void* p) const noexcept {
    return live_.count(const_cast<void*>(p)) != 0;
}

void Device::memcpyH2D(void* dst, const void* src, int64_t bytes) {
    if (!owns(dst)) throw ExecError("memcpyH2D: destination is not device memory");
    if (owns(src)) throw ExecError("memcpyH2D: source is device memory (use D2D/D2H)");
    std::memcpy(dst, src, static_cast<size_t>(bytes));
}

void Device::memcpyD2H(void* dst, const void* src, int64_t bytes) {
    if (!owns(const_cast<void*>(src))) throw ExecError("memcpyD2H: source is not device memory");
    if (owns(dst)) throw ExecError("memcpyD2H: destination is device memory");
    std::memcpy(dst, src, static_cast<size_t>(bytes));
}

void Device::launch(KernelFn k, void* args, Dim3 grid, Dim3 block, int64_t sharedBytes,
                    bool needsSync) {
    if (grid.count() <= 0 || block.count() <= 0) {
        throw ExecError("kernel launch with empty grid or block");
    }
    if (block.count() > kMaxBlockThreads) {
        throw ExecError("block of " + std::to_string(block.count()) + " threads exceeds the " +
                        std::to_string(kMaxBlockThreads) + "-thread limit");
    }
    if (sharedBytes < 0) throw ExecError("negative shared memory size");
    ++launches_;
    threads_ += grid.count() * block.count();
    trace::Span span("gpu", needsSync ? "launch.fibered" : "launch.fast",
                     "blocks", grid.count(), "block_threads", block.count());
    {
        static auto& launches = trace::Metrics::instance().counter("gpu.launches");
        static auto& threads = trace::Metrics::instance().counter("gpu.threads");
        launches.inc();
        threads.add(grid.count() * block.count());
    }

    const int64_t sharedFloats = sharedBytes / static_cast<int64_t>(sizeof(float));
    std::vector<float> shared(static_cast<size_t>(sharedFloats), 0.0f);
    if (needsSync) {
        launchFibered(k, args, grid, block, shared.data(), sharedFloats);
    } else {
        launchFast(k, args, grid, block, shared.data(), sharedFloats);
    }
}

namespace {

/// parallelFor context for the barrier-free path: blocks of a grid are
/// independent by construction (CUDA blocks may not communicate without
/// grid-wide cooperation, which needsSync-free kernels cannot express), so
/// the flattened block range fans out across the WJ_THREADS pool. Each
/// chunk carries a private ThreadCtx and a private shared-memory buffer —
/// shared memory is per-block state, never cross-block.
struct FastLaunch {
    KernelFn k;
    void* args;
    Dim3 grid, block;
    int64_t sharedFloats;
    Device* device;
};

void wjGpusimFastChunk(int64_t lo, int64_t hi, void* ctx) {
    const FastLaunch& L = *static_cast<const FastLaunch*>(ctx);
    std::vector<float> shared(static_cast<size_t>(L.sharedFloats));
    ThreadCtx tc;
    tc.gridDim = L.grid;
    tc.blockDim = L.block;
    tc.shared = shared.data();
    tc.sharedFloats = L.sharedFloats;
    tc.device = L.device;
    for (int64_t b = lo; b < hi; ++b) {
        const int bx = static_cast<int>(b % L.grid.x);
        const int by = static_cast<int>((b / L.grid.x) % L.grid.y);
        const int bz = static_cast<int>(b / (static_cast<int64_t>(L.grid.x) * L.grid.y));
        tc.blockIdx = {bx, by, bz};
        // Shared memory is per-block: reset between blocks. Without shared
        // memory data() may be null, which memset must not be handed.
        if (L.sharedFloats > 0) {
            std::memset(shared.data(), 0, static_cast<size_t>(L.sharedFloats) * sizeof(float));
        }
        for (int tz = 0; tz < L.block.z; ++tz)
            for (int ty = 0; ty < L.block.y; ++ty)
                for (int tx = 0; tx < L.block.x; ++tx) {
                    tc.threadIdx = {tx, ty, tz};
                    L.k(&tc, L.args);
                }
    }
}

} // namespace

void Device::launchFast(KernelFn k, void* args, Dim3 grid, Dim3 block, float* shared,
                        int64_t sharedFloats) {
    (void)shared;  // each block chunk allocates its own per-block buffer
    FastLaunch L{k, args, grid, block, sharedFloats, this};
    runtime::ThreadPool::instance().parallelFor(0, grid.count(), wjGpusimFastChunk, &L);
}

// swapcontext has setjmp-like semantics and GCC's -Wclobbered cannot see
// that the arming loop's locals are dead before the first context switch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wclobbered"
void Device::launchFibered(KernelFn k, void* args, Dim3 grid, Dim3 block, float* shared,
                           int64_t sharedFloats) {
    const int64_t nThreads = block.count();
    std::vector<Fiber> fibers(static_cast<size_t>(nThreads));
    ucontext_t scheduler;

    for (int bz = 0; bz < grid.z; ++bz)
        for (int by = 0; by < grid.y; ++by)
            for (int bx = 0; bx < grid.x; ++bx) {
                if (sharedFloats > 0) {
                    std::memset(shared, 0, static_cast<size_t>(sharedFloats) * sizeof(float));
                }
                // Arm one fiber per thread of this block. A single flat loop
                // keeps no induction state live across swapcontext (which
                // has setjmp-like clobber semantics).
                for (int64_t i = 0; i < nThreads; ++i) {
                    Fiber& f = fibers[static_cast<size_t>(i)];
                    const int tx = static_cast<int>(i % block.x);
                    const int ty = static_cast<int>((i / block.x) % block.y);
                    const int tz = static_cast<int>(i / (static_cast<int64_t>(block.x) * block.y));
                    f.stack.resize(kFiberStackBytes);
                    f.scheduler = &scheduler;
                    f.kernel = k;
                    f.args = args;
                    f.done = false;
                    f.atBarrier = false;
                    f.tc.threadIdx = {tx, ty, tz};
                    f.tc.blockIdx = {bx, by, bz};
                    f.tc.blockDim = block;
                    f.tc.gridDim = grid;
                    f.tc.shared = shared;
                    f.tc.sharedFloats = sharedFloats;
                    f.tc.fiber = &f;
                    f.tc.device = this;
                    if (getcontext(&f.ctx) != 0) throw ExecError("getcontext failed");
                    f.ctx.uc_stack.ss_sp = f.stack.data();
                    f.ctx.uc_stack.ss_size = f.stack.size();
                    f.ctx.uc_link = &scheduler;
                    makecontext(&f.ctx, wjGpusimTrampoline, 0);
                }
                // Round-robin: each pass runs every live fiber to its next
                // barrier or to completion; a pass boundary IS the barrier.
                int64_t remaining = nThreads;
                while (remaining > 0) {
                    int64_t reached = 0;
                    int64_t finished = 0;
                    for (auto& f : fibers) {
                        if (f.done) continue;
                        g_currentFiber = &f;
                        swapcontext(&scheduler, &f.ctx);
                        if (f.done) {
                            ++finished;
                        } else if (f.atBarrier) {
                            f.atBarrier = false;
                            ++reached;
                        } else {
                            panic("fiber yielded without barrier or completion");
                        }
                    }
                    if (reached != 0 && finished != 0) {
                        throw ExecError(
                            "barrier divergence: some threads of a block exited while others "
                            "called syncthreads (undefined behaviour in CUDA)");
                    }
                    remaining -= finished;
                }
            }
}

#pragma GCC diagnostic pop

} // namespace wj::gpusim
