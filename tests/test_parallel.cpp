// The intra-rank multithreaded execution backend, end to end: the static
// chunker and thread pool (runtime/threadpool.h), the dependence prover's
// per-loop verdicts (analysis/analysis.cpp), the parallel-for outliner in
// the translator (WJ_PARALLEL), and the determinism contract — threaded
// runs must be bitwise-identical to serial for every WJ_THREADS value.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "cg/cg_lib.h"
#include "gpusim/gpusim.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "runtime/threadpool.h"
#include "runtime/wjrt.h"
#include "stencil/stencil_lib.h"
#include "support/diagnostics.h"

using namespace wj;
using namespace wj::dsl;
using runtime::ThreadPool;
using runtime::staticChunk;

namespace {

/// Scoped setenv that restores the previous value on destruction.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        setenv(name, value, 1);
    }
    ~ScopedEnv() {
        if (had_) setenv(name_, old_.c_str(), 1);
        else unsetenv(name_);
    }

private:
    const char* name_;
    bool had_ = false;
    std::string old_;
};

bool bitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool reportHas(const analysis::Result& r, const std::string& needle) {
    for (const auto& line : r.parallelReport) {
        if (line.find(needle) != std::string::npos) return true;
    }
    return false;
}

} // namespace

// ------------------------------------------------------------ staticChunk

TEST(StaticChunk, PartitionIsExactAndContiguous) {
    for (int chunks : {1, 2, 3, 7, 8}) {
        for (int64_t lo : {0, 5, -3}) {
            const int64_t hi = lo + 29;
            int64_t prev = lo;
            for (int i = 0; i < chunks; ++i) {
                int64_t clo, chi;
                staticChunk(lo, hi, chunks, i, &clo, &chi);
                EXPECT_EQ(prev, clo) << "gap before chunk " << i;
                EXPECT_LE(clo, chi);
                prev = chi;
            }
            EXPECT_EQ(hi, prev) << chunks << " chunks over [" << lo << "," << hi << ")";
        }
    }
}

TEST(StaticChunk, BoundariesDependOnlyOnRangeAndCount) {
    int64_t a0, a1, b0, b1;
    staticChunk(0, 100, 4, 2, &a0, &a1);
    staticChunk(0, 100, 4, 2, &b0, &b1);
    EXPECT_EQ(a0, b0);
    EXPECT_EQ(a1, b1);
}

// -------------------------------------------------------------- ThreadPool

namespace {

struct FillCtx {
    int64_t* out;
};

void fillBody(int64_t lo, int64_t hi, void* ctx) {
    auto* c = static_cast<FillCtx*>(ctx);
    for (int64_t i = lo; i < hi; ++i) c->out[i] = i * i;
}

std::vector<int64_t> runFill(int threads, int64_t n) {
    ScopedEnv env("WJ_THREADS", std::to_string(threads).c_str());
    std::vector<int64_t> out(static_cast<size_t>(n), -1);
    FillCtx ctx{out.data()};
    ThreadPool::instance().parallelFor(0, n, fillBody, &ctx);
    return out;
}

} // namespace

TEST(ThreadPoolTest, DisjointWritesIdenticalAcrossThreadCounts) {
    const auto serial = runFill(1, 1000);
    for (int t : {2, 3, 8}) {
        EXPECT_EQ(serial, runFill(t, 1000)) << "WJ_THREADS=" << t;
    }
}

TEST(ThreadPoolTest, EmptyAndSingleIterationRanges) {
    ScopedEnv env("WJ_THREADS", "8");
    std::vector<int64_t> out(4, -1);
    FillCtx ctx{out.data()};
    ThreadPool::instance().parallelFor(3, 3, fillBody, &ctx);  // empty: no-op
    EXPECT_EQ(-1, out[0]);
    ThreadPool::instance().parallelFor(2, 3, fillBody, &ctx);  // one iteration
    EXPECT_EQ(4, out[2]);
}

TEST(ThreadPoolTest, PoolPersistsAcrossDispatches) {
    ScopedEnv env("WJ_THREADS", "4");
    std::vector<int64_t> out(64);
    FillCtx ctx{out.data()};
    ThreadPool::instance().parallelFor(0, 64, fillBody, &ctx);
    const int64_t spawned = ThreadPool::instance().workersSpawned();
    EXPECT_GE(spawned, 3);  // 4 chunks = caller + at least 3 workers
    for (int i = 0; i < 5; ++i) ThreadPool::instance().parallelFor(0, 64, fillBody, &ctx);
    EXPECT_EQ(spawned, ThreadPool::instance().workersSpawned())
        << "dispatches at a fixed WJ_THREADS must reuse workers, not respawn";
}

namespace {

void throwBody(int64_t lo, int64_t, void*) {
    if (lo >= 8) throw ExecError("chunk failed");
}

void nestedBody(int64_t lo, int64_t hi, void* ctx) {
    // A nested dispatch from a worker must run inline and serial rather
    // than deadlock on the pool it is already occupying.
    ThreadPool::instance().parallelFor(lo, hi, fillBody, ctx);
}

struct MpiFromWorkerCtx {
    std::atomic<bool> workerClaimed{false};
    std::atomic<bool> timedOut{false};
};

void mpiFromWorkerBody(int64_t, int64_t, void* ctx) {
    auto* c = static_cast<MpiFromWorkerCtx*>(ctx);
    if (ThreadPool::onWorkerThread()) {
        // Comm intrinsics are only legal on the rank's main thread; the
        // guard must trip on a pool worker (the prover keeps them out of
        // parallel loops, so reaching this is a translator bug in real runs).
        c->workerClaimed.store(true);
        (void)wjrt_mpi_rank();
        return;
    }
    // The caller claims chunks too and could take every 1-element chunk
    // itself; hold its chunk until a worker has claimed one.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!c->workerClaimed.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
            c->timedOut.store(true);
            return;
        }
        std::this_thread::yield();
    }
}

} // namespace

TEST(ThreadPoolTest, WorkerExceptionRethrownAtDispatch) {
    ScopedEnv env("WJ_THREADS", "4");
    EXPECT_THROW(ThreadPool::instance().parallelFor(0, 16, throwBody, nullptr), ExecError);
    // The pool stays usable after a failed job.
    std::vector<int64_t> out(16);
    FillCtx ctx{out.data()};
    ThreadPool::instance().parallelFor(0, 16, fillBody, &ctx);
    EXPECT_EQ(225, out[15]);
}

TEST(ThreadPoolTest, NestedDispatchRunsInline) {
    ScopedEnv env("WJ_THREADS", "4");
    std::vector<int64_t> out(100, -1);
    FillCtx ctx{out.data()};
    ThreadPool::instance().parallelFor(0, 100, nestedBody, &ctx);
    for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(i * i, out[static_cast<size_t>(i)]);
}

TEST(ThreadPoolTest, CommIntrinsicOnWorkerThreadTrips) {
    ScopedEnv env("WJ_THREADS", "4");
    MpiFromWorkerCtx ctx;
    try {
        ThreadPool::instance().parallelFor(0, 4, mpiFromWorkerBody, &ctx);
        FAIL() << "expected the main-thread guard to throw";
    } catch (const ExecError& e) {
        EXPECT_NE(nullptr, std::strstr(e.what(), "main thread"));
    }
    EXPECT_FALSE(ctx.timedOut.load()) << "no worker claimed a chunk within 10 s";
}

TEST(ThreadPoolTest, ConcurrentDispatchersStayCorrect) {
    // Two MiniMPI ranks racing for the pool: the loser runs inline and
    // serial (busy flag), so both results must still be exact.
    ScopedEnv env("WJ_THREADS", "4");
    constexpr int64_t kN = 4096;
    std::vector<int64_t> outA(kN), outB(kN);
    std::atomic<int> ready{0};
    auto race = [&ready](std::vector<int64_t>* out) {
        FillCtx ctx{out->data()};
        ready.fetch_add(1);
        while (ready.load() < 2) {}
        for (int rep = 0; rep < 50; ++rep) {
            ThreadPool::instance().parallelFor(0, kN, fillBody, &ctx);
        }
    };
    std::thread ta(race, &outA), tb(race, &outB);
    ta.join();
    tb.join();
    for (int64_t i = 0; i < kN; i += 97) {
        ASSERT_EQ(i * i, outA[static_cast<size_t>(i)]);
        ASSERT_EQ(i * i, outB[static_cast<size_t>(i)]);
    }
}

TEST(ThreadPoolTest, IdlePoolParksAfterBoundedSpin) {
    // Idle workers poll for a short bounded time, then block: a sleeping
    // caller must not pay for spinning workers.
    ScopedEnv env("WJ_THREADS", "4");
    std::vector<int64_t> out(1024);
    FillCtx ctx{out.data()};
    ThreadPool::instance().parallelFor(0, 1024, fillBody, &ctx);
    const auto cpuMs = [] {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
               (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
    };
    const double before = cpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const double burnt = cpuMs() - before;
    // Workers that kept spinning through the sleep would burn up to 200 ms
    // of CPU each.
    EXPECT_LT(burnt, 60.0) << "idle workers kept spinning for " << burnt << " ms of CPU";
}

namespace {

constexpr int kLive = 0x11fe;
constexpr int kPoisoned = 0xdead;
std::atomic<int> g_staleRuns{0};

/// A tiny dispatch's state, on the dispatching stack. Chunks whose bit is
/// set in throwMask throw after writing their range.
struct StaleCtx {
    std::atomic<int> state{kLive};
    std::atomic<int> chunksRun{0};
    int64_t rep = 0, n = 0;
    int chunks = 0;
    unsigned throwMask = 0;
    int64_t* out = nullptr;
};

void staleBody(int64_t lo, int64_t hi, void* p) {
    auto* c = static_cast<StaleCtx*>(p);
    if (c->state.load() != kLive) {
        g_staleRuns.fetch_add(1);
        return;
    }
    for (int64_t i = lo; i < hi; ++i) c->out[i] = c->rep * 1000 + i;
    c->chunksRun.fetch_add(1);
    for (int k = 0; k < c->chunks; ++k) {
        int64_t klo, khi;
        staticChunk(0, c->n, c->chunks, k, &klo, &khi);
        if (klo == lo && (c->throwMask >> k & 1u)) throw ExecError("chunk threw");
    }
}

} // namespace

TEST(ThreadPoolTest, StaleWorkersNeverRunAFinishedJob) {
    // Back-to-back tiny dispatches: a worker that wakes late must find the
    // job finished and claim nothing, never run a chunk of a ctx that has
    // gone out of scope.
    constexpr int kReps = 5000;
    g_staleRuns.store(0);
    for (int t : {2, 3, 8}) {
        ScopedEnv env("WJ_THREADS", std::to_string(t).c_str());
        const int64_t before = ThreadPool::instance().dispatches();
        int thrown = 0, expectedThrows = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            int64_t out[16];
            StaleCtx ctx;
            ctx.rep = rep;
            ctx.n = t + rep % 5;
            ctx.chunks = t;
            ctx.throwMask = rep % 3 == 0 ? 1u << (rep % t) : rep % 7 == 0 ? ~0u : 0u;
            ctx.out = out;
            expectedThrows += ctx.throwMask != 0;
            try {
                ThreadPool::instance().parallelFor(0, ctx.n, staleBody, &ctx);
            } catch (const ExecError&) {
                ++thrown;
            }
            ASSERT_EQ(t, ctx.chunksRun.load()) << "rep " << rep << " at " << t << " threads";
            for (int64_t i = 0; i < ctx.n; ++i) ASSERT_EQ(rep * 1000 + i, out[i]);
            ctx.state.store(kPoisoned);
        }
        EXPECT_EQ(expectedThrows, thrown) << t << " threads";
        EXPECT_EQ(kReps, ThreadPool::instance().dispatches() - before) << t << " threads";
    }
    EXPECT_EQ(0, g_staleRuns.load()) << "a worker ran a chunk of a finished job";
}

// -------------------------------------------------- prover verdicts (lint)

TEST(ParallelProver, StencilInteriorLoopProvenWithAliasGuard) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value r = stencil::makeMpiRunner(in, 18, 18, 8,
                                     stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f), 42);
    auto res = analysis::analyzeEntry(p, r, "run", {Value::ofI32(2)});
    // The interior triple loop: outermost z proven independent up to
    // cur/nxt aliasing, which the translator guards at runtime.
    EXPECT_TRUE(reportHas(res, "StencilCPU3D_MPI.step: for (z): parallel (guarded)"));
    EXPECT_TRUE(reportHas(res, "'cur' != 'nxt'"));
    // The halo-exchange step loop must stay on the rank's main thread.
    EXPECT_TRUE(reportHas(res, "StencilCPU3D_MPI.run: for (s): serial"));
    EXPECT_TRUE(reportHas(res, "must stay on the rank's main thread"));
    // The checksum loop is a recognized sum reduction over 'local'.
    EXPECT_TRUE(reportHas(res, "StencilCPU3D_MPI.run: for (i): parallel (reduction)"));
    EXPECT_TRUE(reportHas(res, "reduction over 'local' (+, double)"));
}

TEST(ParallelProver, FoxBlockMultiplyProvenChecksumRefused) {
    Program p = matmul::buildProgram();
    Interp in(p);
    Value app = matmul::makeMpiFoxApp(in, matmul::Calc::Optimized, 2);
    auto res = analysis::analyzeEntry(p, app, "run", {Value::ofI32(32), Value::ofI32(7)});
    EXPECT_TRUE(
        reportHas(res, "OptimizedCalculator.multiplyAcc: for (i): parallel (guarded)"));
    EXPECT_TRUE(reportHas(res, "'br' != 'cr'"));
    EXPECT_TRUE(reportHas(res, "SimpleMatrix.checksum: for (i): serial"));
    // Verdict map agrees with the report: at least one non-serial loop.
    bool anyParallel = false;
    for (const auto& [_, lp] : res.loopParallel) {
        anyParallel |= lp.verdict != analysis::ParVerdict::Serial;
    }
    EXPECT_TRUE(anyParallel);
}

TEST(ParallelProver, VirtualAccessorLoopsStaySerial) {
    // The double-buffered CPU runner reads grids through virtual get/set —
    // outside the prover's effect allowance, so everything stays serial.
    Program p = stencil::buildProgram();
    Interp in(p);
    Value r = stencil::makeCpuRunner(in, 8, 8, 8,
                                     stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f), 1);
    auto res = analysis::analyzeEntry(p, r, "run", {Value::ofI32(1)});
    for (const auto& [_, lp] : res.loopParallel) {
        EXPECT_EQ(analysis::ParVerdict::Serial, lp.verdict);
    }
    EXPECT_TRUE(reportHas(res, "StencilCPU3DDblB.step: for (z): serial"));
}

TEST(ParallelProver, LintModeDegradesToSerialWithoutEntryContext) {
    // Without a concrete receiver the interval/alias facts are weaker; the
    // prover must degrade to serial verdicts, never to unsound parallel.
    Program p = matmul::buildProgram();
    auto res = analysis::lintProgram(p);
    for (const auto& [_, lp] : res.loopParallel) {
        EXPECT_EQ(analysis::ParVerdict::Serial, lp.verdict);
    }
    EXPECT_TRUE(reportHas(res, "OptimizedCalculator.multiplyAcc: for (i): serial"));
}

// ---------------------------------------------- reduction prover (oracle)

namespace {

/// `double run(int n)` around the given body statements; the analysis and
/// translation entry context is T.run(kProbeN).
Program oneMethodProgram(Block body) {
    ProgramBuilder pb;
    pb.cls("T").method("run", Type::f64()).param("n", Type::i32()).body(std::move(body));
    return pb.build();
}

constexpr int kProbeN = 100;

analysis::Result analyzeRun(const Program& p) {
    Interp in(p);
    Value obj = in.instantiate("T", {});
    return analysis::analyzeEntry(p, obj, "run", {Value::ofI32(kProbeN)});
}

} // namespace

TEST(ReductionProver, RecognizesSumInBothOperandOrders) {
    Program p = oneMethodProgram(blk(
        decl("s", Type::f64(), cd(0.0)),
        decl("s2", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), cast(Type::f64(), lv("i")))))),
        forRange("j", ci(0), lv("n"),
                 blk(assign("s2", add(cast(Type::f64(), lv("j")), lv("s2"))))),
        ret(add(lv("s"), lv("s2")))));
    auto res = analyzeRun(p);
    EXPECT_TRUE(reportHas(res, "T.run: for (i): parallel (reduction)"));
    EXPECT_TRUE(reportHas(res, "reduction over 's' (+, double)"));
    EXPECT_TRUE(reportHas(res, "T.run: for (j): parallel (reduction)"));
    EXPECT_TRUE(reportHas(res, "reduction over 's2' (+, double)"));
}

TEST(ReductionProver, RecognizesMulMinMax) {
    // min/max are the guarded-update form `if (e cmp acc) acc = e;` — the
    // language has no min/max operator and rule 7 forbids the ternary.
    auto minExpr = [] { return cast(Type::f32(), lv("i")); };
    auto maxExpr = [] { return cast(Type::i64(), lv("i")); };
    Program p = oneMethodProgram(blk(
        decl("prod", Type::f64(), cd(1.0)),
        decl("m", Type::f32(), cf(1e30f)),
        decl("mx", Type::i64(), cl(0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("prod", mul(lv("prod"), cd(1.0009765625))))),
        forRange("i", ci(0), lv("n"),
                 blk(ifs(lt(minExpr(), lv("m")), blk(assign("m", minExpr()))))),
        forRange("i", ci(0), lv("n"),
                 blk(ifs(lt(lv("mx"), maxExpr()), blk(assign("mx", maxExpr()))))),
        ret(add(lv("prod"), add(cast(Type::f64(), lv("m")), cast(Type::f64(), lv("mx")))))));
    auto res = analyzeRun(p);
    EXPECT_TRUE(reportHas(res, "reduction over 'prod' (*, double)"));
    EXPECT_TRUE(reportHas(res, "reduction over 'm' (min, float)"));
    EXPECT_TRUE(reportHas(res, "reduction over 'mx' (max, long)"));
}

TEST(ReductionProver, RejectsNonReductionChains) {
    // i32 accumulator: wraparound under reassociation is observable.
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("c", Type::i32(), ci(0)),
        forRange("i", ci(0), lv("n"), blk(assign("c", add(lv("c"), ci(1))))),
        ret(cast(Type::f64(), lv("c"))))));
    EXPECT_TRUE(reportHas(res, "T.run: for (i): serial"));
    EXPECT_TRUE(reportHas(res, "unsupported type"));

    // The accumulator is read outside its own update statement (here into
    // a loop-local temp), so per-chunk partials would observe stale sums.
    res = analyzeRun(oneMethodProgram(blk(
        decl("s", Type::f64(), cd(0.0)),
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forRange("i", ci(0), lv("n"),
                 blk(decl("t", Type::f64(), lv("s")),
                     aset(lv("a"), lv("i"), cast(Type::f32(), lv("t"))),
                     assign("s", add(lv("s"), cast(Type::f64(), lv("i")))))),
        ret(lv("s")))));
    EXPECT_TRUE(reportHas(res, "read outside its reduction update"));

    // Mixed operators over one accumulator: an affine recurrence, not a
    // reduction — neither grouping is safe.
    res = analyzeRun(oneMethodProgram(blk(
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), cd(2.0))),
                     assign("s", mul(lv("s"), cd(0.5))))),
        ret(lv("s")))));
    EXPECT_TRUE(reportHas(res, "T.run: for (i): serial"));
    EXPECT_TRUE(reportHas(res, "loop-carried scalar dependence"));

    // Plain overwrite: the diagnostic names the variable AND the statement.
    res = analyzeRun(oneMethodProgram(blk(
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"), blk(assign("s", cast(Type::f64(), lv("i"))))),
        ret(lv("s")))));
    EXPECT_TRUE(reportHas(res, "updates 's'"));
    EXPECT_TRUE(reportHas(res, "is not a recognized reduction"));

    // The update's f(i) side reads the accumulator: not acc = acc op f(i).
    res = analyzeRun(oneMethodProgram(blk(
        decl("s", Type::f64(), cd(1.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), mul(lv("s"), cd(0.5)))))),
        ret(lv("s")))));
    EXPECT_TRUE(reportHas(res, "T.run: for (i): serial"));
    EXPECT_TRUE(reportHas(res, "is not a recognized reduction"));
}

TEST(ReductionProver, SmallOuterLoopCollapsesInFavorOfInner) {
    Program p = oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forRange("k", ci(0), ci(2),
                 blk(forRange("i", ci(0), lv("n"),
                              blk(aset(lv("a"), lv("i"), cast(Type::f32(), lv("i"))))))),
        ret(cast(Type::f64(), aget(lv("a"), ci(0))))));
    auto res = analyzeRun(p);
    EXPECT_TRUE(reportHas(res, "T.run: for (k): serial"));
    EXPECT_TRUE(reportHas(res, "collapsed in favor of its inner loops"));
    EXPECT_TRUE(reportHas(res, "T.run: for (i): parallel"));
}

// --------------------------------------------- reduction codegen + runtime

namespace {

/// arr fill + dot-product: the CG kernel shape in miniature.
Program dotProgram() {
    return oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("a"), lv("i"),
                          cast(Type::f32(), mul(cast(Type::f64(), lv("i")), cd(0.125)))))),
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"),
                                     mul(cast(Type::f64(), aget(lv("a"), lv("i"))),
                                         cast(Type::f64(), aget(lv("a"), lv("i")))))))),
        ret(lv("s"))));
}

} // namespace

TEST(ReductionCodegen, OutlinesThroughWjrtParallelReduce) {
    Program p = dotProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    {
        ScopedEnv off("WJ_PARALLEL", "0");
        Translation t = translate(p, obj, "run", {Value::ofI32(kProbeN)});
        EXPECT_EQ(0, t.reduceLoops);
        EXPECT_EQ(std::string::npos, t.cSource.find("wjrt_parallel_reduce"));
    }
    {
        ScopedEnv on("WJ_PARALLEL", "1");
        Translation t = translate(p, obj, "run", {Value::ofI32(kProbeN)});
        EXPECT_EQ(1, t.reduceLoops);
        EXPECT_GE(t.parallelLoops, 1);  // the fill loop
        EXPECT_NE(std::string::npos, t.cSource.find("wjrt_parallel_reduce"));
        EXPECT_NE(std::string::npos, t.cSource.find("wj_rb"));  // outlined chunk fn
    }
}

TEST(ReductionEndToEnd, ShortTripBitwiseEqualsSerialAndInterp) {
    // Up to WJRT_REDUCE_MAX_CHUNKS iterations every chunk holds a single
    // iteration, so the ordered combine IS the serial fold: parallel,
    // serial jit, and the interpreter must agree bitwise.
    Program p = dotProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(48)};
    const double ref = in.call(obj, "run", args).asF64();
    JitCode serial = [&] {
        ScopedEnv e("WJ_PARALLEL", "0");
        return WootinJ::jit(p, obj, "run", args);
    }();
    JitCode par = [&] {
        ScopedEnv e("WJ_PARALLEL", "1");
        return WootinJ::jit(p, obj, "run", args);
    }();
    EXPECT_TRUE(bitEq(ref, serial.invokeWith(args).asF64()));
    for (int t : {1, 2, 8}) {
        ScopedEnv e("WJ_THREADS", std::to_string(t).c_str());
        EXPECT_TRUE(bitEq(ref, par.invokeWith(args).asF64())) << "WJ_THREADS=" << t;
    }
}

TEST(ReductionEndToEnd, LongTripBitwiseIdenticalAcrossThreadCounts) {
    // Beyond the chunk grid the f64 sum is regrouped (not bitwise vs the
    // serial fold), but the fixed grid + ordered combine make the result
    // invariant in WJ_THREADS.
    Program p = dotProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(10000)};
    ScopedEnv on("WJ_PARALLEL", "1");
    JitCode par = WootinJ::jit(p, obj, "run", args);
    double first = 0;
    bool haveFirst = false;
    for (int t : {1, 2, 3, 8}) {
        ScopedEnv e("WJ_THREADS", std::to_string(t).c_str());
        const double v = par.invokeWith(args).asF64();
        if (!haveFirst) {
            haveFirst = true;
            first = v;
        }
        EXPECT_TRUE(bitEq(first, v)) << "WJ_THREADS=" << t;
    }
    // And it stays a faithful sum: close to the interpreter's serial fold.
    const double ref = in.call(obj, "run", args).asF64();
    EXPECT_NEAR(ref, first, std::abs(ref) * 1e-12);
}

TEST(ReductionEndToEnd, CgDotProvesAndRunsBitwiseUnderMiniMpi) {
    // The acceptance path: CG's dot loops auto-prove ParallelReduce with
    // no source annotations, and real multi-rank MiniMPI runs produce
    // bitwise-identical residuals at WJ_THREADS 1/2/8.
    Program p = cg::buildProgram();
    Interp in(p);
    {
        Value solver = cg::makeMpiSolver(in, 512);
        auto res = analysis::analyzeEntry(
            p, solver, "run", {Value::ofI32(512), Value::ofI32(3), Value::ofI32(8)});
        EXPECT_TRUE(reportHas(res, "MpiDot.dot: for (i): parallel (reduction)"));
        EXPECT_TRUE(reportHas(res, "reduction over 's' (+, double)"));
    }
    auto run = [&](int threads, const char* par) {
        ScopedEnv e1("WJ_PARALLEL", par);
        ScopedEnv e2("WJ_THREADS", std::to_string(threads).c_str());
        Value solver = cg::makeMpiSolver(in, 512);
        JitCode code = WootinJ::jit4mpi(
            p, solver, "run", {Value::ofI32(512), Value::ofI32(3), Value::ofI32(8)});
        code.set4MPI(2);
        return code.invoke().asF64();
    };
    const double serial = run(1, "0");
    const double t1 = run(1, "1");
    const double t2 = run(2, "1");
    const double t8 = run(8, "1");
    EXPECT_TRUE(bitEq(t1, t2));
    EXPECT_TRUE(bitEq(t1, t8));
    EXPECT_NEAR(serial, t1, std::abs(serial) * 1e-6);
}

// ------------------------------------------------------- codegen outlining

TEST(ParallelCodegen, OutlinesOnlyUnderWjParallel) {
    Program p = stencil::buildProgram();
    Interp in(p);
    Value r = stencil::makeMpiRunner(in, 18, 18, 8,
                                     stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f), 42);
    {
        ScopedEnv off("WJ_PARALLEL", "0");
        Translation t = translate(p, r, "run", {Value::ofI32(2)});
        EXPECT_EQ(0, t.parallelLoops);
        EXPECT_EQ(std::string::npos, t.cSource.find("wjrt_parallel_for"));
    }
    {
        ScopedEnv on("WJ_PARALLEL", "1");
        Translation t = translate(p, r, "run", {Value::ofI32(2)});
        EXPECT_GT(t.parallelLoops, 0);
        EXPECT_NE(std::string::npos, t.cSource.find("wjrt_parallel_for"));
        // The guarded loop keeps a serial fallback branch on the guard.
        EXPECT_NE(std::string::npos, t.cSource.find("wj_pfb"));
    }
}

// --------------------------------------- end-to-end bitwise reproducibility

namespace {

double runStencilMpi(int threads, const char* par, int ranks) {
    ScopedEnv p1("WJ_PARALLEL", par);
    ScopedEnv p2("WJ_THREADS", std::to_string(threads).c_str());
    Program p = stencil::buildProgram();
    Interp in(p);
    Value r = stencil::makeMpiRunner(in, 34, 34, 16,
                                     stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f), 42);
    JitCode code = WootinJ::jit4mpi(p, r, "run", {Value::ofI32(4)});
    code.set4MPI(ranks);
    return code.invoke().asF64();
}

double runFox(int threads, const char* par, int ranks) {
    ScopedEnv p1("WJ_PARALLEL", par);
    ScopedEnv p2("WJ_THREADS", std::to_string(threads).c_str());
    Program p = matmul::buildProgram();
    Interp in(p);
    Value app = matmul::makeMpiFoxApp(in, matmul::Calc::Optimized, 2);
    JitCode code = WootinJ::jit4mpi(p, app, "run", {Value::ofI32(64), Value::ofI32(7)});
    code.set4MPI(ranks);
    return code.invoke().asF64();
}

} // namespace

TEST(ParallelEndToEnd, DiffusionBitwiseEqualAcrossThreadCounts) {
    const double serial = runStencilMpi(1, "0", 2);
    for (int t : {1, 2, 8}) {
        const double par = runStencilMpi(t, "1", 2);
        EXPECT_TRUE(bitEq(serial, par))
            << "WJ_THREADS=" << t << ": serial=" << serial << " parallel=" << par;
    }
}

TEST(ParallelEndToEnd, FoxBitwiseEqualAcrossThreadCounts) {
    const double serial = runFox(1, "0", 4);
    for (int t : {1, 2, 8}) {
        const double par = runFox(t, "1", 4);
        EXPECT_TRUE(bitEq(serial, par))
            << "WJ_THREADS=" << t << ": serial=" << serial << " parallel=" << par;
    }
}

TEST(ParallelEndToEnd, PoolReusedAcrossJitInvocations) {
    (void)runStencilMpi(8, "1", 2);  // warm: spawns up to 7 workers
    const int64_t spawned = ThreadPool::instance().workersSpawned();
    (void)runStencilMpi(8, "1", 2);
    (void)runFox(8, "1", 4);
    EXPECT_EQ(spawned, ThreadPool::instance().workersSpawned())
        << "JIT invocations must share the persistent pool";
}

TEST(ParallelEndToEnd, CommStatsReportPooledTraffic) {
    ScopedEnv p1("WJ_PARALLEL", "1");
    ScopedEnv p2("WJ_THREADS", "2");
    Program p = stencil::buildProgram();
    Interp in(p);
    Value r = stencil::makeMpiRunner(in, 34, 34, 16,
                                     stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f), 42);
    JitCode code = WootinJ::jit4mpi(p, r, "run", {Value::ofI32(4)});
    code.set4MPI(2);
    (void)code.invoke();
    const minimpi::CommStats s = code.commStats();
    EXPECT_GT(s.messages, 0);
    EXPECT_GT(s.bytes, 0);
    // Halo planes (34*34 floats) are far above the pooling threshold, so
    // the large-message fast path must have engaged.
    EXPECT_GT(s.pooledBytes + s.zeroCopyBytes, 0);
    EXPECT_LE(s.copiedBytes(), s.bytes);
}

// -------------------------------------------------- GpuSim block fan-out

namespace {

struct ScaleArgs {
    const float* in;
    float* out;
    int n;
};

void scaleKernel(gpusim::ThreadCtx* t, void* argsv) {
    auto* a = static_cast<ScaleArgs*>(argsv);
    const int i = t->blockIdx.x * t->blockDim.x + t->threadIdx.x;
    if (i < a->n) a->out[i] = a->in[i] * 1.5f + static_cast<float>(t->blockIdx.x);
}

std::vector<float> runScale(int threads, int n) {
    ScopedEnv env("WJ_THREADS", std::to_string(threads).c_str());
    gpusim::Device d;
    std::vector<float> in(static_cast<size_t>(n)), out(static_cast<size_t>(n), -1.0f);
    for (int i = 0; i < n; ++i) in[static_cast<size_t>(i)] = 0.37f * static_cast<float>(i);
    ScaleArgs args{in.data(), out.data(), n};
    d.launch(&scaleKernel, &args, {(n + 63) / 64, 1, 1}, {64, 1, 1}, 0, /*needsSync=*/false);
    return out;
}

} // namespace

TEST(GpuSimParallel, BlockFanOutBitwiseEqualsSerial) {
    const auto serial = runScale(1, 1000);
    for (int t : {2, 8}) {
        const auto par = runScale(t, 1000);
        ASSERT_EQ(serial.size(), par.size());
        EXPECT_EQ(0, std::memcmp(serial.data(), par.data(), serial.size() * sizeof(float)))
            << "WJ_THREADS=" << t;
    }
}
