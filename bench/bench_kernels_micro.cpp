// Google-benchmark microbenchmarks of the per-variant kernels — the raw
// material behind every figure bench, measured with gbench's methodology
// as an independent cross-check of the marginal-cost measurements — and of
// what a warm re-jit costs in the module registry and the disk cache.
//
// Before the gbench suite runs, main() executes the scalar-vs-simd sweep
// (each evaluation kernel, the one-rank MPI diffusion runner included,
// jitted twice, WJ_SIMD=0 / WJ_SIMD=1) and the
// aos-vs-soa sweep (the cells object-array stencil jitted under WJ_SOA=0 /
// WJ_SOA=1 with SIMD on). Every pair is checked bitwise-equal, timed, and
// persisted as rows of BENCH_kernels_micro.json via the shared jsonRow()
// helpers. `--smoke` runs only those sweeps at reduced sizes/reps — the
// bench-smoke CI tripwire.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cg/cg_lib.h"
#include "common.h"

#include "baselines/diffusion_baselines.h"
#include "baselines/matmul_baselines.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/compile.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "minimpi/minimpi.h"
#include "stencil/stencil_lib.h"
#include "support/crc32.h"

using namespace wj;

namespace {

const auto kCoeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
constexpr int kN = 32;
constexpr int kSeed = 7;

void BM_DiffusionC(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(baselines::diffusionC(kN, kN, kN, kCoeffs, kSeed, 2));
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN * 2);
}
BENCHMARK(BM_DiffusionC);

void BM_DiffusionVirtual(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(baselines::diffusionVirtual(kN, kN, kN, kCoeffs, kSeed, 2));
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN * 2);
}
BENCHMARK(BM_DiffusionVirtual);

void BM_DiffusionTemplate(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(baselines::diffusionTemplate(kN, kN, kN, kCoeffs, kSeed, 2));
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN * 2);
}
BENCHMARK(BM_DiffusionTemplate);

void BM_DiffusionTemplateNoVirt(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            baselines::diffusionTemplateNoVirt(kN, kN, kN, kCoeffs, kSeed, 2));
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN * 2);
}
BENCHMARK(BM_DiffusionTemplateNoVirt);

void BM_DiffusionWootinJ(benchmark::State& state) {
    static Program prog = stencil::buildProgram();
    static Interp in(prog);
    static Value runner = stencil::makeCpuRunner(in, kN, kN, kN, kCoeffs, kSeed);
    static JitCode code = WootinJ::jit(prog, runner, "run", {Value::ofI32(2)});
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.invoke().asF64());
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN * 2);
}
BENCHMARK(BM_DiffusionWootinJ);

// Bounds-guard overhead: the same diffusion jit under the three WJ_BOUNDS
// modes. "Elide" runs the interval pass and guards only unproven accesses
// (zero in this kernel — it should match "Off"); "All" guards every access,
// measuring what the static analysis saves.
void diffusionBoundsRow(benchmark::State& state, const char* mode) {
    setenv("WJ_BOUNDS", mode, 1);
    Program prog = stencil::buildProgram();
    Interp in(prog);
    Value runner = stencil::makeCpuRunner(in, kN, kN, kN, kCoeffs, kSeed);
    JitCode code = WootinJ::jit(prog, runner, "run", {Value::ofI32(2)});
    unsetenv("WJ_BOUNDS");
    state.counters["guards"] = static_cast<double>(code.boundsGuards());
    state.counters["elided"] = static_cast<double>(code.boundsElided());
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.invoke().asF64());
    }
    state.SetItemsProcessed(state.iterations() * kN * kN * kN * 2);
}

void BM_DiffusionBoundsOff(benchmark::State& state) { diffusionBoundsRow(state, "0"); }
BENCHMARK(BM_DiffusionBoundsOff);

void BM_DiffusionBoundsElide(benchmark::State& state) { diffusionBoundsRow(state, "1"); }
BENCHMARK(BM_DiffusionBoundsElide);

void BM_DiffusionBoundsAll(benchmark::State& state) { diffusionBoundsRow(state, "all"); }
BENCHMARK(BM_DiffusionBoundsAll);

void BM_DiffusionInterp(benchmark::State& state) {
    static Program prog = stencil::buildProgram();
    static Interp in(prog);
    static Value runner = stencil::makeCpuRunner(in, 8, 8, 8, kCoeffs, kSeed);
    for (auto _ : state) {
        benchmark::DoNotOptimize(in.call(runner, "run", {Value::ofI32(1)}).asF64());
    }
    state.SetItemsProcessed(state.iterations() * 8 * 8 * 8);
}
BENCHMARK(BM_DiffusionInterp);

void BM_MatmulC(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(baselines::matmulC(n, kSeed, kSeed + 1));
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulC)->Arg(64)->Arg(128);

void BM_MatmulWootinJ(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    static Program prog = matmul::buildProgram();
    static Interp in(prog);
    static Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
    static JitCode code = WootinJ::jit(prog, app, "run", {Value::ofI32(64), Value::ofI32(kSeed)});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            code.invokeWith({Value::ofI32(n), Value::ofI32(kSeed)}).asF64());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulWootinJ)->Arg(64)->Arg(128);

// MiniMPI message path: the payload is copied once into the message at
// send, moved into the receiver's mailbox and copied out at recv. Rank 0
// streams kMsgs messages to rank 1 per world.run (every row pays the same
// 2-thread spawn, so the per-byte difference is the transport's). 36864 B
// is one 96x96 f32 plane, the diffusion halo.
void BM_MiniMpiSendCopy(benchmark::State& state) {
    const size_t bytes = static_cast<size_t>(state.range(0));
    constexpr int kMsgs = 32;
    minimpi::World world(2);
    for (auto _ : state) {
        world.run([&](minimpi::Comm& c) {
            std::vector<uint8_t> buf(bytes, static_cast<uint8_t>(1));
            if (c.rank() == 0) {
                for (int m = 0; m < kMsgs; ++m) c.send(buf.data(), bytes, 1, m);
            } else {
                for (int m = 0; m < kMsgs; ++m) c.recv(buf.data(), bytes, 0, m);
            }
        });
    }
    state.SetBytesProcessed(state.iterations() * kMsgs * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_MiniMpiSendCopy)->Arg(128)->Arg(4096)->Arg(36864)->Arg(65536);

void BM_GpuSimDiffusionKernel(benchmark::State& state) {
    static Program prog = stencil::buildProgram();
    static Interp in(prog);
    static Value runner = stencil::makeGpuRunner(in, 24, 24, 24, kCoeffs, kSeed, 128);
    static JitCode code = WootinJ::jit(prog, runner, "run", {Value::ofI32(2)});
    for (auto _ : state) {
        benchmark::DoNotOptimize(code.invoke().asF64());
    }
    state.SetItemsProcessed(state.iterations() * 24 * 24 * 24 * 2);
}
BENCHMARK(BM_GpuSimDiffusionKernel);

// A re-jit of a loaded translation unit (the diffusion runner of
// BM_DiffusionWootinJ) after its JitCode died: the registry serves it.
void BM_JitRejitAfterRelease(benchmark::State& state) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    Value runner = stencil::makeCpuRunner(in, kN, kN, kN, kCoeffs, kSeed);
    WootinJ::jit(prog, runner, "run", {Value::ofI32(2)});
    for (auto _ : state) {
        JitCode code = WootinJ::jit(prog, runner, "run", {Value::ofI32(2)});
        benchmark::DoNotOptimize(code.cacheHit());
    }
}
BENCHMARK(BM_JitRejitAfterRelease);

// The same key when the registry does not have it: the cache entry read and
// CRC-checked, dlopen, and the dlclose of the previous iteration's module.
void BM_CacheDiskLookup(benchmark::State& state) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    Value runner = stencil::makeCpuRunner(in, kN, kN, kN, kCoeffs, kSeed);
    const uint64_t key =
        cacheKeyFor(WootinJ::jit(prog, runner, "run", {Value::ofI32(2)}).generatedC());
    for (auto _ : state) {
        JitCache::instance().clearLoaded();
        const CompileResult res = loadCompiled(key);
        benchmark::DoNotOptimize(res.module.get());
    }
}
BENCHMARK(BM_CacheDiskLookup);

// The integrity check of every disk hit and checkpoint load.
void BM_Crc32(benchmark::State& state) {
    std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
    uint32_t x = kSeed;
    for (auto& b : buf) b = static_cast<uint8_t>((x = x * 1103515245u + 12345u) >> 24);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(16384);

// ------------------------------------------------- scalar-vs-simd sweep

/// Median-of-`reps` wall time of code.invokeWith(args), after one warm call.
template <typename Make>
double medianInvokeNs(JitCode& code, const std::vector<Value>& args, int reps, Make observe) {
    (void)code.invokeWith(args);  // warm: dlopen + caches out of the timing
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        observe(code.invokeWith(args).asF64());
        ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

bool simdBitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One kernel row pair: jit with WJ_SIMD=0 then WJ_SIMD=1, assert the
/// results bitwise-equal (the determinism contract), report both medians
/// and the measured delta. Returns false on a bitwise mismatch.
template <typename MakeCode>
bool simdPair(const std::string& what, const std::vector<Value>& args, int reps,
              MakeCode make) {
    setenv("WJ_SIMD", "0", 1);
    JitCode scalar = make();
    double scalarVal = 0;
    const double scalarNs =
        medianInvokeNs(scalar, args, reps, [&](double v) { scalarVal = v; });

    setenv("WJ_SIMD", "1", 1);
    JitCode simd = make();
    unsetenv("WJ_SIMD");
    double simdVal = 0;
    const double simdNs = medianInvokeNs(simd, args, reps, [&](double v) { simdVal = v; });

    const bool eq = simdBitEq(scalarVal, simdVal);
    std::printf("%-28s scalar %12.0fns   simd %12.0fns  (%2lldx loops vectorized, "
                "x%.2f, %s)\n",
                what.c_str(), scalarNs, simdNs,
                static_cast<long long>(simd.vectorLoops()), scalarNs / simdNs,
                eq ? "bitwise-equal" : "MISMATCH");
    wjbench::jsonRow(what + " scalar", scalarNs);
    wjbench::jsonRow(what + " simd", simdNs);
    return eq;
}

/// The sweep itself; `smoke` shrinks sizes and reps to CI-tripwire cost.
bool runSimdSweep(bool smoke) {
    const int reps = smoke ? 3 : 9;
    bool ok = true;
    {
        Program prog = stencil::buildProgram();
        Interp in(prog);
        const int n = smoke ? 16 : 48;
        Value runner = stencil::makeCpuRunner(in, n, n, n, kCoeffs, kSeed);
        const std::vector<Value> args = {Value::ofI32(2)};
        ok &= simdPair("diffusion " + std::to_string(n) + "^3", args, reps,
                       [&] { return WootinJ::jit(prog, runner, "run", args); });
    }
    {
        // The ghost-padded MPI runner on one rank: its x sweep reads the
        // periodic-wrap neighbours, so the simd row runs the peeled loop.
        Program prog = stencil::buildProgram();
        Interp in(prog);
        const int n = smoke ? 16 : 96, nz = smoke ? 4 : 48;
        Value runner = stencil::makeMpiRunner(in, n, n, nz, kCoeffs, kSeed);
        const std::vector<Value> args = {Value::ofI32(smoke ? 2 : 8)};
        ok &= simdPair("diffusion mpi " + std::to_string(n) + "^2x" + std::to_string(nz), args,
                       reps, [&] {
                           JitCode code = WootinJ::jit4mpi(prog, runner, "run", args);
                           code.set4MPI(1);
                           return code;
                       });
    }
    {
        Program prog = matmul::buildProgram();
        Interp in(prog);
        Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
        const int n = smoke ? 48 : 192;
        const std::vector<Value> args = {Value::ofI32(n), Value::ofI32(kSeed)};
        ok &= simdPair("matmul " + std::to_string(n) + "x" + std::to_string(n), args, reps,
                       [&] { return WootinJ::jit(prog, app, "run", args); });
    }
    {
        Program prog = cg::buildProgram();
        Interp in(prog);
        Value solver = cg::makeCpuSolver(in);
        const int n = smoke ? 256 : 4096;
        const std::vector<Value> args = {Value::ofI32(n), Value::ofI32(3),
                                         Value::ofI32(smoke ? 5 : 25)};
        ok &= simdPair("cg n=" + std::to_string(n), args, reps,
                       [&] { return WootinJ::jit(prog, solver, "run", args); });
    }
    return ok;
}

// ------------------------------------------------- aos-vs-soa sweep

/// One cells kernel — an array-of-objects workload — jitted twice under
/// WJ_SIMD=1: once with the boxed AoS element layout (WJ_SOA=0) and once
/// with the proveLayout SoA split (WJ_SOA=1). The checksums must stay
/// bitwise-equal (the standing determinism contract); both medians persist
/// as rows so the regression gate sees the layout win per size. `method`
/// picks the kernel: "probe" is the headline lane-projection sweep (the
/// hot loop reads one of the six lanes, so AoS drags 24 bytes through the
/// cache per 4 used and stays struct-strided/ScalarOnly); "run" is the
/// all-lanes damped-averaging sweep, where AoS wastes no bandwidth and the
/// layout win is vectorization only.
bool soaPair(const char* method, int n, int steps, int reps) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    Value runner = stencil::makeCellRunner(in, n, 0.25f, 0.5f, 11);
    const std::vector<Value> args = {Value::ofI32(steps)};
    const std::string what = std::string("cells ") + method + " n=" + std::to_string(n);

    setenv("WJ_SIMD", "1", 1);
    setenv("WJ_SOA", "0", 1);
    JitCode aos = WootinJ::jit(prog, runner, method, args);
    double aosVal = 0;
    const double aosNs = medianInvokeNs(aos, args, reps, [&](double v) { aosVal = v; });

    setenv("WJ_SOA", "1", 1);
    JitCode soa = WootinJ::jit(prog, runner, method, args);
    unsetenv("WJ_SOA");
    unsetenv("WJ_SIMD");
    double soaVal = 0;
    const double soaNs = medianInvokeNs(soa, args, reps, [&](double v) { soaVal = v; });

    const bool eq = simdBitEq(aosVal, soaVal);
    std::printf("%-28s aos    %12.0fns   soa  %12.0fns  (%2lldx loops vectorized, "
                "x%.2f, %s)\n",
                what.c_str(), aosNs, soaNs, static_cast<long long>(soa.vectorLoops()),
                aosNs / soaNs, eq ? "bitwise-equal" : "MISMATCH");
    wjbench::jsonRow(what + " aos+simd", aosNs);
    wjbench::jsonRow(what + " soa+simd", soaNs);
    return eq;
}

bool runSoaSweep(bool smoke) {
    std::printf("\n-- aos-vs-soa sweep: cells stencil under WJ_SIMD=1 --\n");
    const int reps = smoke ? 3 : 9;
    bool ok = true;
    if (smoke) {
        ok &= soaPair("probe", 4096, 4, reps);
        return ok;
    }
    // Non-power-of-two sizes: with lanes exactly n*4 bytes apart, pow2 n
    // maps the twelve SoA streams onto the same cache sets and the
    // conflict misses mask the layout win.
    for (int n : {20000, 250000, 1000000}) ok &= soaPair("probe", n, 8, reps);
    for (int n : {20000, 250000, 1000000}) ok &= soaPair("run", n, 8, reps);
    return ok;
}

// -------------------------------------- threads-vs-proc transport sweep

/// Median per-round-trip cost of a 2-rank ping-pong of `bytes`-byte
/// messages on `kind`. Each sample is one World::run (thread spawn or
/// fork+reap included, amortized over `msgs` round trips); the forked
/// children _exit, so the proc worlds never double-flush this bench's
/// JSON report.
double pingPongNs(minimpi::TransportKind kind, size_t bytes, int msgs, int reps) {
    minimpi::World w(2, kind);
    std::vector<double> ns;
    for (int r = 0; r <= reps; ++r) {  // r == 0 is the warm-up sample
        const auto t0 = std::chrono::steady_clock::now();
        w.run([&](minimpi::Comm& c) {
            std::vector<uint8_t> buf(bytes, static_cast<uint8_t>(1));
            for (int m = 0; m < msgs; ++m) {
                if (c.rank() == 0) {
                    c.send(buf.data(), bytes, 1, 1);
                    c.recv(buf.data(), bytes, 1, 2);
                } else {
                    c.recv(buf.data(), bytes, 0, 1);
                    c.send(buf.data(), bytes, 0, 2);
                }
            }
        });
        if (r == 0) continue;
        ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     msgs);
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

/// Latency (small messages) and bandwidth (large messages, which stream
/// through the proc transport's ring in pieces) of the two
/// address-space strategies, persisted as jsonRow()s. The gap IS the
/// price of real process isolation — crash-real fault tolerance is not
/// free, and this row pair quantifies it per message size.
void runTransportSweep(bool smoke) {
    const size_t sizes[] = {64, 4096, 65536, 262144};  // 256 kB outgrows one ring pass
    const int reps = smoke ? 3 : 7;
    std::printf("\n-- transport sweep: 2-rank ping-pong, threads vs proc --\n");
    std::printf("%12s %16s %16s %10s\n", "bytes", "threads/rt", "proc/rt", "ratio");
    for (size_t bytes : sizes) {
        if (smoke && bytes > 4096) continue;  // tripwire cost only
        const int msgs = bytes >= 65536 ? 64 : 256;
        const double t = pingPongNs(minimpi::TransportKind::Threads, bytes, msgs, reps);
        const double p = pingPongNs(minimpi::TransportKind::Proc, bytes, msgs, reps);
        std::printf("%12zu %14.0fns %14.0fns %9.2fx\n", bytes, t, p, p / t);
        const std::string label = "xport " + std::to_string(bytes) + "B";
        wjbench::jsonRow(label + " threads", t, /*threads=*/2, /*ranks=*/2);
        wjbench::jsonRow(label + " proc", p, /*threads=*/1, /*ranks=*/2);
    }
}

} // namespace

int main(int argc, char** argv) {
    const wjbench::Options opts = wjbench::parseArgs(argc, argv);
    wjbench::banner("Microbenchmarks: per-variant kernels + scalar-vs-simd + aos-vs-soa sweeps",
                    "diffusion / matmul / CG jits under WJ_SIMD=0 vs WJ_SIMD=1; "
                    "cells object-array stencil under WJ_SOA=0 vs WJ_SOA=1",
                    "median wall time REAL on this host; simd and soa checked "
                    "bitwise-equal; threads-vs-proc MiniMPI ping-pong REAL");
    runTransportSweep(opts.smoke);
    bool ok = runSimdSweep(opts.smoke);
    ok &= runSoaSweep(opts.smoke);
    if (!ok) {
        std::fprintf(stderr, "FAIL: a WJ_SIMD/WJ_SOA run diverged bitwise from its "
                             "scalar/AoS twin\n");
        return 1;
    }
    if (opts.smoke) return 0;

    // Strip the wjbench flags so gbench's own parser only sees its flags.
    std::vector<char*> gargs;
    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke" || a == "--full" || a.rfind("--trace", 0) == 0) continue;
        gargs.push_back(argv[i]);
    }
    int gargc = static_cast<int>(gargs.size());
    benchmark::Initialize(&gargc, gargs.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
