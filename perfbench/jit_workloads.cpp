// The two jit()-to-result workloads: `diffusion` (the 3-D stencil under
// jit4mpi on two MiniMPI ranks) and `cg` (the matrix-free conjugate-gradient
// solver on one rank with the thread pool). Both are closed loops: one
// caller invokes the ready JitCode back to back and checks every result.
//
// Untraced run: the timed invoke loop (solve_ms_p10, req_per_s) with one
// warm re-jit of the same composition after every invoke (hit_ms_p10), and
// one cold set-up (setup_s, miss_ms_p50) after every one-second segment.
//
// Traced run: the same set-up split call by call into the layers' public
// functions (rules, analysis, translate, cache key, cold compile, warm
// lookup), the fixed cost of an invoke that does no work, then half the
// time untraced and half with the program's tracer on, folding its
// jit/entry, pool/* and comm/* spans per invoke.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.h"
#include "bench.h"
#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/jit.h"
#include "rules/rules.h"
#include "stencil/stencil_lib.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using wj::Value;

/// A composed program and its ready JitCode. The interpreter and the
/// JitCode both keep pointers into `prog`, so it lives on the heap.
struct Session {
    std::unique_ptr<wj::Program> prog;
    std::unique_ptr<wj::Interp> in;
    Value receiver;
    std::optional<wj::JitCode> code;
};

/// What a workload translates and how its results are checked.
struct JitSpec {
    wj::Program (*build)() = nullptr;
    std::function<Value(wj::Interp&)> compose;
    std::string method;
    std::vector<Value> args;      ///< the timed solve
    std::vector<Value> zeroArgs;  ///< the same call doing no work
    int ranks = 1;
    /// (solve - fixed) in ms, times kernelScale / workUnits, is the
    /// per-unit kernel metric: ns per cell-step, or us per CG iteration.
    const char* kernelMetric = "";
    double kernelScale = 1;
    double workUnits = 1;
    /// Fixes the expected result on the first ready session, before timing.
    std::function<void(Session&)> prepare = [](Session&) {};
    /// Oracle for one result of `args`.
    std::function<bool(const Value&)> checkSolve;
    /// Oracle for one result of `zeroArgs`.
    std::function<bool(const Value&)> checkZero;
};

uint64_t bitsOf(double d) {
    uint64_t b = 0;
    std::memcpy(&b, &d, sizeof b);
    return b;
}

struct SetupTimes {
    double loadMs = 0;  ///< program build + composition
    double jitMs = 0;   ///< cold jit4mpi() to a ready JitCode
};

void load(const JitSpec& s, Session& ss) {
    ss.prog = std::make_unique<wj::Program>(s.build());
    ss.in = std::make_unique<wj::Interp>(*ss.prog);
    ss.receiver = s.compose(*ss.in);
}

/// One cold set-up into an empty compile cache: build, compose, jit4mpi().
Session coldSetup(const JitSpec& s, const Options& o, Report& r, SetupTimes* t) {
    useColdCache(o);
    Session ss;
    t->loadMs = timeMs([&] { load(s, ss); });
    t->jitMs = timeMs([&] {
        ss.code.emplace(wj::WootinJ::jit4mpi(*ss.prog, ss.receiver, s.method, s.args));
        ss.code->set4MPI(s.ranks);
    });
    r.check(ss.code->execMode() == wj::ExecMode::Native && !ss.code->cacheHit(),
            "cold set-up ran the external compiler");
    return ss;
}

/// Bytes invoke() deep-copies per rank: every array reachable from the
/// receiver and the arguments (jit.cpp's marshal step).
double marshalBytes(const Value& v, std::set<const void*>& seen) {
    double bytes = 0;
    if (v.isArr() && v.asArr() && seen.insert(v.asArr().get()).second) {
        const wj::Arr& a = *v.asArr();
        if (a.elem.isPrim()) return static_cast<double>(a.data.size()) * wj::primSize(a.elem.prim());
        for (const Value& e : a.data) bytes += marshalBytes(e, seen);
    } else if (v.isObj() && v.asObj() && seen.insert(v.asObj().get()).second) {
        for (const auto& field : v.asObj()->fields) bytes += marshalBytes(field.second, seen);
    }
    return bytes;
}

/// Warm re-jits of an already compiled composition: rules, translation and
/// a cache hit in the in-process module registry.
Latencies warmJits(const JitSpec& s, Session& ss, Report& r, int count, int64_t* hits) {
    Latencies lat;
    for (int i = 0; i < count; ++i) {
        bool hit = false;
        const double ms = timeMs([&] {
            hit = wj::WootinJ::jit4mpi(*ss.prog, ss.receiver, s.method, s.args).cacheHit();
        });
        *hits += hit ? 1 : 0;
        r.check(hit, "warm re-jit was served by the compile cache");
        hit ? lat.ok(ms) : lat.fail();
    }
    return lat;
}

/// Invokes back to back for `seconds`, checking every result. `before` and
/// `after` run outside the timed region of each invoke.
Latencies solveLoop(const JitSpec& s, Session& ss, Report& r, double seconds,
                    const std::function<void()>& before = {},
                    const std::function<void()>& after = {}) {
    Latencies lat;
    const double end = nowMs() + seconds * 1e3;
    while (nowMs() < end) {
        if (before) before();
        bool ok = false;
        const double ms = timeMs([&] {
            try {
                ok = s.checkSolve(ss.code->invoke());
            } catch (const std::exception& e) {
                std::printf("invoke threw: %s\n", e.what());
            }
        });
        if (after) after();
        r.check(ok, "solve result matches its oracle");
        ok ? lat.ok(ms) : lat.fail();
    }
    return lat;
}

/// Cold set-ups in the traced run.
int setupReps(const Options& o) { return o.smoke ? 2 : 9; }
/// Repetitions of each sub-millisecond layer call in the traced run.
int fastReps(const Options& o) { return o.smoke ? 3 : 30; }

/// Share of each untraced segment spent in the invoke/re-jit loop; the rest
/// goes to one cold set-up.
constexpr double kSolveShare = 0.8;

/// The untraced run is cut into segments (segmentsFor): a loop of invokes,
/// each followed by one warm re-jit, then one cold set-up. A re-jit after
/// every invoke spreads the hit samples over the whole run, so hit_ms_p10
/// sees every fast stretch of the host (README, "Noise").
void untracedRun(const JitSpec& s, const Options& o, Report& r) {
    std::vector<double> setupS;
    Latencies miss, hit, solve;
    auto setUp = [&] {
        SetupTimes t;
        Session ss = coldSetup(s, o, r, &t);
        setupS.push_back((t.loadMs + t.jitMs) / 1e3);
        miss.ok(t.jitMs);
        return ss;
    };
    Session ss = setUp();
    s.prepare(ss);
    solveLoop(s, ss, r, o.smoke ? 0.05 : 0.5);  // warm caches and the pool

    const int segments = segmentsFor(o);
    std::vector<double> rates;  // solves per second of solving, per segment
    int64_t hits = 0;
    for (int seg = 0; seg < segments; ++seg) {
        double rejitMs = 0;
        Latencies part;
        const double ms = timeMs([&] {
            part = solveLoop(s, ss, r, kSolveShare * o.seconds / segments, {}, [&] {
                rejitMs += timeMs([&] { hit.merge(warmJits(s, ss, r, 1, &hits)); });
            });
        });
        rates.push_back(static_cast<double>(part.count()) * 1e3 / (ms - rejitMs));
        solve.merge(part);
        setUp();
    }

    r.set("setup_s", median(setupS), static_cast<int64_t>(setupS.size()));
    r.set("solve_ms_p10", solve.quantile(0.1), solve.count());
    r.set("hit_ms_p10", hit.quantile(0.1), hit.count());
    r.set("miss_ms_p50", miss.quantile(0.5), miss.count());
    r.set("req_per_s", median(rates), solve.count());
    r.set("peak_rss_mb", peakRssMb(), 1);
}

/// Per-invoke totals folded from the program's own spans.
struct SpanFold {
    std::vector<double> entryMs;     ///< mean jit/entry over ranks, per invoke
    std::vector<double> waitMs;      ///< comm/recv + comm/barrier over ranks, per invoke
    Latencies dispatchUs;            ///< every pool/parallelFor span
    double dispatchTotalMs = 0, chunkTotalMs = 0;

    void foldInvoke() {
        double entry = 0, wait = 0;
        int entries = 0;
        for (const wj::trace::SpanRec& sp : wj::trace::Tracer::instance().snapshot()) {
            if (sp.durNs < 0) continue;
            const std::string_view cat = sp.cat, name = sp.name;
            const double ms = static_cast<double>(sp.durNs) / 1e6;
            if (cat == "jit" && name == "entry") {
                entry += ms;
                ++entries;
            } else if (cat == "comm" && (name == "recv" || name == "barrier")) {
                wait += ms;
            } else if (cat == "pool" && name == "parallelFor") {
                dispatchUs.ok(ms * 1e3);
                dispatchTotalMs += ms;
            } else if (cat == "pool" && name == "chunk") {
                chunkTotalMs += ms;
            }
        }
        entryMs.push_back(entries ? entry / entries : 0);
        waitMs.push_back(wait);
    }
};

int64_t poolDispatches() {
    return counterValue("pool.dispatches") + counterValue("pool.dispatches.inline");
}

int64_t guardFallbacks() {
    return counterValue("parallel.guard.fallbacks") + counterValue("simd.guard.fallbacks");
}

void tracedRun(const JitSpec& s, const Options& o, Report& r) {
    // ---- the front half of set-up, call by call, many times (each call
    // takes milliseconds at most).
    std::vector<double> loadMs, rulesMs, analysisMs, translateMs, keyUs;
    wj::Translation tr;
    for (int i = 0; i < fastReps(o); ++i) {
        Session l;
        loadMs.push_back(timeMs([&] { load(s, l); }));
        rulesMs.push_back(timeMs([&] { wj::requireCodingRules(*l.prog); }));
        analysisMs.push_back(
            timeMs([&] { wj::analysis::analyzeEntry(*l.prog, l.receiver, s.method, s.args); }));
        translateMs.push_back(
            timeMs([&] { tr = wj::translate(*l.prog, l.receiver, s.method, s.args); }));
        keyUs.push_back(timeMs([&] { (void)wj::cacheKeyFor(tr.cSource); }) * 1e3);
    }
    // ---- the external compiler, cold and warm, interleaved with true cold
    // set-ups so the coverage check compares like with like.
    std::vector<double> setupMs, ccMs, ccCpuMs, lookupMs;
    std::optional<Session> ss;
    for (int k = 0; k < setupReps(o); ++k) {
        SetupTimes t;
        ss.emplace(coldSetup(s, o, r, &t));
        setupMs.push_back(t.loadMs + t.jitMs);

        useColdCache(o);
        const double cpu0 = childCpuMs();
        wj::CompileResult cold;
        ccMs.push_back(timeMs([&] { cold = wj::compileAndLoad(tr.cSource, s.method); }));
        ccCpuMs.push_back(childCpuMs() - cpu0);
        r.check(!cold.cacheHit, "layered cold compile ran the external compiler");
        wj::JitCache::instance().clearLoaded();
        wj::CompileResult warm;
        lookupMs.push_back(timeMs([&] { warm = wj::compileAndLoad(tr.cSource, s.method); }));
        r.check(warm.cacheHit, "warm lookup was served from the on-disk cache");
    }
    s.prepare(*ss);
    wj::JitCode& code = *ss->code;

    int64_t hits = 0;
    const int hitN = o.smoke ? 4 : 120;  // at least 100 behind hit_ms_p90
    const Latencies warm = warmJits(s, *ss, r, hitN, &hits);

    // ---- invoke fixed cost: the same call with no steps / iterations.
    std::vector<double> fixed;
    for (int i = 0; i < (o.smoke ? 3 : 20); ++i) {
        Value v;
        fixed.push_back(timeMs([&] { v = code.invokeWith(s.zeroArgs); }));
        r.check(s.checkZero(v), "zero-work invoke matches its oracle");
    }
    std::set<const void*> seen;
    double marshal = marshalBytes(ss->receiver, seen);
    for (const Value& a : s.args) marshal += marshalBytes(a, seen);
    marshal *= s.ranks;

    // ---- half the time untraced, half traced.
    solveLoop(s, *ss, r, o.smoke ? 0.05 : 0.5);
    const Latencies plain = solveLoop(s, *ss, r, o.seconds / 2);

    SpanFold fold;
    int64_t dispatches = 0, fallbacks = 0, msgs = 0, bytes = 0;
    auto& tracer = wj::trace::Tracer::instance();
    tracer.enable("");
    const Latencies traced = solveLoop(
        s, *ss, r, o.seconds / 2,
        [&] {
            tracer.reset();
            dispatches -= poolDispatches();
            fallbacks -= guardFallbacks();
        },
        [&] {
            fold.foldInvoke();
            dispatches += poolDispatches();
            fallbacks += guardFallbacks();
            msgs += code.commStats().messages;
            bytes += code.commStats().bytes;
        });
    tracer.disable();
    tracer.reset();

    // ---- derived numbers.
    const double solveP50 = plain.quantile(0.5);
    const double fixedMs = median(fixed);
    const double setup = median(setupMs);
    const double otherMs =
        setup - (median(loadMs) + median(rulesMs) + median(translateMs) + median(ccMs));
    const double otherPct = 100.0 * otherMs / setup;
    r.note(wj::format("coverage set-up %.3f ms = load %.3f + rules %.3f + translate %.3f + "
                      "compile %.3f + other %.3f (%.2f%%): %s",
                      setup, median(loadMs), median(rulesMs), median(translateMs),
                      median(ccMs), otherMs, otherPct,
                      std::fabs(otherPct) <= 5.0 ? "within 5%" : "OUTSIDE 5%"));
    r.note(wj::format("untraced solve p50 %.4f ms over %lld invokes; traced p50 %.4f ms over %lld",
                      solveP50, static_cast<long long>(plain.count()), traced.quantile(0.5),
                      static_cast<long long>(traced.count())));

    const int n = setupReps(o), nFast = fastReps(o);
    const int64_t solves = std::max<int64_t>(1, traced.count());
    const auto perSolve = [&](int64_t total) { return static_cast<double>(total) / solves; };
    r.set("setup.load_ms", median(loadMs), nFast);
    r.set("rules.check_ms", median(rulesMs), nFast);
    r.set("analysis.entry_ms", median(analysisMs), nFast);
    r.set("jit.codegen.translate_ms", median(translateMs), nFast);
    r.set("jit.codegen.self_ms", median(translateMs) - median(analysisMs), nFast);
    r.set("jit.codegen.c_kb", static_cast<double>(tr.cSource.size()) / 1024.0, 1);
    r.set("jit.compile.cc_ms", median(ccMs), n);
    r.set("jit.compile.cc_cpu_ms", median(ccCpuMs), n);
    r.set("jit.cache.key_us", median(keyUs), nFast);
    r.set("jit.cache.lookup_ms", median(lookupMs), n);
    r.set("jit.cache.hit_ratio", static_cast<double>(hits) / hitN, hitN);
    r.set("hit_ms_p50", warm.quantile(0.5), warm.count());
    r.set("hit_ms_p90", warm.quantile(0.9), warm.count());
    r.set("solve_ms_p50", solveP50, plain.count());
    r.set("solve_ms_p90", plain.quantile(0.9), plain.count());
    r.set("coverage.other_ms", otherMs, n);
    r.set("coverage.other_pct", otherPct, n);
    r.set("jit.invoke.fixed_ms", fixedMs, static_cast<int64_t>(fixed.size()));
    r.set("jit.invoke.entry_ms", median(fold.entryMs), static_cast<int64_t>(fold.entryMs.size()));
    r.set("jit.invoke.marshal_mb", marshal / 1e6, 1);
    r.set(s.kernelMetric, std::max(0.0, solveP50 - fixedMs) * s.kernelScale / s.workUnits,
          plain.count());
    r.set("jit.vector_loops", static_cast<double>(code.vectorLoops()), 1);
    r.set("jit.parallel_loops", static_cast<double>(code.parallelLoops()), 1);
    r.set("jit.reduce_loops", static_cast<double>(code.reduceLoops()), 1);
    r.set("runtime.pool.dispatches", perSolve(dispatches), solves);
    r.set("runtime.pool.dispatch_us_p50", fold.dispatchUs.quantile(0.5), fold.dispatchUs.count());
    r.set("runtime.pool.chunk_share",
          fold.dispatchTotalMs > 0 ? fold.chunkTotalMs / fold.dispatchTotalMs : 0,
          fold.dispatchUs.count());
    r.set("runtime.guard.fallbacks", perSolve(fallbacks), solves);
    r.set("minimpi.msgs", perSolve(msgs), solves);
    r.set("minimpi.kb", perSolve(bytes) / 1024.0, solves);
    r.set("minimpi.wait_ms", median(fold.waitMs), static_cast<int64_t>(fold.waitMs.size()));
    r.set("trace.overhead_pct", 100.0 * (traced.quantile(0.5) - solveP50) / solveP50, solves);
}

void runJit(const JitSpec& s, const Options& o, Report& r) {
    if (o.trace) tracedRun(s, o, r);
    else untracedRun(s, o, r);
}

} // namespace

Report runDiffusion(const Options& o) {
    const int nx = o.smoke ? 16 : 96, ny = nx, nzLocal = o.smoke ? 4 : 48, ranks = 2;
    const int steps = o.smoke ? 2 : 8;
    const int gridSeed = 1 + static_cast<int>(mix(o.seed, 1) % 1000000);
    const auto coeffs = wj::stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const double expect =
        wj::stencil::referenceDiffusion3D(nx, ny, nzLocal * ranks, coeffs, gridSeed, steps);
    const double expectZero =
        wj::stencil::referenceDiffusion3D(nx, ny, nzLocal * ranks, coeffs, gridSeed, 0);

    Report r;
    r.note(wj::format("inputs nx=%d ny=%d nz_local=%d ranks=%d steps=%d grid_seed=%d", nx, ny,
                      nzLocal, ranks, steps, gridSeed));
    r.note(wj::format("oracle checksum == referenceDiffusion3D bitwise (%.17g); 0 steps -> %.17g",
                      expect, expectZero));
    r.note("computed kernel traffic: 8 B per cell-step (one f32 load of cur, one f32 store of "
           "nxt; neighbours hit in cache)");

    JitSpec s;
    s.build = wj::stencil::buildProgram;
    s.compose = [=](wj::Interp& in) {
        return wj::stencil::makeMpiRunner(in, nx, ny, nzLocal, coeffs, gridSeed);
    };
    s.method = "run";
    s.args = {Value::ofI32(steps)};
    s.zeroArgs = {Value::ofI32(0)};
    s.ranks = ranks;
    s.kernelMetric = "kernel.ns_per_cell_step";
    s.kernelScale = 1e6;
    s.workUnits = static_cast<double>(nx) * ny * nzLocal * ranks * steps;
    s.checkSolve = [=](const Value& v) { return bitsOf(v.asF64()) == bitsOf(expect); };
    s.checkZero = [=](const Value& v) { return bitsOf(v.asF64()) == bitsOf(expectZero); };
    runJit(s, o, r);
    return r;
}

Report runCg(const Options& o) {
    const int n = o.smoke ? 256 : 4096, iters = o.smoke ? 16 : 256;
    const int rhsSeed = 1 + static_cast<int>(mix(o.seed, 2) % 1000000);
    const double reference = wj::cg::referenceCgResidual(n, rhsSeed, iters);
    const double referenceZero = wj::cg::referenceCgResidual(n, rhsSeed, 0);
    // The translated residual and the C++ reference differ only by rounding:
    // below 1e-14 relative over seeds 1-20 at both sizes. 1e-9 leaves margin
    // without admitting a wrong answer.
    constexpr double kRelTol = 1e-9;
    const auto nearReference = [=](double x, double ref) {
        return std::fabs(x - ref) <= kRelTol * std::fabs(ref);
    };

    Report r;
    r.note(wj::format("inputs n=%d iters=%d rhs_seed=%d ranks=1 threads=2", n, iters, rhsSeed));

    // Expected bits come from the same translation at WJ_THREADS=1 (the
    // ordered-combine contract: any thread count gives the same bits).
    auto serialBits = std::make_shared<uint64_t>(0);
    JitSpec s;
    s.build = wj::cg::buildProgram;
    s.compose = [](wj::Interp& in) { return wj::cg::makeCpuSolver(in); };
    s.method = "run";
    s.args = {Value::ofI32(n), Value::ofI32(rhsSeed), Value::ofI32(iters)};
    s.zeroArgs = {Value::ofI32(n), Value::ofI32(rhsSeed), Value::ofI32(0)};
    s.ranks = 1;
    s.kernelMetric = "kernel.us_per_iter";
    s.kernelScale = 1e3;
    s.workUnits = iters;
    s.prepare = [&r, serialBits, reference, nearReference](Session& ss) {
        setenv("WJ_THREADS", "1", 1);
        const double serial = ss.code->invoke().asF64();
        setenv("WJ_THREADS", "2", 1);
        *serialBits = bitsOf(serial);
        r.check(nearReference(serial, reference),
                "WJ_THREADS=1 residual agrees with referenceCgResidual");
        r.note(wj::format("oracle residual bits == WJ_THREADS=1 bits (%.17g); |res - ref| <= "
                          "%.0e * |ref| (ref %.17g, rel diff %.3g)",
                          serial, kRelTol, reference,
                          std::fabs(serial - reference) / std::fabs(reference)));
    };
    s.checkSolve = [=](const Value& v) {
        return bitsOf(v.asF64()) == *serialBits && nearReference(v.asF64(), reference);
    };
    s.checkZero = [=](const Value& v) { return nearReference(v.asF64(), referenceZero); };
    runJit(s, o, r);
    return r;
}

} // namespace perfbench
