// The vectorization-legality prover (proveVectors, src/analysis/) and the
// WJ_SIMD codegen path it drives: unit-stride/alias/effect audits on every
// innermost counted loop, `#pragma omp simd` emission with restrict-hoisted
// element pointers, byte-range overlap guards with a scalar fallback, and
// the determinism contract — WJ_SIMD=1 output must stay bitwise-equal to
// the scalar translation (no float reassociation without an exact-operator
// reduction clause).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"
#include "trace/metrics.h"
#include "scoped_env.h"

using namespace wj;
using namespace wj::dsl;

namespace {

using wj::test::ScopedEnv;

bool bitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool vectorReportHas(const analysis::Result& r, const std::string& needle) {
    for (const auto& line : r.vectorReport) {
        if (line.find(needle) != std::string::npos) return true;
    }
    return false;
}

/// `double run(int n)` around the given body; entry context is T.run(192).
Program oneMethodProgram(Block body) {
    ProgramBuilder pb;
    pb.cls("T").method("run", Type::f64()).param("n", Type::i32()).body(std::move(body));
    return pb.build();
}

constexpr int kProbeN = 192;

analysis::Result analyzeRun(const Program& p) {
    Interp in(p);
    Value obj = in.instantiate("T", {});
    return analysis::analyzeEntry(p, obj, "run", {Value::ofI32(kProbeN)});
}

/// saxpy over two locally allocated arrays + an f64 checksum reduction:
/// the fill and update loops must prove Vectorizable, the sum stays on the
/// exact (serial) accumulator path.
Program saxpyProgram() {
    return oneMethodProgram(blk(
        decl("x", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        decl("y", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("x"), lv("i"),
                          cast(Type::f32(), mul(cast(Type::f64(), lv("i")), cd(0.25)))),
                     aset(lv("y"), lv("i"),
                          cast(Type::f32(), mul(cast(Type::f64(), lv("i")), cd(-0.5)))))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("y"), lv("i"),
                          add(aget(lv("y"), lv("i")), mul(cf(2.0f), aget(lv("x"), lv("i"))))))),
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), cast(Type::f64(), aget(lv("y"), lv("i"))))))),
        ret(lv("s"))));
}

/// A `copy(dst, src)` helper called once with distinct arrays and once
/// aliased: the cross-context join must weaken the verdict to guarded.
Program aliasedCopyProgram() {
    ProgramBuilder pb;
    auto& c = pb.cls("T");
    c.method("shift", Type::voidTy())
        .param("dst", Type::array(Type::f32()))
        .param("src", Type::array(Type::f32()))
        .param("n", Type::i32())
        .body(blk(forRange("i", ci(0), lv("n"),
                           blk(aset(lv("dst"), lv("i"),
                                    mul(cf(0.5f), aget(lv("src"), lv("i"))))))));
    c.method("run", Type::f64())
        .param("n", Type::i32())
        .body(blk(
            decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
            decl("b", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
            forRange("i", ci(0), lv("n"),
                     blk(aset(lv("a"), lv("i"), cast(Type::f32(), lv("i"))))),
            exprS(call(self(), "shift", lv("b"), lv("a"), lv("n"))),  // disjoint payloads
            exprS(call(self(), "shift", lv("a"), lv("a"), lv("n"))),  // aliased payloads
            ret(add(cast(Type::f64(), aget(lv("a"), sub(lv("n"), ci(1)))),
                    cast(Type::f64(), aget(lv("b"), sub(lv("n"), ci(1))))))));
    return pb.build();
}

/// The verdict of the only analyzed loop over `var`, or null when there is
/// none or more than one.
const analysis::LoopVector* loopVectorOf(const analysis::Result& r, const std::string& var) {
    const analysis::LoopVector* found = nullptr;
    for (const auto& [fs, lv] : r.loopVector) {
        if (static_cast<const ForStmt*>(fs)->var != var) continue;
        if (found) return nullptr;
        found = &lv;
    }
    return found;
}

/// `b[x] = 0.5f * a[wrapIdx]` over x in [init, n) inside T.run(n), with a
/// and b freshly allocated (so distinct): the wrap-recognition probe.
Program wrapProgram(ExprPtr wrapIdx, ExprPtr init = ci(0), Block prefix = {}) {
    Block body;
    for (auto& s : prefix) body.push_back(std::move(s));
    body.push_back(aset(lv("b"), lv("x"), mul(cf(0.5f), aget(lv("a"), std::move(wrapIdx)))));
    return oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        decl("b", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        decl("m", Type::i32(), sub(lv("n"), ci(1))),
        forRange("x", std::move(init), lv("n"), std::move(body)),
        ret(cast(Type::f64(), aget(lv("b"), ci(0))))));
}

} // namespace

// ------------------------------------------------------------ vector prover

TEST(VectorProver, UnitStrideElementwiseProvesVectorizable) {
    auto res = analyzeRun(saxpyProgram());
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): vectorizable"))
        << "fill/update loops must prove";
    EXPECT_TRUE(vectorReportHas(res, "unit-stride accesses; no cross-lane dependence"));
}

TEST(VectorProver, StridedAccessStaysScalar) {
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), mul(ci(2), lv("n")))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("a"), mul(ci(2), lv("i")), cast(Type::f32(), lv("i"))))),
        ret(cast(Type::f64(), aget(lv("a"), ci(0)))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): scalar"));
    EXPECT_TRUE(vectorReportHas(res, "not unit-stride"));
    EXPECT_TRUE(vectorReportHas(res, "(stride 2)"));
}

TEST(VectorProver, ExpIntrinsicHasNoBitExactVectorVariant) {
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("a", Type::array(Type::f64()), newArr(Type::f64(), lv("n"))),
        forRange("i", ci(0), lv("n"),
                 blk(aset(lv("a"), lv("i"),
                          intr(Intrinsic::MathExpF64, cast(Type::f64(), lv("i")))))),
        ret(aget(lv("a"), ci(0))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): scalar"));
    EXPECT_TRUE(vectorReportHas(res, "no bit-exact vector variant"));
}

TEST(VectorProver, AliasedCallContextWeakensToGuarded) {
    Program p = aliasedCopyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    auto res = analysis::analyzeEntry(p, obj, "run", {Value::ofI32(kProbeN)});
    EXPECT_TRUE(vectorReportHas(res, "T.shift: for (i): vectorizable (guarded)"));
    EXPECT_TRUE(vectorReportHas(res, "'dst'/'src'"));
    EXPECT_TRUE(vectorReportHas(res, "runtime overlap guard"));
}

TEST(VectorProver, ReductionExactnessSplitsByOperatorAndType) {
    // i64 sum wraps mod 2^64 — associative, so the lanes may carry a simd
    // reduction clause; an f64 sum vectorizes elementwise but its
    // accumulator must stay on the bitwise chunk-serial path.
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("c", Type::i64(), cl(0)),
        decl("s", Type::f64(), cd(0.0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("c", add(lv("c"), cast(Type::i64(), lv("i")))))),
        forRange("j", ci(0), lv("n"),
                 blk(assign("s", add(lv("s"), cast(Type::f64(), lv("j")))))),
        ret(add(cast(Type::f64(), lv("c")), lv("s"))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (i): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "exact under reassociation (simd reduction clause)"));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (j): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "reassociation is inexact; accumulator stays chunk-serial"));
}

// ---------------------------------------------------- periodic-wrap peeling

TEST(VectorProver, WrapFormsProveWithPeelWidths) {
    // (x - 2 + n) % n and (x + 3) % n: x + c on [2, n - 3).
    const Program p = oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        decl("b", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forRange("x", ci(0), lv("n"),
                 blk(aset(lv("b"), lv("x"),
                          add(aget(lv("a"), rem(add(sub(lv("x"), ci(2)), lv("n")), lv("n"))),
                              aget(lv("a"), rem(add(lv("x"), ci(3)), lv("n"))))))),
        ret(cast(Type::f64(), aget(lv("b"), ci(0))))));
    auto res = analyzeRun(p);
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (x): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "periodic wraps as x + c on [2, n - 3) (peel 2 head + 3 tail)"));
    const analysis::LoopVector* lv = loopVectorOf(res, "x");
    ASSERT_NE(nullptr, lv);
    EXPECT_EQ(2u, lv->wraps.size());
    EXPECT_EQ(2, lv->peelLo);
    EXPECT_EQ(3, lv->peelHi);
    EXPECT_EQ(0, lv->wrapBoundMax) << "n = 192 is far from overflow";
}

TEST(VectorProver, WrapModulusMustBeTheLoopBound) {
    const Program p = wrapProgram(rem(add(lv("x"), ci(1)), lv("m")));
    auto res = analyzeRun(p);
    EXPECT_TRUE(vectorReportHas(res, "the modulus differs from the loop bound 'n'"));
    const analysis::LoopVector* lv = loopVectorOf(res, "x");
    ASSERT_NE(nullptr, lv);
    EXPECT_TRUE(lv->wraps.empty());
}

TEST(VectorProver, WrapLoopMustStartAtZero) {
    const Program p = wrapProgram(rem(add(lv("x"), ci(1)), lv("n")), ci(1));
    auto res = analyzeRun(p);
    EXPECT_TRUE(vectorReportHas(res, "the loop does not start at 0"));
    const analysis::LoopVector* lv = loopVectorOf(res, "x");
    ASSERT_NE(nullptr, lv);
    EXPECT_TRUE(lv->wraps.empty());
}

TEST(VectorProver, WrapLoopMustStepByOne) {
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        decl("b", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
        forI32("x", ci(0), lt(lv("x"), lv("n")), add(lv("x"), ci(2)),
               blk(aset(lv("b"), lv("x"), aget(lv("a"), rem(add(lv("x"), ci(1)), lv("n")))))),
        ret(cast(Type::f64(), aget(lv("b"), ci(0)))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (x): scalar -- step is not `x + 1`"));
}

TEST(VectorProver, WrapModulusWrittenInTheBodyIsKept) {
    const Program p = wrapProgram(rem(add(lv("x"), ci(1)), lv("k")), ci(0),
                                  blk(decl("k", Type::i32(), lv("n")),
                                      assign("k", lv("n"))));
    auto res = analyzeRun(p);
    EXPECT_TRUE(vectorReportHas(res, "the modulus is not loop-invariant"));
    const analysis::LoopVector* lv = loopVectorOf(res, "x");
    ASSERT_NE(nullptr, lv);
    EXPECT_TRUE(lv->wraps.empty());
}

TEST(VectorProver, WrapDivisorMayBeNonPositive) {
    // Lint: the parameter m is unknown, so `% m` may divide by <= 0.
    ProgramBuilder pb;
    pb.cls("T").method("f", Type::voidTy())
        .param("a", Type::array(Type::f32()))
        .param("b", Type::array(Type::f32()))
        .param("n", Type::i32())
        .param("m", Type::i32())
        .body(blk(forRange("x", ci(0), lv("n"),
                           blk(aset(lv("b"), lv("x"),
                                    aget(lv("a"), rem(add(lv("x"), ci(1)), lv("m"))))))));
    auto res = analysis::lintProgram(pb.build());
    EXPECT_TRUE(vectorReportHas(res, "the divisor may be <= 0"));
}

TEST(VectorProver, WrapWithUnknownBoundFoldsOverflowIntoTheGuard) {
    // Lint: n is unknown, so x + 1 + n could overflow i32 for n near
    // INT32_MAX; the verdict carries the runtime bound check instead.
    ProgramBuilder pb;
    pb.cls("T").method("f", Type::voidTy())
        .param("a", Type::array(Type::f32()))
        .param("b", Type::array(Type::f32()))
        .param("n", Type::i32())
        .body(blk(forRange(
            "x", ci(0), lv("n"),
            blk(aset(lv("b"), lv("x"),
                     aget(lv("a"), rem(add(sub(lv("x"), ci(1)), lv("n")), lv("n"))))))));
    const Program p = pb.build();  // the verdicts point into its loops
    auto res = analysis::lintProgram(p);
    EXPECT_TRUE(vectorReportHas(
        res, "periodic wraps as x + c on [1, n) (peel 1 head + 0 tail; runtime guard n <= "
             "1073741819)"));
    const analysis::LoopVector* lv = loopVectorOf(res, "x");
    ASSERT_NE(nullptr, lv);
    EXPECT_EQ(1073741819, lv->wrapBoundMax);
}

/// for y in [0, 4): for x in [0, n): { int base = y * n; [reassign]
/// dst[base + x] = 2 * src[base + x]; } — the stable-body-local probe.
Program baseLocalProgram(bool reassign) {
    Block inner;
    inner.push_back(decl("base", Type::i32(), mul(lv("y"), lv("n"))));
    if (reassign) inner.push_back(assign("base", mul(lv("base"), ci(1))));
    inner.push_back(aset(lv("dst"), add(lv("base"), lv("x")),
                         mul(cf(2.0f), aget(lv("src"), add(lv("base"), lv("x"))))));
    return oneMethodProgram(blk(
        decl("src", Type::array(Type::f32()), newArr(Type::f32(), mul(ci(4), lv("n")))),
        decl("dst", Type::array(Type::f32()), newArr(Type::f32(), mul(ci(4), lv("n")))),
        forRange("y", ci(0), ci(4), blk(forRange("x", ci(0), lv("n"), std::move(inner)))),
        ret(cast(Type::f64(), aget(lv("dst"), ci(0))))));
}

TEST(VectorProver, StableBodyLocalKeysTheStore) {
    auto res = analyzeRun(baseLocalProgram(false));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (x): vectorizable"));
}

// Equal index keys prove nothing when the loop variable sits under a
// non-affine operator: x + x % 4 writes a[4] at x = 2 and at x = 4.
TEST(VectorProver, NonAffineIndexKeyIsNotStable) {
    auto res = analyzeRun(oneMethodProgram(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), mul(ci(2), lv("n")))),
        forRange("x", ci(0), lv("n"),
                 blk(aset(lv("a"), add(lv("x"), rem(lv("x"), ci(4))), cast(Type::f32(), lv("x"))))),
        ret(cast(Type::f64(), aget(lv("a"), ci(4)))))));
    EXPECT_TRUE(vectorReportHas(res, "T.run: for (x): scalar -- accesses to 'a' may collide"));
}

TEST(VectorProver, ReassignedBodyLocalIsNotStable) {
    auto res = analyzeRun(baseLocalProgram(true));
    EXPECT_TRUE(
        vectorReportHas(res, "T.run: for (x): scalar -- accesses to 'dst' may collide"));
}

// ------------------------------------------------------------ simd codegen

TEST(SimdCodegen, EmitsPragmaAndRestrictOnlyUnderWjSimd) {
    Program p = saxpyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    std::string scalarSrc;
    {
        ScopedEnv off("WJ_SIMD", "0");
        Translation t = translate(p, obj, "run", args);
        EXPECT_EQ(0, t.vectorLoops);
        EXPECT_EQ(std::string::npos, t.cSource.find("#pragma omp simd"));
        scalarSrc = t.cSource;
    }
    {
        ScopedEnv on("WJ_SIMD", "1");
        Translation t = translate(p, obj, "run", args);
        EXPECT_GE(t.vectorLoops, 2);  // fill + saxpy update
        EXPECT_NE(std::string::npos, t.cSource.find("#pragma omp simd"));
        EXPECT_NE(std::string::npos, t.cSource.find("restrict"));
        // The f64 sum may vectorize elementwise but must NOT take a lane
        // reduction clause (reassociation would change the bits).
        EXPECT_EQ(std::string::npos, t.cSource.find("reduction("));
        // WJ_THREADS is a pure runtime decision: the generated C (and so
        // the compilation cache key) must not depend on it.
        ScopedEnv th("WJ_THREADS", "8");
        Translation t8 = translate(p, obj, "run", args);
        EXPECT_EQ(t.cSource, t8.cSource);
        EXPECT_NE(scalarSrc, t.cSource);
    }
}

TEST(SimdCodegen, ExactReductionCarriesClause) {
    Program p = oneMethodProgram(blk(
        decl("c", Type::i64(), cl(0)),
        forRange("i", ci(0), lv("n"),
                 blk(assign("c", add(lv("c"), cast(Type::i64(), lv("i")))))),
        ret(cast(Type::f64(), lv("c")))));
    Interp in(p);
    Value obj = in.instantiate("T", {});
    ScopedEnv on("WJ_SIMD", "1");
    Translation t = translate(p, obj, "run", {Value::ofI32(kProbeN)});
    EXPECT_GE(t.vectorLoops, 1);
    EXPECT_NE(std::string::npos, t.cSource.find("reduction(+:v_c)"));
}

TEST(SimdCodegen, GuardedLoopKeepsScalarFallback) {
    Program p = aliasedCopyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    ScopedEnv on("WJ_SIMD", "1");
    Translation t = translate(p, obj, "run", {Value::ofI32(kProbeN)});
    EXPECT_NE(std::string::npos, t.cSource.find("wjrt_ranges_disjoint"));
    EXPECT_NE(std::string::npos, t.cSource.find("wjrt_simd_fallback"));
    EXPECT_NE(std::string::npos, t.cSource.find("#pragma omp simd"));
}

// A bound the interval facts cannot cap (m goes through a double) folds the
// wrap-overflow condition into the runtime guard; the peeled loop must
// still match the interpreter bit for bit.
TEST(SimdCodegen, PeeledWrapLoopWithUnknownBoundGuardsOverflow) {
    Program p = oneMethodProgram(blk(
        decl("m", Type::i32(), cast(Type::i32(), cast(Type::f64(), lv("n")))),
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("m"))),
        decl("b", Type::array(Type::f32()), newArr(Type::f32(), lv("m"))),
        forRange("x", ci(0), lv("m"),
                 blk(aset(lv("a"), lv("x"), cast(Type::f32(), mul(lv("x"), lv("x")))))),
        forRange("x", ci(0), lv("m"),
                 blk(aset(lv("b"), lv("x"),
                          sub(aget(lv("a"), rem(add(lv("x"), ci(2)), lv("m"))),
                              aget(lv("a"), rem(add(sub(lv("x"), ci(1)), lv("m")), lv("m"))))))),
        decl("s", Type::f64(), cd(0.0)),
        forRange("x", ci(0), lv("m"),
                 blk(assign("s", add(mul(lv("s"), cd(0.5)), cast(Type::f64(), aget(lv("b"), lv("x"))))))),
        ret(lv("s"))));
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    ScopedEnv on("WJ_SIMD", "1");
    JitCode code = WootinJ::jit(p, obj, "run", args);
    EXPECT_NE(std::string::npos, code.generatedC().find("(v_m <= 1073741819)"));
    EXPECT_NE(std::string::npos, code.generatedC().find("wj_vlo0"));
    EXPECT_TRUE(bitEq(in.call(obj, "run", args).asF64(), code.invokeWith(args).asF64()));
}

// --------------------------------------------------------------- end to end

TEST(SimdEndToEnd, BitwiseEqualToScalarAndInterp) {
    Program p = saxpyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    const double ref = in.call(obj, "run", args).asF64();
    JitCode scalar = [&] {
        ScopedEnv e("WJ_SIMD", "0");
        return WootinJ::jit(p, obj, "run", args);
    }();
    JitCode simd = [&] {
        ScopedEnv e("WJ_SIMD", "1");
        return WootinJ::jit(p, obj, "run", args);
    }();
    const double a = scalar.invokeWith(args).asF64();
    const double b = simd.invokeWith(args).asF64();
    EXPECT_TRUE(bitEq(ref, a));
    EXPECT_TRUE(bitEq(a, b)) << "WJ_SIMD must not change a single bit";
}

TEST(SimdEndToEnd, AliasedCallTakesScalarFallbackAndStaysCorrect) {
    Program p = aliasedCopyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(kProbeN)};
    const double ref = in.call(obj, "run", args).asF64();
    ScopedEnv on("WJ_SIMD", "1");
    auto& fallbacks = trace::Metrics::instance().counter("simd.guard.fallbacks");
    const int64_t before = fallbacks.value();
    JitCode code = WootinJ::jit(p, obj, "run", args);
    const double got = code.invokeWith(args).asF64();
    EXPECT_TRUE(bitEq(ref, got));
    // shift(a, a) overlaps byte ranges -> the guard must have sent exactly
    // the aliased call down the scalar branch (shift(b, a) stays simd).
    EXPECT_EQ(before + 1, fallbacks.value());
}

TEST(SimdEndToEnd, ComposesWithParallelBitwiseAcrossThreadCounts) {
    Program p = saxpyProgram();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    const std::vector<Value> args{Value::ofI32(4096)};
    const double serial = [&] {
        ScopedEnv e1("WJ_PARALLEL", "0");
        ScopedEnv e2("WJ_SIMD", "0");
        return WootinJ::jit(p, obj, "run", args).invokeWith(args).asF64();
    }();
    ScopedEnv e1("WJ_PARALLEL", "1");
    ScopedEnv e2("WJ_SIMD", "1");
    JitCode both = WootinJ::jit(p, obj, "run", args);
    EXPECT_NE(std::string::npos, both.generatedC().find("#pragma omp simd"));
    EXPECT_NE(std::string::npos, both.generatedC().find("wjrt_parallel_for"));
    double first = 0;
    bool haveFirst = false;
    for (int t : {1, 2, 8}) {
        ScopedEnv e3("WJ_THREADS", std::to_string(t).c_str());
        const double v = both.invokeWith(args).asF64();
        if (!haveFirst) {
            haveFirst = true;
            first = v;
        }
        EXPECT_TRUE(bitEq(first, v)) << "WJ_THREADS=" << t;
    }
    // 4096 > WJRT_REDUCE_MAX_CHUNKS regroups the f64 sum, so compare the
    // simd+parallel result against serial with a tight tolerance only.
    EXPECT_NEAR(serial, first, std::abs(serial) * 1e-12);
}

// ---------------------------------------------------------------------------
// The acceptance bar: the paper's evaluation kernels and the CG library
// prove with ZERO annotations. Matmul's ikj inner loop is the guarded case
// (`cr[i*n+j] += av*br[k*n+j]` needs the br/cr range guard), the grid fill
// walks an array reached through `this.cur`, and the CG axpy/dot loops are
// the textbook unit-stride forms.

TEST(KernelVectorization, DiffusionGridLoopsProve) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Value runner = stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7);
    auto res = analysis::analyzeEntry(prog, runner, "run", {Value::ofI32(1)});
    EXPECT_TRUE(vectorReportHas(res, "FloatGridDblB.fill: for (i): vectorizable"));
    EXPECT_TRUE(vectorReportHas(res, "FloatGridDblB.checksum: for (i): vectorizable"));
    // The 7-point sweep dispatches through StencilSolver.solve per cell —
    // the refusal must name that call, not a generic "unsupported".
    EXPECT_TRUE(vectorReportHas(res, "StencilCPU3DDblB.step: for (x): scalar"));
    EXPECT_TRUE(vectorReportHas(res, "calls 'get'"));
}

// The MPI sweep: `base`, `ym` and `yp` are stable body locals and the
// x-neighbours are periodic wraps, so the loop proves with one peeled
// iteration at each end (ghost planes make cur/nxt a guarded pair).
TEST(KernelVectorization, MpiSweepProvesPeeled) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Value runner = stencil::makeMpiRunner(in, 8, 8, 4, coeffs, 7);
    auto res = analysis::analyzeEntry(prog, runner, "run", {Value::ofI32(1)});
    EXPECT_TRUE(vectorReportHas(res, "StencilCPU3D_MPI.step: for (x): vectorizable (guarded)"));
    EXPECT_TRUE(vectorReportHas(res, "'cur'/'nxt'"));
    EXPECT_TRUE(vectorReportHas(res, "periodic wraps as x + c on [1, nx - 1) (peel 1 head + 1 tail)"));
    const analysis::LoopVector* lv = loopVectorOf(res, "x");
    ASSERT_NE(nullptr, lv);
    EXPECT_EQ(2u, lv->wraps.size());  // xm and xp; ym/yp do not depend on x
    EXPECT_EQ(1, lv->peelLo);
    EXPECT_EQ(1, lv->peelHi);
    EXPECT_EQ(0, lv->wrapBoundMax);
}

// The `wjc lint` row (README) for the same loop: without an entry context
// nx is unknown, so the overflow condition rides in the runtime guard.
TEST(KernelVectorization, MpiSweepLintRowShowsThePeel) {
    auto res = analysis::lintProgram(stencil::buildProgram());
    EXPECT_TRUE(vectorReportHas(
        res, "StencilCPU3D_MPI.step: for (x): vectorizable (guarded) -- lanes are independent "
             "provided the data ranges of 'cur'/'nxt' are disjoint (runtime overlap guard); "
             "periodic wraps as x + c on [1, nx - 1) (peel 1 head + 1 tail; runtime guard nx "
             "<= 1073741819)"));
}

// Bitwise on every slab width, including nx at and below the peel widths
// (head + tail = 2): the peeled loop must degenerate to the scalar one.
TEST(KernelVectorization, MpiSweepBitwiseUnderSimdAcrossWidths) {
    Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const std::vector<Value> args = {Value::ofI32(3)};
    for (int nx : {1, 2, 3, 5, 16}) {
        for (int ranks : {1, 2}) {
            // nzLocal = 3 keeps every stepRange call of the overlap runner
            // non-empty (an unreachable context would poison its verdict).
            const double ref = stencil::referenceDiffusion3D(nx, 4, 3 * ranks, coeffs, 7, 3);
            Value runner = stencil::makeMpiRunner(in, nx, 4, 3, coeffs, 7);
            Value overlap = stencil::makeMpiOverlapRunner(in, nx, 4, 3, coeffs, 7);
            ScopedEnv simd("WJ_SIMD", "1");
            for (const Value* r : {&runner, &overlap}) {
                JitCode code = WootinJ::jit4mpi(prog, *r, "run", args);
                EXPECT_GE(code.vectorLoops(), 3);
                code.set4MPI(ranks);
                EXPECT_TRUE(bitEq(ref, code.invokeWith(args).asF64()))
                    << "nx=" << nx << " ranks=" << ranks
                    << (r == &overlap ? " (overlap runner)" : "");
            }
        }
    }
}

TEST(KernelVectorization, MatmulInnerLoopProvesWithBrCrGuard) {
    Program prog = matmul::buildProgram();
    Interp in(prog);
    Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
    auto res =
        analysis::analyzeEntry(prog, app, "run", {Value::ofI32(8), Value::ofI32(7)});
    EXPECT_TRUE(
        vectorReportHas(res, "OptimizedCalculator.multiplyAcc: for (j): vectorizable (guarded)"));
    EXPECT_TRUE(vectorReportHas(res, "'br'/'cr'"));
    EXPECT_TRUE(vectorReportHas(res, "SimpleMatrix.fillGlobal: for (j): vectorizable"));
}

TEST(KernelVectorization, CgAxpyAndDotLoopsProve) {
    Program prog = cg::buildProgram();
    Interp in(prog);
    Value solver = cg::makeCpuSolver(in);
    auto res = analysis::analyzeEntry(prog, solver, "run",
                                      {Value::ofI32(64), Value::ofI32(3), Value::ofI32(5)});
    EXPECT_TRUE(vectorReportHas(res, "LocalDot.dot: for (i): vectorizable"));
    int vectorizable = 0;
    for (const auto& line : res.vectorReport) {
        if (line.find("CGSolver.run") != std::string::npos &&
            line.find(": vectorizable") != std::string::npos) {
            ++vectorizable;
        }
    }
    EXPECT_GE(vectorizable, 3) << "CG axpy/update loops should prove";
}

TEST(KernelVectorization, KernelsStayBitwiseUnderSimd) {
    // diffusion: 8^3 grid, 3 steps; matmul: 8x8, seed 7 — checksums must be
    // bit-identical with and without WJ_SIMD (the determinism contract on
    // the real kernels, not just synthetic loops).
    {
        Program prog = stencil::buildProgram();
        Interp in(prog);
        const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
        Value runner = stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7);
        const std::vector<Value> args = {Value::ofI32(3)};
        JitCode scalar = WootinJ::jit(prog, runner, "run", args);
        const double ref = scalar.invokeWith(args).asF64();
        ScopedEnv simd("WJ_SIMD", "1");
        JitCode vec = WootinJ::jit(prog, runner, "run", args);
        EXPECT_NE(std::string::npos, vec.generatedC().find("#pragma omp simd"));
        EXPECT_TRUE(bitEq(ref, vec.invokeWith(args).asF64()));
    }
    {
        Program prog = matmul::buildProgram();
        Interp in(prog);
        Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
        const std::vector<Value> args = {Value::ofI32(8), Value::ofI32(7)};
        JitCode scalar = WootinJ::jit(prog, app, "run", args);
        const double ref = scalar.invokeWith(args).asF64();
        ScopedEnv simd("WJ_SIMD", "1");
        JitCode vec = WootinJ::jit(prog, app, "run", args);
        EXPECT_NE(std::string::npos, vec.generatedC().find("wjrt_ranges_disjoint"));
        EXPECT_TRUE(bitEq(ref, vec.invokeWith(args).asF64()));
    }
}
