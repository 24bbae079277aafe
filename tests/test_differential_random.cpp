// Property-based differential testing: generate random rule-compliant WJ
// programs and check that every execution config computes bit-identical
// results. This is the strongest evidence that the translation preserves
// semantics: any divergence in arithmetic, control flow, dispatch,
// inlining, marshalling, bounds-guard insertion, or parallel-for outlining
// shows up as a mismatch.
//
// The config matrix, per generated program:
//   interp            the tree-walking interpreter (the reference)
//   jit               plain translation (no guards, serial)
//   jit+bounds        WJ_BOUNDS=all — every array access guarded
//   jit+par@1         WJ_PARALLEL=1 codegen, WJ_THREADS=1 (inline dispatch)
//   jit+par@4         the same translation fanned out over 4 pool threads
//   jit+simd          WJ_SIMD=1 — `#pragma omp simd` on proven loops
//   jit+par+simd@4    both codegens composed, 4 pool threads
//   jit+soa           WJ_SOA=1 — the AoS→SoA layout split (a no-op here:
//                     random programs carry no class-element arrays, so
//                     this pins the restructured element-access codegen)
//   jit+par+simd+soa@4  all three codegens composed, 4 pool threads
// The non-simd rows must agree BITWISE (uint64 payload of the f64 result) on
// every argument. The simd configs are also expected bitwise (the emitter
// never reassociates floats: reduction clauses are limited to exact
// operators), but are checked to a 1-ulp ceiling so a compiler that
// contracts differently under -fopenmp-simd reads as a tolerance, not a
// failure; the failing seed is printed so a divergence replays exactly.
//
// The generator is deliberately conservative about C undefined behaviour:
// integer expressions stay in a small range (constants, bounded add/sub,
// remainder by non-zero constants), divisions use non-zero constant
// denominators, and unbounded growth only happens in doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>

#include <string>
#include <vector>

#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "support/prng.h"
#include "scoped_env.h"

using namespace wj;
using namespace wj::dsl;

namespace {

class Gen {
public:
    explicit Gen(uint64_t seed) : rng_(seed) {}

    /// A random f64 expression of bounded depth over the declared locals.
    ExprPtr f64Expr(int depth) {
        if (depth <= 0 || rng_.nextBelow(4) == 0) {
            return f64Leaf();
        }
        switch (rng_.nextBelow(6)) {
        case 0: return add(f64Expr(depth - 1), f64Expr(depth - 1));
        case 1: return sub(f64Expr(depth - 1), f64Expr(depth - 1));
        case 2: return mul(f64Expr(depth - 1), f64Expr(depth - 1));
        case 3: // division by a constant bounded away from zero
            return divE(f64Expr(depth - 1), cd(1.0 + rng_.nextDouble() * 3.0));
        case 4: return neg(f64Expr(depth - 1));
        default: return cast(Type::f64(), i32Expr(depth - 1));
        }
    }

    /// A random *small* i32 expression (no overflow potential).
    ExprPtr i32Expr(int depth) {
        if (depth <= 0 || rng_.nextBelow(3) == 0) {
            return i32Leaf();
        }
        switch (rng_.nextBelow(3)) {
        case 0: return rem(add(i32Expr(depth - 1), i32Expr(depth - 1)),
                           ci(7 + static_cast<int32_t>(rng_.nextBelow(90))));
        case 1: return sub(i32Leaf(), i32Leaf());
        default: return rem(mul(i32Leaf(), i32Leaf()),
                            ci(11 + static_cast<int32_t>(rng_.nextBelow(80))));
        }
    }

    ExprPtr boolExpr(int depth) {
        switch (rng_.nextBelow(4)) {
        case 0: return lt(f64Expr(depth), f64Expr(depth));
        case 1: return ge(i32Expr(depth), i32Expr(depth));
        case 2: return land(boolShallow(), boolShallow());
        default: return lor(boolShallow(), boolShallow());
        }
    }

    /// A random statement block mutating the accumulator locals.
    Block stmts(int count, int depth) {
        Block b;
        for (int i = 0; i < count; ++i) {
            switch (rng_.nextBelow(5)) {
            case 0:
                b.push_back(assign("acc", f64Expr(depth)));
                break;
            case 1:
                b.push_back(assign("k", i32Expr(depth)));
                break;
            case 2: {
                Block thenB = stmts(1, depth - 1);
                Block elseB = stmts(1, depth - 1);
                b.push_back(ifs(boolExpr(depth - 1), std::move(thenB), std::move(elseB)));
                break;
            }
            case 3: {
                const std::string var = "L" + std::to_string(loopCount_++);
                Block body;
                body.push_back(assign("acc", add(lv("acc"), f64Expr(depth - 1))));
                b.push_back(forRange(var, ci(0),
                                     ci(1 + static_cast<int32_t>(rng_.nextBelow(6))),
                                     std::move(body)));
                break;
            }
            default:
                // Indices wrapped non-negatively: Java's % keeps the sign of
                // the dividend, and translated code has NO bounds checks.
                b.push_back(aset(lv("arr"),
                                 rem(add(rem(i32Expr(depth), ci(16)), ci(16)), ci(16)),
                                 cast(Type::f32(), f64Expr(depth - 1))));
                b.push_back(assign(
                    "acc", add(lv("acc"),
                               cast(Type::f64(),
                                    aget(lv("arr"),
                                         rem(add(rem(lv("k"), ci(16)), ci(16)), ci(16)))))));
                break;
            }
        }
        return b;
    }

private:
    ExprPtr f64Leaf() {
        switch (rng_.nextBelow(3)) {
        case 0: return cd(rng_.nextDouble() * 8.0 - 4.0);
        case 1: return lv("acc");
        default: return lv("x");
        }
    }

    ExprPtr i32Leaf() {
        switch (rng_.nextBelow(3)) {
        case 0: return ci(static_cast<int32_t>(rng_.nextBelow(19)) - 9);
        case 1: return lv("k");
        default: return lv("p");
        }
    }

    ExprPtr boolShallow() {
        return lt(i32Leaf(), i32Leaf());
    }

    SplitMix64 rng_;
    int loopCount_ = 0;
};

/// Builds one random program: double run(int p) with locals acc/x/k and a
/// 16-element float scratch array.
Program randomProgram(uint64_t seed) {
    Gen g(seed);
    ProgramBuilder pb;
    Block body;
    body.push_back(decl("acc", Type::f64(), cd(1.0)));
    body.push_back(decl("x", Type::f64(), cast(Type::f64(), lv("p"))));
    body.push_back(decl("k", Type::i32(), rem(lv("p"), ci(13))));
    body.push_back(decl("arr", Type::array(Type::f32()), newArr(Type::f32(), ci(16))));
    Block rest = g.stmts(8, 3);
    for (auto& s : rest) body.push_back(std::move(s));
    body.push_back(ret(lv("acc")));
    pb.cls("T").method("run", Type::f64()).param("p", Type::i32()).body(std::move(body));
    return pb.build();
}

using wj::test::ScopedEnv;

uint64_t bitsOf(double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/// ULP distance between two doubles: bit patterns mapped onto a monotone
/// integer line (sign-magnitude -> biased), so adjacent representable
/// values differ by exactly 1. NaNs are equal only bitwise.
uint64_t ulpDistance(double a, double b) {
    if (std::isnan(a) || std::isnan(b)) return bitsOf(a) == bitsOf(b) ? 0 : ~0ull;
    uint64_t ua = bitsOf(a);
    uint64_t ub = bitsOf(b);
    ua = (ua >> 63) ? ~ua : (ua | 0x8000000000000000ull);
    ub = (ub >> 63) ? ~ub : (ub | 0x8000000000000000ull);
    return ua > ub ? ua - ub : ub - ua;
}

} // namespace

class RandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomDifferential, AllExecutionConfigsBitwiseAgree) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 1;
    // Pin the knobs the matrix varies so the ambient environment cannot
    // skew a config (a stray WJ_BOUNDS=all would make "plain" = "bounds").
    ScopedEnv pinB("WJ_BOUNDS", nullptr);
    ScopedEnv pinP("WJ_PARALLEL", nullptr);
    ScopedEnv pinT("WJ_THREADS", nullptr);
    ScopedEnv pinS("WJ_SIMD", nullptr);
    ScopedEnv pinL("WJ_SOA", nullptr);

    Program p = randomProgram(seed);
    Interp in(p);
    Value obj = in.instantiate("T", {});

    JitCode plain = WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    JitCode bounds = [&] {
        ScopedEnv e("WJ_BOUNDS", "all");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();
    // One translation serves both thread counts: the generated C is
    // WJ_THREADS-independent (chunking happens in wjrt_parallel_for).
    JitCode par = [&] {
        ScopedEnv e("WJ_PARALLEL", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();
    JitCode simd = [&] {
        ScopedEnv e("WJ_SIMD", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();
    JitCode parSimd = [&] {
        ScopedEnv e1("WJ_PARALLEL", "1");
        ScopedEnv e2("WJ_SIMD", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();
    // The WJ_SOA configs exercise the restructured FieldGet/ArraySet paths
    // in the translator; random programs have no class-element arrays, so
    // the flag must be a provable no-op on them.
    JitCode soa = [&] {
        ScopedEnv e("WJ_SOA", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();
    JitCode parSimdSoa = [&] {
        ScopedEnv e1("WJ_PARALLEL", "1");
        ScopedEnv e2("WJ_SIMD", "1");
        ScopedEnv e3("WJ_SOA", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();

    for (int arg : {0, 1, 7, -5, 123}) {
        const std::vector<Value> args{Value::ofI32(arg)};
        const double refD = in.call(obj, "run", args).asF64();
        const uint64_t ref = bitsOf(refD);

        struct Row {
            const char* config;
            double v;
            bool simdRow;
        };
        std::vector<Row> rows;
        rows.push_back({"jit", plain.invokeWith(args).asF64(), false});
        rows.push_back({"jit+bounds=all", bounds.invokeWith(args).asF64(), false});
        {
            ScopedEnv t("WJ_THREADS", "1");
            rows.push_back({"jit+parallel@1", par.invokeWith(args).asF64(), false});
        }
        {
            ScopedEnv t("WJ_THREADS", "4");
            rows.push_back({"jit+parallel@4", par.invokeWith(args).asF64(), false});
        }
        rows.push_back({"jit+simd", simd.invokeWith(args).asF64(), true});
        {
            ScopedEnv t("WJ_THREADS", "4");
            rows.push_back({"jit+parallel+simd@4", parSimd.invokeWith(args).asF64(), true});
        }
        rows.push_back({"jit+soa", soa.invokeWith(args).asF64(), false});
        {
            ScopedEnv t("WJ_THREADS", "4");
            rows.push_back(
                {"jit+parallel+simd+soa@4", parSimdSoa.invokeWith(args).asF64(), true});
        }
        for (const Row& r : rows) {
            if (r.simdRow) {
                // Expected bitwise too, but tolerated to 1 ulp (see the
                // file header); exact-type payloads inside the f64 differ
                // by 0 or the ulpDistance is already nonzero.
                EXPECT_LE(ulpDistance(refD, r.v), 1u)
                    << "config=" << r.config << " diverged from the interpreter: seed="
                    << seed << " arg=" << arg << " (replay: RandomDifferential sweep index "
                    << GetParam() << ")";
            } else {
                EXPECT_EQ(ref, bitsOf(r.v))
                    << "config=" << r.config << " diverged from the interpreter: seed="
                    << seed << " arg=" << arg << " (replay: RandomDifferential sweep index "
                    << GetParam() << ")";
            }
        }
    }
}

// 200+ programs x 8 jit configs x 5 arguments, per the tracing-PR and
// layout-PR acceptance criteria (9 configurations counting the interpreter
// reference row).
// criteria. Each sweep index is its own ctest entry (gtest_discover_tests),
// so the three compiles per program run under per-test timeouts.
INSTANTIATE_TEST_SUITE_P(Sweep, RandomDifferential, ::testing::Range(0, 200));

// ------------------------------------------------- reduction-heavy family
//
// Programs whose loops are all recognized reductions (`acc = acc op f(i)`
// over +, *, min, max on f64/i64/f32 accumulators). Trip counts stay at or
// below 48 — within the fixed WJRT_REDUCE_MAX_CHUNKS grid every chunk is a
// single iteration, so the ordered combine IS the serial fold and the
// bitwise interp-vs-jit contract extends to the parallel configs.

namespace {

/// One random reduction program: double run(int p) folding four
/// accumulators (sum, product, i64 sum, f32 min) over seeded trip counts.
Program reductionProgram(uint64_t seed) {
    SplitMix64 rng(seed);
    const int32_t tSum = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const int32_t tProd = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const int32_t tLong = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const int32_t tMin = 1 + static_cast<int32_t>(rng.nextBelow(48));
    const double w = 0.25 + rng.nextDouble();
    // Exactly representable factor near 1: product stays finite and the
    // mul-by-identity seeding cannot flush anything denormal.
    const double q = 1.0 + static_cast<double>(rng.nextBelow(16)) / 1024.0;
    const int32_t mMod = 3 + static_cast<int32_t>(rng.nextBelow(9));

    // arr[j] = f32(j * w + p), filled by a proven parallel-for; the min
    // reduction then scans it through the same index expression twice
    // (textually equal sides, the recognized guarded-update form).
    auto scan = [] { return aget(lv("arr"), rem(lv("i"), ci(16))); };

    Block body;
    body.push_back(decl("arr", Type::array(Type::f32()), newArr(Type::f32(), ci(16))));
    body.push_back(forRange(
        "j", ci(0), ci(16),
        blk(aset(lv("arr"), lv("j"),
                 cast(Type::f32(), add(mul(cast(Type::f64(), lv("j")), cd(w)),
                                       cast(Type::f64(), lv("p"))))))));
    body.push_back(decl("s", Type::f64(), cd(0.0)));
    body.push_back(forRange(
        "i", ci(0), ci(tSum),
        blk(assign("s", add(lv("s"),
                            mul(cast(Type::f64(), aget(lv("arr"), rem(lv("i"), ci(16)))),
                                cd(w)))))));
    body.push_back(decl("prod", Type::f64(), cd(1.0)));
    body.push_back(
        forRange("i", ci(0), ci(tProd), blk(assign("prod", mul(cd(q), lv("prod"))))));
    body.push_back(decl("m", Type::i64(), cast(Type::i64(), lv("p"))));
    body.push_back(forRange(
        "i", ci(0), ci(tLong),
        blk(assign("m", add(lv("m"), cast(Type::i64(), rem(lv("i"), ci(mMod))))))));
    body.push_back(decl("lo", Type::f32(), cf(1e30f)));
    body.push_back(forRange("i", ci(0), ci(tMin),
                            blk(ifs(lt(scan(), lv("lo")), blk(assign("lo", scan()))))));
    body.push_back(ret(add(add(lv("s"), lv("prod")),
                           add(cast(Type::f64(), lv("m")), cast(Type::f64(), lv("lo"))))));
    ProgramBuilder pb;
    pb.cls("R").method("run", Type::f64()).param("p", Type::i32()).body(std::move(body));
    return pb.build();
}

} // namespace

class ReductionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ReductionDifferential, ParallelReduceConfigsBitwiseAgree) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x51c64b6u + 3;
    ScopedEnv pinB("WJ_BOUNDS", nullptr);
    ScopedEnv pinP("WJ_PARALLEL", nullptr);
    ScopedEnv pinT("WJ_THREADS", nullptr);
    ScopedEnv pinS("WJ_SIMD", nullptr);
    ScopedEnv pinL("WJ_SOA", nullptr);

    Program p = reductionProgram(seed);
    Interp in(p);
    Value obj = in.instantiate("R", {});

    JitCode plain = WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    JitCode par = [&] {
        ScopedEnv e("WJ_PARALLEL", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();
    EXPECT_GE(par.reduceLoops(), 4) << "every accumulator loop must outline";
    JitCode parSimd = [&] {
        ScopedEnv e1("WJ_PARALLEL", "1");
        ScopedEnv e2("WJ_SIMD", "1");
        return WootinJ::jit(p, obj, "run", {Value::ofI32(0)});
    }();

    for (int arg : {0, 2, -7, 55}) {
        const std::vector<Value> args{Value::ofI32(arg)};
        const double refD = in.call(obj, "run", args).asF64();
        const uint64_t ref = bitsOf(refD);
        EXPECT_EQ(ref, bitsOf(plain.invokeWith(args).asF64()))
            << "jit diverged: seed=" << seed << " arg=" << arg;
        for (int t : {1, 4, 8}) {
            ScopedEnv e("WJ_THREADS", std::to_string(t).c_str());
            EXPECT_EQ(ref, bitsOf(par.invokeWith(args).asF64()))
                << "jit+parallel@" << t << " diverged: seed=" << seed << " arg=" << arg;
            // simd composed on top: exact reduction clauses (i64 +, f32
            // min) stay bitwise; the 1-ulp ceiling covers the rest.
            EXPECT_LE(ulpDistance(refD, parSimd.invokeWith(args).asF64()), 1u)
                << "jit+parallel+simd@" << t << " diverged: seed=" << seed
                << " arg=" << arg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(ReduceSweep, ReductionDifferential, ::testing::Range(0, 24));

// ------------------------------------------------- periodic-wrap family
//
// Row sweeps `dst[base + x] = sum of w * src[base + wrap]` whose reads index
// through periodic wraps `(x + c + n) % n` / `(x + c) % n`, c in [-3, 3] and
// n in {1, 2, 3, 4, 7, 64} (so n at or below the peel widths is covered),
// with the row base a body local and, for some seeds, the wrap itself a
// body local or the bound hidden behind a double round trip (so the
// overflow condition moves into the runtime guard). Whether dst aliases src
// is decided by array data the analysis cannot fold, so the simd configs
// must take both the peeled simd path and the scalar fallback. Every config
// must agree with the interpreter BITWISE: lowering a wrap to x + c is exact
// on the middle range and the elementwise f32 math is never reassociated.

namespace {

Program wrapFamilyProgram(uint64_t seed) {
    SplitMix64 rng(seed);
    static const int32_t kWidths[] = {1, 2, 3, 4, 7, 64};
    static const int32_t kRows[] = {1, 2, 5};
    const int32_t n = kWidths[rng.nextBelow(6)];
    const int32_t rows = kRows[rng.nextBelow(3)];
    const bool hiddenBound = rng.nextBelow(3) == 0;

    // A wrap read of src at shift c, spelled one of the recognized ways.
    auto wrapIdx = [&](int32_t c) -> ExprPtr {
        const bool plusN = c < 0 || rng.nextBelow(2) == 0;
        ExprPtr x = c < 0 && rng.nextBelow(2) == 0 ? sub(lv("x"), ci(-c)) : add(lv("x"), ci(c));
        return rem(plusN ? add(std::move(x), lv("w")) : std::move(x), lv("w"));
    };

    Block inner;
    inner.push_back(decl("base", Type::i32(), mul(lv("y"), lv("w"))));
    ExprPtr value = mul(cf(0.5f), aget(lv("src"), add(lv("base"), lv("x"))));
    const int reads = 1 + static_cast<int>(rng.nextBelow(3));
    for (int k = 0; k < reads; ++k) {
        // c < 0 stays >= -n so the numerator x + c + n is never negative.
        const int32_t c = std::max(static_cast<int32_t>(rng.nextBelow(7)) - 3, -n);
        const float wk = 0.125f * static_cast<float>(1 + rng.nextBelow(7));
        ExprPtr idx = wrapIdx(c);
        if (rng.nextBelow(2) == 0) {
            const std::string local = "xw" + std::to_string(k);
            inner.push_back(decl(local, Type::i32(), std::move(idx)));
            idx = lv(local);
        }
        value = add(std::move(value), mul(cf(wk), aget(lv("src"), add(lv("base"), std::move(idx)))));
    }
    inner.push_back(aset(lv("dst"), add(lv("base"), lv("x")), std::move(value)));

    ProgramBuilder pb;
    auto& c = pb.cls("W");
    c.method("sweep", Type::voidTy())
        .param("dst", Type::array(Type::f32()))
        .param("src", Type::array(Type::f32()))
        .param("n", Type::i32())
        .param("rows", Type::i32())
        .body(blk(decl("w", Type::i32(),
                       hiddenBound ? cast(Type::i32(), cast(Type::f64(), lv("n"))) : lv("n")),
                  forRange("y", ci(0), lv("rows"),
                           blk(forRange("x", ci(0), lv("w"), std::move(inner))))));
    c.method("run", Type::f64())
        .param("p", Type::i32())
        .body(blk(
            decl("n", Type::i32(), ci(n)),
            decl("rows", Type::i32(), ci(rows)),
            decl("a", Type::array(Type::f32()), newArr(Type::f32(), mul(lv("rows"), lv("n")))),
            decl("b", Type::array(Type::f32()), newArr(Type::f32(), mul(lv("rows"), lv("n")))),
            forRange("i", ci(0), mul(lv("rows"), lv("n")),
                     blk(aset(lv("a"), lv("i"),
                              mul(cf(0.25f), cast(Type::f32(), rem(add(mul(lv("i"), ci(7)),
                                                                       lv("p")),
                                                                   ci(13))))))),
            // Aliased (in-place) or disjoint, decided by float data.
            ifs(lt(aget(lv("a"), ci(0)), cf(1.0f)),
                blk(exprS(call(self(), "sweep", lv("a"), lv("a"), lv("n"), lv("rows")))),
                blk(exprS(call(self(), "sweep", lv("b"), lv("a"), lv("n"), lv("rows"))))),
            decl("s", Type::f64(), cd(0.0)),
            // s * 0.75 + ... is no recognized reduction: a serial fold.
            forRange("i", ci(0), mul(lv("rows"), lv("n")),
                     blk(assign("s", add(mul(lv("s"), cd(0.75)),
                                         add(cast(Type::f64(), aget(lv("a"), lv("i"))),
                                             cast(Type::f64(), aget(lv("b"), lv("i")))))))),
            ret(lv("s"))));
    return pb.build();
}

} // namespace

class WrapDifferential : public ::testing::TestWithParam<int> {};

TEST_P(WrapDifferential, PeeledWrapSweepsBitwiseAgree) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x2545f491u + 5;
    ScopedEnv pinB("WJ_BOUNDS", nullptr);
    ScopedEnv pinP("WJ_PARALLEL", nullptr);
    ScopedEnv pinT("WJ_THREADS", nullptr);
    ScopedEnv pinS("WJ_SIMD", nullptr);
    ScopedEnv pinL("WJ_SOA", nullptr);

    Program p = wrapFamilyProgram(seed);
    Interp in(p);
    Value obj = in.instantiate("W", {});
    const std::vector<Value> jitArgs{Value::ofI32(0)};
    auto jitWith = [&](std::initializer_list<std::pair<const char*, const char*>> env) {
        std::vector<std::unique_ptr<ScopedEnv>> scopes;
        for (const auto& [k, v] : env) scopes.push_back(std::make_unique<ScopedEnv>(k, v));
        return WootinJ::jit(p, obj, "run", jitArgs);
    };
    JitCode plain = jitWith({});
    JitCode bounds = jitWith({{"WJ_BOUNDS", "all"}});
    JitCode par = jitWith({{"WJ_PARALLEL", "1"}});
    JitCode simd = jitWith({{"WJ_SIMD", "1"}});
    EXPECT_NE(std::string::npos, simd.generatedC().find("wj_vlo0"))
        << "the row sweep must prove and peel: seed=" << seed;
    JitCode parSimd = jitWith({{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}});
    JitCode soa = jitWith({{"WJ_SOA", "1"}});
    JitCode parSimdSoa = jitWith({{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}, {"WJ_SOA", "1"}});

    for (int arg : {0, 1, 7, -5, 123}) {
        const std::vector<Value> args{Value::ofI32(arg)};
        const uint64_t ref = bitsOf(in.call(obj, "run", args).asF64());
        struct Row {
            const char* config;
            JitCode* code;
            const char* threads;
        };
        const Row rows[] = {{"jit", &plain, nullptr},
                            {"jit+bounds=all", &bounds, nullptr},
                            {"jit+parallel@1", &par, "1"},
                            {"jit+parallel@4", &par, "4"},
                            {"jit+simd", &simd, nullptr},
                            {"jit+parallel+simd@4", &parSimd, "4"},
                            {"jit+soa", &soa, nullptr},
                            {"jit+parallel+simd+soa@4", &parSimdSoa, "4"}};
        for (const Row& r : rows) {
            ScopedEnv t("WJ_THREADS", r.threads);
            EXPECT_EQ(ref, bitsOf(r.code->invokeWith(args).asF64()))
                << "config=" << r.config << " diverged from the interpreter: seed=" << seed
                << " arg=" << arg << " (replay: WrapDifferential sweep index " << GetParam()
                << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WrapSweep, WrapDifferential, ::testing::Range(0, 24));

// ------------------------------------------------- loop-fusion family
//
// Producer -> consumer loop pairs for the fusion pass (analysis/fusion.h):
// a producer writes `a` from `src` and the loop right after it reads `a`,
// each written inline or as the single loop of a method on a strict-final
// helper the receiver graph resolves, with an optional pure declaration in
// between. The consumer reads `a` at the same index, which fuses under
// WJ_PARALLEL, or at a shifted one (`a[i + 1]`, `a[i + 2]`), the mutant
// whose fused order would read elements before they are produced: it must
// never fuse. Trip counts stay within the 64-chunk reduce grid, so every
// config agrees with the interpreter bitwise.

namespace {

struct FusionCase {
    Program prog;
    int shift = 0;  ///< index shift of the read right after the producer
};

FusionCase fusionFamilyProgram(uint64_t seed) {
    SplitMix64 rng(seed);
    const int32_t n = 1 + static_cast<int32_t>(rng.nextBelow(64));
    const bool producerCall = rng.nextBelow(2) == 0;
    const bool dotCall = rng.nextBelow(2) == 0;
    const bool dotFirst = rng.nextBelow(2) == 0;  // else the elementwise consumer
    const bool between = rng.nextBelow(2) == 0;
    const int shift = static_cast<int>(rng.nextBelow(3));
    const int otherShift = static_cast<int>(rng.nextBelow(3));
    const float w = 0.25f + 0.125f * static_cast<float>(rng.nextBelow(6));

    auto at = [](const char* arr, int s) {
        return aget(lv(arr), s == 0 ? lv("i") : add(lv("i"), ci(s)));
    };
    auto produce = [&](const char* dst, const char* src) {
        return aset(lv(dst), lv("i"),
                    add(mul(aget(lv(src), lv("i")), cf(w)),
                        cast(Type::f32(), rem(lv("i"), ci(5)))));
    };
    auto dotTerm = [&](const char* x, const char* y, int s) {
        return mul(cast(Type::f64(), at(x, s)), cast(Type::f64(), aget(lv(y), lv("i"))));
    };

    ProgramBuilder pb;
    {
        auto& c = pb.cls("P").finalClass();
        c.method("fill", Type::voidTy())
            .param("dst", Type::array(Type::f32()))
            .param("src", Type::array(Type::f32()))
            .param("m", Type::i32())
            .body(blk(forRange("i", ci(0), lv("m"), blk(produce("dst", "src"))), retVoid()));
        c.method("dot", Type::f64())
            .param("x", Type::array(Type::f32()))
            .param("y", Type::array(Type::f32()))
            .param("m", Type::i32())
            .body(blk(decl("acc", Type::f64(), cd(0.0)),
                      forRange("i", ci(0), lv("m"),
                               blk(assign("acc", add(lv("acc"), dotTerm("x", "y",
                                                                        dotFirst ? shift
                                                                                 : otherShift))))),
                      ret(lv("acc"))));
    }

    const int dotShift = dotFirst ? shift : otherShift;
    const int elemShift = dotFirst ? otherShift : shift;
    Block dot;
    if (dotCall) {
        dot.push_back(decl("s", Type::f64(),
                           call(selff("k"), "dot", lv("a"), lv("src"), lv("n"))));
    } else {
        dot.push_back(decl("s", Type::f64(), cd(0.0)));
        dot.push_back(forRange("i", ci(0), lv("n"),
                               blk(assign("s", add(lv("s"), dotTerm("a", "src", dotShift))))));
    }
    Block elem;
    elem.push_back(forRange(
        "i", ci(0), lv("n"),
        blk(aset(lv("b"), lv("i"), add(mul(at("a", elemShift), cf(0.5f)), aget(lv("src"), lv("i")))))));

    Block body;
    body.push_back(decl("n", Type::i32(), ci(n)));
    for (const char* arr : {"a", "b", "src"}) {
        body.push_back(decl(arr, Type::array(Type::f32()), newArr(Type::f32(), add(lv("n"), ci(2)))));
    }
    body.push_back(forRange(
        "j", ci(0), add(lv("n"), ci(2)),
        blk(aset(lv("src"), lv("j"),
                 mul(cf(0.25f), cast(Type::f32(), rem(add(mul(lv("j"), ci(7)), lv("p")), ci(13))))))));
    if (producerCall) {
        body.push_back(exprS(call(selff("k"), "fill", lv("a"), lv("src"), lv("n"))));
    } else {
        body.push_back(forRange("i", ci(0), lv("n"), blk(produce("a", "src"))));
    }
    if (between) body.push_back(decl("w", Type::f64(), mul(cast(Type::f64(), lv("p")), cd(0.125))));
    Block& firstC = dotFirst ? dot : elem;
    Block& secondC = dotFirst ? elem : dot;
    for (auto& st : firstC) body.push_back(std::move(st));
    for (auto& st : secondC) body.push_back(std::move(st));
    // s * 0.75 + ... is no recognized reduction: a serial fold over b.
    body.push_back(decl("t", Type::f64(), cd(0.0)));
    body.push_back(forRange("j", ci(0), add(lv("n"), ci(2)),
                            blk(assign("t", add(mul(lv("t"), cd(0.75)),
                                                cast(Type::f64(), aget(lv("b"), lv("j"))))))));
    body.push_back(ret(add(between ? mul(lv("s"), lv("w")) : lv("s"), lv("t"))));
    {
        auto& c = pb.cls("F");
        c.field("k", Type::cls("P"));
        c.ctor().param("k_", Type::cls("P")).body(blk(setSelf("k", lv("k_"))));
        c.method("run", Type::f64()).param("p", Type::i32()).body(std::move(body));
    }
    return {pb.build(), shift};
}

/// `F.run(p)` with a producer loop and a consumer that both add into one
/// f64 local `s`: the fused body would hold two sanctioned updates of `s`
/// and prove ParallelReduce, but its chunked sum interleaves the two loops'
/// terms, so the pair must never fuse. n <= 64 keeps the unfused reduce
/// grid at one iteration per chunk, bitwise equal to the interpreter.
Program sharedAccumulatorProgram(uint64_t seed) {
    SplitMix64 rng(seed);
    const int32_t n = 2 + static_cast<int32_t>(rng.nextBelow(63));
    const double w = 0.1 + 0.05 * static_cast<double>(rng.nextBelow(7));
    auto term = [&](ExprPtr e) { return mul(cast(Type::f64(), std::move(e)), cd(w)); };
    Block body;
    body.push_back(decl("n", Type::i32(), ci(n)));
    body.push_back(decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))));
    body.push_back(decl("s", Type::f64(), cast(Type::f64(), lv("p"))));
    body.push_back(forRange(
        "i", ci(0), lv("n"),
        blk(aset(lv("a"), lv("i"),
                 mul(cf(0.375f), cast(Type::f32(), rem(add(mul(lv("i"), ci(7)), lv("p")), ci(11))))),
            assign("s", add(lv("s"), term(aget(lv("a"), lv("i"))))))));
    body.push_back(forRange("i", ci(0), lv("n"),
                            blk(assign("s", add(lv("s"), term(mul(aget(lv("a"), lv("i")),
                                                                  aget(lv("a"), lv("i")))))))));
    body.push_back(ret(lv("s")));
    ProgramBuilder pb;
    pb.cls("P").finalClass();
    auto& c = pb.cls("F");
    c.field("k", Type::cls("P"));
    c.ctor().param("k_", Type::cls("P")).body(blk(setSelf("k", lv("k_"))));
    c.method("run", Type::f64()).param("p", Type::i32()).body(std::move(body));
    return pb.build();
}

/// Jits `obj.run` under every translation config and checks each result
/// against the interpreter bitwise; returns the WJ_PARALLEL=1 translation.
JitCode expectConfigsMatchInterp(const Program& p, Interp& in, const Value& obj, uint64_t seed,
                                 const char* suite, int index) {
    const std::vector<Value> jitArgs{Value::ofI32(0)};
    auto jitWith = [&](std::initializer_list<std::pair<const char*, const char*>> env) {
        std::vector<std::unique_ptr<ScopedEnv>> scopes;
        for (const auto& [k, v] : env) scopes.push_back(std::make_unique<ScopedEnv>(k, v));
        return WootinJ::jit(p, obj, "run", jitArgs);
    };
    JitCode plain = jitWith({});
    JitCode bounds = jitWith({{"WJ_BOUNDS", "all"}});
    JitCode par = jitWith({{"WJ_PARALLEL", "1"}});
    JitCode simd = jitWith({{"WJ_SIMD", "1"}});
    JitCode parSimd = jitWith({{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}});
    JitCode soa = jitWith({{"WJ_SOA", "1"}});
    JitCode parSimdSoa = jitWith({{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}, {"WJ_SOA", "1"}});
    EXPECT_LE(parSimd.fusedLoops(), par.fusedLoops()) << "seed=" << seed;

    for (int arg : {0, 1, 7, -5, 123}) {
        const std::vector<Value> args{Value::ofI32(arg)};
        const uint64_t ref = bitsOf(in.call(obj, "run", args).asF64());
        struct Row {
            const char* config;
            JitCode* code;
            const char* threads;
        };
        const Row rows[] = {{"jit", &plain, nullptr},
                            {"jit+bounds=all", &bounds, nullptr},
                            {"jit+parallel@1", &par, "1"},
                            {"jit+parallel@4", &par, "4"},
                            {"jit+simd", &simd, nullptr},
                            {"jit+parallel+simd@4", &parSimd, "4"},
                            {"jit+soa", &soa, nullptr},
                            {"jit+parallel+simd+soa@4", &parSimdSoa, "4"}};
        for (const Row& r : rows) {
            ScopedEnv t("WJ_THREADS", r.threads);
            EXPECT_EQ(ref, bitsOf(r.code->invokeWith(args).asF64()))
                << "config=" << r.config << " diverged from the interpreter: seed=" << seed
                << " arg=" << arg << " (replay: " << suite << " sweep index " << index << ")";
        }
    }
    return par;
}

} // namespace

class FusionDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FusionDifferential, FusedPairsBitwiseAgreeAndShiftedReadsNeverFuse) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x6c8e9cf5u + 7;
    ScopedEnv pinB("WJ_BOUNDS", nullptr);
    ScopedEnv pinP("WJ_PARALLEL", nullptr);
    ScopedEnv pinT("WJ_THREADS", nullptr);
    ScopedEnv pinS("WJ_SIMD", nullptr);
    ScopedEnv pinL("WJ_SOA", nullptr);

    FusionCase fc = fusionFamilyProgram(seed);
    Interp in(fc.prog);
    Value obj = in.instantiate("F", {in.instantiate("P", {})});
    JitCode par =
        expectConfigsMatchInterp(fc.prog, in, obj, seed, "FusionDifferential", GetParam());

    std::string report;
    for (const auto& line : par.fusionReport()) report += "\n  " + line;
    if (fc.shift == 0) {
        EXPECT_EQ(1, par.fusedLoops()) << "same-index pair must fuse: seed=" << seed << report;
    } else {
        EXPECT_EQ(0, par.fusedLoops()) << "shifted read fused: seed=" << seed << report;
        EXPECT_NE(std::string::npos, report.find("not fused:")) << "seed=" << seed << report;
    }
}

INSTANTIATE_TEST_SUITE_P(FusionSweep, FusionDifferential, ::testing::Range(0, 24));

class SharedAccumulatorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SharedAccumulatorDifferential, TwoReductionsIntoOneLocalNeverFuse) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x2545f491u + 3;
    ScopedEnv pinB("WJ_BOUNDS", nullptr);
    ScopedEnv pinP("WJ_PARALLEL", nullptr);
    ScopedEnv pinT("WJ_THREADS", nullptr);
    ScopedEnv pinS("WJ_SIMD", nullptr);
    ScopedEnv pinL("WJ_SOA", nullptr);

    Program p = sharedAccumulatorProgram(seed);
    Interp in(p);
    Value obj = in.instantiate("F", {in.instantiate("P", {})});
    JitCode par = expectConfigsMatchInterp(p, in, obj, seed, "SharedAccumulatorDifferential",
                                           GetParam());
    std::string report;
    for (const auto& line : par.fusionReport()) report += "\n  " + line;
    EXPECT_EQ(0, par.fusedLoops()) << "shared accumulator fused: seed=" << seed << report;
    EXPECT_NE(std::string::npos, report.find("both loops use 's'")) << "seed=" << seed << report;
}

INSTANTIATE_TEST_SUITE_P(SharedAccumulatorSweep, SharedAccumulatorDifferential,
                         ::testing::Range(0, 6));

// ------------------------------------------------- aliased-or-disjoint family
//
// Array sharing across the jit boundary (interp/snapshot.h). The receiver's
// two float[] fields `a` and `b` hold one array or two, chosen by seed, and
// the float[] argument `x` is a fresh array, `a`'s or `b`'s. The loops read
// and write them at seeded index shifts, so when two names share an array
// a store is visible to a later load, and a proof made for two separate
// arrays (a parallel chunking, a restrict-hoisted SIMD loop) would read
// stale elements. Lengths stay under the 64-chunk reduce grid, so every
// config agrees with the interpreter bitwise.

namespace {

struct AliasCase {
    Program prog;
    bool shared = false;  ///< `a` and `b` are one array
    int argAlias = 0;     ///< `x` is 0: a fresh array, 1: `a`'s, 2: `b`'s
    int32_t n = 0;        ///< the arrays' length
};

AliasCase aliasFamilyProgram(uint64_t seed) {
    SplitMix64 rng(seed);
    const bool shared = rng.nextBelow(2) == 1;
    const int argAlias = static_cast<int>(rng.nextBelow(3));
    const int32_t n = 8 + static_cast<int32_t>(rng.nextBelow(40));
    auto shift = [&] { return static_cast<int32_t>(rng.nextBelow(2)); };
    const int32_t s1 = shift(), s2 = shift(), s3 = shift(), s4 = shift();
    const float w1 = 0.25f * static_cast<float>(1 + rng.nextBelow(5));
    const float w2 = 0.125f * static_cast<float>(1 + rng.nextBelow(7));
    auto at = [](const char* arr, int32_t s) {
        ExprPtr i = s ? add(lv("i"), ci(s)) : lv("i");
        return std::string(arr) == "x" ? aget(lv("x"), std::move(i))
                                       : aget(selff(arr), std::move(i));
    };
    auto term = [](ExprPtr e, double w) { return mul(cast(Type::f64(), std::move(e)), cd(w)); };
    ProgramBuilder pb;
    auto& cls = pb.cls("A");
    cls.field("a", Type::array(Type::f32())).field("b", Type::array(Type::f32()));
    cls.method("run", Type::f64())
        .param("x", Type::array(Type::f32()))
        .param("p", Type::f64())
        .body(blk(
            // a[i + s1] = b[i + s2] * w1 + x[i]
            forRange("i", ci(0), sub(alen(lv("x")), ci(1)),
                     blk(aset(selff("a"), s1 ? add(lv("i"), ci(s1)) : lv("i"),
                              add(mul(at("b", s2), cf(w1)), at("x", 0))))),
            // x[i + s3] = a[i + s4] * w2 + x[i + s3]
            forRange("i", ci(0), sub(alen(lv("x")), ci(1)),
                     blk(aset(lv("x"), s3 ? add(lv("i"), ci(s3)) : lv("i"),
                              add(mul(at("a", s4), cf(w2)), at("x", s3))))),
            decl("s", Type::f64(), lv("p")),
            forRange("i", ci(0), alen(lv("x")),
                     blk(assign("s", add(lv("s"), add(term(at("a", 0), 1.0),
                                                      add(term(at("b", 0), 0.5),
                                                          term(at("x", 0), 0.25))))))),
            ret(lv("s"))));
    return {pb.build(), shared, argAlias, n};
}

/// A fresh receiver and argument for `c`, with the same contents each time
/// (the interpreter writes into the arrays it runs on).
std::pair<Value, Value> aliasGraph(const AliasCase& c) {
    auto floats = [&](int salt) {
        auto arr = std::make_shared<Arr>();
        arr->elem = Type::f32();
        for (int32_t i = 0; i < c.n; ++i) {
            arr->data.push_back(Value::ofF32(0.25f * static_cast<float>((i * 7 + salt) % 11)));
        }
        return Value::ofArr(arr);
    };
    auto o = std::make_shared<Obj>();
    o->cls = &c.prog.require("A");
    o->fields["a"] = floats(1);
    o->fields["b"] = c.shared ? o->fields["a"] : floats(2);
    const Value x = c.argAlias == 0 ? floats(3) : o->fields[c.argAlias == 1 ? "a" : "b"];
    return {Value::ofObj(o), x};
}

} // namespace

class AliasDifferential : public ::testing::TestWithParam<int> {};

TEST_P(AliasDifferential, SharedOrDisjointArraysBitwiseAgree) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 0x9e3779b9u + 11;
    ScopedEnv pinB("WJ_BOUNDS", nullptr);
    ScopedEnv pinP("WJ_PARALLEL", nullptr);
    ScopedEnv pinT("WJ_THREADS", nullptr);
    ScopedEnv pinS("WJ_SIMD", nullptr);
    ScopedEnv pinL("WJ_SOA", nullptr);

    const AliasCase c = aliasFamilyProgram(seed);
    const auto [obj, x] = aliasGraph(c);
    const std::vector<Value> jitArgs{x, Value::ofF64(0.0)};
    auto jitWith = [&](std::initializer_list<std::pair<const char*, const char*>> env) {
        std::vector<std::unique_ptr<ScopedEnv>> scopes;
        for (const auto& [k, v] : env) scopes.push_back(std::make_unique<ScopedEnv>(k, v));
        return WootinJ::jit(c.prog, obj, "run", jitArgs);
    };
    JitCode plain = jitWith({});
    JitCode bounds = jitWith({{"WJ_BOUNDS", "all"}});
    JitCode par = jitWith({{"WJ_PARALLEL", "1"}});
    JitCode simd = jitWith({{"WJ_SIMD", "1"}});
    JitCode parSimd = jitWith({{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}});
    JitCode soa = jitWith({{"WJ_SOA", "1"}});
    JitCode parSimdSoa = jitWith({{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}, {"WJ_SOA", "1"}});

    for (double p : {0.0, 1.5, -3.25}) {
        const auto [refObj, refX] = aliasGraph(c);
        Interp in(c.prog);
        const uint64_t ref = bitsOf(in.call(refObj, "run", {refX, Value::ofF64(p)}).asF64());
        const std::vector<Value> args{x, Value::ofF64(p)};
        struct Row {
            const char* config;
            JitCode* code;
            const char* threads;
        };
        const Row rows[] = {{"jit", &plain, nullptr},
                            {"jit+bounds=all", &bounds, nullptr},
                            {"jit+parallel@1", &par, "1"},
                            {"jit+parallel@4", &par, "4"},
                            {"jit+simd", &simd, nullptr},
                            {"jit+parallel+simd@4", &parSimd, "4"},
                            {"jit+soa", &soa, nullptr},
                            {"jit+parallel+simd+soa@4", &parSimdSoa, "4"}};
        for (const Row& r : rows) {
            ScopedEnv t("WJ_THREADS", r.threads);
            EXPECT_EQ(ref, bitsOf(r.code->invokeWith(args).asF64()))
                << "config=" << r.config << " diverged from the interpreter: seed=" << seed
                << " shared=" << c.shared << " argAlias=" << c.argAlias << " n=" << c.n
                << " p=" << p << " (replay: AliasDifferential sweep index " << GetParam()
                << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AliasSweep, AliasDifferential, ::testing::Range(0, 24));
