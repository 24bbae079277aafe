// The conjugate-gradient library (the paper's future-work direction):
// matrix-free vs CSR operators, local vs MPI dot products, interpreter vs
// JIT vs C++ reference, across rank counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "jit/jit.h"
#include "rules/rules.h"

using namespace wj;
using namespace wj::cg;

namespace {
constexpr int kN = 64;
constexpr int kSeed = 9;
constexpr int kIters = 8;
} // namespace

TEST(CgLib, SatisfiesCodingRules) {
    Program p = buildProgram();
    auto vs = verifyCodingRules(p);
    for (const auto& v : vs) ADD_FAILURE() << v.str();
}

TEST(CgLib, ResidualConverges) {
    // Physics sanity. CG's residual 2-norm is NOT monotone (only the A-norm
    // of the error is), so test convergence at scale: after ~n iterations
    // the system is solved to float precision.
    const double r0 = referenceCgResidual(kN, kSeed, 0);
    const double r80 = referenceCgResidual(kN, kSeed, 80);
    EXPECT_GT(r0, 1.0);
    EXPECT_LT(r80, 1e-10);
}

TEST(CgLib, InterpreterMatchesReference) {
    Program p = buildProgram();
    Interp in(p);
    Value solver = makeCpuSolver(in);
    Value r = in.call(solver, "run",
                      {Value::ofI32(kN), Value::ofI32(kSeed), Value::ofI32(kIters)});
    EXPECT_DOUBLE_EQ(referenceCgResidual(kN, kSeed, kIters), r.asF64());
}

TEST(CgLib, JitMatrixFreeMatchesReference) {
    Program p = buildProgram();
    Interp in(p);
    Value solver = makeCpuSolver(in);
    JitCode code = WootinJ::jit(p, solver, "run",
                                {Value::ofI32(kN), Value::ofI32(kSeed), Value::ofI32(kIters)});
    EXPECT_DOUBLE_EQ(referenceCgResidual(kN, kSeed, kIters), code.invoke().asF64());
}

TEST(CgLib, CsrOperatorMatchesMatrixFreeBitwise) {
    // Same operator, two implementations: identical arithmetic order per
    // row, so results are bit-identical. This also pushes int32 arrays
    // (cols, rowPtr) through jit marshalling.
    Program p = buildProgram();
    Interp in(p);
    Value csr = makeCpuCsrSolver(in, kN);
    JitCode code = WootinJ::jit(p, csr, "run",
                                {Value::ofI32(kN), Value::ofI32(kSeed), Value::ofI32(kIters)});
    EXPECT_DOUBLE_EQ(referenceCgResidual(kN, kSeed, kIters), code.invoke().asF64());
}

TEST(CgLib, MpiSolverMatchesAcrossRankCounts) {
    Program p = buildProgram();
    Interp in(p);
    const double expect = referenceCgResidual(kN, kSeed, kIters);
    for (int ranks : {1, 2, 4}) {
        const int nLocal = kN / ranks;
        Value solver = makeMpiSolver(in, nLocal);
        JitCode code = WootinJ::jit4mpi(
            p, solver, "run",
            {Value::ofI32(nLocal), Value::ofI32(kSeed), Value::ofI32(kIters)});
        code.set4MPI(ranks);
        const double got = code.invoke().asF64();
        // Dot products group differently across ranks: tolerance, not bits.
        EXPECT_NEAR(expect, got, std::abs(expect) * 1e-6 + 1e-12) << "ranks=" << ranks;
    }
}

TEST(CgLib, ComponentsAreDevirtualized) {
    Program p = buildProgram();
    Interp in(p);
    Value solver = makeCpuSolver(in);
    JitCode code = WootinJ::jit(p, solver, "run",
                                {Value::ofI32(8), Value::ofI32(1), Value::ofI32(1)});
    EXPECT_NE(code.generatedC().find("Laplacian1D_apply"), std::string::npos);
    EXPECT_NE(code.generatedC().find("LocalDot_dot"), std::string::npos);
    EXPECT_EQ(code.generatedC().find("(*"), std::string::npos);  // no fn pointers
}

TEST(CgLib, ParallelFusedSolverIsThreadCountInvariant) {
    // WJ_PARALLEL=1: the apply/update loops fuse with their dot products
    // into three reduce dispatches per iteration. This suite carries the
    // tsan and san labels, so the fused chunk bodies run under both.
    struct Env {
        const char* name;
        std::string old;
        bool had;
        Env(const char* n, const char* v) : name(n), had(std::getenv(n) != nullptr) {
            if (had) old = std::getenv(n);
            setenv(n, v, 1);
        }
        ~Env() {
            if (had) setenv(name, old.c_str(), 1);
            else unsetenv(name);
        }
    };
    constexpr int n = 1000, iters = 10;
    Program p = buildProgram();
    Interp in(p);
    Value solver = makeCpuSolver(in);
    const std::vector<Value> args{Value::ofI32(n), Value::ofI32(kSeed), Value::ofI32(iters)};
    Env par("WJ_PARALLEL", "1");
    JitCode code = WootinJ::jit(p, solver, "run", args);
    EXPECT_EQ(3, code.fusedLoops());
    const double expect = referenceCgResidual(n, kSeed, iters);
    double first = 0;
    for (const char* t : {"1", "2", "4"}) {
        Env threads("WJ_THREADS", t);
        const double got = code.invoke().asF64();
        if (std::strcmp(t, "1") == 0) first = got;
        EXPECT_EQ(0, std::memcmp(&first, &got, sizeof got)) << "WJ_THREADS=" << t;
        EXPECT_NEAR(expect, got, std::abs(expect) * 1e-9) << "WJ_THREADS=" << t;
    }
}

class CgIterSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CgIterSweep, JitTracksReference) {
    auto [n, iters] = GetParam();
    Program p = buildProgram();
    Interp in(p);
    Value solver = makeCpuSolver(in);
    JitCode code = WootinJ::jit(
        p, solver, "run", {Value::ofI32(n), Value::ofI32(kSeed), Value::ofI32(iters)});
    EXPECT_DOUBLE_EQ(referenceCgResidual(n, kSeed, iters),
                     code.invokeWith({Value::ofI32(n), Value::ofI32(kSeed),
                                      Value::ofI32(iters)})
                         .asF64());
}

INSTANTIATE_TEST_SUITE_P(Sweep, CgIterSweep,
                         ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 3),
                                           std::make_tuple(16, 0), std::make_tuple(33, 5),
                                           std::make_tuple(128, 12)));
