// Golden-snapshot tests for the translator's C output on the two paper
// kernels (Section 4.1 diffusion, Section 4.2 matmul). The generated C IS
// the product the paper evaluates — a silent change to devirtualization,
// object inlining, guard emission, or runtime-call lowering shifts every
// measurement, so these tests pin the exact bytes.
//
// The snapshots live in tests/golden/*.golden (checked in). On mismatch the
// test prints the first diverging line with context. To refresh after an
// INTENTIONAL codegen change, run tests/update_goldens.sh (or set
// WJ_UPDATE_GOLDEN=1 around this binary) and review the diff like any other
// source change.
//
// translate() is called directly — no external compiler, no dlopen — so
// these tests are fast and hermetic. WJ_BOUNDS / WJ_PARALLEL are pinned per
// test because they legitimately change the output (that is the point of
// the guarded/parallel variants below).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "golden.h"
#include "golden_compositions.h"
#include "scoped_env.h"

using namespace wj;

namespace {

// WJ_GOLDEN_DIR is a compile definition pointing at tests/golden in the
// SOURCE tree, so update mode rewrites the checked-in files directly.
void checkGolden(const std::string& name, const std::string& actual) {
    test::checkGolden(WJ_GOLDEN_DIR, name, actual);
}

using test::ScopedEnv;

// The compositions live in golden_compositions.h, shared with the
// translation-memo test.
Translation translateDiffusion() { return test::diffusionCpu().translate(); }
Translation translateDiffusionMpi() { return test::diffusionMpi().translate(); }
Translation translateMatmul() { return test::matmulCpu().translate(); }
Translation translateCells() { return test::cells().translate(); }
Translation translateCg() { return test::cgSolver().translate(); }
Translation translateDot() { return test::dot().translate(); }

} // namespace

class CodegenGolden : public ::testing::Test {
protected:
    // Pin the knobs that legitimately change the output; each variant test
    // re-sets exactly the one it exercises.
    ScopedEnv bounds_{"WJ_BOUNDS"};
    ScopedEnv parallel_{"WJ_PARALLEL"};
    ScopedEnv simd_{"WJ_SIMD"};
    ScopedEnv soa_{"WJ_SOA"};
};

TEST_F(CodegenGolden, Diffusion3DCpu) {
    checkGolden("diffusion3d_cpu.c.golden", translateDiffusion().cSource);
}

TEST_F(CodegenGolden, MatmulCpu) {
    checkGolden("matmul_cpu.c.golden", translateMatmul().cSource);
}

// The WJ_BOUNDS=all variant pins guard emission (wj_chk on every access).
TEST_F(CodegenGolden, Diffusion3DCpuBoundsAll) {
    setenv("WJ_BOUNDS", "all", 1);
    checkGolden("diffusion3d_cpu_bounds.c.golden", translateDiffusion().cSource);
}

// The WJ_PARALLEL=1 variant pins parallel-for outlining and the guarded
// dispatch (wjrt_parallel_for + wjrt_guard_fallback serial else-branch).
TEST_F(CodegenGolden, MatmulCpuParallel) {
    setenv("WJ_PARALLEL", "1", 1);
    checkGolden("matmul_cpu_parallel.c.golden", translateMatmul().cSource);
}

// The WJ_PARALLEL=1 dot-product variant pins the ParallelReduce outlining:
// per-chunk partial record, exact-identity seeding, fixed chunk grid, the
// ordered combine loop, and the fill loop fused into the reduce body.
TEST_F(CodegenGolden, DotProductParallelReduce) {
    setenv("WJ_PARALLEL", "1", 1);
    checkGolden("cg_dot_parallel.c.golden", translateDot().cSource);
}

// Matrix-free CG under WJ_PARALLEL=1 pins the fusion across devirtualized
// calls: three fused reduce dispatches (fill + dot, apply + dot, update +
// dot) and the p update's parallel-for, captures trimmed to what each body
// reads.
TEST_F(CodegenGolden, CgSolverParallelFused) {
    setenv("WJ_PARALLEL", "1", 1);
    checkGolden("cg_solver_parallel.c.golden", translateCg().cSource);
}

// CG under WJ_PARALLEL=1 WJ_SIMD=1 pins the chunk loops that also carry a
// vector verdict: each parallel-for chunk function runs its range under
// `#pragma omp simd` with restrict-hoisted element pointers. The reduce
// chunk stays a scalar loop: its f64 sum is inexact under reassociation.
TEST_F(CodegenGolden, CgSolverParallelSimd) {
    setenv("WJ_PARALLEL", "1", 1);
    setenv("WJ_SIMD", "1", 1);
    checkGolden("cg_solver_parallel_simd.c.golden", translateCg().cSource);
}

// The WJ_SIMD=1 variants pin the vectorized emission: `#pragma omp simd`
// on every proveVectors-cleared loop, restrict-qualified element-pointer
// hoists, wjrt_ranges_disjoint guards with the scalar else-branch, and —
// for the dot product — the ABSENCE of a reduction clause on the inexact
// f64 accumulator.
TEST_F(CodegenGolden, Diffusion3DCpuSimd) {
    setenv("WJ_SIMD", "1", 1);
    checkGolden("diffusion3d_cpu_simd.c.golden", translateDiffusion().cSource);
}

// The MPI sweep under WJ_SIMD=1: the peeled loop as a sequence of `#pragma
// omp simd` ranges over one body — the middle range [lo, hi) set only
// under the cur/nxt overlap guard, the head and tail iterations as ranges
// of their own — with each wrap lowered to `x + c` plus its per-range
// correction, and no restrict hoists (the same loop is the fallback).
TEST_F(CodegenGolden, Diffusion3DMpiSimd) {
    setenv("WJ_SIMD", "1", 1);
    checkGolden("diffusion3d_mpi_simd.c.golden", translateDiffusionMpi().cSource);
}

TEST_F(CodegenGolden, MatmulCpuSimd) {
    setenv("WJ_SIMD", "1", 1);
    checkGolden("matmul_cpu_simd.c.golden", translateMatmul().cSource);
}

TEST_F(CodegenGolden, DotProductSimd) {
    setenv("WJ_SIMD", "1", 1);
    checkGolden("cg_dot_simd.c.golden", translateDot().cSource);
}

// The WJ_SOA=1 variants pin the AoS→SoA storage split on the cell chain:
// wjrt_alloc_soa allocation, per-field region arithmetic, the per-field
// scatter on element stores, and the SIMD composition (restrict-hoisted
// per-field lane pointers under `#pragma omp simd`).
TEST_F(CodegenGolden, CellsStencilSoa) {
    setenv("WJ_SOA", "1", 1);
    setenv("WJ_SIMD", "1", 1);
    checkGolden("cells_stencil_soa.c.golden", translateCells().cSource);
}

// A prim-only unit under WJ_SOA=1 must be byte-identical to the WJ_SOA=0
// translation: the layout pass only rewrites class-element arrays.
TEST_F(CodegenGolden, DotProductSoaIsANoOpOnPrimArrays) {
    setenv("WJ_SOA", "1", 1);
    setenv("WJ_SIMD", "1", 1);
    checkGolden("cg_dot_simd.c.golden", translateDot().cSource);
}

// Determinism prerequisite: two translations of the same unit in one
// process must be byte-identical, otherwise golden comparison is noise.
TEST_F(CodegenGolden, TranslationIsDeterministic) {
    EXPECT_EQ(translateDiffusion().cSource, translateDiffusion().cSource);
    EXPECT_EQ(translateMatmul().cSource, translateMatmul().cSource);
    setenv("WJ_SIMD", "1", 1);
    EXPECT_EQ(translateDiffusion().cSource, translateDiffusion().cSource);
    EXPECT_EQ(translateMatmul().cSource, translateMatmul().cSource);
    EXPECT_EQ(translateDot().cSource, translateDot().cSource);
    setenv("WJ_SOA", "1", 1);
    EXPECT_EQ(translateCells().cSource, translateCells().cSource);
}
