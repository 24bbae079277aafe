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

#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/codegen.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"
#include "golden.h"
#include "scoped_env.h"

using namespace wj;
using namespace wj::dsl;

namespace {

// WJ_GOLDEN_DIR is a compile definition pointing at tests/golden in the
// SOURCE tree, so update mode rewrites the checked-in files directly.
void checkGolden(const std::string& name, const std::string& actual) {
    test::checkGolden(WJ_GOLDEN_DIR, name, actual);
}

using test::ScopedEnv;

Translation translateDiffusion() {
    static Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Value runner = stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7);
    return translate(prog, runner, "run", {Value::ofI32(1)});
}

/// The ghost-padded MPI runner (the perfbench `diffusion` composition):
/// its x sweep reads the periodic-wrap neighbours `(x - 1 + nx) % nx` and
/// `(x + 1) % nx`.
Translation translateDiffusionMpi() {
    static Program prog = stencil::buildProgram();
    Interp in(prog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Value runner = stencil::makeMpiRunner(in, 8, 8, 4, coeffs, 7);
    return translate(prog, runner, "run", {Value::ofI32(1)});
}

Translation translateMatmul() {
    static Program prog = matmul::buildProgram();
    Interp in(prog);
    Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
    return translate(prog, app, "run", {Value::ofI32(8), Value::ofI32(7)});
}

/// The cell-chain workload over Cell[] buffers (see stencil_lib): the
/// canonical subject of the proveLayout AoS→SoA split.
Translation translateCells() {
    static Program prog = stencil::buildProgram();
    Interp in(prog);
    Value runner = stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11);
    return translate(prog, runner, "run", {Value::ofI32(2)});
}

/// Matrix-free CG (the perfbench `cg` composition): under WJ_PARALLEL the
/// fusion pass inlines the devirtualized apply/dot calls and fuses three
/// producer/consumer pairs, so each iteration dispatches three loops.
Translation translateCg() {
    static Program prog = cg::buildProgram();
    Interp in(prog);
    Value solver = cg::makeCpuSolver(in);
    return translate(prog, solver, "run", {Value::ofI32(64), Value::ofI32(9), Value::ofI32(8)});
}

/// Array fill + dot product — the CG reduction kernel in miniature. Under
/// WJ_PARALLEL the fill fuses into the dot's loop, which outlines through
/// wjrt_parallel_reduce (chunk fn + identity seeding + ordered combine);
/// that is what the parallel snapshot pins.
Translation translateDot() {
    static Program prog = [] {
        ProgramBuilder pb;
        pb.cls("Dot")
            .method("run", Type::f64())
            .param("n", Type::i32())
            .body(blk(
                decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
                forRange("i", ci(0), lv("n"),
                         blk(aset(lv("a"), lv("i"),
                                  cast(Type::f32(),
                                       mul(cast(Type::f64(), lv("i")), cd(0.125)))))),
                decl("s", Type::f64(), cd(0.0)),
                forRange("i", ci(0), lv("n"),
                         blk(assign("s",
                                    add(lv("s"),
                                        mul(cast(Type::f64(), aget(lv("a"), lv("i"))),
                                            cast(Type::f64(), aget(lv("a"), lv("i")))))))),
                ret(lv("s"))));
        return pb.build();
    }();
    Interp in(prog);
    Value obj = in.instantiate("Dot", {});
    return translate(prog, obj, "run", {Value::ofI32(100)});
}

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
