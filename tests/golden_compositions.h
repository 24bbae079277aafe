// The compositions the codegen goldens pin (tests/golden/*.c.golden), each
// on a Program of its own, and the translation switches each golden is
// taken under. Shared by test_codegen_golden (translate() against the
// snapshot) and test_jit_memo (a warm re-jit must hit the translation memo
// and still match the snapshot).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/codegen.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"

namespace wj::test {

/// A composed receiver and the arguments of its `run` entry.
struct Composition {
    std::unique_ptr<Program> prog;
    Value receiver;
    std::vector<Value> args;

    /// translate() of `receiver.run(args)` under the current environment.
    Translation translate() const { return wj::translate(*prog, receiver, "run", args); }
};

template <typename Compose>
Composition compose(Program (*build)(), Compose&& fn, std::vector<Value> args) {
    Composition c;
    c.prog = std::make_unique<Program>(build());
    Interp in(*c.prog);
    c.receiver = fn(in);
    c.args = std::move(args);
    return c;
}

inline Composition diffusionCpu() {
    return compose(stencil::buildProgram, [](Interp& in) {
        const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
        return stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 7);
    }, {Value::ofI32(1)});
}

/// The ghost-padded MPI runner (the perfbench `diffusion` composition):
/// its x sweep reads the periodic-wrap neighbours `(x - 1 + nx) % nx` and
/// `(x + 1) % nx`.
inline Composition diffusionMpi() {
    return compose(stencil::buildProgram, [](Interp& in) {
        const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
        return stencil::makeMpiRunner(in, 8, 8, 4, coeffs, 7);
    }, {Value::ofI32(1)});
}

inline Composition matmulCpu() {
    return compose(matmul::buildProgram, [](Interp& in) {
        return matmul::makeCpuApp(in, matmul::Calc::Optimized);
    }, {Value::ofI32(8), Value::ofI32(7)});
}

/// The cell-chain workload over Cell[] buffers (see stencil_lib): the
/// canonical subject of the proveLayout AoS→SoA split.
inline Composition cells() {
    return compose(stencil::buildProgram, [](Interp& in) {
        return stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11);
    }, {Value::ofI32(2)});
}

/// Matrix-free CG (the perfbench `cg` composition): under WJ_PARALLEL the
/// fusion pass inlines the devirtualized apply/dot calls and fuses three
/// producer/consumer pairs, so each iteration dispatches three loops.
inline Composition cgSolver() {
    return compose(cg::buildProgram, [](Interp& in) { return cg::makeCpuSolver(in); },
                   {Value::ofI32(64), Value::ofI32(9), Value::ofI32(8)});
}

/// Array fill + dot product — the CG reduction kernel in miniature. Under
/// WJ_PARALLEL the fill fuses into the dot's loop, which outlines through
/// wjrt_parallel_reduce (chunk fn + identity seeding + ordered combine).
inline Program dotProgram() {
    using namespace wj::dsl;
    ProgramBuilder pb;
    pb.cls("Dot")
        .method("run", Type::f64())
        .param("n", Type::i32())
        .body(blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
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
}

inline Composition dot() {
    return compose(dotProgram, [](Interp& in) { return in.instantiate("Dot", {}); },
                   {Value::ofI32(100)});
}

/// One snapshot: its file, its composition, and the switches (environment
/// variables; the rest unset) it is taken under.
struct GoldenCase {
    const char* file;
    Composition (*compose)();
    std::vector<std::pair<const char*, const char*>> env;
};

inline const std::vector<GoldenCase>& goldenCases() {
    static const std::vector<GoldenCase> cases = {
        {"diffusion3d_cpu.c.golden", diffusionCpu, {}},
        {"matmul_cpu.c.golden", matmulCpu, {}},
        {"diffusion3d_cpu_bounds.c.golden", diffusionCpu, {{"WJ_BOUNDS", "all"}}},
        {"matmul_cpu_parallel.c.golden", matmulCpu, {{"WJ_PARALLEL", "1"}}},
        {"cg_dot_parallel.c.golden", dot, {{"WJ_PARALLEL", "1"}}},
        {"cg_solver_parallel.c.golden", cgSolver, {{"WJ_PARALLEL", "1"}}},
        {"cg_solver_parallel_simd.c.golden", cgSolver, {{"WJ_PARALLEL", "1"}, {"WJ_SIMD", "1"}}},
        {"diffusion3d_cpu_simd.c.golden", diffusionCpu, {{"WJ_SIMD", "1"}}},
        {"diffusion3d_mpi_simd.c.golden", diffusionMpi, {{"WJ_SIMD", "1"}}},
        {"matmul_cpu_simd.c.golden", matmulCpu, {{"WJ_SIMD", "1"}}},
        {"cg_dot_simd.c.golden", dot, {{"WJ_SIMD", "1"}}},
        {"cells_stencil_soa.c.golden", cells, {{"WJ_SOA", "1"}, {"WJ_SIMD", "1"}}},
        {"cg_dot_simd.c.golden", dot, {{"WJ_SOA", "1"}, {"WJ_SIMD", "1"}}},
    };
    return cases;
}

} // namespace wj::test
