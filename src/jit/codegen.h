// The WootinC translator: WJ IR -> C source, with aggressive
// devirtualization and object inlining (paper, Section 3.3).
//
// Given the composed application object (receiver), an entry method name,
// and the actual arguments — all recorded at jit() time — the translator:
//
//   * resolves the EXACT receiver class of every call site from shapes and
//     emits a direct C call (devirtualization); one WJ method may yield
//     several C functions specialized per argument shape;
//   * turns every object into a C struct of primitive members allocated on
//     the stack; field reads become member reads; constructors are inlined
//     at the `new` site (object inlining). Only arrays stay heap-allocated;
//   * translates @Global methods into GpuSim kernels: a kernel function
//     taking the thread context, a packed-argument struct (arguments are
//     deeply copied at launch, Section 3.1), and a launch thunk;
//   * translates MPI/CUDA intrinsics into direct wjrt_* calls;
//   * bakes the receiver graph's primitive state into the generated entry
//     function as constants ("the arguments ... are recorded and used for
//     optimization during the translation") while arrays are passed in at
//     invoke() through an array table.
//
// The generated translation unit is self-contained C99 except for the
// wjrt.h / rng_hash.h includes; compile.h hands it to the external compiler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/value.h"
#include "ir/program.h"

namespace wj {

/// How invoke() must marshal the recorded (or overriding) arguments.
struct EntryPlan {
    /// Primitive kinds of the explicit entry arguments, in order. Each
    /// occupies one int64 slot (floats bit-cast) in the prims[] table.
    std::vector<Prim> primSlots;
    /// Number of wj_array* slots: receiver-graph arrays first (in depth-
    /// first field order, nulls skipped), then explicit array arguments.
    int arraySlots = 0;
    /// Return type of the entry method (void or primitive).
    Type ret = Type::voidTy();
};

/// A completed translation.
struct Translation {
    std::string cSource;
    std::string entrySymbol;
    EntryPlan plan;

    // ---- optimization accounting (tests + EXPERIMENTS.md evidence)
    int64_t specializations = 0;   ///< C functions generated from WJ methods
    int64_t devirtualizedCalls = 0;///< dynamic dispatches turned into direct calls
    int64_t inlinedObjects = 0;    ///< `new` sites flattened onto the stack
    int64_t kernels = 0;           ///< @Global methods turned into kernels
    int64_t boundsGuards = 0;      ///< array accesses emitted with a wj_chk guard
    int64_t boundsElided = 0;      ///< guards skipped because the interval pass proved safety
    int64_t parallelLoops = 0;     ///< loops outlined through wjrt_parallel_for (WJ_PARALLEL)
    int64_t reduceLoops = 0;       ///< reduction loops outlined through wjrt_parallel_reduce
    int64_t vectorLoops = 0;       ///< loops emitted under `#pragma omp simd` (WJ_SIMD)
    int64_t fusedLoops = 0;        ///< producer/consumer loop pairs fused into one (WJ_PARALLEL)
    /// One "fused:" / "not fused:" line per producer/consumer pair the
    /// fusion pass considered (analysis/fusion.h).
    std::vector<std::string> fusionReport;
    int64_t soaArrays = 0;         ///< allocation sites emitted SoA via wjrt_alloc_soa (WJ_SOA)
    /// Element classes actually stored SoA in this translation (sorted).
    /// A class appears only when proveLayout proved it Inline AND the
    /// translated code allocates an array of it.
    std::vector<std::string> soaClasses;
    double codegenSeconds = 0;     ///< translator time (Table 3 component)
};

/// Translates `method`, called on `receiver` with `args`, plus everything
/// reachable from it. The program must already satisfy the coding rules
/// (the public jit() entry verifies them first). Runs the mandatory
/// dataflow analyses first and throws AnalysisError on a proven defect;
/// with WJ_BOUNDS=1 the interval verdicts elide guards on proven-safe
/// accesses, with WJ_BOUNDS=all every access is guarded.
Translation translate(const Program& prog, const Value& receiver, const std::string& method,
                      const std::vector<Value>& args);

} // namespace wj
