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

#include "interp/snapshot.h"
#include "ir/program.h"

namespace wj {

/// A completed translation.
struct Translation {
    std::string cSource;
    std::string entrySymbol;
    /// Return type of the entry (void or primitive). Its prims[] and
    /// arrs[] tables follow the translated GraphSnapshot: the primitive
    /// arguments, and each distinct array a field path reaches.
    Type entryRet = Type::voidTy();

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
    /// fnv1a64 of cSource: the first stage of its compile-cache key, so a
    /// caller that compiles this translation again folds in only the
    /// compiler, flags and runtime headers (compileAndLoad's sourceHash).
    uint64_t sourceHash = 0;
};

/// The translation switches. Each is baked into the generated C, so the
/// translation (and its memo key, jit/memo.h) depends on them; WJ_THREADS
/// is not one of them, because the worker count is a run-time decision.
/// Read from the environment once, at an API boundary (jit(), jitAsync(),
/// a wjd request, wjc), and passed down from there.
struct TranslateOptions {
    /// WJ_BOUNDS: which array accesses get a wj_chk guard.
    enum class Bounds : uint8_t {
        Off,       ///< unset or "0": none
        Unproven,  ///< any other value: those the interval analysis did not prove safe
        All,       ///< "all" or "2": every access
    };
    Bounds bounds = Bounds::Off;
    /// WJ_PARALLEL=1: fuse same-range producer/consumer loops, then outline
    /// proven loops into wjrt_parallel_for / wjrt_parallel_reduce.
    bool parallel = false;
    /// WJ_SIMD=1: emit proveVectors verdicts as `#pragma omp simd` loops
    /// with restrict-hoisted element pointers (and runtime range guards).
    bool simd = false;
    /// WJ_SOA=1: store arrays of Inline-verdict element classes as packed
    /// per-field lane regions; the SIMD verdicts depend on the layout.
    bool soa = false;

    /// The switches as WJ_BOUNDS / WJ_PARALLEL / WJ_SIMD / WJ_SOA set them
    /// (a flag is on when set, non-empty and not "0").
    static TranslateOptions fromEnv();
};

/// Translates `method`, called on the snapshot's receiver with its
/// arguments, plus everything reachable from it, under `opts`. The program
/// must already satisfy the coding rules (the public jit() entry verifies
/// them first). Runs the mandatory dataflow analyses first and throws
/// AnalysisError on a proven defect; the bounds mode only decides what the
/// interval verdicts are used for.
Translation translate(const GraphSnapshot& snap, const std::string& method,
                      const TranslateOptions& opts);

/// translate() of a snapshot of `receiver` and `args`, under
/// TranslateOptions::fromEnv().
Translation translate(const Program& prog, const Value& receiver, const std::string& method,
                      const std::vector<Value>& args);

} // namespace wj
