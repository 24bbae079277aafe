// The public WootinC JIT API, mirroring the paper's client view (Listing 3):
//
//   JitCode code = WootinJ::jit4mpi(prog, stencil, "run", {length, updateCnt});
//   code.set4MPI(128, "./nodeList");
//   Value result = code.invoke();
//
// jit()/jit4mpi() verify the coding rules, translate the entry method and
// everything reachable from it into C (devirtualized, object-inlined),
// compile with the external C compiler, and dlopen the result. The
// translation is specialized to the receiver graph and the arguments, so a
// repeated jit() of an unchanged composition on one Program is served by
// the Program's translation memo (jit/memo.h) and the compile cache.
// invoke() deep-copies each distinct array of the receiver graph and the
// recorded arguments into the translated code's own memory space (per
// rank, for MPI) and calls the generated entry. invokeWith() does the same
// with other arguments, and runs the translation specialized to them when
// their exact part differs from the recorded one. Modified arrays are NOT
// copied back (paper, Section 3.1) unless the copy-back extension is
// requested.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interp/value.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "ir/program.h"
#include "minimpi/minimpi.h"
#include "runtime/wjrt.h"
#include "trace/metrics.h"

namespace wj {

/// Which engine invoke() drives — the degradation ladder's rungs. Tests and
/// benches assert on this instead of guessing from timings.
enum class ExecMode {
    Native,       ///< freshly compiled by the external C compiler
    NativeCached, ///< served by the compile cache (memory or disk layer)
    Interpreter,  ///< fallback: the C compiler was unavailable
};

class JitCode {
public:
    JitCode(JitCode&&) = default;
    JitCode& operator=(JitCode&&) = default;

    /// Configures MPI execution with `ranks` ranks. `nodeList` is accepted
    /// for interface fidelity with the paper but ignored: MiniMPI ranks are
    /// in-process threads, not hosts.
    void set4MPI(int ranks, const std::string& nodeList = "");

    /// Runs the translated code with the arguments recorded at jit() time.
    /// Under MPI, every rank runs the entry with its own deep copy of the
    /// argument arrays (separate memory spaces); rank 0's return value is
    /// returned.
    Value invoke();

    /// Runs with overriding arguments (same types as recorded). The
    /// translation was specialized to the exact part of the recorded
    /// arguments (bool/int/long values, array lengths, and which arrays are
    /// shared with the receiver or each other; the bounds, parallel and
    /// SIMD proofs read them), so when it differs, the call runs the
    /// translation made for it: through the Program's translation memo
    /// (jit/memo.h), and the compile cache, which serves byte-identical C
    /// without a compile. Each distinct exact part is resolved once per
    /// JitCode. Float and double arguments and array contents run the
    /// recorded translation. A receiver whose arrays changed length or
    /// sharing since jit() is a UsageError that names the fields.
    /// Overriding invokes fill the per-JitCode table, so do not run them on
    /// one JitCode from two threads at once.
    Value invokeWith(const std::vector<Value>& args);

    /// EXTENSION beyond the paper: copy the receiver-graph and argument
    /// arrays back into the interpreter heap after a single-rank invoke.
    /// Lets differential tests compare whole arrays, not just return values.
    /// Throws if MPI ranks > 1 (ranks hold divergent copies).
    void enableCopyBack(bool on) { copyBack_ = on; }

    // ---- Table 3 accounting, for THIS construction. codegenSeconds() is
    // the translator's time, or the memo lookup's when the Program's
    // translation memo served it (translationMemoHit()). compileSeconds()
    // is the external-compiler time: 0 when the compile cache served the
    // module (the shared NativeModule may have cost its first builder more).
    double codegenSeconds() const noexcept { return codegenSeconds_; }
    bool translationMemoHit() const noexcept { return memoHit_; }
    // ---- bounds-guard accounting (WJ_BOUNDS; see src/analysis/)
    int64_t boundsGuards() const noexcept { return translation_->boundsGuards; }
    int64_t boundsElided() const noexcept { return translation_->boundsElided; }
    double compileSeconds() const noexcept { return compile_.compileSeconds; }
    double totalCompilationSeconds() const noexcept {
        return codegenSeconds() + compileSeconds();
    }

    // ---- compile-cache observability (see jit/cache.h). Warm construction
    // of an already-compiled translation unit skips the external compiler:
    // cacheHit() is true and compileSeconds() is 0.
    bool cacheHit() const noexcept { return compile_.cacheHit; }
    double cacheLookupSeconds() const noexcept { return compile_.lookupSeconds; }

    // ---- robustness observability (see src/fault/). execMode() reports
    // which rung of the degradation ladder this code runs on; Interpreter
    // means the external C compiler was unavailable and WJ_JIT_FALLBACK
    // (default on) allowed graceful degradation. compileAttempts() exceeds
    // 1 when transient compiler failures were retried (0 on a cache hit).
    ExecMode execMode() const noexcept { return mode_; }
    int compileAttempts() const noexcept { return compile_.attempts; }

    // ---- optimization evidence (tests assert on these)
    int64_t specializations() const noexcept { return translation_->specializations; }
    int64_t devirtualizedCalls() const noexcept { return translation_->devirtualizedCalls; }
    int64_t inlinedObjects() const noexcept { return translation_->inlinedObjects; }
    int64_t kernels() const noexcept { return translation_->kernels; }
    /// Loops the analysis proved dependence-free and the translator
    /// dispatched through wjrt_parallel_for (WJ_PARALLEL, WJ_THREADS).
    int64_t parallelLoops() const noexcept { return translation_->parallelLoops; }
    /// Reduction loops (`acc = acc op f(i)`) outlined through
    /// wjrt_parallel_reduce with the ordered deterministic combine.
    int64_t reduceLoops() const noexcept { return translation_->reduceLoops; }
    /// Loops the proveVectors pass cleared for SIMD and the translator
    /// emitted under `#pragma omp simd` (WJ_SIMD) — including vectorized
    /// chunk loops inside parallel-for/reduce outlines.
    int64_t vectorLoops() const noexcept { return translation_->vectorLoops; }
    /// Producer/consumer loop pairs fused into one loop (WJ_PARALLEL): each
    /// saves a pool dispatch. fusionReport() names every pair considered.
    int64_t fusedLoops() const noexcept { return translation_->fusedLoops; }
    const std::vector<std::string>& fusionReport() const noexcept {
        return translation_->fusionReport;
    }
    /// Allocation sites the translator emitted as SoA (wjrt_alloc_soa)
    /// because the proveLayout pass proved the element class Inline and
    /// WJ_SOA=1 was set at translation time.
    int64_t soaArrays() const noexcept { return translation_->soaArrays; }
    /// Element classes actually stored SoA in this translation (sorted;
    /// empty unless WJ_SOA=1 and at least one Inline class is allocated).
    const std::vector<std::string>& layoutClasses() const noexcept {
        return translation_->soaClasses;
    }

    /// MiniMPI traffic of the most recent multi-rank invoke(): messages and
    /// payload bytes posted (all zeros before the first MPI run).
    minimpi::CommStats commStats() const noexcept { return commStats_; }

    /// Snapshot of the process-wide metrics registry (src/trace/metrics.h):
    /// cache hits, bytes by collective channel, pool dispatches, guard
    /// fallbacks, checkpoint bytes, ... — the same values the WJ_TRACE
    /// sidecar exports, queryable without touching the filesystem. The
    /// registry is process-wide (cumulative across JitCode instances); diff
    /// two snapshots to attribute work to one invoke.
    static std::vector<trace::MetricValue> metrics() {
        return trace::Metrics::instance().snapshot();
    }

    /// The generated C translation unit (Listing 5's analogue).
    const std::string& generatedC() const noexcept { return translation_->cSource; }
    const std::string& compileCommand() const noexcept {
        static const std::string kNone = "(none: interpreter fallback)";
        return compile_.module ? compile_.module->compileCommand() : kNone;
    }

private:
    friend class WootinJ;
    using EntryFn = int64_t (*)(const int64_t*, ::wj_array**);
    /// A translation of this composition for other exact argument values
    /// than the recorded ones (see invokeWith), with the snapshot it was
    /// made from and its loaded entry.
    struct Variant {
        std::shared_ptr<const GraphSnapshot> snap;
        std::shared_ptr<const Translation> tr;
        std::shared_ptr<NativeModule> module;
        EntryFn entry = nullptr;
    };

    /// Records the call and translates it under `opts`, through the
    /// Program's translation memo. Loading is left to load() or
    /// fallBackToInterpreter().
    JitCode(const Program& prog, Value receiver, std::string method, std::vector<Value> args,
            bool mpi, TranslateOptions opts);
    void load(CompileResult compiled);
    /// Degrades to the interpreter (compiler unavailable); rethrows the
    /// current exception when WJ_JIT_FALLBACK forbids it.
    void fallBackToInterpreter();

    /// The recorded translation, or the Variant for `args`' exact part
    /// (GraphSnapshot::exactArgs) when it differs from the recorded one.
    Variant resolve(const std::vector<Value>& args);
    /// Runs `v`'s entry on this rank, marshalling each of its snapshot's
    /// live arrays once.
    Value invokeRank(const std::vector<Value>& args, const Variant& v,
                     const std::vector<ArrRef>& interpArrays);
    Value invokeInterpreter(const std::vector<Value>& args);

    const Program* prog_;
    Value receiver_;
    std::string method_;
    std::vector<Value> recordedArgs_;
    bool mpi_ = false;
    int ranks_ = 1;
    bool copyBack_ = false;

    TranslateOptions opts_;
    std::shared_ptr<const GraphSnapshot> snapshot_;  ///< of the recorded call
    std::shared_ptr<const Translation> translation_;
    double codegenSeconds_ = 0;
    bool memoHit_ = false;
    minimpi::CommStats commStats_;
    CompileResult compile_;  // module is shared via the module registry
    ExecMode mode_ = ExecMode::Native;
    EntryFn entry_ = nullptr;
    /// Override tuple (GraphSnapshot::exactArgs) -> Variant.
    std::map<std::vector<int64_t>, Variant> variants_;
};

/// Facade named after the paper's framework.
class WootinJ {
public:
    /// Translates `receiver.method(args...)` for single-process execution
    /// (GPU via GpuSim allowed; MPI calls trap at run time).
    static JitCode jit(const Program& prog, const Value& receiver, const std::string& method,
                       std::vector<Value> args);

    /// Translates for MPI execution; call set4MPI() before invoke().
    static JitCode jit4mpi(const Program& prog, const Value& receiver, const std::string& method,
                           std::vector<Value> args);

    /// Asynchronous variants: translation + external compilation run on the
    /// shared compile thread pool, so independent translation units build
    /// in parallel (the all-variants benches overlap their compiles this
    /// way). `prog` must outlive the returned future's completion; the
    /// future rethrows any rule/translation/compile error on get().
    static std::future<JitCode> jitAsync(const Program& prog, Value receiver, std::string method,
                                         std::vector<Value> args);
    static std::future<JitCode> jit4mpiAsync(const Program& prog, Value receiver,
                                             std::string method, std::vector<Value> args);

private:
    static JitCode jitImpl(const Program& prog, Value receiver, std::string method,
                           std::vector<Value> args, bool mpi);
    static std::future<JitCode> jitAsyncImpl(const Program& prog, Value receiver,
                                             std::string method, std::vector<Value> args,
                                             bool mpi);
};

} // namespace wj
