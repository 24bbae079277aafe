// The WJ static-analysis passes built on the dataflow engine (cfg.h /
// dataflow.h / interval.h):
//
//   * definite assignment — every read of a local is dominated by a store
//     (DeclStmt.init may be null since the IR grew uninitialized locals);
//     runs forward over the CFG. A backward liveness pass piggybacks to
//     warn about dead stores.
//   * interval/shape bounds analysis — abstract interpretation of method
//     bodies over integer intervals plus array length/alias facts,
//     interprocedural by context-sensitive inlining (memoized; rule 6
//     keeps the call graph acyclic). Classifies every ArrayGet/ArraySet
//     as proven-safe, proven-out-of-bounds (hard error), or unknown. The
//     translator consumes the per-node classification to elide bounds
//     guards (WJ_BOUNDS=1 guards only unproven accesses).
//   * communication race check — structural walk using the effect
//     summaries (effects.h) to flag writes that can overlap a posted
//     nonblocking receive of the same buffer region.
//
// Facts that depend on the Program alone (effect summaries, field groups,
// per-method CFGs and definite assignment) are built once per Program and
// shared by every run (facts.h).
//
// Two drivers: lintProgram() analyzes every method with unknown
// parameters ("wjc lint" — only *proven* defects are errors), and
// analyzeEntry() analyzes one jit() call with the concrete receiver
// graph, where field constants and exact array lengths make most
// accesses provable.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/layout.h"
#include "interp/snapshot.h"
#include "ir/program.h"
#include "support/diagnostics.h"

namespace wj::analysis {

enum class Safety {
    Safe,         ///< in bounds for every execution reaching the access
    Unknown,      ///< not provable either way — needs a runtime guard
    OutOfBounds,  ///< out of bounds whenever a reaching execution gets there
};

/// Loop-parallelization verdict for one counted For loop (see the
/// dependence prover in analysis.cpp). Parallel: iterations provably
/// independent for every aliasing. CondParallel: independent provided the
/// listed local array pairs refer to distinct wj_array objects — the
/// translator emits a pointer-inequality runtime guard and keeps a serial
/// fallback. ParallelReduce: independent except for `acc = acc op f(i)`
/// chains over recognized reduction operators; the translator outlines the
/// body with per-chunk partial accumulators and combines the partials in
/// fixed chunk-index order (deterministic at every WJ_THREADS). Serial: a
/// loop-carried dependence (or an effect that must stay on the rank's main
/// thread) was found or could not be excluded.
enum class ParVerdict { Parallel, CondParallel, ParallelReduce, Serial };

/// Recognized reduction operator over an accumulator local.
enum class RedOp {
    Add,  ///< acc = acc + f(i)   (either operand order)
    Mul,  ///< acc = acc * f(i)   (either operand order)
    Min,  ///< if (f(i) cmp acc) acc = f(i);  selecting the smaller value
    Max,  ///< same shape selecting the larger value
};

/// One accumulator of a ParallelReduce loop. The translator re-derives the
/// update expressions from the loop body; this record carries what it needs
/// to pick the identity element and to replay the source's exact combine
/// structure (operand order / comparison op), so single-update chunks stay
/// bitwise-faithful to the serial fold.
struct Reduction {
    std::string var;          ///< accumulator local, declared outside the loop
    Prim prim = Prim::F64;    ///< F32, F64, or I64
    RedOp op = RedOp::Add;
    bool accOnLeft = true;    ///< Add/Mul: acc is the left operand of the binop
                              ///< Min/Max: acc is the left operand of the compare
    BinOp cmp = BinOp::Lt;    ///< Min/Max only: the comparison as written
};

struct LoopParallel {
    ParVerdict verdict = ParVerdict::Serial;
    std::string reason;  ///< human-readable justification ("wjc lint" report)
    /// Local-variable name pairs that must be pointer-distinct for the
    /// parallel version to be valid (CondParallel only).
    std::vector<std::pair<std::string, std::string>> neqPairs;
    /// Accumulators, in first-update order (ParallelReduce only).
    std::vector<Reduction> reductions;
};

/// SIMD-legality verdict for one innermost counted loop (the `proveVectors`
/// pass). Vectorizable: every array reference is unit-stride (or loop-
/// invariant read), the body is lane-independent for every aliasing, and
/// the only cross-lane scalar dependences are recognized reduction
/// accumulators. CondVectorizable: lane-independent provided the listed
/// array pairs occupy disjoint memory ranges — the translator emits a
/// wjrt_ranges_disjoint runtime guard with the scalar loop as the else
/// branch. ScalarOnly: `reason` names the offending access or statement.
enum class VecVerdict { Vectorizable, CondVectorizable, ScalarOnly };

struct LoopVector {
    VecVerdict verdict = VecVerdict::ScalarOnly;
    std::string reason;  ///< justification ("wjc lint" vectorization table)
    /// Local array pairs whose data ranges must be disjoint for the SIMD
    /// version to be valid (CondVectorizable only). Wider than neqPairs:
    /// restrict-qualified pointer hoisting needs every written array to be
    /// disjoint from every other array it may alias, colliding or not.
    std::vector<std::pair<std::string, std::string>> overlapPairs;
    /// Reduction accumulators crossing lanes (same records as LoopParallel).
    std::vector<Reduction> reductions;
    /// True when every reduction op is exact under reassociation (min/max
    /// of any type; i64 +/* which wrap mod 2^64). The translator only emits
    /// `reduction(...)` clauses when exact — f32/f64 +/* stay on the
    /// bitwise chunk-serial path.
    bool exactReductions = true;
    /// Element classes this verdict depends on being laid out SoA (the
    /// proveLayout pass): the loop reads/writes `C[]` elements through
    /// field paths, which is unit-stride only after the AoS→SoA split.
    /// Non-empty only when the verdict was issued under WJ_SOA=1; without
    /// it the loop reports ScalarOnly with a "vectorizable under --soa"
    /// reason. Joined across contexts by set union.
    std::vector<std::string> soaClasses;
    /// Periodic-wrap index expressions `(x + c + n) % n` / `(x + c) % n`
    /// over this loop's variable x in [0, n), keyed by their BinaryExpr node,
    /// with their shift c. On the middle range [peelLo, n - peelHi) each
    /// equals `x + c`, which is what the proof assumed: the translator runs
    /// that range as one simd range with the wraps lowered to `x + c` and
    /// every head and tail iteration as a range of its own, in source order.
    /// Joined across contexts by equality (a mismatch poisons the loop).
    std::map<const void*, int> wraps;
    int peelLo = 0;
    int peelHi = 0;
    /// Largest loop bound for which no wrap numerator can overflow; the
    /// translator adds `bound <= wrapBoundMax` to the runtime guard. 0 when
    /// the interval facts already exclude overflow.
    int64_t wrapBoundMax = 0;
};

struct Result {
    std::vector<Violation> errors;    ///< uninit reads, proven OOB, halo races
    std::vector<Violation> warnings;  ///< dead stores, receives left in flight
    /// Per-access classification, keyed by the ArrayGetExpr / ArraySetStmt
    /// node address; accesses never reached by the analysis are absent
    /// (treated as Unknown by consumers). Joined across call contexts: an
    /// access is Safe only if it is safe in every analyzed context.
    std::map<const void*, Safety> accessSafety;
    int safeAccesses = 0;
    int unknownAccesses = 0;
    /// Parallelization verdicts keyed by the ForStmt node address, joined
    /// across call contexts (Serial in any context poisons the loop; the
    /// guard-pair sets union). Only outermost counted loops of candidate
    /// shape appear; absent loops are serial.
    std::map<const void*, LoopParallel> loopParallel;
    /// One line per candidate loop explaining its verdict ("wjc lint
    /// --parallel" report). Filled by both drivers.
    std::vector<std::string> parallelReport;
    /// SIMD verdicts keyed by the ForStmt node address, joined across call
    /// contexts (ScalarOnly poisons; overlap-pair sets union). Only
    /// innermost counted loops of candidate shape appear; absent loops are
    /// scalar.
    std::map<const void*, LoopVector> loopVector;
    /// One line per innermost loop explaining its SIMD verdict (the
    /// "wjc lint" vectorization table). Filled by both drivers.
    std::vector<std::string> vectorReport;
    /// AoS→SoA layout verdicts from the proveLayout pass, one entry per
    /// class used as an array element (see analysis/layout.h). The entry
    /// driver boxes classes whose arrays cross the jit() boundary; lint
    /// reports clean classes CondInline. The translator consumes Inline
    /// verdicts under WJ_SOA=1.
    std::map<std::string, ClassLayout> layoutClasses;
    /// One line per element class explaining its layout verdict (the
    /// "wjc lint" layout table). Filled by both drivers.
    std::vector<std::string> layoutReport;
    /// Loop fusion (analyzeEntryFused only; see fusion.h): the entry method
    /// with its fused groups rewritten in, which the translator emits in
    /// place of the source body — null when nothing fused — plus the number
    /// of fused groups and one "fused:" / "not fused:" line per considered
    /// producer/consumer pair (also appended to parallelReport).
    std::shared_ptr<const Method> fusedEntry;
    int fusedLoops = 0;
    std::vector<std::string> fusionReport;

    bool clean() const { return errors.empty(); }
    /// Throws AnalysisError if any error-level finding was recorded.
    void require() const;
};

/// Definite assignment (+ dead-store warnings appended to `warnings` when
/// non-null) for one method body. Cheap enough for the interpreter to run
/// memoized on first invoke of each method.
std::vector<Violation> checkDefiniteAssignment(const ClassDecl& cls, const Method& m,
                                               std::vector<Violation>* warnings = nullptr);

/// Whole-program lint: every pass over every concrete method, with unknown
/// receiver/arguments. Distinct array parameters are assumed non-aliasing
/// (documented lint assumption); only proven defects become errors. `soa`
/// reports the SIMD verdicts the translator would see under WJ_SOA=1.
Result lintProgram(const Program& prog, bool soa = false);

/// Analysis of one jit() entry: `method` invoked on the snapshot's concrete
/// composed receiver with its arguments, covering everything reachable.
/// Field primitives, array lengths and array sharing are treated as
/// constants — exactly the specialization contract the translator itself
/// uses. `entryBody`, when given, is analyzed in place of the entry method
/// (the fusion pass's rewritten copy: same name, parameters and return
/// type). `soa`: the translator stores arrays of Inline-verdict classes SoA
/// (WJ_SOA=1), which element loops' SIMD verdicts depend on.
Result analyzeEntry(const GraphSnapshot& snap, const std::string& method,
                    const Method* entryBody = nullptr, bool soa = false);

/// analyzeEntry() of a snapshot of `receiver` and `args`.
Result analyzeEntry(const Program& prog, const Value& receiver, const std::string& method,
                    const std::vector<Value>& args, const Method* entryBody = nullptr,
                    bool soa = false);

} // namespace wj::analysis
