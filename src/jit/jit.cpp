#include "jit/jit.h"

#include <sys/resource.h>

#include <cstdlib>
#include <unordered_map>

#include "gpusim/gpusim.h"
#include "interp/interp.h"
#include "jit/memo.h"
#include "minimpi/minimpi.h"
#include "rules/rules.h"
#include "runtime/context.h"
#include "runtime/wjrt.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "support/timer.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj {

namespace {

/// Minor page faults this thread has taken so far.
int64_t threadMinorFaults() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return ru.ru_minflt;
}

/// Deep copy: interpreter array -> native wj_array (the translated code's
/// own memory space, Section 3.1).
wj_array* marshalArray(const Arr& a) {
    if (!a.elem.isPrim()) {
        throw UsageError("arrays crossing the jit boundary must have primitive elements (got " +
                         a.elem.str() + "[])");
    }
    const Prim p = a.elem.prim();
    wj_array* out = wjrt_alloc_array(static_cast<int64_t>(a.data.size()), primSize(p));
    void* data = wj_array_data(out);
    for (size_t i = 0; i < a.data.size(); ++i) {
        switch (p) {
        case Prim::Bool: static_cast<int32_t*>(data)[i] = a.data[i].asBool() ? 1 : 0; break;
        case Prim::I32: static_cast<int32_t*>(data)[i] = a.data[i].asI32(); break;
        case Prim::I64: static_cast<int64_t*>(data)[i] = a.data[i].asI64(); break;
        case Prim::F32: static_cast<float*>(data)[i] = a.data[i].asF32(); break;
        case Prim::F64: static_cast<double*>(data)[i] = a.data[i].asF64(); break;
        }
    }
    return out;
}

/// Copy-back extension: native array -> interpreter array.
void unmarshalArray(const wj_array* in, Arr& a) {
    const void* data = wj_array_data(in);
    const Prim p = a.elem.prim();
    for (size_t i = 0; i < a.data.size(); ++i) {
        switch (p) {
        case Prim::Bool: a.data[i] = Value::ofBool(static_cast<const int32_t*>(data)[i] != 0); break;
        case Prim::I32: a.data[i] = Value::ofI32(static_cast<const int32_t*>(data)[i]); break;
        case Prim::I64: a.data[i] = Value::ofI64(static_cast<const int64_t*>(data)[i]); break;
        case Prim::F32: a.data[i] = Value::ofF32(static_cast<const float*>(data)[i]); break;
        case Prim::F64: a.data[i] = Value::ofF64(static_cast<const double*>(data)[i]); break;
        }
    }
}

/// Bytes one marshal copies for `a` (the jit.marshal.bytes counter).
int64_t arrayBytes(const Arr& a) {
    return static_cast<int64_t>(a.data.size()) * primSize(a.elem.prim());
}

/// True unless WJ_JIT_FALLBACK is "0"/"off"/"false"/"no": when the external
/// C compiler is unavailable, degrade to the interpreter instead of failing.
bool fallbackEnabled() {
    const char* v = std::getenv("WJ_JIT_FALLBACK");
    if (!v) return true;
    const std::string s(v);
    return !(s == "0" || s == "off" || s == "false" || s == "no");
}

/// Deep copy of a value graph (objects, arrays, primitives). The
/// interpreter fallback runs on copies so the paper's no-copy-back
/// contract (Section 3.1) holds on every rung of the degradation ladder.
/// Objects and arrays are copied once each, so the copy shares what the
/// original shares (the snapshot's identity rule).
Value deepCopyValue(const Value& v, std::unordered_map<const void*, Value>& memo) {
    if (v.isArr() && v.asArr()) {
        const Arr& a = *v.asArr();
        if (auto it = memo.find(&a); it != memo.end()) return it->second;
        auto copy = std::make_shared<Arr>();
        memo.emplace(&a, Value::ofArr(copy));
        copy->elem = a.elem;
        copy->data.reserve(a.data.size());
        for (const Value& e : a.data) copy->data.push_back(deepCopyValue(e, memo));
        return Value::ofArr(std::move(copy));
    }
    if (v.isObj() && v.asObj()) {
        const Obj& o = *v.asObj();
        if (auto it = memo.find(&o); it != memo.end()) return it->second;
        auto copy = std::make_shared<Obj>();
        memo.emplace(&o, Value::ofObj(copy));
        copy->cls = o.cls;
        for (const auto& [name, fv] : o.fields) copy->fields[name] = deepCopyValue(fv, memo);
        return Value::ofObj(std::move(copy));
    }
    return v;
}

} // namespace

JitCode::JitCode(const Program& prog, Value receiver, std::string method, std::vector<Value> args,
                 bool mpi, TranslateOptions opts)
    : prog_(&prog), receiver_(std::move(receiver)), method_(std::move(method)),
      recordedArgs_(std::move(args)), mpi_(mpi), opts_(opts) {
    // The translated code must satisfy the coding rules (Section 3.2); the
    // verifier runs before any code generation, like the paper's bytecode
    // checks.
    requireCodingRules(prog);
    // Dynamic span names must be interned; skip the allocation entirely
    // when tracing is off.
    trace::Span span("jit", trace::enabled() ? trace::intern("translate " + method_)
                                             : "translate");
    Timer t;
    snapshot_ = std::make_shared<const GraphSnapshot>(prog, receiver_, recordedArgs_);
    translation_ = TranslationMemo::lookup(*snapshot_, method_, opts_, &memoHit_);
    codegenSeconds_ = memoHit_ ? t.seconds() : translation_->codegenSeconds;
    span.arg(0, "memo", memoHit_ ? 1 : 0);
}

void JitCode::load(CompileResult compiled) {
    compile_ = std::move(compiled);
    mode_ = compile_.cacheHit ? ExecMode::NativeCached : ExecMode::Native;
    entry_ = reinterpret_cast<EntryFn>(compile_.module->symbol(translation_->entrySymbol));
}

void JitCode::fallBackToInterpreter() {
    if (!fallbackEnabled()) throw;
    static auto& fallbacks = trace::Metrics::instance().counter("jit.fallbacks.interpreter");
    fallbacks.inc();
    trace::instant("jit", "fallback.interpreter");
    mode_ = ExecMode::Interpreter;
}

void JitCode::set4MPI(int ranks, const std::string& /*nodeList*/) {
    if (!mpi_) throw UsageError("set4MPI on code translated with jit(); use jit4mpi()");
    if (ranks <= 0) throw UsageError("MPI rank count must be positive");
    ranks_ = ranks;
}

Value JitCode::invoke() { return invokeWith(recordedArgs_); }

JitCode::Variant JitCode::resolve(const std::vector<Value>& args) {
    const Variant recorded{snapshot_, translation_, compile_.module, entry_};
    if (&args == &recordedArgs_) return recorded;
    // Floats and doubles, which the proofs do not read, and objects, which
    // were baked in at jit(), keep their recorded values.
    std::vector<Value> keyArgs = args;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i].isF32() || args[i].isF64() || args[i].isObj()) keyArgs[i] = recordedArgs_[i];
    }
    auto snap = std::make_shared<const GraphSnapshot>(*prog_, receiver_, keyArgs);
    std::vector<int64_t> tuple = snap->exactArgs();
    if (tuple == snapshot_->exactArgs()) return recorded;

    auto it = variants_.find(tuple);
    if (it == variants_.end()) {
        // A receiver changed since jit() is refused, not translated anew.
        snapshot_->liveArrays(receiver_, recordedArgs_);
        Variant v;
        v.snap = std::move(snap);
        v.tr = TranslationMemo::lookup(*v.snap, method_, opts_);
        v.module = compileAndLoad(v.tr->cSource, method_, v.tr->sourceHash).module;
        v.entry = reinterpret_cast<EntryFn>(v.module->symbol(v.tr->entrySymbol));
        it = variants_.emplace(std::move(tuple), std::move(v)).first;
    }
    return it->second;
}

Value JitCode::invokeWith(const std::vector<Value>& args) {
    if (args.size() != recordedArgs_.size()) {
        throw UsageError("invoke: argument count differs from the jit-time recording");
    }
    trace::Span span("jit",
                     trace::enabled() ? trace::intern("invoke " + method_) : "invoke",
                     "ranks", mpi_ ? ranks_ : 1);
    if (mode_ == ExecMode::Interpreter) return invokeInterpreter(args);
    const Variant variant = resolve(args);
    const std::vector<ArrRef> arrays = variant.snap->liveArrays(receiver_, args);
    if (mpi_ && ranks_ > 1) {
        if (copyBack_) {
            throw UsageError("copy-back is only defined for single-rank invocations");
        }
        minimpi::World world(ranks_);
        world.run([&](minimpi::Comm& comm) {
            // One GPU per node (paper Section 4.1): each rank owns a device.
            gpusim::Device dev(comm.rank());
            runtime::RankScope scope(&comm, &dev);
            const Value r = invokeRank(args, variant, arrays);
            // Rank 0's result leaves the world through the transport's
            // result slot: lambda captures cannot carry it back across a
            // fork boundary on the process transport, and MPI entries
            // return primitives only, so a kind (0 for void, else 1 + its
            // Prim) and its bits suffice.
            if (comm.rank() == 0) {
                comm.publishResult(r.prim() ? 1 + static_cast<int>(*r.prim()) : 0,
                                   r.prim() ? r.bits() : 0);
            }
        });
        commStats_ = world.stats();
        int kind = 0;
        int64_t bits = 0;
        if (world.takeResult(&kind, &bits) && kind > 0) {
            return Value::ofBits(static_cast<Prim>(kind - 1), bits);
        }
        return Value();
    }
    gpusim::Device dev(0);
    runtime::RankScope scope(nullptr, &dev);
    return invokeRank(args, variant, arrays);
}

Value JitCode::invokeInterpreter(const std::vector<Value>& args) {
    // Bottom rung of the degradation ladder: programs written against the
    // class libraries "can run without WootinJ unless they use MPI or GPUs"
    // (paper, Section 4.4) — so single-process code interprets; a multi-rank
    // world cannot degrade and reports why.
    if (mpi_ && ranks_ > 1) {
        throw UsageError("interpreter fallback cannot run an MPI world (" +
                         std::to_string(ranks_) +
                         " ranks requested, and the C compiler is unavailable)");
    }
    Interp interp(*prog_);
    if (copyBack_) {
        // Copy-back semantics are exactly in-place interpretation.
        return interp.call(receiver_, method_, args);
    }
    std::unordered_map<const void*, Value> memo;
    Value recvCopy = deepCopyValue(receiver_, memo);
    std::vector<Value> argCopies;
    argCopies.reserve(args.size());
    for (const Value& v : args) argCopies.push_back(deepCopyValue(v, memo));
    return interp.call(recvCopy, method_, std::move(argCopies));
}

Value JitCode::invokeRank(const std::vector<Value>& args, const Variant& v,
                          const std::vector<ArrRef>& interpArrays) {
    // Deep-copy each distinct array into this rank's private memory space;
    // every arrs[] slot that names it gets the one copy.
    static auto& marshalBytes = trace::Metrics::instance().counter("jit.marshal.bytes");
    std::vector<wj_array*> nativeArrays;
    nativeArrays.reserve(interpArrays.size());
    {
        trace::Span marshalSpan("jit", "marshal");
        int64_t bytes = 0;
        for (const ArrRef& a : interpArrays) {
            nativeArrays.push_back(marshalArray(*a));
            bytes += arrayBytes(*a);
        }
        marshalBytes.add(bytes);
        marshalSpan.arg(0, "bytes", bytes);
    }

    std::vector<int64_t> prims;
    for (size_t i = 0; i < args.size(); ++i) {
        // Arrays travel in arrs[]; object arguments were baked in at jit().
        const GraphSnapshot::Node& n = (*v.snap)[v.snap->root(i + 1)];
        if (n.kind != GraphSnapshot::Kind::Prim) continue;
        if (args[i].prim() != n.prim()) {
            throw ExecError(std::string("value is not a ") + primName(n.prim()) + ": " +
                            args[i].str());
        }
        prims.push_back(args[i].bits());
    }

    int64_t raw;
    {
        static auto& invokes = trace::Metrics::instance().counter("jit.invocations.native");
        invokes.inc();
    }
    trace::Span entrySpan("jit", "entry");
    // The entry's minor faults on this thread show memory the allocator
    // handed back to the kernel since the last invoke and now refaults.
    const bool traced = trace::enabled();
    const int64_t minflt0 = traced ? threadMinorFaults() : 0;
    try {
        // The scope reclaims every array the translated code allocates —
        // entries return only primitives, so none of them escape — and is
        // the only cleanup on the trap path (bounds guard, wjrt_trap).
        runtime::AllocScope allocs;
        raw = v.entry(prims.data(), nativeArrays.data());
    } catch (...) {
        for (wj_array* a : nativeArrays) wjrt_free_array(a);
        throw;
    }
    if (traced) entrySpan.arg(0, "minflt", threadMinorFaults() - minflt0);
    entrySpan.end();

    if (copyBack_) {
        trace::Span marshalSpan("jit", "marshal", "back", 1);
        int64_t bytes = 0;
        for (size_t i = 0; i < interpArrays.size(); ++i) {
            unmarshalArray(nativeArrays[i], *interpArrays[i]);
            bytes += arrayBytes(*interpArrays[i]);
        }
        marshalBytes.add(bytes);
        marshalSpan.arg(1, "bytes", bytes);
    }
    // No copy-back by default (paper Section 3.1); release the private space.
    for (wj_array* a : nativeArrays) wjrt_free_array(a);
    const Type& ret = v.tr->entryRet;
    return ret.isVoid() ? Value() : Value::ofBits(ret.prim(), raw);
}

JitCode WootinJ::jit(const Program& prog, const Value& receiver, const std::string& method,
                     std::vector<Value> args) {
    return jitImpl(prog, receiver, method, std::move(args), /*mpi=*/false);
}

JitCode WootinJ::jit4mpi(const Program& prog, const Value& receiver, const std::string& method,
                         std::vector<Value> args) {
    return jitImpl(prog, receiver, method, std::move(args), /*mpi=*/true);
}

JitCode WootinJ::jitImpl(const Program& prog, Value receiver, std::string method,
                         std::vector<Value> args, bool mpi) {
    JitCode code(prog, std::move(receiver), std::move(method), std::move(args), mpi,
                 TranslateOptions::fromEnv());
    try {
        trace::Span span("jit", trace::enabled() ? trace::intern("compile " + code.method_)
                                                 : "compile");
        const Translation& tr = *code.translation_;
        code.load(compileAndLoad(tr.cSource, code.method_, tr.sourceHash));
    } catch (const CompilerUnavailableError&) {
        code.fallBackToInterpreter();
    }
    return code;
}

/// Shared async pipeline: rule-check + translate on the calling thread
/// (milliseconds), external compilation on the compile pool (the Table 3
/// dominant cost), final assembly deferred to the future's get().
std::future<JitCode> WootinJ::jitAsyncImpl(const Program& prog, Value receiver,
                                           std::string method, std::vector<Value> args,
                                           bool mpi) {
    JitCode code(prog, std::move(receiver), std::move(method), std::move(args), mpi,
                 TranslateOptions::fromEnv());
    const Translation& tr = *code.translation_;
    auto modFut = compileAndLoadAsync(tr.cSource, code.method_, tr.sourceHash);
    return std::async(std::launch::deferred,
                      [code = std::move(code), modFut = std::move(modFut)]() mutable {
                          try {
                              code.load(modFut.get());
                          } catch (const CompilerUnavailableError&) {
                              code.fallBackToInterpreter();
                          }
                          return std::move(code);
                      });
}

std::future<JitCode> WootinJ::jitAsync(const Program& prog, Value receiver, std::string method,
                                       std::vector<Value> args) {
    return jitAsyncImpl(prog, std::move(receiver), std::move(method), std::move(args),
                        /*mpi=*/false);
}

std::future<JitCode> WootinJ::jit4mpiAsync(const Program& prog, Value receiver,
                                           std::string method, std::vector<Value> args) {
    return jitAsyncImpl(prog, std::move(receiver), std::move(method), std::move(args),
                        /*mpi=*/true);
}

} // namespace wj
