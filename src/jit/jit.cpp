#include "jit/jit.h"

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <optional>
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

/// Depth-first walk over the receiver graph collecting non-null arrays, in
/// the exact order codegen's emitGraphInit assigned arrs[] indices. With
/// `paths`, also the field path of each ("this.grid.cur") for messages.
void collectArrays(const Program& prog, const Value& v, std::vector<ArrRef>& out,
                   std::vector<std::string>* paths = nullptr, const std::string& at = "this") {
    const ObjRef& o = v.asObj();
    if (!o) throw UsageError("null object in receiver graph at invoke time");
    for (const Field* f : prog.allFields(o->cls->name)) {
        const Value& fv = o->fields.at(f->name);
        if (f->type.isArray()) {
            if (!fv.asArr()) continue;
            out.push_back(fv.asArr());
            if (paths) paths->push_back(at + "." + f->name);
        } else if (f->type.isClass()) {
            collectArrays(prog, fv, out, paths, paths ? at + "." + f->name : at);
        }
    }
}

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
Value deepCopyValue(const Value& v, std::unordered_map<const Obj*, ObjRef>& memo) {
    if (v.isArr()) {
        const ArrRef& a = v.asArr();
        if (!a) return v;
        auto copy = std::make_shared<Arr>();
        copy->elem = a->elem;
        copy->data.reserve(a->data.size());
        for (const Value& e : a->data) copy->data.push_back(deepCopyValue(e, memo));
        return Value::ofArr(std::move(copy));
    }
    if (v.isObj()) {
        const ObjRef& o = v.asObj();
        if (!o) return v;
        if (auto it = memo.find(o.get()); it != memo.end()) return Value::ofObj(it->second);
        auto copy = std::make_shared<Obj>();
        copy->cls = o->cls;
        memo.emplace(o.get(), copy);
        for (const auto& [name, fv] : o->fields) copy->fields[name] = deepCopyValue(fv, memo);
        return Value::ofObj(std::move(copy));
    }
    return v;
}

int64_t primToSlot(const Value& v, Prim expected) {
    switch (expected) {
    case Prim::Bool: return v.asBool() ? 1 : 0;
    case Prim::I32: return v.asI32();
    case Prim::I64: return v.asI64();
    case Prim::F32: {
        uint32_t bits;
        float f = v.asF32();
        std::memcpy(&bits, &f, sizeof bits);
        return static_cast<int64_t>(bits);
    }
    case Prim::F64: {
        uint64_t bits;
        double d = v.asF64();
        std::memcpy(&bits, &d, sizeof bits);
        return static_cast<int64_t>(bits);
    }
    }
    throw UsageError("bad prim slot");
}

Value slotToValue(int64_t slot, const Type& ret) {
    if (ret.isVoid()) return Value();
    switch (ret.prim()) {
    case Prim::Bool: return Value::ofBool(slot != 0);
    case Prim::I32: return Value::ofI32(static_cast<int32_t>(slot));
    case Prim::I64: return Value::ofI64(slot);
    case Prim::F32: {
        uint32_t bits = static_cast<uint32_t>(slot);
        float f;
        std::memcpy(&f, &bits, sizeof f);
        return Value::ofF32(f);
    }
    case Prim::F64: {
        uint64_t bits = static_cast<uint64_t>(slot);
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return Value::ofF64(d);
    }
    }
    return Value();
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
    translation_ =
        TranslationMemo::lookup(prog, receiver_, method_, recordedArgs_, opts_, &memoHit_);
    codegenSeconds_ = memoHit_ ? t.seconds() : translation_->codegenSeconds;
    span.arg(0, "memo", memoHit_ ? 1 : 0);
}

std::vector<ArrRef> JitCode::receiverArrays() const {
    std::vector<ArrRef> arrays;
    collectArrays(*prog_, receiver_, arrays);
    const std::vector<int64_t>& lengths = translation_->plan.receiverLengths;
    if (arrays.size() != lengths.size()) return arrays;  // invokeRank reports the layout
    for (size_t i = 0; i < arrays.size(); ++i) {
        const auto len = static_cast<int64_t>(arrays[i]->data.size());
        if (len != lengths[i]) {
            std::vector<std::string> paths;
            arrays.clear();
            collectArrays(*prog_, receiver_, arrays, &paths);
            throw UsageError(format("invoke: receiver array %s has length %lld, but the code "
                                    "was specialized to length %lld at jit() time; jit() "
                                    "again for the new length",
                                    paths[i].c_str(), static_cast<long long>(len),
                                    static_cast<long long>(lengths[i])));
        }
    }
    return arrays;
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

namespace {

// Primitive result <-> (kind, bits) codec for Transport::publishResult.
// JIT entry points return primitive slots only (arrays travel by argument),
// so this covers every legal MPI entry result.
enum ResultKind { kResVoid = 0, kResBool, kResI32, kResI64, kResF32, kResF64 };

void encodeResult(const Value& v, int* kind, int64_t* bits) {
    *bits = 0;
    if (v.isVoid()) {
        *kind = kResVoid;
    } else if (v.isBool()) {
        *kind = kResBool;
        *bits = v.asBool() ? 1 : 0;
    } else if (v.isI32()) {
        *kind = kResI32;
        *bits = v.asI32();
    } else if (v.isI64()) {
        *kind = kResI64;
        *bits = v.asI64();
    } else if (v.isF32()) {
        *kind = kResF32;
        const float f = v.asF32();
        uint32_t u = 0;
        std::memcpy(&u, &f, sizeof f);
        *bits = static_cast<int64_t>(u);
    } else if (v.isF64()) {
        *kind = kResF64;
        const double d = v.asF64();
        std::memcpy(bits, &d, sizeof d);
    } else {
        throw ExecError("MPI entry returned a non-primitive result; only void/bool/int/"
                        "long/float/double can cross the rank boundary");
    }
}

Value decodeResult(int kind, int64_t bits) {
    switch (kind) {
    case kResBool: return Value::ofBool(bits != 0);
    case kResI32: return Value::ofI32(static_cast<int32_t>(bits));
    case kResI64: return Value::ofI64(bits);
    case kResF32: {
        const auto u = static_cast<uint32_t>(bits);
        float f = 0;
        std::memcpy(&f, &u, sizeof f);
        return Value::ofF32(f);
    }
    case kResF64: {
        double d = 0;
        std::memcpy(&d, &bits, sizeof d);
        return Value::ofF64(d);
    }
    default: return Value();
    }
}

/// What the prover reads exactly of argument `v` when `recorded` has the
/// same kind: the value of a bool/int/long, the length of an array (-1
/// for null).
std::optional<int64_t> exactPartOf(const Value& recorded, const Value& v) {
    if (recorded.isBool() && v.isBool()) return v.asBool() ? 1 : 0;
    if (recorded.isI32() && v.isI32()) return v.asI32();
    if (recorded.isI64() && v.isI64()) return v.asI64();
    if (recorded.isArr() && v.isArr()) {
        return v.asArr() ? static_cast<int64_t>(v.asArr()->data.size()) : -1;
    }
    return std::nullopt;
}

} // namespace

Value JitCode::invoke() { return invokeWith(recordedArgs_); }

JitCode::Variant JitCode::resolve(const std::vector<Value>& args) {
    const Variant recorded{translation_, compile_.module, entry_};
    if (&args == &recordedArgs_) return recorded;
    bool differs = false;
    for (size_t i = 0; i < args.size() && !differs; ++i) {
        const auto v = exactPartOf(recordedArgs_[i], args[i]);
        differs = v && v != exactPartOf(recordedArgs_[i], recordedArgs_[i]);
    }
    if (!differs) return recorded;

    std::vector<int64_t> tuple;
    std::vector<Value> keyArgs = recordedArgs_;
    for (size_t i = 0; i < args.size(); ++i) {
        if (const auto v = exactPartOf(recordedArgs_[i], args[i])) {
            tuple.push_back(*v);
            keyArgs[i] = args[i];
        }
    }
    auto it = variants_.find(tuple);
    if (it == variants_.end()) {
        Variant v;
        v.tr = TranslationMemo::lookup(*prog_, receiver_, method_, keyArgs, opts_);
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
    const std::vector<ArrRef> recvArrays = receiverArrays();
    const Variant variant = resolve(args);
    if (mpi_ && ranks_ > 1) {
        if (copyBack_) {
            throw UsageError("copy-back is only defined for single-rank invocations");
        }
        minimpi::World world(ranks_);
        world.run([&](minimpi::Comm& comm) {
            // One GPU per node (paper Section 4.1): each rank owns a device.
            gpusim::Device dev(comm.rank());
            runtime::RankScope scope(&comm, &dev);
            Value r = invokeRank(args, variant, recvArrays);
            // Rank 0's result leaves the world through the transport's
            // result slot: lambda captures cannot carry it back across a
            // fork boundary on the process transport, and MPI entries
            // return primitives only, so a kind + 64-bit payload suffices.
            if (comm.rank() == 0) {
                int kind = 0;
                int64_t bits = 0;
                encodeResult(r, &kind, &bits);
                comm.publishResult(kind, bits);
            }
        });
        commStats_ = world.stats();
        int kind = 0;
        int64_t bits = 0;
        if (world.takeResult(&kind, &bits)) return decodeResult(kind, bits);
        return Value();
    }
    gpusim::Device dev(0);
    runtime::RankScope scope(nullptr, &dev);
    return invokeRank(args, variant, recvArrays);
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
    std::unordered_map<const Obj*, ObjRef> memo;
    Value recvCopy = deepCopyValue(receiver_, memo);
    std::vector<Value> argCopies;
    argCopies.reserve(args.size());
    for (const Value& v : args) argCopies.push_back(deepCopyValue(v, memo));
    return interp.call(recvCopy, method_, std::move(argCopies));
}

Value JitCode::invokeRank(const std::vector<Value>& args, const Variant& v,
                          const std::vector<ArrRef>& recvArrays) {
    const EntryPlan& plan = v.tr->plan;
    // Deep-copy the argument arrays into this rank's private memory space.
    std::vector<ArrRef> interpArrays = recvArrays;
    for (const Value& a : args) {
        if (a.isArr() && a.asArr()) interpArrays.push_back(a.asArr());
    }
    if (static_cast<int>(interpArrays.size()) != plan.arraySlots) {
        throw UsageError("invoke: the receiver graph's array layout changed since jit() time (" +
                         std::to_string(interpArrays.size()) + " arrays vs " +
                         std::to_string(plan.arraySlots) + " recorded)");
    }

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
    size_t slotIdx = 0;
    for (const Value& a : args) {
        if (a.isArr()) continue;
        if (a.isObj()) continue;  // object args were baked in at jit() time
        if (slotIdx >= plan.primSlots.size()) {
            throw UsageError("invoke: more primitive arguments than recorded");
        }
        prims.push_back(primToSlot(a, plan.primSlots[slotIdx++]));
    }
    if (slotIdx != plan.primSlots.size()) {
        throw UsageError("invoke: fewer primitive arguments than recorded");
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
    return slotToValue(raw, plan.ret);
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
