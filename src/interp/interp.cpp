#include "interp/interp.h"

#include <cmath>
#include <cstdio>

#include "analysis/analysis.h"
#include "fault/checkpoint.h"
#include "runtime/rng_hash.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj {

namespace {
constexpr int kMaxDepth = 4096;
} // namespace

struct Interp::Flow {
    bool returned = false;
    Value ret;
    static Flow normal() { return {}; }
    static Flow returning(Value v) { return {true, std::move(v)}; }
};

struct Interp::Frame {
    ObjRef self;                 ///< null in static methods
    const ClassDecl* implCls;    ///< class providing the executing body
    const Method* method;
    std::vector<std::map<std::string, Value>> scopes;

    Value* find(const std::string& name) {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end()) return &f->second;
        }
        return nullptr;
    }
};

/// Emulated CUDA thread coordinates (device emulation mode only).
struct Interp::GpuEmuCtx {
    int tx = 0, ty = 0, tz = 0;
    int bx = 0, by = 0, bz = 0;
    int bdx = 1, bdy = 1, bdz = 1;
    int gdx = 1, gdy = 1, gdz = 1;
};

Interp::Interp(const Program& prog) : prog_(prog) {}

Interp::Interp(const Program& prog, Options opts) : prog_(prog), opts_(opts) {}

Value Interp::newArray(const Type& elem, int32_t len) {
    if (len < 0) throw ExecError("NegativeArraySizeException: " + std::to_string(len));
    auto arr = std::make_shared<Arr>();
    arr->elem = elem;
    arr->data.assign(static_cast<size_t>(len), Value::defaultOf(elem));
    return Value::ofArr(std::move(arr));
}

Value Interp::instantiate(const std::string& clsName, std::vector<Value> args) {
    const ClassDecl& cls = prog_.require(clsName);
    if (cls.isInterface) throw ExecError("cannot instantiate interface " + clsName);
    ++allocs_;
    auto obj = std::make_shared<Obj>();
    obj->cls = &cls;
    for (const Field* f : prog_.allFields(clsName)) {
        obj->fields.emplace(f->name, Value::defaultOf(f->type));
    }
    runCtor(obj, cls, std::move(args));
    return Value::ofObj(std::move(obj));
}

void Interp::runCtor(const ObjRef& obj, const ClassDecl& cls, std::vector<Value> args) {
    const ClassDecl* super = cls.superName.empty() ? nullptr : &prog_.require(cls.superName);
    const bool explicitSuper =
        cls.ctor && !cls.ctor->body.empty() && cls.ctor->body[0]->kind == StmtKind::SuperCtor;
    if (super && !explicitSuper) runCtor(obj, *super, {});
    if (!cls.ctor) {
        if (!args.empty()) throw ExecError(cls.name + ": implicit constructor takes no arguments");
        return;
    }
    if (args.size() != cls.ctor->params.size()) {
        throw ExecError(cls.name + ".<init>: expected " + std::to_string(cls.ctor->params.size()) +
                        " arguments, got " + std::to_string(args.size()));
    }
    verifyAssigned(cls, *cls.ctor);
    Frame f;
    f.self = obj;
    f.implCls = &cls;
    f.method = cls.ctor.get();
    f.scopes.emplace_back();
    for (size_t i = 0; i < args.size(); ++i) {
        f.scopes.back().emplace(cls.ctor->params[i].name, std::move(args[i]));
    }
    if (++depth_ > kMaxDepth) throw ExecError("interpreter stack overflow");
    execBlock(f, cls.ctor->body);
    --depth_;
}

Value Interp::call(const Value& recv, const std::string& method, std::vector<Value> args) {
    trace::Span span("interp",
                     trace::enabled() ? trace::intern("call " + method) : "call");
    {
        static auto& calls = trace::Metrics::instance().counter("interp.calls");
        calls.inc();
    }
    const ObjRef& obj = recv.asObj();
    if (!obj) throw ExecError("NullPointerException: call ." + method + "() on null");
    const Method* m = prog_.resolveMethod(obj->cls->name, method);
    if (!m || m->isAbstract) {
        throw ExecError(obj->cls->name + " has no concrete method " + method);
    }
    if (m->isGlobal) return launchEmulated(obj, *prog_.methodOwner(obj->cls->name, method), *m,
                                           std::move(args));
    ++dispatches_;
    return invokeMethod(obj, *prog_.methodOwner(obj->cls->name, method), *m, std::move(args));
}

Value Interp::callStatic(const std::string& cls, const std::string& method,
                         std::vector<Value> args) {
    const Method* m = prog_.resolveMethod(cls, method);
    if (!m || !m->isStatic) throw ExecError(cls + " has no static method " + method);
    return invokeMethod(nullptr, *prog_.methodOwner(cls, method), *m, std::move(args));
}

void Interp::verifyAssigned(const ClassDecl& implCls, const Method& m) {
    if (!daChecked_.insert(&m).second) return;
    auto errs = analysis::checkDefiniteAssignment(implCls, m);
    if (!errs.empty()) throw AnalysisError(std::move(errs));
}

Value Interp::invokeMethod(const ObjRef& self, const ClassDecl& implCls, const Method& m,
                           std::vector<Value> args) {
    verifyAssigned(implCls, m);
    if (args.size() != m.params.size()) {
        throw ExecError(implCls.name + "." + m.name + ": expected " +
                        std::to_string(m.params.size()) + " arguments, got " +
                        std::to_string(args.size()));
    }
    Frame f;
    f.self = self;
    f.implCls = &implCls;
    f.method = &m;
    f.scopes.emplace_back();
    for (size_t i = 0; i < args.size(); ++i) {
        f.scopes.back().emplace(m.params[i].name, std::move(args[i]));
    }
    if (++depth_ > kMaxDepth) throw ExecError("interpreter stack overflow (recursion?)");
    Flow flow = execBlock(f, m.body);
    --depth_;
    if (!m.ret.isVoid() && !flow.returned) {
        throw ExecError(implCls.name + "." + m.name + ": fell off the end without returning");
    }
    return std::move(flow.ret);
}

Value Interp::launchEmulated(const ObjRef& self, const ClassDecl& implCls, const Method& kernel,
                             std::vector<Value> args) {
    if (!opts_.deviceEmulation) {
        throw ExecError("the JVM cannot execute @Global (GPU) method " + implCls.name + "." +
                        kernel.name + "; translate it with WootinJ.jit()");
    }
    if (gpu_) throw ExecError("nested kernel launch");
    if (args.empty()) throw ExecError("@Global call without CudaConfig");
    const ObjRef& conf = args[0].asObj();
    if (!conf || conf->cls->name != Program::cudaConfigClass()) {
        throw ExecError("@Global first argument must be a CudaConfig");
    }
    auto d3 = [&](const char* field, int out[3]) {
        const ObjRef& d = conf->fields.at(field).asObj();
        if (!d) throw ExecError("CudaConfig." + std::string(field) + " is null");
        out[0] = d->fields.at("x").asI32();
        out[1] = d->fields.at("y").asI32();
        out[2] = d->fields.at("z").asI32();
    };
    int grid[3], block[3];
    d3("grid", grid);
    d3("block", block);

    GpuEmuCtx ctx;
    ctx.gdx = grid[0];
    ctx.gdy = grid[1];
    ctx.gdz = grid[2];
    ctx.bdx = block[0];
    ctx.bdy = block[1];
    ctx.bdz = block[2];
    gpu_ = &ctx;
    // Sequential SIMT emulation: every logical thread runs the whole kernel.
    for (ctx.bz = 0; ctx.bz < ctx.gdz; ++ctx.bz)
        for (ctx.by = 0; ctx.by < ctx.gdy; ++ctx.by)
            for (ctx.bx = 0; ctx.bx < ctx.gdx; ++ctx.bx)
                for (ctx.tz = 0; ctx.tz < ctx.bdz; ++ctx.tz)
                    for (ctx.ty = 0; ctx.ty < ctx.bdy; ++ctx.ty)
                        for (ctx.tx = 0; ctx.tx < ctx.bdx; ++ctx.tx) {
                            std::vector<Value> copy = args;
                            invokeMethod(self, implCls, kernel, std::move(copy));
                        }
    gpu_ = nullptr;
    return Value();
}

// ----------------------------------------------------------------- execution

Interp::Flow Interp::execBlock(Frame& f, const Block& b) {
    for (const auto& st : b) {
        Flow flow = execStmt(f, *st);
        if (flow.returned) return flow;
    }
    return Flow::normal();
}

Interp::Flow Interp::execStmt(Frame& f, const Stmt& s) {
    switch (s.kind) {
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(s);
        f.scopes.back().insert_or_assign(n.name,
                                         n.init ? evalExpr(f, *n.init) : Value::defaultOf(n.type));
        return Flow::normal();
    }
    case StmtKind::AssignLocal: {
        const auto& n = as<AssignLocalStmt>(s);
        Value* slot = f.find(n.name);
        if (!slot) throw ExecError("undeclared local " + n.name);
        *slot = evalExpr(f, *n.value);
        return Flow::normal();
    }
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(s);
        Value ov = evalExpr(f, *n.obj);
        const ObjRef& obj = ov.asObj();
        if (!obj) throw ExecError("NullPointerException: store to ." + n.field);
        auto it = obj->fields.find(n.field);
        if (it == obj->fields.end()) {
            throw ExecError(obj->cls->name + " has no field " + n.field);
        }
        it->second = evalExpr(f, *n.value);
        return Flow::normal();
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(s);
        Value av = evalExpr(f, *n.arr);
        const ArrRef& arr = av.asArr();
        if (!arr) throw ExecError("NullPointerException: array store");
        int32_t idx = evalExpr(f, *n.idx).asI32();
        if (idx < 0 || static_cast<size_t>(idx) >= arr->data.size()) {
            throw ExecError("ArrayIndexOutOfBoundsException: " + std::to_string(idx) + " of " +
                            std::to_string(arr->data.size()));
        }
        arr->data[static_cast<size_t>(idx)] = evalExpr(f, *n.value);
        return Flow::normal();
    }
    case StmtKind::If: {
        const auto& n = as<IfStmt>(s);
        const bool c = evalExpr(f, *n.cond).asBool();
        f.scopes.emplace_back();
        Flow flow = execBlock(f, c ? n.thenB : n.elseB);
        f.scopes.pop_back();
        return flow;
    }
    case StmtKind::While: {
        const auto& n = as<WhileStmt>(s);
        while (evalExpr(f, *n.cond).asBool()) {
            f.scopes.emplace_back();
            Flow flow = execBlock(f, n.body);
            f.scopes.pop_back();
            if (flow.returned) return flow;
        }
        return Flow::normal();
    }
    case StmtKind::For: {
        const auto& n = as<ForStmt>(s);
        f.scopes.emplace_back();
        f.scopes.back().insert_or_assign(n.var, evalExpr(f, *n.init));
        while (evalExpr(f, *n.cond).asBool()) {
            f.scopes.emplace_back();
            Flow flow = execBlock(f, n.body);
            f.scopes.pop_back();
            if (flow.returned) {
                f.scopes.pop_back();
                return flow;
            }
            Value next = evalExpr(f, *n.step);
            *f.find(n.var) = std::move(next);
        }
        f.scopes.pop_back();
        return Flow::normal();
    }
    case StmtKind::Return: {
        const auto& n = as<ReturnStmt>(s);
        return Flow::returning(n.value ? evalExpr(f, *n.value) : Value());
    }
    case StmtKind::ExprStmt:
        evalExpr(f, *as<ExprStmt>(s).e);
        return Flow::normal();
    case StmtKind::SuperCtor: {
        const auto& n = as<SuperCtorStmt>(s);
        std::vector<Value> args;
        args.reserve(n.args.size());
        for (const auto& a : n.args) args.push_back(evalExpr(f, *a));
        runCtor(f.self, prog_.require(f.implCls->superName), std::move(args));
        return Flow::normal();
    }
    }
    panic("unreachable stmt kind in interp");
}

namespace {

template <typename T>
Value arith(BinOp op, T a, T b) {
    switch (op) {
    case BinOp::Add: a = a + b; break;
    case BinOp::Sub: a = a - b; break;
    case BinOp::Mul: a = a * b; break;
    case BinOp::Div:
        if constexpr (std::is_integral_v<T>) {
            if (b == 0) throw ExecError("ArithmeticException: / by zero");
        }
        a = a / b;
        break;
    case BinOp::Rem:
        if constexpr (std::is_integral_v<T>) {
            if (b == 0) throw ExecError("ArithmeticException: % by zero");
            a = a % b;
        } else {
            a = static_cast<T>(std::fmod(a, b));
        }
        break;
    case BinOp::Lt: return Value::ofBool(a < b);
    case BinOp::Le: return Value::ofBool(a <= b);
    case BinOp::Gt: return Value::ofBool(a > b);
    case BinOp::Ge: return Value::ofBool(a >= b);
    case BinOp::Eq: return Value::ofBool(a == b);
    case BinOp::Ne: return Value::ofBool(a != b);
    default:
        if constexpr (std::is_integral_v<T>) {
            using U = std::make_unsigned_t<T>;
            const int mask = sizeof(T) == 4 ? 31 : 63;
            switch (op) {
            case BinOp::Shl: a = static_cast<T>(static_cast<U>(a) << (b & mask)); break;
            case BinOp::Shr: a = a >> (b & mask); break;
            case BinOp::BitAnd: a = a & b; break;
            case BinOp::BitOr: a = a | b; break;
            case BinOp::BitXor: a = a ^ b; break;
            default: throw ExecError("bad integral op");
            }
        } else {
            throw ExecError("bitwise op on floating value");
        }
    }
    if constexpr (std::is_same_v<T, int32_t>) return Value::ofI32(a);
    else if constexpr (std::is_same_v<T, int64_t>) return Value::ofI64(a);
    else if constexpr (std::is_same_v<T, float>) return Value::ofF32(a);
    else return Value::ofF64(a);
}

} // namespace

Value Interp::evalExpr(Frame& f, const Expr& e) {
    switch (e.kind) {
    case ExprKind::Const: {
        const auto& n = as<ConstExpr>(e);
        switch (n.type.prim()) {
        case Prim::Bool: return Value::ofBool(n.i != 0);
        case Prim::I32: return Value::ofI32(static_cast<int32_t>(n.i));
        case Prim::I64: return Value::ofI64(n.i);
        case Prim::F32: return Value::ofF32(static_cast<float>(n.f));
        case Prim::F64: return Value::ofF64(n.f);
        }
        return Value();
    }
    case ExprKind::Local: {
        Value* slot = f.find(as<LocalExpr>(e).name);
        if (!slot) throw ExecError("undeclared local " + as<LocalExpr>(e).name);
        return *slot;
    }
    case ExprKind::This:
        if (!f.self) throw ExecError("'this' in static context");
        return Value::ofObj(f.self);
    case ExprKind::FieldGet: {
        const auto& n = as<FieldGetExpr>(e);
        Value ov = evalExpr(f, *n.obj);
        const ObjRef& obj = ov.asObj();
        if (!obj) throw ExecError("NullPointerException: read of ." + n.field);
        auto it = obj->fields.find(n.field);
        if (it == obj->fields.end()) throw ExecError(obj->cls->name + " has no field " + n.field);
        return it->second;
    }
    case ExprKind::StaticGet: {
        const auto& n = as<StaticGetExpr>(e);
        const StaticField* sf = prog_.resolveStatic(n.cls, n.field);
        if (!sf) throw ExecError(n.cls + " has no static field " + n.field);
        switch (sf->type.prim()) {
        case Prim::Bool: return Value::ofBool(sf->i != 0);
        case Prim::I32: return Value::ofI32(static_cast<int32_t>(sf->i));
        case Prim::I64: return Value::ofI64(sf->i);
        case Prim::F32: return Value::ofF32(static_cast<float>(sf->f));
        case Prim::F64: return Value::ofF64(sf->f);
        }
        return Value();
    }
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        Value av = evalExpr(f, *n.arr);
        const ArrRef& arr = av.asArr();
        if (!arr) throw ExecError("NullPointerException: array read");
        int32_t idx = evalExpr(f, *n.idx).asI32();
        if (idx < 0 || static_cast<size_t>(idx) >= arr->data.size()) {
            throw ExecError("ArrayIndexOutOfBoundsException: " + std::to_string(idx) + " of " +
                            std::to_string(arr->data.size()));
        }
        return arr->data[static_cast<size_t>(idx)];
    }
    case ExprKind::ArrayLen: {
        Value av = evalExpr(f, *as<ArrayLenExpr>(e).arr);
        const ArrRef& arr = av.asArr();
        if (!arr) throw ExecError("NullPointerException: .length");
        return Value::ofI32(static_cast<int32_t>(arr->data.size()));
    }
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(e);
        Value v = evalExpr(f, *n.e);
        if (n.op == UnOp::Not) return Value::ofBool(!v.asBool());
        if (v.isI32()) return Value::ofI32(-v.asI32());
        if (v.isI64()) return Value::ofI64(-v.asI64());
        if (v.isF32()) return Value::ofF32(-v.asF32());
        return Value::ofF64(-v.asF64());
    }
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        if (isLogical(n.op)) {
            const bool l = evalExpr(f, *n.l).asBool();
            if (n.op == BinOp::LAnd) return Value::ofBool(l && evalExpr(f, *n.r).asBool());
            return Value::ofBool(l || evalExpr(f, *n.r).asBool());
        }
        Value l = evalExpr(f, *n.l);
        Value r = evalExpr(f, *n.r);
        if (l.isObj() || l.isArr()) {
            // Reference equality (untranslated code may use it).
            const bool same = l.isObj() ? l.asObj() == r.asObj() : l.asArr() == r.asArr();
            if (n.op == BinOp::Eq) return Value::ofBool(same);
            if (n.op == BinOp::Ne) return Value::ofBool(!same);
            throw ExecError("arithmetic on references");
        }
        if (l.isBool()) {
            if (n.op == BinOp::Eq) return Value::ofBool(l.asBool() == r.asBool());
            if (n.op == BinOp::Ne) return Value::ofBool(l.asBool() != r.asBool());
            throw ExecError("arithmetic on booleans");
        }
        if (l.isI32()) return arith(n.op, l.asI32(), r.asI32());
        if (l.isI64()) return arith(n.op, l.asI64(), r.asI64());
        if (l.isF32()) return arith(n.op, l.asF32(), r.asF32());
        return arith(n.op, l.asF64(), r.asF64());
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        return evalExpr(f, evalExpr(f, *n.c).asBool() ? *n.t : *n.f);
    }
    case ExprKind::Call: {
        const auto& n = as<CallExpr>(e);
        Value recv = evalExpr(f, *n.recv);
        std::vector<Value> args;
        args.reserve(n.args.size());
        for (const auto& a : n.args) args.push_back(evalExpr(f, *a));
        return call(recv, n.method, std::move(args));
    }
    case ExprKind::StaticCall: {
        const auto& n = as<StaticCallExpr>(e);
        std::vector<Value> args;
        args.reserve(n.args.size());
        for (const auto& a : n.args) args.push_back(evalExpr(f, *a));
        return callStatic(n.cls, n.method, std::move(args));
    }
    case ExprKind::New: {
        const auto& n = as<NewExpr>(e);
        std::vector<Value> args;
        args.reserve(n.args.size());
        for (const auto& a : n.args) args.push_back(evalExpr(f, *a));
        return instantiate(n.cls, std::move(args));
    }
    case ExprKind::NewArray: {
        const auto& n = as<NewArrayExpr>(e);
        return newArray(n.elem, evalExpr(f, *n.len).asI32());
    }
    case ExprKind::Cast: {
        const auto& n = as<CastExpr>(e);
        Value v = evalExpr(f, *n.e);
        if (n.type.isClass()) {
            const ObjRef& obj = v.asObj();
            if (obj && !prog_.isSubtypeOf(obj->cls->name, n.type.className())) {
                throw ExecError("ClassCastException: " + obj->cls->name + " to " +
                                n.type.className());
            }
            return v;
        }
        if (!n.type.isPrim()) return v;
        double d = 0;
        int64_t i = 0;
        bool fromFloat = false;
        if (v.isI32()) i = v.asI32();
        else if (v.isI64()) i = v.asI64();
        else if (v.isF32()) { d = v.asF32(); fromFloat = true; }
        else if (v.isF64()) { d = v.asF64(); fromFloat = true; }
        else throw ExecError("bad numeric cast source");
        switch (n.type.prim()) {
        case Prim::I32: return Value::ofI32(fromFloat ? static_cast<int32_t>(d) : static_cast<int32_t>(i));
        case Prim::I64: return Value::ofI64(fromFloat ? static_cast<int64_t>(d) : i);
        case Prim::F32: return Value::ofF32(fromFloat ? static_cast<float>(d) : static_cast<float>(i));
        case Prim::F64: return Value::ofF64(fromFloat ? d : static_cast<double>(i));
        case Prim::Bool: throw ExecError("cannot cast number to boolean");
        }
        return v;
    }
    case ExprKind::IntrinsicCall:
        return evalIntrinsic(f, as<IntrinsicExpr>(e));
    }
    panic("unreachable expr kind in interp");
}

Value Interp::evalIntrinsic(Frame& f, const IntrinsicExpr& e) {
    auto arg = [&](size_t i) { return evalExpr(f, *e.args[i]); };
    switch (e.op) {
    // Like the wjrt runtime without a bound world: a JVM process is a
    // 1-rank world. Rank/size queries succeed; communication still traps.
    case Intrinsic::MpiRank: return Value::ofI32(0);
    case Intrinsic::MpiSize: return Value::ofI32(1);

    case Intrinsic::MathSqrtF64: return Value::ofF64(std::sqrt(arg(0).asF64()));
    case Intrinsic::MathFabsF64: return Value::ofF64(std::fabs(arg(0).asF64()));
    case Intrinsic::MathExpF64: return Value::ofF64(std::exp(arg(0).asF64()));
    case Intrinsic::MathSqrtF32: return Value::ofF32(std::sqrt(arg(0).asF32()));
    case Intrinsic::RngHashF32:
        return Value::ofF32(wj_rng_hash_f32(arg(0).asI32(), arg(1).asI32()));
    case Intrinsic::FreeArray:
        arg(0);  // evaluated for effect; the interpreter heap is GC'd
        return Value();
    case Intrinsic::PrintI64:
        std::printf("%lld\n", static_cast<long long>(arg(0).asI64()));
        return Value();
    case Intrinsic::PrintF64:
        std::printf("%.9g\n", arg(0).asF64());
        return Value();

    case Intrinsic::CudaThreadIdxX: case Intrinsic::CudaThreadIdxY: case Intrinsic::CudaThreadIdxZ:
    case Intrinsic::CudaBlockIdxX: case Intrinsic::CudaBlockIdxY: case Intrinsic::CudaBlockIdxZ:
    case Intrinsic::CudaBlockDimX: case Intrinsic::CudaBlockDimY: case Intrinsic::CudaBlockDimZ:
    case Intrinsic::CudaGridDimX: case Intrinsic::CudaGridDimY: case Intrinsic::CudaGridDimZ: {
        if (!gpu_) {
            throw ExecError(std::string(intrinsicSig(e.op).name) +
                            " outside a kernel (enable device emulation and call via @Global)");
        }
        switch (e.op) {
        case Intrinsic::CudaThreadIdxX: return Value::ofI32(gpu_->tx);
        case Intrinsic::CudaThreadIdxY: return Value::ofI32(gpu_->ty);
        case Intrinsic::CudaThreadIdxZ: return Value::ofI32(gpu_->tz);
        case Intrinsic::CudaBlockIdxX: return Value::ofI32(gpu_->bx);
        case Intrinsic::CudaBlockIdxY: return Value::ofI32(gpu_->by);
        case Intrinsic::CudaBlockIdxZ: return Value::ofI32(gpu_->bz);
        case Intrinsic::CudaBlockDimX: return Value::ofI32(gpu_->bdx);
        case Intrinsic::CudaBlockDimY: return Value::ofI32(gpu_->bdy);
        case Intrinsic::CudaBlockDimZ: return Value::ofI32(gpu_->bdz);
        case Intrinsic::CudaGridDimX: return Value::ofI32(gpu_->gdx);
        case Intrinsic::CudaGridDimY: return Value::ofI32(gpu_->gdy);
        default: return Value::ofI32(gpu_->gdz);
        }
    }
    case Intrinsic::CudaSyncThreads:
    case Intrinsic::CudaSharedF32:
        throw ExecError("sequential device emulation cannot execute syncthreads/shared memory; "
                        "use the JIT + GpuSim");

    case Intrinsic::GpuMallocF32:
        if (!opts_.deviceEmulation) break;
        return newArray(Type::f32(), arg(0).asI32());
    case Intrinsic::GpuFree:
        if (!opts_.deviceEmulation) break;
        arg(0);
        return Value();
    case Intrinsic::GpuMemcpyH2DOffF32:
    case Intrinsic::GpuMemcpyD2HOffF32: {
        if (!opts_.deviceEmulation) break;
        Value dst = arg(0);
        int32_t dstOff = arg(1).asI32();
        Value src = arg(2);
        int32_t srcOff = arg(3).asI32();
        int32_t n = arg(4).asI32();
        const ArrRef& d = dst.asArr();
        const ArrRef& s2 = src.asArr();
        if (!d || !s2) throw ExecError("NullPointerException: memcpy");
        if (dstOff < 0 || srcOff < 0 || n < 0 ||
            static_cast<size_t>(dstOff) + static_cast<size_t>(n) > d->data.size() ||
            static_cast<size_t>(srcOff) + static_cast<size_t>(n) > s2->data.size()) {
            throw ExecError("memcpy range out of bounds");
        }
        for (int32_t i = 0; i < n; ++i) {
            d->data[static_cast<size_t>(dstOff + i)] = s2->data[static_cast<size_t>(srcOff + i)];
        }
        return Value();
    }
    case Intrinsic::GpuMemcpyH2DF32:
    case Intrinsic::GpuMemcpyD2HF32: {
        if (!opts_.deviceEmulation) break;
        Value dst = arg(0);
        Value src = arg(1);
        int32_t n = arg(2).asI32();
        const ArrRef& d = dst.asArr();
        const ArrRef& s = src.asArr();
        if (!d || !s) throw ExecError("NullPointerException: memcpy");
        if (n < 0 || static_cast<size_t>(n) > d->data.size() ||
            static_cast<size_t>(n) > s->data.size()) {
            throw ExecError("memcpy length out of range");
        }
        for (int32_t i = 0; i < n; ++i) d->data[static_cast<size_t>(i)] = s->data[static_cast<size_t>(i)];
        return Value();
    }

    // Checkpoint/restart: the interpreter is a 1-rank world, so the store is
    // keyed with rank 0 — matching wjrt_ckpt_*_f32 without a bound world.
    case Intrinsic::CkptSaveF32: {
        Value buf = arg(0);
        int32_t n = arg(1).asI32();
        int32_t slot = arg(2).asI32();
        int32_t iter = arg(3).asI32();
        const ArrRef& a = buf.asArr();
        if (!a) throw ExecError("NullPointerException: ckptSaveF32");
        if (n < 0 || static_cast<size_t>(n) > a->data.size()) {
            throw ExecError("ckptSaveF32 length out of range");
        }
        std::vector<float> raw(static_cast<size_t>(n));
        for (int32_t i = 0; i < n; ++i) raw[static_cast<size_t>(i)] = a->data[static_cast<size_t>(i)].asF32();
        fault::CheckpointStore::instance().save(0, slot, iter, raw.data(), raw.size());
        return Value();
    }
    case Intrinsic::CkptLoadF32: {
        Value buf = arg(0);
        int32_t n = arg(1).asI32();
        int32_t slot = arg(2).asI32();
        const ArrRef& a = buf.asArr();
        if (!a) throw ExecError("NullPointerException: ckptLoadF32");
        if (n < 0 || static_cast<size_t>(n) > a->data.size()) {
            throw ExecError("ckptLoadF32 length out of range");
        }
        std::vector<float> raw(static_cast<size_t>(n));
        int32_t got = fault::CheckpointStore::instance().load(0, slot, raw.data(), raw.size());
        if (got >= 0) {
            for (int32_t i = 0; i < n; ++i) a->data[static_cast<size_t>(i)] = Value::ofF32(raw[static_cast<size_t>(i)]);
        }
        return Value::ofI32(got);
    }

    default:
        break;
    }
    throw ExecError(std::string("the JVM cannot execute ") + intrinsicSig(e.op).name +
                    "; translate the code with WootinJ.jit()/jit4mpi()");
}

} // namespace wj
