#include "ir/builder.h"

#include "support/diagnostics.h"
#include "support/strings.h"

namespace wj {

// ------------------------------------------------------------ MethodBuilder

MethodBuilder& MethodBuilder::param(std::string name, Type t) {
    if (!isIdentifier(name)) throw UsageError("bad parameter name: " + name);
    m_.params.push_back({std::move(name), std::move(t)});
    return *this;
}

MethodBuilder& MethodBuilder::abstractMethod() {
    m_.isAbstract = true;
    return *this;
}

MethodBuilder& MethodBuilder::staticMethod() {
    m_.isStatic = true;
    return *this;
}

MethodBuilder& MethodBuilder::global() {
    m_.isGlobal = true;
    return *this;
}

MethodBuilder& MethodBuilder::body(Block b) {
    if (m_.isAbstract) throw UsageError(m_.name + ": abstract method cannot have a body");
    if (!m_.body.empty()) throw UsageError(m_.name + ": body already set");
    m_.body = std::move(b);
    return *this;
}

// ------------------------------------------------------------- ClassBuilder

ClassBuilder& ClassBuilder::extends(std::string superName) {
    if (!c_.superName.empty()) throw UsageError(c_.name + ": superclass already set");
    c_.superName = std::move(superName);
    return *this;
}

ClassBuilder& ClassBuilder::implements(std::string interfaceName) {
    c_.interfaces.push_back(std::move(interfaceName));
    return *this;
}

ClassBuilder& ClassBuilder::interfaceClass() {
    c_.isInterface = true;
    return *this;
}

ClassBuilder& ClassBuilder::finalClass() {
    c_.declaredFinal = true;
    return *this;
}

ClassBuilder& ClassBuilder::notWootinJ() {
    c_.wootinj = false;
    return *this;
}

ClassBuilder& ClassBuilder::field(std::string name, Type t) {
    if (!isIdentifier(name)) throw UsageError("bad field name: " + name);
    c_.fields.push_back({std::move(name), std::move(t), false});
    return *this;
}

ClassBuilder& ClassBuilder::sharedField(std::string name, Type t) {
    if (!t.isArray()) throw UsageError(c_.name + "." + name + ": @Shared requires an array type");
    c_.fields.push_back({std::move(name), std::move(t), true});
    return *this;
}

ClassBuilder& ClassBuilder::staticConstI32(std::string name, int32_t v) {
    c_.statics.push_back({std::move(name), Type::i32(), v, 0});
    return *this;
}

ClassBuilder& ClassBuilder::staticConst(std::string name, Type t, int64_t i, double f) {
    if (!t.isPrim()) throw UsageError(c_.name + "." + name + ": static fields must be primitive");
    c_.statics.push_back({std::move(name), std::move(t), i, f});
    return *this;
}

MethodBuilder& ClassBuilder::ctor() {
    if (c_.ctor) throw UsageError(c_.name + ": constructor already defined");
    c_.ctor = std::make_unique<Method>();
    c_.ctor->name = "<init>";
    methodBuilders_.emplace_back(MethodBuilder(*c_.ctor));
    return methodBuilders_.back();
}

MethodBuilder& ClassBuilder::method(std::string name, Type ret) {
    if (!isIdentifier(name)) throw UsageError("bad method name: " + name);
    if (c_.ownMethod(name)) throw UsageError(c_.name + "." + name + ": duplicate method (no overloading in WJ IR)");
    auto m = std::make_unique<Method>();
    m->name = std::move(name);
    m->ret = std::move(ret);
    c_.methods.push_back(std::move(m));
    methodBuilders_.emplace_back(MethodBuilder(*c_.methods.back()));
    return methodBuilders_.back();
}

// ----------------------------------------------------------- ProgramBuilder

ProgramBuilder::ProgramBuilder() = default;

ClassBuilder& ProgramBuilder::cls(std::string name) {
    if (built_) throw UsageError("ProgramBuilder reused after build()");
    if (!isIdentifier(name)) throw UsageError("bad class name: " + name);
    auto c = std::make_unique<ClassDecl>();
    c->name = std::move(name);
    classes_.push_back(std::move(c));
    classBuilders_.emplace_back(ClassBuilder(*classes_.back()));
    return classBuilders_.back();
}

void ProgramBuilder::addBuiltins() {
    using namespace dsl;

    // dim3: the CUDA dim3 type (Section 3.1). Strict-final, semi-immutable.
    {
        auto& b = cls(Program::dim3Class()).finalClass();
        b.field("x", Type::i32()).field("y", Type::i32()).field("z", Type::i32());
        b.ctor()
            .param("x_", Type::i32())
            .param("y_", Type::i32())
            .param("z_", Type::i32())
            .body(blk(setSelf("x", lv("x_")), setSelf("y", lv("y_")), setSelf("z", lv("z_"))));
    }
    // CudaConfig: carries the <<<grid, block, sharedBytes>>> launch
    // configuration that a @Global method receives as its first parameter.
    {
        auto& b = cls(Program::cudaConfigClass()).finalClass();
        b.field("grid", Type::cls(Program::dim3Class()));
        b.field("block", Type::cls(Program::dim3Class()));
        b.field("sharedBytes", Type::i32());
        b.ctor()
            .param("grid_", Type::cls(Program::dim3Class()))
            .param("block_", Type::cls(Program::dim3Class()))
            .param("sharedBytes_", Type::i32())
            .body(blk(setSelf("grid", lv("grid_")), setSelf("block", lv("block_")),
                      setSelf("sharedBytes", lv("sharedBytes_"))));
    }
}

Program ProgramBuilder::build() {
    if (built_) throw UsageError("ProgramBuilder reused after build()");
    addBuiltins();
    built_ = true;
    Program p(std::move(classes_));
    p.validate();
    return p;
}

// ------------------------------------------------------------------- dsl

namespace dsl {

ExprPtr cb(bool v) { return std::make_unique<ConstExpr>(Type::boolean(), v ? 1 : 0, 0.0); }
ExprPtr ci(int32_t v) { return std::make_unique<ConstExpr>(Type::i32(), v, 0.0); }
ExprPtr cl(int64_t v) { return std::make_unique<ConstExpr>(Type::i64(), v, 0.0); }
ExprPtr cf(float v) { return std::make_unique<ConstExpr>(Type::f32(), 0, v); }
ExprPtr cd(double v) { return std::make_unique<ConstExpr>(Type::f64(), 0, v); }

ExprPtr lv(std::string name) { return std::make_unique<LocalExpr>(std::move(name)); }
ExprPtr self() { return std::make_unique<ThisExpr>(); }
ExprPtr getf(ExprPtr obj, std::string field) {
    return std::make_unique<FieldGetExpr>(std::move(obj), std::move(field));
}
ExprPtr selff(std::string field) { return getf(self(), std::move(field)); }
ExprPtr sget(std::string cls, std::string field) {
    return std::make_unique<StaticGetExpr>(std::move(cls), std::move(field));
}
ExprPtr aget(ExprPtr arr, ExprPtr idx) {
    return std::make_unique<ArrayGetExpr>(std::move(arr), std::move(idx));
}
ExprPtr alen(ExprPtr arr) { return std::make_unique<ArrayLenExpr>(std::move(arr)); }

ExprPtr neg(ExprPtr e) { return std::make_unique<UnaryExpr>(UnOp::Neg, std::move(e)); }
ExprPtr lnot(ExprPtr e) { return std::make_unique<UnaryExpr>(UnOp::Not, std::move(e)); }

namespace {
ExprPtr bin(BinOp op, ExprPtr a, ExprPtr b) {
    return std::make_unique<BinaryExpr>(op, std::move(a), std::move(b));
}
} // namespace

ExprPtr add(ExprPtr a, ExprPtr b) { return bin(BinOp::Add, std::move(a), std::move(b)); }
ExprPtr sub(ExprPtr a, ExprPtr b) { return bin(BinOp::Sub, std::move(a), std::move(b)); }
ExprPtr mul(ExprPtr a, ExprPtr b) { return bin(BinOp::Mul, std::move(a), std::move(b)); }
ExprPtr divE(ExprPtr a, ExprPtr b) { return bin(BinOp::Div, std::move(a), std::move(b)); }
ExprPtr rem(ExprPtr a, ExprPtr b) { return bin(BinOp::Rem, std::move(a), std::move(b)); }
ExprPtr lt(ExprPtr a, ExprPtr b) { return bin(BinOp::Lt, std::move(a), std::move(b)); }
ExprPtr le(ExprPtr a, ExprPtr b) { return bin(BinOp::Le, std::move(a), std::move(b)); }
ExprPtr gt(ExprPtr a, ExprPtr b) { return bin(BinOp::Gt, std::move(a), std::move(b)); }
ExprPtr ge(ExprPtr a, ExprPtr b) { return bin(BinOp::Ge, std::move(a), std::move(b)); }
ExprPtr eq(ExprPtr a, ExprPtr b) { return bin(BinOp::Eq, std::move(a), std::move(b)); }
ExprPtr ne(ExprPtr a, ExprPtr b) { return bin(BinOp::Ne, std::move(a), std::move(b)); }
ExprPtr land(ExprPtr a, ExprPtr b) { return bin(BinOp::LAnd, std::move(a), std::move(b)); }
ExprPtr lor(ExprPtr a, ExprPtr b) { return bin(BinOp::LOr, std::move(a), std::move(b)); }
ExprPtr ternary(ExprPtr c, ExprPtr t, ExprPtr f) {
    return std::make_unique<CondExpr>(std::move(c), std::move(t), std::move(f));
}

std::vector<ExprPtr> exprVec() { return {}; }

ExprPtr callV(ExprPtr recv, std::string method, std::vector<ExprPtr> args) {
    return std::make_unique<CallExpr>(std::move(recv), std::move(method), std::move(args));
}

ExprPtr scallV(std::string cls, std::string method, std::vector<ExprPtr> args) {
    return std::make_unique<StaticCallExpr>(std::move(cls), std::move(method), std::move(args));
}

ExprPtr newObjV(std::string cls, std::vector<ExprPtr> args) {
    return std::make_unique<NewExpr>(std::move(cls), std::move(args));
}

ExprPtr newArr(Type elem, ExprPtr len) {
    return std::make_unique<NewArrayExpr>(std::move(elem), std::move(len));
}

ExprPtr cast(Type t, ExprPtr e) { return std::make_unique<CastExpr>(std::move(t), std::move(e)); }

ExprPtr intrV(Intrinsic op, std::vector<ExprPtr> args) {
    return std::make_unique<IntrinsicExpr>(op, std::move(args));
}

ExprPtr mpiRank() { return intrV(Intrinsic::MpiRank, {}); }
ExprPtr mpiSize() { return intrV(Intrinsic::MpiSize, {}); }
ExprPtr tidxX() { return intrV(Intrinsic::CudaThreadIdxX, {}); }
ExprPtr tidxY() { return intrV(Intrinsic::CudaThreadIdxY, {}); }
ExprPtr bidxX() { return intrV(Intrinsic::CudaBlockIdxX, {}); }
ExprPtr bidxY() { return intrV(Intrinsic::CudaBlockIdxY, {}); }
ExprPtr bdimX() { return intrV(Intrinsic::CudaBlockDimX, {}); }

ExprPtr dim3of(ExprPtr x) { return newObj(Program::dim3Class(), std::move(x), ci(1), ci(1)); }
ExprPtr dim3of(ExprPtr x, ExprPtr y) {
    return newObj(Program::dim3Class(), std::move(x), std::move(y), ci(1));
}
ExprPtr cudaConfig(ExprPtr grid, ExprPtr block, ExprPtr sharedBytes) {
    return newObj(Program::cudaConfigClass(), std::move(grid), std::move(block), std::move(sharedBytes));
}

Block blk() { return {}; }

StmtPtr decl(std::string name, Type t, ExprPtr init) {
    return std::make_unique<DeclStmt>(std::move(name), std::move(t), std::move(init));
}
StmtPtr declUninit(std::string name, Type t) {
    return std::make_unique<DeclStmt>(std::move(name), std::move(t), nullptr);
}
StmtPtr assign(std::string name, ExprPtr v) {
    return std::make_unique<AssignLocalStmt>(std::move(name), std::move(v));
}
StmtPtr setf(ExprPtr obj, std::string field, ExprPtr v) {
    return std::make_unique<FieldSetStmt>(std::move(obj), std::move(field), std::move(v));
}
StmtPtr setSelf(std::string field, ExprPtr v) {
    return setf(self(), std::move(field), std::move(v));
}
StmtPtr aset(ExprPtr arr, ExprPtr idx, ExprPtr v) {
    return std::make_unique<ArraySetStmt>(std::move(arr), std::move(idx), std::move(v));
}
StmtPtr ifs(ExprPtr cond, Block thenB, Block elseB) {
    return std::make_unique<IfStmt>(std::move(cond), std::move(thenB), std::move(elseB));
}
StmtPtr whileS(ExprPtr cond, Block body) {
    return std::make_unique<WhileStmt>(std::move(cond), std::move(body));
}
StmtPtr forI32(std::string var, ExprPtr init, ExprPtr cond, ExprPtr step, Block body) {
    return std::make_unique<ForStmt>(std::move(var), Type::i32(), std::move(init),
                                     std::move(cond), std::move(step), std::move(body));
}
StmtPtr forRange(std::string var, ExprPtr lo, ExprPtr hi, Block body) {
    ExprPtr cond = lt(lv(var), std::move(hi));
    ExprPtr step = add(lv(var), ci(1));
    return forI32(var, std::move(lo), std::move(cond), std::move(step), std::move(body));
}
StmtPtr ret(ExprPtr v) { return std::make_unique<ReturnStmt>(std::move(v)); }
StmtPtr retVoid() { return std::make_unique<ReturnStmt>(nullptr); }
StmtPtr exprS(ExprPtr e) { return std::make_unique<ExprStmt>(std::move(e)); }
StmtPtr superCtorV(std::vector<ExprPtr> args) {
    return std::make_unique<SuperCtorStmt>(std::move(args));
}

} // namespace dsl
} // namespace wj
