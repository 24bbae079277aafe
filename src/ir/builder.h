// Builder DSL for constructing WJ IR programs.
//
// This layer is WootinC's substitute for `javac`: library and application
// classes are written as fluent builder calls plus expression/statement
// helper functions (namespace wj::dsl). The result is a validated Program.
//
//   ProgramBuilder pb;
//   auto& c = pb.cls("Dif1DSolver").extends("OneDSolver").finalClass();
//   c.method("solve", Type::f32())
//       .param("left", Type::f32())
//       .param("right", Type::f32())
//       .body(blk(ret(mul(cf(0.5f), add(lv("left"), lv("right"))))));
//   Program p = pb.build();
//
// build() registers the built-in dim3 and CudaConfig classes (Section 3.1)
// and runs structural validation.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/program.h"

namespace wj {

class ClassBuilder;

class MethodBuilder {
public:
    MethodBuilder& param(std::string name, Type t);
    MethodBuilder& abstractMethod();
    MethodBuilder& staticMethod();
    /// Marks @Global (CUDA kernel). The first parameter must be a CudaConfig.
    MethodBuilder& global();
    /// Installs the body statements. May be called once.
    MethodBuilder& body(Block b);

private:
    friend class ClassBuilder;
    explicit MethodBuilder(Method& m) : m_(m) {}
    Method& m_;
};

class ClassBuilder {
public:
    ClassBuilder& extends(std::string superName);
    ClassBuilder& implements(std::string interfaceName);
    ClassBuilder& interfaceClass();
    ClassBuilder& finalClass();
    /// Marks the class as NOT annotated @WootinJ (host-only, untranslatable).
    ClassBuilder& notWootinJ();

    ClassBuilder& field(std::string name, Type t);
    /// @Shared array field (CUDA block-shared memory).
    ClassBuilder& sharedField(std::string name, Type t);
    ClassBuilder& staticConstI32(std::string name, int32_t v);
    /// Generic form (any primitive type; value in `i` or `f` per the type).
    ClassBuilder& staticConst(std::string name, Type t, int64_t i, double f);

    /// Begins the constructor; parameters and body via the returned builder.
    MethodBuilder& ctor();
    /// Begins a method.
    MethodBuilder& method(std::string name, Type ret);

private:
    friend class ProgramBuilder;
    explicit ClassBuilder(ClassDecl& c) : c_(c) {}
    ClassDecl& c_;
    std::deque<MethodBuilder> methodBuilders_;
};

class ProgramBuilder {
public:
    ProgramBuilder();

    /// Starts a new class. The returned builder stays valid until build().
    ClassBuilder& cls(std::string name);

    /// Finalizes: adds builtins, validates, and returns the Program.
    /// The builder must not be reused afterwards.
    Program build();

private:
    void addBuiltins();
    std::vector<std::unique_ptr<ClassDecl>> classes_;
    std::deque<ClassBuilder> classBuilders_;
    bool built_ = false;
};

// --------------------------------------------------------------------------
// Expression / statement construction helpers.
// --------------------------------------------------------------------------
namespace dsl {

// ----- constants
ExprPtr cb(bool v);
ExprPtr ci(int32_t v);
ExprPtr cl(int64_t v);
ExprPtr cf(float v);
ExprPtr cd(double v);

// ----- references
ExprPtr lv(std::string name);                    ///< local / parameter
ExprPtr self();                                  ///< this
ExprPtr getf(ExprPtr obj, std::string field);    ///< obj.field
ExprPtr selff(std::string field);                ///< this.field
ExprPtr sget(std::string cls, std::string field);///< Cls.FIELD
ExprPtr aget(ExprPtr arr, ExprPtr idx);
ExprPtr alen(ExprPtr arr);

// ----- operators
ExprPtr neg(ExprPtr e);
ExprPtr lnot(ExprPtr e);
ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr divE(ExprPtr a, ExprPtr b);
ExprPtr rem(ExprPtr a, ExprPtr b);
ExprPtr lt(ExprPtr a, ExprPtr b);
ExprPtr le(ExprPtr a, ExprPtr b);
ExprPtr gt(ExprPtr a, ExprPtr b);
ExprPtr ge(ExprPtr a, ExprPtr b);
ExprPtr eq(ExprPtr a, ExprPtr b);
ExprPtr ne(ExprPtr a, ExprPtr b);
ExprPtr land(ExprPtr a, ExprPtr b);
ExprPtr lor(ExprPtr a, ExprPtr b);
ExprPtr ternary(ExprPtr c, ExprPtr t, ExprPtr f);  ///< forbidden by rule 7; exists for the verifier

// ----- calls / allocation
std::vector<ExprPtr> exprVec();
template <typename... Es>
std::vector<ExprPtr> exprVec(ExprPtr first, Es... rest) {
    std::vector<ExprPtr> v = exprVec(std::move(rest)...);
    v.insert(v.begin(), std::move(first));
    return v;
}

ExprPtr callV(ExprPtr recv, std::string method, std::vector<ExprPtr> args);
template <typename... Es>
ExprPtr call(ExprPtr recv, std::string method, Es... args) {
    return callV(std::move(recv), std::move(method), exprVec(std::move(args)...));
}

ExprPtr scallV(std::string cls, std::string method, std::vector<ExprPtr> args);

ExprPtr newObjV(std::string cls, std::vector<ExprPtr> args);
template <typename... Es>
ExprPtr newObj(std::string cls, Es... args) {
    return newObjV(std::move(cls), exprVec(std::move(args)...));
}

ExprPtr newArr(Type elem, ExprPtr len);
ExprPtr cast(Type t, ExprPtr e);

ExprPtr intrV(Intrinsic op, std::vector<ExprPtr> args);
template <typename... Es>
ExprPtr intr(Intrinsic op, Es... args) {
    return intrV(op, exprVec(std::move(args)...));
}

// ----- intrinsic sugar
ExprPtr mpiRank();
ExprPtr mpiSize();
ExprPtr tidxX();
ExprPtr tidxY();
ExprPtr bidxX();
ExprPtr bidxY();
ExprPtr bdimX();
/// new dim3(x, 1, 1)
ExprPtr dim3of(ExprPtr x);
ExprPtr dim3of(ExprPtr x, ExprPtr y);
/// new CudaConfig(grid, block, sharedBytes)
ExprPtr cudaConfig(ExprPtr grid, ExprPtr block, ExprPtr sharedBytes);

// ----- statements
Block blk();
template <typename... Ss>
Block blk(StmtPtr first, Ss... rest) {
    Block b = blk(std::move(rest)...);
    b.insert(b.begin(), std::move(first));
    return b;
}

StmtPtr decl(std::string name, Type t, ExprPtr init);
/// `T name;` — declaration without initializer (primitive/array types only).
StmtPtr declUninit(std::string name, Type t);
StmtPtr assign(std::string name, ExprPtr v);
StmtPtr setf(ExprPtr obj, std::string field, ExprPtr v);
StmtPtr setSelf(std::string field, ExprPtr v);   ///< this.field = v
StmtPtr aset(ExprPtr arr, ExprPtr idx, ExprPtr v);
StmtPtr ifs(ExprPtr cond, Block thenB, Block elseB = {});
StmtPtr whileS(ExprPtr cond, Block body);
/// for (int v = init; cond; v = step) body  — `cond`/`step` see `v` via lv(v).
StmtPtr forI32(std::string var, ExprPtr init, ExprPtr cond, ExprPtr step, Block body);
/// Canonical counted loop: for (int v = lo; v < hi; v = v + 1) body.
StmtPtr forRange(std::string var, ExprPtr lo, ExprPtr hi, Block body);
StmtPtr ret(ExprPtr v);
StmtPtr retVoid();
StmtPtr exprS(ExprPtr e);
StmtPtr superCtorV(std::vector<ExprPtr> args);
template <typename... Es>
StmtPtr superCtor(Es... args) {
    return superCtorV(exprVec(std::move(args)...));
}

} // namespace dsl
} // namespace wj
