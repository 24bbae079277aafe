#include "rules/rules.h"

#include <functional>
#include <set>

#include "analysis/callgraph.h"
#include "analysis/facts.h"
#include "ir/typecheck.h"

namespace wj {

// ------------------------------------------------------------ TypeProperties

bool TypeProperties::strictFinalType(const Type& t, std::string* why) {
    switch (t.kind()) {
    case Type::Kind::Void:
    case Type::Kind::Prim:
        return true;
    case Type::Kind::Array:
        return strictFinalType(t.elem(), why);
    case Type::Kind::Class:
        return strictFinalClass(t.className(), why);
    }
    return false;
}

bool TypeProperties::strictFinalClass(const std::string& name, std::string* why) {
    auto it = sfCache_.find(name);
    if (it != sfCache_.end()) {
        if (it->second == Tri::InProgress) {
            // Field chain reaches back to this class: recursive, cannot be a
            // finite set of inlined primitives.
            if (why) *why = name + " is a recursive type";
            return false;
        }
        return it->second == Tri::Yes;
    }
    sfCache_[name] = Tri::InProgress;

    auto fail = [&](const std::string& reason) {
        sfCache_[name] = Tri::No;
        if (why) *why = reason;
        return false;
    };

    const ClassDecl* c = prog_->cls(name);
    if (!c) return fail("unknown class " + name);
    if (c->isInterface) return fail(name + " is an interface (not a leaf class)");
    for (const auto& m : c->methods) {
        if (m->isAbstract) return fail(name + " is abstract (not instantiable)");
    }
    if (!prog_->isLeaf(name)) return fail(name + " has subclasses (not a leaf class)");
    for (const Field* f : prog_->allFields(name)) {
        std::string sub;
        if (!strictFinalType(f->type, &sub)) {
            return fail(name + "." + f->name + " is not of a strict-final type (" + sub + ")");
        }
    }
    sfCache_[name] = Tri::Yes;
    return true;
}

bool TypeProperties::semiImmutableType(const Type& t, std::string* why) {
    switch (t.kind()) {
    case Type::Kind::Void:
    case Type::Kind::Prim:
        return true;
    case Type::Kind::Array: {
        std::string sub;
        if (!semiImmutableType(t.elem(), &sub)) {
            if (why) *why = "array element not semi-immutable: " + sub;
            return false;
        }
        if (!strictFinalType(t.elem(), &sub)) {
            if (why) *why = "array element not strict-final: " + sub;
            return false;
        }
        return true;
    }
    case Type::Kind::Class:
        return semiImmutableClass(t.className(), why);
    }
    return false;
}

namespace {

/// True if `e` contains a ThisExpr anywhere.
bool usesThis(const Expr& e);

bool anyArg(const std::vector<ExprPtr>& args, bool (*pred)(const Expr&)) {
    for (const auto& a : args) {
        if (pred(*a)) return true;
    }
    return false;
}

bool usesThis(const Expr& e) {
    switch (e.kind) {
    case ExprKind::This: return true;
    case ExprKind::Const: case ExprKind::Local: case ExprKind::StaticGet: return false;
    case ExprKind::FieldGet: return usesThis(*as<FieldGetExpr>(e).obj);
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        return usesThis(*n.arr) || usesThis(*n.idx);
    }
    case ExprKind::ArrayLen: return usesThis(*as<ArrayLenExpr>(e).arr);
    case ExprKind::Unary: return usesThis(*as<UnaryExpr>(e).e);
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        return usesThis(*n.l) || usesThis(*n.r);
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        return usesThis(*n.c) || usesThis(*n.t) || usesThis(*n.f);
    }
    case ExprKind::Call: {
        const auto& n = as<CallExpr>(e);
        return usesThis(*n.recv) || anyArg(n.args, usesThis);
    }
    case ExprKind::StaticCall: return anyArg(as<StaticCallExpr>(e).args, usesThis);
    case ExprKind::New: return anyArg(as<NewExpr>(e).args, usesThis);
    case ExprKind::NewArray: return usesThis(*as<NewArrayExpr>(e).len);
    case ExprKind::Cast: return usesThis(*as<CastExpr>(e).e);
    case ExprKind::IntrinsicCall: return anyArg(as<IntrinsicExpr>(e).args, usesThis);
    }
    return false;
}

/// True if `e` contains any call (method, static, or intrinsic).
bool containsCall(const Expr& e) {
    switch (e.kind) {
    case ExprKind::Call: case ExprKind::StaticCall: case ExprKind::IntrinsicCall:
        return true;
    case ExprKind::Const: case ExprKind::Local: case ExprKind::This:
    case ExprKind::StaticGet:
        return false;
    case ExprKind::FieldGet: return containsCall(*as<FieldGetExpr>(e).obj);
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        return containsCall(*n.arr) || containsCall(*n.idx);
    }
    case ExprKind::ArrayLen: return containsCall(*as<ArrayLenExpr>(e).arr);
    case ExprKind::Unary: return containsCall(*as<UnaryExpr>(e).e);
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        return containsCall(*n.l) || containsCall(*n.r);
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        return containsCall(*n.c) || containsCall(*n.t) || containsCall(*n.f);
    }
    case ExprKind::New: return anyArg(as<NewExpr>(e).args, containsCall);
    case ExprKind::NewArray: return containsCall(*as<NewArrayExpr>(e).len);
    case ExprKind::Cast: return containsCall(*as<CastExpr>(e).e);
    }
    return false;
}

/// Constructor restrictions of semi-immutable definition 3(d): straight-line
/// field initialization only. `new` of other (semi-immutable) classes is
/// permitted — their constructors are equally restricted, so the composed
/// initialization is still branch-free. Returns a reason or "".
std::string ctorViolation(const Method& ctor) {
    bool first = true;
    for (const auto& st : ctor.body) {
        switch (st->kind) {
        case StmtKind::SuperCtor: {
            if (!first) return "super(...) is not the first statement";
            const auto& n = as<SuperCtorStmt>(*st);
            for (const auto& a : n.args) {
                if (usesThis(*a)) return "constructor uses `this` in super(...) arguments";
                if (containsCall(*a)) return "constructor calls a method in super(...) arguments";
            }
            break;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(*st);
            if (n.obj->kind != ExprKind::This) {
                return "constructor stores to a field of another object";
            }
            if (usesThis(*n.value)) return "constructor uses `this` in an initializer";
            if (containsCall(*n.value)) return "constructor calls a method";
            break;
        }
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(*st);
            if (n.init && usesThis(*n.init)) return "constructor uses `this` in a local initializer";
            if (n.init && containsCall(*n.init)) return "constructor calls a method";
            break;
        }
        case StmtKind::Return:
            if (as<ReturnStmt>(*st).value) return "constructor returns a value";
            break;
        case StmtKind::If: case StmtKind::While: case StmtKind::For:
            return "constructor contains a conditional branch or loop";
        default:
            return "constructor contains a disallowed statement";
        }
        first = false;
    }
    // No ?: anywhere (covered by branch rule — Cond may hide in exprs).
    return "";
}

/// Name of the class in `cls`'s superclass chain (inclusive) declaring `field`.
std::string fieldOwnerName(const Program& prog, const std::string& cls, const std::string& field) {
    for (const ClassDecl* c = prog.cls(cls); c;
         c = c->superName.empty() ? nullptr : prog.cls(c->superName)) {
        if (c->ownField(field)) return c->name;
    }
    return "";
}

} // namespace

bool TypeProperties::semiImmutableClass(const std::string& name, std::string* why) {
    auto it = siCache_.find(name);
    if (it != siCache_.end()) {
        if (it->second == Tri::InProgress) {
            if (why) *why = name + " is a recursive type";  // definition 3(e)
            return false;
        }
        return it->second == Tri::Yes;
    }
    siCache_[name] = Tri::InProgress;

    auto fail = [&](const std::string& reason) {
        siCache_[name] = Tri::No;
        if (why) *why = reason;
        return false;
    };

    const ClassDecl* c = prog_->cls(name);
    if (!c) return fail("unknown class " + name);

    // (b) superclasses semi-immutable.
    if (!c->superName.empty()) {
        std::string sub;
        if (!semiImmutableClass(c->superName, &sub)) {
            return fail("superclass not semi-immutable: " + sub);
        }
    }
    // (a) + (e) fields of semi-immutable types; recursion detected via cache.
    for (const auto& f : c->fields) {
        std::string sub;
        if (!semiImmutableType(f.type, &sub)) {
            return fail(name + "." + f.name + " not of a semi-immutable type (" + sub + ")");
        }
    }
    // (d) constructor restrictions.
    if (c->ctor) {
        std::string v = ctorViolation(*c->ctor);
        if (!v.empty()) return fail(name + ": " + v);
    }
    // (c) — constancy of non-array fields is a whole-program property over
    // method bodies; verifyCodingRules performs that scan. Here we certify
    // the per-type structure.
    siCache_[name] = Tri::Yes;
    return true;
}

bool TypeProperties::isStrictFinal(const Type& t) { return strictFinalType(t, nullptr); }
bool TypeProperties::isSemiImmutable(const Type& t) { return semiImmutableType(t, nullptr); }

std::string TypeProperties::explainStrictFinal(const Type& t) {
    // Bypass the cache for classes so the explanation is regenerated.
    sfCache_.clear();
    std::string why;
    return strictFinalType(t, &why) ? std::string() : why;
}

std::string TypeProperties::explainSemiImmutable(const Type& t) {
    siCache_.clear();
    sfCache_.clear();
    std::string why;
    return semiImmutableType(t, &why) ? std::string() : why;
}

// --------------------------------------------------------- verifyCodingRules

namespace {

class RuleChecker {
public:
    explicit RuleChecker(const Program& prog) : prog_(prog), props_(prog) {}

    std::vector<Violation> run() {
        for (const ClassDecl* c : prog_.classes()) {
            if (!c->wootinj) continue;
            checkClass(*c);
        }
        checkRecursion();
        return std::move(violations_);
    }

private:
    void report(const std::string& rule, const std::string& where, const std::string& detail) {
        violations_.push_back({rule, where, detail});
    }

    void requireSemiImmutable(const Type& t, const std::string& where) {
        if (t.isVoid()) return;
        std::string key = t.str();
        if (!checkedSI_.insert(key + "@" + where).second) return;
        if (!props_.isSemiImmutable(t)) {
            report("rule-1", where, t.str() + " is not semi-immutable: " +
                                        props_.explainSemiImmutable(t));
        }
    }

    void requireStrictFinal(const Type& t, const std::string& where, const std::string& what) {
        if (t.isVoid()) return;
        if (!props_.isStrictFinal(t)) {
            report("rule-2", where,
                   what + " type " + t.str() + " is not strict-final: " +
                       props_.explainStrictFinal(t));
        }
    }

    void checkClass(const ClassDecl& c) {
        const std::string where = c.name;
        // Rule 1 on field/static types; the class's own type.
        requireSemiImmutable(Type::cls(c.name), where);
        for (const auto& f : c.fields) requireSemiImmutable(f.type, where + "." + f.name);
        // Rule 5: statics final primitives (IR can only hold final statics;
        // still reject non-primitive types defensively).
        for (const auto& sf : c.statics) {
            if (!sf.type.isPrim()) {
                report("rule-5", where + "." + sf.name, "static field of non-primitive type " +
                                                            sf.type.str());
            }
        }
        if (c.ctor) checkMethod(c, *c.ctor);
        for (const auto& m : c.methods) checkMethod(c, *m);
    }

    void checkMethod(const ClassDecl& c, const Method& m) {
        const std::string where = c.name + "." + (m.isCtor() ? "<init>" : m.name);
        // Rule 1 on parameter and return types; rule 2 exempts parameters
        // and fields but *not* return types.
        for (const auto& p : m.params) requireSemiImmutable(p.type, where);
        requireSemiImmutable(m.ret, where);
        if (!m.isCtor()) requireStrictFinal(m.ret, where, "return");
        if (m.isAbstract) return;

        TypeScope scope(prog_, m.isStatic ? nullptr : &c, m);
        inCtor_ = m.isCtor();
        checkBlock(scope, m.body, where);
        inCtor_ = false;
    }

    void checkBlock(TypeScope& s, const Block& b, const std::string& where) {
        for (const auto& st : b) checkStmt(s, *st, where);
    }

    void checkStmt(TypeScope& s, const Stmt& st, const std::string& where) {
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            requireStrictFinal(n.type, where, "local '" + n.name + "'");
            requireSemiImmutable(n.type, where);
            if (n.init) checkExpr(s, *n.init, where);
            s.declare(n.name, n.type);
            return;
        }
        case StmtKind::AssignLocal: {
            const auto& n = as<AssignLocalStmt>(st);
            if (s.isParam(n.name)) {
                report("rule-3", where, "assignment to method parameter '" + n.name + "'");
            }
            checkExpr(s, *n.value, where);
            return;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            checkExpr(s, *n.obj, where);
            checkExpr(s, *n.value, where);
            // Semi-immutability (c): outside constructors, only array-typed
            // fields may be stored.
            if (!inCtor_) {
                Type ot = typeOf(s, *n.obj);
                if (ot.isClass()) {
                    const Field* f = prog_.resolveField(ot.className(), n.field);
                    if (f && !f->type.isArray()) {
                        report("semi-immutable", where,
                               "store to non-array field " +
                                   fieldOwnerName(prog_, ot.className(), n.field) + "." + n.field +
                                   " outside a constructor");
                    }
                }
            }
            return;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(st);
            checkExpr(s, *n.arr, where);
            checkExpr(s, *n.idx, where);
            checkExpr(s, *n.value, where);
            return;
        }
        case StmtKind::If: {
            const auto& n = as<IfStmt>(st);
            checkExpr(s, *n.cond, where);
            s.push();
            checkBlock(s, n.thenB, where);
            s.pop();
            s.push();
            checkBlock(s, n.elseB, where);
            s.pop();
            return;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(st);
            checkExpr(s, *n.cond, where);
            s.push();
            checkBlock(s, n.body, where);
            s.pop();
            return;
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(st);
            requireStrictFinal(n.varType, where, "loop variable '" + n.var + "'");
            s.push();
            checkExpr(s, *n.init, where);
            s.declare(n.var, n.varType);
            checkExpr(s, *n.cond, where);
            checkExpr(s, *n.step, where);
            s.push();
            checkBlock(s, n.body, where);
            s.pop();
            s.pop();
            return;
        }
        case StmtKind::Return: {
            const auto& n = as<ReturnStmt>(st);
            if (n.value) checkExpr(s, *n.value, where);
            return;
        }
        case StmtKind::ExprStmt:
            checkExpr(s, *as<ExprStmt>(st).e, where);
            return;
        case StmtKind::SuperCtor: {
            const auto& n = as<SuperCtorStmt>(st);
            for (const auto& a : n.args) checkExpr(s, *a, where);
            return;
        }
        }
    }

    void checkExpr(TypeScope& s, const Expr& e, const std::string& where) {
        switch (e.kind) {
        case ExprKind::Const: case ExprKind::Local: case ExprKind::This:
        case ExprKind::StaticGet:
            return;
        case ExprKind::FieldGet:
            checkExpr(s, *as<FieldGetExpr>(e).obj, where);
            return;
        case ExprKind::ArrayGet: {
            const auto& n = as<ArrayGetExpr>(e);
            checkExpr(s, *n.arr, where);
            checkExpr(s, *n.idx, where);
            return;
        }
        case ExprKind::ArrayLen:
            checkExpr(s, *as<ArrayLenExpr>(e).arr, where);
            return;
        case ExprKind::Unary:
            checkExpr(s, *as<UnaryExpr>(e).e, where);
            return;
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            if (n.op == BinOp::Eq || n.op == BinOp::Ne) {
                Type lt = typeOf(s, *n.l);
                if (!lt.isPrim()) {
                    report("rule-7", where, "reference equality (" +
                                                std::string(binOpName(n.op)) + ") on " + lt.str());
                }
            }
            checkExpr(s, *n.l, where);
            checkExpr(s, *n.r, where);
            return;
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            report("rule-7", where, "conditional operator (?:)");
            checkExpr(s, *n.c, where);
            checkExpr(s, *n.t, where);
            checkExpr(s, *n.f, where);
            return;
        }
        case ExprKind::Call: {
            const auto& n = as<CallExpr>(e);
            checkExpr(s, *n.recv, where);
            for (const auto& a : n.args) checkExpr(s, *a, where);
            return;
        }
        case ExprKind::StaticCall: {
            const auto& n = as<StaticCallExpr>(e);
            for (const auto& a : n.args) checkExpr(s, *a, where);
            return;
        }
        case ExprKind::New: {
            const auto& n = as<NewExpr>(e);
            requireSemiImmutable(Type::cls(n.cls), where);
            for (const auto& a : n.args) checkExpr(s, *a, where);
            return;
        }
        case ExprKind::NewArray: {
            const auto& n = as<NewArrayExpr>(e);
            requireStrictFinal(n.elem, where, "array element");
            checkExpr(s, *n.len, where);
            return;
        }
        case ExprKind::Cast: {
            const auto& n = as<CastExpr>(e);
            if (n.type.isClass()) requireStrictFinal(n.type, where, "cast");
            checkExpr(s, *n.e, where);
            return;
        }
        case ExprKind::IntrinsicCall: {
            const auto& n = as<IntrinsicExpr>(e);
            for (const auto& a : n.args) checkExpr(s, *a, where);
            return;
        }
        }
    }

    // ---- rule 6: the static call graph over @WootinJ methods is acyclic.
    void checkRecursion() {
        // Node = ownerClass + "." + method (the declaring class of the body);
        // the graph itself is shared with the effect analysis (src/analysis/).
        std::map<std::string, std::set<std::string>> edges =
            analysis::buildCallGraph(prog_, /*wootinjOnly=*/true).edges;
        // DFS cycle detection.
        std::set<std::string> done;
        std::vector<std::string> stack;
        std::set<std::string> onStack;
        std::function<void(const std::string&)> dfs = [&](const std::string& node) {
            if (done.count(node)) return;
            if (onStack.count(node)) {
                std::string cycle;
                bool in = false;
                for (const auto& n : stack) {
                    if (n == node) in = true;
                    if (in) cycle += n + " -> ";
                }
                report("rule-6", node, "recursive call cycle: " + cycle + node);
                return;
            }
            onStack.insert(node);
            stack.push_back(node);
            for (const auto& next : edges[node]) dfs(next);
            stack.pop_back();
            onStack.erase(node);
            done.insert(node);
        };
        for (const auto& [node, _] : edges) dfs(node);
    }

    const Program& prog_;
    TypeProperties props_;
    std::vector<Violation> violations_;
    std::set<std::string> checkedSI_;
    bool inCtor_ = false;
};

} // namespace

std::vector<Violation> checkCodingRules(const Program& prog) {
    // Type-check first so the rule passes can rely on well-typed bodies.
    checkProgramTypes(prog);
    return RuleChecker(prog).run();
}

std::vector<Violation> verifyCodingRules(const Program& prog) {
    return analysis::ProgramFacts::of(prog).ruleViolations();
}

void requireCodingRules(const Program& prog) {
    const auto& vs = analysis::ProgramFacts::of(prog).ruleViolations();
    if (!vs.empty()) throw RuleViolationError(vs);
}

} // namespace wj
