#include "analysis/layout.h"

#include <algorithm>

#include "ir/ast.h"
#include "ir/typecheck.h"
#include "ir/walk.h"
#include "support/diagnostics.h"

namespace wj::analysis {

namespace {

/// Whole-program use scan. A class stays inline-eligible only while every
/// `a[i]` of its arrays is the immediate base of a field read and every
/// `a[i] = v` stores a fresh `new C(...)`. The walk mirrors the typechecker's
/// scoping so static types of array bases are available at every access.
class LayoutScan {
public:
    explicit LayoutScan(const Program& prog) : prog_(prog) {}

    void run() {
        collectCandidates();
        for (const ClassDecl* c : prog_.classes()) {
            if (!c->wootinj || c->isInterface) continue;
            if (c->ctor) scanMethod(*c, *c->ctor);
            for (const auto& m : c->methods) {
                if (!m->isAbstract) scanMethod(*c, *m);
            }
        }
    }

    std::map<std::string, ClassLayout> finish(const std::set<std::string>& boundary, bool lint) {
        std::map<std::string, ClassLayout> out;
        for (const std::string& c : candidates_) {
            ClassLayout cl;
            const std::string structural = structuralReason(c);
            if (!structural.empty()) {
                cl.reason = structural;
            } else if (auto it = boxed_.find(c); it != boxed_.end()) {
                cl.reason = it->second;
            } else if (boundary.count(c)) {
                cl.reason = "a '" + c + "[]' crosses the jit() boundary (invoke() marshals " +
                            "array-of-struct payloads)";
            } else {
                cl.verdict = lint ? LayoutVerdict::CondInline : LayoutVerdict::Inline;
                cl.reason = lint ? "every element access is a provable field path; inline-"
                                   "eligible provided no '" + c + "[]' crosses the jit() boundary"
                                 : "every element access is a provable field path; no escape, "
                                   "address identity, or whole-object copy observed";
                buildFields(c, cl);
            }
            out.emplace(c, std::move(cl));
        }
        return out;
    }

private:
    const Program& prog_;
    std::set<std::string> candidates_;
    std::map<std::string, std::string> boxed_;  ///< class -> first demotion reason
    TypeScope* scope_ = nullptr;

    // ---------------------------------------------------------- candidates

    void addTypes(const Type& t) {
        if (!t.isArray()) return;
        if (t.elem().isClass()) candidates_.insert(t.elem().className());
        addTypes(t.elem());
    }

    void collectCandidates() {
        for (const ClassDecl* c : prog_.classes()) {
            for (const Field& f : c->fields) addTypes(f.type);
            auto scanSig = [&](const Method& m) {
                for (const Param& p : m.params) addTypes(p.type);
                addTypes(m.ret);
                visitBlock(
                    m.body,
                    [&](const Expr& e) {
                        if (e.kind == ExprKind::NewArray) {
                            addTypes(Type::array(as<NewArrayExpr>(e).elem));
                        }
                        if (e.kind == ExprKind::Cast) addTypes(as<CastExpr>(e).type);
                    },
                    [&](const Stmt& s) {
                        if (s.kind == StmtKind::Decl) addTypes(as<DeclStmt>(s).type);
                        if (s.kind == StmtKind::For) addTypes(as<ForStmt>(s).varType);
                    });
            };
            if (c->ctor) scanSig(*c->ctor);
            for (const auto& m : c->methods) scanSig(*m);
        }
    }

    // ------------------------------------------------------------ verdicts

    void demote(const std::string& cls, const std::string& reason) {
        boxed_.emplace(cls, reason);  // first reason wins: the report stays stable
    }

    std::string structuralReason(const std::string& name) const {
        const ClassDecl* c = prog_.cls(name);
        if (!c) return "unknown class";
        if (!c->wootinj) return "not @WootinJ (host-only class, never translated)";
        if (c->isInterface) {
            return "interface-typed elements have no exact layout (virtual dispatch)";
        }
        if (!prog_.isLeaf(name)) {
            return "has subclasses; the element layout cannot be exact";
        }
        const auto fields = prog_.allFields(name);
        if (fields.empty()) return "has no instance fields to split";
        for (const Field* f : fields) {
            if (!f->type.isPrim()) {
                return "field '" + f->name + "' is not primitive (" + f->type.str() + ")";
            }
            if (f->isShared) return "field '" + f->name + "' is @Shared";
        }
        return "";
    }

    void buildFields(const std::string& name, ClassLayout& cl) const {
        for (const Field* f : prog_.allFields(name)) {
            cl.fields.push_back({f->name, f->type.prim(), 0});
        }
        // Descending element size (stable: declaration order within a size
        // class), so each packed region is naturally aligned for any len.
        std::stable_sort(cl.fields.begin(), cl.fields.end(),
                         [](const SoaField& a, const SoaField& b) {
                             return primSize(a.prim) > primSize(b.prim);
                         });
        int32_t off = 0;
        for (SoaField& f : cl.fields) {
            f.pre = off;
            off += primSize(f.prim);
        }
        cl.elemSize = off;
    }

    // ------------------------------------------------------------ use scan

    /// Element class of `e` when it is an `a[i]` whose static element type
    /// is a class; "" otherwise (or when the base cannot be typed).
    std::string agetElemClass(const Expr& e) {
        if (e.kind != ExprKind::ArrayGet) return "";
        try {
            const Type at = typeOf(*scope_, *as<ArrayGetExpr>(e).arr);
            if (at.isArray() && at.elem().isClass()) {
                const std::string c = at.elem().className();
                candidates_.insert(c);
                return c;
            }
        } catch (const UsageError&) {
            // Untypeable base: the program cannot pass the typechecker, so
            // it will never reach the translator either.
        }
        return "";
    }

    /// Scans one child expression. `how` describes the consuming context
    /// when an element access there would escape; nullptr marks the one
    /// legal context (the base of a field read).
    void child(const Expr& e, const char* how) {
        if (how) {
            const std::string c = agetElemClass(e);
            if (!c.empty()) {
                demote(c, std::string("an element of '") + c + "[]' is " + how);
            }
        }
        scanExpr(e);
    }

    void scanExpr(const Expr& e) {
        switch (e.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::StaticGet: return;
        case ExprKind::FieldGet:
            // `a[i].f` — the legal consumption: the element never
            // materializes, only one lane of one field is touched.
            child(*as<FieldGetExpr>(e).obj, nullptr);
            return;
        case ExprKind::ArrayGet: {
            const auto& n = as<ArrayGetExpr>(e);
            child(*n.arr, "indexed like an array");
            child(*n.idx, "used as an index");
            return;
        }
        case ExprKind::ArrayLen: child(*as<ArrayLenExpr>(e).arr, nullptr); return;
        case ExprKind::Unary: child(*as<UnaryExpr>(e).e, "used as an operand"); return;
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            const char* how = (n.op == BinOp::Eq || n.op == BinOp::Ne)
                                  ? "compared by reference identity (==/!= observes the address)"
                                  : "used as an operand";
            child(*n.l, how);
            child(*n.r, how);
            return;
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            child(*n.c, "used as a condition");
            child(*n.t, "selected by a conditional");
            child(*n.f, "selected by a conditional");
            return;
        }
        case ExprKind::Call: {
            const auto& n = as<CallExpr>(e);
            child(*n.recv, "the receiver of a method call (dispatch needs a materialized object)");
            for (const auto& a : n.args) child(*a, "passed as a call argument");
            return;
        }
        case ExprKind::StaticCall:
            for (const auto& a : as<StaticCallExpr>(e).args) {
                child(*a, "passed as a call argument");
            }
            return;
        case ExprKind::New:
            for (const auto& a : as<NewExpr>(e).args) {
                child(*a, "passed as a constructor argument");
            }
            return;
        case ExprKind::NewArray: child(*as<NewArrayExpr>(e).len, "used as a length"); return;
        case ExprKind::Cast: child(*as<CastExpr>(e).e, "cast (the reference escapes)"); return;
        case ExprKind::IntrinsicCall:
            for (const auto& a : as<IntrinsicExpr>(e).args) {
                child(*a, "passed to an intrinsic");
            }
            return;
        }
    }

    void declareQuiet(const std::string& name, const Type& t) {
        try {
            scope_->declare(name, t);
        } catch (const UsageError&) {
            // Shadowing — rejected by the typechecker; ignore here.
        }
    }

    void scanStmt(const Stmt& s) {
        switch (s.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(s);
            if (n.init) child(*n.init, "bound to a local variable");
            declareQuiet(n.name, n.type);
            return;
        }
        case StmtKind::AssignLocal:
            child(*as<AssignLocalStmt>(s).value, "bound to a local variable");
            return;
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(s);
            child(*n.obj, "the target of a field store");
            child(*n.value, "stored into an object field");
            return;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(s);
            child(*n.arr, "indexed like an array");
            child(*n.idx, "used as an index");
            // A whole-element store must build the element fresh: copying
            // an existing object into the slot would observe its identity
            // (the slot and the source would have to stay bit-coupled).
            try {
                const Type at = typeOf(*scope_, *n.arr);
                if (at.isArray() && at.elem().isClass()) {
                    const std::string c = at.elem().className();
                    candidates_.insert(c);
                    if (n.value->kind != ExprKind::New) {
                        demote(c, "a '" + c + "[]' slot is assigned something other than a "
                                  "fresh 'new " + c + "(...)' (whole-object copy)");
                    }
                }
            } catch (const UsageError&) {
            }
            child(*n.value, "stored whole into an array slot");
            return;
        }
        case StmtKind::If: {
            const auto& n = as<IfStmt>(s);
            child(*n.cond, "used as a condition");
            scanBlock(n.thenB);
            scanBlock(n.elseB);
            return;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(s);
            child(*n.cond, "used as a condition");
            scanBlock(n.body);
            return;
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(s);
            scope_->push();
            child(*n.init, "bound to a local variable");
            declareQuiet(n.var, n.varType);
            child(*n.cond, "used as a condition");
            child(*n.step, "bound to a local variable");
            scanBlock(n.body);
            scope_->pop();
            return;
        }
        case StmtKind::Return:
            if (as<ReturnStmt>(s).value) {
                child(*as<ReturnStmt>(s).value, "returned from a method");
            }
            return;
        case StmtKind::ExprStmt:
            child(*as<ExprStmt>(s).e, "evaluated for effect only");
            return;
        case StmtKind::SuperCtor:
            for (const auto& a : as<SuperCtorStmt>(s).args) {
                child(*a, "passed as a constructor argument");
            }
            return;
        }
    }

    void scanBlock(const Block& b) {
        scope_->push();
        for (const auto& s : b) scanStmt(*s);
        scope_->pop();
    }

    void scanMethod(const ClassDecl& cls, const Method& m) {
        try {
            TypeScope scope(prog_, m.isStatic ? nullptr : &cls, m);
            scope_ = &scope;
            scanBlock(m.body);
            scope_ = nullptr;
        } catch (const UsageError&) {
            // The method cannot be typed at all; the typechecker rejects the
            // program before any consumer of layout verdicts runs. Box every
            // candidate so an impossible Inline never leaks out regardless.
            scope_ = nullptr;
            for (const std::string& c : candidates_) {
                demote(c, "method '" + cls.name + "." + m.name + "' could not be typed");
            }
        }
    }
};

} // namespace

std::map<std::string, ClassLayout> proveLayout(const Program& prog,
                                               const std::set<std::string>& boundary,
                                               bool lint) {
    LayoutScan scan(prog);
    scan.run();
    return scan.finish(boundary, lint);
}

} // namespace wj::analysis
