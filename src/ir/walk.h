// The one IR walker: each node kind's children and each statement's scopes
// are listed here once, and every pass that visits a tree without rebuilding
// it keeps only its per-node actions.
//
// A visitor is any object; the walker calls whichever of these public hooks
// it defines (found at compile time, so an absent hook costs nothing and a
// present one is a direct call):
//
//   pre(const Expr&)    before the node's children; returning false skips them
//   post(const Expr&)   after the children (or in place of them, if skipped)
//   enter(const Stmt&)  before the statement's expressions and blocks;
//                       returning false skips them
//   leave(const Stmt&)  after them
//   open() / close()    around every nested scope, in step with the TypeScope
//
// Without an expression hook the walk does not descend into expressions.
// Enter and leave see the scope enclosing the statement.
//
// With a TypeScope (which already holds the method's parameters) the walk
// keeps it to WJ's scoping rules, the ones ir/typecheck.cpp checks:
//   * a Decl's name is declared after its init and after leave;
//   * a For opens a scope holding its variable, declared after `init` and
//     before `cond` and `step`; its body is a further scope inside that;
//   * each If branch and each While body is its own scope.
// TypeScope::declare throws UsageError on a duplicate; the walk lets it
// propagate.
#pragma once

#include <concepts>
#include <type_traits>

#include "ir/ast.h"
#include "ir/typecheck.h"

namespace wj {

template <typename V>
class IrWalk {
public:
    explicit IrWalk(V& v, TypeScope* scope = nullptr) : v_(v), s_(scope) {
        static_assert(kExprs || requires(V& v, const Stmt& s) { v.enter(s); } ||
                          requires(V& v, const Stmt& s) { v.leave(s); },
                      "the visitor has no public pre/post/enter/leave hook");
    }

    void expr(const Expr& e) {
        if constexpr (kExprs) {
            if (pre(e)) children(e);
            if constexpr (requires { v_.post(e); }) v_.post(e);
        }
    }

    void block(const Block& b) {
        for (const auto& s : b) stmt(*s);
    }

    void stmt(const Stmt& st) {
        bool go = true;
        if constexpr (requires { { v_.enter(st) } -> std::same_as<bool>; }) {
            go = v_.enter(st);
        } else if constexpr (requires { v_.enter(st); }) {
            v_.enter(st);
        }
        if (go) parts(st);
        if constexpr (requires { v_.leave(st); }) v_.leave(st);
        if (st.kind == StmtKind::Decl && s_) {
            const auto& n = as<DeclStmt>(st);
            s_->declare(n.name, n.type);
        }
    }

private:
    static constexpr bool kExprs =
        requires(V& v, const Expr& e) { v.pre(e); } || requires(V& v, const Expr& e) { v.post(e); };

    bool pre(const Expr& e) {
        if constexpr (requires { { v_.pre(e) } -> std::same_as<bool>; }) {
            return v_.pre(e);
        } else if constexpr (requires { v_.pre(e); }) {
            v_.pre(e);
        }
        return true;
    }

    void args(const std::vector<ExprPtr>& as) {
        for (const auto& a : as) expr(*a);
    }

    void children(const Expr& e) {
        switch (e.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::StaticGet: return;
        case ExprKind::FieldGet: expr(*as<FieldGetExpr>(e).obj); return;
        case ExprKind::ArrayGet: {
            const auto& n = as<ArrayGetExpr>(e);
            expr(*n.arr);
            expr(*n.idx);
            return;
        }
        case ExprKind::ArrayLen: expr(*as<ArrayLenExpr>(e).arr); return;
        case ExprKind::Unary: expr(*as<UnaryExpr>(e).e); return;
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            expr(*n.l);
            expr(*n.r);
            return;
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            expr(*n.c);
            expr(*n.t);
            expr(*n.f);
            return;
        }
        case ExprKind::Call: {
            const auto& n = as<CallExpr>(e);
            expr(*n.recv);
            args(n.args);
            return;
        }
        case ExprKind::StaticCall: args(as<StaticCallExpr>(e).args); return;
        case ExprKind::New: args(as<NewExpr>(e).args); return;
        case ExprKind::NewArray: expr(*as<NewArrayExpr>(e).len); return;
        case ExprKind::Cast: expr(*as<CastExpr>(e).e); return;
        case ExprKind::IntrinsicCall: args(as<IntrinsicExpr>(e).args); return;
        }
    }

    void open() {
        if (s_) s_->push();
        if constexpr (requires { v_.open(); }) v_.open();
    }

    void close() {
        if constexpr (requires { v_.close(); }) v_.close();
        if (s_) s_->pop();
    }

    void scoped(const Block& b) {
        open();
        block(b);
        close();
    }

    void parts(const Stmt& st) {
        switch (st.kind) {
        case StmtKind::Decl:
            if (const auto& n = as<DeclStmt>(st); n.init) expr(*n.init);
            return;
        case StmtKind::AssignLocal: expr(*as<AssignLocalStmt>(st).value); return;
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            expr(*n.obj);
            expr(*n.value);
            return;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(st);
            expr(*n.arr);
            expr(*n.idx);
            expr(*n.value);
            return;
        }
        case StmtKind::If: {
            const auto& n = as<IfStmt>(st);
            expr(*n.cond);
            scoped(n.thenB);
            scoped(n.elseB);
            return;
        }
        case StmtKind::While: {
            const auto& n = as<WhileStmt>(st);
            expr(*n.cond);
            scoped(n.body);
            return;
        }
        case StmtKind::For: {
            const auto& n = as<ForStmt>(st);
            open();
            expr(*n.init);
            if (s_) s_->declare(n.var, n.varType);
            expr(*n.cond);
            expr(*n.step);
            scoped(n.body);
            close();
            return;
        }
        case StmtKind::Return:
            if (const auto& n = as<ReturnStmt>(st); n.value) expr(*n.value);
            return;
        case StmtKind::ExprStmt: expr(*as<ExprStmt>(st).e); return;
        case StmtKind::SuperCtor: args(as<SuperCtorStmt>(st).args); return;
        }
    }

    V& v_;
    TypeScope* s_;
};

/// Walks `e` with visitor `v`.
template <typename V>
void walkExpr(const Expr& e, V&& v) {
    IrWalk<std::remove_reference_t<V>>(v).expr(e);
}

/// Walks the statement `s` (its expressions, then its blocks) with visitor `v`.
template <typename V>
void walkStmt(const Stmt& s, V&& v) {
    IrWalk<std::remove_reference_t<V>>(v).stmt(s);
}

/// Walks `b` with visitor `v`, keeping `scope` (if any) to WJ's rules.
template <typename V>
void walkBlock(const Block& b, V&& v, TypeScope* scope = nullptr) {
    IrWalk<std::remove_reference_t<V>>(v, scope).block(b);
}

namespace walk_detail {

struct NoHook {};

/// Adapts plain callables to the visitor hooks: `onExpr` is a pre-order
/// expression hook and `onStmt` a statement enter hook.
template <typename FE, typename FS>
struct Calls {
    FE& onExpr;
    FS& onStmt;
    void pre(const Expr& e)
        requires(!std::is_same_v<FE, NoHook>)
    {
        onExpr(e);
    }
    void enter(const Stmt& s)
        requires(!std::is_same_v<FS, NoHook>)
    {
        onStmt(s);
    }
};

} // namespace walk_detail

/// Calls `onExpr` on every node of the tree, in source order.
template <typename F>
void visitExpr(const Expr& e, F&& onExpr) {
    walk_detail::NoHook none;
    walkExpr(e, walk_detail::Calls<std::remove_reference_t<F>, walk_detail::NoHook>{onExpr, none});
}

/// Calls `onExpr` / `onStmt` (either may be `{}`) on every node of the
/// tree, in source order.
template <typename FE = walk_detail::NoHook, typename FS = walk_detail::NoHook>
void visitBlock(const Block& b, FE&& onExpr = {}, FS&& onStmt = {}) {
    walkBlock(b, walk_detail::Calls<std::remove_reference_t<FE>, std::remove_reference_t<FS>>{
                     onExpr, onStmt});
}

/// Calls `f` on every statement of `b` in source order; a statement's
/// nested blocks are walked only when `f` returns true for it.
template <typename F>
void visitStmts(const Block& b, F&& f) {
    struct {
        F& f;
        bool enter(const Stmt& s) { return f(s); }
    } v{f};
    walkBlock(b, v);
}

/// True if `pred` holds for some node of `e`; the walk stops descending
/// once it has.
template <typename P>
bool anyExpr(const Expr& e, P&& pred) {
    struct {
        P& pred;
        bool found = false;
        bool pre(const Expr& x) {
            found = found || pred(x);
            return !found;
        }
    } v{pred};
    walkExpr(e, v);
    return v.found;
}

/// True if evaluating `e` may have an effect beyond its value: a call or an
/// allocation. Such an expression must not be evaluated twice or hoisted.
inline bool hasEffects(const Expr& e) {
    return anyExpr(e, [](const Expr& x) {
        return x.kind == ExprKind::Call || x.kind == ExprKind::StaticCall ||
               x.kind == ExprKind::IntrinsicCall || x.kind == ExprKind::New ||
               x.kind == ExprKind::NewArray;
    });
}

} // namespace wj
