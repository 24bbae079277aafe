#include "ir/clone.h"

#include <utility>

namespace wj {

namespace {

const std::string& renamed(const CloneMap& m, const std::string& name) {
    auto it = m.names.find(name);
    return it == m.names.end() ? name : it->second;
}

// One walk serves both the copy (Build) and the visitor (!Build, which
// builds nothing and allocates nothing).
template <bool Build, typename T, typename... A>
std::unique_ptr<T> make(A&&... a) {
    if constexpr (Build) {
        return std::make_unique<T>(std::forward<A>(a)...);
    } else {
        return nullptr;
    }
}

template <bool Build>
ExprPtr walkExpr(const Expr& e, const CloneMap& m);
template <bool Build>
Block walkBlock(const Block& b, const CloneMap& m);

template <bool Build>
std::vector<ExprPtr> walkArgs(const std::vector<ExprPtr>& args, const CloneMap& m) {
    std::vector<ExprPtr> out;
    for (const auto& a : args) {
        ExprPtr c = walkExpr<Build>(*a, m);
        if constexpr (Build) out.push_back(std::move(c));
    }
    return out;
}

template <bool Build>
ExprPtr walkOpt(const ExprPtr& e, const CloneMap& m) {
    return e ? walkExpr<Build>(*e, m) : nullptr;
}

template <bool Build>
void walkStmt(const Stmt& s, const CloneMap& m, Block& out) {
    if (m.stmt && m.stmt(s, out)) return;
    StmtPtr r;
    switch (s.kind) {
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(s);
        r = make<Build, DeclStmt>(renamed(m, n.name), n.type, walkOpt<Build>(n.init, m));
        break;
    }
    case StmtKind::AssignLocal: {
        const auto& n = as<AssignLocalStmt>(s);
        r = make<Build, AssignLocalStmt>(renamed(m, n.name), walkExpr<Build>(*n.value, m));
        break;
    }
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(s);
        ExprPtr obj = walkExpr<Build>(*n.obj, m);
        r = make<Build, FieldSetStmt>(std::move(obj), n.field, walkExpr<Build>(*n.value, m));
        break;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(s);
        ExprPtr arr = walkExpr<Build>(*n.arr, m);
        ExprPtr idx = walkExpr<Build>(*n.idx, m);
        r = make<Build, ArraySetStmt>(std::move(arr), std::move(idx),
                                      walkExpr<Build>(*n.value, m));
        break;
    }
    case StmtKind::If: {
        const auto& n = as<IfStmt>(s);
        ExprPtr cond = walkExpr<Build>(*n.cond, m);
        Block thenB = walkBlock<Build>(n.thenB, m);
        r = make<Build, IfStmt>(std::move(cond), std::move(thenB), walkBlock<Build>(n.elseB, m));
        break;
    }
    case StmtKind::While: {
        const auto& n = as<WhileStmt>(s);
        ExprPtr cond = walkExpr<Build>(*n.cond, m);
        r = make<Build, WhileStmt>(std::move(cond), walkBlock<Build>(n.body, m));
        break;
    }
    case StmtKind::For: {
        const auto& n = as<ForStmt>(s);
        ExprPtr init = walkExpr<Build>(*n.init, m);
        ExprPtr cond = walkExpr<Build>(*n.cond, m);
        ExprPtr step = walkExpr<Build>(*n.step, m);
        r = make<Build, ForStmt>(renamed(m, n.var), n.varType, std::move(init), std::move(cond),
                                 std::move(step), walkBlock<Build>(n.body, m));
        break;
    }
    case StmtKind::Return:
        r = make<Build, ReturnStmt>(walkOpt<Build>(as<ReturnStmt>(s).value, m));
        break;
    case StmtKind::ExprStmt:
        r = make<Build, ExprStmt>(walkExpr<Build>(*as<ExprStmt>(s).e, m));
        break;
    case StmtKind::SuperCtor:
        r = make<Build, SuperCtorStmt>(walkArgs<Build>(as<SuperCtorStmt>(s).args, m));
        break;
    }
    if constexpr (Build) out.push_back(std::move(r));
}

template <bool Build>
ExprPtr walkExpr(const Expr& e, const CloneMap& m) {
    if (m.expr) {
        if (ExprPtr r = m.expr(e)) return r;
    }
    switch (e.kind) {
    case ExprKind::Const: {
        const auto& n = as<ConstExpr>(e);
        return make<Build, ConstExpr>(n.type, n.i, n.f);
    }
    case ExprKind::Local:
        return make<Build, LocalExpr>(renamed(m, as<LocalExpr>(e).name));
    case ExprKind::This:
        if (m.self) return walkExpr<Build>(*m.self, CloneMap{});
        return make<Build, ThisExpr>();
    case ExprKind::FieldGet: {
        const auto& n = as<FieldGetExpr>(e);
        return make<Build, FieldGetExpr>(walkExpr<Build>(*n.obj, m), n.field);
    }
    case ExprKind::StaticGet: {
        const auto& n = as<StaticGetExpr>(e);
        return make<Build, StaticGetExpr>(n.cls, n.field);
    }
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        ExprPtr arr = walkExpr<Build>(*n.arr, m);
        return make<Build, ArrayGetExpr>(std::move(arr), walkExpr<Build>(*n.idx, m));
    }
    case ExprKind::ArrayLen:
        return make<Build, ArrayLenExpr>(walkExpr<Build>(*as<ArrayLenExpr>(e).arr, m));
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(e);
        return make<Build, UnaryExpr>(n.op, walkExpr<Build>(*n.e, m));
    }
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        ExprPtr l = walkExpr<Build>(*n.l, m);
        return make<Build, BinaryExpr>(n.op, std::move(l), walkExpr<Build>(*n.r, m));
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        ExprPtr c = walkExpr<Build>(*n.c, m);
        ExprPtr t = walkExpr<Build>(*n.t, m);
        return make<Build, CondExpr>(std::move(c), std::move(t), walkExpr<Build>(*n.f, m));
    }
    case ExprKind::Call: {
        const auto& n = as<CallExpr>(e);
        ExprPtr recv = walkExpr<Build>(*n.recv, m);
        return make<Build, CallExpr>(std::move(recv), n.method, walkArgs<Build>(n.args, m));
    }
    case ExprKind::StaticCall: {
        const auto& n = as<StaticCallExpr>(e);
        return make<Build, StaticCallExpr>(n.cls, n.method, walkArgs<Build>(n.args, m));
    }
    case ExprKind::New: {
        const auto& n = as<NewExpr>(e);
        return make<Build, NewExpr>(n.cls, walkArgs<Build>(n.args, m));
    }
    case ExprKind::NewArray: {
        const auto& n = as<NewArrayExpr>(e);
        return make<Build, NewArrayExpr>(n.elem, walkExpr<Build>(*n.len, m));
    }
    case ExprKind::Cast: {
        const auto& n = as<CastExpr>(e);
        return make<Build, CastExpr>(n.type, walkExpr<Build>(*n.e, m));
    }
    case ExprKind::IntrinsicCall: {
        const auto& n = as<IntrinsicExpr>(e);
        return make<Build, IntrinsicExpr>(n.op, walkArgs<Build>(n.args, m));
    }
    }
    return nullptr;
}

template <bool Build>
Block walkBlock(const Block& b, const CloneMap& m) {
    Block out;
    if constexpr (Build) out.reserve(b.size());
    for (const auto& s : b) walkStmt<Build>(*s, m, out);
    return out;
}

CloneMap visitor(const std::function<void(const Expr&)>& onExpr) {
    CloneMap m;
    if (onExpr) {
        m.expr = [&onExpr](const Expr& e) -> ExprPtr {
            onExpr(e);
            return nullptr;
        };
    }
    return m;
}

} // namespace

ExprPtr cloneExpr(const Expr& e, const CloneMap& m) { return walkExpr<true>(e, m); }

StmtPtr cloneStmt(const Stmt& s, const CloneMap& m) {
    Block out;
    walkStmt<true>(s, m, out);
    return std::move(out.front());
}

Block cloneBlock(const Block& b, const CloneMap& m) { return walkBlock<true>(b, m); }

void visitExpr(const Expr& e, const std::function<void(const Expr&)>& onExpr) {
    walkExpr<false>(e, visitor(onExpr));
}

void visitBlock(const Block& b, const std::function<void(const Expr&)>& onExpr,
                const std::function<void(const Stmt&)>& onStmt) {
    CloneMap m = visitor(onExpr);
    if (onStmt) {
        m.stmt = [&onStmt](const Stmt& s, Block&) {
            onStmt(s);
            return false;
        };
    }
    walkBlock<false>(b, m);
}

} // namespace wj
