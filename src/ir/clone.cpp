#include "ir/clone.h"

#include <utility>

namespace wj {

namespace {

const std::string& renamed(const CloneMap& m, const std::string& name) {
    auto it = m.names.find(name);
    return it == m.names.end() ? name : it->second;
}

ExprPtr copy(const Expr& e, const CloneMap& m);
Block copyBlock(const Block& b, const CloneMap& m);

std::vector<ExprPtr> copyArgs(const std::vector<ExprPtr>& args, const CloneMap& m) {
    std::vector<ExprPtr> out;
    out.reserve(args.size());
    for (const auto& a : args) out.push_back(copy(*a, m));
    return out;
}

ExprPtr copyOpt(const ExprPtr& e, const CloneMap& m) { return e ? copy(*e, m) : nullptr; }

void copyStmt(const Stmt& s, const CloneMap& m, Block& out) {
    if (m.stmt && m.stmt(s, out)) return;
    StmtPtr r;
    switch (s.kind) {
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(s);
        r = std::make_unique<DeclStmt>(renamed(m, n.name), n.type, copyOpt(n.init, m));
        break;
    }
    case StmtKind::AssignLocal: {
        const auto& n = as<AssignLocalStmt>(s);
        r = std::make_unique<AssignLocalStmt>(renamed(m, n.name), copy(*n.value, m));
        break;
    }
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(s);
        ExprPtr obj = copy(*n.obj, m);
        r = std::make_unique<FieldSetStmt>(std::move(obj), n.field, copy(*n.value, m));
        break;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(s);
        ExprPtr arr = copy(*n.arr, m);
        ExprPtr idx = copy(*n.idx, m);
        r = std::make_unique<ArraySetStmt>(std::move(arr), std::move(idx), copy(*n.value, m));
        break;
    }
    case StmtKind::If: {
        const auto& n = as<IfStmt>(s);
        ExprPtr cond = copy(*n.cond, m);
        Block thenB = copyBlock(n.thenB, m);
        r = std::make_unique<IfStmt>(std::move(cond), std::move(thenB), copyBlock(n.elseB, m));
        break;
    }
    case StmtKind::While: {
        const auto& n = as<WhileStmt>(s);
        ExprPtr cond = copy(*n.cond, m);
        r = std::make_unique<WhileStmt>(std::move(cond), copyBlock(n.body, m));
        break;
    }
    case StmtKind::For: {
        const auto& n = as<ForStmt>(s);
        ExprPtr init = copy(*n.init, m);
        ExprPtr cond = copy(*n.cond, m);
        ExprPtr step = copy(*n.step, m);
        r = std::make_unique<ForStmt>(renamed(m, n.var), n.varType, std::move(init),
                                      std::move(cond), std::move(step), copyBlock(n.body, m));
        break;
    }
    case StmtKind::Return:
        r = std::make_unique<ReturnStmt>(copyOpt(as<ReturnStmt>(s).value, m));
        break;
    case StmtKind::ExprStmt:
        r = std::make_unique<ExprStmt>(copy(*as<ExprStmt>(s).e, m));
        break;
    case StmtKind::SuperCtor:
        r = std::make_unique<SuperCtorStmt>(copyArgs(as<SuperCtorStmt>(s).args, m));
        break;
    }
    out.push_back(std::move(r));
}

ExprPtr copy(const Expr& e, const CloneMap& m) {
    if (m.expr) {
        if (ExprPtr r = m.expr(e)) return r;
    }
    switch (e.kind) {
    case ExprKind::Const: {
        const auto& n = as<ConstExpr>(e);
        return std::make_unique<ConstExpr>(n.type, n.i, n.f);
    }
    case ExprKind::Local:
        return std::make_unique<LocalExpr>(renamed(m, as<LocalExpr>(e).name));
    case ExprKind::This:
        if (m.self) return copy(*m.self, CloneMap{});
        return std::make_unique<ThisExpr>();
    case ExprKind::FieldGet: {
        const auto& n = as<FieldGetExpr>(e);
        return std::make_unique<FieldGetExpr>(copy(*n.obj, m), n.field);
    }
    case ExprKind::StaticGet: {
        const auto& n = as<StaticGetExpr>(e);
        return std::make_unique<StaticGetExpr>(n.cls, n.field);
    }
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        ExprPtr arr = copy(*n.arr, m);
        return std::make_unique<ArrayGetExpr>(std::move(arr), copy(*n.idx, m));
    }
    case ExprKind::ArrayLen:
        return std::make_unique<ArrayLenExpr>(copy(*as<ArrayLenExpr>(e).arr, m));
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(e);
        return std::make_unique<UnaryExpr>(n.op, copy(*n.e, m));
    }
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        ExprPtr l = copy(*n.l, m);
        return std::make_unique<BinaryExpr>(n.op, std::move(l), copy(*n.r, m));
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        ExprPtr c = copy(*n.c, m);
        ExprPtr t = copy(*n.t, m);
        return std::make_unique<CondExpr>(std::move(c), std::move(t), copy(*n.f, m));
    }
    case ExprKind::Call: {
        const auto& n = as<CallExpr>(e);
        ExprPtr recv = copy(*n.recv, m);
        return std::make_unique<CallExpr>(std::move(recv), n.method, copyArgs(n.args, m));
    }
    case ExprKind::StaticCall: {
        const auto& n = as<StaticCallExpr>(e);
        return std::make_unique<StaticCallExpr>(n.cls, n.method, copyArgs(n.args, m));
    }
    case ExprKind::New: {
        const auto& n = as<NewExpr>(e);
        return std::make_unique<NewExpr>(n.cls, copyArgs(n.args, m));
    }
    case ExprKind::NewArray: {
        const auto& n = as<NewArrayExpr>(e);
        return std::make_unique<NewArrayExpr>(n.elem, copy(*n.len, m));
    }
    case ExprKind::Cast: {
        const auto& n = as<CastExpr>(e);
        return std::make_unique<CastExpr>(n.type, copy(*n.e, m));
    }
    case ExprKind::IntrinsicCall: {
        const auto& n = as<IntrinsicExpr>(e);
        return std::make_unique<IntrinsicExpr>(n.op, copyArgs(n.args, m));
    }
    }
    return nullptr;
}

Block copyBlock(const Block& b, const CloneMap& m) {
    Block out;
    out.reserve(b.size());
    for (const auto& s : b) copyStmt(*s, m, out);
    return out;
}

} // namespace

ExprPtr cloneExpr(const Expr& e, const CloneMap& m) { return copy(e, m); }

Block cloneBlock(const Block& b, const CloneMap& m) { return copyBlock(b, m); }

} // namespace wj
