#include "analysis/callgraph.h"

#include "ir/typecheck.h"
#include "ir/walk.h"

namespace wj::analysis {

namespace {

/// Collects the possible callee bodies of one method body. A `new` runs the
/// callee constructor; rule 6 treats ctors as call-free (definition 3(d)),
/// so only its arguments matter.
struct EdgeCollector {
    const Program& prog;
    TypeScope& scope;
    std::set<std::string>& out;

    void pre(const Expr& e) {
        if (e.kind == ExprKind::Call) {
            const auto& n = as<CallExpr>(e);
            const Type rt = typeOf(scope, *n.recv);
            if (!rt.isClass()) return;
            for (const auto& [owner, m] : resolveVirtual(prog, rt.className(), n.method)) {
                (void)m;
                out.insert(owner->name + "." + n.method);
            }
        } else if (e.kind == ExprKind::StaticCall) {
            const auto& n = as<StaticCallExpr>(e);
            if (const ClassDecl* owner = prog.methodOwner(n.cls, n.method)) {
                out.insert(owner->name + "." + n.method);
            }
        }
    }
};

} // namespace

std::vector<std::pair<const ClassDecl*, const Method*>>
resolveVirtual(const Program& prog, const std::string& className, const std::string& method) {
    std::vector<std::pair<const ClassDecl*, const Method*>> out;
    std::set<const ClassDecl*> seen;
    for (const ClassDecl* impl : prog.concreteSubtypes(className)) {
        const ClassDecl* owner = prog.methodOwner(impl->name, method);
        if (!owner || seen.count(owner)) continue;
        const Method* m = owner->ownMethod(method);
        if (m && !m->isAbstract) {
            seen.insert(owner);
            out.push_back({owner, m});
        }
    }
    return out;
}

CallGraph buildCallGraph(const Program& prog, bool wootinjOnly) {
    CallGraph cg;
    for (const ClassDecl* c : prog.classes()) {
        if (wootinjOnly && !c->wootinj) continue;
        for (const auto& m : c->methods) {
            if (m->isAbstract) continue;
            TypeScope scope(prog, m->isStatic ? nullptr : c, *m);
            walkBlock(m->body, EdgeCollector{prog, scope, cg.edges[c->name + "." + m->name]},
                      &scope);
        }
    }
    return cg;
}

} // namespace wj::analysis
