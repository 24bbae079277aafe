#include "analysis/facts.h"

#include <optional>

#include "ir/typecheck.h"
#include "ir/walk.h"
#include "rules/rules.h"
#include "trace/metrics.h"

namespace wj::analysis {

// ----------------------------------------------------- mutated field groups

FieldGroups::FieldGroups(const Program& prog) {
    for (const ClassDecl* cls : prog.classes()) {
        if (cls->ctor) scanMethod(prog, *cls, *cls->ctor, /*inCtor=*/true);
        for (const auto& m : cls->methods) {
            if (!m->isAbstract) scanMethod(prog, *cls, *m, /*inCtor=*/false);
        }
    }
}

std::vector<std::string> FieldGroups::groupOf(const std::string& key) const {
    const std::string leader = find(key);
    std::vector<std::string> out;
    for (const auto& [k, _] : parent_) {
        if (find(k) == leader) out.push_back(k);
    }
    if (out.empty()) out.push_back(key);
    return out;
}

std::string FieldGroups::find(const std::string& k) const {
    auto it = parent_.find(k);
    if (it == parent_.end() || it->second == k) return k;
    return find(it->second);
}

void FieldGroups::ensure(const std::string& k) {
    if (!parent_.count(k)) parent_[k] = k;
}

void FieldGroups::unite(const std::string& a, const std::string& b) {
    ensure(a);
    ensure(b);
    const std::string ra = find(a), rb = find(b);
    if (ra == rb) return;
    const bool openUnion = open_.count(ra) || open_.count(rb);
    parent_[ra] = rb;
    if (openUnion) open_.insert(rb);
}

void FieldGroups::markOpen(const std::string& k) {
    ensure(k);
    open_.insert(find(k));
}

namespace {

/// Static class of a FieldSet receiver for keying; best effort (falls back
/// to a per-class private key when untypeable).
std::string staticClassOf(const Program& prog, const ClassDecl& cls, const Method& m,
                          const Expr& obj) {
    try {
        TypeScope scope(prog, &cls, m);
        const Type t = typeOf(scope, obj);
        if (t.isClass()) return t.className();
    } catch (const WjError&) {
    }
    return cls.name;
}

} // namespace

void FieldGroups::scanMethod(const Program& prog, const ClassDecl& cls, const Method& m,
                             bool inCtor) {
    // Per-method syntactic bindings: array local -> traced source field
    // keys, or nullopt meaning "untraceable".
    std::map<std::string, std::optional<std::set<std::string>>> localSrc;

    auto traceExpr = [&](const Expr& e) -> std::optional<std::set<std::string>> {
        if (e.kind == ExprKind::FieldGet) {
            const auto& fg = as<FieldGetExpr>(e);
            if (fg.obj->kind == ExprKind::This) {
                return std::set<std::string>{fieldKeyOf(prog, cls.name, fg.field)};
            }
            return std::nullopt;
        }
        if (e.kind == ExprKind::Local) {
            auto it = localSrc.find(as<LocalExpr>(e).name);
            if (it != localSrc.end()) return it->second;
            return std::nullopt;
        }
        return std::nullopt;  // NewArray, calls, ... — not a same-object field
    };

    auto onStmt = [&](const Stmt& st) {
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            if (n.type.isArray()) localSrc[n.name] = n.init ? traceExpr(*n.init) : std::nullopt;
            break;
        }
        case StmtKind::AssignLocal: {
            const auto& n = as<AssignLocalStmt>(st);
            if (localSrc.count(n.name)) localSrc[n.name] = traceExpr(*n.value);
            break;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            const bool selfStore = n.obj->kind == ExprKind::This;
            if (inCtor && selfStore) break;  // construction, not mutation
            // Which field? Only array fields matter (rule: post-ctor
            // stores are legal only for arrays anyway).
            const std::string key = fieldKeyOf(
                prog, selfStore ? cls.name : staticClassOf(prog, cls, m, *n.obj), n.field);
            mutated_.insert(key);
            ensure(key);
            if (!selfStore) {
                markOpen(key);
                break;
            }
            auto src = traceExpr(*n.value);
            if (!src) {
                markOpen(key);
            } else {
                for (const std::string& s : *src) unite(key, s);
            }
            break;
        }
        default: break;
        }
    };
    try {
        visitBlock(m.body, {}, onStmt);
    } catch (const WjError&) {
        // Ill-typed lint input; the typechecker reports it separately.
    }
}

// ------------------------------------------------------------------- facts

ProgramFacts::ProgramFacts(const Program& prog)
    : groups_(prog), effects_(computeEffects(prog)) {
    try {
        ruleViolations_ = checkCodingRules(prog);
    } catch (const WjError&) {
        ruleError_ = std::current_exception();
    }
    for (const ClassDecl* cls : prog.classes()) {
        if (cls->ctor) methods_[cls->ctor.get()].owner = cls;
        for (const auto& m : cls->methods) {
            if (!m->isAbstract) methods_[m.get()].owner = cls;
        }
    }
}

const ProgramFacts& ProgramFacts::of(const Program& prog) {
    if (!prog.facts_) throw UsageError("analysis of a moved-from Program");
    Program::FactsSlot& slot = *prog.facts_;
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.facts) {
        static auto& builds = trace::Metrics::instance().counter("analysis.facts.builds");
        slot.facts = std::make_shared<const ProgramFacts>(prog);
        builds.inc();
    }
    return *slot.facts;
}

const std::vector<Violation>& ProgramFacts::ruleViolations() const {
    if (ruleError_) std::rethrow_exception(ruleError_);
    return ruleViolations_;
}

const MethodFacts* ProgramFacts::method(const Method& m) const {
    auto it = methods_.find(&m);
    if (it == methods_.end()) return nullptr;
    MethodSlot& slot = it->second;
    std::call_once(slot.once, [&] {
        slot.facts.cfg = Cfg::build(m);
        slot.facts.daErrors =
            checkDefiniteAssignment(slot.facts.cfg, *slot.owner, m, &slot.facts.daWarnings);
    });
    return &slot.facts;
}

} // namespace wj::analysis
