#include "analysis/fusion.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "ir/clone.h"
#include "ir/walk.h"
#include "ir/printer.h"

namespace wj::analysis {

namespace {

/// The bound of `for (v = init; v < bound; v = v + 1)` over an integral
/// variable, or null for any other loop.
const Expr* countedBound(const ForStmt& f) {
    if (!f.varType.isIntegral()) return nullptr;
    auto isVar = [&](const Expr& e) {
        return e.kind == ExprKind::Local && as<LocalExpr>(e).name == f.var;
    };
    const auto* c = f.cond->kind == ExprKind::Binary ? &as<BinaryExpr>(*f.cond) : nullptr;
    const auto* s = f.step->kind == ExprKind::Binary ? &as<BinaryExpr>(*f.step) : nullptr;
    if (!c || c->op != BinOp::Lt || !isVar(*c->l)) return nullptr;
    if (!s || s->op != BinOp::Add || !isVar(*s->l) || s->r->kind != ExprKind::Const ||
        as<ConstExpr>(*s->r).i != 1) {
        return nullptr;
    }
    return c->r.get();
}

/// An initializer that may move above a loop: no effects, no traps, no
/// array element reads.
bool pureInit(const Expr& e) {
    bool pure = true;
    visitExpr(e, [&](const Expr& x) {
        switch (x.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::FieldGet:
        case ExprKind::StaticGet:
        case ExprKind::ArrayLen:
        case ExprKind::Unary:
        case ExprKind::Cast: break;
        case ExprKind::Binary: {
            const BinOp op = as<BinaryExpr>(x).op;
            if (op == BinOp::Div || op == BinOp::Rem) pure = false;
            break;
        }
        default: pure = false; break;
        }
    });
    return pure;
}

/// One side of a candidate pair: a counted loop written in the entry
/// method, or a call statement (`recv.m(args);` / `T v = recv.m(args);`)
/// whose callee is `[decl pure]*; one counted for; [return local]`.
struct Member {
    const Stmt* stmt = nullptr;
    const ForStmt* loop = nullptr;  ///< the source loop (the callee's when inlined)
    const ClassDecl* owner = nullptr;
    const Method* callee = nullptr;  ///< null: a loop of the entry method
    const Expr* recv = nullptr;
    std::vector<std::string> args;
    const DeclStmt* result = nullptr;  ///< `T v = recv.m(args);`

    std::string desc() const {
        std::string d = "for (" + loop->var + ")";
        if (callee) d += " [" + owner->name + "." + callee->name + "]";
        return d;
    }
};

/// A member rewritten into the entry method's namespace.
struct Piece {
    Block pre;   ///< the callee's leading declarations
    Block body;  ///< the loop body, its variable renamed to the placeholder
    ExprPtr init, cond, step;
    Block post;  ///< `T v = <returned local>;`
    std::map<std::string, const Expr*> defs;  ///< stable `pre` definitions
    // Facts over the rewritten body.
    std::set<std::string> writes;     ///< arrays stored through a local
    std::set<std::string> reads;      ///< arrays loaded through a local
    std::set<std::string> mentioned;  ///< every name bound or used
    std::set<std::string> declared;   ///< names bound inside the body
    std::set<std::string> assigned;   ///< names assigned inside the body
};

constexpr const char* kVar = "#fused";  // placeholder for the fused loop variable

void indexPiece(Piece& p) {
    visitBlock(
        p.body,
        [&](const Expr& e) {
            if (e.kind == ExprKind::Local) p.mentioned.insert(as<LocalExpr>(e).name);
            if (e.kind == ExprKind::ArrayGet && as<ArrayGetExpr>(e).arr->kind == ExprKind::Local) {
                p.reads.insert(as<LocalExpr>(*as<ArrayGetExpr>(e).arr).name);
            }
        },
        [&](const Stmt& s) {
            switch (s.kind) {
            case StmtKind::Decl:
                p.declared.insert(as<DeclStmt>(s).name);
                break;
            case StmtKind::For:
                p.declared.insert(as<ForStmt>(s).var);
                break;
            case StmtKind::AssignLocal:
                p.assigned.insert(as<AssignLocalStmt>(s).name);
                break;
            case StmtKind::ArraySet: {
                const auto& n = as<ArraySetStmt>(s);
                if (n.arr->kind == ExprKind::Local) p.writes.insert(as<LocalExpr>(*n.arr).name);
                break;
            }
            default: break;
            }
        });
    p.mentioned.insert(p.declared.begin(), p.declared.end());
    for (const Expr* e : {p.init.get(), p.cond.get()}) {
        visitExpr(*e, [&](const Expr& x) {
            if (x.kind == ExprKind::Local) p.mentioned.insert(as<LocalExpr>(x).name);
        });
    }
}

/// What a group rewrites to: `pre; loop; post` in place of its statements.
struct Built {
    Block pre;
    StmtPtr loop;
    Block post;
};

using PairKey = std::pair<const Stmt*, const Stmt*>;

struct Group {
    PairKey key;
    std::string label;
    const ForStmt* fused = nullptr;  ///< the fused loop inside Plan::method
    Built built;
};

struct Plan {
    std::shared_ptr<Method> method;  ///< null when no group formed
    std::vector<Group> groups;
    /// Report entries in source order: a group index, or -1 and a finished
    /// "not fused:" line.
    std::vector<std::pair<int, std::string>> entries;
};

class Planner {
public:
    Planner(const GraphSnapshot& snap, const ClassDecl& owner, const Method& m,
            const std::map<PairKey, std::string>& refused)
        : prog_(snap.program()), snap_(snap), owner_(owner), m_(m), refused_(refused) {}

    Plan run() {
        for (const Param& p : m_.params) used_.insert(p.name);
        visitBlock(
            m_.body,
            [&](const Expr& e) {
                if (e.kind == ExprKind::Local) used_.insert(as<LocalExpr>(e).name);
            },
            [&](const Stmt& s) {
                if (s.kind == StmtKind::Decl) {
                    const auto& n = as<DeclStmt>(s);
                    used_.insert(n.name);
                    ++declCount_[n.name];
                    if (n.init) def_[n.name] = n.init.get();
                } else if (s.kind == StmtKind::For) {
                    used_.insert(as<ForStmt>(s).var);
                    ++declCount_[as<ForStmt>(s).var];
                } else if (s.kind == StmtKind::AssignLocal) {
                    assigned_.insert(as<AssignLocalStmt>(s).name);
                }
            });
        std::set<std::string> scope;
        for (const Param& p : m_.params) scope.insert(p.name);
        scan(m_.body, scope);

        if (plan_.groups.empty()) return std::move(plan_);
        std::map<const Stmt*, size_t> first;
        for (size_t g = 0; g < plan_.groups.size(); ++g) first[plan_.groups[g].key.first] = g;
        CloneMap cm;
        cm.stmt = [&](const Stmt& s, Block& out) {
            auto it = first.find(&s);
            if (it != first.end()) {
                Group& g = plan_.groups[it->second];
                for (auto& st : g.built.pre) out.push_back(std::move(st));
                g.fused = &as<ForStmt>(*g.built.loop);
                out.push_back(std::move(g.built.loop));
                for (auto& st : g.built.post) out.push_back(std::move(st));
                return true;
            }
            return consumed_.count(&s) > 0;
        };
        auto fm = std::make_shared<Method>();
        fm->name = m_.name;
        fm->params = m_.params;
        fm->ret = m_.ret;
        fm->isStatic = m_.isStatic;
        fm->body = cloneBlock(m_.body, cm);
        plan_.method = std::move(fm);
        return std::move(plan_);
    }

private:
    std::string fresh(const std::string& base) {
        std::string c = base;
        for (int k = 1; used_.count(c) || issued_.count(c); ++k) c = base + "_" + std::to_string(k);
        issued_.insert(c);
        return c;
    }

    /// The snapshot node of the concrete object a `this`-rooted field path
    /// names (object fields never change after construction).
    std::optional<uint32_t> resolvePath(const Expr& e) const {
        std::optional<uint32_t> id;
        if (e.kind == ExprKind::This) id = snap_.root(0);
        if (e.kind == ExprKind::FieldGet) {
            const auto& get = as<FieldGetExpr>(e);
            if (const std::optional<uint32_t> obj = resolvePath(*get.obj)) {
                const GraphSnapshot::Node& o = snap_[*obj];
                for (uint32_t k = 0; k < o.count && !id; ++k) {
                    if (snap_[o.first + k].field->name == get.field) id = snap_.field(*obj, k);
                }
            }
        }
        if (id && snap_[*id].kind != GraphSnapshot::Kind::Object) return std::nullopt;
        return id;
    }

    std::optional<Member> classify(const Stmt& s) const {
        Member mb;
        mb.stmt = &s;
        if (s.kind == StmtKind::For) {
            if (!countedBound(as<ForStmt>(s))) return std::nullopt;
            mb.loop = &as<ForStmt>(s);
            return mb;
        }
        const Expr* e = nullptr;
        if (s.kind == StmtKind::ExprStmt) e = as<ExprStmt>(s).e.get();
        if (s.kind == StmtKind::Decl) {
            mb.result = &as<DeclStmt>(s);
            e = mb.result->init.get();
        }
        if (!e || e->kind != ExprKind::Call) return std::nullopt;
        const auto& call = as<CallExpr>(*e);
        const std::optional<uint32_t> target = resolvePath(*call.recv);
        if (!target) return std::nullopt;
        mb.owner = prog_.methodOwner(snap_[*target].cls->name, call.method);
        mb.callee = mb.owner ? mb.owner->ownMethod(call.method) : nullptr;
        if (!mb.callee || mb.callee->isAbstract || mb.callee->isGlobal || mb.callee->isStatic ||
            mb.callee->params.size() != call.args.size() ||
            !(mb.callee->ret.isVoid() || mb.callee->ret.isPrim())) {
            return std::nullopt;
        }
        for (const auto& a : call.args) {
            if (a->kind != ExprKind::Local) return std::nullopt;
            mb.args.push_back(as<LocalExpr>(*a).name);
        }
        mb.recv = call.recv.get();
        // Shape: [decl pure]*; one counted for; [return local].
        const Block& b = mb.callee->body;
        size_t i = 0;
        while (i < b.size() && b[i]->kind == StmtKind::Decl && as<DeclStmt>(*b[i]).init &&
               pureInit(*as<DeclStmt>(*b[i]).init)) {
            ++i;
        }
        if (i >= b.size() || b[i]->kind != StmtKind::For || !countedBound(as<ForStmt>(*b[i]))) {
            return std::nullopt;
        }
        mb.loop = &as<ForStmt>(*b[i]);
        // Parameters become the caller's argument locals, so the callee must
        // not assign them.
        bool returns = false, setsParam = false;
        visitBlock(mb.loop->body, {}, [&](const Stmt& st) {
            returns = returns || st.kind == StmtKind::Return;
            if (st.kind != StmtKind::AssignLocal) return;
            for (const Param& p : mb.callee->params) {
                setsParam = setsParam || p.name == as<AssignLocalStmt>(st).name;
            }
        });
        if (returns || setsParam) return std::nullopt;
        ++i;
        if (i < b.size()) {
            const auto* r = b[i]->kind == StmtKind::Return ? &as<ReturnStmt>(*b[i]) : nullptr;
            if (!r || i + 1 != b.size() || (r->value && r->value->kind != ExprKind::Local)) {
                return std::nullopt;
            }
            if (mb.result && !r->value) return std::nullopt;
        } else if (mb.result) {
            return std::nullopt;
        }
        return mb;
    }

    /// Rewrites a member into the entry namespace: callee parameters become
    /// the argument locals, callee locals fresh names, `this` the receiver
    /// path, and the loop variable the placeholder.
    Piece rewrite(const Member& mb) {
        Piece p;
        CloneMap cm;
        cm.names[mb.loop->var] = kVar;
        if (mb.callee) {
            for (size_t k = 0; k < mb.args.size(); ++k) {
                cm.names[mb.callee->params[k].name] = mb.args[k];
            }
            std::set<std::string> calleeAssigned;
            visitBlock(mb.callee->body, {}, [&](const Stmt& s) {
                if (s.kind == StmtKind::Decl) cm.names.emplace(as<DeclStmt>(s).name, "");
                if (s.kind == StmtKind::For) cm.names.emplace(as<ForStmt>(s).var, "");
                if (s.kind == StmtKind::AssignLocal) {
                    calleeAssigned.insert(as<AssignLocalStmt>(s).name);
                }
            });
            for (auto& [from, to] : cm.names) {
                if (to.empty()) to = fresh(from);
            }
            cm.self = mb.recv;
            for (const auto& st : mb.callee->body) {
                if (st.get() == mb.loop) break;
                const auto& d = as<DeclStmt>(*st);
                p.pre.push_back(std::make_unique<DeclStmt>(cm.names.at(d.name), d.type,
                                                           cloneExpr(*d.init, cm)));
                if (!calleeAssigned.count(d.name)) {
                    p.defs[cm.names.at(d.name)] = as<DeclStmt>(*p.pre.back()).init.get();
                }
            }
            if (mb.result) {
                const auto& r = as<ReturnStmt>(*mb.callee->body.back());
                p.post.push_back(std::make_unique<DeclStmt>(
                    mb.result->name, mb.result->type, cloneExpr(*r.value, cm)));
            }
        }
        p.init = cloneExpr(*mb.loop->init, cm);
        p.cond = cloneExpr(*mb.loop->cond, cm);
        p.step = cloneExpr(*mb.loop->step, cm);
        p.body = cloneBlock(mb.loop->body, cm);
        indexPiece(p);
        return p;
    }

    /// Stable-definition expansion: never-reassigned, once-declared locals
    /// whose definitions read only stable names are replaced by those
    /// definitions, and `alen(newArr(T, e))` by `e`, so `n` and `r.length`
    /// for `r = new float[n]` key alike. Null when the expansion reads an
    /// array element, calls, or allocates — such ranges are not compared.
    ExprPtr expand(const Expr& e, const std::map<std::string, const Expr*>& extra) {
        std::function<const Expr*(const std::string&)> defOf;
        std::function<bool(const Expr&)> stableExpr = [&](const Expr& x) {
            bool ok = true;
            visitExpr(x, [&](const Expr& y) {
                if (y.kind != ExprKind::Local) return;
                const std::string& nm = as<LocalExpr>(y).name;
                bool param = false;
                for (const Param& p : m_.params) param = param || p.name == nm;
                if (!param && !defOf(nm)) ok = false;
            });
            return ok;
        };
        defOf = [&](const std::string& nm) -> const Expr* {
            auto x = extra.find(nm);
            if (x != extra.end()) return stableExpr(*x->second) ? x->second : nullptr;
            auto d = def_.find(nm);
            if (d == def_.end() || declCount_[nm] != 1 || assigned_.count(nm)) return nullptr;
            return stableExpr(*d->second) ? d->second : nullptr;
        };
        std::function<ExprPtr(const Expr&)> go = [&](const Expr& x) -> ExprPtr {
            CloneMap cm;
            cm.expr = [&](const Expr& y) -> ExprPtr {
                if (y.kind == ExprKind::Local) {
                    const Expr* d = defOf(as<LocalExpr>(y).name);
                    return d ? go(*d) : nullptr;
                }
                if (y.kind == ExprKind::ArrayLen) {
                    ExprPtr a = go(*as<ArrayLenExpr>(y).arr);
                    if (a->kind == ExprKind::NewArray) {
                        return std::move(static_cast<NewArrayExpr&>(*a).len);
                    }
                    return std::make_unique<ArrayLenExpr>(std::move(a));
                }
                return nullptr;
            };
            return cloneExpr(x, cm);
        };
        ExprPtr r = go(e);
        bool comparable = true;
        visitExpr(*r, [&](const Expr& x) {
            switch (x.kind) {
            case ExprKind::ArrayGet:
            case ExprKind::Call:
            case ExprKind::StaticCall:
            case ExprKind::New:
            case ExprKind::NewArray:
            case ExprKind::IntrinsicCall:
            case ExprKind::Cond: comparable = false; break;
            default: break;
            }
        });
        return comparable ? std::move(r) : nullptr;
    }

    /// "[init, bound)" over the expanded forms; `comparable` drops to false
    /// when either side does not expand.
    std::string rangeOf(const Piece& p, const std::map<std::string, const Expr*>& defs,
                        bool& comparable) {
        auto show = [&](const Expr& e) {
            ExprPtr x = expand(e, defs);
            if (!x) comparable = false;
            std::string t = printExpr(x ? *x : e);
            // printExpr brackets every binary; drop the outermost pair.
            int depth = 0;
            bool outer = t.size() > 1 && t.front() == '(';
            for (size_t k = 0; outer && k + 1 < t.size(); ++k) {
                depth += t[k] == '(' ? 1 : t[k] == ')' ? -1 : 0;
                outer = depth > 0;
            }
            return outer && t.back() == ')' ? t.substr(1, t.size() - 2) : t;
        };
        return "[" + show(*p.init) + ", " + show(*as<BinaryExpr>(*p.cond).r) + ")";
    }

    /// Builds the fused group for members a, b with `between` in between,
    /// or explains the refusal. nullopt with an empty reason: not a
    /// producer/consumer pair.
    std::optional<Built> fuse(const Member& a, const Member& b,
                              const std::vector<const Stmt*>& between,
                              const std::set<std::string>& scope, std::string& why) {
        Piece pa = rewrite(a);
        Piece pb = rewrite(b);
        bool feeds = false;
        for (const std::string& r : pb.reads) feeds = feeds || pa.writes.count(r) > 0;
        if (!feeds) return std::nullopt;

        auto refused = refused_.find({a.stmt, b.stmt});
        if (refused != refused_.end()) {
            why = refused->second;
            return std::nullopt;
        }

        // The first loop's scalar outputs: outer locals it updates, and the
        // local a value-returning call defines after it.
        std::set<std::string> scalarOuts;
        for (const std::string& nm : pa.assigned) {
            if (!pa.declared.count(nm)) scalarOuts.insert(nm);
        }
        if (a.result) scalarOuts.insert(a.result->name);
        auto readsOutput = [&](const Expr& e) {
            bool hit = false;
            visitExpr(e, [&](const Expr& x) {
                if (x.kind == ExprKind::Local && scalarOuts.count(as<LocalExpr>(x).name)) hit = true;
                if (x.kind == ExprKind::ArrayGet && as<ArrayGetExpr>(x).arr->kind == ExprKind::Local &&
                    pa.writes.count(as<LocalExpr>(*as<ArrayGetExpr>(x).arr).name)) {
                    hit = true;
                }
            });
            return hit;
        };

        std::set<std::string> hoisted;  // names the group declares above the fused loop
        for (const Stmt* s : between) {
            std::string line = printStmt(*s);
            line = "`" + line.substr(0, line.find('\n')) + "`";
            const auto* d = s->kind == StmtKind::Decl ? &as<DeclStmt>(*s) : nullptr;
            if (d && d->init && readsOutput(*d->init)) {
                why = line + " between the loops reads the first loop's output";
                return std::nullopt;
            }
            if (!d || !d->init || !pureInit(*d->init)) {
                why = line + " between the loops is not a pure declaration";
                return std::nullopt;
            }
            hoisted.insert(d->name);
        }
        for (const auto& st : pb.pre) {
            if (readsOutput(*as<DeclStmt>(*st).init)) {
                why = "'" + b.desc() + "' takes the first loop's output as an argument";
                return std::nullopt;
            }
            hoisted.insert(as<DeclStmt>(*st).name);
        }
        // A scalar the first loop updates must not reach the second: a read
        // would see a partial value, and a second reduction into it would
        // interleave the two sums.
        for (const std::string& nm : scalarOuts) {
            if (!pb.mentioned.count(nm)) continue;
            why = a.result && nm == a.result->name
                      ? "the second loop reads '" + nm + "', which the first call returns"
                      : "both loops use '" + nm + "', which the first loop updates";
            return std::nullopt;
        }
        for (const std::string& nm : pb.assigned) {
            if (!pb.declared.count(nm) && pa.mentioned.count(nm)) {
                why = "both loops use '" + nm + "', which the second loop updates";
                return std::nullopt;
            }
        }
        for (const std::string& nm : pa.mentioned) {
            if (hoisted.count(nm) && !pa.declared.count(nm)) {
                why = "the first loop reads '" + nm + "', which a hoisted declaration rebinds";
                return std::nullopt;
            }
        }
        if (!(a.loop->varType == b.loop->varType)) {
            why = "the loop variables have different types";
            return std::nullopt;
        }
        std::map<std::string, const Expr*> defs = pa.defs;
        defs.insert(pb.defs.begin(), pb.defs.end());
        bool comparable = true;
        const std::string ra = rangeOf(pa, defs, comparable);
        const std::string rb = rangeOf(pb, defs, comparable);
        if (!comparable) {
            why = "trip ranges " + ra + " and " + rb + " are not comparable";
            return std::nullopt;
        }
        if (ra != rb) {
            why = "trip ranges differ: " + ra + " vs " + rb;
            return std::nullopt;
        }

        // The fused variable keeps the first loop's name unless that name is
        // visible here or bound anywhere in the group.
        std::string var = a.loop->var;
        if (scope.count(var) || pa.mentioned.count(var) || pb.mentioned.count(var) ||
            hoisted.count(var)) {
            var = fresh(var);
        }
        // Body-local names of entry-method loops that now meet the other
        // member's names, or a hoisted declaration, in one scope move aside.
        CloneMap ma, mb2;
        ma.names[kVar] = var;
        mb2.names[kVar] = var;
        if (!a.callee) {
            for (const std::string& nm : pa.declared) {
                if (pb.mentioned.count(nm) || hoisted.count(nm)) ma.names[nm] = fresh(nm);
            }
        }
        if (!b.callee) {
            for (const std::string& nm : pb.declared) {
                if (pa.mentioned.count(nm)) mb2.names[nm] = fresh(nm);
            }
        }
        Block body = cloneBlock(pa.body, ma);
        for (auto& st : cloneBlock(pb.body, mb2)) body.push_back(std::move(st));

        Built out;
        for (auto& st : pa.pre) out.pre.push_back(std::move(st));
        for (const Stmt* s : between) {
            const auto& d = as<DeclStmt>(*s);
            out.pre.push_back(std::make_unique<DeclStmt>(d.name, d.type, cloneExpr(*d.init, {})));
        }
        for (auto& st : pb.pre) out.pre.push_back(std::move(st));
        out.loop = std::make_unique<ForStmt>(var, a.loop->varType, cloneExpr(*pa.init, ma),
                                             cloneExpr(*pa.cond, ma), cloneExpr(*pa.step, ma),
                                             std::move(body));
        for (auto& st : pa.post) out.post.push_back(std::move(st));
        for (auto& st : pb.post) out.post.push_back(std::move(st));
        return out;
    }

    /// Pairs adjacent members of `b` (innermost blocks first). A member
    /// statement that itself contains a group stays as written.
    void scan(const Block& b, std::set<std::string> scope) {
        std::optional<Member> prev;
        size_t prevIdx = 0;
        for (size_t i = 0; i < b.size(); ++i) {
            const Stmt& s = *b[i];
            const size_t before = plan_.groups.size();
            switch (s.kind) {
            case StmtKind::For: {
                auto inner = scope;
                inner.insert(as<ForStmt>(s).var);
                scan(as<ForStmt>(s).body, inner);
                break;
            }
            case StmtKind::If:
                scan(as<IfStmt>(s).thenB, scope);
                scan(as<IfStmt>(s).elseB, scope);
                break;
            case StmtKind::While: scan(as<WhileStmt>(s).body, scope); break;
            default: break;
            }
            std::optional<Member> cur;
            if (plan_.groups.size() == before) cur = classify(s);
            if (cur) {
                if (prev) {
                    std::vector<const Stmt*> between;
                    for (size_t k = prevIdx + 1; k < i; ++k) between.push_back(b[k].get());
                    std::string why;
                    std::optional<Built> built = fuse(*prev, *cur, between, scope, why);
                    const std::string label =
                        owner_.name + "." + m_.name + ": " + prev->desc() + " + " + cur->desc();
                    if (built) {
                        Group g;
                        g.key = {prev->stmt, cur->stmt};
                        g.label = label;
                        g.built = std::move(*built);
                        plan_.entries.emplace_back(static_cast<int>(plan_.groups.size()), "");
                        plan_.groups.push_back(std::move(g));
                        for (const Stmt* st : between) consumed_.insert(st);
                        consumed_.insert(cur->stmt);
                        cur.reset();
                    } else if (!why.empty()) {
                        plan_.entries.emplace_back(-1, "not fused: " + label + " -- " + why);
                    }
                }
                prev = std::move(cur);
                prevIdx = i;
            }
            if (s.kind == StmtKind::Decl) scope.insert(as<DeclStmt>(s).name);
        }
    }

    const Program& prog_;
    const GraphSnapshot& snap_;
    const ClassDecl& owner_;
    const Method& m_;
    const std::map<PairKey, std::string>& refused_;

    std::set<std::string> used_, issued_, assigned_;
    std::map<std::string, int> declCount_;
    std::map<std::string, const Expr*> def_;
    std::set<const Stmt*> consumed_;
    Plan plan_;
};

/// Would the translator run this loop as SIMD lanes? (The f32/f64 +/*
/// reductions stay on the chunk-serial path; see LoopVector.)
bool simdUsable(const Result& r, const ForStmt* loop) {
    auto it = r.loopVector.find(loop);
    return it != r.loopVector.end() && it->second.verdict != VecVerdict::ScalarOnly &&
           it->second.exactReductions;
}

} // namespace

Result analyzeEntryFused(const GraphSnapshot& snap, const std::string& method, bool simd,
                         bool soa) {
    const GraphSnapshot::Node& recv = snap[snap.root(0)];
    const ClassDecl* owner = nullptr;
    const Method* m = nullptr;
    if (recv.kind == GraphSnapshot::Kind::Object) {
        owner = snap.program().methodOwner(recv.cls->name, method);
        m = owner ? owner->ownMethod(method) : nullptr;
    }
    if (!m || m->isAbstract) return analyzeEntry(snap, method, nullptr, soa);

    std::map<PairKey, std::string> refused;
    for (;;) {
        Plan plan = Planner(snap, *owner, *m, refused).run();
        Result r = analyzeEntry(snap, method, plan.method.get(), soa);
        bool again = false;
        for (const Group& g : plan.groups) {
            auto it = r.loopParallel.find(g.fused);
            const ParVerdict v = it == r.loopParallel.end() ? ParVerdict::Serial : it->second.verdict;
            if (v == ParVerdict::CondParallel) {
                refused[g.key] = "the fused loop is parallel only under a runtime alias guard (" +
                                 it->second.reason +
                                 "), and its serial fallback would not be the unfused program";
                again = true;
            } else if (v == ParVerdict::Serial) {
                refused[g.key] = "the fused loop is serial: " +
                                 (it == r.loopParallel.end()
                                      ? std::string("it sits inside an outlined loop")
                                      : it->second.reason);
                again = true;
            } else if (simd && !simdUsable(r, g.fused)) {
                refused[g.key] = "under WJ_SIMD=1 the fused loop would run scalar";
                again = true;
            }
        }
        if (again) continue;

        for (const auto& [gi, line] : plan.entries) {
            if (gi < 0) {
                r.fusionReport.push_back(line);
                continue;
            }
            const Group& g = plan.groups[static_cast<size_t>(gi)];
            const LoopParallel& lp = r.loopParallel.at(g.fused);
            r.fusionReport.push_back(
                "fused: " + g.label + " -- " +
                (lp.verdict == ParVerdict::ParallelReduce ? "parallel (reduction)" : "parallel"));
        }
        r.parallelReport.insert(r.parallelReport.end(), r.fusionReport.begin(),
                                r.fusionReport.end());
        r.fusedLoops = static_cast<int>(plan.groups.size());
        r.fusedEntry = std::move(plan.method);
        return r;
    }
}

} // namespace wj::analysis
