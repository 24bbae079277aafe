#include "analysis/analysis.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "analysis/callgraph.h"
#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/effects.h"
#include "analysis/facts.h"
#include "analysis/interval.h"
#include "ir/walk.h"
#include "ir/intrinsics.h"
#include "ir/printer.h"

namespace wj::analysis {

namespace {

// ---------------------------------------------------------------- utilities

std::string strBound(int64_t v) {
    if (v == Itv::kNegInf) return "-inf";
    if (v == Itv::kPosInf) return "+inf";
    return std::to_string(v);
}

std::string strItv(const Itv& v) {
    return "[" + strBound(v.lo) + ", " + strBound(v.hi) + "]";
}

/// Collects every local name read by an expression tree.
void collectReads(const Expr& e, std::vector<std::string>& out) {
    visitExpr(e, [&](const Expr& x) {
        if (x.kind == ExprKind::Local) out.push_back(as<LocalExpr>(x).name);
    });
}

/// Local names a CFG node reads (in its expressions, before its own defs).
std::vector<std::string> nodeReads(const CfgNode& nd) {
    std::vector<std::string> out;
    switch (nd.kind) {
    case CfgNode::Kind::Entry:
    case CfgNode::Kind::Exit: break;
    case CfgNode::Kind::Branch: collectReads(*nd.cond, out); break;
    case CfgNode::Kind::ForInit: collectReads(*nd.forS->init, out); break;
    case CfgNode::Kind::ForStep: collectReads(*nd.forS->step, out); break;
    case CfgNode::Kind::Stmt:
        switch (nd.stmt->kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(*nd.stmt);
            if (n.init) collectReads(*n.init, out);
            break;
        }
        case StmtKind::AssignLocal: collectReads(*as<AssignLocalStmt>(*nd.stmt).value, out); break;
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(*nd.stmt);
            collectReads(*n.obj, out);
            collectReads(*n.value, out);
            break;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(*nd.stmt);
            collectReads(*n.arr, out);
            collectReads(*n.idx, out);
            collectReads(*n.value, out);
            break;
        }
        case StmtKind::Return: {
            const auto& n = as<ReturnStmt>(*nd.stmt);
            if (n.value) collectReads(*n.value, out);
            break;
        }
        case StmtKind::ExprStmt: collectReads(*as<ExprStmt>(*nd.stmt).e, out); break;
        case StmtKind::SuperCtor:
            for (const auto& a : as<SuperCtorStmt>(*nd.stmt).args) collectReads(*a, out);
            break;
        default: break;
        }
        break;
    }
    return out;
}

/// Local name a node defines, if any; `uninit` is set for a Decl without an
/// initializer (which *revokes* definite assignment of the name — the IR
/// reuses names across sibling scopes).
const std::string* nodeDef(const CfgNode& nd, bool& uninit) {
    uninit = false;
    switch (nd.kind) {
    case CfgNode::Kind::ForInit:
    case CfgNode::Kind::ForStep: return &nd.forS->var;
    case CfgNode::Kind::Stmt:
        if (nd.stmt->kind == StmtKind::Decl) {
            const auto& n = as<DeclStmt>(*nd.stmt);
            uninit = n.init == nullptr;
            return &n.name;
        }
        if (nd.stmt->kind == StmtKind::AssignLocal) return &as<AssignLocalStmt>(*nd.stmt).name;
        return nullptr;
    default: return nullptr;
    }
}

// ------------------------------------------------------- definite assignment

/// Forward must-analysis: the set of locals definitely assigned on every
/// path into a node. Join is set intersection; `reach` distinguishes the
/// bottom element (no path yet) from "reached with nothing assigned".
struct DaState {
    bool reach = false;
    std::set<std::string> assigned;
};

struct DaDomain {
    const Cfg& cfg;
    DaState entryState;

    using State = DaState;
    State boundary() { return entryState; }

    State transfer(int node, State s) {
        if (!s.reach) return s;
        bool uninit = false;
        if (const std::string* def = nodeDef(cfg.nodes[node], uninit)) {
            if (uninit) {
                s.assigned.erase(*def);
            } else {
                s.assigned.insert(*def);
            }
        }
        return s;
    }

    void refine(const CfgEdge&, State&) {}

    bool join(State& into, const State& from) {
        if (!from.reach) return false;
        if (!into.reach) {
            into = from;
            return true;
        }
        std::set<std::string> meet;
        std::set_intersection(into.assigned.begin(), into.assigned.end(), from.assigned.begin(),
                              from.assigned.end(), std::inserter(meet, meet.begin()));
        if (meet == into.assigned) return false;
        into.assigned = std::move(meet);
        return true;
    }

    void widen(State&, const State&) {}  // finite lattice
};

// ------------------------------------------------------------ live variables

/// Backward may-analysis for the dead-store warning. The solver's in[] for a
/// backward direction holds the state at the node's OUT edge — i.e. live-out.
struct LiveDomain {
    const Cfg& cfg;

    using State = std::set<std::string>;
    State boundary() { return {}; }

    State transfer(int node, State s) {
        bool uninit = false;
        if (const std::string* def = nodeDef(cfg.nodes[node], uninit)) s.erase(*def);
        for (const std::string& r : nodeReads(cfg.nodes[node])) s.insert(r);
        return s;
    }

    void refine(const CfgEdge&, State&) {}

    bool join(State& into, const State& from) {
        bool changed = false;
        for (const std::string& v : from) changed |= into.insert(v).second;
        return changed;
    }

    void widen(State&, const State&) {}
};

} // namespace

std::vector<Violation> checkDefiniteAssignment(const Program& prog, const ClassDecl& cls,
                                               const Method& m,
                                               std::vector<Violation>* warnings) {
    (void)prog;
    return checkDefiniteAssignment(Cfg::build(m), cls, m, warnings);
}

std::vector<Violation> checkDefiniteAssignment(const Cfg& cfg, const ClassDecl& cls,
                                               const Method& m,
                                               std::vector<Violation>* warnings) {
    std::vector<Violation> errors;
    if (m.isAbstract) return errors;
    const std::string where = cls.name + "." + (m.isCtor() ? "<init>" : m.name);

    DaDomain da{cfg, {}};
    da.entryState.reach = true;
    for (const Param& p : m.params) da.entryState.assigned.insert(p.name);
    const auto states = solve(cfg, da, Direction::Forward);

    std::set<std::string> reported;
    for (int node : cfg.rpo()) {
        const DaState& in = states[node];
        if (!in.reach) continue;  // unreachable code: nothing to report
        for (const std::string& name : nodeReads(cfg.nodes[node])) {
            if (in.assigned.count(name)) continue;
            if (!reported.insert(name).second) continue;
            errors.push_back({"uninit", where,
                              "local '" + name + "' may be read before it is assigned"});
        }
    }

    if (warnings) {
        LiveDomain live{cfg};
        const auto liveOut = solve(cfg, live, Direction::Backward);
        for (size_t node = 0; node < cfg.nodes.size(); ++node) {
            const CfgNode& nd = cfg.nodes[node];
            if (nd.kind != CfgNode::Kind::Stmt || nd.stmt->kind != StmtKind::AssignLocal) continue;
            const auto& st = as<AssignLocalStmt>(*nd.stmt);
            if (liveOut[node].count(st.name)) continue;
            if (hasEffects(*st.value)) continue;  // keep the computation's effects
            warnings->push_back({"dead-store", where,
                                 "value stored to '" + st.name + "' is never read"});
        }
    }
    return errors;
}

// ======================================================== interval analysis

namespace {

struct AbsObj;
using AbsObjPtr = std::shared_ptr<AbsObj>;

/// One abstract value covering every WJ type:
///   numerics  — `num` (floats are always top; only the *type* matters)
///   arrays    — `len` interval + `roots` allocation-site set (empty set =
///               unknown provenance, may alias anything)
///   objects   — `objs` points-to set (empty = unknown object)
///   requests  — `tokens`, the MpiIrecvF32 sites an `int` request may carry
struct AVal {
    Type type = Type::voidTy();
    Itv num = Itv::top();
    Itv len = Itv::top();
    std::set<int> roots;
    std::vector<AbsObjPtr> objs;
    std::set<const void*> tokens;
};

/// An abstract object: exact class plus per-field abstract values. Produced
/// either from an Object node of the jit() snapshot (entry analysis) or by
/// abstractly executing a constructor at a `new` site.
struct AbsObj {
    const ClassDecl* cls = nullptr;
    std::map<std::string, AVal> fields;
};

constexpr size_t kMaxRoots = 8;
constexpr size_t kMaxObjs = 4;
constexpr size_t kMaxTokens = 8;
constexpr int kMaxInlineDepth = 48;

bool joinAVal(AVal& a, const AVal& b) {
    bool changed = false;
    if (a.type.isVoid() && !b.type.isVoid()) {
        a.type = b.type;
        changed = true;
    }
    const Itv n = a.num.join(b.num);
    if (n != a.num) {
        a.num = n;
        changed = true;
    }
    const Itv l = a.len.join(b.len);
    if (l != a.len) {
        a.len = l;
        changed = true;
    }
    // Roots: empty means "unknown, intersects everything" — absorbing.
    if (!a.roots.empty()) {
        if (b.roots.empty()) {
            a.roots.clear();
            changed = true;
        } else {
            for (int r : b.roots) changed |= a.roots.insert(r).second;
            if (a.roots.size() > kMaxRoots) {
                a.roots.clear();
                changed = true;
            }
        }
    }
    if (!a.objs.empty()) {
        if (b.objs.empty() && b.type.isClass()) {
            a.objs.clear();
            changed = true;
        } else {
            for (const AbsObjPtr& o : b.objs) {
                if (std::find(a.objs.begin(), a.objs.end(), o) == a.objs.end()) {
                    a.objs.push_back(o);
                    changed = true;
                }
            }
            if (a.objs.size() > kMaxObjs) {
                a.objs.clear();
                changed = true;
            }
        }
    }
    if (!a.tokens.empty() || !b.tokens.empty()) {
        for (const void* t : b.tokens) changed |= a.tokens.insert(t).second;
        if (a.tokens.size() > kMaxTokens) a.tokens.clear();
    }
    return changed;
}

/// Abstract values of the locals in scope, sorted by name in one contiguous
/// vector: an environment holds a handful of locals, and the solver copies
/// and joins one at every CFG node. The interface is std::map's subset the
/// engine uses.
class Vars {
public:
    using Entry = std::pair<std::string, AVal>;
    using iterator = std::vector<Entry>::iterator;
    using const_iterator = std::vector<Entry>::const_iterator;

    iterator begin() { return v_.begin(); }
    iterator end() { return v_.end(); }
    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }

    iterator find(const std::string& k) {
        auto it = lowerBound(k);
        return it != v_.end() && it->first == k ? it : v_.end();
    }
    const_iterator find(const std::string& k) const {
        return const_cast<Vars*>(this)->find(k);
    }

    AVal& operator[](const std::string& k) {
        auto it = lowerBound(k);
        if (it == v_.end() || it->first != k) it = v_.insert(it, Entry(k, AVal{}));
        return it->second;
    }

    /// Inserts `k` -> `v` unless `k` is present (std::map::emplace).
    void emplace(const std::string& k, AVal v) {
        auto it = lowerBound(k);
        if (it == v_.end() || it->first != k) v_.insert(it, Entry(k, std::move(v)));
    }

    /// Inserts `e` before `pos`, which must keep the order; returns the
    /// position after it (`pos` itself is invalidated).
    iterator insertBefore(iterator pos, Entry e) { return v_.insert(pos, std::move(e)) + 1; }

private:
    iterator lowerBound(const std::string& k) {
        return std::lower_bound(v_.begin(), v_.end(), k,
                                [](const Entry& e, const std::string& key) { return e.first < key; });
    }

    std::vector<Entry> v_;
};

/// The abstract environment at a program point.
struct Env {
    bool reach = false;  // default-constructed = bottom
    Vars vars;
};

bool joinEnv(Env& a, const Env& b) {
    if (!b.reach) return false;
    if (!a.reach) {
        a = b;
        return true;
    }
    // Both are sorted by name: merge in one pass.
    bool changed = false;
    auto it = a.vars.begin();
    for (const auto& [k, v] : b.vars) {
        while (it != a.vars.end() && it->first < k) ++it;
        if (it != a.vars.end() && it->first == k) {
            changed |= joinAVal(it->second, v);
            ++it;
        } else {
            it = a.vars.insertBefore(it, {k, v});
            changed = true;
        }
    }
    return changed;
}

void widenEnv(Env& s, const Env& prev) {
    if (!s.reach || !prev.reach) return;
    for (auto& [k, v] : s.vars) {
        auto it = prev.vars.find(k);
        if (it == prev.vars.end()) continue;
        v.num = v.num.widen(it->second.num);
        v.len = v.len.widen(it->second.len);
    }
}

// -------------------------------------------------------------- memo keys

// The call and `new` memos key a context by its exact abstract values,
// written as raw bytes: every set is prefixed by its size and every name by
// its length, so distinct contexts never share a key.

template <class T>
void keyAppend(std::string& key, T x) {
    key.append(reinterpret_cast<const char*>(&x), sizeof x);
}

void keyAppend(std::string& key, const Type& t) {
    keyAppend(key, static_cast<uint8_t>(t.kind()));
    if (t.isPrim()) {
        keyAppend(key, static_cast<uint8_t>(t.prim()));
    } else if (t.isArray()) {
        keyAppend(key, t.elem());
    } else if (t.isClass()) {
        keyAppend(key, t.className().size());
        key += t.className();
    }
}

void keyAppend(std::string& key, const AVal& v) {
    keyAppend(key, v.type);
    keyAppend(key, v.num.lo);
    keyAppend(key, v.num.hi);
    keyAppend(key, v.len.lo);
    keyAppend(key, v.len.hi);
    keyAppend(key, v.roots.size());
    for (int r : v.roots) keyAppend(key, r);
    keyAppend(key, v.objs.size());
    for (const AbsObjPtr& o : v.objs) keyAppend(key, o.get());
    keyAppend(key, v.tokens.size());
    for (const void* t : v.tokens) keyAppend(key, t);
}

/// Memo key of the context `site` runs in: receiver (if any), then args.
std::string memoKey(const void* site, const AVal* self, const std::vector<AVal>& args) {
    std::string key;
    keyAppend(key, site);
    keyAppend(key, self != nullptr);
    if (self) keyAppend(key, *self);
    keyAppend(key, args.size());
    for (const AVal& a : args) keyAppend(key, a);
    return key;
}

// ------------------------------------------------------------------ engine

struct Pending;  // race-walk state, defined below

class Engine {
public:
    /// `soa`: the translator will store arrays of Inline-verdict classes
    /// SoA. The SIMD verdict for element loops depends on that layout, so
    /// the caller passes the same switch the translator uses.
    Engine(const Program& prog, Result& out, bool lint, bool soa)
        : prog_(prog), out_(out), lint_(lint), soaOn_(soa), facts_(ProgramFacts::of(prog)) {}

    void runEntry(const GraphSnapshot& g, const std::string& method, const Method* entryBody);
    void runLint();

    // -- shared helpers used by the dataflow domain (public for the local
    //    domain struct; everything lives in an anonymous namespace anyway).
    AVal evalExpr(Env& env, const Expr& e);
    void stmtTransfer(Env& env, const Stmt& st, AVal* retJoin, bool* retSet);
    void refineGuard(Env& env, const Expr& cond, bool sense);

private:
    // ---- identity of abstract array allocations
    int rootOf(const void* site) {
        auto it = rootIds_.find(site);
        if (it != rootIds_.end()) return it->second;
        const int id = nextRoot_++;
        rootIds_.emplace(site, id);
        return id;
    }

    AVal unknownOf(const Type& t) {
        AVal v;
        v.type = t;
        if (t.isArray()) v.len = Itv::atLeast(0);
        if (t.isPrim(Prim::Bool)) v.num = Itv::range(0, 1);
        return v;
    }

    // ---- abstraction of the jit() snapshot (jit-entry analysis)
    AVal absOfNode(const GraphSnapshot& g, uint32_t id, const Type& declared);

    /// Re-joins mutated-group array fields of a freshly built object so
    /// every later read already sees the over-approximation (cur/nxt swap).
    void normalizeMutatedFields(const AbsObjPtr& o);

    /// Appends `m`'s definite-assignment findings to the result, once per
    /// body; returns its Program facts (nullptr for a body the Program does
    /// not own, which is checked here instead).
    const MethodFacts* noteDefiniteAssignment(const ClassDecl& owner, const Method& m);

    // ---- context-sensitive interprocedural core
    AVal analyzeCall(const ClassDecl& owner, const Method& m, const AVal* self,
                     const std::vector<AVal>& args);
    AVal evalNew(Env& env, const NewExpr& n);
    void execCtor(const ClassDecl& cls, const AbsObjPtr& obj, const std::vector<AVal>& args);

    AVal readField(const AVal& obj, const std::string& field);
    const Effects& effectsOf(const Method& m) const;
    AVal evalCall(Env& env, const CallExpr& n);
    AVal evalStaticCall(Env& env, const StaticCallExpr& n);
    AVal evalIntrinsic(Env& env, const IntrinsicExpr& n);
    AVal evalBinary(const BinaryExpr& n, const AVal& l, const AVal& r);

    void recordAccess(const void* site, const AVal& arr, const AVal& idx, bool reachable);

    // ---- loop-parallelization prover (wjrt_parallel_for outlining + lint)
    /// index = k * v + w, where v is the candidate loop variable and w is an
    /// interval covering the iteration-dependent remainder. The fallback for
    /// any expression the structural rules cannot decompose is (k = 0,
    /// w = its node-state interval), which is always sound: the widened
    /// interval covers the value in every iteration, and k = 0 pairs use the
    /// full-footprint overlap test.
    struct LinForm {
        int64_t k = 0;
        Itv w = Itv::top();
    };
    void proveLoops(const std::string& label, const Method& m, const Cfg& cfg,
                    std::vector<Env>& states);
    /// `vectorOnly` switches the prover into the SIMD-legality mode of the
    /// proveVectors pass: verdicts flow to noteVector instead of noteLoop,
    /// accesses must additionally be unit-stride, and the alias pairs widen
    /// to every may-aliasing written/other pair (restrict soundness).
    ParVerdict proveLoop(const std::string& label, const ForStmt& fs, const Cfg& cfg,
                         std::vector<Env>& states, bool vectorOnly = false);
    bool ctorAllowsParallel(const ClassDecl* cls);
    void noteLoop(const ForStmt* fs, const std::string& label, ParVerdict v, std::string reason,
                  std::vector<std::pair<std::string, std::string>> pairs,
                  std::vector<Reduction> reds = {});
    void noteVector(const ForStmt* fs, const std::string& label, LoopVector v);
    void finishParallelReport();
    void finishVectorReport();
    void finishLayoutReport();

    // ---- communication race walk (structural, per unique method body)
    void raceWalk(const Method& m, Env env);
    void raceBlock(Env& env, const Block& b, std::vector<Pending>& p);
    void raceStmt(Env& env, const Stmt& st, std::vector<Pending>& p);
    void raceExpr(Env& env, const Expr& e, std::vector<Pending>& p);
    void raceNode(Env& env, const Expr& e, std::vector<Pending>& p);
    void checkWrite(const std::vector<Pending>& p, const std::set<int>& roots, const Itv& region,
                    const void* wsite, const std::string& what);

    std::string where() const {
        return whereStack_.empty() ? std::string("?") : whereStack_.back();
    }

    const Program& prog_;
    Result& out_;
    bool lint_;
    const bool soaOn_;  ///< the translator will split Inline classes (WJ_SOA=1)
    const ProgramFacts& facts_;
    /// A rewritten entry body analyzed in place of `entryOrig_`; its effect
    /// summary is the original's (inlining moves effects, it adds none).
    const Method* entryBody_ = nullptr;
    const Method* entryOrig_ = nullptr;

    std::map<const void*, int> rootIds_;
    int nextRoot_ = 1;
    std::vector<AbsObjPtr> snapObjs_;  ///< by snapshot node: object graphs may share and cycle
    std::unordered_map<std::string, AbsObjPtr> newMemo_;  ///< keyed by memoKey()
    std::unordered_map<std::string, AVal> callMemo_;
    std::unordered_set<std::string> inProgress_;
    int depth_ = 0;

    std::set<const Method*> daDone_;
    std::set<const Method*> raceDone_;
    std::set<std::pair<const void*, const void*>> raceReported_;
    std::set<const void*> oobReported_;
    std::set<const void*> loopWarned_;
    std::vector<std::string> whereStack_;

    std::map<const ClassDecl*, bool> ctorParOk_;
    std::vector<const void*> loopOrder_;            ///< report order (first proof)
    std::map<const void*, std::string> loopLabel_;  ///< "Cls.method: for (v)"
    std::vector<const void*> vecOrder_;             ///< vector-report order
    std::map<const void*, std::string> vecLabel_;

    friend struct IntervalDomain;
};

AVal Engine::absOfNode(const GraphSnapshot& g, uint32_t id, const Type& declared) {
    using Kind = GraphSnapshot::Kind;
    const GraphSnapshot::Node& n = g[id];
    AVal r;
    switch (n.kind) {
    case Kind::Prim:
        r = unknownOf(Type::prim(n.prim()));
        if (n.exactPrim()) r.num = Itv::of(n.bits);  // floats stay unknown
        return r;
    case Kind::Array:
        r.type = Type::array(g.elemType(n));
        r.len = Itv::of(n.bits);
        r.roots = {static_cast<int>(id)};  // the node number: shared arrays alias
        return r;
    case Kind::Object:
        r.type = Type::cls(n.cls->name);
        if (!snapObjs_[id]) {
            AbsObjPtr o = std::make_shared<AbsObj>();
            o->cls = n.cls;
            snapObjs_[id] = o;  // set first: object graphs may be cyclic
            for (uint32_t k = 0; k < n.count; ++k) {
                const Field& f = *g[n.first + k].field;
                o->fields.emplace(f.name, absOfNode(g, g.field(id, k), f.type));
            }
            normalizeMutatedFields(o);
        }
        r.objs = {snapObjs_[id]};
        return r;
    default: return unknownOf(declared);
    }
}

void Engine::normalizeMutatedFields(const AbsObjPtr& o) {
    if (!o->cls) return;
    for (const Field* fd : prog_.allFields(o->cls->name)) {
        if (!fd->type.isArray()) continue;
        const std::string key = fieldKeyOf(prog_, o->cls->name, fd->name);
        if (!facts_.fieldGroups().isMutated(key)) continue;
        if (facts_.fieldGroups().isOpen(key)) {
            o->fields[fd->name] = unknownOf(fd->type);
            continue;
        }
        // Closed group: join this object's values across all member fields
        // this object actually has, then assign the join to each of them.
        AVal joined;
        bool first = true;
        std::vector<std::string> members;
        for (const std::string& k : facts_.fieldGroups().groupOf(key)) {
            const std::string fname = k.substr(k.find('.') + 1);
            auto fit = o->fields.find(fname);
            if (fit == o->fields.end()) continue;
            members.push_back(fname);
            if (first) {
                joined = fit->second;
                first = false;
            } else {
                joinAVal(joined, fit->second);
            }
        }
        for (const std::string& fname : members) o->fields[fname] = joined;
    }
}

AVal Engine::readField(const AVal& obj, const std::string& field) {
    std::string scls;
    if (!obj.objs.empty()) {
        scls = obj.objs[0]->cls->name;
    } else if (obj.type.isClass()) {
        scls = obj.type.className();
    }
    const Field* fd = scls.empty() ? nullptr : prog_.resolveField(scls, field);
    const Type ft = fd ? fd->type : Type::voidTy();
    if (obj.objs.empty()) return unknownOf(ft);
    AVal r;
    bool first = true;
    for (const AbsObjPtr& o : obj.objs) {
        auto it = o->fields.find(field);
        const AVal v = it != o->fields.end() ? it->second : unknownOf(ft);
        if (first) {
            r = v;
            first = false;
        } else {
            joinAVal(r, v);
        }
    }
    if (r.type.isVoid()) r.type = ft;
    return r;
}

/// The dataflow client for one method body at one calling context.
struct IntervalDomain {
    Engine& eng;
    const Cfg& cfg;
    Env entryEnv;
    AVal ret;
    bool retSet = false;

    using State = Env;
    State boundary() { return entryEnv; }

    State transfer(int node, State s) {
        if (!s.reach) return s;
        const CfgNode& nd = cfg.nodes[node];
        switch (nd.kind) {
        case CfgNode::Kind::Entry:
        case CfgNode::Kind::Exit: break;
        case CfgNode::Kind::Branch: eng.evalExpr(s, *nd.cond); break;
        case CfgNode::Kind::ForInit: {
            AVal v = eng.evalExpr(s, *nd.forS->init);
            v.type = nd.forS->varType;
            s.vars[nd.forS->var] = std::move(v);
            break;
        }
        case CfgNode::Kind::ForStep: {
            AVal v = eng.evalExpr(s, *nd.forS->step);
            v.type = nd.forS->varType;
            s.vars[nd.forS->var] = std::move(v);
            break;
        }
        case CfgNode::Kind::Stmt: eng.stmtTransfer(s, *nd.stmt, &ret, &retSet); break;
        }
        return s;
    }

    void refine(const CfgEdge& e, State& s) {
        if (e.guard && s.reach) eng.refineGuard(s, *e.guard, e.sense);
    }

    bool join(State& into, State&& from) {
        if (into.reach || !from.reach) return joinEnv(into, from);
        into = std::move(from);  // first path into the node
        return true;
    }
    void widen(State& s, const State& prev) { widenEnv(s, prev); }
};

const MethodFacts* Engine::noteDefiniteAssignment(const ClassDecl& owner, const Method& m) {
    const MethodFacts* mf = facts_.method(m);
    if (!daDone_.insert(&m).second) return mf;
    if (mf) {
        out_.errors.insert(out_.errors.end(), mf->daErrors.begin(), mf->daErrors.end());
        out_.warnings.insert(out_.warnings.end(), mf->daWarnings.begin(), mf->daWarnings.end());
    } else {
        auto errs = checkDefiniteAssignment(prog_, owner, m, &out_.warnings);
        out_.errors.insert(out_.errors.end(), errs.begin(), errs.end());
    }
    return mf;
}

AVal Engine::analyzeCall(const ClassDecl& owner, const Method& m, const AVal* self,
                         const std::vector<AVal>& args) {
    if (m.isAbstract) return unknownOf(m.ret);

    const MethodFacts* mf = noteDefiniteAssignment(owner, m);

    std::string key = memoKey(&m, self, args);

    auto memo = callMemo_.find(key);
    if (memo != callMemo_.end()) return memo->second;
    if (inProgress_.count(key) || depth_ > kMaxInlineDepth) {
        // Recursive context (rule 6 forbids it for @WootinJ code, but lint
        // inputs may contain it) or pathological depth: give up soundly.
        return unknownOf(m.ret);
    }
    inProgress_.insert(key);
    ++depth_;
    whereStack_.push_back(owner.name + "." + m.name);

    Env entry;
    entry.reach = true;
    if (self) entry.vars.emplace("@this", *self);
    for (size_t i = 0; i < m.params.size(); ++i) {
        AVal v = i < args.size() ? args[i] : unknownOf(m.params[i].type);
        if (v.type.isVoid()) v.type = m.params[i].type;
        entry.vars.emplace(m.params[i].name, std::move(v));
    }

    std::optional<Cfg> ownCfg;  // a body the Program does not own (fusion's entry)
    const Cfg& cfg = mf ? mf->cfg : ownCfg.emplace(Cfg::build(m));
    IntervalDomain dom{*this, cfg, entry, unknownOf(m.ret), false};
    auto nodeStates = solve(cfg, dom, Direction::Forward);

    AVal ret = dom.retSet || m.ret.isVoid() ? dom.ret : unknownOf(m.ret);
    if (ret.type.isVoid() && !m.ret.isVoid()) ret.type = m.ret;

    // Race walk: once per unique body, in the first context that reaches it.
    if (effectsOf(m).usesComm() && raceDone_.insert(&m).second) {
        raceWalk(m, entry);
    }

    // Loop-parallelization proof in this context; verdicts join across
    // contexts (memoized contexts were already folded in the first time).
    if (!m.isGlobal) proveLoops(owner.name + "." + m.name, m, cfg, nodeStates);

    whereStack_.pop_back();
    --depth_;
    inProgress_.erase(key);
    callMemo_.emplace(std::move(key), ret);
    return ret;
}

AVal Engine::evalNew(Env& env, const NewExpr& n) {
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));

    const ClassDecl* cls = prog_.cls(n.cls);
    if (!cls) return unknownOf(Type::cls(n.cls));

    std::string key = memoKey(&n, nullptr, args);
    auto memo = newMemo_.find(key);
    if (memo != newMemo_.end()) {
        AVal r;
        r.type = Type::cls(cls->name);
        r.objs = {memo->second};
        return r;
    }

    AbsObjPtr o = std::make_shared<AbsObj>();
    o->cls = cls;
    execCtor(*cls, o, args);
    normalizeMutatedFields(o);
    newMemo_.emplace(std::move(key), o);

    AVal r;
    r.type = Type::cls(cls->name);
    r.objs = {o};
    return r;
}

void Engine::execCtor(const ClassDecl& cls, const AbsObjPtr& obj, const std::vector<AVal>& args) {
    auto allUnknown = [&] {
        obj->fields.clear();
        if (!obj->cls) return;
        for (const Field* fd : prog_.allFields(obj->cls->name)) {
            obj->fields[fd->name] = unknownOf(fd->type);
        }
    };

    if (!cls.ctor) {
        // Implicit no-arg ctor: Java default values. Walk the chain so
        // inherited fields are covered too.
        for (const Field* fd : prog_.allFields(cls.name)) {
            if (obj->fields.count(fd->name)) continue;
            AVal v = unknownOf(fd->type);
            if (fd->type.isPrim() && !fd->type.isFloating()) v.num = Itv::of(0);
            obj->fields[fd->name] = std::move(v);
        }
        return;
    }

    const Method& ctor = *cls.ctor;
    noteDefiniteAssignment(cls, ctor);
    if (depth_ > kMaxInlineDepth) {
        allUnknown();
        return;
    }
    ++depth_;
    whereStack_.push_back(cls.name + ".<init>");

    Env env;
    env.reach = true;
    {
        AVal selfV;
        selfV.type = Type::cls(obj->cls ? obj->cls->name : cls.name);
        selfV.objs = {obj};
        env.vars.emplace("@this", std::move(selfV));
    }
    for (size_t i = 0; i < ctor.params.size(); ++i) {
        AVal v = i < args.size() ? args[i] : unknownOf(ctor.params[i].type);
        if (v.type.isVoid()) v.type = ctor.params[i].type;
        env.vars.emplace(ctor.params[i].name, std::move(v));
    }

    // Abstract ctor execution is straight-line only; any control flow bails
    // to all-unknown fields (none of the paper's library ctors branch).
    bool bailed = false;
    for (const auto& stp : ctor.body) {
        const Stmt& st = *stp;
        if (st.kind == StmtKind::If || st.kind == StmtKind::While || st.kind == StmtKind::For) {
            bailed = true;
            break;
        }
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            env.vars[n.name] = n.init ? evalExpr(env, *n.init) : unknownOf(n.type);
            break;
        }
        case StmtKind::AssignLocal: {
            const auto& n = as<AssignLocalStmt>(st);
            env.vars[n.name] = evalExpr(env, *n.value);
            break;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(st);
            AVal v = evalExpr(env, *n.value);
            if (n.obj->kind == ExprKind::This) {
                obj->fields[n.field] = std::move(v);
            } else {
                evalExpr(env, *n.obj);  // cross-object ctor store: rare; evaluate only
            }
            break;
        }
        case StmtKind::SuperCtor: {
            const auto& n = as<SuperCtorStmt>(st);
            std::vector<AVal> superArgs;
            superArgs.reserve(n.args.size());
            for (const auto& a : n.args) superArgs.push_back(evalExpr(env, *a));
            if (const ClassDecl* sup = cls.superName.empty() ? nullptr : prog_.cls(cls.superName)) {
                execCtor(*sup, obj, superArgs);
            }
            break;
        }
        case StmtKind::ArraySet: {
            const auto& n = as<ArraySetStmt>(st);
            const AVal a = evalExpr(env, *n.arr);
            const AVal i = evalExpr(env, *n.idx);
            evalExpr(env, *n.value);
            recordAccess(&st, a, i, env.reach);
            break;
        }
        case StmtKind::ExprStmt: evalExpr(env, *as<ExprStmt>(st).e); break;
        case StmtKind::Return: break;
        default: break;
        }
        if (st.kind == StmtKind::Return) break;
    }
    if (bailed) allUnknown();

    whereStack_.pop_back();
    --depth_;
}

const Effects& Engine::effectsOf(const Method& m) const {
    static const Effects kNone{};
    const auto& effects = facts_.effects();
    auto it = effects.find(&m == entryBody_ ? entryOrig_ : &m);
    return it != effects.end() ? it->second : kNone;
}

AVal Engine::evalExpr(Env& env, const Expr& e) {
    switch (e.kind) {
    case ExprKind::Const: {
        const auto& n = as<ConstExpr>(e);
        AVal r = unknownOf(n.type);
        if (n.type.isPrim() && !n.type.isFloating()) r.num = Itv::of(n.i);
        return r;
    }
    case ExprKind::Local: {
        const auto& n = as<LocalExpr>(e);
        auto it = env.vars.find(n.name);
        return it != env.vars.end() ? it->second : AVal{};
    }
    case ExprKind::This: {
        auto it = env.vars.find("@this");
        return it != env.vars.end() ? it->second : AVal{};
    }
    case ExprKind::FieldGet: {
        const auto& n = as<FieldGetExpr>(e);
        return readField(evalExpr(env, *n.obj), n.field);
    }
    case ExprKind::StaticGet: {
        const auto& n = as<StaticGetExpr>(e);
        const StaticField* sf = prog_.resolveStatic(n.cls, n.field);
        if (!sf) return AVal{};
        AVal r = unknownOf(sf->type);
        if (sf->type.isPrim() && !sf->type.isFloating()) r.num = Itv::of(sf->i);
        return r;
    }
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        const AVal a = evalExpr(env, *n.arr);
        const AVal i = evalExpr(env, *n.idx);
        recordAccess(&n, a, i, env.reach);
        // Element contents are not tracked.
        return unknownOf(a.type.isArray() ? a.type.elem() : Type::voidTy());
    }
    case ExprKind::ArrayLen: {
        const auto& n = as<ArrayLenExpr>(e);
        const AVal a = evalExpr(env, *n.arr);
        AVal r = unknownOf(Type::i32());
        r.num = a.len.meetGe(0);
        if (r.num.hi > INT32_MAX) r.num.hi = INT32_MAX;  // wj_array.len is int32
        if (r.num.empty()) r.num = Itv::range(0, INT32_MAX);
        return r;
    }
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(e);
        const AVal v = evalExpr(env, *n.e);
        AVal r = unknownOf(v.type);
        if (n.op == UnOp::Neg && v.type.isIntegral()) {
            r.num = v.num.neg();
            if (v.type.isPrim(Prim::I32) && !r.num.fitsI32()) r.num = Itv::top();
        } else if (n.op == UnOp::Not) {
            r.type = Type::boolean();
            if (v.num == Itv::of(0)) {
                r.num = Itv::of(1);
            } else if (v.num == Itv::of(1)) {
                r.num = Itv::of(0);
            } else {
                r.num = Itv::range(0, 1);
            }
        }
        return r;
    }
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        const AVal l = evalExpr(env, *n.l);
        const AVal r = evalExpr(env, *n.r);
        return evalBinary(n, l, r);
    }
    case ExprKind::Cond: {
        const auto& n = as<CondExpr>(e);
        evalExpr(env, *n.c);
        AVal t = evalExpr(env, *n.t);
        const AVal f = evalExpr(env, *n.f);
        joinAVal(t, f);
        return t;
    }
    case ExprKind::Call: return evalCall(env, as<CallExpr>(e));
    case ExprKind::StaticCall: return evalStaticCall(env, as<StaticCallExpr>(e));
    case ExprKind::New: return evalNew(env, as<NewExpr>(e));
    case ExprKind::NewArray: {
        const auto& n = as<NewArrayExpr>(e);
        const AVal lv = evalExpr(env, *n.len);
        AVal r;
        r.type = Type::array(n.elem);
        r.roots = {rootOf(&n)};
        const Itv len = lv.num.meetGe(0);
        r.len = len.empty() ? Itv::atLeast(0) : len;
        return r;
    }
    case ExprKind::Cast: {
        const auto& n = as<CastExpr>(e);
        AVal v = evalExpr(env, *n.e);
        v.type = n.type;
        if (n.type.isPrim()) {
            v.objs.clear();
            v.roots.clear();
            v.len = Itv::top();
            switch (n.type.prim()) {
            case Prim::I32:
                if (!v.num.fitsI32()) v.num = Itv::top();
                break;
            case Prim::I64: break;  // widening from i32/bool keeps the interval
            case Prim::F32:
            case Prim::F64: v.num = Itv::top(); break;
            case Prim::Bool: break;
            }
        }
        return v;
    }
    case ExprKind::IntrinsicCall: return evalIntrinsic(env, as<IntrinsicExpr>(e));
    }
    return AVal{};
}

AVal Engine::evalBinary(const BinaryExpr& n, const AVal& l, const AVal& r) {
    // Result type: comparisons/logicals are bool; arithmetic follows the
    // wider operand (matches the typechecker's promotion).
    if (isComparison(n.op) || isLogical(n.op)) {
        AVal b = unknownOf(Type::boolean());
        if (l.type.isIntegral() && r.type.isIntegral()) {
            // Decide constant outcomes when the intervals are disjoint.
            const Itv& a = l.num;
            const Itv& c = r.num;
            auto always = [&](bool v) { b.num = Itv::of(v ? 1 : 0); };
            switch (n.op) {
            case BinOp::Lt:
                if (a.hiFinite() && c.loFinite() && a.hi < c.lo) always(true);
                else if (a.loFinite() && c.hiFinite() && a.lo >= c.hi) always(false);
                break;
            case BinOp::Le:
                if (a.hiFinite() && c.loFinite() && a.hi <= c.lo) always(true);
                else if (a.loFinite() && c.hiFinite() && a.lo > c.hi) always(false);
                break;
            case BinOp::Gt:
                if (a.loFinite() && c.hiFinite() && a.lo > c.hi) always(true);
                else if (a.hiFinite() && c.loFinite() && a.hi <= c.lo) always(false);
                break;
            case BinOp::Ge:
                if (a.loFinite() && c.hiFinite() && a.lo >= c.hi) always(true);
                else if (a.hiFinite() && c.loFinite() && a.hi < c.lo) always(false);
                break;
            case BinOp::Eq:
                if (a.isConst() && c.isConst() && a.lo == c.lo) always(true);
                else if ((a.hiFinite() && c.loFinite() && a.hi < c.lo) ||
                         (a.loFinite() && c.hiFinite() && a.lo > c.hi)) always(false);
                break;
            case BinOp::Ne:
                if (a.isConst() && c.isConst() && a.lo == c.lo) always(false);
                else if ((a.hiFinite() && c.loFinite() && a.hi < c.lo) ||
                         (a.loFinite() && c.hiFinite() && a.lo > c.hi)) always(true);
                break;
            default: break;
            }
        }
        return b;
    }

    const Type ty = l.type.isPrim(Prim::I64) || r.type.isPrim(Prim::I64)
                        ? Type::i64()
                        : (l.type.isIntegral() && r.type.isIntegral() ? Type::i32() : l.type);
    AVal out = unknownOf(ty);
    if (!ty.isIntegral()) return out;  // float arithmetic: top

    const Itv& a = l.num;
    const Itv& b = r.num;
    Itv res = Itv::top();
    switch (n.op) {
    case BinOp::Add: res = a.add(b); break;
    case BinOp::Sub: res = a.sub(b); break;
    case BinOp::Mul: res = a.mul(b); break;
    case BinOp::Rem: res = a.rem(b); break;
    case BinOp::Div: {
        // Only when the divisor's sign is definite and excludes zero.
        if (b.loFinite() && b.lo >= 1 && b.hiFinite()) {
            if (a.loFinite() && a.hiFinite()) {
                const int64_t c[4] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
                res = {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
            } else if (a.loFinite() && a.lo >= 0) {
                res = Itv::atLeast(0);
            }
        }
        break;
    }
    case BinOp::BitAnd:
        if (a.loFinite() && a.lo >= 0 && b.loFinite() && b.lo >= 0) {
            res = Itv::range(0, std::min(a.hi, b.hi));
        }
        break;
    default: break;  // shifts, BitOr, BitXor: top
    }

    if (ty.isPrim(Prim::I32)) {
        if (!res.fitsI32()) res = Itv::top();  // C i32 wraps; don't trust partial bounds
    } else if (res != Itv::top()) {
        // i64: a saturated bound computed from fully finite operands means a
        // real overflow happened — the C result wrapped, so give up.
        const bool finiteIn = a.loFinite() && a.hiFinite() && b.loFinite() && b.hiFinite();
        if (finiteIn && (!res.loFinite() || !res.hiFinite())) res = Itv::top();
    }
    out.num = res;
    return out;
}

AVal Engine::evalCall(Env& env, const CallExpr& n) {
    const AVal recv = evalExpr(env, *n.recv);
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));

    AVal ret;
    bool first = true;
    auto accumulate = [&](const ClassDecl& owner, const Method& m, const AVal* self) {
        const AVal r = analyzeCall(owner, m, self, args);
        if (first) {
            ret = r;
            first = false;
        } else {
            joinAVal(ret, r);
        }
    };

    if (!recv.objs.empty()) {
        // Devirtualized through the points-to set.
        for (const AbsObjPtr& o : recv.objs) {
            const ClassDecl* owner = prog_.methodOwner(o->cls->name, n.method);
            const Method* m = owner ? owner->ownMethod(n.method) : nullptr;
            if (!owner || !m) continue;
            AVal self;
            self.type = Type::cls(o->cls->name);
            self.objs = {o};
            accumulate(*owner, *m, &self);
        }
    } else if (recv.type.isClass()) {
        for (const auto& [owner, m] : resolveVirtual(prog_, recv.type.className(), n.method)) {
            AVal self = unknownOf(Type::cls(owner->name));
            accumulate(*owner, *m, &self);
        }
    }
    if (first) {
        // No resolvable target (interface with no impls, ill-typed input).
        const Method* m =
            recv.type.isClass() ? prog_.resolveMethod(recv.type.className(), n.method) : nullptr;
        return unknownOf(m ? m->ret : Type::voidTy());
    }
    return ret;
}

AVal Engine::evalStaticCall(Env& env, const StaticCallExpr& n) {
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));
    const ClassDecl* owner = prog_.methodOwner(n.cls, n.method);
    const Method* m = owner ? owner->ownMethod(n.method) : nullptr;
    if (!owner || !m) return AVal{};
    return analyzeCall(*owner, *m, nullptr, args);
}

AVal Engine::evalIntrinsic(Env& env, const IntrinsicExpr& n) {
    std::vector<AVal> args;
    args.reserve(n.args.size());
    for (const auto& a : n.args) args.push_back(evalExpr(env, *a));

    AVal r = unknownOf(intrinsicSig(n.op).ret);
    switch (n.op) {
    case Intrinsic::MpiRank:
    case Intrinsic::CudaThreadIdxX:
    case Intrinsic::CudaThreadIdxY:
    case Intrinsic::CudaThreadIdxZ:
    case Intrinsic::CudaBlockIdxX:
    case Intrinsic::CudaBlockIdxY:
    case Intrinsic::CudaBlockIdxZ: r.num = Itv::atLeast(0); break;
    case Intrinsic::MpiSize:
    case Intrinsic::CudaBlockDimX:
    case Intrinsic::CudaBlockDimY:
    case Intrinsic::CudaBlockDimZ:
    case Intrinsic::CudaGridDimX:
    case Intrinsic::CudaGridDimY:
    case Intrinsic::CudaGridDimZ: r.num = Itv::atLeast(1); break;
    case Intrinsic::MpiIrecvF32:
        r.num = Itv::atLeast(0);
        r.tokens = {&n};
        break;
    case Intrinsic::GpuMallocF32: {
        r.roots = {rootOf(&n)};
        const Itv len = args.empty() ? Itv::atLeast(0) : args[0].num.meetGe(0);
        r.len = len.empty() ? Itv::atLeast(0) : len;
        break;
    }
    case Intrinsic::CudaSharedF32:
        r.roots = {rootOf(&n)};
        r.len = Itv::atLeast(0);
        break;
    default: break;
    }
    return r;
}

void Engine::stmtTransfer(Env& env, const Stmt& st, AVal* retJoin, bool* retSet) {
    switch (st.kind) {
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(st);
        env.vars[n.name] = n.init ? evalExpr(env, *n.init) : unknownOf(n.type);
        break;
    }
    case StmtKind::AssignLocal: {
        const auto& n = as<AssignLocalStmt>(st);
        AVal v = evalExpr(env, *n.value);
        auto it = env.vars.find(n.name);
        if (v.type.isVoid() && it != env.vars.end()) v.type = it->second.type;
        env.vars[n.name] = std::move(v);
        break;
    }
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(st);
        evalExpr(env, *n.obj);
        evalExpr(env, *n.value);
        // The store itself is modeled by the mutated-field groups: reads of
        // the field already see the group join, so no strong update here.
        break;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(st);
        const AVal a = evalExpr(env, *n.arr);
        const AVal i = evalExpr(env, *n.idx);
        evalExpr(env, *n.value);
        recordAccess(&n, a, i, env.reach);
        break;
    }
    case StmtKind::Return: {
        const auto& n = as<ReturnStmt>(st);
        if (n.value) {
            const AVal v = evalExpr(env, *n.value);
            if (retJoin) {
                if (*retSet) {
                    joinAVal(*retJoin, v);
                } else {
                    *retJoin = v;
                    *retSet = true;
                }
            }
        }
        break;
    }
    case StmtKind::ExprStmt: evalExpr(env, *as<ExprStmt>(st).e); break;
    default: break;  // If/While/For are CFG structure; SuperCtor only in ctors
    }
}

void Engine::refineGuard(Env& env, const Expr& cond, bool sense) {
    if (!env.reach) return;
    switch (cond.kind) {
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(cond);
        if (n.op == UnOp::Not) refineGuard(env, *n.e, !sense);
        return;
    }
    case ExprKind::Local: {
        const auto& n = as<LocalExpr>(cond);
        auto it = env.vars.find(n.name);
        if (it == env.vars.end() || !it->second.type.isPrim(Prim::Bool)) return;
        const Itv want = Itv::of(sense ? 1 : 0);
        Itv m = it->second.num;
        m.lo = std::max(m.lo, want.lo);
        m.hi = std::min(m.hi, want.hi);
        if (m.empty()) {
            env.reach = false;
        } else {
            it->second.num = m;
        }
        return;
    }
    case ExprKind::Binary: break;
    default: return;
    }

    const auto& n = as<BinaryExpr>(cond);
    if (n.op == BinOp::LAnd) {
        if (sense) {  // both true
            refineGuard(env, *n.l, true);
            refineGuard(env, *n.r, true);
        }
        return;  // !(a && b) gives no conjunctive fact
    }
    if (n.op == BinOp::LOr) {
        if (!sense) {  // both false
            refineGuard(env, *n.l, false);
            refineGuard(env, *n.r, false);
        }
        return;
    }
    if (!isComparison(n.op)) return;

    // Normalize to the op that holds on this edge.
    BinOp op = n.op;
    if (!sense) {
        switch (n.op) {
        case BinOp::Lt: op = BinOp::Ge; break;
        case BinOp::Le: op = BinOp::Gt; break;
        case BinOp::Gt: op = BinOp::Le; break;
        case BinOp::Ge: op = BinOp::Lt; break;
        case BinOp::Eq: op = BinOp::Ne; break;
        case BinOp::Ne: op = BinOp::Eq; break;
        default: return;
        }
    }

    const AVal lv = evalExpr(env, *n.l);
    const AVal rv = evalExpr(env, *n.r);
    if (!lv.type.isIntegral() || !rv.type.isIntegral()) return;

    auto meet = [&](const Expr& side, int64_t lo, int64_t hi) {
        if (side.kind != ExprKind::Local) return;
        auto it = env.vars.find(as<LocalExpr>(side).name);
        if (it == env.vars.end() || !it->second.type.isIntegral()) return;
        Itv m = it->second.num;
        m.lo = std::max(m.lo, lo);
        m.hi = std::min(m.hi, hi);
        if (m.empty()) {
            env.reach = false;
        } else {
            it->second.num = m;
        }
    };
    const int64_t NI = Itv::kNegInf, PI = Itv::kPosInf;
    auto dec = [](int64_t v) { return v == Itv::kPosInf ? v : v - 1; };
    auto inc = [](int64_t v) { return v == Itv::kNegInf ? v : v + 1; };

    switch (op) {
    case BinOp::Lt:  // l < r
        meet(*n.l, NI, dec(rv.num.hi));
        meet(*n.r, inc(lv.num.lo), PI);
        break;
    case BinOp::Le:
        meet(*n.l, NI, rv.num.hi);
        meet(*n.r, lv.num.lo, PI);
        break;
    case BinOp::Gt:  // l > r
        meet(*n.l, inc(rv.num.lo), PI);
        meet(*n.r, NI, dec(lv.num.hi));
        break;
    case BinOp::Ge:
        meet(*n.l, rv.num.lo, PI);
        meet(*n.r, NI, lv.num.hi);
        break;
    case BinOp::Eq:
        meet(*n.l, rv.num.lo, rv.num.hi);
        meet(*n.r, lv.num.lo, lv.num.hi);
        break;
    case BinOp::Ne:
        // Only useful against a constant at an interval endpoint.
        if (rv.num.isConst()) {
            auto it = n.l->kind == ExprKind::Local ? env.vars.find(as<LocalExpr>(*n.l).name)
                                                  : env.vars.end();
            if (it != env.vars.end() && it->second.type.isIntegral()) {
                Itv& m = it->second.num;
                if (m.lo == rv.num.lo && m.loFinite()) m.lo = inc(m.lo);
                if (m.hi == rv.num.lo && m.hiFinite()) m.hi = dec(m.hi);
                if (m.empty()) env.reach = false;
            }
        }
        break;
    default: break;
    }
}

void Engine::recordAccess(const void* site, const AVal& arr, const AVal& idx, bool reachable) {
    if (!reachable) return;
    const Itv& i = idx.num;
    const Itv& len = arr.len;

    Safety s = Safety::Unknown;
    if (i.loFinite() && i.lo >= 0 && i.hiFinite() && len.loFinite() && i.hi < len.lo) {
        s = Safety::Safe;
    } else if (i.hiFinite() && i.hi < 0) {
        s = Safety::OutOfBounds;
    } else if (i.loFinite() && len.hiFinite() && i.lo >= len.hi) {
        s = Safety::OutOfBounds;
    }

    auto [it, inserted] = out_.accessSafety.emplace(site, s);
    if (!inserted && static_cast<int>(s) > static_cast<int>(it->second)) it->second = s;

    if (s == Safety::OutOfBounds && oobReported_.insert(site).second) {
        out_.errors.push_back({"bounds", where(),
                               "array index " + strItv(i) + " is provably outside length " +
                                   strItv(len)});
    }
}

// ------------------------------------------------------ communication races

/// A posted nonblocking receive whose completion has not been awaited.
struct Pending {
    const void* site = nullptr;   ///< the MpiIrecvF32 expression node
    std::set<int> roots;          ///< buffer allocation sites; empty = unknown
    Itv region = Itv::top();      ///< element range [off, off+n-1] being filled
    bool exact = false;           ///< off and n were compile-time constants
};

namespace {

bool rootsMayIntersect(const std::set<int>& a, const std::set<int>& b) {
    if (a.empty() || b.empty()) return true;  // unknown provenance
    for (int r : a) {
        if (b.count(r)) return true;
    }
    return false;
}

bool regionsMayOverlap(const Itv& a, const Itv& b) {
    if (a.empty() || b.empty()) return false;
    const bool aBelow = a.hiFinite() && b.loFinite() && a.hi < b.lo;
    const bool bBelow = b.hiFinite() && a.loFinite() && b.hi < a.lo;
    return !(aBelow || bBelow);
}

Itv regionOf(const Itv& off, const Itv& n) {
    return {off.lo, Itv::satAdd(off.hi, Itv::satAdd(n.hi, -1))};
}

} // namespace

void Engine::checkWrite(const std::vector<Pending>& p, const std::set<int>& roots,
                        const Itv& region, const void* wsite, const std::string& what) {
    for (const Pending& q : p) {
        if (!rootsMayIntersect(q.roots, roots)) continue;
        if (!regionsMayOverlap(q.region, region)) continue;
        if (!raceReported_.insert({q.site, wsite}).second) continue;
        out_.errors.push_back({"halo-race", where(),
                               what + " may overlap a nonblocking receive still in flight "
                                      "(region " + strItv(q.region) + ")"});
    }
}

void Engine::raceWalk(const Method& m, Env env) {
    std::vector<Pending> pending;
    raceBlock(env, m.body, pending);
    if (!pending.empty()) {
        out_.warnings.push_back({"halo-race", where(),
                                 "nonblocking receive still in flight when the method returns"});
    }
}

void Engine::raceBlock(Env& env, const Block& b, std::vector<Pending>& p) {
    for (const auto& stp : b) {
        raceStmt(env, *stp, p);
        if (stp->kind == StmtKind::Return) break;
    }
}

void Engine::raceStmt(Env& env, const Stmt& st, std::vector<Pending>& p) {
    switch (st.kind) {
    case StmtKind::If: {
        const auto& n = as<IfStmt>(st);
        raceExpr(env, *n.cond, p);
        // Each branch sees its guard, as in the interval pass: the walk
        // evaluates every access it passes, and `if (i > 0) a[i - 1]` at
        // i = 0 is not an execution.
        Env envT = env, envF = env;
        if (env.reach) {
            refineGuard(envT, *n.cond, true);
            refineGuard(envF, *n.cond, false);
        }
        std::vector<Pending> pT = p, pF = p;
        raceBlock(envT, n.thenB, pT);
        raceBlock(envF, n.elseB, pF);
        joinEnv(envT, envF);
        env = std::move(envT);
        // Union of the two outcomes (entries already in pT keep their slot).
        for (const Pending& q : pF) {
            const bool dup = std::any_of(pT.begin(), pT.end(),
                                         [&](const Pending& r) { return r.site == q.site; });
            if (!dup) pT.push_back(q);
        }
        p = std::move(pT);
        break;
    }
    case StmtKind::While:
    case StmtKind::For: {
        // Walk the body twice sequentially: double-buffered halo exchanges
        // rotate their buffer aliases once per iteration, and two passes
        // cover both phases without joining the aliases together. Receives
        // must not stay in flight across an iteration boundary.
        const Block* body;
        const ForStmt* fs = nullptr;
        if (st.kind == StmtKind::For) {
            fs = &as<ForStmt>(st);
            body = &fs->body;
            raceExpr(env, *fs->init, p);
            AVal v = evalExpr(env, *fs->init);
            v.type = fs->varType;
            env.vars[fs->var] = std::move(v);
        } else {
            body = &as<WhileStmt>(st).body;
        }
        const Expr& cond = st.kind == StmtKind::For ? *fs->cond : *as<WhileStmt>(st).cond;

        const Env preEnv = env;
        std::set<const void*> entrySites;
        for (const Pending& q : p) entrySites.insert(q.site);

        for (int iter = 0; iter < 2; ++iter) {
            raceExpr(env, cond, p);
            raceBlock(env, *body, p);
            if (fs) {
                raceExpr(env, *fs->step, p);
                AVal v = evalExpr(env, *fs->step);
                v.type = fs->varType;
                env.vars[fs->var] = std::move(v);
            }
            std::vector<Pending> kept;
            bool leaked = false;
            for (Pending& q : p) {
                if (entrySites.count(q.site)) {
                    kept.push_back(std::move(q));
                } else {
                    leaked = true;
                }
            }
            if (leaked && loopWarned_.insert(&st).second) {
                out_.warnings.push_back(
                    {"halo-race", where(),
                     "nonblocking receive posted in a loop body is still in flight at the "
                     "end of the iteration"});
            }
            p = std::move(kept);
        }
        Env joined = preEnv;
        joinEnv(joined, env);
        env = std::move(joined);
        break;
    }
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(st);
        if (n.init) raceExpr(env, *n.init, p);
        break;
    }
    case StmtKind::AssignLocal: raceExpr(env, *as<AssignLocalStmt>(st).value, p); break;
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(st);
        raceExpr(env, *n.obj, p);
        raceExpr(env, *n.value, p);
        break;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(st);
        raceExpr(env, *n.arr, p);
        raceExpr(env, *n.idx, p);
        raceExpr(env, *n.value, p);
        const AVal a = evalExpr(env, *n.arr);
        const AVal i = evalExpr(env, *n.idx);
        checkWrite(p, a.roots, i.num, &st, "array store");
        break;
    }
    case StmtKind::Return: {
        const auto& n = as<ReturnStmt>(st);
        if (n.value) raceExpr(env, *n.value, p);
        break;
    }
    case StmtKind::ExprStmt: raceExpr(env, *as<ExprStmt>(st).e, p); break;
    default: break;
    }
    // Keep the abstract environment in sync for Decl/Assign (strong update).
    if (st.kind == StmtKind::Decl || st.kind == StmtKind::AssignLocal) {
        stmtTransfer(env, st, nullptr, nullptr);
    }
}

void Engine::raceExpr(Env& env, const Expr& e, std::vector<Pending>& p) {
    struct Post {
        Engine& eng;
        Env& env;
        std::vector<Pending>& p;
        void post(const Expr& x) { eng.raceNode(env, x, p); }
    };
    walkExpr(e, Post{*this, env, p});
}

/// The race effect of one expression node, after its operands. Reads of an
/// in-flight buffer are not flagged (see DESIGN.md); rule-compliant ctors
/// neither communicate nor write arrays.
void Engine::raceNode(Env& env, const Expr& e, std::vector<Pending>& p) {
    switch (e.kind) {
    case ExprKind::IntrinsicCall: {
        const auto& n = as<IntrinsicExpr>(e);
        auto argVal = [&](size_t i) {
            return i < n.args.size() ? evalExpr(env, *n.args[i]) : AVal{};
        };
        switch (n.op) {
        case Intrinsic::MpiIrecvF32: {
            const AVal buf = argVal(0);
            const Itv off = argVal(1).num, cnt = argVal(2).num;
            Pending np;
            np.site = &n;
            np.roots = buf.roots;
            np.region = regionOf(off, cnt);
            np.exact = off.isConst() && cnt.isConst();
            // Two receives into provably the same region of provably the
            // same buffer: flagged outright.
            for (const Pending& q : p) {
                if (q.roots.size() == 1 && np.roots.size() == 1 && q.roots == np.roots &&
                    q.exact && np.exact && regionsMayOverlap(q.region, np.region) &&
                    raceReported_.insert({q.site, np.site}).second) {
                    out_.errors.push_back({"halo-race", where(),
                                           "two nonblocking receives into overlapping region " +
                                               strItv(np.region) + " of the same buffer"});
                }
            }
            p.push_back(std::move(np));
            return;
        }
        case Intrinsic::MpiRecvF32: {
            const AVal buf = argVal(0);
            checkWrite(p, buf.roots, regionOf(argVal(1).num, argVal(2).num), &n,
                       "blocking receive");
            return;
        }
        case Intrinsic::MpiSendRecvF32: {
            const AVal rbuf = argVal(4);
            checkWrite(p, rbuf.roots, regionOf(argVal(5).num, argVal(2).num), &n,
                       "sendrecv receive half");
            return;
        }
        case Intrinsic::MpiBcastF32: {
            const AVal buf = argVal(0);
            checkWrite(p, buf.roots, regionOf(argVal(1).num, argVal(2).num), &n, "broadcast");
            return;
        }
        case Intrinsic::MpiWait: {
            const AVal req = argVal(0);
            if (req.tokens.empty()) {
                p.clear();  // unknown request: assume it completes everything
            } else {
                p.erase(std::remove_if(p.begin(), p.end(),
                                       [&](const Pending& q) { return req.tokens.count(q.site); }),
                        p.end());
            }
            return;
        }
        case Intrinsic::GpuMemcpyD2HF32:
            checkWrite(p, argVal(0).roots, regionOf(Itv::of(0), argVal(2).num), &n,
                       "device-to-host copy");
            return;
        case Intrinsic::GpuMemcpyD2HOffF32:
            checkWrite(p, argVal(0).roots, regionOf(argVal(1).num, argVal(4).num), &n,
                       "device-to-host copy");
            return;
        case Intrinsic::GpuMemcpyH2DF32:
            checkWrite(p, argVal(0).roots, regionOf(Itv::of(0), argVal(2).num), &n,
                       "host-to-device copy");
            return;
        case Intrinsic::GpuMemcpyH2DOffF32:
            checkWrite(p, argVal(0).roots, regionOf(argVal(1).num, argVal(4).num), &n,
                       "host-to-device copy");
            return;
        default: return;
        }
    }
    case ExprKind::Call:
    case ExprKind::StaticCall: {
        const CallExpr* vc = e.kind == ExprKind::Call ? &as<CallExpr>(e) : nullptr;
        const StaticCallExpr* sc = vc ? nullptr : &as<StaticCallExpr>(e);
        AVal recv;
        if (vc) recv = evalExpr(env, *vc->recv);
        const auto& argExprs = vc ? vc->args : sc->args;

        std::vector<const Method*> targets;
        if (vc) {
            if (!recv.objs.empty()) {
                for (const AbsObjPtr& o : recv.objs) {
                    if (const Method* m = prog_.resolveMethod(o->cls->name, vc->method)) {
                        targets.push_back(m);
                    }
                }
            } else if (recv.type.isClass()) {
                for (const auto& [owner, m] :
                     resolveVirtual(prog_, recv.type.className(), vc->method)) {
                    (void)owner;
                    targets.push_back(m);
                }
            }
        } else {
            const ClassDecl* owner = prog_.methodOwner(sc->cls, sc->method);
            if (const Method* m = owner ? owner->ownMethod(sc->method) : nullptr) {
                targets.push_back(m);
            }
        }

        for (const Method* m : targets) {
            const Effects& eff = effectsOf(*m);
            for (int j : eff.writesParams) {
                if (j < 0 || static_cast<size_t>(j) >= argExprs.size()) continue;
                const AVal buf = evalExpr(env, *argExprs[j]);
                // Object params: the callee writes arrays *behind* the
                // object; root through its array fields when known.
                std::set<int> roots = buf.roots;
                if (buf.type.isClass()) {
                    roots.clear();
                    bool known = !buf.objs.empty();
                    for (const AbsObjPtr& o : buf.objs) {
                        for (const auto& [fname, fv] : o->fields) {
                            if (!fv.type.isArray()) continue;
                            if (fv.roots.empty()) known = false;
                            roots.insert(fv.roots.begin(), fv.roots.end());
                        }
                    }
                    if (!known) roots.clear();
                }
                checkWrite(p, roots, Itv::top(), &e, "call to " + m->name + " writing argument");
            }
            if (!eff.writesFields.empty()) {
                std::set<int> roots;
                bool known = vc && !recv.objs.empty();
                if (known) {
                    for (const std::string& key : eff.writesFields) {
                        const std::string fname = key.substr(key.find('.') + 1);
                        for (const AbsObjPtr& o : recv.objs) {
                            auto it = o->fields.find(fname);
                            if (it == o->fields.end()) continue;
                            if (it->second.roots.empty()) known = false;
                            roots.insert(it->second.roots.begin(), it->second.roots.end());
                        }
                    }
                }
                if (!known) roots.clear();
                checkWrite(p, roots, Itv::top(), &e, "call to " + m->name + " writing fields");
            }
            if (eff.writesUnknown) {
                checkWrite(p, {}, Itv::top(), &e, "call to " + m->name);
            }
            if (eff.postsIrecv && !eff.waits) {
                out_.warnings.push_back({"halo-race", where(),
                                         "call to " + m->name +
                                             " posts a nonblocking receive it never awaits"});
                Pending np;
                np.site = &e;
                p.push_back(std::move(np));
            } else if (eff.waits) {
                p.clear();  // callee may complete any request
            }
        }
        return;
    }
    default: return;
    }
}

// ------------------------------------------------ loop parallelization

namespace {

/// Syntactic index of one candidate loop body, built in a single recursive
/// walk: the statements/nested-loop pieces whose CFG nodes belong to the
/// body, plus every name (re)bound inside it. `kills` holds names that can
/// never carry a linear form (reassigned, shadow-declared, or nested loop
/// variables); `declCount` finds the shadow declarations.
struct ParBodyIndex {
    std::set<const Stmt*> stmts;
    std::set<const ForStmt*> fors;
    std::set<const Expr*> conds;
    std::set<std::string> defined;
    std::set<std::string> kills;
    std::map<std::string, int> declCount;
};

void indexParBody(const Block& b, ParBodyIndex& ix) {
    visitBlock(b, {}, [&](const Stmt& st) {
        ix.stmts.insert(&st);
        switch (st.kind) {
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(st);
            ix.defined.insert(n.name);
            if (++ix.declCount[n.name] > 1) ix.kills.insert(n.name);
            break;
        }
        case StmtKind::AssignLocal:
            ix.kills.insert(as<AssignLocalStmt>(st).name);
            break;
        case StmtKind::If: ix.conds.insert(as<IfStmt>(st).cond.get()); break;
        case StmtKind::While: ix.conds.insert(as<WhileStmt>(st).cond.get()); break;
        case StmtKind::For: {
            const auto& n = as<ForStmt>(st);
            ix.fors.insert(&n);
            ix.conds.insert(n.cond.get());
            ix.defined.insert(n.var);
            ix.kills.insert(n.var);
            break;
        }
        default: break;
        }
    });
}

/// Any ArrayGet in the tree? (Loop bounds must not read array elements the
/// body could write — the parallel dispatch evaluates the bound once.)
bool exprReadsArray(const Expr& e) {
    return anyExpr(e, [](const Expr& x) { return x.kind == ExprKind::ArrayGet; });
}

bool rangesIntersect(int64_t lo1, int64_t hi1, int64_t lo2, int64_t hi2) {
    return lo1 <= hi2 && lo2 <= hi1;
}

// --------------------------------------------------- reduction recognition
//
// Structural matcher for the two sanctioned `acc = acc op f(i)` shapes
// behind ParVerdict::ParallelReduce (see analysis.h):
//
//   Form A:  acc = acc + e;   acc = e + acc;    (likewise for *)
//   Form B:  if (e cmp acc) acc = e;            (min/max; cmp in < <= > >=)
//
// where `acc` is a local declared outside the loop and `e` never reads
// `acc`. Any other write to an outside local remains a refusal, and
// proveLoop audits that `acc` appears nowhere else in the body, so the
// sanctioned updates are the loop's only cross-iteration scalar flow.

struct RedUpdate {
    std::string var;
    RedOp op = RedOp::Add;
    bool accOnLeft = true;  ///< see analysis.h Reduction
    BinOp cmp = BinOp::Lt;  ///< Min/Max only
};

/// Number of `Local(name)` reads in an expression tree.
int countLocalReads(const Expr& e, const std::string& name) {
    int c = 0;
    visitExpr(e, [&](const Expr& x) {
        c += x.kind == ExprKind::Local && as<LocalExpr>(x).name == name;
    });
    return c;
}

/// Reads of `name` across every expression of a block, including nested
/// control flow (the proveLoop read audit).
int countLocalReadsBlock(const Block& b, const std::string& name) {
    int c = 0;
    visitBlock(b, [&](const Expr& x) {
        c += x.kind == ExprKind::Local && as<LocalExpr>(x).name == name;
    });
    return c;
}

/// One statement rendered on a single line for diagnostics.
std::string stmtOneLine(const Stmt& st) {
    const std::string s = printStmt(st);
    std::string out;
    bool ws = false;
    for (char ch : s) {
        if (ch == '\n' || ch == ' ' || ch == '\t') {
            ws = !out.empty();
            continue;
        }
        if (ws) out += ' ';
        ws = false;
        out += ch;
    }
    return out;
}

const char* redOpName(RedOp op) {
    switch (op) {
    case RedOp::Add: return "+";
    case RedOp::Mul: return "*";
    case RedOp::Min: return "min";
    case RedOp::Max: return "max";
    }
    return "?";
}

/// Form A on one assignment to an outside local.
bool matchFormA(const AssignLocalStmt& n, RedUpdate& u) {
    if (n.value->kind != ExprKind::Binary) return false;
    const auto& b = as<BinaryExpr>(*n.value);
    if (b.op != BinOp::Add && b.op != BinOp::Mul) return false;
    const bool lAcc = b.l->kind == ExprKind::Local && as<LocalExpr>(*b.l).name == n.name;
    const bool rAcc = b.r->kind == ExprKind::Local && as<LocalExpr>(*b.r).name == n.name;
    if (lAcc == rAcc) return false;  // exactly one operand is the accumulator
    if (countLocalReads(lAcc ? *b.r : *b.l, n.name) != 0) return false;
    u.var = n.name;
    u.op = b.op == BinOp::Add ? RedOp::Add : RedOp::Mul;
    u.accOnLeft = lAcc;
    return true;
}

/// Form B on one if-statement; on success `upd` is the sanctioned inner
/// assignment.
bool matchFormB(const IfStmt& n, const ParBodyIndex& ix, const std::string& loopVar,
                const AssignLocalStmt** upd, RedUpdate& u) {
    if (!n.elseB.empty() || n.thenB.size() != 1) return false;
    if (n.thenB[0]->kind != StmtKind::AssignLocal) return false;
    const auto& a = as<AssignLocalStmt>(*n.thenB[0]);
    if (ix.defined.count(a.name) || a.name == loopVar) return false;
    if (n.cond->kind != ExprKind::Binary) return false;
    const auto& c = as<BinaryExpr>(*n.cond);
    if (c.op != BinOp::Lt && c.op != BinOp::Le && c.op != BinOp::Gt && c.op != BinOp::Ge) {
        return false;
    }
    const bool lAcc = c.l->kind == ExprKind::Local && as<LocalExpr>(*c.l).name == a.name;
    const bool rAcc = c.r->kind == ExprKind::Local && as<LocalExpr>(*c.r).name == a.name;
    if (lAcc == rAcc) return false;
    // The compared value must be the stored value, and must not read acc.
    if (printExpr(lAcc ? *c.r : *c.l) != printExpr(*a.value)) return false;
    if (countLocalReads(*a.value, a.name) != 0) return false;
    const bool less = c.op == BinOp::Lt || c.op == BinOp::Le;
    // `acc := e` fires when the comparison holds: `e < acc` keeps the
    // smaller value (Min); `acc < e` keeps the larger (Max).
    u.var = a.name;
    u.op = (lAcc ? !less : less) ? RedOp::Min : RedOp::Max;
    u.accOnLeft = lAcc;
    u.cmp = c.op;
    *upd = &a;
    return true;
}

/// Collects every sanctioned reduction update in `body`, keyed by the
/// update statement. `vars` gets one entry per accumulator in first-update
/// order. Accumulators whose updates mix operators are dropped again —
/// their updates then refuse the loop with the scalar-dependence
/// diagnostic (`acc = (acc + a) * b` split over two statements is an
/// affine recurrence, not a combinable reduction).
void matchRedUpdates(const Block& body, const ParBodyIndex& ix, const std::string& loopVar,
                     std::map<const Stmt*, RedUpdate>& out, std::vector<RedUpdate>& vars) {
    std::vector<std::pair<const Stmt*, RedUpdate>> found;
    visitStmts(body, [&](const Stmt& st) {
        if (st.kind == StmtKind::AssignLocal) {
            const auto& n = as<AssignLocalStmt>(st);
            RedUpdate u;
            if (!ix.defined.count(n.name) && n.name != loopVar && matchFormA(n, u)) {
                found.emplace_back(&st, std::move(u));
            }
        } else if (st.kind == StmtKind::If) {
            const AssignLocalStmt* upd = nullptr;
            RedUpdate u;
            if (matchFormB(as<IfStmt>(st), ix, loopVar, &upd, u)) {
                found.emplace_back(upd, std::move(u));
                return false;
            }
        }
        return true;
    });

    std::map<std::string, RedOp> opOf;
    std::set<std::string> poisoned;
    for (const auto& [st, u] : found) {
        (void)st;
        auto it = opOf.find(u.var);
        if (it == opOf.end()) {
            opOf.emplace(u.var, u.op);
        } else if (it->second != u.op) {
            poisoned.insert(u.var);
        }
    }
    std::set<std::string> seen;
    for (auto& [st, u] : found) {
        if (poisoned.count(u.var)) continue;
        if (seen.insert(u.var).second) vars.push_back(u);
        out.emplace(st, std::move(u));
    }
}

} // namespace

// Constructors are not covered by the effect summaries (computeEffects
// walks methods only), so `new` inside a parallel body is proven safe
// structurally: the ctor chain must take only primitive parameters and be
// straight-line code that initializes locals and own fields from call-free,
// array-free expressions. That makes every constructed object private to
// its iteration — exactly the wrapper-object pattern (ScalarFloat) the
// translator flattens onto the stack anyway.
bool Engine::ctorAllowsParallel(const ClassDecl* cls) {
    if (!cls) return false;
    auto it = ctorParOk_.find(cls);
    if (it != ctorParOk_.end()) return it->second;
    ctorParOk_[cls] = false;  // refuse cyclic ctor chains while in progress

    std::function<bool(const Expr&)> pure = [&](const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::StaticGet: return true;
        case ExprKind::FieldGet: return pure(*as<FieldGetExpr>(e).obj);
        case ExprKind::Unary: return pure(*as<UnaryExpr>(e).e);
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            return pure(*n.l) && pure(*n.r);
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            return pure(*n.c) && pure(*n.t) && pure(*n.f);
        }
        case ExprKind::Cast: return pure(*as<CastExpr>(e).e);
        case ExprKind::New: {
            const auto& n = as<NewExpr>(e);
            if (!ctorAllowsParallel(prog_.cls(n.cls))) return false;
            for (const auto& a : n.args) {
                if (!pure(*a)) return false;
            }
            return true;
        }
        default: return false;  // calls, intrinsics, array traffic, allocation
        }
    };

    bool ok = true;
    if (cls->ctor) {
        for (const Param& p : cls->ctor->params) ok = ok && p.type.isPrim();
        if (ok) {
            for (const auto& stp : cls->ctor->body) {
                const Stmt& st = *stp;
                switch (st.kind) {
                case StmtKind::Decl: {
                    const auto& n = as<DeclStmt>(st);
                    if (n.init && !pure(*n.init)) ok = false;
                    break;
                }
                case StmtKind::AssignLocal:
                    if (!pure(*as<AssignLocalStmt>(st).value)) ok = false;
                    break;
                case StmtKind::FieldSet: {
                    const auto& n = as<FieldSetStmt>(st);
                    if (n.obj->kind != ExprKind::This || !pure(*n.value)) ok = false;
                    break;
                }
                case StmtKind::SuperCtor: {
                    const auto& n = as<SuperCtorStmt>(st);
                    for (const auto& a : n.args) {
                        if (!pure(*a)) ok = false;
                    }
                    const ClassDecl* sup =
                        cls->superName.empty() ? nullptr : prog_.cls(cls->superName);
                    if (sup && !ctorAllowsParallel(sup)) ok = false;
                    break;
                }
                case StmtKind::Return: break;
                default: ok = false; break;  // control flow, array stores, calls
                }
                if (!ok) break;
            }
        }
    }
    ctorParOk_[cls] = ok;
    return ok;
}

void Engine::noteLoop(const ForStmt* fs, const std::string& label, ParVerdict v,
                      std::string reason, std::vector<std::pair<std::string, std::string>> pairs,
                      std::vector<Reduction> reds) {
    auto it = out_.loopParallel.find(fs);
    if (it == out_.loopParallel.end()) {
        LoopParallel lp;
        lp.verdict = v;
        lp.reason = std::move(reason);
        lp.neqPairs = std::move(pairs);
        lp.reductions = std::move(reds);
        out_.loopParallel.emplace(fs, std::move(lp));
        loopOrder_.push_back(fs);
        loopLabel_.emplace(fs, label + ": for (" + fs->var + ")");
        return;
    }
    // Join with earlier contexts: Serial anywhere poisons the loop; a
    // conditional proof weakens an unconditional one; guard pairs union.
    LoopParallel& lp = it->second;
    if (lp.verdict == ParVerdict::Serial) return;
    if (v == ParVerdict::Serial) {
        lp.verdict = v;
        lp.reason = std::move(reason);
        lp.neqPairs.clear();
        lp.reductions.clear();
        return;
    }
    // A reduction proof joins only with itself. Recognition is structural
    // (same loop, same updates in every context), so a mixed join means a
    // context disagreed about the loop's nature — poison to serial.
    if ((v == ParVerdict::ParallelReduce) != (lp.verdict == ParVerdict::ParallelReduce)) {
        lp.verdict = ParVerdict::Serial;
        lp.reason = "verdict differs across call contexts";
        lp.neqPairs.clear();
        lp.reductions.clear();
        return;
    }
    if (v == ParVerdict::ParallelReduce) return;  // identical structural reductions
    for (auto& pr : pairs) {
        if (std::find(lp.neqPairs.begin(), lp.neqPairs.end(), pr) == lp.neqPairs.end()) {
            lp.neqPairs.push_back(std::move(pr));
        }
    }
    if (v == ParVerdict::CondParallel && lp.verdict == ParVerdict::Parallel) {
        lp.verdict = v;
        lp.reason = std::move(reason);
    }
}

void Engine::finishParallelReport() {
    for (const void* fs : loopOrder_) {
        const LoopParallel& lp = out_.loopParallel.at(fs);
        std::string line = loopLabel_.at(fs) + ": ";
        switch (lp.verdict) {
        case ParVerdict::Parallel: line += "parallel"; break;
        case ParVerdict::CondParallel: line += "parallel (guarded)"; break;
        case ParVerdict::ParallelReduce: line += "parallel (reduction)"; break;
        case ParVerdict::Serial: line += "serial"; break;
        }
        line += " -- " + lp.reason;
        out_.parallelReport.push_back(std::move(line));
    }
}

void Engine::noteVector(const ForStmt* fs, const std::string& label, LoopVector v) {
    auto it = out_.loopVector.find(fs);
    if (it == out_.loopVector.end()) {
        out_.loopVector.emplace(fs, std::move(v));
        vecOrder_.push_back(fs);
        vecLabel_.emplace(fs, label + ": for (" + fs->var + ")");
        return;
    }
    // Join with earlier contexts, mirroring noteLoop: ScalarOnly anywhere
    // poisons the loop; a conditional proof weakens an unconditional one;
    // overlap-pair sets union; exactness is the AND over contexts.
    LoopVector& lv = it->second;
    if (lv.verdict == VecVerdict::ScalarOnly) return;
    auto poison = [&](std::string reason) {
        lv.verdict = VecVerdict::ScalarOnly;
        lv.reason = std::move(reason);
        lv.overlapPairs.clear();
        lv.reductions.clear();
        lv.soaClasses.clear();
        lv.wraps.clear();
        lv.peelLo = lv.peelHi = 0;
        lv.wrapBoundMax = 0;
    };
    if (v.verdict == VecVerdict::ScalarOnly) return poison(std::move(v.reason));
    // Reduction recognition is structural, so a context disagreeing about
    // whether the loop reduces means the proofs are incomparable — poison.
    // So is a context that recognized a different set of wraps: the one
    // lowering the translator emits must hold in every context.
    if (v.reductions.empty() != lv.reductions.empty() || v.wraps != lv.wraps) {
        return poison("verdict differs across call contexts");
    }
    lv.exactReductions = lv.exactReductions && v.exactReductions;
    for (auto& pr : v.overlapPairs) {
        if (std::find(lv.overlapPairs.begin(), lv.overlapPairs.end(), pr) ==
            lv.overlapPairs.end()) {
            lv.overlapPairs.push_back(std::move(pr));
        }
    }
    for (auto& sc : v.soaClasses) {
        if (std::find(lv.soaClasses.begin(), lv.soaClasses.end(), sc) == lv.soaClasses.end()) {
            lv.soaClasses.push_back(std::move(sc));
        }
    }
    if (v.wrapBoundMax != 0 && (lv.wrapBoundMax == 0 || v.wrapBoundMax < lv.wrapBoundMax)) {
        lv.wrapBoundMax = v.wrapBoundMax;
    }
    if (v.verdict == VecVerdict::CondVectorizable && lv.verdict == VecVerdict::Vectorizable) {
        lv.verdict = v.verdict;
        lv.reason = std::move(v.reason);
    }
}

void Engine::finishVectorReport() {
    for (const void* fs : vecOrder_) {
        const LoopVector& lv = out_.loopVector.at(fs);
        std::string line = vecLabel_.at(fs) + ": ";
        switch (lv.verdict) {
        case VecVerdict::Vectorizable: line += "vectorizable"; break;
        case VecVerdict::CondVectorizable: line += "vectorizable (guarded)"; break;
        case VecVerdict::ScalarOnly: line += "scalar"; break;
        }
        line += " -- " + lv.reason;
        out_.vectorReport.push_back(std::move(line));
    }
}

void Engine::finishLayoutReport() {
    for (const auto& [cls, cl] : out_.layoutClasses) {
        std::string line = cls + ": ";
        switch (cl.verdict) {
        case LayoutVerdict::Inline: line += "inline"; break;
        case LayoutVerdict::CondInline: line += "inline (boundary-guarded)"; break;
        case LayoutVerdict::Boxed: line += "boxed"; break;
        }
        line += " -- " + cl.reason;
        out_.layoutReport.push_back(std::move(line));
    }
}

namespace {
/// Does the block contain a loop anywhere? Innermost counted loops — the
/// proveVectors candidates — are exactly the For loops whose bodies answer
/// no.
bool blockHasLoop(const Block& b) {
    bool found = false;
    visitStmts(b, [&](const Stmt& st) {
        found = found || st.kind == StmtKind::For || st.kind == StmtKind::While;
        return !found;
    });
    return found;
}
} // namespace

/// Scans `m`'s body for outermost counted loops and attempts a dependence
/// proof for each. A refused loop's nested loops are tried instead, so a
/// serial driver loop still gets its compute-heavy inner loops outlined.
void Engine::proveLoops(const std::string& label, const Method& m, const Cfg& cfg,
                        std::vector<Env>& states) {
    visitStmts(m.body, [&](const Stmt& st) {
        return st.kind != StmtKind::For ||
               proveLoop(label, as<ForStmt>(st), cfg, states) == ParVerdict::Serial;
    });

    // The proveVectors pass: SIMD legality for every innermost counted loop,
    // including those nested inside proven-parallel outer loops — their
    // chunk bodies are where the simd codegen consumes the verdicts.
    visitStmts(m.body, [&](const Stmt& st) {
        if (st.kind != StmtKind::For || blockHasLoop(as<ForStmt>(st).body)) return true;
        proveLoop(label, as<ForStmt>(st), cfg, states, /*vectorOnly=*/true);
        return false;
    });
}

ParVerdict Engine::proveLoop(const std::string& label, const ForStmt& fs, const Cfg& cfg,
                             std::vector<Env>& states, bool vectorOnly) {
    auto refuse = [&](std::string why) {
        if (vectorOnly) {
            LoopVector lv;  // ScalarOnly
            lv.reason = std::move(why);
            noteVector(&fs, label, std::move(lv));
        }
        else noteLoop(&fs, label, ParVerdict::Serial, std::move(why), {});
        return ParVerdict::Serial;
    };

    // ---- candidate shape: `for (v = init; v < bound; v = v + 1)` over an
    //      integral variable — exactly what the forRange/forI32 builders emit.
    if (!fs.varType.isIntegral()) return refuse("loop variable is not integral");
    const auto* condB = fs.cond->kind == ExprKind::Binary ? &as<BinaryExpr>(*fs.cond) : nullptr;
    if (!condB || condB->op != BinOp::Lt || condB->l->kind != ExprKind::Local ||
        as<LocalExpr>(*condB->l).name != fs.var) {
        return refuse("condition is not `" + fs.var + " < bound`");
    }
    const Expr& bound = *condB->r;
    const auto* stepB = fs.step->kind == ExprKind::Binary ? &as<BinaryExpr>(*fs.step) : nullptr;
    const bool unitStep = stepB && stepB->op == BinOp::Add &&
                          stepB->l->kind == ExprKind::Local &&
                          as<LocalExpr>(*stepB->l).name == fs.var &&
                          stepB->r->kind == ExprKind::Const && as<ConstExpr>(*stepB->r).i == 1;
    if (!unitStep) return refuse("step is not `" + fs.var + " + 1`");

    ParBodyIndex ix;
    indexParBody(fs.body, ix);
    if (ix.defined.count(fs.var)) return refuse("body rebinds the loop variable");

    // Sanctioned reduction updates (`acc = acc op f(i)`; see analysis.h).
    // Updates of outside locals not in this map refuse the loop below.
    std::map<const Stmt*, RedUpdate> redUpd;
    std::vector<RedUpdate> redVars;
    matchRedUpdates(fs.body, ix, fs.var, redUpd, redVars);

    // The bound is hoisted and evaluated once by the parallel dispatch, so
    // it must be effect-free, independent of any name the body assigns
    // (including reduction accumulators), and must not read array elements
    // the body could write.
    if (hasEffects(bound) || exprReadsArray(bound)) {
        return refuse("bound is not a pure expression");
    }
    {
        std::vector<std::string> reads;
        collectReads(bound, reads);
        for (const std::string& r : reads) {
            if (r == fs.var || ix.defined.count(r) || ix.kills.count(r)) {
                return refuse("bound depends on values computed in the body");
            }
        }
    }

    // ---- locate this loop's CFG pieces and its pre-loop state
    int initNode = -1;
    std::map<const Stmt*, int> stmtNode;
    std::map<const ForStmt*, int> forInitNode, forStepNode;
    std::map<const Expr*, int> condNode;
    for (size_t i = 0; i < cfg.nodes.size(); ++i) {
        const CfgNode& nd = cfg.nodes[i];
        switch (nd.kind) {
        case CfgNode::Kind::Stmt:
            if (ix.stmts.count(nd.stmt)) stmtNode[nd.stmt] = static_cast<int>(i);
            break;
        case CfgNode::Kind::Branch:
            if (ix.conds.count(nd.cond)) condNode[nd.cond] = static_cast<int>(i);
            break;
        case CfgNode::Kind::ForInit:
            if (nd.forS == &fs) initNode = static_cast<int>(i);
            if (ix.fors.count(nd.forS)) forInitNode[nd.forS] = static_cast<int>(i);
            break;
        case CfgNode::Kind::ForStep:
            if (ix.fors.count(nd.forS)) forStepNode[nd.forS] = static_cast<int>(i);
            break;
        default: break;
        }
    }
    if (initNode < 0 || !states[static_cast<size_t>(initNode)].reach) {
        return refuse("loop is unreachable in this context");
    }

    Env& preEnv = states[static_cast<size_t>(initNode)];
    const Itv initV = evalExpr(preEnv, *fs.init).num;
    const Itv boundV = evalExpr(preEnv, bound).num;
    const Itv V{initV.lo, Itv::satAdd(boundV.hi, -1)};
    if (V.empty()) return refuse("trip count is zero in every analyzed execution");
    // Largest possible |i - j| between two iterations; 0 means a single
    // iteration, which cannot carry a dependence.
    const int64_t span =
        (V.lo != Itv::kNegInf && V.hi != Itv::kPosInf) ? V.hi - V.lo : Itv::kPosInf;

    // ---- one pass over the body's CFG nodes in reverse postorder:
    //      legality checks, linear-form building, and access collection,
    //      each against that node's fixed-point IN state.
    std::map<std::string, LinForm> lfMap;
    struct PAcc {
        bool isWrite = false;
        std::string name;     ///< local (or dotted field path) the array flows through
        std::set<int> roots;  ///< abstract allocation roots (may be empty)
        int64_t k = 0;
        Itv w = Itv::top();
        Itv foot = Itv::top();   ///< footprint over the whole iteration space
        std::string idxKey;      ///< idxKeyOf(index): canonical form of the index expr
        bool idxStable = false;  ///< the index is affine in the loop var (idxIsStable)
    };
    std::vector<PAcc> accs;
    std::string why;

    // ---- AoS→SoA layout gate (SIMD mode only; the parallel prover is
    // layout-agnostic). An element access `a[i].f` over a class-element
    // array is struct-strided under AoS — each lane's field loads sit
    // sizeof(struct) bytes apart — so it only vectorizes after the
    // proveLayout split, and only for classes the pass cleared. The classes
    // a verdict leans on are carried in LoopVector::soaClasses so the
    // translator and the verdict can never disagree about the layout.
    std::set<std::string> soaNeeded;
    auto classElemOk = [&](Env& env, const Expr& arrE, bool isWrite) -> bool {
        if (!vectorOnly) return true;
        const Type at = evalExpr(env, arrE).type;
        if (!at.isArray() || !at.elem().isClass()) return true;
        const std::string cls = at.elem().className();
        auto it = out_.layoutClasses.find(cls);
        if (it == out_.layoutClasses.end() || it->second.verdict == LayoutVerdict::Boxed) {
            why = std::string(isWrite ? "stores" : "reads") + " '" + cls +
                  "[]' elements that must stay AoS (" +
                  (it == out_.layoutClasses.end() ? "no layout verdict"
                                                  : "layout: " + it->second.reason) +
                  ")";
            return false;
        }
        soaNeeded.insert(cls);
        return true;
    };
    auto soaJoin = [&]() {
        std::string s;
        bool first = true;
        for (const std::string& c : soaNeeded) {
            if (!first) s += ", ";
            s += "'" + c + "[]'";
            first = false;
        }
        return s;
    };
    auto soaList = [&]() {
        return std::vector<std::string>(soaNeeded.begin(), soaNeeded.end());
    };

    // A local name is loop-invariant when the body neither declares nor
    // assigns it; index expressions over only such names (plus the loop var
    // itself) evaluate identically in every iteration up to the k*i term.
    // SIMD mode extends this to body locals declared once, never
    // reassigned, and initialized from invariant names (the sweep's
    // `base = z*plane + y*nx`, `ym`, `yp`): WJ forbids shadowing and
    // use-before-declaration, so every use sees the value its declaration
    // computed in the same iteration, which is the same in every iteration.
    std::map<std::string, const Expr*> bodyDefs;
    if (vectorOnly) {
        for (const Stmt* st : ix.stmts) {
            if (st->kind != StmtKind::Decl) continue;
            const auto& d = as<DeclStmt>(*st);
            if (d.init && !ix.kills.count(d.name)) bodyDefs[d.name] = d.init.get();
        }
    }
    auto bodyDef = [&](const std::string& nm) -> const Expr* {
        auto it = bodyDefs.find(nm);
        return it == bodyDefs.end() ? nullptr : it->second;
    };
    std::function<bool(const Expr&)> invariantExpr;
    auto invariantLocal = [&](const std::string& nm) {
        if (nm == fs.var) return false;
        if (const Expr* d = bodyDef(nm)) return invariantExpr(*d);
        return !ix.defined.count(nm) && !ix.kills.count(nm);
    };

    // SIMD mode additionally follows arrays reached through a *stable path*
    // of field loads (`this.cur`, `m.data`): the body cannot contain a
    // FieldSet (refused outright) and every callee that writes state is
    // refused too, so the binding named by the path is the same array in
    // every iteration. Returns the canonical dotted path, or "" when the
    // base is not such a chain (non-invariant root, computed receiver).
    std::function<std::string(const Expr&)> stablePath = [&](const Expr& e) -> std::string {
        switch (e.kind) {
        case ExprKind::This: return "this";
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            return invariantLocal(nm) ? nm : "";
        }
        case ExprKind::FieldGet: {
            const auto& n = as<FieldGetExpr>(e);
            const std::string base = stablePath(*n.obj);
            return base.empty() ? "" : base + "." + n.field;
        }
        default: return "";
        }
    };

    // Built from constants, invariant locals and stable field loads under
    // arithmetic: the same value in every iteration.
    invariantExpr = [&](const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Const: return true;
        case ExprKind::Local: return invariantLocal(as<LocalExpr>(e).name);
        case ExprKind::FieldGet: return !stablePath(e).empty();
        case ExprKind::Unary: return invariantExpr(*as<UnaryExpr>(e).e);
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            return invariantExpr(*n.l) && invariantExpr(*n.r);
        }
        case ExprKind::Cast: return invariantExpr(*as<CastExpr>(e).e);
        default: return false;
        }
    };

    // ---- periodic-wrap indices (SIMD mode). For x this loop's variable
    // over [0, n) with step 1, n invariant and a small constant c,
    // `(x + c + n) % n` and `(x + c) % n` equal `x + c` on the middle range
    // [max(0, -c), n - max(0, c)). The proof treats each recognized wrap
    // as that affine form, which only holds for the middle iterations; the
    // translator runs the middle as one simd range and every head and tail
    // iteration as a range of its own, in source order.
    // `wrapNote` names the first x-dependent `%` left as written, and why.
    constexpr int64_t kMaxWrapShift = 8;
    std::map<const void*, int> wraps;
    int peelLo = 0, peelHi = 0;
    int64_t wrapBoundMax = 0;
    std::string wrapNote;
    const std::string boundKey = printExpr(bound);
    auto noteWrap = [&](Env& env, const BinaryExpr& n) {
        std::vector<std::string> reads;
        collectReads(*n.l, reads);
        if (std::find(reads.begin(), reads.end(), fs.var) == reads.end()) return;
        auto keep = [&](const std::string& why) {
            if (wrapNote.empty()) wrapNote = "'" + printExpr(n) + "' kept as written: " + why;
        };
        // The numerator as a signed sum of terms: x, the modulus, constants.
        const std::string modKey = printExpr(*n.r);
        int xs = 0, ns = 0, consts = 0;
        int64_t c = 0;
        bool sum = true;
        std::function<void(const Expr&, int)> term = [&](const Expr& t, int sign) {
            if (t.kind == ExprKind::Binary) {
                const auto& b = as<BinaryExpr>(t);
                if (b.op == BinOp::Add || b.op == BinOp::Sub) {
                    term(*b.l, sign);
                    term(*b.r, b.op == BinOp::Add ? sign : -sign);
                    return;
                }
            }
            if (t.kind == ExprKind::Local && as<LocalExpr>(t).name == fs.var) {
                xs += sign;
            } else if (t.kind == ExprKind::Const && as<ConstExpr>(t).type.isIntegral() &&
                       std::llabs(as<ConstExpr>(t).i) <= kMaxWrapShift) {
                c += sign * as<ConstExpr>(t).i;
                ++consts;
            } else if (printExpr(t) == modKey) {
                ns += sign;
            } else {
                sum = false;
            }
        };
        term(*n.l, 1);
        if (!sum || xs != 1 || (ns != 0 && ns != 1) || consts > 1) {
            return keep("not of the form (" + fs.var + " + c + n) % n or (" + fs.var +
                        " + c) % n with |c| <= " + std::to_string(kMaxWrapShift));
        }
        if (!invariantExpr(*n.r)) return keep("the modulus is not loop-invariant");
        // x runs up from 0 and stays below the bound, so a modulus that IS
        // the bound is >= 1 whenever the body runs; any other needs the
        // interval facts.
        const bool startsAtZero =
            fs.init->kind == ExprKind::Const && as<ConstExpr>(*fs.init).i == 0;
        const AVal m = evalExpr(env, *n.r);
        if (!(modKey == boundKey && startsAtZero) && (!m.num.loFinite() || m.num.lo < 1)) {
            return keep("the divisor may be <= 0");
        }
        if (modKey != boundKey) {
            return keep("the modulus differs from the loop bound '" + boundKey + "'");
        }
        if (!startsAtZero) return keep("the loop does not start at 0");
        // x + c + n (or x + c) must not overflow for any x < n: constant
        // terms are at most kMaxWrapShift, so this bound suffices.
        const int64_t tmax =
            m.type.isPrim(Prim::I64) || fs.varType.isPrim(Prim::I64) ? INT64_MAX : INT32_MAX;
        const int64_t limit = ns ? (tmax - kMaxWrapShift) / 2 : tmax - kMaxWrapShift;
        if (!boundV.hiFinite() || boundV.hi > limit) {
            wrapBoundMax = wrapBoundMax == 0 ? limit : std::min(wrapBoundMax, limit);
        }
        wraps[&n] = static_cast<int>(c);
        peelLo = std::max(peelLo, static_cast<int>(c < 0 ? -c : 0));
        peelHi = std::max(peelHi, static_cast<int>(c > 0 ? c : 0));
    };

    // True when `e` is affine in the loop variable over invariant terms —
    // k*x + C, with recognized wraps read as x + c and stable body locals
    // read through their definitions. Then two accesses with equal
    // idxKeyOf keys touch the SAME address in the same iteration, so with
    // stride k != 0 they can never collide across distinct iterations.
    std::function<bool(const Expr&)> idxIsStable = [&](const Expr& e) -> bool {
        if (invariantExpr(e)) return true;
        switch (e.kind) {
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            if (nm == fs.var) return true;
            const Expr* d = bodyDef(nm);
            return d && idxIsStable(*d);
        }
        case ExprKind::Unary: {
            const auto& n = as<UnaryExpr>(e);
            return n.op == UnOp::Neg && idxIsStable(*n.e);
        }
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            if (wraps.count(&n)) return true;
            if (n.op == BinOp::Add || n.op == BinOp::Sub) {
                return idxIsStable(*n.l) && idxIsStable(*n.r);
            }
            if (n.op == BinOp::Mul) {
                return (invariantExpr(*n.l) && idxIsStable(*n.r)) ||
                       (idxIsStable(*n.l) && invariantExpr(*n.r));
            }
            return false;
        }
        case ExprKind::Cast: return idxIsStable(*as<CastExpr>(e).e);
        default: return false;
        }
    };
    // Canonical key of a stable index: body locals expanded to their
    // definitions and wraps to `x + c`, so `nxt[base + x]` keys the same
    // in every iteration and through every spelling of base.
    std::function<std::string(const Expr&)> idxKeyOf = [&](const Expr& e) -> std::string {
        switch (e.kind) {
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            const Expr* d = bodyDef(nm);
            return d ? "(" + idxKeyOf(*d) + ")" : nm;
        }
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            auto w = wraps.find(&n);
            if (w != wraps.end()) return "(" + fs.var + " + " + std::to_string(w->second) + ")";
            return "(" + idxKeyOf(*n.l) + " " + binOpName(n.op) + " " + idxKeyOf(*n.r) + ")";
        }
        default: return printExpr(e);
        }
    };

    // Linear form of an index expression in the candidate variable. Never
    // fails: the fallback (k = 0, node interval) is sound by construction.
    std::function<LinForm(Env&, const Expr&)> linOf = [&](Env& env, const Expr& e) -> LinForm {
        auto fall = [&]() -> LinForm { return {0, evalExpr(env, e).num}; };
        switch (e.kind) {
        case ExprKind::Const: {
            const auto& n = as<ConstExpr>(e);
            if (n.type.isIntegral()) return {0, Itv::of(n.i)};
            return fall();
        }
        case ExprKind::Local: {
            const std::string& nm = as<LocalExpr>(e).name;
            if (nm == fs.var) return {1, Itv::of(0)};
            auto lf = lfMap.find(nm);
            if (lf != lfMap.end()) return lf->second;
            return fall();
        }
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            auto w = wraps.find(&n);
            if (w != wraps.end()) return {1, Itv::of(w->second)};  // x + c on the middle range
            if (n.op == BinOp::Add || n.op == BinOp::Sub) {
                const LinForm l = linOf(env, *n.l);
                const LinForm r = linOf(env, *n.r);
                int64_t k = 0;
                if (__builtin_add_overflow(l.k, n.op == BinOp::Add ? r.k : -r.k, &k)) {
                    return fall();
                }
                return {k, n.op == BinOp::Add ? l.w.add(r.w) : l.w.sub(r.w)};
            }
            if (n.op == BinOp::Mul) {
                LinForm l = linOf(env, *n.l);
                LinForm r = linOf(env, *n.r);
                if (l.k != 0 && r.k == 0 && r.w.isConst()) std::swap(l, r);
                if (l.k == 0 && l.w.isConst() && l.w.lo != Itv::kNegInf) {
                    int64_t k = 0;
                    if (__builtin_mul_overflow(l.w.lo, r.k, &k)) return fall();
                    return {k, r.w.mul(l.w)};
                }
                if (l.k == 0 && r.k == 0) return {0, l.w.mul(r.w)};
                return fall();
            }
            return fall();
        }
        default: return fall();
        }
    };

    auto fillPAcc = [&](Env& env, PAcc& a, bool isWrite, const std::string& name,
                        const Expr& idx) {
        a.isWrite = isWrite;
        a.name = name;
        const LinForm lf = linOf(env, idx);
        a.k = lf.k;
        a.w = lf.w;
        a.foot = Itv::of(lf.k).mul(V).add(lf.w);
        a.idxKey = idxKeyOf(idx);
        a.idxStable = idxIsStable(idx);
    };

    auto recordPAcc = [&](Env& env, bool isWrite, const std::string& name, const Expr& idx) {
        PAcc a;
        auto vit = env.vars.find(name);
        if (vit != env.vars.end()) a.roots = vit->second.roots;
        fillPAcc(env, a, isWrite, name, idx);
        accs.push_back(std::move(a));
    };

    auto recordPathPAcc = [&](Env& env, bool isWrite, const std::string& path,
                              const Expr& arr, const Expr& idx) {
        PAcc a;
        a.roots = evalExpr(env, arr).roots;  // alias facts come from the abstract heap
        fillPAcc(env, a, isWrite, path, idx);
        accs.push_back(std::move(a));
    };

    // Legality + access collection over one expression tree. Returns false
    // (with `why` set) on the first construct that cannot run off the
    // rank's main thread or whose memory behaviour cannot be bounded.
    std::function<bool(Env&, const Expr&)> checkExpr = [&](Env& env, const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Const:
        case ExprKind::Local:
        case ExprKind::This:
        case ExprKind::StaticGet: return true;
        case ExprKind::FieldGet: return checkExpr(env, *as<FieldGetExpr>(e).obj);
        case ExprKind::ArrayLen: return checkExpr(env, *as<ArrayLenExpr>(e).arr);
        case ExprKind::Unary: return checkExpr(env, *as<UnaryExpr>(e).e);
        case ExprKind::Binary: {
            const auto& n = as<BinaryExpr>(e);
            if (!checkExpr(env, *n.l) || !checkExpr(env, *n.r)) return false;
            if (vectorOnly && n.op == BinOp::Rem) noteWrap(env, n);
            return true;
        }
        case ExprKind::Cond: {
            const auto& n = as<CondExpr>(e);
            return checkExpr(env, *n.c) && checkExpr(env, *n.t) && checkExpr(env, *n.f);
        }
        case ExprKind::Cast: return checkExpr(env, *as<CastExpr>(e).e);
        case ExprKind::ArrayGet: {
            const auto& n = as<ArrayGetExpr>(e);
            if (!checkExpr(env, *n.arr) || !checkExpr(env, *n.idx)) return false;
            if (!classElemOk(env, *n.arr, /*isWrite=*/false)) return false;
            if (n.arr->kind == ExprKind::Local) {
                recordPAcc(env, false, as<LocalExpr>(*n.arr).name, *n.idx);
                return true;
            }
            if (vectorOnly) {
                const std::string path = stablePath(*n.arr);
                if (!path.empty()) {
                    recordPathPAcc(env, false, path, *n.arr, *n.idx);
                    return true;
                }
            }
            why = "reads an array through a non-local expression";
            return false;
        }
        case ExprKind::New: {
            const auto& n = as<NewExpr>(e);
            for (const auto& a : n.args) {
                if (!checkExpr(env, *a)) return false;
            }
            if (!ctorAllowsParallel(prog_.cls(n.cls))) {
                why = "constructs '" + n.cls + "', whose constructor is not provably iteration-private";
                return false;
            }
            return true;
        }
        case ExprKind::NewArray:
            why = "allocates an array inside the loop";
            return false;
        case ExprKind::IntrinsicCall: {
            const auto& n = as<IntrinsicExpr>(e);
            for (const auto& a : n.args) {
                if (!checkExpr(env, *a)) return false;
            }
            switch (n.op) {
            case Intrinsic::MathExpF64:
                // sqrt/fabs are correctly rounded in SIMD too; exp is a libm
                // call with no bit-exact vector variant, so the lane body
                // would stay a serialized call anyway.
                if (vectorOnly) {
                    why = std::string("calls intrinsic '") + intrinsicSig(n.op).name +
                          "', which has no bit-exact vector variant";
                    return false;
                }
                return true;
            case Intrinsic::MathSqrtF64:
            case Intrinsic::MathFabsF64:
            case Intrinsic::MathSqrtF32:
            case Intrinsic::RngHashF32: return true;
            default:
                why = std::string("calls intrinsic '") + intrinsicSig(n.op).name +
                      "', which must stay on the rank's main thread";
                return false;
            }
        }
        case ExprKind::Call:
        case ExprKind::StaticCall: {
            const CallExpr* vc = e.kind == ExprKind::Call ? &as<CallExpr>(e) : nullptr;
            const StaticCallExpr* sc = vc ? nullptr : &as<StaticCallExpr>(e);
            AVal recv;
            if (vc) {
                if (!checkExpr(env, *vc->recv)) return false;
                recv = evalExpr(env, *vc->recv);
            }
            const auto& argExprs = vc ? vc->args : sc->args;
            for (const auto& a : argExprs) {
                if (!checkExpr(env, *a)) return false;
            }

            std::vector<const Method*> targets;
            if (vc) {
                if (!recv.objs.empty()) {
                    for (const AbsObjPtr& o : recv.objs) {
                        if (const Method* t = prog_.resolveMethod(o->cls->name, vc->method)) {
                            targets.push_back(t);
                        }
                    }
                } else if (recv.type.isClass()) {
                    for (const auto& [owner, t] :
                         resolveVirtual(prog_, recv.type.className(), vc->method)) {
                        (void)owner;
                        targets.push_back(t);
                    }
                }
            } else {
                const ClassDecl* owner = prog_.methodOwner(sc->cls, sc->method);
                if (const Method* t = owner ? owner->ownMethod(sc->method) : nullptr) {
                    targets.push_back(t);
                }
            }
            const std::string callee = vc ? vc->method : sc->method;
            if (targets.empty()) {
                why = "calls '" + callee + "', which could not be resolved";
                return false;
            }
            for (const Method* t : targets) {
                if (t->isGlobal) {
                    why = "launches kernel '" + t->name + "'";
                    return false;
                }
                const Effects& eff = effectsOf(*t);
                if (!eff.writesParams.empty() || !eff.writesFields.empty() || eff.writesUnknown) {
                    why = "calls '" + t->name + "', which may write shared state";
                    return false;
                }
                if (eff.usesComm() || eff.ckpt) {
                    why = "calls '" + t->name + "', which communicates or checkpoints";
                    return false;
                }
                if (eff.gpu || eff.allocates || eff.frees || eff.prints) {
                    why = "calls '" + t->name + "', which has device/alloc/IO effects";
                    return false;
                }
                for (const Param& p : t->params) {
                    if (p.type.isArray()) {
                        why = "calls '" + t->name + "' with an array parameter";
                        return false;
                    }
                }
                // A read of an array *field* inside the callee escapes the
                // index analysis; any element it reads could be written by a
                // collected store. Scalar field reads are fine.
                for (const std::string& fk : eff.readsFields) {
                    const auto dot = fk.find('.');
                    const Field* fd =
                        prog_.resolveField(fk.substr(0, dot), fk.substr(dot + 1));
                    if (!fd || fd->type.isArray()) {
                        why = "calls '" + t->name + "', which reads array field " + fk;
                        return false;
                    }
                }
            }
            return true;
        }
        }
        return true;
    };

    bool legal = true;
    for (int node : cfg.rpo()) {
        const CfgNode& nd = cfg.nodes[static_cast<size_t>(node)];
        int mapped = -1;
        const ForStmt* innerInit = nullptr;
        const ForStmt* innerStep = nullptr;
        const Expr* branchCond = nullptr;
        const Stmt* bodyStmt = nullptr;
        switch (nd.kind) {
        case CfgNode::Kind::Stmt: {
            auto it = stmtNode.find(nd.stmt);
            if (it != stmtNode.end() && it->second == node) bodyStmt = nd.stmt, mapped = node;
            break;
        }
        case CfgNode::Kind::Branch: {
            auto it = condNode.find(nd.cond);
            if (it != condNode.end() && it->second == node) branchCond = nd.cond, mapped = node;
            break;
        }
        case CfgNode::Kind::ForInit: {
            auto it = forInitNode.find(nd.forS);
            if (it != forInitNode.end() && it->second == node) innerInit = nd.forS, mapped = node;
            break;
        }
        case CfgNode::Kind::ForStep: {
            auto it = forStepNode.find(nd.forS);
            if (it != forStepNode.end() && it->second == node) innerStep = nd.forS, mapped = node;
            break;
        }
        default: break;
        }
        if (mapped < 0) continue;
        if (!states[static_cast<size_t>(node)].reach) continue;  // dead body code
        // Evaluation only reads the environment, so the fixed-point state
        // serves directly.
        Env& env = states[static_cast<size_t>(node)];

        if (branchCond) {
            legal = checkExpr(env, *branchCond);
        } else if (innerInit) {
            legal = checkExpr(env, *innerInit->init);
        } else if (innerStep) {
            legal = checkExpr(env, *innerStep->step);
        } else {
            const Stmt& st = *bodyStmt;
            switch (st.kind) {
            case StmtKind::Decl: {
                const auto& n = as<DeclStmt>(st);
                legal = !n.init || checkExpr(env, *n.init);
                // Single-assignment integral locals carry a linear form so
                // hoisted index bases (`base = z*plane + y*nx`) stay affine.
                if (legal && n.init && n.type.isIntegral() && !ix.kills.count(n.name)) {
                    lfMap[n.name] = linOf(env, *n.init);
                }
                break;
            }
            case StmtKind::AssignLocal: {
                const auto& n = as<AssignLocalStmt>(st);
                if (!ix.defined.count(n.name)) {
                    if (redUpd.count(&st)) {
                        // Sanctioned reduction update: only the rhs needs
                        // the legality walk here; the accumulator itself is
                        // audited after the walk (type + read count).
                        legal = checkExpr(env, *n.value);
                        break;
                    }
                    why = "updates '" + n.name +
                          "' declared outside the loop (loop-carried scalar dependence): `" +
                          stmtOneLine(st) +
                          "` is not a recognized reduction (acc = acc op f(i) over +, *, "
                          "min, max)";
                    legal = false;
                    break;
                }
                legal = checkExpr(env, *n.value);
                break;
            }
            case StmtKind::ArraySet: {
                const auto& n = as<ArraySetStmt>(st);
                legal = checkExpr(env, *n.arr) && checkExpr(env, *n.idx) &&
                        checkExpr(env, *n.value);
                if (!legal) break;
                if (!classElemOk(env, *n.arr, /*isWrite=*/true)) {
                    legal = false;
                    break;
                }
                if (n.arr->kind == ExprKind::Local) {
                    recordPAcc(env, true, as<LocalExpr>(*n.arr).name, *n.idx);
                    break;
                }
                if (vectorOnly) {
                    const std::string path = stablePath(*n.arr);
                    if (!path.empty()) {
                        recordPathPAcc(env, true, path, *n.arr, *n.idx);
                        break;
                    }
                }
                why = "stores to an array through a non-local expression";
                legal = false;
                break;
            }
            case StmtKind::FieldSet:
                why = "stores to an object field";
                legal = false;
                break;
            case StmtKind::Return:
                why = "returns from inside the loop";
                legal = false;
                break;
            case StmtKind::ExprStmt: legal = checkExpr(env, *as<ExprStmt>(st).e); break;
            default:
                why = "unsupported statement";
                legal = false;
                break;
            }
        }
        if (!legal) break;
    }
    if (!legal) return refuse(why.empty() ? "body has unsupported constructs" : why);

    // A tiny outer trip count cannot amortize a parallel dispatch over
    // nested loops; refuse it (after legality, so real defects keep their
    // actionable reason) and proveLoops proves the larger inner loops
    // instead of pinning the whole collapse on the outer one.
    if (!vectorOnly && !ix.fors.empty() && span != Itv::kPosInf && span <= 2) {
        return refuse("outer trip count is at most " + std::to_string(span + 1) +
                      " -- collapsed in favor of its inner loops");
    }

    // ---- SIMD stride audit: lanes pack contiguously only when every store
    // walks the array at unit stride; reads may additionally be loop-
    // invariant (a broadcast). Anything else names the offending access.
    if (vectorOnly) {
        for (const PAcc& a : accs) {
            if (a.k == 1) continue;
            if (a.k == 0 && !a.isWrite) continue;
            return refuse(std::string(a.isWrite ? "store to '" : "read of '") + a.name +
                          "' is not unit-stride in '" + fs.var + "' (stride " +
                          std::to_string(a.k) + ")");
        }
    }

    // A SIMD verdict: this loop's SoA needs and wrap lowering ride along,
    // and the reason names the peel.
    auto proven = [&](VecVerdict v, std::string desc,
                      std::vector<std::pair<std::string, std::string>> pairs = {},
                      std::vector<Reduction> vreds = {}, bool exact = true) {
        if (!wraps.empty()) {
            desc += "; periodic wraps as " + fs.var + " + c on [" + std::to_string(peelLo) +
                    ", " + boundKey + (peelHi ? " - " + std::to_string(peelHi) : "") +
                    ") (peel " + std::to_string(peelLo) + " head + " + std::to_string(peelHi) +
                    " tail";
            if (wrapBoundMax != 0) {
                desc += "; runtime guard " + boundKey + " <= " + std::to_string(wrapBoundMax);
            }
            desc += ")";
        }
        if (!wrapNote.empty()) desc += "; " + wrapNote;
        noteVector(&fs, label,
                   {.verdict = v,
                    .reason = std::move(desc),
                    .overlapPairs = std::move(pairs),
                    .reductions = std::move(vreds),
                    .exactReductions = exact,
                    .soaClasses = soaList(),
                    .wraps = wraps,
                    .peelLo = peelLo,
                    .peelHi = peelHi,
                    .wrapBoundMax = wrapBoundMax});
    };

    // ---- reduction audit. Each sanctioned update contributes exactly one
    // read of its accumulator (Form A: the binop operand; Form B: the
    // comparison operand), so the body-wide read count must equal the
    // update count — a mismatch means the accumulator's running value
    // leaks into the body somewhere else, which chunked partials cannot
    // reproduce. The accumulator must be a float/double/long local live
    // before the loop (i32 wrap-around under reassociation is excluded).
    std::vector<Reduction> reds;
    for (const RedUpdate& u : redVars) {
        int sanctioned = 0;
        for (const auto& kv : redUpd) {
            if (kv.second.var == u.var) ++sanctioned;
        }
        if (countLocalReadsBlock(fs.body, u.var) != sanctioned) {
            return refuse("'" + u.var +
                          "' is read outside its reduction update (loop-carried scalar "
                          "dependence)");
        }
        auto vit = preEnv.vars.find(u.var);
        const Type accT = vit == preEnv.vars.end() ? Type::voidTy() : vit->second.type;
        if (!accT.isPrim(Prim::F32) && !accT.isPrim(Prim::F64) && !accT.isPrim(Prim::I64)) {
            return refuse("reduction accumulator '" + u.var + "' has unsupported type '" +
                          (accT.isPrim() ? primName(accT.prim()) : "non-primitive") +
                          "' (supported: long, float, double)");
        }
        Reduction r;
        r.var = u.var;
        r.prim = accT.prim();
        r.op = u.op;
        r.accOnLeft = u.accOnLeft;
        r.cmp = u.cmp;
        reds.push_back(std::move(r));
    }

    // ---- pairwise dependence test over the collected accesses. Two
    // accesses with equal coefficient k collide across iterations i != j
    // exactly when (w2 - w1) can land in ±[|k|, |k|*span]; unequal or
    // unknown coefficients fall back to whole-footprint overlap.
    auto collides = [&](const PAcc& a, const PAcc& b) -> bool {
        if (span <= 0) return false;  // at most one iteration
        // Stable indices with equal keys address the same element in the
        // same iteration; with a nonzero stride, iterations i != j are
        // then k*(i-j) apart — never a cross-lane collision. This is what
        // lets `cr[i*n+j] = cr[i*n+j] + ...` prove: the interval for the
        // invariant i*n term is wide, but the symbolic difference is 0.
        if (vectorOnly && a.k == b.k && a.k != 0 && a.idxStable && b.idxStable &&
            a.idxKey == b.idxKey) {
            return false;
        }
        if (a.k == b.k) {
            if (a.k == 0) return regionsMayOverlap(a.w, b.w);
            const int64_t mag = a.k < 0 ? Itv::satNeg(a.k) : a.k;
            const int64_t magSpan = Itv::satMul(mag, span);
            const Itv diff = b.w.sub(a.w);
            if (diff.empty()) return false;
            return rangesIntersect(diff.lo, diff.hi, mag, magSpan) ||
                   rangesIntersect(diff.lo, diff.hi, Itv::satNeg(magSpan), Itv::satNeg(mag));
        }
        return regionsMayOverlap(a.foot, b.foot);
    };

    std::set<std::pair<std::string, std::string>> guards;
    for (size_t i = 0; i < accs.size(); ++i) {
        for (size_t j = i; j < accs.size(); ++j) {
            const PAcc& a = accs[i];
            const PAcc& b = accs[j];
            if (!a.isWrite && !b.isWrite) continue;
            if (i == j && !a.isWrite) continue;
            if (a.name == b.name) {
                if (collides(a, b)) {
                    return refuse("accesses to '" + a.name + "' may collide across iterations");
                }
            } else {
                if (!rootsMayIntersect(a.roots, b.roots)) continue;  // provably distinct
                // SIMD mode needs the wider test: hoisting restrict-qualified
                // pointers requires every written array to occupy memory
                // disjoint from every other array it may alias — a same-index
                // store through a second name violates restrict without ever
                // colliding across iterations.
                if (vectorOnly || collides(a, b)) {
                    guards.insert(a.name < b.name ? std::make_pair(a.name, b.name)
                                                  : std::make_pair(b.name, a.name));
                }
            }
        }
    }

    if (!reds.empty()) {
        if (!guards.empty()) {
            return refuse("reduction over '" + reds[0].var +
                          "' would also need alias guards -- unsupported combination");
        }
        std::string desc = "reduction over ";
        bool first = true;
        for (const Reduction& r : reds) {
            if (!first) desc += ", ";
            desc += "'" + r.var + "' (" + redOpName(r.op) + ", " + primName(r.prim) + ")";
            first = false;
        }
        if (vectorOnly) {
            // min/max select one operand bit-for-bit, and i64 +/* wrap mod
            // 2^64 — both exact under any reassociation, so the lanes may
            // carry a simd reduction clause. f32/f64 +/* are inexact: the
            // loop still vectorizes elementwise, but the accumulator stays
            // on the bitwise chunk-serial combine.
            bool exact = true;
            for (const Reduction& r : reds) {
                if ((r.op == RedOp::Add || r.op == RedOp::Mul) && r.prim != Prim::I64) {
                    exact = false;
                }
            }
            desc += exact ? " -- exact under reassociation (simd reduction clause)"
                          : " -- f32/f64 reassociation is inexact; accumulator stays "
                            "chunk-serial";
            if (!soaNeeded.empty()) {
                if (!soaOn_) {
                    return refuse("element accesses through " + soaJoin() +
                                  " are struct-strided under AoS -- vectorizable under --soa "
                                  "(WJ_SOA=1)");
                }
                desc += "; unit-stride via the SoA layout of " + soaJoin();
            }
            proven(VecVerdict::Vectorizable, std::move(desc), {}, std::move(reds), exact);
            return ParVerdict::Parallel;
        }
        if (lint_) {
            // Without an entry context the interval/alias facts backing the
            // outlined dispatch are too weak; report the recognition so the
            // lint output stays actionable, but degrade to serial — never
            // to an unsound parallel verdict.
            return refuse(desc + " recognized; parallelized when jitted with an entry context");
        }
        desc += "; per-chunk partials combined in fixed chunk order";
        noteLoop(&fs, label, ParVerdict::ParallelReduce, std::move(desc), {}, std::move(reds));
        return ParVerdict::ParallelReduce;
    }

    if (!guards.empty()) {
        std::vector<std::pair<std::string, std::string>> pairs(guards.begin(), guards.end());
        if (vectorOnly) {
            std::string desc = "lanes are independent provided the data ranges of ";
            bool first = true;
            for (const auto& [a, b] : guards) {
                if (!first) desc += ", ";
                desc += "'" + a + "'/'" + b + "'";
                first = false;
            }
            desc += " are disjoint (runtime overlap guard)";
            if (!soaNeeded.empty()) {
                if (!soaOn_) {
                    return refuse("element accesses through " + soaJoin() +
                                  " are struct-strided under AoS -- vectorizable under --soa "
                                  "(WJ_SOA=1)");
                }
                desc += "; unit-stride via the SoA layout of " + soaJoin();
            }
            proven(VecVerdict::CondVectorizable, std::move(desc), std::move(pairs));
            return ParVerdict::CondParallel;
        }
        std::string desc = "iterations are independent provided ";
        bool first = true;
        for (const auto& [a, b] : guards) {
            if (!first) desc += ", ";
            desc += "'" + a + "' != '" + b + "'";
            first = false;
        }
        desc += " (runtime pointer guard)";
        noteLoop(&fs, label, ParVerdict::CondParallel, std::move(desc), std::move(pairs));
        return ParVerdict::CondParallel;
    }
    if (vectorOnly) {
        if (!soaNeeded.empty()) {
            if (!soaOn_) {
                return refuse("element accesses through " + soaJoin() +
                              " are struct-strided under AoS -- vectorizable under --soa "
                              "(WJ_SOA=1)");
            }
            proven(VecVerdict::Vectorizable, "unit-stride accesses via the SoA layout of " +
                                                 soaJoin() + "; no cross-lane dependence");
            return ParVerdict::Parallel;
        }
        proven(VecVerdict::Vectorizable, "unit-stride accesses; no cross-lane dependence");
        return ParVerdict::Parallel;
    }
    noteLoop(&fs, label, ParVerdict::Parallel, "no loop-carried dependence", {});
    return ParVerdict::Parallel;
}

// ----------------------------------------------------------------- drivers

void Engine::runEntry(const GraphSnapshot& g, const std::string& method,
                      const Method* entryBody) {
    // Classes whose arrays cross the jit() boundary: invoke() marshals those
    // payloads AoS (in fact it refuses non-primitive elements outright), so
    // proveLayout boxes them.
    std::set<std::string> boundary;
    for (uint32_t id = 0; id < g.size(); ++id) {
        if (g[id].kind == GraphSnapshot::Kind::Array && g[id].cls) boundary.insert(g[id].cls->name);
    }
    out_.layoutClasses = proveLayout(prog_, boundary, /*lint=*/false);
    snapObjs_.assign(g.size(), nullptr);
    nextRoot_ = static_cast<int>(g.size());  // allocation sites number after the snapshot
    const AVal self = absOfNode(g, g.root(0), Type::voidTy());
    if (self.objs.empty()) return;  // jit() rejects non-object receivers itself
    const std::string clsName = self.objs[0]->cls->name;
    const ClassDecl* owner = prog_.methodOwner(clsName, method);
    const Method* m = owner ? owner->ownMethod(method) : nullptr;
    if (!owner || !m) return;
    std::vector<AVal> argVals;
    argVals.reserve(g.argCount());
    for (size_t i = 0; i < g.argCount(); ++i) {
        const Type declared = i < m->params.size() ? m->params[i].type : Type::voidTy();
        argVals.push_back(absOfNode(g, g.root(i + 1), declared));
    }
    if (entryBody) {
        entryBody_ = entryBody;
        entryOrig_ = m;
    }
    analyzeCall(*owner, entryBody ? *entryBody : *m, &self, argVals);
    finishParallelReport();
    finishVectorReport();
    finishLayoutReport();
}

void Engine::runLint() {
    out_.layoutClasses = proveLayout(prog_, {}, /*lint=*/true);
    for (const ClassDecl* cls : prog_.classes()) {
        if (cls->isInterface) continue;
        if (cls->ctor) noteDefiniteAssignment(*cls, *cls->ctor);
        for (const auto& m : cls->methods) {
            if (m->isAbstract) continue;
            AVal self = unknownOf(Type::cls(cls->name));
            std::vector<AVal> args;
            args.reserve(m->params.size());
            for (const Param& prm : m->params) {
                AVal v = unknownOf(prm.type);
                // Lint assumption: distinct array parameters do not alias.
                if (prm.type.isArray()) v.roots = {rootOf(&prm)};
                args.push_back(std::move(v));
            }
            try {
                analyzeCall(*cls, *m, m->isStatic ? nullptr : &self, args);
            } catch (const WjError&) {
                // Ill-typed lint input; reported by the typechecker instead.
            }
        }
    }
    finishParallelReport();
    finishVectorReport();
    finishLayoutReport();
}

} // namespace

void Result::require() const {
    if (!errors.empty()) throw AnalysisError(errors);
}

namespace {

void tally(Result& r) {
    r.safeAccesses = 0;
    r.unknownAccesses = 0;
    for (const auto& [site, s] : r.accessSafety) {
        (void)site;
        if (s == Safety::Safe) {
            ++r.safeAccesses;
        } else {
            ++r.unknownAccesses;
        }
    }
}

} // namespace

Result lintProgram(const Program& prog, bool soa) {
    Result out;
    Engine eng(prog, out, /*lint=*/true, soa);
    eng.runLint();
    tally(out);
    return out;
}

Result analyzeEntry(const GraphSnapshot& snap, const std::string& method,
                    const Method* entryBody, bool soa) {
    Result out;
    Engine eng(snap.program(), out, /*lint=*/false, soa);
    eng.runEntry(snap, method, entryBody);
    tally(out);
    return out;
}

Result analyzeEntry(const Program& prog, const Value& receiver, const std::string& method,
                    const std::vector<Value>& args, const Method* entryBody, bool soa) {
    return analyzeEntry(GraphSnapshot(prog, receiver, args), method, entryBody, soa);
}

} // namespace wj::analysis
