#include "jit/codegen.h"

#include <cctype>
#include <functional>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

#include "analysis/fusion.h"
#include "ir/walk.h"
#include "jit/cache.h"
#include "jit/shape.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "support/timer.h"

namespace wj {

namespace {

[[noreturn]] void xerr(const std::string& msg) {
    throw UsageError("translation error: " + msg);
}

/// A NaN of the given IEEE bits as a C constant expression: GCC's
/// __builtin_nan[s][f] take the payload below the quiet bit and a leading
/// minus sets the sign, so every bit survives (0.0/0.0 would not), and the
/// spelling stays valid in file-scope static initializers.
std::string nanLiteral(uint64_t bits, int mantBits, const char* suffix) {
    const uint64_t quietBit = uint64_t{1} << (mantBits - 1);
    const uint64_t mant = bits & ((uint64_t{1} << mantBits) - 1);
    const bool negative = (bits >> (mantBits == 52 ? 63 : 31)) & 1;
    return format("(%s__builtin_nan%s%s(\"0x%llx\"))", negative ? "-" : "",
                  (mant & quietBit) ? "" : "s", suffix,
                  static_cast<unsigned long long>(mant & ~quietBit));
}

std::string f32Literal(float v) {
    if (std::isnan(v)) {
        uint32_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return nanLiteral(bits, 23, "f");
    }
    if (std::isinf(v)) return v > 0 ? "(1.0f/0.0f)" : "(-1.0f/0.0f)";
    return format("%af", static_cast<double>(v));
}

std::string f64Literal(double v) {
    if (std::isnan(v)) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return nanLiteral(bits, 52, "");
    }
    if (std::isinf(v)) return v > 0 ? "(1.0/0.0)" : "(-1.0/0.0)";
    return format("%a", v);
}

/// Formats a primitive literal exactly (hex floats and NaN payloads keep
/// bit-identity).
std::string primLiteral(Prim p, int64_t i, double f) {
    switch (p) {
    case Prim::Bool: return i ? "1" : "0";
    case Prim::I32: return format("%d", static_cast<int32_t>(i));
    case Prim::I64: return format("INT64_C(%lld)", static_cast<long long>(i));
    case Prim::F32: return f32Literal(static_cast<float>(f));
    case Prim::F64: return f64Literal(f);
    }
    return "0";
}

/// The exact literal of a primitive given by its Value::bits().
std::string primLiteralOf(Prim p, int64_t bits) {
    // Straight from the bits: a detour through double would quieten a
    // signaling NaN.
    if (p == Prim::F32) return f32Literal(Value::ofBits(p, bits).asF32());
    if (p == Prim::F64) return f64Literal(Value::ofBits(p, bits).asF64());
    return primLiteral(p, bits, 0);
}

/// Indented line collector for one C function body.
class Emitter {
public:
    explicit Emitter(int indent = 1) : indent_(indent) {}
    void line(const std::string& s) {
        text_ += std::string(static_cast<size_t>(indent_) * 2, ' ') + s + "\n";
    }
    void open(const std::string& s) { line(s); ++indent_; }
    void close(const std::string& s = "}") { --indent_; line(s); }
    /// Prints at the enclosing level without changing depth ("} else {").
    void mid(const std::string& s) {
        --indent_;
        line(s);
        ++indent_;
    }
    /// Splices pre-formatted text produced by a sub-emitter started at this
    /// emitter's current indent.
    void splice(const Emitter& sub) { text_ += sub.text(); }
    int indent() const noexcept { return indent_; }
    const std::string& text() const noexcept { return text_; }

private:
    std::string text_;
    int indent_ = 1;
};

class CodeGen {
public:
    explicit CodeGen(const Program& prog) : prog_(prog), shapes_(prog) {}

    /// Bounds-guard policy: Unproven guards the accesses the interval
    /// analysis could not prove safe (`safety` holds its verdicts).
    void setBounds(TranslateOptions::Bounds mode,
                   const std::map<const void*, analysis::Safety>* safety) {
        boundsMode_ = mode;
        safety_ = safety;
    }

    /// Loop-parallelization verdicts (keyed by ForStmt address). When set,
    /// host loops proven Parallel/CondParallel are outlined into a chunk
    /// function dispatched through wjrt_parallel_for.
    void setParallel(const std::map<const void*, analysis::LoopParallel>* verdicts) {
        parLoops_ = verdicts;
    }

    /// SIMD verdicts of the proveVectors pass (keyed by ForStmt address).
    /// When set (WJ_SIMD=1), innermost host loops proven Vectorizable get
    /// restrict-qualified element pointers and a `#pragma omp simd` line —
    /// inside chunk functions and on the serial path alike; CondVectorizable
    /// loops additionally get a wjrt_ranges_disjoint runtime guard with the
    /// scalar loop as the else branch. Loops with periodic-wrap verdicts run
    /// as peeled simd ranges on the serial path (genPeeledSimdFor).
    void setSimd(const std::map<const void*, analysis::LoopVector>* verdicts) {
        vecLoops_ = verdicts;
    }

    /// AoS→SoA layout verdicts of the proveLayout pass (keyed by element
    /// class name). When set (WJ_SOA=1), arrays of Inline-verdict classes
    /// are stored as packed per-field lane regions instead of arrays of
    /// structs: allocation goes through wjrt_alloc_soa, `a[i].f` reads load
    /// straight from field f's region, and whole-element stores `a[i] =
    /// new C(...)` scatter one store per field — the struct element is
    /// never materialized. Boxed (and boundary-crossing) classes keep the
    /// AoS struct layout; the pass guarantees Inline classes have no use
    /// that could observe the difference.
    void setSoa(const std::map<std::string, analysis::ClassLayout>* layouts) {
        soaLayouts_ = layouts;
    }

    /// The entry method body the fusion pass rewrote (analysis/fusion.h),
    /// emitted in place of the source body; null keeps the source.
    void setEntryBody(const Method* body) { entryBody_ = body; }

    Translation run(const GraphSnapshot& snap, const std::string& method);

private:
    // ---- value being generated: a C expression + exact shape.
    struct CVal {
        std::string text;      // object values: pointer expression
        const Shape* shape = nullptr;
        bool simple = false;   // safe to duplicate textually (no side effects)
    };

    /// One generated C function: a (class, method, shapes, device?) key.
    struct Spec {
        std::string fnName;
        std::string thunkName;       // kernels only
        const ClassDecl* owner = nullptr;
        const Method* method = nullptr;
        const Shape* recv = nullptr; // null for statics
        std::vector<const Shape*> args;
        bool device = false;
        bool usesSync = false;       // kernel/device: reaches syncthreads
        bool done = false;
    };

    struct Env {
        std::map<std::string, CVal> vars;
        CVal self;
        bool hasThis = false;
        bool device = false;
        Spec* spec = nullptr;
        Emitter* em = nullptr;
    };

    // ---- structs / types
    const std::string& structFor(const Shape* s);
    std::string cTypeVal(const Shape* s);   // value position (members, returns)
    std::string cTypeParam(const Shape* s); // parameter position (objects by pointer)

    // ---- specialization
    Spec& specialize(const ClassDecl& owner, const Method& m, const Shape* recv,
                     std::vector<const Shape*> argShapes, bool device);
    void emitBody(Spec& spec);

    // ---- expression / statement generation
    CVal genExpr(Env& env, const Expr& e);
    CVal genNew(Env& env, const NewExpr& n);
    CVal genCall(Env& env, const CallExpr& n);
    CVal genIntrinsic(Env& env, const IntrinsicExpr& n);
    void genLaunch(Env& env, const CallExpr& n, const ClassDecl& owner, const Method& m,
                   const CVal& recv);
    void genStmts(Env& env, const Block& b);
    void genStmt(Env& env, const Stmt& s);
    void genSerialFor(Env& env, const ForStmt& n);
    void genSimdFor(Env& env, const ForStmt& n, const analysis::LoopVector& lv);
    void genPeeledSimdFor(Env& env, const ForStmt& n, const analysis::LoopVector& lv,
                          const Expr& boundE);
    void genParallelFor(Env& env, const ForStmt& n, const analysis::LoopParallel& lp);
    void genParallelReduce(Env& env, const ForStmt& n, const analysis::LoopParallel& lp);
    /// SIMD verdict usable in this emission context, or null. Resolves the
    /// overlap-guard pair names and reduction accumulators against `env`; a
    /// name out of scope means the proof context does not match here.
    const analysis::LoopVector* simdVerdict(Env& env, const ForStmt& n) const;
    /// Hoists `elem* restrict` pointers for the prim-element array locals
    /// the loop body accesses and routes their element accesses through the
    /// pointers (simdPtrs_). Returns the names to erase afterwards.
    std::vector<std::string> hoistSimdPtrs(Env& env, const ForStmt& n);
    void dropSimdPtrs(const std::vector<std::string>& keys) {
        for (const std::string& k : keys) simdPtrs_.erase(k);
    }
    /// Runtime range-disjointness guard for a CondVectorizable loop ("" when
    /// unconditional). Only call after simdVerdict() accepted the context.
    std::string simdGuard(Env& env, const analysis::LoopVector& lv);
    /// `reduction(op:var)` clauses for the pragma ("" when no reductions).
    std::string simdRedClause(Env& env, const analysis::LoopVector& lv);
    void inlineCtor(Env& env, const std::string& var, const ClassDecl& cls,
                    std::vector<CVal> argVals,
                    std::map<std::string, const Shape*>& fieldShapes);
    CVal materialize(Env& env, CVal v);
    std::string freshTmp() { return format("t%d", tmpCount_++); }
    /// What an outlined loop body needs from the enclosing frame: `self`
    /// when the body uses `this`, then every in-scope local it names (in
    /// name order), minus `skip`.
    std::vector<std::pair<std::string, const Shape*>> captures(
        const Env& env, const ForStmt& n, const std::set<std::string>& skip) const;

    // ---- statics
    std::string staticRef(const std::string& cls, const std::string& field);

    // ---- entry
    void genEntry(const GraphSnapshot& snap, const std::string& method);
    void emitGraphInit(Emitter& em, const std::string& prefix, const Shape* shape,
                       const GraphSnapshot& snap, uint32_t id);

    const Program& prog_;
    ShapeTable shapes_;

    std::string structs_, protos_, fns_, entry_;
    std::map<std::string, std::string> structNames_;
    std::map<std::string, Spec> specs_;
    std::set<std::string> staticsEmitted_;
    std::string staticsSection_;
    int structCount_ = 0;
    int tmpCount_ = 0;
    int fnCount_ = 0;
    TranslateOptions::Bounds boundsMode_ = TranslateOptions::Bounds::Off;
    const std::map<const void*, analysis::Safety>* safety_ = nullptr;
    const std::map<const void*, analysis::LoopParallel>* parLoops_ = nullptr;
    const std::map<const void*, analysis::LoopVector>* vecLoops_ = nullptr;
    const std::map<std::string, analysis::ClassLayout>* soaLayouts_ = nullptr;
    const Method* entryBody_ = nullptr;
    /// Element classes whose arrays this translation actually allocated SoA.
    std::set<std::string> soaUsed_;
    /// Active restrict-pointer substitutions: array CVal text -> hoisted
    /// element pointer. Consulted by the ArrayGet/ArraySet emission so simd
    /// loop bodies index through the restrict pointers. SoA field regions
    /// use the key `<array text>#<field>` (prim-element arrays use the bare
    /// text, so the key spaces cannot collide). Vector verdicts only exist
    /// for innermost loops, so substitutions never nest.
    std::map<std::string, std::string> simdPtrs_;
    /// Active periodic-wrap lowering inside a peeled simd loop: the
    /// verdict's wrap nodes and the C text genExpr emits for each instead
    /// of its `%` (see genPeeledSimdFor).
    const std::map<const void*, std::string>* simdWraps_ = nullptr;
    int peelCount_ = 0;
    int pfCount_ = 0;
    Translation out_;

    /// SoA layout for an array shape's element class, or null when the
    /// array must stay AoS (no layouts set, prim/escaping element class).
    /// Only Inline verdicts qualify — CondInline is a lint presentation.
    const analysis::ClassLayout* soaLayoutOfClass(const std::string& cls) const {
        if (!soaLayouts_) return nullptr;
        auto it = soaLayouts_->find(cls);
        if (it == soaLayouts_->end()) return nullptr;
        if (it->second.verdict != analysis::LayoutVerdict::Inline) return nullptr;
        return &it->second;
    }
    const analysis::ClassLayout* soaLayout(const Shape* s) const {
        if (!s->isArray()) return nullptr;
        const Type& elem = s->arrayElem();
        if (!elem.isClass()) return nullptr;
        return soaLayoutOfClass(elem.className());
    }

    /// Lane access for one field of an SoA array: through the hoisted
    /// restrict pointer inside a simd loop, the packed region cast
    /// elsewhere. Field k's region starts len*pre bytes into the payload
    /// (fields are size-sorted upstream, so every region is aligned). The
    /// caller must pass a materialized `a` — the region form names it twice.
    std::string soaAccess(const CVal& a, const analysis::SoaField& f,
                          const std::string& idx) const {
        auto it = simdPtrs_.find(a.text + "#" + f.name);
        if (it != simdPtrs_.end()) return it->second + "[" + idx + "]";
        return "((" + std::string(primCName(f.prim)) + "*)" + soaRegion(a.text, f) + ")[" + idx +
               "]";
    }
    /// The raw `void*`-ish region base expression (no cast) for field f.
    static std::string soaRegion(const std::string& arr, const analysis::SoaField& f) {
        if (f.pre == 0) return "wj_array_data(" + arr + ")";
        return "((char*)wj_array_data(" + arr + ") + (size_t)(" + arr + ")->len * " +
               std::to_string(f.pre) + ")";
    }

    /// Element access for a prim-element array: through the hoisted restrict
    /// pointer inside a simd loop, the raw payload cast elsewhere.
    std::string elemAccess(const CVal& a, Prim elem, const std::string& idx) const {
        auto it = simdPtrs_.find(a.text);
        if (it != simdPtrs_.end()) return it->second + "[" + idx + "]";
        return "((" + std::string(primCName(elem)) + "*)wj_array_data(" + a.text + "))[" + idx +
               "]";
    }

    /// Index expression for an array access, wrapped in a wj_chk guard when
    /// the policy asks for one. Guarding materializes `a` and `i` first:
    /// the guard macro mentions the array twice and must not re-evaluate a
    /// side-effecting operand. Device code is never guarded — wjrt_trap
    /// unwinds with a C++ exception, which must not cross the simulated
    /// kernel's thread boundary.
    std::string indexExpr(Env& env, CVal& a, CVal& i, const void* site) {
        bool guard = false;
        if (!env.device && boundsMode_ != TranslateOptions::Bounds::Off) {
            if (boundsMode_ == TranslateOptions::Bounds::All || !safety_) {
                guard = true;
            } else {
                auto it = safety_->find(site);
                guard = it == safety_->end() || it->second != analysis::Safety::Safe;
                if (!guard) ++out_.boundsElided;
            }
        }
        if (!guard) return i.text;
        a = materialize(env, a);
        i = materialize(env, i);
        ++out_.boundsGuards;
        return "wj_chk(" + a.text + ", (int64_t)(" + i.text + "))";
    }
};

// ------------------------------------------------------------ types/structs

const std::string& CodeGen::structFor(const Shape* s) {
    auto it = structNames_.find(s->key());
    if (it != structNames_.end()) return it->second;
    // Emit dependencies (nested object members) first.
    for (const auto& [name, fs] : s->fields()) {
        if (fs->isObject()) structFor(fs);
    }
    std::string name = format("S%d_%s", structCount_++, mangle(s->cls().name).c_str());
    std::string def = "/* inlined object: " + s->key() + " */\n";
    def += "typedef struct " + name + " {\n";
    if (s->fields().empty()) {
        def += "  int32_t wj_empty; /* C requires one member */\n";
    }
    for (const auto& [fname, fs] : s->fields()) {
        def += "  " + cTypeVal(fs) + " f_" + fname + ";\n";
    }
    def += "} " + name + ";\n";
    structs_ += def;
    return structNames_.emplace(s->key(), std::move(name)).first->second;
}

std::string CodeGen::cTypeVal(const Shape* s) {
    switch (s->kind()) {
    case Shape::Kind::Prim: return primCName(s->prim());
    case Shape::Kind::Array: return "wj_array*";
    case Shape::Kind::Object: return structFor(s);
    }
    return "void";
}

std::string CodeGen::cTypeParam(const Shape* s) {
    if (s->isObject()) return structFor(s) + "*";
    return cTypeVal(s);
}

// ------------------------------------------------------------ specialization

CodeGen::Spec& CodeGen::specialize(const ClassDecl& owner, const Method& m, const Shape* recv,
                                   std::vector<const Shape*> argShapes, bool device) {
    std::string key = owner.name + "." + m.name + "|" + (recv ? recv->key() : "static") + "|";
    for (const Shape* a : argShapes) key += a->key() + ",";
    key += device ? "D" : "H";

    auto it = specs_.find(key);
    if (it != specs_.end()) {
        if (!it->second.done) {
            // Rule 6 forbids recursion, and requireCodingRules runs before
            // translation, so this is an internal inconsistency.
            xerr("recursive specialization of " + owner.name + "." + m.name);
        }
        return it->second;
    }
    Spec& spec = specs_[key];
    spec.fnName = format("wj_f%d_%s_%s", fnCount_++, mangle(owner.name).c_str(),
                         mangle(m.name).c_str());
    spec.owner = &owner;
    spec.method = &m;
    spec.recv = recv;
    spec.args = std::move(argShapes);
    spec.device = device || m.isGlobal;
    emitBody(spec);
    spec.done = true;
    ++out_.specializations;
    return spec;
}

void CodeGen::emitBody(Spec& spec) {
    const Method& m = *spec.method;
    // @Global: the CudaConfig parameter disappears; the kernel gets the
    // thread context instead (Listing 4 -> Listing 5 in the paper).
    size_t firstParam = m.isGlobal ? 1 : 0;
    if (m.isGlobal && spec.args.size() != m.params.size() - 1) {
        xerr("kernel argument shape count mismatch for " + m.name);
    }
    if (!m.isGlobal && spec.args.size() != m.params.size()) {
        xerr("argument shape count mismatch for " + m.name);
    }

    const Shape* retShape = m.ret.isVoid() ? nullptr : shapes_.ofType(m.ret);
    std::string sig = (retShape ? cTypeVal(retShape) : std::string("void")) + " " + spec.fnName + "(";
    std::vector<std::string> ps;
    if (spec.device) ps.push_back("wjrt_gpu_tctx* __wjt");
    if (spec.recv) ps.push_back(structFor(spec.recv) + "* self");
    for (size_t i = firstParam; i < m.params.size(); ++i) {
        const Shape* as = spec.args[i - firstParam];
        ps.push_back(cTypeParam(as) + " v_" + m.params[i].name);
    }
    if (ps.empty()) ps.push_back("void");
    sig += join(ps, ", ") + ")";

    protos_ += "static " + sig + ";\n";

    Emitter em;
    Env env;
    env.em = &em;
    env.spec = &spec;
    env.device = spec.device;
    if (spec.recv) {
        env.hasThis = true;
        env.self = {"self", spec.recv, true};
    }
    for (size_t i = firstParam; i < m.params.size(); ++i) {
        env.vars["@p:" + m.params[i].name] = {};  // marker: reserved
        env.vars[m.params[i].name] = {"v_" + m.params[i].name, spec.args[i - firstParam], true};
    }
    genStmts(env, m.body);

    fns_ += "static " + sig + " {\n" + em.text();
    if (m.ret.isVoid()) {
        fns_ += "}\n\n";
    } else {
        // Unreachable fallthrough guard (WJ requires a return on all paths;
        // the C compiler cannot always prove it).
        fns_ += "  wjrt_trap(\"missing return in " + m.name + "\");\n";
        const Shape* rs = shapes_.ofType(m.ret);
        if (rs->isObject()) {
            fns_ += "  { " + structFor(rs) + " z; memset(&z, 0, sizeof z); return z; }\n";
        } else if (rs->isArray()) {
            fns_ += "  return 0;\n";
        } else {
            fns_ += "  return 0;\n";
        }
        fns_ += "}\n\n";
    }
}

// ------------------------------------------------------------------- stmts

void CodeGen::genStmts(Env& env, const Block& b) {
    for (const auto& st : b) genStmt(env, *st);
}

void CodeGen::genStmt(Env& env, const Stmt& s) {
    Emitter& em = *env.em;
    switch (s.kind) {
    case StmtKind::Decl: {
        const auto& n = as<DeclStmt>(s);
        const Shape* uShape = shapes_.ofType(n.type);
        if (!n.init) {
            // Uninitialized prim/array local (definite assignment guarantees
            // every read is dominated by a store); zero-init keeps the C
            // well-defined regardless.
            if (uShape->isObject()) xerr("object local '" + n.name + "' lacks an initializer");
            em.line(cTypeVal(uShape) + " v_" + n.name + " = 0;");
            env.vars[n.name] = {"v_" + n.name, uShape, true};
            return;
        }
        CVal v = genExpr(env, *n.init);
        const Shape* declShape = shapes_.ofType(n.type);  // strict-final (rule 2)
        if (declShape->isObject()) {
            if (v.shape != declShape) {
                xerr("object local '" + n.name + "' initialized with shape " + v.shape->key() +
                     " != declared " + declShape->key());
            }
            em.line(structFor(declShape) + "* v_" + n.name + " = " + v.text + ";");
        } else {
            em.line(cTypeVal(declShape) + " v_" + n.name + " = " + v.text + ";");
        }
        env.vars[n.name] = {"v_" + n.name, declShape, true};
        return;
    }
    case StmtKind::AssignLocal: {
        const auto& n = as<AssignLocalStmt>(s);
        auto it = env.vars.find(n.name);
        if (it == env.vars.end()) xerr("undeclared local " + n.name);
        CVal v = genExpr(env, *n.value);
        em.line(it->second.text + " = " + v.text + ";");
        return;
    }
    case StmtKind::FieldSet: {
        const auto& n = as<FieldSetStmt>(s);
        CVal obj = genExpr(env, *n.obj);
        const Field* declF = prog_.resolveField(obj.shape->cls().name, n.field);
        if (declF && declF->isShared) {
            xerr("@Shared field ." + n.field + " cannot be reassigned (it names the block's "
                 "shared memory, not an object slot)");
        }
        const Shape* fs = obj.shape->field(n.field);
        CVal v = genExpr(env, *n.value);
        if (fs->isObject()) {
            em.line(obj.text + "->f_" + n.field + " = *" + v.text + ";");
        } else {
            em.line(obj.text + "->f_" + n.field + " = " + v.text + ";");
        }
        return;
    }
    case StmtKind::ArraySet: {
        const auto& n = as<ArraySetStmt>(s);
        CVal a = genExpr(env, *n.arr);
        if (const analysis::ClassLayout* cl = soaLayout(a.shape)) {
            // SoA store `a[i] = new C(...)`: one scatter per field. The
            // layout pass proved the value is a fresh `new C(...)`, so the
            // inlined constructor object feeds the lanes and dies. Source
            // evaluation order (array, index, value) is preserved, and the
            // index — which may carry a wj_chk guard — is materialized once
            // so the guard cannot re-trap per field.
            a = materialize(env, a);
            CVal i = genExpr(env, *n.idx);
            std::string idx = indexExpr(env, a, i, &n);
            if (!i.simple || idx != i.text) {
                std::string t = freshTmp();
                em.line("int64_t " + t + " = (int64_t)(" + idx + ");");
                idx = t;
            }
            CVal v = materialize(env, genExpr(env, *n.value));
            for (const auto& f : cl->fields) {
                em.line(soaAccess(a, f, idx) + " = " + v.text + "->f_" + f.name + ";");
            }
            return;
        }
        CVal i = genExpr(env, *n.idx);
        const std::string idx = indexExpr(env, a, i, &n);
        CVal v = genExpr(env, *n.value);
        const Type& elem = a.shape->arrayElem();
        if (elem.isClass()) {
            const Shape* es = shapes_.ofType(elem);
            em.line("((" + structFor(es) + "*)wj_array_data(" + a.text + "))[" + idx +
                    "] = *" + v.text + ";");
        } else {
            em.line(elemAccess(a, elem.prim(), idx) + " = " + v.text + ";");
        }
        return;
    }
    case StmtKind::If: {
        const auto& n = as<IfStmt>(s);
        CVal c = genExpr(env, *n.cond);
        auto saved = env.vars;
        em.open("if (" + c.text + ") {");
        genStmts(env, n.thenB);
        env.vars = saved;
        if (!n.elseB.empty()) {
            em.mid("} else {");
            genStmts(env, n.elseB);
            env.vars = saved;
        }
        em.close();
        return;
    }
    case StmtKind::While: {
        const auto& n = as<WhileStmt>(s);
        CVal c = genExpr(env, *n.cond);
        auto saved = env.vars;
        em.open("while (" + c.text + ") {");
        genStmts(env, n.body);
        env.vars = saved;
        em.close();
        return;
    }
    case StmtKind::For: {
        const auto& n = as<ForStmt>(s);
        if (parLoops_ && !env.device) {
            auto it = parLoops_->find(&n);
            if (it != parLoops_->end() && it->second.verdict != analysis::ParVerdict::Serial) {
                if (it->second.verdict == analysis::ParVerdict::ParallelReduce) {
                    genParallelReduce(env, n, it->second);
                } else {
                    genParallelFor(env, n, it->second);
                }
                return;
            }
        }
        if (const analysis::LoopVector* lv = simdVerdict(env, n)) {
            genSimdFor(env, n, *lv);
            return;
        }
        genSerialFor(env, n);
        return;
    }
    case StmtKind::Return: {
        const auto& n = as<ReturnStmt>(s);
        if (!n.value) {
            em.line("return;");
            return;
        }
        CVal v = genExpr(env, *n.value);
        if (v.shape->isObject()) {
            em.line("return *" + v.text + ";");
        } else {
            em.line("return " + v.text + ";");
        }
        return;
    }
    case StmtKind::ExprStmt: {
        CVal v = genExpr(env, *as<ExprStmt>(s).e);
        if (!v.text.empty()) em.line("(void)(" + v.text + ");");
        return;
    }
    case StmtKind::SuperCtor:
        xerr("super(...) outside constructor inlining");
    }
}

void CodeGen::genSerialFor(Env& env, const ForStmt& n) {
    Emitter& em = *env.em;
    auto saved = env.vars;
    CVal init = genExpr(env, *n.init);
    const Shape* vs = shapes_.ofType(n.varType);
    if (vs->isObject()) xerr("object-typed loop variables are not supported");
    env.vars[n.var] = {"v_" + n.var, vs, true};
    CVal cond = genExpr(env, *n.cond);
    CVal step = genExpr(env, *n.step);
    em.open("for (" + cTypeVal(vs) + " v_" + n.var + " = " + init.text + "; " + cond.text +
            "; v_" + n.var + " = " + step.text + ") {");
    genStmts(env, n.body);
    env.vars = saved;
    em.close();
}

namespace {

/// Expressions used as the array operand of an element access anywhere
/// under the node — the restrict-hoisting candidates of a simd loop
/// (locals and stable field-load chains like `this.cur`). Skipping a base
/// here only forgoes its hoist, never correctness: unhoisted accesses keep
/// the wj_array_data form. In source order.
void arrayBasesBlock(const Block& b, std::vector<const Expr*>& out) {
    visitBlock(
        b,
        [&](const Expr& e) {
            if (e.kind == ExprKind::ArrayGet) out.push_back(as<ArrayGetExpr>(e).arr.get());
        },
        [&](const Stmt& s) {
            if (s.kind == StmtKind::ArraySet) out.push_back(as<ArraySetStmt>(s).arr.get());
        });
}

/// Identifier-shaped C text — the only thing the restrict hoist and the
/// range guard may mention (locals and unpacked captures always are).
bool isIdentText(const std::string& s) {
    if (s.empty()) return false;
    for (char c : s) {
        if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
    }
    return true;
}

} // namespace

std::vector<std::pair<std::string, const Shape*>> CodeGen::captures(
    const Env& env, const ForStmt& n, const std::set<std::string>& skip) const {
    std::set<std::string> named;
    bool usesThis = false;
    visitBlock(n.body, [&](const Expr& e) {
        if (e.kind == ExprKind::Local) named.insert(as<LocalExpr>(e).name);
        usesThis = usesThis || e.kind == ExprKind::This;
    });
    std::vector<std::pair<std::string, const Shape*>> caps;
    if (env.hasThis && usesThis) caps.emplace_back(env.self.text, env.self.shape);
    for (const auto& [name, cv] : env.vars) {
        if (cv.text.empty() || !named.count(name) || skip.count(name)) continue;
        caps.emplace_back(cv.text, cv.shape);
    }
    return caps;
}

// Outlines a proven loop body into `static void wj_pfbN(lo, hi, ctx)` and
// replaces the loop with a wjrt_parallel_for dispatch over [init, bound).
// Every in-scope local the body names (and `self`, when used) is packed by
// value into a capture struct: the analysis guarantees the body only reads
// them, and array/object captures are pointers into the caller's frame. CondParallel loops get a
// runtime pointer-inequality guard with the serial loop as the else-branch,
// so aliased calls (e.g. multiplyAcc(c, c, c)) keep exact serial semantics.
void CodeGen::genParallelFor(Env& env, const ForStmt& n, const analysis::LoopParallel& lp) {
    Emitter& em = *env.em;
    const Shape* vs = shapes_.ofType(n.varType);

    // Re-derive the bound from the proven shape `for (v = init; v < bound;
    // v = v + 1)`; anything unexpected falls back to the serial loop.
    const auto* condB = n.cond->kind == ExprKind::Binary ? &as<BinaryExpr>(*n.cond) : nullptr;
    if (vs->isObject() || !condB || condB->op != BinOp::Lt ||
        condB->l->kind != ExprKind::Local || as<LocalExpr>(*condB->l).name != n.var ||
        hasEffects(*n.init) || hasEffects(*condB->r)) {
        genSerialFor(env, n);
        return;
    }
    const Expr& boundE = *condB->r;

    // CondParallel: build the pointer-distinctness guard from the verdict's
    // local-name pairs; a name out of scope means the proof context does not
    // match this emission context, so stay serial.
    std::string guard;
    for (const auto& [a, b] : lp.neqPairs) {
        auto ia = env.vars.find(a);
        auto ib = env.vars.find(b);
        if (ia == env.vars.end() || ib == env.vars.end()) {
            genSerialFor(env, n);
            return;
        }
        if (!guard.empty()) guard += " && ";
        guard += ia->second.text + " != " + ib->second.text;
    }

    const int id = pfCount_++;
    const std::string sname = format("wj_pfc%d", id);
    const std::string fnName = format("wj_pfb%d", id);

    // ---- capture struct: the receiver and the in-scope locals the body
    // reads.
    const auto caps = captures(env, n, {});
    std::string def = "/* parallel-for captures (loop over " + n.var + ") */\n";
    def += "typedef struct " + sname + " {\n";
    if (caps.empty()) def += "  int32_t wj_empty;\n";
    for (const auto& [txt, sh] : caps) {
        def += "  " + (sh->isObject() ? structFor(sh) + "*" : cTypeVal(sh)) + " " + txt + ";\n";
    }
    def += "} " + sname + ";\n";
    structs_ += def;

    protos_ += "static void " + fnName + "(int64_t wj_lo, int64_t wj_hi, void* wj_ctx);\n";

    // ---- chunk function: unpack captures under their original names and
    // run the body for [wj_lo, wj_hi). Identical per-iteration code to the
    // serial loop, so any thread count produces bit-identical results.
    Emitter bem;
    bem.line(sname + "* wj_c = (" + sname + "*)wj_ctx;");
    for (const auto& [txt, sh] : caps) {
        bem.line((sh->isObject() ? structFor(sh) + "*" : cTypeVal(sh)) + " " + txt + " = wj_c->" +
                 txt + ";");
    }
    const std::string vct = cTypeVal(vs);
    {
        Env benv = env;
        benv.em = &bem;
        // Under WJ_SIMD a loop that also carries a vector verdict runs its
        // chunk iterations through `#pragma omp simd` — threads across
        // chunks, lanes within one. The range guard re-checks inside the
        // chunk function; the scalar chunk loop is the else-branch.
        // Parallel loops carry no accumulators, and a chunk range is not the
        // peeled iteration space a wrap lowering needs.
        const analysis::LoopVector* lv = simdVerdict(benv, n);
        if (lv && (!lv->reductions.empty() || !lv->wraps.empty())) lv = nullptr;
        benv.vars[n.var] = {"v_" + n.var, vs, true};
        auto emitChunkLoop = [&](bool simd) {
            std::vector<std::string> keys;
            if (simd) {
                keys = hoistSimdPtrs(benv, n);
                bem.line("#pragma omp simd");
            }
            bem.open("for (" + vct + " v_" + n.var + " = (" + vct + ")wj_lo; v_" + n.var +
                     " < (" + vct + ")wj_hi; ++v_" + n.var + ") {");
            genStmts(benv, n.body);
            bem.close();
            dropSimdPtrs(keys);
        };
        if (!lv) {
            emitChunkLoop(false);
        } else {
            const std::string g = simdGuard(benv, *lv);
            if (g.empty()) {
                emitChunkLoop(true);
            } else {
                bem.open("if (" + g + ") {");
                emitChunkLoop(true);
                bem.mid("} else {");
                bem.line("wjrt_simd_fallback();");
                emitChunkLoop(false);
                bem.close();
            }
            ++out_.vectorLoops;
        }
    }
    fns_ += "static void " + fnName + "(int64_t wj_lo, int64_t wj_hi, void* wj_ctx) {\n" +
            bem.text() + "}\n\n";

    // ---- dispatch site
    auto emitDispatch = [&]() {
        CVal init = genExpr(env, *n.init);
        CVal bound = genExpr(env, boundE);
        const std::string cap = format("wj_cap%d", id);
        em.line(sname + " " + cap + ";");
        for (const auto& [txt, sh] : caps) {
            (void)sh;
            em.line(cap + "." + txt + " = " + txt + ";");
        }
        em.line("wjrt_parallel_for((int64_t)(" + init.text + "), (int64_t)(" + bound.text +
                "), " + fnName + ", &" + cap + ");");
    };
    if (guard.empty()) {
        em.open("{");
        emitDispatch();
        em.close();
    } else {
        em.open("if (" + guard + ") {");
        emitDispatch();
        em.mid("} else {");
        em.line("wjrt_guard_fallback();");
        genSerialFor(env, n);
        em.close();
    }
    ++out_.parallelLoops;
}

// Outlines a ParallelReduce loop into `static void wj_rbN(lo, hi, ctx,
// partial)`: the chunk function folds one contiguous iteration range into
// per-chunk partial accumulators seeded with the operator's exact identity
// (-0.0 for +, 1.0 for *, +/-inf for min/max — chosen so `x op identity`
// is bitwise `x`), dispatched through wjrt_parallel_reduce over a fixed
// thread-count-independent chunk grid, and combined here in chunk order
// 0..K-1 replaying the source's operand order / comparison. See wjrt.h for
// the full determinism contract.
void CodeGen::genParallelReduce(Env& env, const ForStmt& n, const analysis::LoopParallel& lp) {
    Emitter& em = *env.em;
    const Shape* vs = shapes_.ofType(n.varType);

    // Re-derive the proven shape, exactly as genParallelFor does.
    const auto* condB = n.cond->kind == ExprKind::Binary ? &as<BinaryExpr>(*n.cond) : nullptr;
    if (vs->isObject() || !condB || condB->op != BinOp::Lt ||
        condB->l->kind != ExprKind::Local || as<LocalExpr>(*condB->l).name != n.var ||
        hasEffects(*n.init) || hasEffects(*condB->r) || lp.reductions.empty()) {
        genSerialFor(env, n);
        return;
    }
    const Expr& boundE = *condB->r;

    // Every accumulator must be a live scalar local here; a missing or
    // non-scalar name means the proof context does not match this emission
    // context, so stay serial.
    std::vector<const CVal*> accs;
    for (const auto& r : lp.reductions) {
        auto it = env.vars.find(r.var);
        if (it == env.vars.end() || it->second.shape->isObject() || it->second.text.empty()) {
            genSerialFor(env, n);
            return;
        }
        accs.push_back(&it->second);
    }

    auto identity = [](const analysis::Reduction& r) -> std::string {
        const bool f32 = r.prim == Prim::F32;
        switch (r.op) {
        case analysis::RedOp::Add: return r.prim == Prim::I64 ? "0" : (f32 ? "-0.0f" : "-0.0");
        case analysis::RedOp::Mul: return r.prim == Prim::I64 ? "1" : (f32 ? "1.0f" : "1.0");
        case analysis::RedOp::Min: return r.prim == Prim::I64 ? "INT64_MAX" : "INFINITY";
        case analysis::RedOp::Max: return r.prim == Prim::I64 ? "INT64_MIN" : "-INFINITY";
        }
        return "0";
    };
    auto cmpOp = [](BinOp op) -> const char* {
        switch (op) {
        case BinOp::Lt: return "<";
        case BinOp::Le: return "<=";
        case BinOp::Gt: return ">";
        case BinOp::Ge: return ">=";
        default: return "<";
        }
    };

    const int id = pfCount_++;
    const std::string sname = format("wj_rcc%d", id);  // capture struct
    const std::string pname = format("wj_rp%d", id);   // partials record
    const std::string fnName = format("wj_rb%d", id);

    // ---- capture struct: the locals the body reads minus the accumulators
    // (chunks fold from the identity; the caller's running value enters only
    // in the ordered combine below), plus the receiver when used.
    std::set<std::string> accNames;
    for (const auto& r : lp.reductions) accNames.insert(r.var);
    const auto caps = captures(env, n, accNames);
    std::string def = "/* parallel-reduce partials + captures (loop over " + n.var + ") */\n";
    def += "typedef struct " + pname + " {\n";
    for (const auto& r : lp.reductions) {
        def += "  " + std::string(primCName(r.prim)) + " m_" + r.var + ";\n";
    }
    def += "} " + pname + ";\n";
    def += "typedef struct " + sname + " {\n";
    if (caps.empty()) def += "  int32_t wj_empty;\n";
    for (const auto& [txt, sh] : caps) {
        def += "  " + (sh->isObject() ? structFor(sh) + "*" : cTypeVal(sh)) + " " + txt + ";\n";
    }
    def += "} " + sname + ";\n";
    structs_ += def;

    protos_ += "static void " + fnName +
               "(int64_t wj_lo, int64_t wj_hi, void* wj_ctx, void* wj_part);\n";

    // ---- chunk function: unpack captures, seed the accumulators with the
    // identity, run the body verbatim for [wj_lo, wj_hi), store partials.
    Emitter bem;
    bem.line(sname + "* wj_c = (" + sname + "*)wj_ctx;");
    for (const auto& [txt, sh] : caps) {
        bem.line((sh->isObject() ? structFor(sh) + "*" : cTypeVal(sh)) + " " + txt + " = wj_c->" +
                 txt + ";");
    }
    for (size_t ri = 0; ri < lp.reductions.size(); ++ri) {
        bem.line(cTypeVal(accs[ri]->shape) + " " + accs[ri]->text + " = " +
                 identity(lp.reductions[ri]) + ";");
    }
    const std::string vct = cTypeVal(vs);
    {
        Env benv = env;
        benv.em = &bem;
        // Exact-operator reductions (min/max any prim, i64 +/*) additionally
        // take a simd reduction clause inside the chunk: lane reassociation
        // cannot change their value, so the chunk partials — and therefore
        // the ordered combine — stay bitwise-stable. f32/f64 +/* never get a
        // vector verdict here (exactReductions gate in simdVerdict), keeping
        // the chunk fold serial and the documented determinism contract.
        // Reduce loops prove guard-free; wrap lowering needs the whole range.
        const analysis::LoopVector* lv = simdVerdict(benv, n);
        if (lv && (!lv->overlapPairs.empty() || !lv->wraps.empty())) lv = nullptr;
        benv.vars[n.var] = {"v_" + n.var, vs, true};
        std::vector<std::string> keys;
        if (lv) {
            keys = hoistSimdPtrs(benv, n);
            bem.line("#pragma omp simd" + simdRedClause(benv, *lv));
            ++out_.vectorLoops;
        }
        bem.open("for (" + vct + " v_" + n.var + " = (" + vct + ")wj_lo; v_" + n.var + " < (" +
                 vct + ")wj_hi; ++v_" + n.var + ") {");
        genStmts(benv, n.body);
        bem.close();
        dropSimdPtrs(keys);
    }
    for (size_t ri = 0; ri < lp.reductions.size(); ++ri) {
        bem.line("((" + pname + "*)wj_part)->m_" + lp.reductions[ri].var + " = " +
                 accs[ri]->text + ";");
    }
    fns_ += "static void " + fnName +
            "(int64_t wj_lo, int64_t wj_hi, void* wj_ctx, void* wj_part) {\n" + bem.text() +
            "}\n\n";

    // ---- dispatch site + ordered combine
    em.open("{");
    CVal init = genExpr(env, *n.init);
    CVal bound = genExpr(env, boundE);
    const std::string cap = format("wj_rcap%d", id);
    em.line(sname + " " + cap + ";");
    for (const auto& [txt, sh] : caps) {
        (void)sh;
        em.line(cap + "." + txt + " = " + txt + ";");
    }
    const std::string parts = format("wj_parts%d", id);
    const std::string k = format("wj_k%d", id);
    const std::string c = format("wj_i%d", id);
    em.line(pname + " " + parts + "[WJRT_REDUCE_MAX_CHUNKS];");
    em.line("int32_t " + k + " = wjrt_parallel_reduce((int64_t)(" + init.text + "), (int64_t)(" +
            bound.text + "), " + fnName + ", &" + cap + ", " + parts + ", (int64_t)sizeof(" +
            pname + "));");
    em.open("for (int32_t " + c + " = 0; " + c + " < " + k + "; ++" + c + ") {");
    for (size_t ri = 0; ri < lp.reductions.size(); ++ri) {
        const analysis::Reduction& r = lp.reductions[ri];
        const std::string accT = accs[ri]->text;
        const std::string p = parts + "[" + c + "].m_" + r.var;
        switch (r.op) {
        case analysis::RedOp::Add:
        case analysis::RedOp::Mul: {
            const std::string op = r.op == analysis::RedOp::Add ? " + " : " * ";
            em.line(accT + " = " + (r.accOnLeft ? accT + op + p : p + op + accT) + ";");
            break;
        }
        case analysis::RedOp::Min:
        case analysis::RedOp::Max: {
            const std::string cond = r.accOnLeft ? accT + " " + cmpOp(r.cmp) + " " + p
                                                 : p + " " + cmpOp(r.cmp) + " " + accT;
            em.line("if (" + cond + ") " + accT + " = " + p + ";");
            break;
        }
        }
    }
    em.close();
    em.close();
    ++out_.reduceLoops;
}

// --------------------------------------------------------------------- simd

// The proveVectors verdict for this loop, or null when the loop must stay
// scalar in THIS emission context: no WJ_SIMD, device code, ScalarOnly,
// inexact (f32/f64 +/*) reductions — which keep the bitwise chunk-serial
// path — or a guard/accumulator name the proof mentions that is not a live
// identifier-shaped local here (proof context mismatch).
const analysis::LoopVector* CodeGen::simdVerdict(Env& env, const ForStmt& n) const {
    if (!vecLoops_ || env.device) return nullptr;
    auto it = vecLoops_->find(static_cast<const void*>(&n));
    if (it == vecLoops_->end()) return nullptr;
    const analysis::LoopVector& lv = it->second;
    if (lv.verdict == analysis::VecVerdict::ScalarOnly) return nullptr;
    if (!lv.exactReductions) return nullptr;
    for (const auto& [a, b] : lv.overlapPairs) {
        auto ia = env.vars.find(a);
        auto ib = env.vars.find(b);
        if (ia == env.vars.end() || ib == env.vars.end() || !isIdentText(ia->second.text) ||
            !isIdentText(ib->second.text)) {
            return nullptr;
        }
    }
    for (const auto& r : lv.reductions) {
        auto ir = env.vars.find(r.var);
        if (ir == env.vars.end() || ir->second.shape->isObject() ||
            !isIdentText(ir->second.text)) {
            return nullptr;
        }
    }
    return &lv;
}

// Byte-range disjointness guard for a CondVectorizable loop; empty for an
// unconditional one. simdVerdict() already resolved every name.
std::string CodeGen::simdGuard(Env& env, const analysis::LoopVector& lv) {
    std::string guard;
    for (const auto& [a, b] : lv.overlapPairs) {
        if (!guard.empty()) guard += " && ";
        guard += "wjrt_ranges_disjoint(" + env.vars.at(a).text + ", " + env.vars.at(b).text + ")";
    }
    return guard;
}

// ` reduction(op:acc)` clauses for the loop's proven reductions. Only exact
// operators reach here (min/max any prim, i64 +/*), so the clause's lane
// reassociation cannot change the result.
std::string CodeGen::simdRedClause(Env& env, const analysis::LoopVector& lv) {
    std::string clause;
    for (const auto& r : lv.reductions) {
        const char* op = "+";
        switch (r.op) {
        case analysis::RedOp::Add: op = "+"; break;
        case analysis::RedOp::Mul: op = "*"; break;
        case analysis::RedOp::Min: op = "min"; break;
        case analysis::RedOp::Max: op = "max"; break;
        }
        clause += std::string(" reduction(") + op + ":" + env.vars.at(r.var).text + ")";
    }
    return clause;
}

namespace {

/// C text mangled into an identifier suffix (`self->f_cur` -> self__f_cur).
std::string identSuffix(const std::string& text) {
    std::string out;
    for (char c : text) {
        out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
    }
    return out;
}

} // namespace

// Hoists `elem* restrict wj_sp_<base> = wj_array_data(<base>)` for every
// prim-element array base the body touches — locals and stable field paths
// alike — and reroutes element accesses through them (elemAccess keys on
// the base's C text). Safe because simdVerdict() established that all
// may-overlapping pairs are covered by the active range guard and everything
// else is statically distinct. Skipping a base (non-simple text, object
// elements) only forgoes its hoist — it keeps the wj_array_data form.
std::vector<std::string> CodeGen::hoistSimdPtrs(Env& env, const ForStmt& n) {
    std::vector<const Expr*> bases;
    arrayBasesBlock(n.body, bases);
    std::vector<std::string> keys;
    // A base qualifies when its genExpr is pure deterministic text (no
    // emitted statements) and its binding cannot change inside a proven-
    // vectorizable body: a live local, `this`, or a field-load chain over
    // those (the prover refuses FieldSet and state-writing callees).
    std::function<bool(const Expr&)> stableBase = [&](const Expr& e) -> bool {
        switch (e.kind) {
        case ExprKind::Local: return env.vars.count(as<LocalExpr>(e).name) != 0;
        case ExprKind::This: return env.hasThis;
        case ExprKind::FieldGet: return stableBase(*as<FieldGetExpr>(e).obj);
        default: return false;
        }
    };
    for (const Expr* be : bases) {
        if (!stableBase(*be)) continue;
        const CVal cv = genExpr(env, *be);
        if (!cv.simple) continue;
        if (!cv.shape->isArray()) continue;
        const Type& elem = cv.shape->arrayElem();
        if (const analysis::ClassLayout* cl = soaLayout(cv.shape)) {
            // SoA array: one restrict pointer per field lane region. The
            // regions of one array never overlap each other (disjoint by
            // construction), and cross-array overlap is covered by the same
            // guard/analysis argument as the prim hoists.
            for (const auto& f : cl->fields) {
                const std::string key = cv.text + "#" + f.name;
                if (simdPtrs_.count(key)) continue;
                const std::string ec = primCName(f.prim);
                const std::string ptr = "wj_sp_" + identSuffix(cv.text) + "_" + f.name;
                env.em->line(ec + "* restrict " + ptr + " = (" + ec + "*)" +
                             soaRegion(cv.text, f) + ";");
                simdPtrs_[key] = ptr;
                keys.push_back(key);
            }
            continue;
        }
        if (elem.isClass()) continue;
        if (simdPtrs_.count(cv.text)) continue;
        const std::string ec = primCName(elem.prim());
        const std::string ptr = "wj_sp_" + identSuffix(cv.text);
        env.em->line(ec + "* restrict " + ptr + " = (" + ec + "*)wj_array_data(" + cv.text +
                     ");");
        simdPtrs_[cv.text] = ptr;
        keys.push_back(cv.text);
    }
    return keys;
}

// Emits a proven-vectorizable loop as `#pragma omp simd` over the serial
// loop shape, with restrict-qualified hoisted element pointers. The pragma
// is only honored under -fopenmp-simd (no OpenMP runtime is linked) and the
// loop never reassociates floats: reduction clauses are restricted to exact
// operators upstream, so the simd body is bitwise-equal to the serial one.
// CondVectorizable loops check the byte-range guard first and fall back to
// the untouched scalar loop (wjrt_simd_fallback feeds the metric).
void CodeGen::genSimdFor(Env& env, const ForStmt& n, const analysis::LoopVector& lv) {
    Emitter& em = *env.em;
    const Shape* vs = shapes_.ofType(n.varType);
    if (vs->isObject()) xerr("object-typed loop variables are not supported");

    // Re-derive the proven shape `for (v = init; v < bound; v = v + 1)`:
    // OpenMP's canonical loop form demands a bare `v < bound; ++v` header
    // (the serial loop's parenthesized cond/step text is rejected under the
    // pragma). Anything unexpected falls back to the serial loop.
    const auto* condB = n.cond->kind == ExprKind::Binary ? &as<BinaryExpr>(*n.cond) : nullptr;
    if (!condB || condB->op != BinOp::Lt || condB->l->kind != ExprKind::Local ||
        as<LocalExpr>(*condB->l).name != n.var) {
        genSerialFor(env, n);
        return;
    }
    if (!lv.wraps.empty()) {
        genPeeledSimdFor(env, n, lv, *condB->r);
        return;
    }

    const std::string guard = simdGuard(env, lv);
    em.open(guard.empty() ? "{" : "if (" + guard + ") {");
    {
        auto saved = env.vars;
        CVal init = genExpr(env, *n.init);
        env.vars[n.var] = {"v_" + n.var, vs, true};
        CVal bound = genExpr(env, *condB->r);
        // Hoists and header operands are materialized BEFORE the pragma so
        // no emitted line separates it from its for-statement.
        const std::vector<std::string> keys = hoistSimdPtrs(env, n);
        em.line("#pragma omp simd" + simdRedClause(env, lv));
        em.open("for (" + cTypeVal(vs) + " v_" + n.var + " = " + init.text + "; v_" + n.var +
                " < " + bound.text + "; ++v_" + n.var + ") {");
        genStmts(env, n.body);
        em.close();
        dropSimdPtrs(keys);
        env.vars = saved;
    }
    if (!guard.empty()) {
        em.mid("} else {");
        em.line("wjrt_simd_fallback();");
        genSerialFor(env, n);
    }
    em.close();
    ++out_.vectorLoops;
}

// A loop whose verdict lowered periodic wraps (analysis::LoopVector::wraps)
// runs as a sequence of ranges over [init, bound), each one `#pragma omp
// simd` loop over the SAME body: the middle range [lo, hi) in one go, every
// other iteration (the peeled head and tail, in source order) as a range of
// its own. A wrap is lowered to `x + c + o`, where o is its correction at
// the range start, `wrap(x0) - (x0 + c)`: 0 on the middle range, where the
// wrap equals x + c, and exact on a one-iteration range. So the body is
// compiled once, the middle range indexes contiguously, and no `idiv` is
// left in the vector body. lo = min(peelLo, bound) and hi = max(lo, bound -
// peelHi) are set only when the runtime guard (overlap pairs, plus `bound
// <= wrapBoundMax` when the interval facts could not exclude numerator
// overflow) holds; otherwise lo = hi = 0 and every iteration is its own
// range, which is the scalar loop. That path may run over overlapping
// arrays, so no restrict pointers are hoisted: `omp simd` alone licenses
// the lanes.
void CodeGen::genPeeledSimdFor(Env& env, const ForStmt& n, const analysis::LoopVector& lv,
                               const Expr& boundE) {
    Emitter& em = *env.em;
    const Shape* vs = shapes_.ofType(n.varType);
    const std::string vct = cTypeVal(vs);
    const std::string var = "v_" + n.var;
    const int id = peelCount_++;
    const std::string lo = format("wj_vlo%d", id), hi = format("wj_vhi%d", id);
    const std::string x0 = format("wj_vx%d", id), x1 = format("wj_vend%d", id);
    em.open("{");
    auto saved = env.vars;
    const CVal init = genExpr(env, *n.init);
    const CVal bound = materialize(env, genExpr(env, boundE));
    const std::string& b = bound.text;
    std::string guard = simdGuard(env, lv);
    if (lv.wrapBoundMax != 0) {
        if (!guard.empty()) guard += " && ";
        guard += "(" + b + " <= " + primLiteral(bound.shape->prim(), lv.wrapBoundMax, 0) + ")";
    }

    // One correction per distinct wrap text (sorted, so the C is stable).
    env.vars[n.var] = {x0, vs, true};
    std::map<std::string, std::pair<int, const Shape*>> atStart;  // wrap(x0) -> c, shape
    std::map<const void*, std::string> startText;
    for (const auto& [node, c] : lv.wraps) {
        const CVal w = genExpr(env, *static_cast<const Expr*>(node));
        atStart.emplace(w.text, std::make_pair(c, w.shape));
        startText[node] = w.text;
    }
    auto plusC = [](const std::string& x, int c) {
        return c == 0 ? x : x + (c < 0 ? " - " : " + ") + std::to_string(std::abs(c));
    };
    std::map<std::string, std::string> offsetVar;
    std::vector<std::string> offsetLines;
    for (const auto& [text, cs] : atStart) {
        const std::string o = format("wj_vo%d_%d", id, static_cast<int>(offsetVar.size()));
        offsetVar[text] = o;
        offsetLines.push_back(cTypeVal(cs.second) + " " + o + " = " + text + " - (" +
                              plusC(x0, cs.first) + ");");
    }
    std::map<const void*, std::string> lowered;
    for (const auto& [node, c] : lv.wraps) {
        lowered[node] = "(" + plusC(var, c) + " + " + offsetVar.at(startText.at(node)) + ")";
    }

    em.line(vct + " " + lo + " = 0, " + hi + " = 0;");
    if (!guard.empty()) em.open("if (" + guard + ") {");
    em.line(lo + " = " + b + " < " + std::to_string(lv.peelLo) + " ? " + b + " : " +
            std::to_string(lv.peelLo) + ";");
    const std::string ph = std::to_string(lv.peelHi);
    em.line(hi + " = " + b + " - " + lo + " > " + ph + " ? " + b + " - " + ph + " : " + lo + ";");
    if (!guard.empty()) {
        em.mid("} else {");
        em.line("wjrt_simd_fallback();");
        em.close();
    }
    em.open("for (" + vct + " " + x0 + " = " + init.text + "; " + x0 + " < " + b + ";) {");
    em.line(vct + " " + x1 + " = " + x0 + " == " + lo + " && " + lo + " < " + hi + " ? " + hi +
            " : " + x0 + " + 1;");
    for (const std::string& l : offsetLines) em.line(l);
    env.vars[n.var] = {var, vs, true};
    em.line("#pragma omp simd" + simdRedClause(env, lv));
    em.open("for (" + vct + " " + var + " = " + x0 + "; " + var + " < " + x1 + "; ++" + var +
            ") {");
    simdWraps_ = &lowered;
    genStmts(env, n.body);
    simdWraps_ = nullptr;
    em.close();
    em.line(x0 + " = " + x1 + ";");
    em.close();
    env.vars = saved;
    em.close();
    ++out_.vectorLoops;
}

// -------------------------------------------------------------------- exprs

CodeGen::CVal CodeGen::materialize(Env& env, CVal v) {
    if (v.simple) return v;
    std::string tmp = freshTmp();
    if (v.shape->isObject()) {
        env.em->line(structFor(v.shape) + "* " + tmp + " = " + v.text + ";");
    } else {
        env.em->line(cTypeVal(v.shape) + " " + tmp + " = " + v.text + ";");
    }
    return {tmp, v.shape, true};
}

CodeGen::CVal CodeGen::genExpr(Env& env, const Expr& e) {
    switch (e.kind) {
    case ExprKind::Const: {
        const auto& n = as<ConstExpr>(e);
        return {primLiteral(n.type.prim(), n.i, n.f), shapes_.ofPrim(n.type.prim()), true};
    }
    case ExprKind::Local: {
        const auto& n = as<LocalExpr>(e);
        auto it = env.vars.find(n.name);
        if (it == env.vars.end()) xerr("undeclared local " + n.name);
        return it->second;
    }
    case ExprKind::This:
        if (!env.hasThis) xerr("'this' in static context");
        return env.self;
    case ExprKind::FieldGet: {
        const auto& n = as<FieldGetExpr>(e);
        CVal obj;
        if (n.obj->kind == ExprKind::ArrayGet) {
            // Element field path `a[i].f` — the one place an SoA element is
            // legally touched. Generate the access here so the SoA case can
            // load straight from field f's lane region without ever forming
            // the struct element; the AoS case reproduces the generic
            // ArrayGet emission below verbatim (same text, same guard site).
            const auto& ag = as<ArrayGetExpr>(*n.obj);
            CVal a = genExpr(env, *ag.arr);
            const analysis::ClassLayout* cl = soaLayout(a.shape);
            if (cl) a = materialize(env, a);
            CVal i = genExpr(env, *ag.idx);
            const std::string idx = indexExpr(env, a, i, &ag);
            if (cl) {
                for (const auto& f : cl->fields) {
                    if (f.name == n.field) {
                        return {soaAccess(a, f, idx), shapes_.ofPrim(f.prim), false};
                    }
                }
                xerr("SoA class " + a.shape->arrayElem().className() + " has no field " +
                     n.field);
            }
            const Type& elem = a.shape->arrayElem();
            if (elem.isClass()) {
                const Shape* es = shapes_.ofType(elem);
                obj = {"(&((" + structFor(es) + "*)wj_array_data(" + a.text + "))[" + idx + "])",
                       es, false};
            } else {
                obj = {elemAccess(a, elem.prim(), idx), shapes_.ofType(elem), false};
            }
        } else {
            obj = genExpr(env, *n.obj);
        }
        const Shape* fs = obj.shape->field(n.field);
        // @Shared fields (paper 3.3, "Other issues"): inside device code the
        // field IS the block's __shared__ buffer; it has no per-object
        // storage and cannot be touched from host code.
        const Field* decl = prog_.resolveField(obj.shape->cls().name, n.field);
        if (decl && decl->isShared) {
            if (!env.device) xerr("@Shared field ." + n.field + " accessed outside device code");
            return {"wjrt_gpu_shared_f32(__wjt)", shapes_.ofArray(decl->type.elem()), false};
        }
        if (fs->isObject()) {
            return {"(&" + obj.text + "->f_" + n.field + ")", fs, obj.simple};
        }
        return {obj.text + "->f_" + n.field, fs, obj.simple};
    }
    case ExprKind::StaticGet: {
        const auto& n = as<StaticGetExpr>(e);
        const StaticField* sf = prog_.resolveStatic(n.cls, n.field);
        if (!sf) xerr(n.cls + " has no static field " + n.field);
        return {staticRef(n.cls, n.field), shapes_.ofType(sf->type), true};
    }
    case ExprKind::ArrayGet: {
        const auto& n = as<ArrayGetExpr>(e);
        CVal a = genExpr(env, *n.arr);
        CVal i = genExpr(env, *n.idx);
        const std::string idx = indexExpr(env, a, i, &n);
        const Type& elem = a.shape->arrayElem();
        if (elem.isClass()) {
            // Bare element reads reach here only outside a field path; for
            // an Inline-verdict class the layout pass proved no such use
            // exists (FieldGet intercepts `a[i].f` before this case).
            if (soaLayout(a.shape)) {
                xerr("whole-element use of SoA-split " + elem.className() +
                     "[] (layout pass inconsistency)");
            }
            const Shape* es = shapes_.ofType(elem);
            return {"(&((" + structFor(es) + "*)wj_array_data(" + a.text + "))[" + idx + "])",
                    es, false};
        }
        return {elemAccess(a, elem.prim(), idx), shapes_.ofType(elem), false};
    }
    case ExprKind::ArrayLen: {
        CVal a = genExpr(env, *as<ArrayLenExpr>(e).arr);
        return {"((int32_t)(" + a.text + ")->len)", shapes_.ofPrim(Prim::I32), a.simple};
    }
    case ExprKind::Unary: {
        const auto& n = as<UnaryExpr>(e);
        CVal v = genExpr(env, *n.e);
        if (n.op == UnOp::Not) return {"(!" + v.text + ")", shapes_.ofPrim(Prim::Bool), v.simple};
        // Space before '-': the operand may itself start with '-' (negative
        // literal), and "--x" is a decrement in C.
        return {"(- " + v.text + ")", v.shape, v.simple};
    }
    case ExprKind::Binary: {
        const auto& n = as<BinaryExpr>(e);
        CVal l = genExpr(env, *n.l);
        if (simdWraps_) {
            auto w = simdWraps_->find(&e);
            if (w != simdWraps_->end()) return {w->second, l.shape, true};
        }
        CVal r = genExpr(env, *n.r);
        const bool simple = l.simple && r.simple;
        const Shape* boolShape = shapes_.ofPrim(Prim::Bool);
        if (isComparison(n.op) || isLogical(n.op)) {
            return {"(" + l.text + " " + binOpName(n.op) + " " + r.text + ")", boolShape, simple};
        }
        if (n.op == BinOp::Rem && l.shape->isPrim() &&
            (l.shape->prim() == Prim::F32 || l.shape->prim() == Prim::F64)) {
            const char* fn = l.shape->prim() == Prim::F32 ? "fmodf" : "fmod";
            return {std::string(fn) + "(" + l.text + ", " + r.text + ")", l.shape, simple};
        }
        if (n.op == BinOp::Shl || n.op == BinOp::Shr) {
            // Java masks the shift count by the operand width.
            const char* mask = l.shape->prim() == Prim::I64 ? "63" : "31";
            return {"(" + l.text + " " + binOpName(n.op) + " (" + r.text + " & " + mask + "))",
                    l.shape, simple};
        }
        return {"(" + l.text + " " + binOpName(n.op) + " " + r.text + ")", l.shape, simple};
    }
    case ExprKind::Cond:
        xerr("conditional operator in translated code (coding rule 7)");
    case ExprKind::Call:
        return genCall(env, as<CallExpr>(e));
    case ExprKind::StaticCall: {
        const auto& n = as<StaticCallExpr>(e);
        const ClassDecl* owner = prog_.methodOwner(n.cls, n.method);
        const Method* m = owner ? owner->ownMethod(n.method) : nullptr;
        if (!m || !m->isStatic) xerr(n.cls + " has no static method " + n.method);
        std::vector<CVal> argVals;
        std::vector<const Shape*> argShapes;
        for (const auto& a : n.args) {
            CVal v = genExpr(env, *a);
            argShapes.push_back(v.shape);
            argVals.push_back(std::move(v));
        }
        Spec& spec = specialize(*owner, *m, nullptr, argShapes, env.device);
        if (env.spec && spec.usesSync) env.spec->usesSync = true;
        std::vector<std::string> texts;
        if (spec.device) texts.push_back("__wjt");
        for (const auto& v : argVals) texts.push_back(v.text);
        std::string callText = spec.fnName + "(" + join(texts, ", ") + ")";
        if (m->ret.isVoid()) {
            env.em->line(callText + ";");
            return {"", nullptr, true};
        }
        const Shape* rs = shapes_.ofType(m->ret);
        if (rs->isObject()) {
            std::string tmp = freshTmp();
            env.em->line(structFor(rs) + " " + tmp + " = " + callText + ";");
            return {"(&" + tmp + ")", rs, true};
        }
        return {callText, rs, false};
    }
    case ExprKind::New:
        return genNew(env, as<NewExpr>(e));
    case ExprKind::NewArray: {
        const auto& n = as<NewArrayExpr>(e);
        CVal len = genExpr(env, *n.len);
        if (n.elem.isClass()) {
            if (const analysis::ClassLayout* cl = soaLayoutOfClass(n.elem.className())) {
                // SoA allocation: elem_size is the PACKED sum of the prim
                // field sizes (no struct padding) — field regions tile the
                // payload exactly, and the zero fill matches the AoS
                // calloc'd default element bit-for-bit.
                ++out_.soaArrays;
                soaUsed_.insert(n.elem.className());
                return {"wjrt_alloc_soa((int64_t)(" + len.text + "), " +
                            format("%d", cl->elemSize) + ")",
                        shapes_.ofArray(n.elem), false};
            }
        }
        std::string elemSize;
        if (n.elem.isClass()) {
            elemSize = "(int32_t)sizeof(" + structFor(shapes_.ofType(n.elem)) + ")";
        } else {
            elemSize = format("%d", primSize(n.elem.prim()));
        }
        return {"wjrt_alloc_array((int64_t)(" + len.text + "), " + elemSize + ")",
                shapes_.ofArray(n.elem), false};
    }
    case ExprKind::Cast: {
        const auto& n = as<CastExpr>(e);
        CVal v = genExpr(env, *n.e);
        if (n.type.isClass()) {
            // Shapes are exact: a cast either trivially succeeds or would
            // always throw; reject the latter at translation time.
            if (!prog_.isSubtypeOf(v.shape->cls().name, n.type.className())) {
                xerr("cast of " + v.shape->cls().name + " to unrelated " + n.type.className());
            }
            return v;
        }
        if (!n.type.isPrim()) return v;
        return {"((" + std::string(primCName(n.type.prim())) + ")" + v.text + ")",
                shapes_.ofPrim(n.type.prim()), v.simple};
    }
    case ExprKind::IntrinsicCall:
        return genIntrinsic(env, as<IntrinsicExpr>(e));
    }
    xerr("unreachable expr kind");
}

CodeGen::CVal CodeGen::genCall(Env& env, const CallExpr& n) {
    CVal recv = genExpr(env, *n.recv);
    if (!recv.shape->isObject()) xerr("call on non-object value");
    const ClassDecl& exact = recv.shape->cls();
    const ClassDecl* owner = prog_.methodOwner(exact.name, n.method);
    const Method* m = owner ? owner->ownMethod(n.method) : nullptr;
    if (!m || m->isAbstract) xerr(exact.name + " has no concrete method " + n.method);

    if (m->isGlobal) {
        recv = materialize(env, recv);
        genLaunch(env, n, *owner, *m, recv);
        return {"", nullptr, true};
    }

    std::vector<CVal> argVals;
    std::vector<const Shape*> argShapes;
    for (const auto& a : n.args) {
        CVal v = genExpr(env, *a);
        argShapes.push_back(v.shape);
        argVals.push_back(std::move(v));
    }
    Spec& spec = specialize(*owner, *m, recv.shape, argShapes, env.device);
    if (env.spec && spec.usesSync) env.spec->usesSync = true;
    ++out_.devirtualizedCalls;

    std::vector<std::string> texts;
    if (spec.device) texts.push_back("__wjt");
    texts.push_back(recv.text);
    for (const auto& v : argVals) texts.push_back(v.text);
    std::string callText = spec.fnName + "(" + join(texts, ", ") + ")";
    if (m->ret.isVoid()) {
        env.em->line(callText + ";");
        return {"", nullptr, true};
    }
    const Shape* rs = shapes_.ofType(m->ret);
    if (rs->isObject()) {
        std::string tmp = freshTmp();
        env.em->line(structFor(rs) + " " + tmp + " = " + callText + ";");
        return {"(&" + tmp + ")", rs, true};
    }
    return {callText, rs, false};
}

void CodeGen::genLaunch(Env& env, const CallExpr& n, const ClassDecl& owner, const Method& m,
                        const CVal& recv) {
    if (env.device) xerr("kernel launch from device code");
    if (n.args.empty()) xerr("@Global call without CudaConfig argument");
    CVal cfg = materialize(env, genExpr(env, *n.args[0]));
    if (!cfg.shape->isObject() || cfg.shape->cls().name != Program::cudaConfigClass()) {
        xerr("@Global first argument must be a CudaConfig");
    }

    // Evaluate kernel arguments (everything after the config).
    std::vector<CVal> argVals;
    std::vector<const Shape*> argShapes;
    for (size_t i = 1; i < n.args.size(); ++i) {
        CVal v = genExpr(env, *n.args[i]);
        argShapes.push_back(v.shape);
        argVals.push_back(std::move(v));
    }

    Spec& kspec = specialize(owner, m, recv.shape, argShapes, /*device=*/true);
    ++out_.kernels;
    ++out_.devirtualizedCalls;

    // Packed-argument struct + thunk, once per kernel specialization.
    if (kspec.thunkName.empty()) {
        kspec.thunkName = "KT_" + kspec.fnName;
        std::string ka = "KA_" + kspec.fnName;
        std::string def = "typedef struct " + ka + " {\n";
        def += "  " + structFor(kspec.recv) + " self; /* deep-copied receiver */\n";
        for (size_t i = 0; i < kspec.args.size(); ++i) {
            def += "  " + cTypeVal(kspec.args[i]) + " a" + std::to_string(i) + ";\n";
        }
        def += "} " + ka + ";\n";
        structs_ += def;

        protos_ += "static void " + kspec.thunkName + "(wjrt_gpu_tctx* t, void* p);\n";
        std::string th = "static void " + kspec.thunkName + "(wjrt_gpu_tctx* t, void* p) {\n";
        th += "  " + ka + "* a = (" + ka + "*)p;\n";
        std::vector<std::string> texts{"t", "(&a->self)"};
        for (size_t i = 0; i < kspec.args.size(); ++i) {
            if (kspec.args[i]->isObject()) {
                texts.push_back("(&a->a" + std::to_string(i) + ")");
            } else {
                texts.push_back("a->a" + std::to_string(i));
            }
        }
        th += "  " + kspec.fnName + "(" + join(texts, ", ") + ");\n}\n\n";
        fns_ += th;
    }

    // Launch site: pack (deep copies of object arguments) and go.
    Emitter& em = *env.em;
    std::string ka = "KA_" + kspec.fnName;
    std::string pk = freshTmp();
    em.open("{");
    em.line(ka + " " + pk + ";");
    em.line(pk + ".self = *" + recv.text + ";");
    for (size_t i = 0; i < argVals.size(); ++i) {
        if (kspec.args[i]->isObject()) {
            em.line(pk + ".a" + std::to_string(i) + " = *" + argVals[i].text + ";");
        } else {
            em.line(pk + ".a" + std::to_string(i) + " = " + argVals[i].text + ";");
        }
    }
    em.line("wjrt_gpu_launch(" + kspec.thunkName + ", &" + pk + ", " + cfg.text +
            "->f_grid.f_x, " + cfg.text + "->f_grid.f_y, " + cfg.text + "->f_grid.f_z, " +
            cfg.text + "->f_block.f_x, " + cfg.text + "->f_block.f_y, " + cfg.text +
            "->f_block.f_z, (int64_t)" + cfg.text + "->f_sharedBytes, " +
            (kspec.usesSync ? "1" : "0") + ");");
    em.close();
}

CodeGen::CVal CodeGen::genNew(Env& env, const NewExpr& n) {
    const ClassDecl& cls = prog_.require(n.cls);
    std::vector<CVal> argVals;
    argVals.reserve(n.args.size());
    for (const auto& a : n.args) {
        // Constructor parameters may be referenced several times in the
        // inlined body; pin each argument to a single evaluation.
        argVals.push_back(materialize(env, genExpr(env, *a)));
    }

    std::string var = freshTmp();
    // Collect init lines into a sub-emitter so the struct declaration (whose
    // type name depends on the field shapes the ctor produces) can precede
    // them in the output.
    Emitter sub(env.em->indent());
    Env subEnv = env;
    subEnv.em = &sub;
    std::map<std::string, const Shape*> fieldShapes;
    inlineCtor(subEnv, var, cls, std::move(argVals), fieldShapes);

    // Assemble the shape: ctor-assigned fields take their assigned shape,
    // untouched fields default to their declared (strict-final) type shape.
    std::vector<std::pair<std::string, const Shape*>> fields;
    for (const Field* f : prog_.allFields(cls.name)) {
        auto it = fieldShapes.find(f->name);
        fields.emplace_back(f->name, it != fieldShapes.end() ? it->second
                                                             : shapes_.ofType(f->type));
    }
    const Shape* shape = shapes_.ofObject(cls, std::move(fields));
    ++out_.inlinedObjects;

    // Aggregate zero-init, not memset: a memset() call inside an
    // `#pragma omp simd` body is a memory clobber that defeats the
    // vectorizer, and fresh objects are built inside the hot loops the
    // SoA layout exists to vectorize. `{0}` zeroes identically and SRAs.
    env.em->line(structFor(shape) + " " + var + "_s = {0};");
    env.em->line(structFor(shape) + "* " + var + " = &" + var + "_s;");
    env.em->splice(sub);  // replay the collected constructor body
    return {var, shape, true};
}

void CodeGen::inlineCtor(Env& env, const std::string& var, const ClassDecl& cls,
                         std::vector<CVal> argVals,
                         std::map<std::string, const Shape*>& fieldShapes) {
    const ClassDecl* super = cls.superName.empty() ? nullptr : &prog_.require(cls.superName);
    if (!cls.ctor) {
        if (!argVals.empty()) xerr(cls.name + ": implicit constructor takes no arguments");
        if (super) inlineCtor(env, var, *super, {}, fieldShapes);
        return;
    }
    if (argVals.size() != cls.ctor->params.size()) {
        xerr(cls.name + ".<init>: argument count mismatch");
    }

    Env ctorEnv = env;
    ctorEnv.vars.clear();
    ctorEnv.hasThis = false;  // rules: `this` unavailable in ctor expressions
    for (size_t i = 0; i < argVals.size(); ++i) {
        ctorEnv.vars[cls.ctor->params[i].name] = argVals[i];
    }

    bool explicitSuper =
        !cls.ctor->body.empty() && cls.ctor->body[0]->kind == StmtKind::SuperCtor;
    if (super && !explicitSuper) inlineCtor(env, var, *super, {}, fieldShapes);

    for (const auto& st : cls.ctor->body) {
        switch (st->kind) {
        case StmtKind::SuperCtor: {
            const auto& sc = as<SuperCtorStmt>(*st);
            if (!super) xerr(cls.name + ": super(...) without superclass");
            std::vector<CVal> superArgs;
            for (const auto& a : sc.args) {
                superArgs.push_back(materialize(ctorEnv, genExpr(ctorEnv, *a)));
            }
            inlineCtor(env, var, *super, std::move(superArgs), fieldShapes);
            break;
        }
        case StmtKind::FieldSet: {
            const auto& n = as<FieldSetStmt>(*st);
            if (n.obj->kind != ExprKind::This) xerr(cls.name + ": ctor stores to foreign object");
            CVal v = genExpr(ctorEnv, *n.value);
            if (v.shape->isObject()) {
                ctorEnv.em->line(var + "_s.f_" + n.field + " = *" + v.text + ";");
            } else {
                ctorEnv.em->line(var + "_s.f_" + n.field + " = " + v.text + ";");
            }
            fieldShapes[n.field] = v.shape;
            break;
        }
        case StmtKind::Decl: {
            const auto& n = as<DeclStmt>(*st);
            if (!n.init) xerr(cls.name + ": constructor locals must be initialized");
            CVal v = materialize(ctorEnv, genExpr(ctorEnv, *n.init));
            ctorEnv.vars[n.name] = v;
            break;
        }
        case StmtKind::Return:
            break;  // bare `return;` permitted
        default:
            xerr(cls.name + ": constructor statement violates the coding rules");
        }
    }
}

std::string CodeGen::staticRef(const std::string& cls, const std::string& field) {
    std::string name = "SC_" + mangle(cls) + "_" + mangle(field);
    if (staticsEmitted_.insert(name).second) {
        const StaticField* sf = prog_.resolveStatic(cls, field);
        // "A static field is translated into a set of global variables ...
        // initialized by copying the values of the static field" (paper).
        staticsSection_ += "static const " + std::string(primCName(sf->type.prim())) + " " +
                           name + " = " + primLiteral(sf->type.prim(), sf->i, sf->f) + ";\n";
    }
    return name;
}

CodeGen::CVal CodeGen::genIntrinsic(Env& env, const IntrinsicExpr& n) {
    const IntrinsicSig& sig = intrinsicSig(n.op);
    if (sig.deviceOnly && !env.device) {
        xerr(std::string(sig.name) + " outside @Global/device code");
    }
    if (sig.hostOnly && env.device) {
        xerr(std::string(sig.name) + " inside @Global/device code");
    }
    std::vector<CVal> a;
    a.reserve(n.args.size());
    for (const auto& arg : n.args) a.push_back(genExpr(env, *arg));
    auto t = [&](size_t i) { return a[i].text; };
    auto i32 = [&](std::string s) { return CVal{std::move(s), shapes_.ofPrim(Prim::I32), false}; };
    auto f64 = [&](std::string s) { return CVal{std::move(s), shapes_.ofPrim(Prim::F64), false}; };
    auto f32 = [&](std::string s) { return CVal{std::move(s), shapes_.ofPrim(Prim::F32), false}; };
    auto voidCall = [&](std::string s) {
        env.em->line(s + ";");
        return CVal{"", nullptr, true};
    };
    auto farr = [&](std::string s) {
        return CVal{std::move(s), shapes_.ofArray(Type::f32()), false};
    };

    switch (n.op) {
    case Intrinsic::MpiRank: return i32("wjrt_mpi_rank()");
    case Intrinsic::MpiSize: return i32("wjrt_mpi_size()");
    case Intrinsic::MpiBarrier: return voidCall("wjrt_mpi_barrier()");
    case Intrinsic::MpiSendF32:
        return voidCall("wjrt_mpi_send_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " + t(3) +
                        ", " + t(4) + ")");
    case Intrinsic::MpiRecvF32:
        return voidCall("wjrt_mpi_recv_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " + t(3) +
                        ", " + t(4) + ")");
    case Intrinsic::MpiSendRecvF32:
        return voidCall("wjrt_mpi_sendrecv_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " + t(3) +
                        ", " + t(4) + ", " + t(5) + ", " + t(6) + ", " + t(7) + ")");
    case Intrinsic::MpiBcastF32:
        return voidCall("wjrt_mpi_bcast_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " + t(3) +
                        ")");
    case Intrinsic::MpiAllreduceSumF64: return f64("wjrt_mpi_allreduce_sum_f64(" + t(0) + ")");
    case Intrinsic::MpiAllreduceMaxF64: return f64("wjrt_mpi_allreduce_max_f64(" + t(0) + ")");
    case Intrinsic::MpiIrecvF32:
        return i32("wjrt_mpi_irecv_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " + t(3) +
                   ", " + t(4) + ")");
    case Intrinsic::MpiWait: return voidCall("wjrt_mpi_wait(" + t(0) + ")");

    case Intrinsic::CudaThreadIdxX: return i32("wjrt_gpu_tidx_x(__wjt)");
    case Intrinsic::CudaThreadIdxY: return i32("wjrt_gpu_tidx_y(__wjt)");
    case Intrinsic::CudaThreadIdxZ: return i32("wjrt_gpu_tidx_z(__wjt)");
    case Intrinsic::CudaBlockIdxX: return i32("wjrt_gpu_bidx_x(__wjt)");
    case Intrinsic::CudaBlockIdxY: return i32("wjrt_gpu_bidx_y(__wjt)");
    case Intrinsic::CudaBlockIdxZ: return i32("wjrt_gpu_bidx_z(__wjt)");
    case Intrinsic::CudaBlockDimX: return i32("wjrt_gpu_bdim_x(__wjt)");
    case Intrinsic::CudaBlockDimY: return i32("wjrt_gpu_bdim_y(__wjt)");
    case Intrinsic::CudaBlockDimZ: return i32("wjrt_gpu_bdim_z(__wjt)");
    case Intrinsic::CudaGridDimX: return i32("wjrt_gpu_gdim_x(__wjt)");
    case Intrinsic::CudaGridDimY: return i32("wjrt_gpu_gdim_y(__wjt)");
    case Intrinsic::CudaGridDimZ: return i32("wjrt_gpu_gdim_z(__wjt)");
    case Intrinsic::CudaSyncThreads:
        if (env.spec) env.spec->usesSync = true;
        return voidCall("wjrt_gpu_sync(__wjt)");
    case Intrinsic::CudaSharedF32: return farr("wjrt_gpu_shared_f32(__wjt)");

    case Intrinsic::GpuMallocF32: return farr("wjrt_gpu_alloc_f32(" + t(0) + ")");
    case Intrinsic::GpuFree: return voidCall("wjrt_gpu_free(" + t(0) + ")");
    case Intrinsic::GpuMemcpyH2DF32:
        return voidCall("wjrt_gpu_memcpy_h2d_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ")");
    case Intrinsic::GpuMemcpyD2HF32:
        return voidCall("wjrt_gpu_memcpy_d2h_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ")");
    case Intrinsic::GpuMemcpyH2DOffF32:
        return voidCall("wjrt_gpu_memcpy_h2d_off_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " +
                        t(3) + ", " + t(4) + ")");
    case Intrinsic::GpuMemcpyD2HOffF32:
        return voidCall("wjrt_gpu_memcpy_d2h_off_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " +
                        t(3) + ", " + t(4) + ")");

    case Intrinsic::MathSqrtF64: return f64("sqrt(" + t(0) + ")");
    case Intrinsic::MathFabsF64: return f64("fabs(" + t(0) + ")");
    case Intrinsic::MathExpF64: return f64("exp(" + t(0) + ")");
    case Intrinsic::MathSqrtF32: return f32("sqrtf(" + t(0) + ")");

    case Intrinsic::RngHashF32: return f32("wj_rng_hash_f32(" + t(0) + ", " + t(1) + ")");
    case Intrinsic::FreeArray: return voidCall("wjrt_free_array(" + t(0) + ")");
    case Intrinsic::PrintI64: return voidCall("wjrt_print_i64(" + t(0) + ")");
    case Intrinsic::PrintF64: return voidCall("wjrt_print_f64(" + t(0) + ")");

    case Intrinsic::CkptSaveF32:
        return voidCall("wjrt_ckpt_save_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ", " + t(3) +
                        ")");
    case Intrinsic::CkptLoadF32:
        return i32("wjrt_ckpt_load_f32(" + t(0) + ", " + t(1) + ", " + t(2) + ")");
    }
    xerr("unhandled intrinsic");
}

// -------------------------------------------------------------------- entry

void CodeGen::emitGraphInit(Emitter& em, const std::string& prefix, const Shape* shape,
                            const GraphSnapshot& snap, uint32_t id) {
    // Depth-first over fields; each array's arrs[] index is its snapshot
    // number, which is also its place in invoke()'s marshal.
    for (size_t k = 0; k < shape->fields().size(); ++k) {
        const auto& [name, fs] = shape->fields()[k];
        const GraphSnapshot::Node& fv = snap[snap.field(id, k)];
        const std::string member = prefix + ".f_" + name;
        switch (fs->kind()) {
        case Shape::Kind::Prim:
            em.line(member + " = " + primLiteralOf(fv.prim(), fv.bits) + ";");
            break;
        case Shape::Kind::Array:
            if (fv.kind == GraphSnapshot::Kind::Array) {
                em.line(member + " = arrs[" + std::to_string(fv.slot) + "];");
            } else {
                em.line(member + " = 0; /* null at jit time */");
            }
            break;
        case Shape::Kind::Object:
            emitGraphInit(em, member, fs, snap, snap.field(id, k));
            break;
        }
    }
}

void CodeGen::genEntry(const GraphSnapshot& snap, const std::string& method) {
    const Shape* recvShape = shapes_.ofNode(snap, snap.root(0));
    if (!recvShape->isObject()) xerr("jit receiver must be an object");
    const ClassDecl& exact = recvShape->cls();
    if (!exact.wootinj) {
        xerr(exact.name + " is not annotated @WootinJ and cannot be translated");
    }
    const ClassDecl* owner = prog_.methodOwner(exact.name, method);
    const Method* m = owner ? owner->ownMethod(method) : nullptr;
    if (!m || m->isAbstract) xerr(exact.name + " has no concrete method " + method);
    if (m->isGlobal) xerr("the jit entry method cannot be @Global");
    if (snap.argCount() != m->params.size()) {
        xerr(method + ": expected " + std::to_string(m->params.size()) + " arguments, got " +
             std::to_string(snap.argCount()));
    }
    if (!m->ret.isVoid() && !m->ret.isPrim()) {
        xerr("entry method must return void or a primitive (got " + m->ret.str() + ")");
    }
    out_.entryRet = m->ret;

    // The receiver and object arguments are rebuilt from the snapshot.
    Emitter em;
    auto rebuild = [&](const std::string& var, const Shape* shape, uint32_t id) {
        em.line(structFor(shape) + " " + var + ";");
        em.line("memset(&" + var + ", 0, sizeof " + var + ");");
        emitGraphInit(em, var, shape, snap, id);
    };
    rebuild("self_s", recvShape, snap.root(0));

    // Explicit arguments: primitives from the prims[] table (bit-cast), and
    // arrays from the arrays table.
    std::vector<const Shape*> argShapes;
    std::vector<std::string> argTexts;
    int primIdx = 0;
    for (size_t i = 0; i < snap.argCount(); ++i) {
        const uint32_t av = snap.root(i + 1);
        const Shape* as = shapes_.ofNode(snap, av);
        argShapes.push_back(as);
        switch (as->kind()) {
        case Shape::Kind::Prim: {
            std::string slot = "prims[" + std::to_string(primIdx++) + "]";
            switch (as->prim()) {
            case Prim::Bool: argTexts.push_back("((int32_t)(" + slot + " != 0))"); break;
            case Prim::I32: argTexts.push_back("((int32_t)" + slot + ")"); break;
            case Prim::I64: argTexts.push_back(slot); break;
            case Prim::F32: argTexts.push_back("wj_prim_f32(" + slot + ")"); break;
            case Prim::F64: argTexts.push_back("wj_prim_f64(" + slot + ")"); break;
            }
            break;
        }
        case Shape::Kind::Array:
            argTexts.push_back("arrs[" + std::to_string(snap[av].slot) + "]");
            break;
        case Shape::Kind::Object:
            rebuild(format("arg%zu_s", i), as, av);
            argTexts.push_back(format("(&arg%zu_s)", i));
            break;
        }
    }

    Spec& spec =
        specialize(*owner, entryBody_ ? *entryBody_ : *m, recvShape, argShapes, /*device=*/false);

    std::vector<std::string> callArgs{"(&self_s)"};
    for (auto& t : argTexts) callArgs.push_back(t);
    std::string call = spec.fnName + "(" + join(callArgs, ", ") + ")";
    if (m->ret.isVoid()) {
        em.line(call + ";");
        em.line("return 0;");
    } else {
        switch (m->ret.prim()) {
        case Prim::Bool:
        case Prim::I32: em.line("return (int64_t)(" + call + ");"); break;
        case Prim::I64: em.line("return " + call + ";"); break;
        case Prim::F32: em.line("return wj_bits_f32(" + call + ");"); break;
        case Prim::F64: em.line("return wj_bits_f64(" + call + ");"); break;
        }
    }

    entry_ = "int64_t wj_entry(const int64_t* prims, wj_array** arrs) {\n";
    entry_ += "  (void)prims; (void)arrs;\n";
    entry_ += em.text();
    entry_ += "}\n";
}

Translation CodeGen::run(const GraphSnapshot& snap, const std::string& method) {
    Timer timer;
    out_.entrySymbol = "wj_entry";
    genEntry(snap, method);

    std::string src;
    src += "/* Generated by WootinC (WootinJ reproduction). Do not edit. */\n";
    // Only GCC's own freestanding headers: <string.h> and <math.h> cost cc1
    // several ms per compile. Codegen emits exactly the libc/libm names
    // declared here (the recipe's -Werror=implicit-function-declaration
    // catches a new one); prototypes that match GCC's builtins keep the
    // builtin semantics, so the object code is the same as with the full
    // headers. The module links without libc/libm: these symbols resolve
    // from the host process at dlopen.
    src += "#include <stddef.h>\n#include <stdint.h>\n";
    src += "#include \"wjrt.h\"\n#include \"rng_hash.h\"\n\n";
    src += "void* memset(void*, int, size_t);\n";
    src += "double sqrt(double);\ndouble fabs(double);\ndouble exp(double);\n"
           "double fmod(double, double);\n";
    src += "float sqrtf(float);\nfloat fmodf(float, float);\n";
    src += "#define INFINITY (__builtin_inff())\n\n";
    src += "static inline float wj_prim_f32(int64_t b) { union { uint32_t u; float f; } x; "
           "x.u = (uint32_t)b; return x.f; }\n";
    src += "static inline double wj_prim_f64(int64_t b) { union { uint64_t u; double f; } x; "
           "x.u = (uint64_t)b; return x.f; }\n";
    src += "static inline int64_t wj_bits_f32(float f) { union { uint32_t u; float f; } x; "
           "x.f = f; return (int64_t)x.u; }\n";
    src += "static inline int64_t wj_bits_f64(double d) { union { uint64_t u; double f; } x; "
           "x.f = d; return (int64_t)x.u; }\n";
    if (boundsMode_ != TranslateOptions::Bounds::Off) {
        src += "static inline int64_t wj_chk(wj_array* a, int64_t i) { "
               "if (i < 0 || i >= (int64_t)a->len) wjrt_trap(\"array index out of bounds\"); "
               "return i; }\n";
    }
    src += "\n";
    src += staticsSection_ + "\n";
    src += structs_ + "\n";
    src += protos_ + "\n";
    src += fns_;
    src += entry_;
    out_.cSource = std::move(src);
    out_.soaClasses.assign(soaUsed_.begin(), soaUsed_.end());
    out_.codegenSeconds = timer.seconds();
    return std::move(out_);
}

} // namespace

TranslateOptions TranslateOptions::fromEnv() {
    auto flag = [](const char* name) {
        const char* v = std::getenv(name);
        return v && *v && std::string(v) != "0";
    };
    TranslateOptions o;
    if (flag("WJ_BOUNDS")) {
        const std::string b = std::getenv("WJ_BOUNDS");
        o.bounds = b == "all" || b == "2" ? Bounds::All : Bounds::Unproven;
    }
    o.parallel = flag("WJ_PARALLEL");
    o.simd = flag("WJ_SIMD");
    o.soa = flag("WJ_SOA");
    return o;
}

Translation translate(const Program& prog, const Value& receiver, const std::string& method,
                      const std::vector<Value>& args) {
    return translate(GraphSnapshot(prog, receiver, args), method, TranslateOptions::fromEnv());
}

Translation translate(const GraphSnapshot& snap, const std::string& method,
                      const TranslateOptions& opts) {
    // Parallel outlining and SIMD are translation-time choices baked into
    // the generated C; the worker count (WJ_THREADS) is a pure run-time
    // decision, so the generated code and its cache key are thread-count
    // independent. The prover's SIMD verdicts depend on the SoA layout, so
    // the analysis gets that switch too.
    //
    // The analysis passes are mandatory: translation refuses statically
    // unsound entries (uninit reads, proven out-of-bounds, halo races)
    // regardless of the guard mode. The guard mode only decides what the
    // interval verdicts are *used* for.
    analysis::Result facts =
        opts.parallel ? analysis::analyzeEntryFused(snap, method, opts.simd, opts.soa)
                      : analysis::analyzeEntry(snap, method, nullptr, opts.soa);
    facts.require();

    CodeGen cg(snap.program());
    cg.setBounds(opts.bounds,
                 opts.bounds == TranslateOptions::Bounds::Unproven ? &facts.accessSafety : nullptr);
    if (opts.parallel) {
        cg.setParallel(&facts.loopParallel);
        cg.setEntryBody(facts.fusedEntry.get());
    }
    if (opts.simd) cg.setSimd(&facts.loopVector);
    if (opts.soa) cg.setSoa(&facts.layoutClasses);
    Translation t = cg.run(snap, method);
    t.fusedLoops = facts.fusedLoops;
    t.fusionReport = std::move(facts.fusionReport);
    t.sourceHash = fnv1a64(t.cSource.data(), t.cSource.size());
    return t;
}

} // namespace wj
