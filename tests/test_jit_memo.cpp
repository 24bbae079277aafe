// The Program-owned translation memo (jit/memo.h) and the invokeWith rule
// that rides on it.
//
// Soundness: changing any one part of the key — a primitive field (down to
// the f32 sign of zero and the NaN payload), an array's length, null-ness
// or aliasing, an object's concrete class, an argument, a translation
// switch — must miss, and what jit() then runs must equal a fresh
// translate(). Changing what the key leaves out (primitive array contents,
// the compiler flags) must hit, and still pick the right module.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <list>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "golden.h"
#include "golden_compositions.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/cache.h"
#include "jit/jit.h"
#include "jit/memo.h"
#include "scoped_env.h"
#include "trace/metrics.h"
#include "trace/trace.h"

using namespace wj;
using namespace wj::dsl;
using test::ScopedEnv;

namespace {

int64_t counter(const char* name) { return trace::Metrics::instance().counter(name).value(); }
int64_t memoHits() { return counter("jit.translate.memo.hits"); }
int64_t memoMisses() { return counter("jit.translate.memo.misses"); }

using EnvList = std::vector<std::pair<const char*, const char*>>;

/// Unsets the four translation switches for a test's scope, then sets the
/// given ones.
class Switches {
public:
    explicit Switches(const EnvList& on = {}) {
        for (const char* name : {"WJ_BOUNDS", "WJ_PARALLEL", "WJ_SIMD", "WJ_SOA"}) {
            envs_.emplace_back(name);
        }
        for (const auto& [name, value] : on) envs_.emplace_back(name, value);
    }

private:
    std::list<ScopedEnv> envs_;
};

/// A composition whose every key part is reachable from the translation:
/// primitive fields of each kind, three array fields (one never read), and
/// an interface-typed component with two implementations that share their
/// field names.
Program cfgProgram() {
    ProgramBuilder pb;
    pb.cls("Node").interfaceClass().method("get", Type::f32()).abstractMethod();
    {
        auto& leaf = pb.cls("Leaf").implements("Node").finalClass().field("w", Type::f32());
        leaf.method("get", Type::f32()).body(blk(ret(mul(selff("w"), cf(2.0f)))));
    }
    {
        auto& twin = pb.cls("Twin").implements("Node").finalClass().field("w", Type::f32());
        twin.method("get", Type::f32()).body(blk(ret(add(selff("w"), cf(1.0f)))));
    }
    auto& c = pb.cls("Cfg");
    c.field("n", Type::i32());
    c.field("l", Type::i64());
    c.field("b", Type::boolean());
    c.field("f", Type::f32());
    c.field("d", Type::f64());
    c.field("a", Type::array(Type::f32()));
    c.field("c", Type::array(Type::f32()));
    c.field("spare", Type::array(Type::f32()));
    c.field("node", Type::cls("Node"));
    // double run(int k): d + sum_{i<n} (a[i] * f + c[i]) + node.get()
    //                    + (b ? l : 0) + k
    c.method("run", Type::f64())
        .param("k", Type::i32())
        .body(blk(
            decl("acc", Type::f64(), selff("d")),
            forRange("i", ci(0), selff("n"),
                     blk(assign("acc", add(lv("acc"),
                                           cast(Type::f64(),
                                                add(mul(aget(selff("a"), lv("i")), selff("f")),
                                                    aget(selff("c"), lv("i")))))))),
            assign("acc", add(lv("acc"), cast(Type::f64(), call(selff("node"), "get")))),
            ifs(selff("b"), blk(assign("acc", add(lv("acc"), cast(Type::f64(), selff("l")))))),
            assign("acc", add(lv("acc"), cast(Type::f64(), lv("k")))),
            ret(lv("acc"))));
    return pb.build();
}

ArrRef floats(int n, float start = 0.5f) {
    auto a = std::make_shared<Arr>();
    a->elem = Type::f32();
    for (int i = 0; i < n; ++i) a->data.push_back(Value::ofF32(start + static_cast<float>(i)));
    return a;
}

ObjRef object(const Program& p, const char* cls) {
    auto o = std::make_shared<Obj>();
    o->cls = &p.require(cls);
    for (const Field* f : p.allFields(cls)) o->fields.emplace(f->name, Value::defaultOf(f->type));
    return o;
}

/// The base Cfg graph; each soundness case edits one part of it.
ObjRef baseCfg(const Program& p) {
    ObjRef o = object(p, "Cfg");
    o->fields["n"] = Value::ofI32(4);
    o->fields["l"] = Value::ofI64(7);
    o->fields["b"] = Value::ofBool(true);
    o->fields["f"] = Value::ofF32(1.5f);
    o->fields["d"] = Value::ofF64(0.25);
    o->fields["a"] = Value::ofArr(floats(8));
    o->fields["c"] = Value::ofArr(floats(8, 2.0f));
    ObjRef leaf = object(p, "Leaf");
    leaf->fields["w"] = Value::ofF32(3.0f);
    o->fields["node"] = Value::ofObj(leaf);
    return o;
}

/// Bitwise equality, NaN payload and sign included: the generated C spells
/// every NaN literal by its exact bits.
bool sameResult(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

float f32OfBits(uint32_t bits) {
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

double f64OfBits(uint64_t bits) {
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

uint32_t bitsOf(float f) {
    uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

uint64_t bitsOf(double d) {
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

/// One side of a soundness pair: a receiver edit, the argument, and the
/// switches it is jitted under.
struct Side {
    std::function<void(const Program&, Obj&)> edit = [](const Program&, Obj&) {};
    int k = 1;
    EnvList env;
};

Side edited(std::function<void(const Program&, Obj&)> fn) {
    Side s;
    s.edit = std::move(fn);
    return s;
}

Side withField(const char* name, Value v) {
    return edited([name, v](const Program&, Obj& o) { o.fields[name] = v; });
}

Side withArg(int k) {
    Side s;
    s.k = k;
    return s;
}

Side withEnv(EnvList env) {
    Side s;
    s.env = std::move(env);
    return s;
}

struct Pair {
    const char* what;
    Side first, second;
};

std::vector<Pair> soundnessPairs() {
    const float nan1 = f32OfBits(0x7fc00001u), nan2 = f32OfBits(0x7fc00002u);
    return {
        {"int field", Side{}, withField("n", Value::ofI32(5))},
        {"long field", Side{}, withField("l", Value::ofI64(8))},
        {"bool field", Side{}, withField("b", Value::ofBool(false))},
        {"f64 field", Side{}, withField("d", Value::ofF64(0.5))},
        {"f32 +0.0 vs -0.0", withField("f", Value::ofF32(0.0f)),
         withField("f", Value::ofF32(-0.0f))},
        {"f32 NaN payloads", withField("f", Value::ofF32(nan1)), withField("f", Value::ofF32(nan2))},
        {"array length", Side{}, withField("a", Value::ofArr(floats(9)))},
        {"null vs non-null array", Side{}, withField("spare", Value::ofArr(floats(2)))},
        {"shared vs distinct arrays", Side{},
         edited([](const Program&, Obj& o) { o.fields["c"] = o.fields["a"]; })},
        {"concrete class with the same field names", Side{},
         edited([](const Program& p, Obj& o) {
             ObjRef twin = object(p, "Twin");
             twin->fields["w"] = Value::ofF32(3.0f);
             o.fields["node"] = Value::ofObj(twin);
         })},
        {"argument value", Side{}, withArg(2)},
        {"WJ_BOUNDS=1", Side{}, withEnv({{"WJ_BOUNDS", "1"}})},
        {"WJ_BOUNDS=all", withEnv({{"WJ_BOUNDS", "1"}}), withEnv({{"WJ_BOUNDS", "all"}})},
        {"WJ_PARALLEL", Side{}, withEnv({{"WJ_PARALLEL", "1"}})},
        {"WJ_SIMD", Side{}, withEnv({{"WJ_SIMD", "1"}})},
        {"WJ_SOA", Side{}, withEnv({{"WJ_SOA", "1"}})},
    };
}

Value receiverOf(const Program& p, const Side& s) {
    ObjRef o = baseCfg(p);
    s.edit(p, *o);
    return Value::ofObj(o);
}

} // namespace

TEST(TranslationMemo, WarmRejitsHitAfterOneMiss) {
    Switches sw;
    Program p = cfgProgram();
    const Value recv = receiverOf(p, Side{});
    const int64_t hits0 = memoHits(), misses0 = memoMisses();
    JitCode cold = WootinJ::jit(p, recv, "run", {Value::ofI32(1)});
    EXPECT_FALSE(cold.translationMemoHit());
    constexpr int kWarm = 5;
    for (int i = 0; i < kWarm; ++i) {
        JitCode warm = WootinJ::jit4mpi(p, recv, "run", {Value::ofI32(1)});
        EXPECT_TRUE(warm.translationMemoHit());
        EXPECT_TRUE(warm.cacheHit());
        EXPECT_EQ(cold.generatedC(), warm.generatedC());
    }
    EXPECT_EQ(1, memoMisses() - misses0);
    EXPECT_EQ(kWarm, memoHits() - hits0);
}

TEST(TranslationMemo, EachKeyPartMisses) {
    for (const Pair& pair : soundnessPairs()) {
        SCOPED_TRACE(pair.what);
        Program p = cfgProgram();
        std::string firstC;
        {
            Switches sw(pair.first.env);
            const Value recv = receiverOf(p, pair.first);
            firstC = WootinJ::jit(p, recv, "run", {Value::ofI32(pair.first.k)}).generatedC();
            EXPECT_TRUE(
                WootinJ::jit(p, recv, "run", {Value::ofI32(pair.first.k)}).translationMemoHit());
        }
        Switches sw(pair.second.env);
        const Value recv = receiverOf(p, pair.second);
        const std::vector<Value> args{Value::ofI32(pair.second.k)};
        JitCode code = WootinJ::jit(p, recv, "run", args);
        EXPECT_FALSE(code.translationMemoHit());
        EXPECT_EQ(translate(p, recv, "run", args).cSource, code.generatedC());
        Interp in(p);
        EXPECT_TRUE(sameResult(in.call(recv, "run", args).asF64(), code.invoke().asF64()));
    }
}

TEST(TranslationMemo, ArrayContentsAndFreshEqualGraphsHit) {
    Switches sw;
    Program p = cfgProgram();
    const JitCode first = WootinJ::jit(p, receiverOf(p, Side{}), "run", {Value::ofI32(1)});
    EXPECT_FALSE(first.translationMemoHit());

    // A graph built anew with equal values: objects are keyed by identity
    // number, not address.
    const Value again = receiverOf(p, Side{});
    EXPECT_TRUE(WootinJ::jit(p, again, "run", {Value::ofI32(1)}).translationMemoHit());

    // Only primitive array contents differ: neither the prover nor codegen
    // reads them, so the stored translation is the fresh one.
    const Value recv = receiverOf(p, Side{});
    for (Value& v : recv.asObj()->fields["a"].asArr()->data) v = Value::ofF32(-9.0f);
    JitCode code = WootinJ::jit(p, recv, "run", {Value::ofI32(1)});
    EXPECT_TRUE(code.translationMemoHit());
    EXPECT_EQ(translate(p, recv, "run", {Value::ofI32(1)}).cSource, code.generatedC());
    Interp in(p);
    EXPECT_EQ(in.call(recv, "run", {Value::ofI32(1)}).asF64(), code.invoke().asF64());
}

TEST(TranslationMemo, CflagsChangePicksAnotherModule) {
    Switches sw;
    ScopedEnv flags("WJ_CFLAGS");
    Program p = cfgProgram();
    const Value recv = receiverOf(p, Side{});
    const JitCode plain = WootinJ::jit(p, recv, "run", {Value::ofI32(1)});
    const uint64_t plainKey = cacheKeyFor(plain.generatedC());

    ScopedEnv o1("WJ_CFLAGS", "-O1 -fopenmp-simd");
    JitCode other = WootinJ::jit(p, recv, "run", {Value::ofI32(1)});
    EXPECT_TRUE(other.translationMemoHit());
    EXPECT_EQ(plain.generatedC(), other.generatedC());
    EXPECT_NE(plainKey, cacheKeyFor(other.generatedC()));
    EXPECT_NE(plain.compileCommand(), other.compileCommand());
    EXPECT_NE(other.compileCommand().find("-O1 -fopenmp-simd"), std::string::npos);
    Interp in(p);
    EXPECT_EQ(in.call(recv, "run", {Value::ofI32(1)}).asF64(), other.invoke().asF64());
}

TEST(NanLiterals, KeepTheirBitsInFieldsStaticsAndConstants) {
    // NaNs reach the generated C three ways: a field of the receiver baked
    // into the entry, a file-scope static const, and a literal in a method
    // body. Each must reproduce the interpreter's bits, payload and sign.
    const float qnan1 = f32OfBits(0x7fc00001u);      // quiet, payload 1
    const float snan = f32OfBits(0xff800005u);       // negative, signaling
    const double negNan = f64OfBits(0xfff8000000000abcull);
    const double snan64 = f64OfBits(0x7ff0000000000003ull);
    ProgramBuilder pb;
    auto& c = pb.cls("Nans").finalClass();
    c.field("f", Type::f32());
    c.field("g", Type::f32());
    c.field("d", Type::f64());
    c.staticConst("S", Type::f64(), 0, negNan);
    c.staticConst("T", Type::f64(), 0, snan64);
    c.method("f", Type::f32()).body(blk(ret(selff("f"))));
    c.method("g", Type::f32()).body(blk(ret(selff("g"))));
    c.method("d", Type::f64()).body(blk(ret(selff("d"))));
    c.method("s", Type::f64()).body(blk(ret(sget("Nans", "S"))));
    c.method("t", Type::f64()).body(blk(ret(sget("Nans", "T"))));
    c.method("k", Type::f64()).body(blk(ret(cd(negNan))));
    c.method("kf", Type::f32()).body(blk(ret(cf(qnan1))));
    Program p = pb.build();
    ObjRef o = object(p, "Nans");
    o->fields["f"] = Value::ofF32(qnan1);
    o->fields["g"] = Value::ofF32(snan);
    o->fields["d"] = Value::ofF64(negNan);
    const Value recv = Value::ofObj(o);

    Switches sw;
    Interp in(p);
    for (const char* m : {"f", "g", "kf"}) {
        const float want = in.call(recv, m, {}).asF32();
        const float got = WootinJ::jit(p, recv, m, {}).invoke().asF32();
        EXPECT_EQ(bitsOf(want), bitsOf(got)) << m;
    }
    EXPECT_EQ(0x7fc00001u, bitsOf(in.call(recv, "f", {}).asF32()));
    for (const char* m : {"d", "s", "t", "k"}) {
        const double want = in.call(recv, m, {}).asF64();
        const double got = WootinJ::jit(p, recv, m, {}).invoke().asF64();
        EXPECT_EQ(bitsOf(want), bitsOf(got)) << m;
    }
    EXPECT_EQ(0xfff8000000000abcull, bitsOf(in.call(recv, "d", {}).asF64()));
}

TEST(TranslationMemo, SourceHashKeyEqualsTheFullKey) {
    const std::string src = "int main(void) { return 0; }\n";
    EXPECT_EQ(JitCache::keyOf(src, "cc", "-O2", 42),
              JitCache::keyOf(fnv1a64(src.data(), src.size()), "cc", "-O2", 42));
    Switches sw;
    Program p = cfgProgram();
    const Translation t = translate(p, receiverOf(p, Side{}), "run", {Value::ofI32(1)});
    EXPECT_EQ(fnv1a64(t.cSource.data(), t.cSource.size()), t.sourceHash);
}

TEST(TranslationMemo, RefusedTranslationsAreNotStored) {
    Switches sw;
    ProgramBuilder pb;
    // a[8] on a new float[8]: proven out of bounds, so translation refuses.
    pb.cls("Bad").method("run", Type::f32()).param("n", Type::i32()).body(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(8))),
        ret(aget(lv("a"), ci(8)))));
    Program p = pb.build();
    Interp in(p);
    const Value obj = in.instantiate("Bad", {});
    const int64_t hits0 = memoHits(), misses0 = memoMisses();
    EXPECT_THROW(WootinJ::jit(p, obj, "run", {Value::ofI32(1)}), AnalysisError);
    EXPECT_THROW(WootinJ::jit(p, obj, "run", {Value::ofI32(1)}), AnalysisError);
    EXPECT_EQ(2, memoMisses() - misses0);
    EXPECT_EQ(0, memoHits() - hits0);
}

// The jit/translate span says whether the memo served it; the jit/marshal
// span and jit.marshal.bytes count the deep copy both ways; the jit/entry
// span carries the entry's minor faults.
TEST(TranslationMemo, TraceShowsTheMemoAndTheMarshal) {
    Switches sw;
    Program p = cfgProgram();
    const Value recv = receiverOf(p, Side{});
    trace::Tracer& tracer = trace::Tracer::instance();
    tracer.enable("");
    tracer.reset();
    const int64_t bytes0 = counter("jit.marshal.bytes");
    {
        const JitCode cold = WootinJ::jit(p, recv, "run", {Value::ofI32(1)});
        JitCode warm = WootinJ::jit(p, recv, "run", {Value::ofI32(1)});
        warm.enableCopyBack(true);
        warm.invoke();
    }
    const std::vector<trace::SpanRec> spans = tracer.snapshot();
    tracer.disable();
    tracer.reset();

    std::vector<int64_t> memo;
    std::vector<std::pair<bool, int64_t>> marshals;  // (copy-back, bytes)
    std::vector<int64_t> minflt;
    for (const trace::SpanRec& sp : spans) {
        const std::string cat = sp.cat, name = sp.name;
        if (cat != "jit") continue;
        auto arg = [&](const char* key) -> std::optional<int64_t> {
            for (int i = 0; i < 3; ++i) {
                if (sp.argKey[i] && std::string(sp.argKey[i]) == key) return sp.argVal[i];
            }
            return std::nullopt;
        };
        if (name == "translate run") memo.push_back(arg("memo").value_or(-1));
        if (name == "marshal") marshals.emplace_back(arg("back").has_value(), arg("bytes").value_or(-1));
        if (name == "entry") minflt.push_back(arg("minflt").value_or(-1));
    }
    ASSERT_EQ(1u, minflt.size());
    EXPECT_GE(minflt[0], 0);
    EXPECT_EQ((std::vector<int64_t>{0, 1}), memo);
    // Two float[8] fields, copied in and back: 64 bytes each way.
    const std::vector<std::pair<bool, int64_t>> want{{false, 64}, {true, 64}};
    EXPECT_EQ(want, marshals);
    EXPECT_EQ(128, counter("jit.marshal.bytes") - bytes0);
}

// Every composition the codegen goldens pin, jitted twice on one Program:
// the second jit() is a memo hit and still the golden, byte for byte.
TEST(TranslationMemo, GoldenCompositionsHitAndMatchTheirGolden) {
    for (const test::GoldenCase& g : test::goldenCases()) {
        SCOPED_TRACE(g.file);
        Switches sw(g.env);
        const test::Composition c = g.compose();
        const JitCode cold = WootinJ::jit(*c.prog, c.receiver, "run", c.args);
        const JitCode warm = WootinJ::jit(*c.prog, c.receiver, "run", c.args);
        EXPECT_FALSE(cold.translationMemoHit());
        EXPECT_TRUE(warm.translationMemoHit());
        std::string golden;
        ASSERT_TRUE(test::slurp(std::string(WJ_GOLDEN_DIR) + "/" + g.file, golden));
        const test::FirstDiff d = test::firstDiff(golden, warm.generatedC());
        EXPECT_EQ(0, d.line) << "golden: " << d.expected << "\nactual: " << d.actual;
    }
}

// Eight threads mixing jit() and jitAsync() over three keys on one
// Program: every thread gets the same C per key, and it is translate()'s.
TEST(TranslationMemo, ConcurrentJitAndJitAsyncAgreePerKey) {
    Switches sw;
    Program p = cfgProgram();
    const Value recv = receiverOf(p, Side{});
    constexpr int kThreads = 8, kKeys = 3;
    std::vector<std::vector<std::string>> got(kThreads, std::vector<std::string>(kKeys));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int k = 0; k < kKeys; ++k) {
                const std::vector<Value> args{Value::ofI32(k)};
                got[t][k] = (t + k) % 2 ? WootinJ::jit(p, recv, "run", args).generatedC()
                                        : WootinJ::jitAsync(p, recv, "run", args).get().generatedC();
            }
        });
    }
    for (std::thread& th : threads) th.join();
    for (int k = 0; k < kKeys; ++k) {
        const std::string want = translate(p, recv, "run", {Value::ofI32(k)}).cSource;
        for (int t = 0; t < kThreads; ++t) EXPECT_EQ(want, got[t][k]) << "thread " << t << " key " << k;
    }
}

namespace {

/// run(int n): writes a[i] = i for i < n into a new float[8], then sums a.
/// Safe exactly when n <= 8.
Program fillProgram() {
    ProgramBuilder pb;
    pb.cls("Fill").method("run", Type::f32()).param("n", Type::i32()).body(blk(
        decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(8))),
        forRange("i", ci(0), lv("n"), blk(aset(lv("a"), lv("i"), cast(Type::f32(), lv("i"))))),
        decl("s", Type::f32(), cf(0.0f)),
        forRange("i", ci(0), ci(8), blk(assign("s", add(lv("s"), aget(lv("a"), lv("i")))))),
        ret(lv("s"))));
    return pb.build();
}

std::string messageOf(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const std::exception& e) {
        return e.what();
    }
    return "(no exception)";
}

} // namespace

// Jitted with n=5, every store is proven in bounds and runs unguarded; an
// invokeWith(12) must not run that proof. It runs the translation for 12,
// whose guard traps exactly like jit() with 12.
TEST(InvokeWithOverrides, ProofsFollowTheOverridingValue) {
    Switches sw(EnvList{{"WJ_BOUNDS", "1"}});
    Program p = fillProgram();
    Interp in(p);
    const Value obj = in.instantiate("Fill", {});
    JitCode five = WootinJ::jit(p, obj, "run", {Value::ofI32(5)});
    EXPECT_EQ(0, five.boundsGuards());
    JitCode twelve = WootinJ::jit(p, obj, "run", {Value::ofI32(12)});
    EXPECT_GT(twelve.boundsGuards(), 0);

    const std::string viaOverride = messageOf([&] { five.invokeWith({Value::ofI32(12)}); });
    EXPECT_NE(viaOverride.find("array index out of bounds"), std::string::npos) << viaOverride;
    EXPECT_EQ(messageOf([&] { twelve.invoke(); }), viaOverride);

    EXPECT_EQ(in.call(obj, "run", {Value::ofI32(5)}).asF32(), five.invoke().asF32());
    EXPECT_EQ(in.call(obj, "run", {Value::ofI32(3)}).asF32(),
              five.invokeWith({Value::ofI32(3)}).asF32());
}

// The recorded values and float/double overrides keep the recorded module
// without a memo lookup; a new integer tuple is looked up once per JitCode.
TEST(InvokeWithOverrides, OnlyNewIntegerValuesLookUpATranslation) {
    Switches sw;
    ProgramBuilder pb;
    pb.cls("Scale").method("run", Type::f64()).param("n", Type::i32()).param("s", Type::f64())
        .body(blk(decl("acc", Type::f64(), cd(0.0)),
                  forRange("i", ci(0), lv("n"), blk(assign("acc", add(lv("acc"), lv("s"))))),
                  ret(lv("acc"))));
    Program p = pb.build();
    Interp in(p);
    const Value obj = in.instantiate("Scale", {});
    JitCode code = WootinJ::jit(p, obj, "run", {Value::ofI32(3), Value::ofF64(1.0)});
    auto lookups = [] { return memoHits() + memoMisses(); };
    auto check = [&](int n, double s) {
        const std::vector<Value> args{Value::ofI32(n), Value::ofF64(s)};
        EXPECT_EQ(in.call(obj, "run", args).asF64(), code.invokeWith(args).asF64());
    };
    const int64_t before = lookups();
    check(3, 1.0);
    check(3, 2.5);
    EXPECT_EQ(before, lookups());
    check(4, 1.0);
    EXPECT_EQ(before + 1, lookups());
    check(4, 0.5);
    check(3, 0.5);
    EXPECT_EQ(before + 1, lookups());
}

// The ghost-padded diffusion runner with 0 steps translates differently
// from 1 step under WJ_SIMD (the sweep is never reached, so it is not
// vectorized): invokeWith(0) on the 1-step code must run the 0-step
// translation and agree with the interpreter.
TEST(InvokeWithOverrides, ZeroStepDiffusionRunsItsOwnTranslation) {
    Switches sw(EnvList{{"WJ_SIMD", "1"}});
    const test::Composition c = test::diffusionMpi();
    const std::vector<Value> zero{Value::ofI32(0)};
    EXPECT_NE(translate(*c.prog, c.receiver, "run", zero).cSource, c.translate().cSource);
    JitCode code = WootinJ::jit(*c.prog, c.receiver, "run", c.args);
    Interp in(*c.prog);
    const int64_t misses0 = memoMisses();
    EXPECT_EQ(in.call(c.receiver, "run", zero).asF64(), code.invokeWith(zero).asF64());
    EXPECT_EQ(1, memoMisses() - misses0);
}

namespace {

/// run(float[] a, int n): the sum of a[0..n). Safe exactly when n <= a.length.
Program headProgram() {
    ProgramBuilder pb;
    pb.cls("Head").method("run", Type::f32())
        .param("a", Type::array(Type::f32())).param("n", Type::i32())
        .body(blk(decl("s", Type::f32(), cf(0.0f)),
                  forRange("i", ci(0), lv("n"),
                           blk(assign("s", add(lv("s"), aget(lv("a"), lv("i")))))),
                  ret(lv("s"))));
    return pb.build();
}

} // namespace

// Jitted with an 8-element array and n=8, the loads are proven in bounds
// and run unguarded. An override with a 4-element array must not run that
// proof: it runs the translation for length 4, whose guard traps exactly
// like jit() with that array. Another array of the recorded length keeps
// the recorded module without a memo lookup.
TEST(InvokeWithOverrides, ArgumentArrayLengthSelectsTheTranslation) {
    Switches sw(EnvList{{"WJ_BOUNDS", "1"}});
    Program p = headProgram();
    Interp in(p);
    const Value obj = in.instantiate("Head", {});
    const Value eight = Value::ofArr(floats(8));
    JitCode code = WootinJ::jit(p, obj, "run", {eight, Value::ofI32(8)});
    EXPECT_EQ(0, code.boundsGuards());

    const std::vector<Value> shortArgs{Value::ofArr(floats(4)), Value::ofI32(8)};
    JitCode shortCode = WootinJ::jit(p, obj, "run", shortArgs);
    EXPECT_GT(shortCode.boundsGuards(), 0);
    const std::string viaOverride = messageOf([&] { code.invokeWith(shortArgs); });
    EXPECT_NE(viaOverride.find("array index out of bounds"), std::string::npos) << viaOverride;
    EXPECT_EQ(messageOf([&] { shortCode.invoke(); }), viaOverride);

    const std::vector<Value> longArgs{Value::ofArr(floats(16)), Value::ofI32(8)};
    EXPECT_EQ(in.call(obj, "run", longArgs).asF32(), code.invokeWith(longArgs).asF32());

    const int64_t lookups = memoHits() + memoMisses();
    const std::vector<Value> sameLength{Value::ofArr(floats(8, 2.0f)), Value::ofI32(8)};
    EXPECT_EQ(in.call(obj, "run", sameLength).asF32(), code.invokeWith(sameLength).asF32());
    EXPECT_EQ(lookups, memoHits() + memoMisses());
}

// The proofs also read the receiver's array lengths. Swapping a receiver
// array for one of another length after jit() is refused at invoke with a
// UsageError that names the field; the recorded length runs as before.
TEST(InvokeWithOverrides, ReceiverArrayOfAnotherLengthIsRefused) {
    Switches sw(EnvList{{"WJ_BOUNDS", "1"}});
    Program p = cfgProgram();
    ObjRef o = baseCfg(p);
    Interp in(p);
    const std::vector<Value> args{Value::ofI32(3)};
    JitCode code = WootinJ::jit(p, Value::ofObj(o), "run", args);
    EXPECT_EQ(0, code.boundsGuards());

    o->fields["a"] = Value::ofArr(floats(2));
    try {
        code.invokeWith(args);
        ADD_FAILURE() << "a 2-element receiver array ran proofs made for 8 elements";
    } catch (const UsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("this.a"), std::string::npos) << what;
        EXPECT_NE(what.find("length 2"), std::string::npos) << what;
    }

    o->fields["a"] = Value::ofArr(floats(8, 4.0f));
    EXPECT_TRUE(sameResult(in.call(Value::ofObj(o), "run", args).asF64(),
                           code.invokeWith(args).asF64()));
}

// The proofs read which receiver arrays are one array too (a restrict
// hoist proven for two arrays is unsound for one). Fields that share
// arrays in another pattern than at jit() are refused at invoke with a
// UsageError naming both fields, in either direction.
TEST(InvokeWithOverrides, ReceiverFieldsThatChangedSharingAreRefused) {
    Switches sw;
    Program p = cfgProgram();
    const std::vector<Value> args{Value::ofI32(3)};
    auto refusal = [&](JitCode& code) { return messageOf([&] { code.invokeWith(args); }); };

    ObjRef two = baseCfg(p);
    JitCode twoCode = WootinJ::jit(p, Value::ofObj(two), "run", args);
    two->fields["c"] = two->fields["a"];
    const std::string merged = refusal(twoCode);
    EXPECT_NE(merged.find("this.a and this.c held two arrays"), std::string::npos) << merged;

    ObjRef one = baseCfg(p);
    one->fields["c"] = one->fields["a"];
    JitCode oneCode = WootinJ::jit(p, Value::ofObj(one), "run", args);
    one->fields["c"] = Value::ofArr(floats(8, 2.0f));
    const std::string split = refusal(oneCode);
    EXPECT_NE(split.find("this.a and this.c held one array"), std::string::npos) << split;

    one->fields["c"] = one->fields["a"];
    Interp in(p);
    EXPECT_TRUE(sameResult(in.call(Value::ofObj(one), "run", args).asF64(),
                           oneCode.invokeWith(args).asF64()));
}

namespace {

/// Shift: float[] field `a`. fromField(x, n) copies a[i - 1] + 1 into x[i]
/// and fromArg(x, y, n) copies y[i - 1] + 1 into x[i], for 0 < i < n; both
/// return x[n - 1]. When the source and x are one array, each iteration
/// reads the previous one's store, so the result is a ramp; for two
/// arrays the loops are dependence-free and vectorize.
Program shiftProgram() {
    ProgramBuilder pb;
    auto& c = pb.cls("Shift").field("a", Type::array(Type::f32()));
    auto body = [](ExprPtr src) {
        return blk(forRange("i", ci(1), lv("n"),
                            blk(aset(lv("x"), lv("i"),
                                     add(aget(std::move(src), sub(lv("i"), ci(1))), cf(1.0f))))),
                   ret(aget(lv("x"), sub(lv("n"), ci(1)))));
    };
    c.method("fromField", Type::f32())
        .param("x", Type::array(Type::f32())).param("n", Type::i32())
        .body(body(selff("a")));
    c.method("fromArg", Type::f32())
        .param("x", Type::array(Type::f32())).param("y", Type::array(Type::f32()))
        .param("n", Type::i32())
        .body(body(lv("y")));
    return pb.build();
}

} // namespace

// Jitted with separate arrays, the shifted copy proves vectorizable with
// restrict-hoisted pointers. An argument that now aliases the receiver's
// array, or another argument, must not run that proof: it runs the
// translation made for the shared pattern, which agrees with the
// interpreter, and the recorded pattern keeps the recorded module.
TEST(InvokeWithOverrides, ArgumentThatNowAliasesSelectsTheTranslation) {
    Switches sw(EnvList{{"WJ_SIMD", "1"}});
    Program p = shiftProgram();
    Interp in(p);
    constexpr int kN = 32;
    const Value n = Value::ofI32(kN);
    auto jagged = [] {
        ArrRef a = floats(kN);
        for (size_t i = 0; i < a->data.size(); ++i) {
            a->data[i] = Value::ofF32(0.25f * static_cast<float>((i * 7) % 11));
        }
        return Value::ofArr(a);
    };
    auto shift = [&] {
        ObjRef o = object(p, "Shift");
        o->fields["a"] = jagged();
        return Value::ofObj(o);
    };
    auto lookups = [] { return memoHits() + memoMisses(); };

    // x aliases the receiver's array.
    const Value obj = shift();
    JitCode field = WootinJ::jit(p, obj, "fromField", {jagged(), n});
    EXPECT_GT(field.vectorLoops(), 0);
    const Value ref = shift();
    const float ramp = in.call(ref, "fromField", {ref.asObj()->fields["a"], n}).asF32();
    int64_t before = lookups();
    EXPECT_EQ(ramp, field.invokeWith({obj.asObj()->fields["a"], n}).asF32());
    EXPECT_EQ(before + 1, lookups());
    before = lookups();
    EXPECT_EQ(in.call(obj, "fromField", {jagged(), n}).asF32(),
              field.invokeWith({jagged(), n}).asF32());
    EXPECT_EQ(before, lookups());

    // y aliases x.
    JitCode arg = WootinJ::jit(p, obj, "fromArg", {jagged(), jagged(), n});
    EXPECT_GT(arg.vectorLoops(), 0);
    const Value xr = jagged(), x = jagged();
    before = lookups();
    EXPECT_EQ(in.call(obj, "fromArg", {xr, xr, n}).asF32(), arg.invokeWith({x, x, n}).asF32());
    EXPECT_EQ(before + 1, lookups());
    EXPECT_NE(in.call(obj, "fromArg", {jagged(), jagged(), n}).asF32(),
              arg.invokeWith({x, x, n}).asF32());
}
