// Translator internals: shape derivation, specialization, object inlining
// evidence in the generated C, entry marshalling, and rejection paths.
#include <gtest/gtest.h>

#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/jit.h"
#include "jit/shape.h"
#include "scoped_env.h"
#include "trace/metrics.h"

using namespace wj;
using namespace wj::dsl;

// ----------------------------------------------------------------- shapes

namespace {

Program shapeProgram() {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass();
    auto& a = pb.cls("A").implements("I").finalClass().field("x", Type::f32());
    a.ctor().param("x_", Type::f32()).body(blk(setSelf("x", lv("x_"))));
    auto& b = pb.cls("B").implements("I").finalClass().field("y", Type::i64());
    b.ctor().param("y_", Type::i64()).body(blk(setSelf("y", lv("y_"))));
    auto& h = pb.cls("Holder").field("i", Type::cls("I")).field("arr", Type::array(Type::f32()));
    h.ctor().param("i_", Type::cls("I")).body(blk(setSelf("i", lv("i_"))));
    return pb.build();
}

/// The shape jit() derives for `v`: from its snapshot.
const Shape* shapeOf(ShapeTable& st, const Program& p, const Value& v) {
    const GraphSnapshot g(p, v, {});
    return st.ofNode(g, g.root(0));
}

} // namespace

TEST(Shape, StrictFinalShapeFromTypeAlone) {
    Program p = shapeProgram();
    ShapeTable st(p);
    const Shape* s = st.ofType(Type::cls("A"));
    ASSERT_TRUE(s->isObject());
    EXPECT_EQ("A", s->cls().name);
    ASSERT_EQ(1u, s->fields().size());
    EXPECT_TRUE(s->field("x")->isPrim());
}

TEST(Shape, InterningGivesPointerEquality) {
    Program p = shapeProgram();
    ShapeTable st(p);
    EXPECT_EQ(st.ofType(Type::cls("A")), st.ofType(Type::cls("A")));
    EXPECT_EQ(st.ofPrim(Prim::F64), st.ofPrim(Prim::F64));
    EXPECT_NE(st.ofType(Type::cls("A")), st.ofType(Type::cls("B")));
    EXPECT_EQ(st.ofArray(Type::f32()), st.ofArray(Type::f32()));
}

TEST(Shape, FromValueCapturesDynamicType) {
    Program p = shapeProgram();
    Interp in(p);
    ShapeTable st(p);
    Value holder = in.instantiate("Holder", {in.instantiate("A", {Value::ofF32(1.f)})});
    const Shape* s = shapeOf(st, p, holder);
    EXPECT_EQ("Holder", s->cls().name);
    EXPECT_EQ("A", s->field("i")->cls().name);  // exact class, not the interface
    EXPECT_TRUE(s->field("arr")->isArray());    // null array field: shape from type
}

TEST(Shape, NullObjectFieldRejected) {
    ProgramBuilder pb;
    pb.cls("I").interfaceClass();
    pb.cls("H").field("i", Type::cls("I"));  // implicit ctor leaves it null
    Program p = pb.build();
    Interp in(p);
    ShapeTable st(p);
    Value h = in.instantiate("H", {});
    EXPECT_THROW(shapeOf(st, p, h), UsageError);
}

TEST(Shape, KeyDistinguishesFieldShapes) {
    Program p = shapeProgram();
    Interp in(p);
    ShapeTable st(p);
    Value ha = in.instantiate("Holder", {in.instantiate("A", {Value::ofF32(0)})});
    Value hb = in.instantiate("Holder", {in.instantiate("B", {Value::ofI64(0)})});
    EXPECT_NE(shapeOf(st, p, ha), shapeOf(st, p, hb));
    EXPECT_NE(shapeOf(st, p, ha)->key(), shapeOf(st, p, hb)->key());
}

// ----------------------------------------------------------- specialization

namespace {

Program polyProgram() {
    ProgramBuilder pb;
    pb.cls("Op").interfaceClass().method("apply", Type::f64()).param("v", Type::f64())
        .abstractMethod();
    auto& dbl = pb.cls("Doubler").implements("Op").finalClass();
    dbl.method("apply", Type::f64()).param("v", Type::f64()).body(blk(ret(mul(lv("v"), cd(2)))));
    auto& sq = pb.cls("Squarer").implements("Op").finalClass();
    sq.method("apply", Type::f64()).param("v", Type::f64()).body(blk(ret(mul(lv("v"), lv("v")))));
    auto& r = pb.cls("Pair").field("first", Type::cls("Op")).field("second", Type::cls("Op"));
    r.ctor()
        .param("a", Type::cls("Op"))
        .param("b", Type::cls("Op"))
        .body(blk(setSelf("first", lv("a")), setSelf("second", lv("b"))));
    // run applies both and a shared helper once per op: the helper method is
    // specialized per receiver shape.
    r.method("applyOne", Type::f64())
        .param("op", Type::cls("Op"))
        .param("v", Type::f64())
        .body(blk(ret(call(lv("op"), "apply", lv("v")))));
    r.method("run", Type::f64())
        .param("v", Type::f64())
        .body(blk(ret(add(call(self(), "applyOne", selff("first"), lv("v")),
                          call(self(), "applyOne", selff("second"), lv("v"))))));
    return pb.build();
}

} // namespace

TEST(Translator, SpecializesPerArgumentShape) {
    Program p = polyProgram();
    Interp in(p);
    Value pair = in.instantiate("Pair",
                                {in.instantiate("Doubler", {}), in.instantiate("Squarer", {})});
    JitCode code = WootinJ::jit(p, pair, "run", {Value::ofF64(3.0)});
    // 2*3 + 3*3 = 15
    EXPECT_DOUBLE_EQ(15.0, code.invoke().asF64());
    // applyOne must appear twice (Doubler-shaped and Squarer-shaped args),
    // so: run + 2x applyOne + Doubler.apply + Squarer.apply = 5 functions.
    EXPECT_EQ(5, code.specializations());
    EXPECT_NE(code.generatedC().find("Doubler_apply"), std::string::npos);
    EXPECT_NE(code.generatedC().find("Squarer_apply"), std::string::npos);
}

TEST(Translator, SameShapeSharesSpecialization) {
    Program p = polyProgram();
    Interp in(p);
    Value pair = in.instantiate("Pair",
                                {in.instantiate("Doubler", {}), in.instantiate("Doubler", {})});
    JitCode code = WootinJ::jit(p, pair, "run", {Value::ofF64(3.0)});
    EXPECT_DOUBLE_EQ(12.0, code.invoke().asF64());
    // run + ONE applyOne + Doubler.apply.
    EXPECT_EQ(3, code.specializations());
}

TEST(Translator, ObjectInliningLeavesNoHeapObjects) {
    Program p = polyProgram();
    Interp in(p);
    Value pair = in.instantiate("Pair",
                                {in.instantiate("Doubler", {}), in.instantiate("Squarer", {})});
    JitCode code = WootinJ::jit(p, pair, "run", {Value::ofF64(1.0)});
    const std::string& c = code.generatedC();
    // Only arrays may allocate; this program has none.
    EXPECT_EQ(c.find("wjrt_alloc_array"), std::string::npos);
    EXPECT_EQ(c.find("malloc"), std::string::npos);
}

TEST(Translator, StaticFieldsBecomeConstants) {
    ProgramBuilder pb;
    auto& t = pb.cls("T").staticConstI32("LIMIT", 17);
    t.method("f", Type::i32()).body(blk(ret(sget("T", "LIMIT"))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    JitCode code = WootinJ::jit(p, obj, "f", {});
    EXPECT_EQ(17, code.invoke().asI32());
    EXPECT_NE(code.generatedC().find("static const int32_t SC_T_LIMIT = 17"), std::string::npos);
}

TEST(Translator, ReceiverPrimitivesBakedIn) {
    ProgramBuilder pb;
    auto& t = pb.cls("T").field("bias", Type::f64());
    t.ctor().param("b", Type::f64()).body(blk(setSelf("bias", lv("b"))));
    t.method("f", Type::f64()).body(blk(ret(selff("bias"))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {Value::ofF64(2.5)});
    JitCode code = WootinJ::jit(p, obj, "f", {});
    EXPECT_DOUBLE_EQ(2.5, code.invoke().asF64());
    // 2.5 == 0x1.4p+1 appears as a baked literal in the entry.
    EXPECT_NE(code.generatedC().find("0x1.4p+1"), std::string::npos);
}

// --------------------------------------------------------------- rejection

TEST(Translator, RefusesRuleViolatingProgram) {
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    t.method("f", Type::i32()).param("p", Type::i32())
        .body(blk(ret(ternary(gt(lv("p"), ci(0)), ci(1), ci(0)))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    EXPECT_THROW(WootinJ::jit(p, obj, "f", {Value::ofI32(1)}), RuleViolationError);
}

TEST(Translator, RefusesNonWootinJReceiver) {
    ProgramBuilder pb;
    pb.cls("T").notWootinJ().method("f", Type::i32()).body(blk(ret(ci(1))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    EXPECT_THROW(WootinJ::jit(p, obj, "f", {}), UsageError);
}

TEST(Translator, RefusesObjectReturningEntry) {
    ProgramBuilder pb;
    auto& v = pb.cls("V").finalClass().field("x", Type::i32());
    v.ctor().param("x_", Type::i32()).body(blk(setSelf("x", lv("x_"))));
    auto& t = pb.cls("T");
    t.method("f", Type::cls("V")).body(blk(ret(newObj("V", ci(1)))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    EXPECT_THROW(WootinJ::jit(p, obj, "f", {}), UsageError);
}

TEST(Translator, RefusesGlobalEntry) {
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    t.method("k", Type::voidTy()).global().param("conf", Type::cls("CudaConfig"))
        .body(blk(retVoid()));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    EXPECT_THROW(WootinJ::jit(p, obj, "k", {in.instantiate("CudaConfig", {
        in.instantiate("dim3", {Value::ofI32(1), Value::ofI32(1), Value::ofI32(1)}),
        in.instantiate("dim3", {Value::ofI32(1), Value::ofI32(1), Value::ofI32(1)}),
        Value::ofI32(0)})}), UsageError);
}

TEST(Translator, RefusesMpiIntrinsicInsideKernel) {
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    t.method("k", Type::voidTy()).global().param("conf", Type::cls("CudaConfig"))
        .body(blk(exprS(intr(Intrinsic::MpiBarrier)), retVoid()));
    t.method("go", Type::voidTy())
        .body(blk(exprS(call(self(), "k", cudaConfig(dim3of(ci(1)), dim3of(ci(1)), ci(0)))),
                  retVoid()));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    EXPECT_THROW(WootinJ::jit(p, obj, "go", {}), UsageError);
}

TEST(Translator, RefusesDeviceIntrinsicOnHost) {
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    t.method("f", Type::i32()).body(blk(ret(tidxX())));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    EXPECT_THROW(WootinJ::jit(p, obj, "f", {}), UsageError);
}

// --------------------------------------------------------------- marshalling

TEST(JitApi, ArrayArgumentsCrossTheBoundary) {
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    t.method("sum", Type::f64())
        .param("a", Type::array(Type::f32()))
        .body(blk(decl("s", Type::f64(), cd(0)),
                  forRange("i", ci(0), alen(lv("a")),
                           blk(assign("s", add(lv("s"), cast(Type::f64(), aget(lv("a"), lv("i"))))))),
                  ret(lv("s"))));
    Program p = pb.build();
    Interp in(p);
    Value arr = in.newArray(Type::f32(), 4);
    for (int i = 0; i < 4; ++i) arr.asArr()->data[static_cast<size_t>(i)] = Value::ofF32(i + 1.f);
    Value obj = in.instantiate("T", {});
    JitCode code = WootinJ::jit(p, obj, "sum", {arr});
    EXPECT_DOUBLE_EQ(10.0, code.invoke().asF64());
}

TEST(JitApi, NoCopyBackByDefault) {
    // Paper Section 3.1: "The modified data are not copied back."
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    t.method("scribble", Type::voidTy())
        .param("a", Type::array(Type::f32()))
        .body(blk(aset(lv("a"), ci(0), cf(99.0f)), retVoid()));
    Program p = pb.build();
    Interp in(p);
    Value arr = in.newArray(Type::f32(), 2);
    Value obj = in.instantiate("T", {});
    JitCode code = WootinJ::jit(p, obj, "scribble", {arr});
    code.invoke();
    EXPECT_FLOAT_EQ(0.0f, arr.asArr()->data[0].asF32());
    // ...unless the copy-back extension is enabled.
    code.enableCopyBack(true);
    code.invoke();
    EXPECT_FLOAT_EQ(99.0f, arr.asArr()->data[0].asF32());
}

// ------------------------------------------------- sharing across the boundary

namespace {

/// Twin: `a` and `b` are float[4] fields; run() { this.a[0] = 1.0f;
/// return this.b[0]; } returns 1 exactly when they hold one array.
Program twinProgram() {
    ProgramBuilder pb;
    auto& t = pb.cls("Twin");
    t.field("a", Type::array(Type::f32())).field("b", Type::array(Type::f32()));
    t.method("run", Type::f32())
        .body(blk(aset(selff("a"), ci(0), cf(1.0f)), ret(aget(selff("b"), ci(0)))));
    return pb.build();
}

Value twin(Interp& in, bool shared) {
    Value t = in.instantiate("Twin", {});
    const Value a = in.newArray(Type::f32(), 4);
    t.asObj()->fields["a"] = a;
    t.asObj()->fields["b"] = shared ? a : in.newArray(Type::f32(), 4);
    return t;
}

int64_t marshalledBytes() {
    return trace::Metrics::instance().counter("jit.marshal.bytes").value();
}

} // namespace

// Two fields holding one array stay one array in the translated code: one
// arrs[] slot, marshalled, copied back and freed once.
TEST(JitApi, SharedReceiverArraysStayOneArray) {
    Program p = twinProgram();
    Interp in(p);
    EXPECT_EQ(1.0f, in.call(twin(in, true), "run", {}).asF32());
    const Value shared = twin(in, true);
    JitCode code = WootinJ::jit(p, shared, "run", {});
    ASSERT_NE(ExecMode::Interpreter, code.execMode());
    EXPECT_EQ(std::string::npos, code.generatedC().find("arrs[1]")) << code.generatedC();
    const int64_t bytes0 = marshalledBytes();
    EXPECT_EQ(1.0f, code.invoke().asF32());
    EXPECT_EQ(16, marshalledBytes() - bytes0);  // one float[4], once
    code.enableCopyBack(true);
    EXPECT_EQ(1.0f, code.invoke().asF32());
    EXPECT_EQ(16 + 32, marshalledBytes() - bytes0);  // in and back, once each
    EXPECT_EQ(1.0f, shared.asObj()->fields["b"].asArr()->data[0].asF32());

    EXPECT_EQ(0.0f, WootinJ::jit(p, twin(in, false), "run", {}).invoke().asF32());
}

// The interpreter fallback copies the receiver with the same identity rule.
TEST(JitApi, SharedReceiverArraysStayOneArrayInTheFallback) {
    test::ScopedEnv cc("WJ_CC", "/nonexistent/wj-no-such-cc");
    Program p = twinProgram();
    Interp in(p);
    const Value shared = twin(in, true);
    JitCode code = WootinJ::jit(p, shared, "run", {});
    ASSERT_EQ(ExecMode::Interpreter, code.execMode());
    EXPECT_EQ(1.0f, code.invoke().asF32());
    EXPECT_EQ(0.0f, shared.asObj()->fields["a"].asArr()->data[0].asF32()) << "copied back";
    EXPECT_EQ(0.0f, WootinJ::jit(p, twin(in, false), "run", {}).invoke().asF32());
}

// An object argument's arrays cross the boundary like the receiver's.
TEST(JitApi, ObjectArgumentArraysCrossTheBoundary) {
    ProgramBuilder pb;
    auto& box = pb.cls("Box").finalClass();
    box.field("data", Type::array(Type::f32())).field("s", Type::f32());
    // run(Box b, float[] x) = b.data[1] * b.s + x[0] + x[2]
    pb.cls("T")
        .method("run", Type::f32())
        .param("b", Type::cls("Box"))
        .param("x", Type::array(Type::f32()))
        .body(blk(ret(add(add(mul(aget(getf(lv("b"), "data"), ci(1)), getf(lv("b"), "s")),
                              aget(lv("x"), ci(0))),
                          aget(lv("x"), ci(2))))));
    Program p = pb.build();
    Interp in(p);
    auto args = [&](float base) {
        Value b = in.instantiate("Box", {});
        Value data = in.newArray(Type::f32(), 3);
        Value x = in.newArray(Type::f32(), 3);
        for (size_t i = 0; i < 3; ++i) {
            data.asArr()->data[i] = Value::ofF32(base + static_cast<float>(i));
            x.asArr()->data[i] = Value::ofF32(2.0f * base - static_cast<float>(i));
        }
        b.asObj()->fields["data"] = data;
        b.asObj()->fields["s"] = Value::ofF32(0.5f);
        return std::vector<Value>{b, x};
    };
    const Value obj = in.instantiate("T", {});
    JitCode code = WootinJ::jit(p, obj, "run", args(1.0f));
    EXPECT_EQ(in.call(obj, "run", args(1.0f)).asF32(), code.invoke().asF32());
    EXPECT_EQ(in.call(obj, "run", args(4.0f)).asF32(), code.invokeWith(args(4.0f)).asF32());
}

TEST(JitApi, Set4MpiValidation) {
    Program p = polyProgram();
    Interp in(p);
    Value pair = in.instantiate("Pair",
                                {in.instantiate("Doubler", {}), in.instantiate("Doubler", {})});
    JitCode code = WootinJ::jit(p, pair, "run", {Value::ofF64(1.0)});
    EXPECT_THROW(code.set4MPI(4), UsageError);  // jit(), not jit4mpi()
    JitCode mcode = WootinJ::jit4mpi(p, pair, "run", {Value::ofF64(1.0)});
    EXPECT_THROW(mcode.set4MPI(0), UsageError);
    mcode.set4MPI(2);
    mcode.enableCopyBack(true);
    EXPECT_THROW(mcode.invoke(), UsageError);  // copy-back undefined for ranks > 1
    mcode.enableCopyBack(false);
    EXPECT_DOUBLE_EQ(4.0, mcode.invoke().asF64());  // rank 0's result
}

TEST(JitApi, InvokeWithWrongArityRejected) {
    Program p = polyProgram();
    Interp in(p);
    Value pair = in.instantiate("Pair",
                                {in.instantiate("Doubler", {}), in.instantiate("Doubler", {})});
    JitCode code = WootinJ::jit(p, pair, "run", {Value::ofF64(1.0)});
    EXPECT_THROW(code.invokeWith({}), UsageError);
    EXPECT_THROW(code.invokeWith({Value::ofF64(1.0), Value::ofF64(2.0)}), UsageError);
}

class ReturnKinds : public ::testing::TestWithParam<int> {};

TEST_P(ReturnKinds, AllPrimitiveReturnsRoundTrip) {
    // Entry methods may return any primitive; the bit-cast slot must round
    // trip exactly.
    ProgramBuilder pb;
    auto& t = pb.cls("T");
    switch (GetParam()) {
    case 0: t.method("f", Type::boolean()).body(blk(ret(cb(true)))); break;
    case 1: t.method("f", Type::i32()).body(blk(ret(ci(-123456789)))); break;
    case 2: t.method("f", Type::i64()).body(blk(ret(cl(int64_t(1) << 40)))); break;
    case 3: t.method("f", Type::f32()).body(blk(ret(cf(1.5f)))); break;
    case 4: t.method("f", Type::f64()).body(blk(ret(cd(-2.25e-3)))); break;
    }
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("T", {});
    JitCode code = WootinJ::jit(p, obj, "f", {});
    Value got = code.invoke();
    switch (GetParam()) {
    case 0: EXPECT_TRUE(got.asBool()); break;
    case 1: EXPECT_EQ(-123456789, got.asI32()); break;
    case 2: EXPECT_EQ(int64_t(1) << 40, got.asI64()); break;
    case 3: EXPECT_FLOAT_EQ(1.5f, got.asF32()); break;
    case 4: EXPECT_DOUBLE_EQ(-2.25e-3, got.asF64()); break;
    }
}

INSTANTIATE_TEST_SUITE_P(All, ReturnKinds, ::testing::Range(0, 5));
