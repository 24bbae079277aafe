// Tests of the dataflow-analysis framework (src/analysis/): definite
// assignment, interval/shape bounds analysis, effect summaries, and the
// communication race check — plus the two consumers: the interpreter's
// first-invoke verification and the translator's bounds-guard elision
// (WJ_BOUNDS=1 guards only accesses the interval pass could not prove).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/analysis.h"
#include "analysis/effects.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/codegen.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"

using namespace wj;
using namespace wj::dsl;

namespace {

/// Scoped WJ_BOUNDS setting; restores the previous value on destruction.
class BoundsEnv {
public:
    explicit BoundsEnv(const char* mode) {
        const char* old = std::getenv("WJ_BOUNDS");
        had_ = old != nullptr;
        if (had_) old_ = old;
        setenv("WJ_BOUNDS", mode, 1);
    }
    ~BoundsEnv() {
        if (had_) setenv("WJ_BOUNDS", old_.c_str(), 1);
        else unsetenv("WJ_BOUNDS");
    }

private:
    bool had_ = false;
    std::string old_;
};

size_t countOccurrences(const std::string& hay, const std::string& needle) {
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

bool hasError(const analysis::Result& r, const std::string& rule) {
    for (const auto& v : r.errors)
        if (v.rule == rule) return true;
    return false;
}

} // namespace

// ---------------------------------------------------------------- definite
// assignment

TEST(DefiniteAssignment, RejectsBranchOnlyStore) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::i32()).param("n", Type::i32()).body(
        blk(declUninit("sum", Type::i32()),
            ifs(gt(lv("n"), ci(0)), blk(assign("sum", lv("n")))),
            ret(lv("sum"))));
    Program p = pb.build();
    const ClassDecl& c = p.require("C");
    auto errs = analysis::checkDefiniteAssignment(c, *c.ownMethod("f"));
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0].rule, "uninit");
    EXPECT_NE(errs[0].detail.find("sum"), std::string::npos);
}

TEST(DefiniteAssignment, AcceptsStoreOnBothBranches) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::i32()).param("n", Type::i32()).body(
        blk(declUninit("sum", Type::i32()),
            ifs(gt(lv("n"), ci(0)), blk(assign("sum", lv("n"))),
                blk(assign("sum", ci(0)))),
            ret(lv("sum"))));
    Program p = pb.build();
    const ClassDecl& c = p.require("C");
    EXPECT_TRUE(analysis::checkDefiniteAssignment(c, *c.ownMethod("f")).empty());
}

TEST(DefiniteAssignment, LoopBodyStoreDoesNotDominateExit) {
    // The loop may execute zero times, so the store inside does not count.
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::i32()).param("n", Type::i32()).body(
        blk(declUninit("last", Type::i32()),
            forRange("i", ci(0), lv("n"), blk(assign("last", lv("i")))),
            ret(lv("last"))));
    Program p = pb.build();
    const ClassDecl& c = p.require("C");
    auto errs = analysis::checkDefiniteAssignment(c, *c.ownMethod("f"));
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_EQ(errs[0].rule, "uninit");
}

TEST(DefiniteAssignment, InterpreterRejectsOnFirstInvoke) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::i32()).param("n", Type::i32()).body(
        blk(declUninit("x", Type::i32()),
            ifs(gt(lv("n"), ci(0)), blk(assign("x", ci(1)))),
            ret(lv("x"))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("C", {});
    // Rejected up front — even though n > 0 would make this run assign x.
    EXPECT_THROW(in.call(obj, "f", {Value::ofI32(5)}), AnalysisError);
}

TEST(DefiniteAssignment, BackwardLivenessWarnsOnDeadStore) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::i32()).param("n", Type::i32()).body(
        blk(decl("x", Type::i32(), ci(0)),
            assign("x", ci(5)),  // overwritten before any read
            assign("x", add(lv("n"), ci(1))),
            ret(lv("x"))));
    Program p = pb.build();
    const ClassDecl& c = p.require("C");
    std::vector<Violation> warnings;
    auto errs = analysis::checkDefiniteAssignment(c, *c.ownMethod("f"), &warnings);
    EXPECT_TRUE(errs.empty());
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_EQ(warnings[0].rule, "dead-store");
}

// ---------------------------------------------------------------- interval /
// bounds

TEST(Bounds, ConstantOobIsLintError) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::f32()).body(
        blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(4))),
            ret(aget(lv("a"), ci(7)))));
    Program p = pb.build();
    analysis::Result r = analysis::lintProgram(p);
    EXPECT_TRUE(hasError(r, "bounds"));
}

TEST(Bounds, LocalLoopOverOwnArrayProvenSafe) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::f32()).body(
        blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(8))),
            forRange("i", ci(0), ci(8), blk(aset(lv("a"), lv("i"), cf(1.0f)))),
            ret(aget(lv("a"), ci(0)))));
    Program p = pb.build();
    analysis::Result r = analysis::lintProgram(p);
    EXPECT_TRUE(r.errors.empty());
    EXPECT_EQ(r.unknownAccesses, 0);
    EXPECT_EQ(r.safeAccesses, 2);  // the loop store and the final load
}

TEST(Bounds, EntryAnalysisRejectsProvenOob) {
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::f32()).body(
        blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(4))),
            ret(aget(lv("a"), ci(7)))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("C", {});
    // The mandatory pre-translation analysis refuses to compile it.
    EXPECT_THROW(WootinJ::jit(p, obj, "f", {}), AnalysisError);
}

TEST(Bounds, StencilInteriorLoopsNeedNoGuards) {
    BoundsEnv env("1");
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCpuRunner(in, 8, 8, 8,
                                          stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f),
                                          42);
    Translation t = translate(p, runner, "run", {Value::ofI32(3)});
    // The headline property: with the interval pass on, the diffusion
    // stencil (triple-nested interior loop, clamped neighbor indexing)
    // compiles with ZERO runtime bounds guards.
    EXPECT_EQ(t.boundsGuards, 0);
    EXPECT_GT(t.boundsElided, 0);
    // Only the wj_chk definition appears, no call sites.
    EXPECT_EQ(countOccurrences(t.cSource, "wj_chk("), 1u);
}

TEST(Bounds, MatmulInteriorLoopsNeedNoGuards) {
    BoundsEnv env("1");
    Program p = matmul::buildProgram();
    Interp in(p);
    Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
    Translation t = translate(p, app, "run", {Value::ofI32(16), Value::ofI32(7)});
    EXPECT_EQ(t.boundsGuards, 0);
    EXPECT_GT(t.boundsElided, 0);
}

TEST(Bounds, GuardModeAllGuardsEveryAccess) {
    BoundsEnv env("all");
    Program p = stencil::buildProgram();
    Interp in(p);
    Value runner = stencil::makeCpuRunner(in, 8, 8, 8,
                                          stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f),
                                          42);
    Translation t = translate(p, runner, "run", {Value::ofI32(3)});
    EXPECT_GT(t.boundsGuards, 0);
    EXPECT_EQ(t.boundsElided, 0);
}

TEST(Bounds, GuardTrapsOnRuntimeOob) {
    BoundsEnv env("1");
    // The index is a float->int cast, which the interval pass treats as
    // unknown — so a guard is emitted, and at runtime it trips.
    ProgramBuilder pb;
    pb.cls("C").method("f", Type::f32()).body(
        blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(4))),
            ret(aget(lv("a"), cast(Type::i32(), cf(7.0f))))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("C", {});
    JitCode code = WootinJ::jit(p, obj, "f", {});
    EXPECT_GT(code.boundsGuards(), 0);
    EXPECT_THROW(code.invoke(), ExecError);
}

TEST(Bounds, DifferentialGuardedVsUnguardedResultsAgree) {
    ProgramBuilder pb;
    pb.cls("C").method("run", Type::f64()).param("n", Type::i32()).body(
        blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), lv("n"))),
            forRange("i", ci(0), lv("n"),
                     blk(aset(lv("a"), lv("i"), intr(Intrinsic::RngHashF32, ci(3), lv("i"))))),
            decl("s", Type::f64(), cd(0.0)),
            forRange("i", ci(0), lv("n"),
                     blk(assign("s", add(lv("s"), cast(Type::f64(), aget(lv("a"), lv("i"))))))),
            ret(lv("s"))));
    Program p = pb.build();
    Interp in(p);
    Value obj = in.instantiate("C", {});
    double unguarded, guarded;
    {
        BoundsEnv env("0");
        unguarded = WootinJ::jit(p, obj, "run", {Value::ofI32(64)}).invoke().asF64();
    }
    {
        BoundsEnv env("all");
        JitCode code = WootinJ::jit(p, obj, "run", {Value::ofI32(64)});
        EXPECT_GT(code.boundsGuards(), 0);
        guarded = code.invoke().asF64();
    }
    EXPECT_DOUBLE_EQ(unguarded, guarded);
}

TEST(Bounds, DifferentialDiffusionAcrossGuardModes) {
    // The paper-listing diffusion stencil, jitted under every WJ_BOUNDS
    // mode — guard placement must never change the numerics.
    Program p = stencil::buildProgram();
    Interp in(p);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    Value runner = stencil::makeCpuRunner(in, 8, 8, 8, coeffs, 42);
    const double expect = stencil::referenceDiffusion3D(8, 8, 8, coeffs, 42, 2);
    for (const char* mode : {"0", "1", "all"}) {
        BoundsEnv env(mode);
        JitCode code = WootinJ::jit(p, runner, "run", {Value::ofI32(2)});
        EXPECT_DOUBLE_EQ(expect, code.invoke().asF64()) << "WJ_BOUNDS=" << mode;
    }
}

// ---------------------------------------------------------------- race check

namespace {

/// A class whose `race` method writes the buffer while a nonblocking
/// receive into it is in flight; `clean` waits first.
Program haloProgram() {
    ProgramBuilder pb;
    auto& c = pb.cls("Halo");
    c.method("race", Type::f32()).body(
        blk(decl("h", Type::array(Type::f32()), newArr(Type::f32(), ci(16))),
            decl("req", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("h"), ci(0), ci(8), ci(0), ci(7))),
            aset(lv("h"), ci(3), cf(1.0f)),
            exprS(intr(Intrinsic::MpiWait, lv("req"))),
            ret(aget(lv("h"), ci(3)))));
    c.method("clean", Type::f32()).body(
        blk(decl("h", Type::array(Type::f32()), newArr(Type::f32(), ci(16))),
            decl("req", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("h"), ci(0), ci(8), ci(0), ci(7))),
            exprS(intr(Intrinsic::MpiWait, lv("req"))),
            aset(lv("h"), ci(3), cf(1.0f)),
            ret(aget(lv("h"), ci(3)))));
    c.method("disjoint", Type::f32()).body(
        // Write beyond the received region [0, 8) — no overlap, no race.
        blk(decl("h", Type::array(Type::f32()), newArr(Type::f32(), ci(16))),
            decl("req", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("h"), ci(0), ci(8), ci(0), ci(7))),
            aset(lv("h"), ci(12), cf(1.0f)),
            exprS(intr(Intrinsic::MpiWait, lv("req"))),
            ret(aget(lv("h"), ci(12)))));
    c.method("twice", Type::f32()).body(
        // Two receives into [0, 8) and [4, 12) of one buffer at once.
        blk(decl("h", Type::array(Type::f32()), newArr(Type::f32(), ci(16))),
            decl("r1", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("h"), ci(0), ci(8), ci(0), ci(7))),
            decl("r2", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("h"), ci(4), ci(8), ci(0), ci(8))),
            exprS(intr(Intrinsic::MpiWait, lv("r1"))),
            exprS(intr(Intrinsic::MpiWait, lv("r2"))),
            ret(aget(lv("h"), ci(0)))));
    return pb.build();
}

} // namespace

TEST(RaceCheck, FlagsWriteOverlappingInflightReceive) {
    Program p = haloProgram();
    analysis::Result r = analysis::lintProgram(p);
    ASSERT_TRUE(hasError(r, "halo-race"));
    bool inRace = false;
    for (const auto& v : r.errors)
        if (v.rule == "halo-race" && v.where.find("Halo.race") != std::string::npos)
            inRace = true;
    EXPECT_TRUE(inRace);
    bool twice = false;
    for (const auto& v : r.errors)
        if (v.where == "Halo.twice" &&
            v.detail == "two nonblocking receives into overlapping region [4, 11] of the same buffer")
            twice = true;
    EXPECT_TRUE(twice);
    // `clean` and `disjoint` are not flagged.
    for (const auto& v : r.errors) {
        EXPECT_EQ(v.where.find("Halo.clean"), std::string::npos) << v.str();
        EXPECT_EQ(v.where.find("Halo.disjoint"), std::string::npos) << v.str();
    }
}

namespace {

/// `a` is stored while its receive is in flight; the wait on `b`'s request
/// comes first. With `helper`, both requests pass through `this.pass(r)`,
/// which returns its argument, so the two calls differ only in the request
/// token their argument carries.
Program haloHelperProgram(bool helper) {
    ProgramBuilder pb;
    auto& c = pb.cls("Halo2");
    c.method("pass", Type::i32()).param("r", Type::i32()).body(blk(ret(lv("r"))));
    auto route = [&](const char* req) { return helper ? call(self(), "pass", lv(req)) : lv(req); };
    c.method("race", Type::f32()).body(
        blk(decl("a", Type::array(Type::f32()), newArr(Type::f32(), ci(16))),
            decl("b", Type::array(Type::f32()), newArr(Type::f32(), ci(16))),
            decl("ra", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("a"), ci(0), ci(8), ci(0), ci(7))),
            decl("rb", Type::i32(), intr(Intrinsic::MpiIrecvF32, lv("b"), ci(0), ci(8), ci(0), ci(8))),
            decl("x", Type::i32(), route("ra")),
            exprS(intr(Intrinsic::MpiWait, route("rb"))),
            aset(lv("a"), ci(3), cf(1.0f)),
            exprS(intr(Intrinsic::MpiWait, lv("x"))),
            ret(aget(lv("a"), ci(3)))));
    return pb.build();
}

} // namespace

TEST(RaceCheck, RequestThroughHelperCallKeepsItsToken) {
    // The call memo must tell the two `pass` calls apart by the request
    // token set, not by its size: reusing the first call's result would let
    // the wait on `b` complete `a`'s receive and hide the race.
    const analysis::Result direct = analysis::lintProgram(haloHelperProgram(false));
    const analysis::Result viaHelper = analysis::lintProgram(haloHelperProgram(true));
    ASSERT_TRUE(hasError(direct, "halo-race"));
    ASSERT_EQ(direct.errors.size(), viaHelper.errors.size());
    for (size_t i = 0; i < direct.errors.size(); ++i)
        EXPECT_EQ(direct.errors[i].str(), viaHelper.errors[i].str());
    EXPECT_EQ(direct.warnings.size(), viaHelper.warnings.size());
}

TEST(RaceCheck, StencilLibraryLintsClean) {
    // Includes StencilCPU3D_MPI_Overlap, whose whole point is writing the
    // interior while halo receives are in flight — the region reasoning
    // must keep it clean.
    Program p = stencil::buildProgram();
    analysis::Result r = analysis::lintProgram(p);
    for (const auto& v : r.errors) ADD_FAILURE() << v.str();
    EXPECT_TRUE(r.errors.empty());
}

TEST(RaceCheck, MatmulLibraryLintsClean) {
    Program p = matmul::buildProgram();
    analysis::Result r = analysis::lintProgram(p);
    for (const auto& v : r.errors) ADD_FAILURE() << v.str();
    EXPECT_TRUE(r.errors.empty());
}

// ---------------------------------------------------------------- effects

TEST(Effects, VirtualCallJoinsAllImplementations) {
    ProgramBuilder pb;
    {
        auto& c = pb.cls("Op").interfaceClass();
        c.method("apply", Type::voidTy()).param("a", Type::array(Type::f32())).abstractMethod();
    }
    {
        auto& c = pb.cls("WriteOp").implements("Op").finalClass();
        c.method("apply", Type::voidTy()).param("a", Type::array(Type::f32()))
            .body(blk(aset(lv("a"), ci(0), cf(1.0f))));
    }
    {
        auto& c = pb.cls("ReadOp").implements("Op").finalClass();
        c.field("acc", Type::f32());
        c.method("apply", Type::voidTy()).param("a", Type::array(Type::f32()))
            .body(blk(setf(self(), "acc", aget(lv("a"), ci(0))), retVoid()));
    }
    {
        auto& c = pb.cls("Driver");
        c.field("op", Type::cls("Op"));
        c.ctor().param("op_", Type::cls("Op")).body(blk(setf(self(), "op", lv("op_"))));
        c.method("runBoth", Type::voidTy()).param("buf", Type::array(Type::f32()))
            .body(blk(exprS(call(getf(self(), "op"), "apply", lv("buf"))), retVoid()));
    }
    Program p = pb.build();
    auto eff = analysis::computeEffects(p);
    const Method* runBoth = p.require("Driver").ownMethod("runBoth");
    ASSERT_TRUE(eff.count(runBoth));
    // The virtual call could dispatch to either implementation, so the
    // summary is the join: buf may be read AND written.
    EXPECT_TRUE(eff.at(runBoth).readsParams.count(0));
    EXPECT_TRUE(eff.at(runBoth).writesParams.count(0));
    EXPECT_FALSE(eff.at(runBoth).writesUnknown);
    EXPECT_FALSE(eff.at(runBoth).usesComm());
}

TEST(Effects, CommunicationReachesCallerSummaries) {
    Program p = stencil::buildProgram();
    auto eff = analysis::computeEffects(p);
    // The overlapped MPI runner posts nonblocking receives and waits; its
    // run() must inherit that through the call chain.
    const Method* run = p.resolveMethod("StencilCPU3D_MPI_Overlap", "run");
    ASSERT_NE(run, nullptr);
    ASSERT_TRUE(eff.count(run));
    EXPECT_TRUE(eff.at(run).postsIrecv);
    EXPECT_TRUE(eff.at(run).waits);
    EXPECT_TRUE(eff.at(run).usesComm());
    // The sequential runner's run() performs no communication at all.
    const Method* seqRun = p.resolveMethod("StencilCPU3DDblB", "run");
    ASSERT_NE(seqRun, nullptr);
    ASSERT_TRUE(eff.count(seqRun));
    EXPECT_FALSE(eff.at(seqRun).usesComm());
}
