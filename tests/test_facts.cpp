// Per-Program analysis facts (src/analysis/facts.h): effect summaries,
// field groups, the coding-rules verdict and per-method CFGs with their
// definite-assignment findings, built once per Program and shared by every
// later analysis of it. Caching them must change nothing:
//
//   * every golden composition, in every translation config, translates to
//     the same C and analyzes to the same reports, verdict counts, errors
//     and warnings on a fresh Program as on one whose facts are warm;
//   * lint output is the same cold and warm, with and without --soa;
//   * four threads translating one fresh Program at once agree, and build
//     its facts once;
//   * 100 warm re-jits of one Program build its facts once
//     (the analysis.facts.builds counter).
//
// The facts themselves are pinned across commits by the FactsGolden tests:
// for each library composition, tests/golden/facts/<name>.facts holds the
// call graph, every method's effect summary, the layout verdicts, the
// coding-rule violations, the lint findings and the entry analysis.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/callgraph.h"
#include "analysis/effects.h"
#include "analysis/fusion.h"
#include "analysis/layout.h"
#include "cg/cg_lib.h"
#include "interp/interp.h"
#include "jit/codegen.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"
#include "rules/rules.h"
#include "trace/metrics.h"
#include "golden.h"
#include "scoped_env.h"

using namespace wj;

namespace {

using wj::test::ScopedEnv;

/// One jit() composition of the codegen goldens.
struct Composition {
    std::function<Program()> build;
    std::function<Value(Interp&)> receiver;
    std::vector<Value> args;
};

const stencil::DiffusionCoeffs kCoeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);

Composition diffusionCpu() {
    return {stencil::buildProgram,
            [](Interp& in) { return stencil::makeCpuRunner(in, 8, 8, 8, kCoeffs, 7); },
            {Value::ofI32(1)}};
}
Composition diffusionMpi() {
    return {stencil::buildProgram,
            [](Interp& in) { return stencil::makeMpiRunner(in, 8, 8, 4, kCoeffs, 7); },
            {Value::ofI32(1)}};
}
Composition cells() {
    return {stencil::buildProgram,
            [](Interp& in) { return stencil::makeCellRunner(in, 64, 0.25f, 0.5f, 11); },
            {Value::ofI32(2)}};
}
Composition matmulCpu() {
    return {matmul::buildProgram,
            [](Interp& in) { return matmul::makeCpuApp(in, matmul::Calc::Optimized); },
            {Value::ofI32(8), Value::ofI32(7)}};
}
Composition cgSolver() {
    return {cg::buildProgram, [](Interp& in) { return cg::makeCpuSolver(in); },
            {Value::ofI32(64), Value::ofI32(9), Value::ofI32(8)}};
}

bool flagOn(const char* name) {
    const char* v = std::getenv(name);
    return v && *v && std::string(v) != "0";
}

void renderLines(std::string& out, const char* tag, const std::vector<std::string>& lines) {
    for (const auto& l : lines) out += std::string(tag) + ": " + l + "\n";
}

void renderFindings(std::string& out, const analysis::Result& r) {
    for (const auto& v : r.errors) out += "error: " + v.str() + "\n";
    for (const auto& v : r.warnings) out += "warning: " + v.str() + "\n";
    renderLines(out, "parallel", r.parallelReport);
    renderLines(out, "simd", r.vectorReport);
    renderLines(out, "layout", r.layoutReport);
    renderLines(out, "fusion", r.fusionReport);
    out += "safe " + std::to_string(r.safeAccesses) + " unknown " +
           std::to_string(r.unknownAccesses) + " fused " + std::to_string(r.fusedLoops) + "\n";
}

/// The analysis translate() runs under the current WJ_* switches, as text.
std::string analysisText(const Program& p, const Value& recv, const std::vector<Value>& args) {
    const bool par = flagOn("WJ_PARALLEL"), simd = flagOn("WJ_SIMD"), soa = flagOn("WJ_SOA");
    std::string out;
    const GraphSnapshot snap(p, recv, args);
    renderFindings(out, par ? analysis::analyzeEntryFused(snap, "run", simd, soa)
                            : analysis::analyzeEntry(snap, "run", nullptr, soa));
    return out;
}

/// translate() under the current WJ_* switches: its counts, reports and C.
std::string translationText(const Program& p, const Value& recv, const std::vector<Value>& args) {
    const Translation t = translate(p, recv, "run", args);
    std::string out;
    for (const int64_t n : {t.specializations, t.devirtualizedCalls, t.inlinedObjects,
                            t.boundsGuards, t.boundsElided, t.parallelLoops, t.reduceLoops,
                            t.vectorLoops, t.fusedLoops, t.soaArrays})
        out += std::to_string(n) + " ";
    out += "\n";
    renderLines(out, "fusion", t.fusionReport);
    renderLines(out, "soa class", t.soaClasses);
    return out + t.cSource;
}

std::string bothTexts(const Program& p, const Value& recv, const std::vector<Value>& args) {
    return analysisText(p, recv, args) + translationText(p, recv, args);
}

int64_t factsBuilds() {
    return trace::Metrics::instance().counter("analysis.facts.builds").value();
}

struct Config {
    const char* bounds;
    const char* parallel;
    const char* simd;
    const char* soa;
};

const Config kConfigs[] = {
    {nullptr, nullptr, nullptr, nullptr}, {"1", nullptr, nullptr, nullptr},
    {"all", nullptr, nullptr, nullptr},   {nullptr, "1", nullptr, nullptr},
    {nullptr, nullptr, "1", nullptr},     {nullptr, "1", "1", nullptr},
    {nullptr, nullptr, nullptr, "1"},     {nullptr, "1", "1", "1"},
};

/// For every config: the analysis and translation of a fresh Program (the
/// call builds its facts) equal those of a Program whose facts are warm,
/// and that Program built its facts once.
void expectWarmEqualsCold(const Composition& c) {
    for (const Config& cfg : kConfigs) {
        ScopedEnv b("WJ_BOUNDS", cfg.bounds), p("WJ_PARALLEL", cfg.parallel),
            s("WJ_SIMD", cfg.simd), o("WJ_SOA", cfg.soa);
        SCOPED_TRACE(std::string("bounds=") + (cfg.bounds ? cfg.bounds : "-") +
                     " parallel=" + (cfg.parallel ? "1" : "-") + " simd=" +
                     (cfg.simd ? "1" : "-") + " soa=" + (cfg.soa ? "1" : "-"));
        // Cold: the analysis and the translation each on a fresh Program.
        std::string cold;
        {
            Program pa = c.build();
            Interp ia(pa);
            cold = analysisText(pa, c.receiver(ia), c.args);
        }
        {
            Program pt = c.build();
            Interp it(pt);
            cold += translationText(pt, c.receiver(it), c.args);
        }
        Program warm = c.build();
        Interp in(warm);
        const Value recv = c.receiver(in);
        const int64_t before = factsBuilds();
        bothTexts(warm, recv, c.args);
        const std::string warmText = bothTexts(warm, recv, c.args);
        EXPECT_EQ(factsBuilds() - before, 1);
        EXPECT_EQ(warmText, cold);
    }
}

std::string lintText(const Program& p, bool soa) {
    std::string out;
    renderFindings(out, analysis::lintProgram(p, soa));
    return out;
}

const char* verdictName(analysis::LayoutVerdict v) {
    switch (v) {
    case analysis::LayoutVerdict::Inline: return "inline";
    case analysis::LayoutVerdict::CondInline: return "cond-inline";
    case analysis::LayoutVerdict::Boxed: return "boxed";
    }
    return "?";
}

/// The Program-level facts of `c` and its entry analysis, as text.
std::string factsText(const Composition& c) {
    Program p = c.build();
    std::string out;
    for (const auto& [from, callees] : analysis::buildCallGraph(p, false).edges) {
        out += "call " + from + " ->";
        for (const auto& to : callees) out += " " + to;
        out += "\n";
    }
    const auto effects = analysis::computeEffects(p);
    for (const ClassDecl* cls : p.classes()) {
        for (const auto& m : cls->methods) {
            auto it = effects.find(m.get());
            if (it != effects.end()) {
                out += "effects " + cls->name + "." + m->name + ": " + it->second.str() + "\n";
            }
        }
    }
    for (const auto& [cls, l] : analysis::proveLayout(p, {}, /*lint=*/true)) {
        out += "layout " + cls + ": " + verdictName(l.verdict) + " -- " + l.reason;
        for (const auto& f : l.fields) out += " " + f.name + "@" + std::to_string(f.pre);
        out += "\n";
    }
    for (const auto& v : checkCodingRules(p)) out += "rule: " + v.str() + "\n";
    out += "-- lint\n" + lintText(p, false) + "-- lint --soa\n" + lintText(p, true);
    Interp in(p);
    const Value recv = c.receiver(in);
    out += "-- entry\n";
    renderFindings(out, analysis::analyzeEntry(p, recv, "run", c.args, nullptr, false));
    out += "-- entry fused simd soa\n";
    renderFindings(out,
                   analysis::analyzeEntryFused(GraphSnapshot(p, recv, c.args), "run", true, true));
    return out;
}

void checkFactsGolden(const std::string& name, const Composition& c) {
    test::checkGolden(std::string(WJ_GOLDEN_DIR) + "/facts", name + ".facts", factsText(c));
}

} // namespace

TEST(ProgramFacts, WarmEqualsColdDiffusionCpu) { expectWarmEqualsCold(diffusionCpu()); }
TEST(ProgramFacts, WarmEqualsColdDiffusionMpi) { expectWarmEqualsCold(diffusionMpi()); }
TEST(ProgramFacts, WarmEqualsColdCells) { expectWarmEqualsCold(cells()); }
TEST(ProgramFacts, WarmEqualsColdMatmul) { expectWarmEqualsCold(matmulCpu()); }
TEST(ProgramFacts, WarmEqualsColdCg) { expectWarmEqualsCold(cgSolver()); }

TEST(FactsGolden, DiffusionCpu) { checkFactsGolden("diffusion_cpu", diffusionCpu()); }
TEST(FactsGolden, DiffusionMpi) { checkFactsGolden("diffusion_mpi", diffusionMpi()); }
TEST(FactsGolden, Cells) { checkFactsGolden("cells", cells()); }
TEST(FactsGolden, Matmul) { checkFactsGolden("matmul", matmulCpu()); }
TEST(FactsGolden, Cg) { checkFactsGolden("cg", cgSolver()); }

TEST(ProgramFacts, LintWarmEqualsCold) {
    for (const auto& build : {stencil::buildProgram, matmul::buildProgram, cg::buildProgram}) {
        for (const bool soa : {false, true}) {
            const std::string cold = lintText(build(), soa);
            Program p = build();
            lintText(p, !soa);
            EXPECT_EQ(lintText(p, soa), cold);
        }
    }
}

TEST(ProgramFacts, ConcurrentTranslationsOfOneProgramAgree) {
    ScopedEnv p("WJ_PARALLEL", "1"), s("WJ_SIMD", "1"), b("WJ_BOUNDS", nullptr),
        o("WJ_SOA", nullptr);
    const Composition c = diffusionMpi();
    std::string expected;
    {
        Program ref = c.build();
        Interp in(ref);
        expected = bothTexts(ref, c.receiver(in), c.args);
    }
    Program prog = c.build();
    Interp in(prog);
    const Value recv = c.receiver(in);
    const int64_t before = factsBuilds();
    std::vector<std::string> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i) {
        threads.emplace_back([&, i] { got[i] = bothTexts(prog, recv, c.args); });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(factsBuilds() - before, 1);
    for (const std::string& g : got) EXPECT_EQ(g, expected);
}

TEST(ProgramFacts, WarmRejitsBuildFactsOnce) {
    ScopedEnv p("WJ_PARALLEL", nullptr), s("WJ_SIMD", nullptr), b("WJ_BOUNDS", nullptr),
        o("WJ_SOA", nullptr);
    const Composition c = diffusionCpu();
    Program prog = c.build();
    Interp in(prog);
    const Value recv = c.receiver(in);
    const int64_t before = factsBuilds();
    JitCode first = WootinJ::jit(prog, recv, "run", c.args);
    const std::string source = first.generatedC();
    for (int i = 0; i < 100; ++i) {
        JitCode again = WootinJ::jit(prog, recv, "run", c.args);
        ASSERT_EQ(again.generatedC(), source);
    }
    EXPECT_EQ(factsBuilds() - before, 1);
}
