#include "common.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <future>
#include <vector>

#include "baselines/diffusion_baselines.h"
#include "baselines/matmul_baselines.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "stencil/stencil_lib.h"
#include "support/timer.h"
#include "trace/trace.h"

namespace wjbench {

using namespace wj;

namespace {

/// The per-figure machine-readable report (see common.h for the schema).
/// parseArgs() names the file after the binary, banner() supplies the
/// figure id and arms the exit-time flush.
struct JsonReport {
    std::string file;    ///< BENCH_<name>.json; empty until parseArgs()
    std::string figure;  ///< banner()'s figure id; empty until banner()
    struct Row {
        std::string config;
        double medianNs = 0;
        int threads = 1;
        int ranks = 1;
    };
    std::vector<Row> rows;
    bool armed = false;
};

JsonReport& jsonReport() {
    static JsonReport r;
    return r;
}

std::string jsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

void flushJsonReport() {
    const JsonReport& r = jsonReport();
    if (r.file.empty()) return;
    FILE* f = std::fopen(r.file.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench: cannot write %s\n", r.file.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"rows\": [", jsonEscape(r.figure).c_str());
    for (size_t i = 0; i < r.rows.size(); ++i) {
        const JsonReport::Row& row = r.rows[i];
        std::fprintf(f,
                     "%s\n    { \"config\": \"%s\", \"median_ns\": %.17g, "
                     "\"threads\": %d, \"ranks\": %d }",
                     i ? "," : "", jsonEscape(row.config).c_str(), row.medianNs, row.threads,
                     row.ranks);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "rows persisted to %s\n", r.file.c_str());
}

} // namespace

void jsonRow(const std::string& config, double medianNs, int threads, int ranks) {
    jsonReport().rows.push_back({config, medianNs, threads, ranks});
}

std::vector<ReportRow> loadReportRows(const std::string& path) {
    // Minimal scanner for the machine-written schema above: find each row
    // object and pull its four members. Anything unexpected aborts to an
    // empty result (the caller's inline-measurement fallback).
    std::vector<ReportRow> out;
    FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return out;
    std::string s;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, got);
    std::fclose(f);

    const auto member = [&](size_t obj, const char* name) -> size_t {
        const std::string key = std::string("\"") + name + "\":";
        const size_t end = s.find('}', obj);
        const size_t at = s.find(key, obj);
        if (at == std::string::npos || end == std::string::npos || at > end)
            return std::string::npos;
        return at + key.size();
    };
    size_t pos = s.find("\"rows\"");
    if (pos == std::string::npos) return out;
    while ((pos = s.find('{', pos)) != std::string::npos) {
        ReportRow r;
        const size_t cfg = member(pos, "config");
        const size_t med = member(pos, "median_ns");
        if (cfg == std::string::npos || med == std::string::npos) return {};
        const size_t q0 = s.find('"', cfg);
        const size_t q1 = q0 == std::string::npos ? q0 : s.find('"', q0 + 1);
        if (q1 == std::string::npos) return {};
        r.config = s.substr(q0 + 1, q1 - q0 - 1);
        r.medianNs = std::strtod(s.c_str() + med, nullptr);
        if (const size_t t = member(pos, "threads"); t != std::string::npos)
            r.threads = static_cast<int>(std::strtol(s.c_str() + t, nullptr, 10));
        if (const size_t k = member(pos, "ranks"); k != std::string::npos)
            r.ranks = static_cast<int>(std::strtol(s.c_str() + k, nullptr, 10));
        out.push_back(std::move(r));
        pos = s.find('}', pos);
        if (pos == std::string::npos) break;
    }
    return out;
}

Options parseArgs(int argc, char** argv) {
    Options o;
    {
        // Name the JSON report after the binary: bench_abl_threads ->
        // BENCH_abl_threads.json (written into the working directory).
        std::string base = argv[0];
        const size_t slash = base.find_last_of('/');
        if (slash != std::string::npos) base = base.substr(slash + 1);
        if (base.rfind("bench_", 0) == 0) base = base.substr(6);
        jsonReport().file = "BENCH_" + base + ".json";
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            o.full = true;
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            o.smoke = true;
        } else if (std::strncmp(argv[i], "--trace", 7) == 0) {
            if (argv[i][7] == '=' && argv[i][8]) {
                o.traceFile = argv[i] + 8;
            } else {
                // Default: one trace per figure, named after the binary.
                std::string base = argv[0];
                const size_t slash = base.find_last_of('/');
                if (slash != std::string::npos) base = base.substr(slash + 1);
                o.traceFile = base + ".trace.json";
            }
        }
    }
    if (!o.traceFile.empty()) {
        wj::trace::Tracer::instance().enable(o.traceFile);
        std::fprintf(stderr, "tracing to %s (+ %s.metrics.json)\n", o.traceFile.c_str(),
                     o.traceFile.c_str());
    }
    return o;
}

void banner(const char* fig, const char* what, const char* method) {
    std::printf("== %s ==\n%s\n[%s]\n\n", fig, what, method);
    JsonReport& r = jsonReport();
    r.figure = fig;
    if (!r.armed) {
        r.armed = true;
        std::atexit(flushJsonReport);
    }
}

namespace {

constexpr int kSeed = 7;

/// Best-of-3 marginal cost: (t(hi) - t(lo)) / (hi - lo) per unit of work.
template <typename Fn>
double marginal(Fn&& run, int lo, int hi, double unitsPerStep) {
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
        Timer t;
        run(lo);
        const double tLo = t.seconds();
        t.reset();
        run(hi);
        const double tHi = t.seconds();
        best = std::min(best, (tHi - tLo) / (hi - lo));
    }
    return std::max(best, 1e-12) / unitsPerStep;
}

} // namespace

DiffusionCosts measureDiffusionCosts(bool withInterp, bool full) {
    DiffusionCosts out;
    const int n = full ? 128 : 48;
    const double cells = static_cast<double>(n) * n * n;
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const int lo = 2, hi = full ? 6 : 12;

    out.c = marginal([&](int s) { baselines::diffusionC(n, n, n, coeffs, kSeed, s); }, lo, hi,
                     cells);
    out.cppVirtual = marginal(
        [&](int s) { baselines::diffusionVirtual(n, n, n, coeffs, kSeed, s); }, lo, hi, cells);
    out.tmpl = marginal([&](int s) { baselines::diffusionTemplate(n, n, n, coeffs, kSeed, s); },
                        lo, hi, cells);
    out.tmplNoVirt = marginal(
        [&](int s) { baselines::diffusionTemplateNoVirt(n, n, n, coeffs, kSeed, s); }, lo, hi,
        cells);

    static Program prog = stencil::buildProgram();  // shared across benches
    Interp in(prog);
    Value runner = stencil::makeCpuRunner(in, n, n, n, coeffs, kSeed);
    JitCode code = WootinJ::jit(prog, runner, "run", {Value::ofI32(1)});
    out.wootinj = marginal([&](int s) { code.invokeWith({Value::ofI32(s)}); }, lo, hi, cells);

    if (withInterp) {
        const int ni = full ? 20 : 12;
        Value small = stencil::makeCpuRunner(in, ni, ni, ni, coeffs, kSeed);
        out.interp = marginal([&](int s) { in.call(small, "run", {Value::ofI32(s)}); }, 1, 3,
                              static_cast<double>(ni) * ni * ni);
    }
    jsonRow("diffusion ns/cell-step: wootinj", out.wootinj * 1e9);
    jsonRow("diffusion ns/cell-step: c", out.c * 1e9);
    jsonRow("diffusion ns/cell-step: cpp-virtual", out.cppVirtual * 1e9);
    jsonRow("diffusion ns/cell-step: template", out.tmpl * 1e9);
    jsonRow("diffusion ns/cell-step: template-novirt", out.tmplNoVirt * 1e9);
    if (withInterp) jsonRow("diffusion ns/cell-step: interp", out.interp * 1e9);
    return out;
}

MatmulCosts measureMatmulCosts(bool withInterp, bool full) {
    MatmulCosts out;
    const int n1 = full ? 256 : 96;
    const int n2 = full ? 384 : 160;
    const double fmaDiff = static_cast<double>(n2) * n2 * n2 - static_cast<double>(n1) * n1 * n1;

    auto perFma = [&](auto&& fn) {
        double best = 1e100;
        for (int rep = 0; rep < 3; ++rep) {
            Timer t;
            fn(n1);
            const double t1 = t.seconds();
            t.reset();
            fn(n2);
            const double t2 = t.seconds();
            best = std::min(best, (t2 - t1) / fmaDiff);
        }
        return std::max(best, 1e-13);
    };

    out.c = perFma([&](int n) { baselines::matmulC(n, kSeed, kSeed + 1); });
    out.cppVirtual = perFma([&](int n) { baselines::matmulVirtual(n, kSeed, kSeed + 1); });
    out.tmpl = perFma([&](int n) { baselines::matmulTemplate(n, kSeed, kSeed + 1); });
    out.tmplNoVirt = perFma([&](int n) { baselines::matmulTemplateNoVirt(n, kSeed, kSeed + 1); });

    static Program prog = matmul::buildProgram();
    Interp in(prog);
    Value app = matmul::makeCpuApp(in, matmul::Calc::Optimized);
    JitCode code = WootinJ::jit(prog, app, "run", {Value::ofI32(n1), Value::ofI32(kSeed)});
    out.wootinj =
        perFma([&](int n) { code.invokeWith({Value::ofI32(n), Value::ofI32(kSeed)}); });

    if (withInterp) {
        const int m1 = 12, m2 = 20;
        const double df = static_cast<double>(m2) * m2 * m2 - static_cast<double>(m1) * m1 * m1;
        Value iapp = matmul::makeCpuApp(in, matmul::Calc::Optimized);
        Timer t;
        in.call(iapp, "run", {Value::ofI32(m1), Value::ofI32(kSeed)});
        const double t1 = t.seconds();
        t.reset();
        in.call(iapp, "run", {Value::ofI32(m2), Value::ofI32(kSeed)});
        out.interp = (t.seconds() - t1) / df;
    }
    jsonRow("matmul ns/fma: wootinj", out.wootinj * 1e9);
    jsonRow("matmul ns/fma: c", out.c * 1e9);
    jsonRow("matmul ns/fma: cpp-virtual", out.cppVirtual * 1e9);
    jsonRow("matmul ns/fma: template", out.tmpl * 1e9);
    jsonRow("matmul ns/fma: template-novirt", out.tmplNoVirt * 1e9);
    if (withInterp) jsonRow("matmul ns/fma: interp", out.interp * 1e9);
    return out;
}

double measureGpuDiffusionPerCell(bool full) {
    const int n = full ? 64 : 32;
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    static Program prog = stencil::buildProgram();
    Interp in(prog);
    Value runner = stencil::makeGpuRunner(in, n, n, n, coeffs, kSeed, 128);
    JitCode code = WootinJ::jit(prog, runner, "run", {Value::ofI32(1)});
    const double perCell = marginal([&](int s) { code.invokeWith({Value::ofI32(s)}); }, 1, 5,
                                    static_cast<double>(n) * n * n);
    jsonRow("gpu diffusion ns/cell-step: wootinj", perCell * 1e9);
    return perCell;
}

namespace {

/// One Table 3 row: cold jit (fresh key), then a warm re-jit of the same
/// translation unit with the in-process registry dropped — the cost a new
/// process pays against a populated on-disk cache. Each jit gets a Program
/// and composition of its own, as a new process would: on the same Program
/// the warm jit would be served by its translation memo and skip the
/// translation a new process has to redo.
template <typename MakeReceiver>
CompileTime compileColdWarm(const char* what, Program (*build)(), MakeReceiver&& make,
                            const std::vector<Value>& args) {
    CompileTime row;
    row.what = what;
    {
        Program prog = build();
        Interp in(prog);
        JitCode c = WootinJ::jit4mpi(prog, make(in), "run", args);
        row.codegen = c.codegenSeconds();
        row.external = c.compileSeconds();
    }
    JitCache::instance().clearLoaded();
    {
        Program prog = build();
        Interp in(prog);
        JitCode c = WootinJ::jit4mpi(prog, make(in), "run", args);
        row.warmCodegen = c.codegenSeconds();
        row.warmLookup = c.cacheLookupSeconds();
        row.warmHit = c.cacheHit();
    }
    jsonRow(std::string("compile cold: ") + what, row.total() * 1e9);
    jsonRow(std::string("compile warm: ") + what, (row.warmCodegen + row.warmLookup) * 1e9);
    return row;
}

} // namespace

std::vector<CompileTime> measureCompileTimes() {
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    return {
        compileColdWarm(
            "3-D diffusion, CPU + MPI", stencil::buildProgram,
            [&](Interp& i) { return stencil::makeMpiRunner(i, 8, 8, 8, coeffs, kSeed); },
            {Value::ofI32(1)}),
        compileColdWarm(
            "3-D diffusion, GPU + MPI", stencil::buildProgram,
            [&](Interp& i) { return stencil::makeGpuMpiRunner(i, 8, 8, 8, coeffs, kSeed, 32); },
            {Value::ofI32(1)}),
        compileColdWarm(
            "matmul Fox, CPU + MPI", matmul::buildProgram,
            [&](Interp& i) { return matmul::makeMpiFoxApp(i, matmul::Calc::Optimized, 2); },
            {Value::ofI32(8), Value::ofI32(kSeed)}),
        compileColdWarm(
            "matmul Fox, GPU + MPI", matmul::buildProgram,
            [&](Interp& i) { return matmul::makeMpiFoxGpuApp(i, 2, 4); },
            {Value::ofI32(8), Value::ofI32(kSeed)}),
    };
}

ParallelCompile measureParallelCompileTimes() {
    // Force every unit cold, then overlap all four compiles on the pool.
    JitCache::instance().clearLoaded();
    JitCache::instance().clearDisk();

    Program sprog = stencil::buildProgram();
    Program mprog = matmul::buildProgram();
    Interp si(sprog), mi(mprog);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);

    Timer wall;
    std::vector<std::future<JitCode>> futs;
    futs.push_back(WootinJ::jit4mpiAsync(sprog, stencil::makeMpiRunner(si, 8, 8, 8, coeffs, kSeed),
                                         "run", {Value::ofI32(1)}));
    futs.push_back(WootinJ::jit4mpiAsync(sprog,
                                         stencil::makeGpuMpiRunner(si, 8, 8, 8, coeffs, kSeed, 32),
                                         "run", {Value::ofI32(1)}));
    futs.push_back(WootinJ::jit4mpiAsync(mprog, matmul::makeMpiFoxApp(mi, matmul::Calc::Optimized, 2),
                                         "run", {Value::ofI32(8), Value::ofI32(kSeed)}));
    futs.push_back(WootinJ::jit4mpiAsync(mprog, matmul::makeMpiFoxGpuApp(mi, 2, 4), "run",
                                         {Value::ofI32(8), Value::ofI32(kSeed)}));

    ParallelCompile out;
    for (auto& f : futs) {
        JitCode c = f.get();
        out.sumSeconds += c.totalCompilationSeconds();
        ++out.units;
    }
    out.wallSeconds = wall.seconds();
    jsonRow("compile 4 units overlapped: wall", out.wallSeconds * 1e9);
    jsonRow("compile 4 units overlapped: sum", out.sumSeconds * 1e9);
    return out;
}

} // namespace wjbench
