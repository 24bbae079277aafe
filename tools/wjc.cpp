// wjc — the WootinC command-line driver.
//
//   wjc check <file.wj>                  verify the Section 3.2 coding rules
//   wjc lint <file.wj> [--Werror] [--soa]
//                                        run the dataflow analyses (definite
//                                        assignment, bounds, halo races) and
//                                        print the per-loop parallel, simd,
//                                        and layout reports
//   wjc print <file.wj>                  reformat (parse + pretty-print)
//   wjc translate <file.wj> --new EXPR --method NAME [ARGS...]
//                                        print the generated C
//   wjc run <file.wj> --new EXPR --method NAME [--ranks N] [--threads N]
//                                        [ARGS...]
//                                        jit + invoke; prints the result
//   wjc trace <file.wj> ... (same flags as run)
//                                        run with the span tracer armed;
//                                        writes <file>.trace.json (Chrome
//                                        trace-event format, open in
//                                        Perfetto) + a .metrics.json sidecar
//   wjc cache [stats|dir|clear]          inspect / clear the compile cache
//   wjc build <file.wj> --new EXPR --method NAME -o DIR [ARGS...]
//                                        AOT mode: translate + compile and
//                                        write a deployable bundle (generated
//                                        C, compiled .so, manifest.json with
//                                        the compile-cache key) into DIR.
//                                        `wjd --bundles` preloads such
//                                        bundles into the shared cache for
//                                        zero-compile cold starts.
//
// translate/run accept --no-cache to bypass the persistent compile cache
// (equivalent to WJ_CACHE=0) — useful when timing the external compiler —
// and --fault SPEC to arm the deterministic fault injector (equivalent to
// WJ_FAULT=SPEC; grammar in src/fault/fault.h). --threads N turns on the
// analysis-proven parallel-for and parallel-reduce codegen (WJ_PARALLEL=1)
// and sizes the intra-rank worker pool (WJ_THREADS=N); results are
// bitwise-identical across every N (and bitwise-equal to the serial run
// for dependence-free loops and short reductions — see wjrt.h for the
// reduction determinism contract). --simd (WJ_SIMD=1) additionally emits
// `#pragma omp simd` for every loop the vectorization-legality prover
// cleared, with restrict-qualified pointer hoists and runtime overlap
// guards; the output stays bitwise-equal to the scalar translation.
// --trace FILE (run/trace) overrides the trace destination, equivalent to
// WJ_TRACE=FILE.
//
// EXPR is a composition expression, the textual form of Listing 2's main
// method: nested constructor calls with int/float/double literals, e.g.
//     --new 'PiEstimator(HashSampler())'
//     --new 'StencilCPU3DDblB(Dif3DSolver(), DiffusionQuantity(0.4f,0.1f,
//            0.1f,0.1f,0.1f,0.1f,0.1f), FloatGridDblB(8,8,8), 42)'
// Remaining ARGS are the entry-method arguments (int/long/float/double by
// suffix and form).
//
// Exit codes: 0 clean, 1 violations or execution failure, 2 usage or parse
// error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "fault/fault.h"
#include "frontend/composition.h"
#include "frontend/lexer.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "ir/printer.h"
#include "jit/cache.h"
#include "jit/jit.h"
#include "rules/rules.h"
#include "service/bundle.h"
#include "trace/trace.h"

using namespace wj;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  wjc check <file.wj>\n"
                 "  wjc lint <file.wj> [--Werror] [--soa]\n"
                 "  wjc print <file.wj>\n"
                 "  wjc translate <file.wj> --new EXPR --method NAME [--no-cache]\n"
                 "                [--threads N] [--simd] [--soa] [--fault SPEC] [ARGS...]\n"
                 "  wjc run <file.wj> --new EXPR --method NAME [--ranks N] [--threads N]\n"
                 "                [--simd] [--soa] [--no-cache] [--fault SPEC] [--trace FILE]\n"
                 "                [--transport threads|proc] [ARGS...]\n"
                 "  wjc trace <file.wj> ...           (run with the span tracer armed)\n"
                 "  wjc build <file.wj> --new EXPR --method NAME -o DIR\n"
                 "                [--threads N] [--simd] [--soa] [ARGS...]\n"
                 "  wjc cache [stats|dir|clear]\n");
    return 2;
}

int cacheMain(int argc, char** argv) {
    const std::string sub = argc > 2 ? argv[2] : "stats";
    JitCache& cache = JitCache::instance();
    if (sub == "dir") {
        std::printf("%s\n", cache.dir().c_str());
        return 0;
    }
    if (sub == "clear") {
        cache.clearDisk();
        std::printf("cleared %s\n", cache.dir().c_str());
        return 0;
    }
    if (sub != "stats") return usage();
    size_t entries = 0;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(cache.dir(), ec)) {
        if (e.path().extension() == ".so") ++entries;
    }
    std::printf("dir:       %s\n", cache.dir().c_str());
    std::printf("enabled:   %s\n", cache.enabled() ? "yes" : "no (WJ_CACHE=0)");
    std::printf("entries:   %zu\n", entries);
    std::printf("bytes:     %llu of %llu max\n",
                static_cast<unsigned long long>(cache.diskBytes()),
                static_cast<unsigned long long>(cache.maxBytes()));
    return 0;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw UsageError("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void printResult(const Value& v) {
    if (v.isVoid()) std::printf("(void)\n");
    else if (v.isBool()) std::printf("%s\n", v.asBool() ? "true" : "false");
    else if (v.isI32()) std::printf("%d\n", v.asI32());
    else if (v.isI64()) std::printf("%lld\n", static_cast<long long>(v.asI64()));
    else if (v.isF32()) std::printf("%.9g\n", static_cast<double>(v.asF32()));
    else if (v.isF64()) std::printf("%.17g\n", v.asF64());
}

int runMain(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "cache") return cacheMain(argc, argv);
    if (argc < 3) return usage();
    const std::string path = argv[2];

    if (cmd == "check") {
        Program p = frontend::parseProgram(slurp(path));
        auto vs = verifyCodingRules(p);
        if (vs.empty()) {
            std::printf("%s: all @WootinJ classes satisfy the coding rules\n", path.c_str());
            return 0;
        }
        for (const auto& v : vs) std::printf("%s\n", v.str().c_str());
        return 1;
    }
    if (cmd == "lint") {
        bool werror = false;
        // --soa: the simd report shows the verdicts the translator would see
        // under the SoA layout (WJ_SOA=1; element-path loops flip from
        // "vectorizable under --soa" to Vectorizable).
        bool soa = false;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--Werror") == 0) werror = true;
            else if (std::strcmp(argv[i], "--soa") == 0) soa = true;
            else return usage();
        }
        Program p = frontend::parseProgram(slurp(path));
        analysis::Result r = analysis::lintProgram(p, soa);
        for (const auto& v : r.errors) std::printf("error: %s\n", v.str().c_str());
        for (const auto& v : r.warnings)
            std::printf("%s: %s\n", werror ? "error" : "warning", v.str().c_str());
        // The per-loop verdicts of the dependence prover: which counted
        // loops the translator may fan out across the thread pool, and why
        // the rest stay serial. Informational — never affects the exit code.
        for (const auto& line : r.parallelReport) std::printf("parallel: %s\n", line.c_str());
        // Likewise the vectorization-legality verdicts (proveVectors): which
        // innermost loops --simd may emit as `#pragma omp simd`, which need a
        // runtime overlap guard, and why the rest stay scalar.
        for (const auto& line : r.vectorReport) std::printf("simd: %s\n", line.c_str());
        // And the AoS->SoA layout verdicts (proveLayout): which element
        // classes --soa may split into per-field lanes, and what use boxes
        // the rest.
        for (const auto& line : r.layoutReport) std::printf("layout: %s\n", line.c_str());
        const bool fail = !r.errors.empty() || (werror && !r.warnings.empty());
        if (!fail)
            std::printf("%s: %d array accesses proven safe, %d unproven; no defects found\n",
                        path.c_str(), r.safeAccesses, r.unknownAccesses);
        return fail ? 1 : 0;
    }
    if (cmd == "print") {
        Program p = frontend::parseProgram(slurp(path));
        std::fputs(printProgram(p).c_str(), stdout);
        return 0;
    }
    if (cmd != "translate" && cmd != "run" && cmd != "trace" && cmd != "build") return usage();

    std::string newExpr, method, traceOut, outDir;
    int ranks = 0;
    std::vector<Value> args;
    Program prog = frontend::parseProgram(slurp(path));
    Interp in(prog);
    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--new" && i + 1 < argc) newExpr = argv[++i];
        else if (a == "--method" && i + 1 < argc) method = argv[++i];
        else if (a == "--ranks" && i + 1 < argc) ranks = std::atoi(argv[++i]);
        else if (a == "--threads" && i + 1 < argc) {
            // Opting into threads opts into the parallel codegen too; the
            // translation is thread-count-independent, so the cache key only
            // changes with WJ_PARALLEL, not with N.
            setenv("WJ_THREADS", argv[++i], 1);
            setenv("WJ_PARALLEL", "1", 1);
        }
        else if (a == "--simd") {
            // WJ_SIMD=1: emit `#pragma omp simd` loops (with restrict
            // pointer hoists and runtime overlap guards) for every loop the
            // proveVectors pass cleared. Orthogonal to --threads; the
            // generated C stays thread-count independent either way.
            setenv("WJ_SIMD", "1", 1);
        }
        else if (a == "--soa") {
            // WJ_SOA=1: store arrays of Inline-verdict element classes
            // (proveLayout) as per-field lane regions. Composes with
            // --threads/--simd; results stay bitwise-identical.
            setenv("WJ_SOA", "1", 1);
        }
        else if (a == "--no-cache") setenv("WJ_CACHE", "0", 1);
        else if (a == "--transport" && i + 1 < argc) {
            // Address-space strategy for --ranks worlds: 'threads' (default)
            // or 'proc' (ranks as forked processes — see wjrun). A bad value
            // is a usage error (exit 2).
            const std::string t = argv[++i];
            if (t != "threads" && t != "proc") {
                throw UsageError("--transport must be 'threads' or 'proc', got '" + t + "'");
            }
            setenv("WJ_TRANSPORT", t.c_str(), 1);
        }
        else if (a == "--trace" && i + 1 < argc) traceOut = argv[++i];
        else if (a == "-o" && i + 1 < argc) outDir = argv[++i];
        else if (a == "--fault" && i + 1 < argc) {
            // Same grammar as WJ_FAULT; a malformed spec is a usage error
            // (exit 2), an injected fault during run is an execution
            // failure (exit 1).
            fault::FaultPlan::instance().configure(argv[++i]);
            std::fprintf(stderr, "wjc: fault plan: %s\n",
                         fault::FaultPlan::instance().describe().c_str());
        }
        else args.push_back(frontend::parseArgLiteral(a));
    }
    if (newExpr.empty() || method.empty()) return usage();
    if (cmd == "trace" && traceOut.empty()) {
        traceOut = std::filesystem::path(path).stem().string() + ".trace.json";
    }
    if (!traceOut.empty()) trace::Tracer::instance().enable(traceOut);

    Value receiver = frontend::parseComposition(in, newExpr);
    if (cmd == "build") {
        if (outDir.empty()) return usage();
        requireCodingRules(prog);
        Translation tr = translate(prog, receiver, method, args);
        const std::string tag =
            std::filesystem::path(path).stem().string() + "." + method;
        service::BundleInfo info = service::writeBundle(outDir, tr, tag);
        std::printf("bundle: %s\n", info.dir.c_str());
        std::printf("key:    %016llx\n", static_cast<unsigned long long>(info.key));
        std::printf("entry:  %s\n", info.entrySymbol.c_str());
        return 0;
    }
    JitCode code = ranks > 0 ? WootinJ::jit4mpi(prog, receiver, method, args)
                             : WootinJ::jit(prog, receiver, method, args);
    if (ranks > 0) code.set4MPI(ranks);

    if (cmd == "translate") {
        std::fputs(code.generatedC().c_str(), stdout);
        std::fprintf(stderr,
                     "// %lld specializations, %lld devirtualized calls, %lld kernels, "
                     "%lld parallel loops, %lld reduction loops, %lld vector loops, "
                     "%lld soa arrays, %lld fused loops\n",
                     static_cast<long long>(code.specializations()),
                     static_cast<long long>(code.devirtualizedCalls()),
                     static_cast<long long>(code.kernels()),
                     static_cast<long long>(code.parallelLoops()),
                     static_cast<long long>(code.reduceLoops()),
                     static_cast<long long>(code.vectorLoops()),
                     static_cast<long long>(code.soaArrays()),
                     static_cast<long long>(code.fusedLoops()));
        // The fusion pass's verdicts (--threads): which producer/consumer
        // loop pairs share one dispatch, and why the rest do not.
        for (const auto& line : code.fusionReport()) std::fprintf(stderr, "// %s\n", line.c_str());
        return 0;
    }
    Value result = code.invoke();
    printResult(result);
    if (!traceOut.empty() && trace::Tracer::instance().flush()) {
        std::fprintf(stderr, "wjc: trace written to %s (+ %s.metrics.json)\n",
                     traceOut.c_str(), traceOut.c_str());
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return runMain(argc, argv);
    } catch (const RuleViolationError& e) {
        std::fprintf(stderr, "coding-rule violations:\n%s\n", e.what());
        return 1;
    } catch (const AnalysisError& e) {
        std::fprintf(stderr, "analysis errors:\n%s\n", e.what());
        return 1;
    } catch (const UsageError& e) {
        // Bad CLI input or a .wj parse error — distinct from a program that
        // parsed fine but has defects (exit 1).
        std::fprintf(stderr, "wjc: %s\n", e.what());
        return 2;
    } catch (const WjError& e) {
        std::fprintf(stderr, "wjc: %s\n", e.what());
        return 1;
    }
}
