// perfbench entry point: parses the run's options, pins every knob the
// program reads from the environment, prints the host and configuration
// stamp, runs one workload, and prints its metrics — one human-readable
// line per metric (name, value, unit, sample count) followed by the result
// as a single JSON line.
//
//   perfbench --workload diffusion|cg|wjd --seed N --seconds S --trace 0|1
//             --workdir DIR --root CHECKOUT [--smoke] [--source ID]
//
// run.py builds this binary and supplies --workdir/--root/--source.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "jit/cache.h"
#include "support/timer.h"
#include "trace/metrics.h"

extern char** environ;

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", ""},
    {"solve_ms_p10", "ms", ""},
    {"hit_ms_p10", "ms", ""},
    {"miss_ms_p50", "ms", ""},
    {"req_per_s", "1/s", ""},
    {"peak_rss_mb", "MB", ""},
};

// The p50s and p90s of invokes and hits follow the share of a run the
// shared host spends slowed (README, "Noise"), so they do not repeat across
// runs; they are reported here, ungated, from the traced run's untraced half.
const std::vector<MetricDef> kPerLayer = {
    {"solve_ms_p50", "ms", "body of solve_ms_p10 (all)"},
    {"solve_ms_p90", "ms", "tail of solve_ms_p10 (all)"},
    {"hit_ms_p50", "ms", "body of hit_ms_p10 (all)"},
    {"hit_ms_p90", "ms", "tail of hit_ms_p10 (all)"},
    {"setup.load_ms", "ms", "setup_s (diffusion, cg)"},
    {"rules.check_ms", "ms", "setup_s (all); hit_ms_p50 (wjd)"},
    {"analysis.entry_ms", "ms", "setup_s (diffusion, cg); hit_ms_p50 (wjd)"},
    {"jit.codegen.translate_ms", "ms", "setup_s (diffusion, cg); hit_ms_p50 (wjd)"},
    {"jit.codegen.self_ms", "ms", "setup_s (diffusion, cg); hit_ms_p50 (wjd)"},
    {"jit.codegen.c_kb", "KiB", "jit.compile.cc_ms"},
    {"jit.compile.cc_ms", "ms", "setup_s (all); miss_ms_p50 (wjd)"},
    {"jit.compile.cc_cpu_ms", "ms", "setup_s (all); miss_ms_p50 (wjd)"},
    {"jit.cache.key_us", "us", "hit_ms_p50 (wjd)"},
    {"jit.cache.lookup_ms", "ms", "hit_ms_p50 (wjd)"},
    {"jit.cache.hit_ratio", "ratio", "req_per_s (wjd)"},
    {"frontend.parse_us", "us", "hit_ms_p50 (wjd)"},
    {"service.hit_work_ms", "ms", "hit_ms_p50 (wjd)"},
    {"service.hit_wait_ms", "ms", "hit_ms_p90 (wjd)"},
    {"service.rejects", "count", "failed share (wjd)"},
    {"service.joins", "count", "failed share (wjd)"},
    {"jit.invoke.fixed_ms", "ms", "solve_ms_p50 (diffusion)"},
    {"jit.invoke.entry_ms", "ms", "solve_ms_p50 (diffusion, cg)"},
    {"jit.invoke.marshal_mb", "MB", "solve_ms_p50 (diffusion)"},
    {"kernel.ns_per_cell_step", "ns", "solve_ms_p50 (diffusion)"},
    {"kernel.us_per_iter", "us", "solve_ms_p50 (cg)"},
    {"jit.vector_loops", "count", "kernel.ns_per_cell_step (diffusion)"},
    {"jit.parallel_loops", "count", "kernel.us_per_iter (cg)"},
    {"jit.reduce_loops", "count", "kernel.us_per_iter (cg)"},
    {"runtime.pool.dispatches", "count", "solve_ms_p50 (cg)"},
    {"runtime.pool.dispatch_us_p50", "us", "solve_ms_p50 (cg)"},
    {"runtime.pool.chunk_share", "ratio", "solve_ms_p50 (cg)"},
    {"runtime.guard.fallbacks", "count", "solve_ms_p50 (diffusion, cg)"},
    {"minimpi.msgs", "count", "solve_ms_p50 (diffusion)"},
    {"minimpi.kb", "KiB", "solve_ms_p50 (diffusion)"},
    {"minimpi.wait_ms", "ms", "solve_ms_p90 (diffusion)"},
    {"coverage.other_ms", "ms", "none: the part of the covered total no layer accounts for"},
    {"coverage.other_pct", "%", "none: must stay within 5%"},
    {"trace.overhead_pct", "%", "none: cost of tracing, traced vs untraced p50"},
};

void Report::set(const std::string& name, double value, int64_t n) {
    auto declared = [&](const std::vector<MetricDef>& defs) {
        return std::any_of(defs.begin(), defs.end(),
                           [&](const MetricDef& d) { return name == d.name; });
    };
    if (!declared(kEndToEnd) && !declared(kPerLayer)) {
        throw std::logic_error("undeclared metric " + name);
    }
    values[name] = {value, n};
}

void Report::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 5) std::printf("FAILED  %s\n", what.c_str());
}

double Latencies::quantile(double q) const {
    std::vector<double> v = ms_;
    v.insert(v.end(), static_cast<size_t>(failed_), kFailedMs);
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

uint64_t mix(uint64_t seed, uint64_t salt) {
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x6a09e667f3bcc909ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void useColdCache(const Options& o) {
    static int stores = 0;
    const std::string dir = o.workdir + "/cache-" + std::to_string(stores++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    setenv("WJ_CACHE_DIR", dir.c_str(), 1);
    wj::JitCache::instance().clearLoaded();
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double childCpuMs() {
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double nowMs() { return static_cast<double>(wj::nowNs()) / 1e6; }

int64_t counterValue(const char* name) {
    return wj::trace::Metrics::instance().counter(name).value();
}

} // namespace perfbench

namespace {

using namespace perfbench;

/// Every knob the program reads from the environment, per workload. Any
/// other WJ_*/WJD_* variable is cleared, so the caller's shell cannot leak
/// a setting (WJ_TRACE, WJ_FAULT, WJ_NP, ...) into a run.
std::vector<std::pair<std::string, std::string>> pinnedKnobs(const std::string& workload) {
    const bool diffusion = workload == "diffusion", cg = workload == "cg";
    return {
        {"WJ_THREADS", cg ? "2" : "1"},
        {"WJ_PARALLEL", cg ? "1" : "0"},
        {"WJ_SIMD", diffusion ? "1" : "0"},
        {"WJ_SOA", "0"},
        {"WJ_BOUNDS", "0"},
        {"WJ_CC", "cc"},
        {"WJ_CFLAGS", "-O2 -fopenmp-simd"},
        {"WJ_TRANSPORT", "threads"},
        {"WJ_CACHE_EVICT_GRACE_MS", "10000"},
    };
}

void pinEnvironment(const Options& o) {
    std::vector<std::string> drop;
    for (char** e = environ; *e; ++e) {
        const std::string kv(*e);
        if (kv.rfind("WJ_", 0) == 0 || kv.rfind("WJD_", 0) == 0) {
            drop.push_back(kv.substr(0, kv.find('=')));
        }
    }
    for (const std::string& name : drop) unsetenv(name.c_str());
    for (const auto& [name, value] : pinnedKnobs(o.workload)) {
        setenv(name.c_str(), value.c_str(), 1);
    }
    // The JIT's scratch directories follow TMPDIR; keep them in the run's
    // private work directory.
    const std::string tmp = o.workdir + "/tmp";
    std::filesystem::create_directories(tmp);
    setenv("TMPDIR", tmp.c_str(), 1);
    useColdCache(o);
}

std::string firstLineOf(const std::string& command) {
    std::string line;
    if (FILE* p = popen(command.c_str(), "r")) {
        char buf[512];
        if (std::fgets(buf, sizeof buf, p)) line = buf;
        pclose(p);
    }
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
    return line.empty() ? "unknown" : line;
}

std::string cpuModel() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
    }
    return "unknown";
}

void printStamp(const Options& o) {
    std::printf("stamp  workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.smoke ? 1 : 0);
    std::printf("stamp  host nproc=%ld cpu=\"%s\"\n", sysconf(_SC_NPROCESSORS_ONLN),
                cpuModel().c_str());
    std::printf("stamp  cc=\"%s\"\n", firstLineOf("cc --version 2>/dev/null").c_str());
    std::printf("stamp  source=%s\n", o.source.c_str());
    std::printf("stamp  env");
    for (const auto& [name, value] : pinnedKnobs(o.workload)) {
        std::printf(" %s=%s", name.c_str(), std::getenv(name.c_str()));
    }
    std::printf(" WJ_CACHE_DIR=<fresh per cold set-up> WJ_TRACE=<unset>\n");
}

void printReport(const Report& r, bool traced) {
    for (const std::string& n : r.notes) std::printf("note   %s\n", n.c_str());
    const std::vector<MetricDef>& defs = traced ? kPerLayer : kEndToEnd;
    auto valueOf = [&](const MetricDef& d) {
        const auto it = r.values.find(d.name);
        return it == r.values.end() ? Report::Entry{} : it->second;
    };
    for (const MetricDef& d : defs) {
        const Report::Entry v = valueOf(d);
        std::printf("metric %-28s %14.6g %-6s n=%-6lld%s%s\n", d.name, v.value, d.unit,
                    static_cast<long long>(v.n), *d.moves ? " moves: " : "", d.moves);
    }
    std::printf("ops    attempted=%lld failed=%lld\n", static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    for (size_t i = 0; i < defs.size(); ++i) {
        const double v = valueOf(defs[i]).value;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", defs[i].name,
                    std::isfinite(v) ? v : Latencies::kFailedMs, defs[i].unit);
    }
    std::printf("}}\n");
}

Options parseArgs(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") o.workload = value();
        else if (a == "--seed") o.seed = std::stoull(value());
        else if (a == "--seconds") o.seconds = std::stod(value());
        else if (a == "--trace") o.trace = value() != "0";
        else if (a == "--workdir") o.workdir = value();
        else if (a == "--root") o.root = value();
        else if (a == "--source") o.source = value();
        else if (a == "--smoke") o.smoke = true;
        else throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload != "diffusion" && o.workload != "cg" && o.workload != "wjd") {
        throw std::invalid_argument("--workload must be diffusion, cg or wjd");
    }
    if (o.workdir.empty() || o.root.empty()) {
        throw std::invalid_argument("--workdir and --root are required");
    }
    if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    // The wjd workload changes directory; every path stays valid.
    o.workdir = std::filesystem::absolute(o.workdir).string();
    o.root = std::filesystem::absolute(o.root).string();
    if (o.source.empty()) o.source = "unknown";
    return o;
}

} // namespace

int main(int argc, char** argv) {
    Options o;
    try {
        o = parseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    std::filesystem::create_directories(o.workdir);
    pinEnvironment(o);
    printStamp(o);
    std::fflush(stdout);
    try {
        const Report r = o.workload == "diffusion" ? runDiffusion(o)
                         : o.workload == "cg"      ? runCg(o)
                                                   : runWjd(o);
        printReport(r, o.trace);
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
        return 1;
    }
    return 0;
}
