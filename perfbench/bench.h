// perfbench — shared pieces of the benchmark binary: options, latency
// samples, the report every workload fills in, and the small process
// probes (peak RSS, child CPU time) the metrics need.
//
// The benchmark measures the program from outside: it calls the public
// functions of each layer (frontend, rules, analysis, jit, service) and
// times the calls itself. The only spans it reads back from the program are
// the ones the program already records (jit/entry, pool/*, comm/*).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string workdir;  ///< private scratch: compile caches, temp files, sockets
    std::string root;     ///< checkout root (examples/pi.wj lives there)
    std::string source;   ///< source identity for the stamp (git sha or tree digest)
};

/// A metric the benchmark prints: every untraced run prints every
/// end-to-end metric, every traced run every per-layer metric (the lists
/// in BENCHMARK.json). `moves` names the end-to-end metric, and the
/// workload, a per-layer metric should move.
struct MetricDef {
    const char* name;
    const char* unit;
    const char* moves;
};

extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

struct Report {
    struct Entry {
        double value = 0;
        int64_t n = 0;  ///< samples behind the value; 1 for a count or size
    };

    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, Entry> values;  ///< metrics a workload leaves unset print as 0, n=0
    std::vector<std::string> notes;       ///< inputs, oracles, coverage lines

    /// Sets a metric declared in kEndToEnd or kPerLayer (throws otherwise).
    void set(const std::string& name, double value, int64_t n);
    void note(const std::string& line) { notes.push_back(line); }
    /// Records one operation's oracle verdict; prints the first few failures.
    void check(bool ok, const std::string& what);
};

/// Latencies of one operation kind. A failed operation counts as missing
/// every percentile: it sorts above every success.
class Latencies {
public:
    void ok(double ms) { ms_.push_back(ms); }
    void fail() { ++failed_; }
    void merge(const Latencies& o) {
        ms_.insert(ms_.end(), o.ms_.begin(), o.ms_.end());
        failed_ += o.failed_;
    }
    int64_t count() const { return static_cast<int64_t>(ms_.size()) + failed_; }
    /// Linear-interpolated quantile q in [0, 1]; failures sort last and read
    /// as kFailedMs.
    double quantile(double q) const;

    static constexpr double kFailedMs = 1e9;

private:
    std::vector<double> ms_;
    int64_t failed_ = 0;
};

double median(std::vector<double> v);

/// Untraced runs interleave their phases in one-second segments, so every
/// metric samples the whole run: a shared host's slow phases last seconds.
inline int segmentsFor(const Options& o) {
    return o.smoke ? 2 : std::max(2, static_cast<int>(o.seconds + 0.5));
}

/// splitmix64 of (seed, salt): how every input is derived from --seed.
uint64_t mix(uint64_t seed, uint64_t salt);

/// Points the compile cache at a fresh empty store under the work directory
/// and forgets every module this process loaded, so the next compile is cold.
void useColdCache(const Options& o);

double peakRssMb();
/// User + system CPU of every child process reaped so far (the external
/// C compiler runs as a child of this process).
double childCpuMs();

double nowMs();

/// Wall time of one call of `fn`, in ms.
template <class Fn>
double timeMs(Fn&& fn) {
    const double t0 = nowMs();
    fn();
    return nowMs() - t0;
}

/// Current value of a counter in the program's metrics registry.
int64_t counterValue(const char* name);

Report runDiffusion(const Options& o);
Report runCg(const Options& o);
Report runWjd(const Options& o);

} // namespace perfbench
