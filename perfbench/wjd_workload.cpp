// The `wjd` workload: an in-process compile daemon on a real Unix socket
// with two workers, and one client process holding three connections with
// fixed roles — two loop on warm hits of examples/pi.wj, one issues cold
// misses back to back (pi.wj with one integer literal changed, so every
// miss is a fresh translation unit of the same size). Exactly one external
// compiler runs at a time.
//
// Untraced run: the closed loop in one-second segments, with a cold daemon
// start-up (setup_s) after each.
// Traced run: the hit module's layers called one by one, an in-process
// replay of the daemon's hit path (service.hit_work_ms), then the loop
// half untraced and half traced.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis.h"
#include "bench.h"
#include "frontend/composition.h"
#include "frontend/parser.h"
#include "interp/interp.h"
#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "rules/rules.h"
#include "service/client.h"
#include "service/daemon.h"
#include "support/strings.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

const char* const kNew = "PiEstimator(HashSampler())";
const char* const kMethod = "run";
const char* const kArgs = "100000";
/// The literal a miss changes: the first sampler stream's offset.
const char* const kLiteral = "rank * 2 + 1,";
constexpr int kWorkers = 2;

/// The hit module and the supply of misses (used by the miss connection
/// only; the loop's threads are joined between segments).
struct Module {
    std::string hitSource;
    uint64_t missBase = 0;
    uint64_t nextMiss = 0;

    std::string missSource() {
        std::string s = hitSource;
        const size_t at = s.find(kLiteral);
        s.replace(at, std::string(kLiteral).size(),
                  wj::format("rank * 2 + %llu,",
                             static_cast<unsigned long long>(missBase + nextMiss++)));
        return s;
    }
};

wj::service::DaemonOptions daemonOptions(const std::string& socket) {
    wj::service::DaemonOptions d;
    d.socketPath = socket;  // relative to the work directory: sun_path is short
    d.workers = kWorkers;
    d.maxInflightPerClient = 8;
    d.queueCap = 64;
    d.quiet = true;
    return d;
}

/// What one connection saw; merged after the threads join.
struct ConnResult {
    Latencies hit, miss, all;
    int64_t attempted = 0, failed = 0, cacheHits = 0, okCompiles = 0;
    std::vector<std::string> failures;
    std::set<std::string> missKeys;
};

/// One connection's closed loop. `hits` selects the role: warm hits of the
/// pristine module, or cold misses of fresh variants.
void connLoop(const std::string& sock, Module& m, bool hits, const std::string& warmKey,
              double endMs, ConnResult& cr) {
    Latencies& role = hits ? cr.hit : cr.miss;
    try {
        wj::service::Client c;
        c.connect(sock);
        while (nowMs() < endMs) {
            const std::string src = hits ? m.hitSource : m.missSource();
            const double t0 = nowMs();
            const auto reply = c.compile(src, kNew, kMethod, kArgs);
            const double ms = nowMs() - t0;
            const bool ok = reply.ok && reply.cacheHit == hits &&
                            (hits ? reply.keyHex == warmKey
                                  : reply.keyHex != warmKey &&
                                        cr.missKeys.insert(reply.keyHex).second);
            ++cr.attempted;
            cr.okCompiles += reply.ok ? 1 : 0;
            cr.cacheHits += reply.ok && reply.cacheHit ? 1 : 0;
            if (ok) {
                role.ok(ms);
                cr.all.ok(ms);
            } else {
                ++cr.failed;
                role.fail();
                cr.all.fail();
                cr.failures.push_back((hits ? "hit: " : "miss: ") + reply.name + " " +
                                      reply.message);
            }
        }
    } catch (const std::exception& e) {
        ++cr.attempted;
        ++cr.failed;
        role.fail();
        cr.all.fail();
        cr.failures.push_back(std::string("connection: ") + e.what());
    }
}

/// Everything the closed loop saw, over one or more stretches of it.
struct LoopResult {
    Latencies hit, miss, all;
    int64_t okCompiles = 0, cacheHits = 0;
    double elapsedS = 0;
};

/// The closed loop: two hit connections and one miss connection for
/// `seconds`, against a running daemon whose cache holds the warm module.
/// Adds what it saw to `acc` and the verdicts to `r`.
void closedLoop(const std::string& sock, Module& m, const std::string& warmKey, double seconds,
                Report& r, LoopResult& acc) {
    ConnResult conns[3];
    const double t0 = nowMs();
    const double end = t0 + seconds * 1e3;
    {
        std::jthread h0([&] { connLoop(sock, m, true, warmKey, end, conns[0]); });
        std::jthread h1([&] { connLoop(sock, m, true, warmKey, end, conns[1]); });
        std::jthread mi([&] { connLoop(sock, m, false, warmKey, end, conns[2]); });
    }
    acc.elapsedS += (nowMs() - t0) / 1e3;
    for (const ConnResult& c : conns) {
        r.attempted += c.attempted;
        r.failed += c.failed;
        for (size_t i = 0; i < c.failures.size() && i < 5; ++i) {
            std::printf("FAILED  %s\n", c.failures[i].c_str());
        }
        acc.hit.merge(c.hit);
        acc.miss.merge(c.miss);
        acc.all.merge(c.all);
        acc.okCompiles += c.okCompiles;
        acc.cacheHits += c.cacheHits;
    }
}

/// Starts a daemon on a fresh cold cache and compiles the warm module.
/// Returns the first reply; *ms is start() to that reply.
wj::service::Client::Reply startCold(wj::service::Daemon& d, const std::string& src,
                                     double* ms) {
    const double t0 = nowMs();
    d.start();
    wj::service::Client c;
    c.connect(d.socketPath());
    auto reply = c.compile(src, kNew, kMethod, kArgs);
    *ms = nowMs() - t0;
    return reply;
}

int64_t rejects() {
    return counterValue("wjd.admission.rejects.client") +
           counterValue("wjd.admission.rejects.queue") +
           counterValue("wjd.admission.rejects.draining");
}

/// The daemon's hit path replayed in-process, stage by stage. The entry
/// analysis (part of translate) is also timed on its own after each
/// replay, outside the replay's total.
struct HitPath {
    std::vector<double> parseMs, rulesMs, composeMs, translateMs, keyMs, lookupMs, totalMs,
        analysisMs;

    void replay(const std::string& src, Report& r) {
        const double t0 = nowMs();
        double t = t0;
        auto lap = [&](std::vector<double>& into) {
            const double now = nowMs();
            into.push_back(now - t);
            t = now;
        };
        wj::Program prog = wj::frontend::parseProgram(src);
        lap(parseMs);
        wj::requireCodingRules(prog);
        lap(rulesMs);
        wj::Interp in(prog);
        const wj::Value receiver = wj::frontend::parseComposition(in, kNew);
        const std::vector<wj::Value> args = {wj::frontend::parseArgLiteral(kArgs)};
        lap(composeMs);
        const wj::Translation tr = wj::translate(prog, receiver, kMethod, args);
        lap(translateMs);
        (void)wj::cacheKeyFor(tr.cSource);
        lap(keyMs);
        const wj::CompileResult cr = wj::compileAndLoad(tr.cSource, kMethod);
        lap(lookupMs);
        totalMs.push_back(t - t0);
        r.check(cr.cacheHit, "replayed hit was served by the compile cache");
        analysisMs.push_back(
            timeMs([&] { wj::analysis::analyzeEntry(prog, receiver, kMethod, args); }));
    }
};

/// The external compiler on the hit module, cold and warm. Leaves the
/// module registered, as the daemon's hit path finds it.
void compileLayers(const Options& o, Module& m, Report& r) {
    const wj::Program prog = wj::frontend::parseProgram(m.hitSource);
    wj::Interp in(prog);
    const wj::Value receiver = wj::frontend::parseComposition(in, kNew);
    const std::vector<wj::Value> args = {wj::frontend::parseArgLiteral(kArgs)};
    const int reps = o.smoke ? 2 : 9;
    std::vector<double> ccMs, ccCpuMs, lookupMs;
    const wj::Translation tr = wj::translate(prog, receiver, kMethod, args);
    for (int k = 0; k < reps; ++k) {
        useColdCache(o);
        const double cpu0 = childCpuMs();
        wj::CompileResult cold;
        ccMs.push_back(timeMs([&] { cold = wj::compileAndLoad(tr.cSource, kMethod); }));
        ccCpuMs.push_back(childCpuMs() - cpu0);
        r.check(!cold.cacheHit, "layered cold compile ran the external compiler");
        wj::JitCache::instance().clearLoaded();
        wj::CompileResult warm;
        lookupMs.push_back(timeMs([&] { warm = wj::compileAndLoad(tr.cSource, kMethod); }));
        r.check(warm.cacheHit, "warm lookup was served from the on-disk cache");
    }
    r.set("jit.codegen.c_kb", static_cast<double>(tr.cSource.size()) / 1024.0, 1);
    r.set("jit.compile.cc_ms", median(ccMs), reps);
    r.set("jit.compile.cc_cpu_ms", median(ccCpuMs), reps);
    r.set("jit.cache.lookup_ms", median(lookupMs), reps);
}

} // namespace

Report runWjd(const Options& o) {
    Module m;
    {
        std::ifstream in(o.root + "/examples/pi.wj");
        std::stringstream ss;
        ss << in.rdbuf();
        m.hitSource = ss.str();
    }
    const size_t at = m.hitSource.find(kLiteral);
    if (at == std::string::npos || m.hitSource.find(kLiteral, at + 1) != std::string::npos) {
        throw std::runtime_error("examples/pi.wj must contain '" + std::string(kLiteral) +
                                 "' exactly once");
    }
    m.missBase = 2 + mix(o.seed, 3) % 1000000000;

    // Socket paths stay relative to the work directory: the checkout's
    // absolute path may not fit in sun_path.
    if (chdir(o.workdir.c_str()) != 0) throw std::runtime_error("cannot enter " + o.workdir);

    Report r;
    r.note(wj::format("inputs module=examples/pi.wj new=%s method=%s args=%s workers=%d "
                      "connections=2 hit + 1 miss; miss literal 'rank * 2 + K', K from %llu",
                      kNew, kMethod, kArgs, kWorkers,
                      static_cast<unsigned long long>(m.missBase)));
    r.note("oracle hit: ok, cacheHit, key == warm key; miss: ok, no cacheHit, fresh key");

    // Set-up: a cold daemon start to the first reply, on its own socket
    // and an empty cache.
    std::vector<double> setupS;
    auto coldStart = [&] {
        useColdCache(o);
        wj::service::Daemon d(daemonOptions(wj::format("setup-%zu.sock", setupS.size())));
        double ms = 0;
        const auto reply = startCold(d, m.hitSource, &ms);
        r.check(reply.ok && !reply.cacheHit, "cold daemon compiled the warm module");
        setupS.push_back(ms / 1e3);
        d.requestStop();
        d.wait();
    };

    HitPath replay;
    if (o.trace) {
        compileLayers(o, m, r);
        replay.replay(m.hitSource, r);  // warm-up, not counted
        replay = HitPath{};
        for (int i = 0; i < (o.smoke ? 5 : 50); ++i) replay.replay(m.hitSource, r);
    } else {
        coldStart();
    }

    useColdCache(o);
    wj::service::Daemon d(daemonOptions("wjd.sock"));
    double warmMs = 0;
    const auto warm = startCold(d, m.hitSource, &warmMs);
    r.check(warm.ok && !warm.cacheHit, "warm module compiled");
    const std::string sock = d.socketPath();
    const int64_t rejects0 = rejects(), joins0 = counterValue("wjd.compile.joins");

    LoopResult plain;
    const Latencies& hit = plain.hit;
    if (!o.trace) {
        // Segments of the loop with a cold start between them (the loop's
        // daemon sits idle meanwhile), so both sample the whole run.
        const int segments = segmentsFor(o);
        std::vector<double> rates;  // requests per second, per segment
        for (int seg = 0; seg < segments; ++seg) {
            const int64_t n0 = plain.all.count();
            const double s0 = plain.elapsedS;
            closedLoop(sock, m, warm.keyHex, o.seconds / segments, r, plain);
            rates.push_back(static_cast<double>(plain.all.count() - n0) / (plain.elapsedS - s0));
            coldStart();
        }
        const Latencies& all = plain.all;
        r.set("setup_s", median(setupS), static_cast<int64_t>(setupS.size()));
        r.set("solve_ms_p10", all.quantile(0.1), all.count());
        r.set("hit_ms_p10", hit.quantile(0.1), hit.count());
        r.set("miss_ms_p50", plain.miss.quantile(0.5), plain.miss.count());
        r.set("req_per_s", median(rates), all.count());
    } else {
        closedLoop(sock, m, warm.keyHex, o.seconds / 2, r, plain);
        auto& tracer = wj::trace::Tracer::instance();
        tracer.enable("");
        LoopResult traced;
        closedLoop(sock, m, warm.keyHex, o.seconds / 2, r, traced);
        tracer.disable();
        const double hitP50 = hit.quantile(0.5);
        const double work = median(replay.totalMs);
        const double parts = median(replay.parseMs) + median(replay.rulesMs) +
                             median(replay.composeMs) + median(replay.translateMs) +
                             median(replay.keyMs) + median(replay.lookupMs);
        const double otherMs = work - parts;
        const double otherPct = 100.0 * otherMs / work;
        const int64_t replays = static_cast<int64_t>(replay.totalMs.size());
        const int64_t replies = plain.okCompiles + traced.okCompiles;
        const int64_t cacheHits = plain.cacheHits + traced.cacheHits;
        r.set("frontend.parse_us", median(replay.parseMs) * 1e3, replays);
        r.set("rules.check_ms", median(replay.rulesMs), replays);
        r.set("jit.codegen.translate_ms", median(replay.translateMs), replays);
        r.set("analysis.entry_ms", median(replay.analysisMs), replays);
        r.set("jit.codegen.self_ms", median(replay.translateMs) - median(replay.analysisMs),
              replays);
        r.set("jit.cache.key_us", median(replay.keyMs) * 1e3, replays);
        r.set("service.hit_work_ms", work, replays);
        r.set("hit_ms_p50", hitP50, hit.count());
        r.set("hit_ms_p90", hit.quantile(0.9), hit.count());
        r.set("solve_ms_p50", plain.all.quantile(0.5), plain.all.count());
        r.set("solve_ms_p90", plain.all.quantile(0.9), plain.all.count());
        r.set("service.hit_wait_ms", hitP50 - work, hit.count());
        r.set("service.rejects", static_cast<double>(rejects() - rejects0), 1);
        r.set("service.joins", static_cast<double>(counterValue("wjd.compile.joins") - joins0), 1);
        r.set("jit.cache.hit_ratio", static_cast<double>(cacheHits) / replies, replies);
        r.set("coverage.other_ms", otherMs, replays);
        r.set("coverage.other_pct", otherPct, replays);
        r.set("trace.overhead_pct", 100.0 * (traced.hit.quantile(0.5) - hitP50) / hitP50,
              traced.hit.count());
        r.note(wj::format("jit.cache.hit_ratio base: %lld cache hits of %lld ok compile replies",
                          static_cast<long long>(cacheHits), static_cast<long long>(replies)));
        r.note(wj::format(
            "coverage hit_ms_p50 %.4f ms = work %.4f + wait %.4f (wait %s); work = parse %.4f + "
            "rules %.4f + compose %.4f + translate %.4f + key %.4f + lookup %.4f + other %.4f "
            "(%.2f%%): %s",
            hitP50, work, hitP50 - work, hitP50 >= work ? ">= 0" : "NEGATIVE",
            median(replay.parseMs), median(replay.rulesMs), median(replay.composeMs),
            median(replay.translateMs), median(replay.keyMs), median(replay.lookupMs), otherMs,
            otherPct, std::fabs(otherPct) <= 5.0 && hitP50 >= work ? "within 5%" : "OUTSIDE 5%"));
    }
    d.requestStop();
    d.wait();
    if (!o.trace) r.set("peak_rss_mb", peakRssMb(), 1);
    return r;
}

} // namespace perfbench
