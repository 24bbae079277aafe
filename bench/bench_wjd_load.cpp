// Closed-loop load harness for wjd, the multi-tenant compile daemon.
//
// An in-process Daemon listens on a real Unix-domain socket; client
// threads connect through the real protocol codec, so everything except
// process isolation is the production path (the cross-PROCESS behaviors —
// two daemons sharing one cache — are covered by tests/test_service.cpp).
//
// Three phases, each asserting its own acceptance property (exit 1 on
// violation — this bench is also the CI tripwire for the dedup and
// admission contracts):
//
//   join-proof   16 clients submit the SAME fresh module concurrently.
//                The cache-miss delta must be exactly 1 (one external cc
//                invocation for the whole herd) and wjd.compile.joins
//                must have grown — duplicate in-flight compiles collapse.
//
//   closed-loop  N clients (64; 128 under --full) each run a think-free
//                request loop of mixed traffic: warm hits (the same
//                precompiled module), cold misses (unique modules), and
//                malformed modules answered with typed errors. Reports
//                p50/p99 request latency, over all requests and over the
//                warm hits alone, and the cache-hit rate; the
//                daemon must answer every request and stay up (verified
//                by a final ping + clean drain).
//
//   admission    a second daemon with a tiny queue (1 worker, cap 4) gets
//                8 clients x 16 pipelined requests; some must be REJECTED
//                with RESOURCE_EXHAUSTED (admission control sheds load
//                instead of queueing unboundedly) while every accepted
//                request still completes.
//
// Persisted rows (BENCH_wjd_load.json, gated by tools/bench_compare):
//   closed_loop_p50 / closed_loop_p99   request latency in ns (threads =
//                                       client count)
//   closed_loop_hit_p50 / _hit_p99      the same over warm hits only
//   hit_rate_permille                   compile responses served from cache
//   reject_permille                     admission rejections in the burst
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "jit/cache.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "support/scratch.h"
#include "support/strings.h"
#include "support/timer.h"
#include "trace/metrics.h"
#include "trace/trace.h"

using namespace wj;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::printf("  %-58s %s\n", what.c_str(), ok ? "OK" : "FAIL");
    if (!ok) ++failures;
}

/// A tiny self-contained WJ module. `nonce` lands in the class name and a
/// literal, so every nonce is a distinct translation unit with a distinct
/// cache key (and a distinct in-process singleflight key).
std::string moduleSource(int nonce) {
    return format("@WootinJ class Work%d {\n"
                  "  Work%d() {}\n"
                  "  int run(int n) {\n"
                  "    int acc = 0;\n"
                  "    for (int i = 0; i < n; i = i + 1) {\n"
                  "      acc = acc + i * %d;\n"
                  "    }\n"
                  "    return acc;\n"
                  "  }\n"
                  "}\n",
                  nonce, nonce, nonce + 3);
}

service::Client::Reply submit(service::Client& c, int nonce) {
    return c.compile(moduleSource(nonce), format("Work%d()", nonce), "run", "64");
}

/// Nonces must be fresh per bench run or a warm compile cache turns every
/// "miss" into a hit; derive the base from the pid and the clock.
int nonceBase() {
    return static_cast<int>((nowNs() / 1000 + ::getpid()) % 1000000) * 100;
}

// ---------------------------------------------------------------- phase 1

void joinProof(const std::string& sock, int base) {
    std::printf("\n-- join-proof: 16 concurrent clients, one fresh module --\n");
    auto& metrics = trace::Metrics::instance();
    const int64_t joins0 = metrics.counter("wjd.compile.joins").value();
    const int64_t misses0 = JitCache::instance().stats().misses;

    constexpr int kClients = 16;
    std::atomic<int> okCount{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            service::Client c;
            c.connect(sock);
            while (!go.load()) std::this_thread::yield();
            const auto r = submit(c, base);
            if (r.ok) okCount.fetch_add(1);
            (void)i;
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    const int64_t joins = metrics.counter("wjd.compile.joins").value() - joins0;
    const int64_t misses = JitCache::instance().stats().misses - misses0;
    std::printf("  clients ok %d/16, cc invocations %lld, in-flight joins %lld\n",
                okCount.load(), static_cast<long long>(misses), static_cast<long long>(joins));
    expect(okCount.load() == kClients, "every client got a successful response");
    expect(misses == 1, "the herd collapsed to a single cc invocation");
    expect(joins >= 1, "at least one request joined the in-flight compile");
}

// ---------------------------------------------------------------- phase 2

struct LoopStats {
    std::vector<int64_t> latenciesNs;
    std::vector<int64_t> hitLatenciesNs;
    int64_t hits = 0, okCompiles = 0, typedErrors = 0, unexpected = 0;
};

void closedLoop(const std::string& sock, int clients, int reqsPerClient, int base) {
    std::printf("\n-- closed-loop: %d clients x %d requests, mixed traffic --\n",
                clients, reqsPerClient);
    // Precompile the warm module so "hit" traffic is actually warm.
    {
        service::Client c;
        c.connect(sock);
        const auto r = submit(c, base);
        expect(r.ok, "warm module precompiled");
    }

    std::vector<LoopStats> per(clients);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&, i] {
            service::Client c;
            c.connect(sock);
            LoopStats& s = per[i];
            while (!go.load()) std::this_thread::yield();
            for (int j = 0; j < reqsPerClient; ++j) {
                const int seq = i * reqsPerClient + j;
                const int64_t t0 = nowNs();
                service::Client::Reply r;
                if (seq % 10 == 7) {
                    // Fault traffic: a module that cannot parse.
                    r = c.compile("class {", "X()", "run");
                    if (!r.ok && r.code == service::ErrCode::ParseError) ++s.typedErrors;
                    else ++s.unexpected;
                } else if (seq % 32 == 5) {
                    // Miss traffic: a translation unit nobody compiled yet.
                    r = submit(c, base + 1 + seq);
                    if (r.ok) ++s.okCompiles;
                    else ++s.unexpected;
                } else {
                    r = submit(c, base);
                    if (r.ok) {
                        ++s.okCompiles;
                        if (r.cacheHit) {
                            ++s.hits;
                            s.hitLatenciesNs.push_back(nowNs() - t0);
                        }
                    } else {
                        ++s.unexpected;
                    }
                }
                s.latenciesNs.push_back(nowNs() - t0);
            }
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    LoopStats all;
    for (auto& s : per) {
        all.latenciesNs.insert(all.latenciesNs.end(), s.latenciesNs.begin(),
                               s.latenciesNs.end());
        all.hitLatenciesNs.insert(all.hitLatenciesNs.end(), s.hitLatenciesNs.begin(),
                                  s.hitLatenciesNs.end());
        all.hits += s.hits;
        all.okCompiles += s.okCompiles;
        all.typedErrors += s.typedErrors;
        all.unexpected += s.unexpected;
    }
    auto quantile = [](std::vector<int64_t>& v, size_t permille) -> int64_t {
        if (v.empty()) return 0;
        std::sort(v.begin(), v.end());
        return v[std::min(v.size() - 1, v.size() * permille / 1000)];
    };
    const size_t n = all.latenciesNs.size();
    const int64_t p50 = quantile(all.latenciesNs, 500);
    const int64_t p99 = quantile(all.latenciesNs, 990);
    const int64_t hitP50 = quantile(all.hitLatenciesNs, 500);
    const int64_t hitP99 = quantile(all.hitLatenciesNs, 990);
    const int64_t hitPermille = all.okCompiles ? all.hits * 1000 / all.okCompiles : 0;

    std::printf("  %zu requests: ok %lld, typed errors %lld, unexpected %lld\n", n,
                static_cast<long long>(all.okCompiles),
                static_cast<long long>(all.typedErrors),
                static_cast<long long>(all.unexpected));
    std::printf("  p50 %.2f ms  p99 %.2f ms  hit rate %lld permille\n", p50 / 1e6, p99 / 1e6,
                static_cast<long long>(hitPermille));
    std::printf("  warm hits: %zu, p50 %.2f ms  p99 %.2f ms\n", all.hitLatenciesNs.size(),
                hitP50 / 1e6, hitP99 / 1e6);
    expect(all.unexpected == 0, "every request answered as expected");
    expect(all.typedErrors > 0, "fault traffic came back as typed errors");
    expect(all.hits > 0, "warm traffic was served from the cache");

    wjbench::jsonRow("closed_loop_p50", static_cast<double>(p50), clients);
    wjbench::jsonRow("closed_loop_p99", static_cast<double>(p99), clients);
    wjbench::jsonRow("closed_loop_hit_p50", static_cast<double>(hitP50), clients);
    wjbench::jsonRow("closed_loop_hit_p99", static_cast<double>(hitP99), clients);
    wjbench::jsonRow("hit_rate_permille", static_cast<double>(hitPermille), clients);
}

// ---------------------------------------------------------------- phase 3

void admissionBurst(const std::string& scratch, int base) {
    std::printf("\n-- admission: 1 worker, queue cap 4, 8x16 pipelined --\n");
    service::DaemonOptions opts;
    opts.socketPath = scratch + "/wjd_burst.sock";
    opts.workers = 1;
    opts.queueCap = 4;
    opts.maxInflightPerClient = 64;
    opts.quiet = true;
    service::Daemon daemon(opts);
    daemon.start();

    auto& metrics = trace::Metrics::instance();
    const int64_t rejects0 = metrics.counter("wjd.admission.rejects.queue").value();

    constexpr int kClients = 8, kPipeline = 16;
    std::atomic<int64_t> accepted{0}, rejected{0}, other{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            service::Client c;
            c.connect(opts.socketPath);
            while (!go.load()) std::this_thread::yield();
            // Pipeline the whole burst before reading a single response —
            // this is what actually overruns a 4-slot queue.
            service::Body body;
            body.set("new", format("Work%d()", base));
            body.set("method", "run");
            body.set("args", "64");
            body.payload = moduleSource(base);
            const std::string encoded = service::encodeBody(body);
            for (int j = 0; j < kPipeline; ++j) {
                service::Frame f;
                f.type = service::MsgType::Compile;
                f.reqId = static_cast<uint64_t>(i) * kPipeline + j + 1;
                f.body = encoded;
                service::writeFrame(c.fd(), f);
            }
            for (int j = 0; j < kPipeline; ++j) {
                service::Frame f;
                if (!c.readReply(f)) {
                    other.fetch_add(kPipeline - j);
                    return;
                }
                if (f.type == service::MsgType::Ok) {
                    accepted.fetch_add(1);
                    continue;
                }
                const service::Body b = service::decodeBody(f.body);
                const std::string* name = b.find("name");
                if (name && *name == "RESOURCE_EXHAUSTED") rejected.fetch_add(1);
                else other.fetch_add(1);
            }
        });
    }
    go.store(true);
    for (auto& t : threads) t.join();

    const int64_t total = kClients * kPipeline;
    const int64_t rejectPermille = rejected.load() * 1000 / total;
    std::printf("  %lld requests: accepted %lld, rejected %lld, other %lld\n",
                static_cast<long long>(total), static_cast<long long>(accepted.load()),
                static_cast<long long>(rejected.load()), static_cast<long long>(other.load()));
    expect(accepted.load() + rejected.load() == total && other.load() == 0,
           "every request either completed or was rejected typed");
    expect(rejected.load() > 0, "the 4-slot queue shed load (RESOURCE_EXHAUSTED)");
    expect(metrics.counter("wjd.admission.rejects.queue").value() > rejects0,
           "rejections visible in wjd.admission.rejects.queue");

    // The daemon must still be healthy after the burst.
    service::Client c;
    c.connect(opts.socketPath);
    expect(c.ping().ok, "daemon answers ping after the burst");
    c.close();
    daemon.requestStop();
    daemon.wait();

    wjbench::jsonRow("reject_permille", static_cast<double>(rejectPermille), kClients);
}

} // namespace

int main(int argc, char** argv) {
    const wjbench::Options opts = wjbench::parseArgs(argc, argv);
    if (!opts.traceFile.empty()) trace::Tracer::instance().enable(opts.traceFile);
    wjbench::banner("wjd_load",
                    "multi-tenant compile daemon under closed-loop client load",
                    "in-process daemon, real sockets; real wall time");

    const std::string scratch = makeScratchDir("wjd_bench");
    // A private compile cache isolates the miss/hit accounting from the
    // developer's warm cache and from parallel ctest jobs.
    setenv("WJ_CACHE_DIR", (scratch + "/cache").c_str(), 1);

    service::DaemonOptions dopts;
    dopts.socketPath = scratch + "/wjd.sock";
    dopts.quiet = true;
    service::Daemon daemon(dopts);
    daemon.start();

    const int base = nonceBase();
    joinProof(dopts.socketPath, base);

    const int clients = opts.full ? 128 : 64;
    const int reqs = opts.smoke ? 2 : 4;
    closedLoop(dopts.socketPath, clients, reqs, base + 50000000);

    {
        service::Client c;
        c.connect(dopts.socketPath);
        expect(c.ping().ok, "daemon answers ping after the closed loop");
        const auto stats = c.stats();
        expect(stats.ok && stats.statsJson.find("wjd.compile.joins") != std::string::npos,
               "metrics JSON carries the wjd counters");
        c.close();
    }
    daemon.requestStop();
    daemon.wait();

    admissionBurst(scratch, base);

    std::printf("\n%s\n", failures == 0 ? "all load-harness contracts hold"
                                        : "LOAD-HARNESS CONTRACT VIOLATIONS");
    return failures == 0 ? 0 : 1;
}
