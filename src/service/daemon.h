// wjd — the multi-tenant JIT compile daemon.
//
// One warm daemon owns the parse→rules→translate→compile pipeline and the
// shared compile cache; many clients submit WJ modules over a Unix-domain
// socket (protocol.h) and get back the artifact path. What the daemon adds
// over "every client runs wjc":
//
//   * in-flight dedup (singleflight): concurrent Compile requests that
//     resolve to the same cache key join ONE external cc invocation —
//     in-process via a key→future map, cross-process via the cache's
//     BuildLock — so a thundering herd of N identical cold requests costs
//     one compile, not N;
//   * admission control: per-connection in-flight cap (WJD_MAX_INFLIGHT,
//     default 8, held from admission to reply) and a global queue cap
//     (WJD_QUEUE_CAP, default 64, on the requests waiting in either lane's
//     queue). Past either, the request is REJECTED immediately with
//     RESOURCE_EXHAUSTED — a saturated daemon stays responsive (Ping/Stats
//     never queue behind compiles) instead of accumulating unbounded work;
//   * two lanes of WJD_WORKERS threads each (default 4), so a warm hit
//     never waits behind a cold compile. A lookup-lane thread runs parse →
//     rules → translate → key → registry and on-disk lookup and answers
//     hits itself; it hands a miss, or a request whose key is already
//     being compiled, to the cc lane. A cc-lane thread either leads its
//     key's compile (compileAndLoad, with the retry/backoff ladder
//     WJ_JIT_RETRIES and the typed fault taxonomy) or waits on the
//     leader's result as a joiner. WJD_WORKERS therefore bounds both the
//     concurrent lookups and the concurrent cc runs;
//   * graceful drain: SIGTERM or a Shutdown request stops admission
//     (new Compiles get SHUTTING_DOWN), finishes every in-flight compile,
//     answers the shutdown, and exits — no orphaned cc children, no
//     half-written artifacts (the cache's atomic publish guarantees the
//     latter even on SIGKILL);
//   * observability: per-stage spans (category "wjd") and a metrics
//     registry any client can dump with a Stats request —
//     wjd.requests.*, wjd.compile.{ok,errors,joins}, wjd.admission.
//     rejects.{client,queue}, histograms wjd.{request,compile}.micros,
//     wjd.queue.wait.micros (admission to lookup-lane start) and
//     wjd.cc.wait.micros (handoff to cc-lane start).
//
// Client disconnect mid-compile does NOT cancel or orphan the work: the
// compile completes (other clients may be joined to it and the artifact
// warms the cache either way), the response write fails silently, and the
// in-flight entry is reaped normally.
//
// Unless the caller set it, the daemon exports WJ_CACHE_EVICT_GRACE_MS=10000
// at start: concurrent eviction sweeps from N worker threads must never
// unlink an artifact another request just published but has not yet
// reported to its client.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace wj::service {

struct DaemonOptions {
    std::string socketPath;    ///< required: where to listen
    std::string bundleDir;     ///< optional: preload bundles at start
    int workers = 0;           ///< threads per lane; 0 = $WJD_WORKERS or 4
    int maxInflightPerClient = 0;  ///< 0 = $WJD_MAX_INFLIGHT or 8
    int queueCap = 0;          ///< 0 = $WJD_QUEUE_CAP or 64
    bool quiet = false;        ///< suppress stderr chatter (tests/benches)
};

class Daemon {
public:
    explicit Daemon(DaemonOptions opts);
    ~Daemon();  ///< requestStop() + wait()

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Binds the socket (stealing it from a dead previous daemon, refusing
    /// a live one), preloads bundles, starts the accept thread and both
    /// lanes. Throws UsageError on bind failure.
    void start();

    /// Begins the drain: stop accepting connections, reject new Compiles
    /// with SHUTTING_DOWN, let in-flight work finish. Idempotent, callable
    /// from a signal-forwarding thread.
    void requestStop();

    /// Blocks until the drain completes and every thread has joined.
    void wait();

    const std::string& socketPath() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Installs SIGTERM/SIGINT handlers that requestStop() `d` (the wjd main
/// uses this; tests drive requestStop directly). Only one daemon per
/// process can be signal-managed.
void installSignalDrain(Daemon& d);

} // namespace wj::service
