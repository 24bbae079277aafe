// MiniMPI: an MPI substrate with pluggable address-space transports.
//
// The paper runs translated code under `mpirun` on TSUBAME 2.0. This machine
// has no interconnect, so WootinC provides a functional MPI implementation
// with two transports behind one Transport interface (transport.h):
//
//   * threads (default): ranks are OS threads inside one process,
//     point-to-point messages travel through tag-matched mailboxes with
//     zero-copy/pooled payloads — the in-process fast path;
//   * proc (WJ_TRANSPORT=proc, or `wjrun`): ranks are forked child
//     processes communicating over shared-memory SPSC rings, one per
//     ordered rank pair, through which a message of any size streams —
//     real address-space isolation, real process death.
//
// Semantics implemented (the subset the paper's libraries use), identical
// across transports:
//   * send is buffered and never blocks indefinitely on a live world;
//   * recv blocks until a message matching (src, tag) arrives; messages from
//     the same source are delivered in send order; ANY_SOURCE is supported;
//   * sendrecv = buffered send then recv (deadlock-free for halo exchange);
//   * an uncaught exception in any rank aborts the world: every blocked rank
//     is woken with an error, and World::run rethrows the first exception —
//     mirroring MPI_Abort. On the proc transport a rank that dies by a real
//     signal (SIGKILL and friends) aborts the world the same way, and the
//     error names the dead child's pid and signal.
//
// Robustness layer (src/fault/):
//   * every Comm operation consults the process FaultPlan, so a seeded
//     WJ_FAULT spec can kill a rank at its Nth operation (a throw on the
//     threads transport, a real SIGKILL on the proc transport) or drop /
//     duplicate / corrupt / delay a message in post();
//   * each run() is monitored by a watchdog: when every live rank has been
//     blocked in recv/barrier with no global progress for a configurable
//     quantum (WJ_WATCHDOG_MS or setWatchdogMillis, default 30 s, 0
//     disables), the world is aborted with a per-rank wait dump instead of
//     hanging forever — the moral equivalent of a batch scheduler's
//     stuck-job killer;
//   * recvTimeout() gives opt-in per-receive deadlines.
//
// Timing of a *cluster* is not simulated here; the perf module models
// communication cost analytically (see src/perf/).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "minimpi/transport.h"

namespace wj::minimpi {

class World;

/// Per-rank communicator handle, valid only inside World::run's callback on
/// its own rank thread/process (like an MPI rank's COMM_WORLD view).
class Comm {
public:
    int rank() const noexcept { return rank_; }
    int size() const noexcept;

    /// Buffered send of `bytes` bytes to `dest` with `tag`. On the threads
    /// transport, payloads of kPooledThreshold bytes or more travel in
    /// recycled pool buffers.
    void send(const void* buf, size_t bytes, int dest, int tag);

    /// Zero-copy send: the caller's buffer is moved into the mailbox with
    /// no payload copy (its size is the message size). The proc transport
    /// still copies once through the ring — that is its nature.
    void send(std::vector<uint8_t>&& data, int dest, int tag);

    /// Blocking receive of exactly `bytes` bytes from `src` (or kAnySource)
    /// with matching `tag`. Throws ExecError on size mismatch or abort.
    /// Returns the actual source rank.
    int recv(void* buf, size_t bytes, int src, int tag);

    /// recv() with a deadline: throws ExecError (with rank/src/tag and
    /// transport context) if no matching message arrives within `timeoutMs`
    /// milliseconds.
    int recvTimeout(void* buf, size_t bytes, int src, int tag, int timeoutMs);

    /// Combined exchange: buffered send to `dest`, then receive from `src`.
    int sendrecv(const void* sbuf, size_t sbytes, int dest,
                 void* rbuf, size_t rbytes, int src, int tag);

    /// Combined exchange posting the send as a move (zero-copy) when the
    /// caller hands over an rvalue buffer.
    int sendrecv(std::vector<uint8_t>&& sbuf, int dest,
                 void* rbuf, size_t rbytes, int src, int tag);

    /// Collective barrier over all ranks.
    void barrier();

    /// Broadcast `bytes` from `root`'s buffer into every rank's buffer
    /// along a binomial tree (ceil(log2(size)) rounds, size-1 messages).
    void bcast(void* buf, size_t bytes, int root);

    /// Element-wise all-reduce of buf[0..n): gather to rank 0 in rank
    /// order (deterministic floating point), reduce, binomial-tree
    /// broadcast of the result. The scalar overloads route through this.
    void allreduceSumF64(double* buf, int n);
    void allreduceMaxF64(double* buf, int n);

    /// All-reduce of one double.
    double allreduceSum(double v);
    double allreduceMax(double v);

    /// Publishes this rank's primitive result for World::takeResult —
    /// the only sanctioned way for a value to leave the world on the proc
    /// transport, where lambda captures cannot cross the fork boundary.
    void publishResult(int kind, int64_t bits);

private:
    void allreduceF64(double* buf, int n, bool isMax);

    /// Binomial-tree fan-out of `bytes` from `root` on the system channel;
    /// shared by bcast and the allreduce down-phase (distinct tags).
    void treeBcast(void* buf, size_t bytes, int root, int tag);

    /// FaultPlan hook: one "comm op" per public operation entry.
    void faultHook();

public:

    /// Convenience float-array wrappers (what the IR intrinsics bind to).
    void sendF32(const float* buf, int n, int dest, int tag) {
        send(buf, sizeof(float) * static_cast<size_t>(n), dest, tag);
    }
    void recvF32(float* buf, int n, int src, int tag) {
        recv(buf, sizeof(float) * static_cast<size_t>(n), src, tag);
    }

private:
    friend class World;
    Comm(World* w, int rank) : world_(w), rank_(rank) {}
    World* world_;
    int rank_;
};

/// A fixed-size group of ranks over one transport. Construct, then call
/// run() any number of times; each run spawns `size` rank threads (or
/// forked child processes) and joins/reaps them.
class World {
public:
    explicit World(int size, TransportKind kind = defaultTransportKind());
    World(const World&) = delete;
    World& operator=(const World&) = delete;

    int size() const noexcept { return size_; }

    TransportKind transportKind() const noexcept { return transport_->kindId(); }
    const char* transportName() const noexcept { return transport_->kind(); }

    /// Runs `fn` once per rank on its own thread/process. If any rank
    /// throws (or, on the proc transport, dies), the world aborts: all
    /// blocked ranks are released with an error and the first exception is
    /// rethrown here after all ranks joined.
    void run(const std::function<void(Comm&)>& fn);

    /// Overrides the stall-watchdog quantum for this world (milliseconds;
    /// 0 disables). Default: $WJ_WATCHDOG_MS, else 30000.
    void setWatchdogMillis(int ms) { watchdogMs_ = ms; }
    int watchdogMillis() const noexcept { return watchdogMs_; }

    /// True when the last run() was aborted by the stall watchdog.
    bool watchdogFired() const noexcept { return transport_->watchdogFired(); }

    /// Total messages/bytes posted since construction (instrumentation for
    /// tests and the perf model's communication-volume accounting). Counted
    /// at post() time, so collective-internal traffic (bcast / allreduce
    /// fan-out) is included alongside user point-to-point sends.
    int64_t messagesSent() const noexcept { return transport_->stats().messages; }
    int64_t bytesSent() const noexcept { return transport_->stats().bytes; }

    /// Full traffic snapshot including the pooled / zero-copy split.
    CommStats stats() const noexcept { return transport_->stats(); }

    /// Reads and clears the result published by Comm::publishResult during
    /// the last run(); false when no rank published one.
    bool takeResult(int* kind, int64_t* bits) { return transport_->takeResult(kind, bits); }

    /// Messages at or above this size ride in recycled pool buffers on the
    /// threads transport; the buffer returns to the pool when the receiver
    /// drains it.
    static constexpr size_t kPooledThreshold = 256;

private:
    friend class Comm;

    int size_;
    int watchdogMs_;
    std::unique_ptr<Transport> transport_;
};

} // namespace wj::minimpi
