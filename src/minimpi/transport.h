// Transport: the address-space strategy under MiniMPI's World/Comm facade.
//
// The paper's generated code runs under mpirun, where every rank owns a
// private address space and the MPI library decides how bytes cross the
// gap. MiniMPI grew up with exactly one strategy — ranks as OS threads in
// one process, messages through shared tag-matched mailboxes — which is
// the fastest possible "interconnect" but makes every fault-tolerance
// claim gentler than reality: a "killed" rank is a cooperative throw, the
// watchdog never meets a genuinely dead peer, and checkpoints never face a
// real SIGKILL.
//
// This interface splits the strategy from the semantics:
//
//   * ThreadTransport (thread_transport.cpp) — the original in-process
//     path: unbounded mailboxes, condvar blocking, the zero-copy /
//     buffer-pool payload strategy, a condition-variable barrier, and the
//     in-thread stall watchdog. The fast path, bit-for-bit as before.
//   * ProcTransport (proc_transport.cpp) — ranks are forked child
//     processes. Point-to-point bytes travel through single-producer/
//     single-consumer byte rings in anonymous MAP_SHARED memory (one ring
//     per ordered (src,dest) pair, condvar-free, spin-with-backoff); a
//     payload of any size streams through its pair's ring. A parent
//     supervisor reaps children with waitpid, so a rank that dies by real
//     SIGKILL is reported with its pid and signal, and the same two-sample
//     stall watchdog runs against shared-memory wait states.
//
// The semantic layer (Comm: tag matching, FIFO per source, collectives
// layered on point-to-point, fault hooks) lives above this interface in
// minimpi.cpp and is identical for both transports — that is the
// determinism contract that lets tests compare checksums across
// transports bitwise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace wj::minimpi {

/// Matches any source rank in recv().
inline constexpr int kAnySource = -1;

/// Which address-space strategy a World uses.
enum class TransportKind { Threads, Proc };

/// $WJ_TRANSPORT ("threads" | "proc"), defaulting to Threads. Throws
/// UsageError on any other value.
TransportKind defaultTransportKind();

/// $WJ_NP when set and positive, else `fallback` — how `wjrun -np N`
/// communicates the rank count to examples it launches.
int configuredRanks(int fallback);

/// Traffic accounting snapshot (World::stats()). `bytes` counts every
/// payload byte posted; the pooled/zeroCopy splits say how those bytes
/// travelled on the threads transport, so benches can report how much was
/// actually memcpy'd:
///   copied      = plain assign into a fresh vector (small messages),
///   pooled      = one memcpy into a recycled pool buffer (large messages:
///                 no allocation, and the buffer returns to the pool at
///                 recv), and
///   zero-copy   = the caller's vector moved straight into the mailbox.
/// The process transport always crosses address spaces (a ring copy), so
/// it reports every message as copied.
struct CommStats {
    int64_t messages = 0;
    int64_t bytes = 0;
    int64_t pooledMessages = 0;
    int64_t pooledBytes = 0;
    int64_t zeroCopyMessages = 0;
    int64_t zeroCopyBytes = 0;
    /// Bytes that crossed the mailbox via at least one send-side memcpy.
    int64_t copiedBytes() const noexcept { return bytes - zeroCopyBytes; }
};

/// How a message payload was produced on the send side (threads-transport
/// zero-copy accounting; the process transport always copies).
enum Origin : uint8_t { kOriginCopied = 0, kOriginPooled = 1, kOriginMoved = 2 };

struct Message {
    int src = 0;
    int tag = 0;
    int channel = 0;  // 0 = user point-to-point, 1 = collective internals
    uint8_t origin = kOriginCopied;
    std::vector<uint8_t> data;
};

/// Watchdog-visible wait states of a rank (shared by both transports'
/// per-rank stall dumps).
inline constexpr int kRankRunning = 0;
inline constexpr int kRankBlockedRecv = 1;
inline constexpr int kRankBlockedBarrier = 2;
inline constexpr int kRankDone = 3;

class Transport {
public:
    virtual ~Transport() = default;

    virtual TransportKind kindId() const noexcept = 0;
    const char* kind() const noexcept {
        return kindId() == TransportKind::Proc ? "proc" : "threads";
    }

    /// Runs `body(rank)` once per rank — on dedicated threads (threads
    /// transport) or in forked child processes (proc transport). Blocks
    /// until every rank finished or the world aborted, then rethrows the
    /// first rank error / dead-child report / watchdog stall report.
    /// `watchdogMs` is the stall quantum (0 disables).
    virtual void run(const std::function<void(int)>& body, int watchdogMs) = 0;

    // ---- data plane (called from a rank's own thread/process) ----------
    /// Enqueues `msg` for `dest`. Accounting and fault injection happen
    /// here so collective-internal traffic is counted like user traffic.
    virtual void post(int dest, Message msg) = 0;
    /// Blocks until a message matching (src|ANY, tag, channel) arrives for
    /// rank `me`; FIFO per (src, tag, channel). `timeoutMs < 0` waits
    /// forever, otherwise throws ExecError after the deadline.
    virtual Message take(int me, int src, int tag, int channel, int timeoutMs) = 0;
    /// Payload setup for raw-region sends (threads: pool buffers at or
    /// above the pooled threshold; proc: plain copy).
    virtual void fillPayload(Message* msg, const void* buf, size_t bytes) = 0;
    /// Returns a drained payload to the transport (threads: buffer pool).
    virtual void recycle(std::vector<uint8_t>&& payload) = 0;
    /// Collective barrier over all ranks for rank `me`.
    virtual void barrier(int me) = 0;

    // ---- result slot ---------------------------------------------------
    /// Publishes rank 0's primitive result so the launching process can
    /// read it after run() — the threads transport stores it in a member,
    /// the process transport writes it to shared memory (lambda captures
    /// cannot cross the fork boundary). `kind`/`bits` encoding is the
    /// caller's (see JitCode::invokeWith).
    virtual void publishResult(int kind, int64_t bits) = 0;
    /// Reads and clears the published result; false when none was set.
    virtual bool takeResult(int* kind, int64_t* bits) = 0;

    // ---- introspection -------------------------------------------------
    virtual CommStats stats() const = 0;
    virtual bool watchdogFired() const noexcept = 0;
    /// Human-readable peer identity for error dumps: "" on the threads
    /// transport, "pid 1234 (running)" / "pid 1234 (killed by signal 9)"
    /// on the process transport.
    virtual std::string peerDescription(int rank) const { (void)rank; return ""; }
    /// Post-run hook on the launching process (the proc transport merges
    /// per-child trace files here, after the parent's own flush).
    virtual void finishRun() {}
};

std::unique_ptr<Transport> makeThreadTransport(int size);
std::unique_ptr<Transport> makeProcTransport(int size);

} // namespace wj::minimpi
