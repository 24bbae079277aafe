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
//     path: one Mailbox per rank, into which a sender moves its message,
//     a condition-variable barrier, and the in-thread stall watchdog. The
//     fast path.
//   * ProcTransport (proc_transport.cpp) — ranks are forked child
//     processes. Point-to-point bytes travel through single-producer/
//     single-consumer byte rings in anonymous MAP_SHARED memory (one ring
//     per ordered (src,dest) pair, condvar-free, spin-with-backoff); a
//     payload of any size streams through its pair's ring into the
//     receiving child's one Mailbox. A parent supervisor reaps children
//     with waitpid, so a rank that dies by real SIGKILL is reported with
//     its pid and signal, and the same two-sample stall watchdog runs
//     against shared-memory wait states.
//
// The semantic layer lives above this interface and is written once for
// both transports: Comm (minimpi.cpp) range-checks, counts and applies the
// fault plan's fate to every message on its one send path and size-checks
// every receive; Mailbox does the tag matching (FIFO per source, ANY
// source), the abort wake-up and the deadline; collectives are layered on
// point-to-point. That is the determinism contract that lets tests
// compare checksums across transports bitwise. A transport only moves
// each message's bytes into the destination rank's mailbox.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
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

/// Traffic accounting snapshot (World::stats()): every message and
/// payload byte posted, user point-to-point and collective internals
/// alike.
struct CommStats {
    int64_t messages = 0;
    int64_t bytes = 0;
};

/// Running totals the send path adds to. The proc transport keeps them in
/// its shared header, so the launching process reads what its children
/// sent.
struct Traffic {
    std::atomic<int64_t> messages{0};
    std::atomic<int64_t> bytes{0};
};

/// One message. The payload is filled once at send; the threads transport
/// moves it into the receiver's mailbox, the proc transport streams it
/// through a ring.
struct Message {
    int src = 0;
    int tag = 0;
    int channel = 0;  // 0 = user point-to-point, 1 = collective internals
    std::vector<uint8_t> data;
};

/// Watchdog-visible wait states of a rank (shared by both transports'
/// per-rank stall dumps).
inline constexpr int kRankRunning = 0;
inline constexpr int kRankBlockedRecv = 1;
inline constexpr int kRankBlockedBarrier = 2;
inline constexpr int kRankDone = 3;

/// One rank's watchdog-visible wait state and identity. Every field is a
/// lock-free atomic: the watchdog samples it from another thread, and on
/// the proc transport from another process (the cells live in shared
/// memory).
struct alignas(64) RankCell {
    std::atomic<int32_t> state{kRankRunning};
    std::atomic<int32_t> src{0};
    std::atomic<int32_t> tag{0};
    std::atomic<int32_t> channel{0};
    std::atomic<int32_t> depth{0};  // mailbox depth (for dumps)
    std::atomic<int32_t> pid{0};    // proc transport only
};

class Transport;

/// One rank's tag-matched mailbox: messages are delivered by any thread
/// and taken by the owning rank, FIFO per (src, tag, channel).
class Mailbox {
public:
    /// Empties the box and binds what it reports to: `owner` names the
    /// transport in error texts, `cell` and `progress` feed the watchdog.
    void reset(const Transport* owner, RankCell* cell, std::atomic<uint64_t>* progress);
    /// Appends `msg` and wakes the owner.
    void deliver(Message&& msg);
    /// Wakes the owner for good: every take from now on throws, naming
    /// `why`. The first abort's reason wins.
    void abort(std::string why);
    /// Removes and returns the oldest message matching (src|ANY, tag,
    /// channel) for rank `me`, blocking while none is queued. `timeoutMs
    /// < 0` waits forever, otherwise throws ExecError after the deadline.
    Message take(int me, int src, int tag, int channel, int timeoutMs);

private:
    std::mutex m_;
    std::condition_variable cv_;
    std::deque<Message> q_;
    bool aborted_ = false;
    std::string why_;
    const Transport* owner_ = nullptr;
    RankCell* cell_ = nullptr;
    std::atomic<uint64_t>* progress_ = nullptr;
};

/// The two-sample stall rule both watchdogs apply: the world has stalled
/// when, on two consecutive samples, the progress counter stood still
/// while at least one rank was blocked and every other was blocked or
/// finished.
class StallWatch {
public:
    /// Takes one sample; true once the world has stalled. Ranks for which
    /// `gone(r)` holds (dead children) count as finished.
    bool sample(uint64_t progress, const RankCell* cells, int n,
                const std::function<bool(int)>& gone = {});

private:
    uint64_t lastProgress_ = ~uint64_t{0};
    bool stalledOnce_ = false;
};

/// The per-rank wait dump that ends the watchdog's and the dead-child
/// report: one line per rank; `status(r)`, when given, is appended in
/// brackets.
std::string waitDump(const RankCell* cells, int n,
                     const std::function<std::string(int)>& status = {});

/// The watchdog's abort text: the stall header, then waitDump.
std::string stallReport(const char* transport, int quantumMs, const std::string& dump);

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
    /// The running totals Comm's send path counts every message into.
    virtual Traffic& traffic() = 0;
    /// Moves `msg` into rank `dest`'s mailbox. Comm has already checked
    /// `dest`, counted the message and applied the fault plan's fate.
    virtual void deliver(int dest, Message&& msg) = 0;
    /// Rank `me`'s mailbox (on the proc transport, the calling child's).
    virtual Mailbox& mailbox(int me) = 0;
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
