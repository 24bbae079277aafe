// FaultPlan: deterministic fault injection for MiniMPI and the JIT pipeline.
//
// Real WootinJ runs under mpirun on a shared cluster where ranks die,
// messages are lost or corrupted by flaky links, and the external compiler
// occasionally fails for reasons that have nothing to do with the source
// (filesystem hiccups, OOM kills). MiniMPI's abort propagation already
// models MPI_Abort; this module adds the *injector*: a seeded plan,
// configured from the WJ_FAULT environment variable or programmatically,
// whose hooks the substrates consult at well-defined points. Every action
// is reproducible from the spec alone — counters are deterministic, and
// probabilistic rules draw from a SplitMix64 stream seeded by the plan.
//
// Spec grammar (segments joined with ';'):
//
//   WJ_FAULT   := segment (';' segment)*
//   segment    := 'seed=' <u64>                      global PRNG seed
//               | action [':' kv (',' kv)*]
//   action     := 'kill' | 'drop' | 'dup' | 'corrupt' | 'delay'
//               | 'failcompile' | 'corruptcache'
//   kv         := key '=' value
//
// Rule keys:
//   kill         rank=<r> (required)  op=<n>   kill rank r by throwing from
//                                              its n-th Comm operation
//                                              (send/recv/collective entry)
//   drop         src= dest= tag=  nth= count= prob=   message verdicts,
//   dup          src= dest= tag=  nth= count= prob=   counted over messages
//   corrupt      src= dest= tag=  nth= count= prob=   matching the filters
//   delay        src= dest= tag=  nth= count= prob= ms=<millis>
//   failcompile  nth= count=    fail the n-th (and count-1 following)
//                               external-compiler invocation
//   corruptcache nth= count=    flip a byte in the n-th published cache .so
//
// Filters default to "any"; nth is 1-based and defaults to 1; count
// defaults to 1; prob (0..1) replaces nth/count with a seeded coin flip.
// Counter-based rules are exact-replay deterministic; prob rules are
// deterministic only for deterministic schedules (documented in README).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wj::fault {

/// What Comm::post should do with a message after injection.
enum class MsgFate { Deliver, Drop, Duplicate };

class FaultPlan {
public:
    /// Process-wide plan. First access seeds it from $WJ_FAULT (if set).
    static FaultPlan& instance();

    /// True when at least one rule is armed — hooks are cheap to skip when
    /// false, so hot paths guard with this before calling instance().
    static bool active() noexcept { return active_.load(std::memory_order_relaxed); }

    /// When true, a firing kill rule delivers a REAL SIGKILL to the calling
    /// process (after printing the injected-fault message to stderr) instead
    /// of throwing. Set by the proc transport inside each forked rank, so a
    /// "killed" rank actually dies mid-instruction the way a cluster node
    /// does — no stack unwinding, no destructors, no cooperative cleanup.
    static void killWithSigkill(bool enable) noexcept {
        sigkillMode_.store(enable, std::memory_order_relaxed);
    }
    static bool killsWithSigkill() noexcept {
        return sigkillMode_.load(std::memory_order_relaxed);
    }

    /// Replaces the plan with `spec` (grammar above). Empty spec disarms.
    /// Throws UsageError on malformed specs.
    void configure(const std::string& spec);

    /// Removes every rule and resets all counters.
    void disarm();

    /// Normalized one-line rendering of the armed rules (wjc, tests).
    std::string describe() const;

    // ---- hooks ---------------------------------------------------------
    /// Called by Comm entry points. Throws ExecError("injected fault: ...")
    /// when a kill rule fires for this rank's n-th operation.
    void onCommOp(int rank);

    /// Called by Comm::post before delivery. May corrupt `payload` in
    /// place, sleep (delay), and returns the message's fate.
    MsgFate onMessage(int src, int dest, int tag, std::vector<uint8_t>& payload);

    /// Called by compileAndLoad before each external-compiler attempt.
    /// True means "this attempt fails" (the caller simulates a transient
    /// compiler failure without running cc).
    bool failThisCompile();

    /// Called after a .so is published to the on-disk cache. Flips a byte
    /// in the file when a corruptcache rule fires; returns true if it did.
    bool maybeCorruptCacheFile(const std::string& path);

    // ---- observability -------------------------------------------------
    struct Stats {
        int64_t kills = 0;
        int64_t drops = 0;
        int64_t duplicates = 0;
        int64_t corruptions = 0;
        int64_t delays = 0;
        int64_t compileFailures = 0;
        int64_t cacheCorruptions = 0;
    };
    Stats stats() const;
    void resetStats();

private:
    FaultPlan() = default;

    static std::atomic<bool> active_;
    static std::atomic<bool> sigkillMode_;

    struct Impl;
    Impl& impl() const;
};

} // namespace wj::fault
