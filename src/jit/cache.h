// Persistent, content-addressed compile cache for the JIT.
//
// The paper's Table 3 shows the external C compiler dominating end-to-end
// compilation time (icc -O3 -ipo takes seconds per translation unit), and
// Figures 13-16 report strong scaling *excluding* compile time for exactly
// this reason. Real JIT stacks amortize the cost with a code cache (cf.
// Clarkson et al., "Boosting Java Performance using GPGPUs", which caches
// generated GPU binaries across runs). WootinC does the same: the compiled
// .so of every translation unit is stored under a key derived from
// everything that influences the binary —
//
//     key = FNV-1a( generated C source
//                 , resolved compiler (WJ_CC)
//                 , resolved flags (WJ_CFLAGS)
//                 , toolchain version (hash of wjrt.h / rng_hash.h, with
//                   the fixed compile recipe folded in; compile.h) )
//
// so a source, compiler, flag, runtime-header or recipe change each
// invalidates the entry naturally; no explicit versioning is needed.
//
// Two layers:
//   * an in-process module registry (key -> loaded NativeModule), so
//     repeated WootinJ::jit() of the same translation unit within one
//     process reuses the already-dlopen()ed module. The registry holds the
//     16 most recently used modules itself, so a re-jit after the last
//     JitCode of a key died is still a memory hit, with no disk read, CRC
//     or dlopen (see findLoaded());
//   * an on-disk store of .so files under $WJ_CACHE_DIR (default
//     ~/.cache/wootinc), shared across processes. Entries are published
//     with write-to-temp + atomic rename, so concurrent processes (ctest
//     -j) can race on the same key safely. An append-only index.tsv
//     records (key, tag, bytes) per store for inspection. Eviction is
//     LRU by file mtime (touched on every hit) with a byte cap from
//     $WJ_CACHE_MAX_BYTES (default 256 MiB); entries younger than
//     $WJ_CACHE_EVICT_GRACE_MS are exempt, so one process's eviction
//     sweep can never unlink an artifact another process just published
//     but has not yet dlopen()ed (wjd sets a 10 s grace; the default is
//     0 to keep single-process byte caps exact).
//
// Environment:
//   WJ_CACHE=0            disable both layers (every compile is cold)
//   WJ_CACHE_DIR=<path>   override the store location
//   WJ_CACHE_MAX_BYTES=N  LRU size cap for the on-disk store
//   WJ_CACHE_EVICT_GRACE_MS=N  entries younger than N ms survive eviction
//   WJ_CACHE_LOCK=0       disable the cross-process in-flight build dedup
//   WJ_CACHE_LOCK_TIMEOUT_MS / WJ_CACHE_LOCK_STALE_MS  see BuildLock
//
// All env vars are re-read on every call, so tests and benches can
// redirect or disable the cache at run time with setenv().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace wj {

class NativeModule;

/// Process-lifetime counters for the two cache layers (benches print them;
/// tests assert on deltas).
struct CacheStats {
    int64_t diskHits = 0;     ///< entries served from $WJ_CACHE_DIR
    int64_t memoryHits = 0;   ///< entries served from the in-process registry
    int64_t misses = 0;       ///< external compiler actually ran
    int64_t stores = 0;       ///< entries published to disk
    int64_t evictions = 0;    ///< entries removed by the LRU cap
    int64_t corrupt = 0;      ///< cached .so that failed to dlopen (recompiled)
    int64_t crossJoins = 0;   ///< compiles joined to another process's in-flight build
    double lookupSeconds = 0; ///< total wall time spent in lookups
};

/// FNV-1a 64-bit over a byte string (the content-address hash).
uint64_t fnv1a64(const void* data, size_t n, uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

class JitCache {
public:
    static JitCache& instance();

    /// False when WJ_CACHE is "0"/"off"/"false" (re-read per call).
    bool enabled() const;

    /// Resolved store directory: $WJ_CACHE_DIR, else $XDG_CACHE_HOME/wootinc,
    /// else $HOME/.cache/wootinc, else <tmp>/wootinc-cache.
    std::string dir() const;

    /// LRU byte cap: $WJ_CACHE_MAX_BYTES or 256 MiB.
    uint64_t maxBytes() const;

    /// Cache key over everything that influences the produced binary.
    static uint64_t keyOf(const std::string& cSource, const std::string& cc,
                          const std::string& flags, uint64_t rtVersion) noexcept;
    /// The same key from fnv1a64(cSource): FNV-1a is a running state, so
    /// this folds in only the rest and equals keyOf(cSource, ...) bit for bit.
    static uint64_t keyOf(uint64_t sourceHash, const std::string& cc, const std::string& flags,
                          uint64_t rtVersion) noexcept;

    /// Hash of the runtime headers the generated C #includes (wjrt.h,
    /// rng_hash.h under WJ_RT_INCLUDE_DIR). Computed once per process.
    static uint64_t runtimeHeadersVersion(const std::string& includeDir);

    // ---- on-disk store ------------------------------------------------
    /// Path of the cached .so for `key` if present (mtime is refreshed for
    /// LRU), empty string otherwise. Counts a disk hit / nothing; the miss
    /// is counted by store().
    std::string lookup(uint64_t key);

    /// Atomically publishes the freshly built `soPath` under `key` and
    /// returns the in-cache path; returns "" if the cache is disabled or
    /// the copy failed (caller keeps using soPath). Enforces the LRU cap.
    std::string store(uint64_t key, const std::string& soPath, const std::string& tag);

    /// Removes a cached entry (used when a cached .so fails to dlopen).
    void invalidate(uint64_t key);

    /// Where `key` is (or would be) stored — `<dir>/<16-hex-key>.so`. Pure
    /// path math: no existence check, no stats, no mtime touch (wjd reports
    /// artifact paths to clients with this; lookup() is the stats-bearing
    /// probe).
    std::string entryPath(uint64_t key) const;

    // ---- cross-process in-flight dedup --------------------------------
    /// RAII guard for the cross-process compile singleflight. On a cache
    /// miss, compileAndLoad asks for the build lock of the key before
    /// spawning cc: exactly one process per key becomes the leader
    /// (state Acquired, a `<key>.building` lock file holding its pid);
    /// every other process blocks until the leader publishes the artifact
    /// (state Published — the caller re-looks-up and skips its own cc
    /// invocation) or the lock disappears without a publish (the leader
    /// failed; the waiter retries acquisition and becomes the new leader).
    /// Stale locks — holder pid dead, or mtime older than
    /// WJ_CACHE_LOCK_STALE_MS (default 120 s, SIGKILLed holders) — are
    /// stolen. A waiter that exceeds WJ_CACHE_LOCK_TIMEOUT_MS (default
    /// 120 s) gives up with state Skipped and compiles anyway: the atomic
    /// store keeps duplicated compiles correct, just wasteful.
    /// WJ_CACHE_LOCK=0 disables the whole mechanism (every caller gets
    /// Skipped immediately), as does a disabled cache.
    class BuildLock {
    public:
        enum class State {
            Acquired,   ///< we are the leader: compile, store, release
            Published,  ///< another process published while we waited
            Skipped,    ///< locking off / timed out: compile without dedup
        };

        BuildLock() = default;
        BuildLock(BuildLock&& o) noexcept { *this = std::move(o); }
        BuildLock& operator=(BuildLock&& o) noexcept;
        ~BuildLock() { release(); }

        State state() const noexcept { return state_; }
        /// Removes the lock file (leader only; idempotent). Call after the
        /// artifact is stored so waiters always find either the lock or
        /// the published entry.
        void release();

    private:
        friend class JitCache;
        State state_ = State::Skipped;
        std::string path_;  ///< lock file owned when state_ == Acquired
    };

    /// Blocks per the BuildLock contract above. `key` must be the exact
    /// content-address the subsequent store() will publish under.
    BuildLock lockForBuild(uint64_t key);

    /// Deletes every entry and the index (wjc cache clear; benches).
    void clearDisk();

    /// Total bytes currently stored (wjc cache stats).
    uint64_t diskBytes() const;

    // ---- in-process module registry -----------------------------------
    // Every loaded module is findable by key while anyone holds it. The
    // registry itself holds the 16 most recently used (a fixed constant):
    // both calls below move the key to the front, and a module pushed out
    // of those 16 is released once the registry mutex is unlocked, so its
    // dlclose never runs under the lock. A disabled cache (WJ_CACHE=0)
    // registers and finds nothing.
    std::shared_ptr<NativeModule> findLoaded(uint64_t key);
    void registerLoaded(uint64_t key, const std::shared_ptr<NativeModule>& mod);
    /// Drops the registry, held and unheld modules alike, so the next jit()
    /// of a known TU exercises the disk layer (tests; bench_tab3's cold
    /// rows; perfbench's cold set-ups).
    void clearLoaded();

    // ---- observability ------------------------------------------------
    CacheStats stats() const;
    void resetStats();

    // Internal: stat accounting shared with compileAndLoad.
    void noteMiss(double lookupSeconds);
    void noteMemoryHit();
    void noteDiskHit(double lookupSeconds);
    void noteCorrupt();
    void noteCrossJoin();

private:
    JitCache() = default;

    /// Evicts oldest-mtime entries until the store fits maxBytes().
    void enforceCap();

    struct Impl;
    Impl& impl() const;
};

} // namespace wj
