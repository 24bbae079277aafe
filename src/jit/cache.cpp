#include "jit/cache.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "support/crc32.h"
#include "support/scratch.h"
#include "support/strings.h"
#include "support/timer.h"

namespace fs = std::filesystem;

namespace wj {

namespace {

constexpr uint64_t kDefaultMaxBytes = 256ull << 20;

/// How many of the most recently used modules the in-process registry keeps
/// loaded when no caller holds them (about 18.5 KB of RSS each for a 15.7
/// KB module), so a re-jit of a hot translation unit is a map lookup.
constexpr size_t kKeptModules = 16;

bool envFlagOff(const char* name) {
    const char* v = std::getenv(name);
    if (!v) return false;
    const std::string s(v);
    return s == "0" || s == "off" || s == "false" || s == "no";
}

std::string hexKey(uint64_t key) { return format("%016llx", static_cast<unsigned long long>(key)); }

int64_t envMs(const char* name, int64_t dflt) {
    const char* v = std::getenv(name);
    if (!v || !*v) return dflt;
    const long long n = std::atoll(v);
    return n >= 0 ? n : dflt;
}

/// Reads a whole file with one read sized by fstat; returns false if it
/// cannot be opened or read. (A short read leaves a truncated `out`, which
/// fails lookup()'s CRC check: the entry is recompiled, never served.)
bool slurp(const fs::path& p, std::string& out) {
    const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    struct stat st {};
    const bool sized = ::fstat(fd, &st) == 0;
    if (sized) out.resize(static_cast<size_t>(st.st_size));
    const ssize_t n = sized ? ::read(fd, out.data(), out.size()) : -1;
    ::close(fd);
    if (n < 0) return false;
    out.resize(static_cast<size_t>(n));
    return true;
}

struct Entry {
    fs::path path;
    uint64_t bytes;
    fs::file_time_type mtime;
};

/// All .so entries in the store, oldest mtime first.
std::vector<Entry> scanEntries(const fs::path& dir) {
    std::vector<Entry> out;
    std::error_code ec;
    for (const auto& de : fs::directory_iterator(dir, ec)) {
        if (de.path().extension() != ".so") continue;
        std::error_code ec2;
        const uint64_t n = de.file_size(ec2);
        const auto mt = de.last_write_time(ec2);
        if (!ec2) out.push_back({de.path(), n, mt});
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
        return a.mtime < b.mtime;
    });
    return out;
}

using Kept = std::vector<std::pair<uint64_t, std::shared_ptr<NativeModule>>>;

/// Puts `mod` under `key` at the front of the most-recently-used list and
/// returns the module that fell off its end or was replaced under `key`.
/// The caller releases that after unlocking the registry: the last
/// reference to a module dlcloses it.
std::shared_ptr<NativeModule> keep(Kept& kept, uint64_t key, std::shared_ptr<NativeModule> mod) {
    auto it = std::find_if(kept.begin(), kept.end(), [&](const auto& e) { return e.first == key; });
    if (it == kept.end()) {
        if (kept.size() < kKeptModules) kept.emplace_back();
        it = kept.end() - 1;
    }
    std::shared_ptr<NativeModule> dropped = std::move(it->second);
    std::rotate(kept.begin(), it, it + 1);
    kept.front() = {key, std::move(mod)};
    return dropped;
}

} // namespace

uint64_t fnv1a64(const void* data, size_t n, uint64_t seed) noexcept {
    uint64_t h = seed;
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct JitCache::Impl {
    std::mutex m;  // guards loaded, kept and stats (disk ops rely on atomic rename)
    /// Every loaded module, found by key while anyone holds it.
    std::unordered_map<uint64_t, std::weak_ptr<NativeModule>> loaded;
    /// The kKeptModules most recently used of them, held, most recent first.
    Kept kept;
    CacheStats stats;
};

JitCache& JitCache::instance() {
    static JitCache c;
    return c;
}

JitCache::Impl& JitCache::impl() const {
    static Impl i;
    return i;
}

bool JitCache::enabled() const { return !envFlagOff("WJ_CACHE"); }

std::string JitCache::dir() const {
    if (const char* d = std::getenv("WJ_CACHE_DIR"); d && *d) return d;
    if (const char* x = std::getenv("XDG_CACHE_HOME"); x && *x) {
        return std::string(x) + "/wootinc";
    }
    if (const char* h = std::getenv("HOME"); h && *h) {
        return std::string(h) + "/.cache/wootinc";
    }
    return tempRoot() + "/wootinc-cache";
}

uint64_t JitCache::maxBytes() const {
    if (const char* v = std::getenv("WJ_CACHE_MAX_BYTES"); v && *v) {
        const long long n = std::atoll(v);
        if (n > 0) return static_cast<uint64_t>(n);
    }
    return kDefaultMaxBytes;
}

uint64_t JitCache::keyOf(const std::string& cSource, const std::string& cc,
                         const std::string& flags, uint64_t rtVersion) noexcept {
    return keyOf(fnv1a64(cSource.data(), cSource.size()), cc, flags, rtVersion);
}

uint64_t JitCache::keyOf(uint64_t sourceHash, const std::string& cc, const std::string& flags,
                         uint64_t rtVersion) noexcept {
    uint64_t h = fnv1a64(cc.data(), cc.size(), sourceHash);
    h = fnv1a64(flags.data(), flags.size(), h);
    h = fnv1a64(&rtVersion, sizeof rtVersion, h);
    return h;
}

uint64_t JitCache::runtimeHeadersVersion(const std::string& includeDir) {
    // The runtime contract of the generated C is exactly these headers; a
    // change to either must invalidate every cached binary. Computed once —
    // the headers cannot change under a running process.
    static std::once_flag once;
    static uint64_t version = 0;
    std::call_once(once, [&] {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (const char* name : {"wjrt.h", "rng_hash.h", "context.h"}) {
            std::string text;
            if (slurp(fs::path(includeDir) / name, text)) {
                h = fnv1a64(text.data(), text.size(), h);
            }
        }
        version = h;
    });
    return version;
}

std::string JitCache::entryPath(uint64_t key) const {
    return (fs::path(dir()) / (hexKey(key) + ".so")).string();
}

std::string JitCache::lookup(uint64_t key) {
    if (!enabled()) return "";
    const fs::path p = fs::path(dir()) / (hexKey(key) + ".so");
    std::error_code ec;
    if (!fs::exists(p, ec) || ec) return "";
    // Integrity check against the CRC sidecar written at store time: a
    // corrupted .so can still dlopen (bit flips in code pages, not ELF
    // headers), so "it loaded" is not proof the entry is intact. A mismatch
    // evicts the entry; the caller recompiles. Entries without a sidecar
    // (pre-CRC stores) keep the old dlopen-only validation.
    std::string want;
    if (slurp(fs::path(p.string() + ".crc"), want)) {
        std::string bytes;
        const unsigned long stored = std::strtoul(want.c_str(), nullptr, 16);
        if (!slurp(p, bytes) ||
            crc32(bytes.data(), bytes.size()) != static_cast<uint32_t>(stored)) {
            noteCorrupt();
            invalidate(key);
            return "";
        }
    }
    // Refresh the LRU stamp so hot entries survive eviction.
    fs::last_write_time(p, fs::file_time_type::clock::now(), ec);
    return p.string();
}

std::string JitCache::store(uint64_t key, const std::string& soPath, const std::string& tag) {
    if (!enabled()) return "";
    const fs::path d(dir());
    std::error_code ec;
    fs::create_directories(d, ec);
    if (ec) return "";

    const fs::path dst = d / (hexKey(key) + ".so");
    // Write-to-temp + rename: readers either see the old entry, no entry,
    // or the complete new one — never a half-copied .so. The temp name is
    // pid-unique so concurrent stores of the same key cannot collide.
    const fs::path tmp = d / format(".tmp-%s-%d", hexKey(key).c_str(),
                                    static_cast<int>(::getpid()));
    fs::copy_file(soPath, tmp, fs::copy_options::overwrite_existing, ec);
    if (ec) return "";
    fs::rename(tmp, dst, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return "";
    }

    {
        // CRC sidecar: lookup() verifies the entry's bytes before serving
        // it, catching corruption that dlopen alone would not.
        std::string bytes;
        if (slurp(dst, bytes)) {
            std::ofstream crcOut(dst.string() + ".crc", std::ios::trunc);
            crcOut << format("%08x", crc32(bytes.data(), bytes.size()));
        }
    }
    {
        std::ofstream idx(d / "index.tsv", std::ios::app);
        std::error_code sec;
        idx << hexKey(key) << '\t' << tag << '\t' << fs::file_size(dst, sec) << '\n';
    }
    {
        std::lock_guard<std::mutex> lock(impl().m);
        ++impl().stats.stores;
    }
    enforceCap();
    // Fault injection happens after the sidecar is written, so an injected
    // corruption is exactly what lookup()'s CRC check is built to catch.
    if (fault::FaultPlan::active()) {
        fault::FaultPlan::instance().maybeCorruptCacheFile(dst.string());
    }
    return dst.string();
}

void JitCache::enforceCap() {
    const fs::path d(dir());
    const uint64_t cap = maxBytes();
    auto entries = scanEntries(d);
    uint64_t total = 0;
    for (const auto& e : entries) total += e.bytes;
    // Multi-process safety: an entry another wjd worker published moments
    // ago has not necessarily been dlopen()ed by its publisher yet, and
    // this process's scan is a stale snapshot. Entries younger than the
    // grace window are never unlinked (their bytes still count toward the
    // running total, so old entries are evicted first and harder).
    const auto grace =
        std::chrono::milliseconds(envMs("WJ_CACHE_EVICT_GRACE_MS", 0));
    const auto now = fs::file_time_type::clock::now();
    int64_t evicted = 0;
    for (const auto& e : entries) {
        if (total <= cap) break;
        if (grace.count() > 0 && e.mtime > now - grace) continue;
        std::error_code ec;
        if (fs::remove(e.path, ec) && !ec) {
            total -= e.bytes;
            ++evicted;
            std::error_code ec2;
            fs::remove(fs::path(e.path.string() + ".crc"), ec2);
        }
    }
    if (evicted) {
        std::lock_guard<std::mutex> lock(impl().m);
        impl().stats.evictions += evicted;
    }
}

JitCache::BuildLock& JitCache::BuildLock::operator=(BuildLock&& o) noexcept {
    if (this != &o) {
        release();
        state_ = o.state_;
        path_ = std::move(o.path_);
        o.state_ = State::Skipped;
        o.path_.clear();
    }
    return *this;
}

void JitCache::BuildLock::release() {
    if (state_ == State::Acquired && !path_.empty()) {
        std::error_code ec;
        fs::remove(fs::path(path_), ec);
    }
    path_.clear();
    if (state_ == State::Acquired) state_ = State::Skipped;
}

JitCache::BuildLock JitCache::lockForBuild(uint64_t key) {
    BuildLock out;
    if (!enabled() || envFlagOff("WJ_CACHE_LOCK")) return out;  // Skipped
    const fs::path d(dir());
    std::error_code ec;
    fs::create_directories(d, ec);
    if (ec) return out;
    const fs::path so = d / (hexKey(key) + ".so");
    const fs::path lockPath = d / (hexKey(key) + ".building");
    const int64_t timeoutMs = envMs("WJ_CACHE_LOCK_TIMEOUT_MS", 120000);
    const int64_t staleMs = envMs("WJ_CACHE_LOCK_STALE_MS", 120000);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
    for (;;) {
        // O_CREAT|O_EXCL is the atomic claim; the body records the holder
        // pid so waiters can detect a dead leader.
        const int fd = ::open(lockPath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            const std::string pid = format("%d\n", static_cast<int>(::getpid()));
            (void)!::write(fd, pid.data(), pid.size());
            ::close(fd);
            out.state_ = BuildLock::State::Acquired;
            out.path_ = lockPath.string();
            return out;
        }
        if (errno != EEXIST) return out;  // unusual fs error: Skipped
        // Someone else is building. Wait for the publish, stealing the
        // lock if the holder died (its pid is gone, or the lock is older
        // than the stale window — a SIGKILLed holder never cleans up).
        std::error_code ec2;
        if (fs::exists(so, ec2) && !ec2) {
            out.state_ = BuildLock::State::Published;
            return out;
        }
        std::ifstream in(lockPath);
        long long holderPid = 0;
        if (in >> holderPid; holderPid > 0 && holderPid != ::getpid()) {
            if (::kill(static_cast<pid_t>(holderPid), 0) == -1 && errno == ESRCH) {
                fs::remove(lockPath, ec2);
                continue;  // retry the claim immediately
            }
        }
        const auto mtime = fs::last_write_time(lockPath, ec2);
        if (!ec2 && mtime < fs::file_time_type::clock::now() -
                                std::chrono::milliseconds(staleMs)) {
            fs::remove(lockPath, ec2);
            continue;
        }
        if (std::chrono::steady_clock::now() >= deadline) return out;  // Skipped
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

void JitCache::invalidate(uint64_t key) {
    std::error_code ec;
    fs::remove(fs::path(dir()) / (hexKey(key) + ".so"), ec);
    fs::remove(fs::path(dir()) / (hexKey(key) + ".so.crc"), ec);
}

void JitCache::clearDisk() {
    const fs::path d(dir());
    std::error_code ec;
    for (const auto& de : fs::directory_iterator(d, ec)) {
        if (de.path().extension() == ".so" || de.path().extension() == ".crc" ||
            de.path().extension() == ".building" ||
            de.path().filename() == "index.tsv") {
            std::error_code ec2;
            fs::remove(de.path(), ec2);
        }
    }
}

uint64_t JitCache::diskBytes() const {
    uint64_t total = 0;
    for (const auto& e : scanEntries(dir())) total += e.bytes;
    return total;
}

// In the three functions below, `dropped` is declared before the lock guard,
// so it is destroyed after the unlock: a module's last release dlcloses it,
// and that never runs under the registry mutex.

std::shared_ptr<NativeModule> JitCache::findLoaded(uint64_t key) {
    if (!enabled()) return nullptr;
    std::shared_ptr<NativeModule> dropped;
    std::lock_guard<std::mutex> lock(impl().m);
    auto it = impl().loaded.find(key);
    if (it == impl().loaded.end()) return nullptr;
    std::shared_ptr<NativeModule> mod = it->second.lock();
    if (mod) dropped = keep(impl().kept, key, mod);
    return mod;
}

void JitCache::registerLoaded(uint64_t key, const std::shared_ptr<NativeModule>& mod) {
    if (!enabled()) return;
    std::shared_ptr<NativeModule> dropped;
    std::lock_guard<std::mutex> lock(impl().m);
    impl().loaded[key] = mod;
    dropped = keep(impl().kept, key, mod);
}

void JitCache::clearLoaded() {
    Kept dropped;
    std::lock_guard<std::mutex> lock(impl().m);
    impl().loaded.clear();
    dropped.swap(impl().kept);
}

CacheStats JitCache::stats() const {
    std::lock_guard<std::mutex> lock(impl().m);
    return impl().stats;
}

void JitCache::resetStats() {
    std::lock_guard<std::mutex> lock(impl().m);
    impl().stats = CacheStats{};
}

void JitCache::noteMiss(double lookupSeconds) {
    std::lock_guard<std::mutex> lock(impl().m);
    ++impl().stats.misses;
    impl().stats.lookupSeconds += lookupSeconds;
}

void JitCache::noteMemoryHit() {
    std::lock_guard<std::mutex> lock(impl().m);
    ++impl().stats.memoryHits;
}

void JitCache::noteDiskHit(double lookupSeconds) {
    std::lock_guard<std::mutex> lock(impl().m);
    ++impl().stats.diskHits;
    impl().stats.lookupSeconds += lookupSeconds;
}

void JitCache::noteCorrupt() {
    std::lock_guard<std::mutex> lock(impl().m);
    ++impl().stats.corrupt;
}

void JitCache::noteCrossJoin() {
    std::lock_guard<std::mutex> lock(impl().m);
    ++impl().stats.crossJoins;
}

} // namespace wj
