#include "jit/compile.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "jit/cache.h"
#include "support/diagnostics.h"
#include "support/scratch.h"
#include "support/strings.h"
#include "support/timer.h"
#include "trace/metrics.h"
#include "trace/trace.h"

#ifndef WJ_RT_INCLUDE_DIR
#define WJ_RT_INCLUDE_DIR "."
#endif

extern char** environ;

namespace wj {

namespace {

/// A fixed-size worker pool for external compilations. The work is almost
/// entirely "wait for cc", so a handful of threads is enough to keep a
/// multi-TU bench's compile phase fully overlapped.
class CompilePool {
public:
    static CompilePool& instance() {
        static CompilePool p;
        return p;
    }

    std::future<CompileResult> submit(std::string cSource, std::string tag, uint64_t hash) {
        auto task = std::packaged_task<CompileResult()>(
            [src = std::move(cSource), t = std::move(tag), hash] {
                return compileAndLoad(src, t, hash);
            });
        auto fut = task.get_future();
        {
            std::lock_guard<std::mutex> lock(m_);
            q_.push_back(std::move(task));
        }
        cv_.notify_one();
        return fut;
    }

private:
    CompilePool() {
        // Workers mostly block on the external cc process, so more workers
        // than cores still overlaps useful work; floor of 2 keeps the
        // pipeline parallel even on single-core hosts.
        const unsigned hw = std::thread::hardware_concurrency();
        const unsigned n = std::max(2u, std::min(hw ? hw : 2u, 4u));
        for (unsigned i = 0; i < n; ++i) {
            workers_.emplace_back([this] { workerLoop(); });
        }
    }

    ~CompilePool() {
        {
            std::lock_guard<std::mutex> lock(m_);
            done_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    void workerLoop() {
        for (;;) {
            std::packaged_task<CompileResult()> task;
            {
                std::unique_lock<std::mutex> lock(m_);
                cv_.wait(lock, [&] { return done_ || !q_.empty(); });
                if (q_.empty()) return;  // done_ and drained
                task = std::move(q_.front());
                q_.pop_front();
            }
            task();  // exceptions land in the future
        }
    }

    std::mutex m_;
    std::condition_variable cv_;
    std::deque<std::packaged_task<CompileResult()>> q_;
    std::vector<std::thread> workers_;
    bool done_ = false;
};

/// Human-readable decoding of a raw wait status.
std::string describeExitStatus(int raw) {
    if (raw == -1) return "could not launch the compiler";
    if (WIFEXITED(raw)) {
        const int code = WEXITSTATUS(raw);
        // A wrapper script folds a signal-killed child into exit code
        // 128+N; surface that so "cc segfaulted" reads differently from
        // "cc found an error".
        if (code > 128) {
            return format("exit code %d: compiler killed by signal %d", code, code - 128);
        }
        return format("exit code %d", code);
    }
    if (WIFSIGNALED(raw)) return format("killed by signal %d", WTERMSIG(raw));
    return format("unrecognized wait status 0x%x", static_cast<unsigned>(raw));
}

int envInt(const char* name, int dflt) {
    const char* v = std::getenv(name);
    return (v && *v) ? std::atoi(v) : dflt;
}

std::string slurpFile(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// The whitespace-separated words of `s` ($WJ_CC, $WJ_CFLAGS).
std::vector<std::string> words(const std::string& s) {
    std::vector<std::string> out;
    size_t i = 0;
    while ((i = s.find_first_not_of(" \t\n", i)) != std::string::npos) {
        const size_t end = s.find_first_of(" \t\n", i);
        out.push_back(s.substr(i, end - i));
        i = end;
    }
    return out;
}

/// `argv` as a command line a shell would run the same way (paths quoted).
std::string printable(const std::vector<std::string>& argv) {
    std::string out;
    for (const auto& a : argv) {
        if (!out.empty()) out += ' ';
        if (a.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                "0123456789-_=+./,:@%") == std::string::npos) {
            out += a;
            continue;
        }
        out += '\'';
        for (char c : a) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
        out += '\'';
    }
    return out;
}

/// toolchainVersion(compileRecipe()), computed once: neither the recipe nor
/// the runtime headers change under a running process.
uint64_t currentToolchainVersion() {
    static const uint64_t v = toolchainVersion(compileRecipe());
    return v;
}

} // namespace

NativeModule::~NativeModule() {
    if (handle_) dlclose(handle_);
    if (!dir_.empty()) {
        // Best-effort cleanup of the temp dir (source, object, module).
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
}

void* NativeModule::symbol(const std::string& name) const {
    void* s = dlsym(handle_, name.c_str());
    if (!s) throw UsageError("generated module is missing symbol " + name);
    return s;
}

std::string resolvedCompiler() {
    const char* cc = std::getenv("WJ_CC");
    return (cc && *cc) ? std::string(cc) : std::string("cc");
}

std::string resolvedFlags() {
    // -O2 -fPIC -shared: the role icc's "-O3 -ipo" plays in the paper's
    // Tables 1-2. -fopenmp-simd honors the `#pragma omp simd` lines the
    // WJ_SIMD codegen emits (vectorization only — no OpenMP runtime is
    // linked) and is inert for scalar translations. WJ_CFLAGS overrides the
    // optimization flags (used by the compile-cost ablation bench); flags
    // are part of the cache key.
    const char* flags = std::getenv("WJ_CFLAGS");
    return (flags && *flags) ? std::string(flags) : std::string("-O2 -fopenmp-simd");
}

std::vector<std::string> compilerArgv(const std::string& cc, const std::string& flags,
                                      CcStage stage, const std::string& src,
                                      const std::string& out) {
    std::vector<std::string> argv = words(cc);
    if (stage == CcStage::Version) {
        argv.push_back("--version");
        return argv;
    }
    argv.push_back("-std=c11");
    for (auto& w : words(flags)) argv.push_back(std::move(w));
    // -ffp-contract=off keeps float results bitwise-equal to the
    // interpreter. The -Werror turns a libm name codegen emits without a
    // prelude prototype into a compile error, not an int-returning call.
    for (const char* a : {"-ffp-contract=off", "-Werror=implicit-function-declaration", "-fPIC"}) {
        argv.push_back(a);
    }
    argv.push_back(stage == CcStage::Module ? "-shared" : "-S");
    argv.push_back(std::string("-I") + WJ_RT_INCLUDE_DIR);
    for (const std::string& a : {std::string("-o"), out, src}) argv.push_back(a);
    if (stage == CcStage::Module) {
        // No libc, libm or libgcc_s: their symbols resolve from the host
        // process at dlopen, the way the rdynamic wjrt_* exports do, which
        // saves most of the link step. libgcc stays for compiler helper
        // routines.
        argv.push_back("-nodefaultlibs");
        argv.push_back("-lgcc");
    }
    return argv;
}

int spawnCompiler(const std::vector<std::string>& argv, const std::string& errPath,
                  int* spawnError) {
    *spawnError = 0;
    std::vector<char*> cargv;
    for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, errPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    pid_t pid = 0;
    const int err = cargv[0] ? posix_spawnp(&pid, cargv[0], &actions, nullptr, cargv.data(),
                                            environ)
                             : ENOENT;
    posix_spawn_file_actions_destroy(&actions);
    if (err != 0) {
        *spawnError = err;
        return -1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            *spawnError = errno;
            return -1;
        }
    }
    return status;
}

std::string compileRecipe() {
    auto argv = compilerArgv("<cc>", "<flags>", CcStage::Module, "<src>", "<out>");
    // The runtime headers enter the key by content, not by the path this
    // build found them at, so a bundle stays valid across checkouts.
    for (auto& a : argv) {
        if (a == std::string("-I") + WJ_RT_INCLUDE_DIR) a = "-I<rt>";
    }
    return printable(argv);
}

uint64_t toolchainVersion(const std::string& recipe) {
    return fnv1a64(recipe.data(), recipe.size(),
                   JitCache::runtimeHeadersVersion(WJ_RT_INCLUDE_DIR));
}

uint64_t cacheKeyFor(const std::string& cSource) {
    return cacheKeyFor(fnv1a64(cSource.data(), cSource.size()));
}

uint64_t cacheKeyFor(uint64_t sourceHash) {
    return JitCache::keyOf(sourceHash, resolvedCompiler(), resolvedFlags(),
                           currentToolchainVersion());
}

/// The build half of compileAndLoad(), for a `key` loadCompiled() just
/// missed: the cross-process build lock, cc with retries, publish, dlopen.
CompileResult buildAndLoad(const std::string& cSource, const std::string& tag, uint64_t key,
                           double lookupSeconds);

CompileResult compileAndLoad(const std::string& cSource, const std::string& tag) {
    return compileAndLoad(cSource, tag, fnv1a64(cSource.data(), cSource.size()));
}

CompileResult compileAndLoad(const std::string& cSource, const std::string& tag,
                             uint64_t sourceHash) {
    const uint64_t key = cacheKeyFor(sourceHash);
    CompileResult res = loadCompiled(key);
    if (res.module) return res;
    return buildAndLoad(cSource, tag, key, res.lookupSeconds);
}

CompileResult loadCompiled(uint64_t key) {
    JitCache& cache = JitCache::instance();
    static auto& memHits = trace::Metrics::instance().counter("jit.cache.hits.memory");
    static auto& diskHits = trace::Metrics::instance().counter("jit.cache.hits.disk");
    static auto& corrupt = trace::Metrics::instance().counter("jit.cache.corrupt");

    CompileResult res;
    trace::Span lookupSpan("jit", "cache.lookup");
    Timer lookupT;
    if (auto hit = cache.findLoaded(key)) {
        cache.noteMemoryHit();
        memHits.inc();
        lookupSpan.arg(0, "hit", 1);
        res.module = std::move(hit);
        res.cacheHit = true;
        res.lookupSeconds = lookupT.seconds();
        return res;
    }

    const std::string cachedSo = cache.lookup(key);
    if (!cachedSo.empty()) {
        auto mod = std::shared_ptr<NativeModule>(new NativeModule());
        trace::Span dlopenSpan("jit", "dlopen");
        mod->handle_ = dlopen(cachedSo.c_str(), RTLD_NOW | RTLD_LOCAL);
        if (mod->handle_) {
            diskHits.inc();
            lookupSpan.arg(0, "hit", 1);
            mod->command_ = format("(cached) %s %s [key %016llx]", resolvedCompiler().c_str(),
                                   resolvedFlags().c_str(), static_cast<unsigned long long>(key));
            mod->loadedPath_ = cachedSo;
            cache.registerLoaded(key, mod);
            res.module = std::move(mod);
            res.cacheHit = true;
            res.lookupSeconds = lookupT.seconds();
            cache.noteDiskHit(res.lookupSeconds);
            return res;
        }
        // A truncated or stale entry (e.g. written by a crashed process on
        // a filesystem without atomic rename): drop it and recompile.
        cache.noteCorrupt();
        corrupt.inc();
        cache.invalidate(key);
    }
    res.lookupSeconds = lookupT.seconds();
    lookupSpan.arg(0, "hit", 0);
    return res;
}

CompileResult buildAndLoad(const std::string& cSource, const std::string& tag, uint64_t key,
                           double lookupSeconds) {
    JitCache& cache = JitCache::instance();
    const std::string cc = resolvedCompiler();
    const std::string flags = resolvedFlags();
    static auto& diskHits = trace::Metrics::instance().counter("jit.cache.hits.disk");
    static auto& misses = trace::Metrics::instance().counter("jit.cache.misses");
    static auto& corrupt = trace::Metrics::instance().counter("jit.cache.corrupt");

    CompileResult res;
    res.lookupSeconds = lookupSeconds;
    auto mod = std::shared_ptr<NativeModule>(new NativeModule());

    // Cross-process in-flight dedup: exactly one process per key runs cc;
    // everyone else blocks on the leader's lock file and adopts the
    // artifact it publishes (see JitCache::BuildLock). Concurrent threads
    // of ONE process race through here too — the first claims the lock,
    // the rest join exactly like foreign processes.
    JitCache::BuildLock buildLock;
    {
        trace::Span lockSpan("jit", "cache.buildlock");
        Timer lockT;
        buildLock = cache.lockForBuild(key);
        static auto& lockMs =
            trace::Metrics::instance().histogram("jit.cache.lockwait.millis");
        lockMs.observe(static_cast<int64_t>(lockT.seconds() * 1e3));
    }
    // Double-checked: whether we waited out a publish (Published) or won
    // the claim only after a leader came and went (Acquired on retry), the
    // artifact may exist by now — serve it instead of compiling again.
    if (buildLock.state() != JitCache::BuildLock::State::Skipped) {
        if (const std::string joinedSo = cache.lookup(key); !joinedSo.empty()) {
            trace::Span dlopenSpan("jit", "dlopen");
            mod->handle_ = dlopen(joinedSo.c_str(), RTLD_NOW | RTLD_LOCAL);
            if (mod->handle_) {
                buildLock.release();
                static auto& xjoins =
                    trace::Metrics::instance().counter("jit.cache.joins.crossproc");
                xjoins.inc();
                cache.noteCrossJoin();
                cache.noteDiskHit(0);
                diskHits.inc();
                mod->command_ = format("(joined) %s %s [key %016llx]", cc.c_str(),
                                       flags.c_str(), static_cast<unsigned long long>(key));
                mod->loadedPath_ = joinedSo;
                cache.registerLoaded(key, mod);
                res.module = std::move(mod);
                res.cacheHit = true;
                return res;
            }
            cache.noteCorrupt();
            corrupt.inc();
            cache.invalidate(key);
        }
    }
    cache.noteMiss(res.lookupSeconds);
    misses.inc();

    const std::string dir = makeScratchDir("wootinc");
    mod->dir_ = dir;
    mod->srcPath_ = dir + "/" + mangle(tag) + ".c";
    const std::string soPath = dir + "/" + mangle(tag) + ".so";
    const std::string errPath = dir + "/cc.err";

    {
        std::ofstream out(mod->srcPath_);
        if (!out) throw UsageError("cannot write " + mod->srcPath_);
        out << cSource;
    }

    const std::vector<std::string> argv =
        compilerArgv(cc, flags, CcStage::Module, mod->srcPath_, soPath);
    mod->command_ = printable(argv) + " 2> " + printable({errPath});

    // Transient failures — the compiler being OOM-killed, the spawn failing
    // for lack of resources, or an injected WJ_FAULT failcompile — are
    // retried with exponential backoff, like any robust build farm client.
    // Deterministic compile errors (nonzero exit with diagnostics) are not
    // retried, and a missing compiler (no executable to spawn, or a wrapper
    // script's exit 127) escalates to CompilerUnavailableError so jit() can
    // fall back to the interpreter.
    const int extraRetries = std::max(0, envInt("WJ_JIT_RETRIES", 2));
    int backoffMs = std::max(1, envInt("WJ_JIT_BACKOFF_MS", 10));
    int attempts = 0;
    for (;;) {
        ++attempts;
        const bool injected = fault::FaultPlan::active() &&
                              fault::FaultPlan::instance().failThisCompile();
        int raw = 0;
        int spawnError = 0;
        bool ok = false;
        if (!injected) {
            trace::Span ccSpan("jit", "cc", "attempt", attempts);
            Timer t;
            raw = spawnCompiler(argv, errPath, &spawnError);
            mod->compileSeconds_ += t.seconds();
            static auto& ccMs = trace::Metrics::instance().histogram("jit.cc.millis");
            ccMs.observe(static_cast<int64_t>(t.seconds() * 1e3));
            // A raw wait(2) status, not an exit code: decode it so "cc
            // segfaulted" and "cc exited 1" read differently.
            ok = raw != -1 && WIFEXITED(raw) && WEXITSTATUS(raw) == 0;
        }
        if (ok) break;
        if (spawnError == ENOENT || spawnError == EACCES) {
            throw CompilerUnavailableError("external C compiler '" + cc + "' is unavailable (" +
                                           std::strerror(spawnError) + ")");
        }
        if (!injected && raw != -1 && WIFEXITED(raw) && WEXITSTATUS(raw) == 127) {
            throw CompilerUnavailableError("external C compiler '" + cc +
                                           "' is unavailable (" + describeExitStatus(raw) +
                                           "):\n" + slurpFile(errPath));
        }
        const bool transient = injected || raw == -1 || WIFSIGNALED(raw) ||
                               (WIFEXITED(raw) && WEXITSTATUS(raw) > 128);
        if (transient && attempts <= extraRetries) {
            trace::instant("jit", "cc.retry", "attempt", attempts, "backoff_ms", backoffMs);
            static auto& retries = trace::Metrics::instance().counter("jit.cc.retries");
            retries.inc();
            std::this_thread::sleep_for(std::chrono::milliseconds(backoffMs));
            backoffMs *= 2;
            continue;
        }
        std::string status = injected
                                 ? std::string("injected transient failure (WJ_FAULT failcompile)")
                                 : describeExitStatus(raw);
        if (spawnError) status += std::string(": ") + std::strerror(spawnError);
        throw UsageError(format("external C compiler failed after %d attempt%s (%s, see %s):\n",
                                attempts, attempts == 1 ? "" : "s", status.c_str(),
                                mod->srcPath_.c_str()) +
                         slurpFile(errPath));
    }
    res.attempts = attempts;

    // Publish to the persistent cache, then load the cached copy so the
    // temp dir is not load-bearing; fall back to the temp .so if the store
    // failed (cache disabled, disk full, ...).
    const std::string published = cache.store(key, soPath, tag);
    buildLock.release();
    const std::string& loadPath = published.empty() ? soPath : published;
    trace::Span dlopenSpan("jit", "dlopen");
    mod->handle_ = dlopen(loadPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    mod->loadedPath_ = loadPath;
    if (!mod->handle_ && loadPath != soPath) {
        // A concurrent LRU sweep (or a byte cap smaller than one entry) can
        // evict the published copy between store() and this dlopen. The
        // temp .so this process just built still exists — load it instead
        // of failing a compile that succeeded.
        mod->handle_ = dlopen(soPath.c_str(), RTLD_NOW | RTLD_LOCAL);
        mod->loadedPath_ = soPath;
    }
    if (!mod->handle_) {
        throw UsageError(std::string("dlopen failed: ") + dlerror());
    }
    cache.registerLoaded(key, mod);
    res.compileSeconds = mod->compileSeconds_;
    res.module = std::move(mod);
    return res;
}

std::future<CompileResult> compileAndLoadAsync(const std::string& cSource,
                                               const std::string& tag, uint64_t sourceHash) {
    return CompilePool::instance().submit(cSource, tag, sourceHash);
}

} // namespace wj
