// External compilation and loading of generated C code.
//
// The paper compiles WootinJ's generated C with icc and invokes it through
// JNI; WootinC compiles with the system C compiler (cc, overridable via the
// WJ_CC environment variable) into a shared object and loads it with
// dlopen(). Compilation wall time is reported separately because it is the
// dominant part of the paper's Table 3 — which is exactly why the result is
// cached: compileAndLoad() first consults the persistent compile cache
// (see cache.h) and only spawns the compiler (posix_spawnp, no shell) on a
// miss. An async variant compiles several translation units in parallel on
// a small thread pool (the compile pipeline is I/O + external-process
// bound, so parallel cold compiles of independent TUs scale almost
// linearly).
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "support/diagnostics.h"

namespace wj {

struct CompileResult;

/// The external C compiler cannot run at all (posix_spawnp finds no
/// executable, or a wrapper script exits 127). Distinct from a compile
/// *error* so jit() can degrade to the interpreter instead of failing —
/// transient failures are retried first.
class CompilerUnavailableError : public UsageError {
public:
    explicit CompilerUnavailableError(const std::string& what) : UsageError(what) {}
};

/// A loaded shared object; closes the handle on destruction. Modules are
/// shared: the in-process registry hands the same instance to every
/// JitCode built from an identical translation unit.
class NativeModule {
public:
    ~NativeModule();
    NativeModule(const NativeModule&) = delete;
    NativeModule& operator=(const NativeModule&) = delete;

    /// Resolves a symbol; throws UsageError if missing.
    void* symbol(const std::string& name) const;

    /// Wall-clock seconds the external compiler took when this module was
    /// actually built (0 if it was loaded from the on-disk cache).
    double compileSeconds() const noexcept { return compileSeconds_; }

    /// Path of the generated .c file (kept for inspection until the module
    /// is destroyed; empty when served from the on-disk cache).
    const std::string& sourcePath() const noexcept { return srcPath_; }

    /// The exact compiler command used (the paper records its options in
    /// Tables 1-2; benches print this). On a cache hit this is the command
    /// that WOULD have run.
    const std::string& compileCommand() const noexcept { return command_; }

    /// The .so this module was actually dlopen()ed from: the published
    /// cache entry, or — when the cache is disabled or store() failed —
    /// the scratch .so (deleted with the scratch dir when the module is
    /// destroyed). wjd reports this, not a guessed cache path, to clients.
    const std::string& loadedPath() const noexcept { return loadedPath_; }

private:
    // The two halves of compileAndLoad() build modules.
    friend CompileResult loadCompiled(uint64_t key);
    friend CompileResult buildAndLoad(const std::string& cSource, const std::string& tag,
                                      uint64_t key, double lookupSeconds);
    NativeModule() = default;

    void* handle_ = nullptr;
    double compileSeconds_ = 0;
    std::string srcPath_;
    std::string dir_;
    std::string command_;
    std::string loadedPath_;
};

/// The outcome of one compileAndLoad() call. Cache-hit accounting is per
/// CALL, not per module: the registry hands the same NativeModule to many
/// callers, but only the first one paid for the compile.
struct CompileResult {
    std::shared_ptr<NativeModule> module;
    bool cacheHit = false;     ///< this call skipped the external compiler
    double lookupSeconds = 0;  ///< wall time probing registry + disk store
    double compileSeconds = 0; ///< external compiler time paid by THIS call
    int attempts = 0;          ///< compiler invocations (> 1 means retries)
};

/// Returns the module for `cSource`: from the in-process registry or the
/// on-disk compile cache (its lookup half, loadCompiled()), or — on a
/// cold miss, its build half — by writing the source to a
/// fresh temp directory (honoring $TMPDIR), compiling it as C11, dlopening
/// the result, and publishing the .so to the cache. `tag` becomes part of
/// the file name for easier debugging. Transient compiler failures (signal
/// kills, launch failures, injected WJ_FAULT failures) are retried with
/// exponential backoff — WJ_JIT_RETRIES extra attempts (default 2),
/// starting at WJ_JIT_BACKOFF_MS (default 10, doubling). Throws
/// CompilerUnavailableError when the compiler binary cannot be found, and
/// UsageError with the compiler's stderr (and decoded exit status or
/// signal) on a genuine compile error.
CompileResult compileAndLoad(const std::string& cSource, const std::string& tag);

/// compileAndLoad() for a source whose fnv1a64 the caller already holds
/// (Translation::sourceHash): its cache key is cacheKeyFor(sourceHash).
CompileResult compileAndLoad(const std::string& cSource, const std::string& tag,
                             uint64_t sourceHash);

/// The lookup half of compileAndLoad() for a cache key (cacheKeyFor): the
/// in-process module registry, then the on-disk cache and dlopen. A hit
/// is counted and returned with cacheHit set; a miss returns no module
/// and counts nothing, because the build half that follows counts it.
/// wjd's lookup lane answers hits with this alone and leaves misses to
/// compileAndLoad() on its cc lane.
CompileResult loadCompiled(uint64_t key);

/// Queues compileAndLoad(cSource, tag, sourceHash) on the shared compile
/// thread pool. Independent translation units compile in parallel
/// (bench_fig17/18 build all their variants this way); the future rethrows
/// any compile error on get().
std::future<CompileResult> compileAndLoadAsync(const std::string& cSource,
                                               const std::string& tag, uint64_t sourceHash);

/// The external compiler compileAndLoad will spawn: $WJ_CC or "cc". It may
/// carry arguments ("cc -m64"); no shell reads it, so words split on
/// whitespace and quotes are not interpreted.
std::string resolvedCompiler();

/// The flags compileAndLoad will pass: $WJ_CFLAGS or the -O2 default,
/// split on whitespace like $WJ_CC.
std::string resolvedFlags();

/// How far one compiler run goes. Module is the JIT's recipe; bench_tab3
/// times all three to split a cold compile into spawn, cc1 and the rest.
enum class CcStage {
    Module,    ///< `src` to the loadable shared object `out`
    Assembly,  ///< `src` to assembly `out` (-S): cc plus cc1
    Version,   ///< `--version`: starting cc alone (src/out unused)
};

/// The argv of one compiler run: the words of `cc`, then -std=c11, the
/// words of `flags`, then the fixed recipe. A Module links with
/// -nodefaultlibs -lgcc: libc/libm names resolve from the host process at
/// dlopen, like the wjrt_* exports.
std::vector<std::string> compilerArgv(const std::string& cc, const std::string& flags,
                                      CcStage stage, const std::string& src,
                                      const std::string& out);

/// Runs argv[0] (looked up on PATH, no shell) with stdout and stderr
/// redirected to `errPath` and waits for it. Returns the raw wait status,
/// or -1 when the process could not be started, with the posix_spawnp
/// error (ENOENT or EACCES: no such compiler) in *spawnError.
int spawnCompiler(const std::vector<std::string>& argv, const std::string& errPath,
                  int* spawnError);

/// The Module recipe as text, with placeholders for the compiler, flags and
/// paths. It is part of every cache key (toolchainVersion), so a module or
/// bundle built by another recipe is never served.
std::string compileRecipe();

/// The toolchain part of the cache key: the runtime-header version
/// (JitCache::runtimeHeadersVersion) with `recipe` folded in.
uint64_t toolchainVersion(const std::string& recipe);

/// The content-address compileAndLoad uses for `cSource` under the current
/// environment — the key wjd's in-flight dedup joins on and `wjc build`
/// records in bundle manifests (see jit/cache.h for the hash recipe).
uint64_t cacheKeyFor(const std::string& cSource);

/// cacheKeyFor() of a source whose fnv1a64 the caller already holds
/// (Translation::sourceHash): folds in only the compiler, flags and
/// toolchain version, without hashing the C text again.
uint64_t cacheKeyFor(uint64_t sourceHash);

} // namespace wj
