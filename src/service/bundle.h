// AOT artifact bundles: `wjc build` output, `wjd --bundles` input.
//
// The compile cache already makes warm starts free, but a fresh host (CI
// runner, new container) starts with an empty cache and pays the external
// compiler once per translation unit. A bundle is the deployable form of
// one translation: the generated C, the compiled .so, and a manifest
// recording the exact cache key the daemon will compute for that source
// under the recorded toolchain — so `wjd --bundles DIR` can publish the
// artifacts straight into the shared cache at startup and serve the first
// request of the day without ever invoking cc (a zero-compile cold start).
//
// Layout of one bundle directory:
//     module.c        the generated C translation unit
//     module.so       the compiled artifact
//     manifest.json   { "key": "16-hex", "cc": ..., "cflags": ...,
//                       "entry_symbol": ...,
//                       "tag": ..., "artifact": "module.so",
//                       "source": "module.c", "so_bytes": N }
//
// The key is only valid for the toolchain it was built with: loadBundleDir
// recomputes the key of module.c under the current WJ_CC/WJ_CFLAGS,
// runtime headers and compile recipe, and skips (with a note) any bundle
// whose recorded key disagrees — publishing it would poison the cache with
// a .so that does not match what the daemon would compile.
#pragma once

#include <cstdint>
#include <string>

namespace wj {
struct Translation;
}

namespace wj::service {

struct BundleInfo {
    uint64_t key = 0;          ///< compile-cache content address
    std::string dir;           ///< bundle directory
    std::string artifactPath;  ///< <dir>/module.so
    std::string manifestPath;  ///< <dir>/manifest.json
    std::string entrySymbol;
};

/// Compiles `tr.cSource` (through the normal cache-aware pipeline — a warm
/// cache makes this free) and writes the bundle into `outDir`, creating it
/// if needed. Throws UsageError / compile errors on failure.
BundleInfo writeBundle(const std::string& outDir, const Translation& tr, const std::string& tag);

/// Publishes every valid bundle under `dir` (the directory itself, or any
/// immediate subdirectory, holding a manifest.json) into the compile cache.
/// Returns the number published; mismatched-toolchain and malformed bundles
/// are skipped with a note on stderr unless `quiet`.
int loadBundleDir(const std::string& dir, bool quiet = false);

} // namespace wj::service
