#include "service/bundle.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "jit/cache.h"
#include "jit/codegen.h"
#include "jit/compile.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "trace/metrics.h"

namespace fs = std::filesystem;

namespace wj::service {

namespace {

std::string jsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') { out += "\\n"; continue; }
        out += c;
    }
    return out;
}

/// Minimal extractor for the flat manifests this module itself writes:
/// finds `"name"` and returns the quoted string after the colon ("" if
/// absent/malformed). Handles \" and \\ escapes, nothing fancier.
std::string jsonStr(const std::string& text, const std::string& name) {
    const std::string needle = "\"" + name + "\"";
    size_t p = text.find(needle);
    if (p == std::string::npos) return "";
    p = text.find(':', p + needle.size());
    if (p == std::string::npos) return "";
    p = text.find('"', p);
    if (p == std::string::npos) return "";
    std::string out;
    for (++p; p < text.size(); ++p) {
        if (text[p] == '\\' && p + 1 < text.size()) {
            out += text[p + 1] == 'n' ? '\n' : text[p + 1];
            ++p;
            continue;
        }
        if (text[p] == '"') return out;
        out += text[p];
    }
    return "";
}

bool slurp(const fs::path& p, std::string& out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/// Publishes one bundle directory. Returns true if the artifact went into
/// the cache.
bool loadOne(const fs::path& dir, bool quiet) {
    const fs::path manifest = dir / "manifest.json";
    std::string text;
    if (!slurp(manifest, text)) return false;
    const std::string keyHex = jsonStr(text, "key");
    const std::string artifact = jsonStr(text, "artifact");
    const std::string source = jsonStr(text, "source");
    const std::string tag = jsonStr(text, "tag");
    auto skip = [&](const char* why) {
        if (!quiet) std::fprintf(stderr, "wjd: skipping bundle %s: %s\n", dir.c_str(), why);
        return false;
    };
    if (keyHex.size() != 16 || artifact.empty() || source.empty()) {
        return skip("malformed manifest");
    }
    const uint64_t key = std::strtoull(keyHex.c_str(), nullptr, 16);
    std::string cSource;
    if (!slurp(dir / source, cSource)) return skip("missing generated source");
    // The recorded key is only meaningful for the toolchain that produced
    // it. Recomputing the content address for the bundled source under the
    // CURRENT WJ_CC/WJ_CFLAGS/runtime headers/recipe catches every kind of drift
    // at once: a mismatch means this .so is not what the daemon would
    // build, and publishing it would serve wrong code as a "cache hit".
    if (cacheKeyFor(cSource) != key) {
        return skip("toolchain/runtime drift (recorded key no longer matches)");
    }
    std::error_code ec;
    if (!fs::exists(dir / artifact, ec)) return skip("missing artifact");
    return !JitCache::instance().store(key, (dir / artifact).string(),
                                       tag.empty() ? "bundle" : tag).empty();
}

} // namespace

BundleInfo writeBundle(const std::string& outDir, const Translation& tr, const std::string& tag) {
    JitCache& cache = JitCache::instance();
    if (!cache.enabled()) {
        throw UsageError("wjc build: the compile cache is disabled (WJ_CACHE=0); "
                         "bundles are built through it");
    }
    // Normal cache-aware compile: free when warm, and it publishes the .so
    // we bundle.
    compileAndLoad(tr.cSource, tag);
    const uint64_t key = cacheKeyFor(tr.cSource);
    const std::string published = cache.entryPath(key);
    std::error_code ec;
    if (!fs::exists(published, ec)) {
        throw UsageError("wjc build: compile succeeded but the cache holds no artifact for " +
                         published + " (cache dir unwritable?)");
    }

    fs::create_directories(outDir, ec);
    if (ec) throw UsageError("wjc build: cannot create " + outDir + ": " + ec.message());
    BundleInfo info;
    info.key = key;
    info.dir = outDir;
    info.artifactPath = (fs::path(outDir) / "module.so").string();
    info.manifestPath = (fs::path(outDir) / "manifest.json").string();
    info.entrySymbol = tr.entrySymbol;

    {
        std::ofstream src(fs::path(outDir) / "module.c", std::ios::binary | std::ios::trunc);
        src << tr.cSource;
        if (!src) throw UsageError("wjc build: cannot write module.c");
    }
    fs::copy_file(published, info.artifactPath, fs::copy_options::overwrite_existing, ec);
    if (ec) throw UsageError("wjc build: cannot copy artifact: " + ec.message());

    const uint64_t soBytes = fs::file_size(info.artifactPath, ec);
    std::ofstream mf(info.manifestPath, std::ios::trunc);
    mf << "{\n"
       << "  \"key\": \"" << format("%016llx", static_cast<unsigned long long>(key)) << "\",\n"
       << "  \"cc\": \"" << jsonEscape(resolvedCompiler()) << "\",\n"
       << "  \"cflags\": \"" << jsonEscape(resolvedFlags()) << "\",\n"
       << "  \"entry_symbol\": \"" << jsonEscape(tr.entrySymbol) << "\",\n"
       << "  \"tag\": \"" << jsonEscape(tag) << "\",\n"
       << "  \"artifact\": \"module.so\",\n"
       << "  \"source\": \"module.c\",\n"
       << "  \"so_bytes\": " << soBytes << "\n"
       << "}\n";
    if (!mf) throw UsageError("wjc build: cannot write manifest.json");
    return info;
}

int loadBundleDir(const std::string& dir, bool quiet) {
    static auto& preloaded = trace::Metrics::instance().counter("wjd.bundles.preloaded");
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        throw UsageError("wjd: bundle path is not a directory: " + dir);
    }
    int n = 0;
    if (fs::exists(fs::path(dir) / "manifest.json", ec)) {
        if (loadOne(dir, quiet)) ++n;
    }
    for (const auto& de : fs::directory_iterator(dir, ec)) {
        if (!de.is_directory()) continue;
        if (fs::exists(de.path() / "manifest.json", ec) && loadOne(de.path(), quiet)) ++n;
    }
    preloaded.add(n);
    return n;
}

} // namespace wj::service
