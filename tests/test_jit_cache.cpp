// The persistent JIT compile cache (src/jit/cache.h): content-addressed
// hit/miss behavior, the in-process registry's kept modules, invalidation
// on flag changes, recovery from corrupted entries, LRU eviction, reuse
// across MPI worlds, the CRC-32 behind the entry check, and the decoded
// diagnostics of the external-compiler failure path.
//
// Every test redirects the store with WJ_CACHE_DIR into a private temp
// directory (the cache re-reads its environment on each call) and clears
// the in-process module registry, so tests are hermetic against each other
// and against developer caches.
#include <gtest/gtest.h>

#include <elf.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <chrono>
#include <set>
#include <future>
#include <thread>
#include <vector>

#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/cache.h"
#include "jit/compile.h"
#include "jit/jit.h"
#include "scoped_env.h"
#include "support/crc32.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace fs = std::filesystem;
using namespace wj;
using namespace wj::dsl;

namespace {

/// A minimal but distinct program per test: `bias + n*k` so each test can
/// vary `k` to get a unique translation unit (unique cache key).
Program makeProgram() {
    ProgramBuilder pb;
    auto& c = pb.cls("Calc").finalClass();
    c.field("bias", Type::f64());
    c.ctor().param("b", Type::f64()).body(blk(setSelf("bias", lv("b"))));
    c.method("run", Type::f64())
        .param("n", Type::i32())
        .body(blk(decl("acc", Type::f64(), selff("bias")),
                  forRange("i", ci(0), lv("n"), blk(assign("acc", add(lv("acc"), cd(1.0))))),
                  ret(lv("acc"))));
    return pb.build();
}

class JitCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / ("wjcache-test-" + std::to_string(::getpid()) + "-" +
                                            ::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        setenv("WJ_CACHE_DIR", dir_.c_str(), 1);
        unsetenv("WJ_CACHE_MAX_BYTES");
        unsetenv("WJ_CFLAGS");
        unsetenv("WJ_CC");
        setenv("WJ_CACHE", "1", 1);
        JitCache::instance().clearLoaded();
        JitCache::instance().resetStats();
    }

    void TearDown() override {
        unsetenv("WJ_CACHE_DIR");
        unsetenv("WJ_CACHE_MAX_BYTES");
        unsetenv("WJ_CFLAGS");
        unsetenv("WJ_CC");
        unsetenv("WJ_CACHE");
        unsetenv("WJ_CACHE_EVICT_GRACE_MS");
        unsetenv("WJ_CACHE_LOCK");
        unsetenv("TMPDIR");
        JitCache::instance().clearLoaded();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    /// Number of .so entries currently stored.
    size_t entryCount() const {
        size_t n = 0;
        for (const auto& de : fs::directory_iterator(dir_)) {
            if (de.path().extension() == ".so") ++n;
        }
        return n;
    }

    fs::path dir_;
};

} // namespace

TEST_F(JitCacheTest, ColdMissThenWarmHit) {
    Program p = makeProgram();
    Interp in(p);
    Value calc = in.instantiate("Calc", {Value::ofF64(2.0)});

    JitCode cold = WootinJ::jit(p, calc, "run", {Value::ofI32(5)});
    EXPECT_FALSE(cold.cacheHit());
    EXPECT_GT(cold.compileSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(7.0, cold.invoke().asF64());
    EXPECT_EQ(1u, entryCount());

    // Same translation unit again in-process: served by the registry.
    JitCode warmMem = WootinJ::jit(p, calc, "run", {Value::ofI32(5)});
    EXPECT_TRUE(warmMem.cacheHit());
    EXPECT_EQ(0.0, warmMem.compileSeconds());
    EXPECT_DOUBLE_EQ(7.0, warmMem.invoke().asF64());

    // Drop the registry: the next jit() exercises the on-disk store (what
    // a fresh process would see) and still skips the external compiler.
    JitCache::instance().clearLoaded();
    JitCode warmDisk = WootinJ::jit(p, calc, "run", {Value::ofI32(5)});
    EXPECT_TRUE(warmDisk.cacheHit());
    EXPECT_EQ(0.0, warmDisk.compileSeconds());
    EXPECT_DOUBLE_EQ(7.0, warmDisk.invoke().asF64());

    const CacheStats s = JitCache::instance().stats();
    EXPECT_GE(s.misses, 1);
    EXPECT_GE(s.memoryHits, 1);
    EXPECT_GE(s.diskHits, 1);
    EXPECT_GE(s.stores, 1);
}

// ---- the registry keeps the most recently used modules ------------------

namespace {

int64_t counter(const char* name) { return trace::Metrics::instance().counter(name).value(); }

/// A raw C translation unit returning `n` from wj_unit().
std::string unitSource(int n) { return format("int wj_unit(void) { return %d; }\n", n); }

int unitValue(const CompileResult& res) {
    using Fn = int (*)(void);
    return reinterpret_cast<Fn>(res.module->symbol("wj_unit"))();
}

} // namespace

TEST_F(JitCacheTest, RejitAfterReleaseIsAMemoryHit) {
    Program p = makeProgram();
    Interp in(p);
    Value calc = in.instantiate("Calc", {Value::ofF64(3.0)});
    EXPECT_FALSE(WootinJ::jit(p, calc, "run", {Value::ofI32(2)}).cacheHit());

    // No JitCode of the key is alive: the registry's own reference serves it.
    const int64_t memory0 = counter("jit.cache.hits.memory");
    const int64_t disk0 = JitCache::instance().stats().diskHits;
    trace::Tracer& tracer = trace::Tracer::instance();
    tracer.enable("");
    tracer.reset();
    JitCode warm = WootinJ::jit(p, calc, "run", {Value::ofI32(2)});
    const std::vector<trace::SpanRec> spans = tracer.snapshot();
    tracer.disable();
    tracer.reset();

    EXPECT_TRUE(warm.cacheHit());
    EXPECT_DOUBLE_EQ(5.0, warm.invoke().asF64());
    EXPECT_EQ(1, counter("jit.cache.hits.memory") - memory0);
    EXPECT_EQ(disk0, JitCache::instance().stats().diskHits);
    for (const trace::SpanRec& sp : spans) {
        EXPECT_FALSE(std::string(sp.cat) == "jit" && std::string(sp.name) == "dlopen");
    }
}

TEST_F(JitCacheTest, RegistryKeepsTheSixteenMostRecentModules) {
    Program p = makeProgram();
    Interp in(p);
    auto jitBias = [&](int bias) {
        return WootinJ::jit(p, in.instantiate("Calc", {Value::ofF64(bias)}), "run",
                            {Value::ofI32(1)});
    };
    // 17 distinct translation units; each JitCode dies at once.
    for (int bias = 1; bias <= 17; ++bias) EXPECT_FALSE(jitBias(bias).cacheHit()) << bias;

    const CacheStats s0 = JitCache::instance().stats();
    EXPECT_TRUE(jitBias(17).cacheHit());
    const CacheStats s1 = JitCache::instance().stats();
    EXPECT_EQ(1, s1.memoryHits - s0.memoryHits);
    EXPECT_EQ(0, s1.diskHits - s0.diskHits);

    // The first unit fell out of the 16 kept and nobody holds it.
    EXPECT_DOUBLE_EQ(2.0, jitBias(1).invoke().asF64());
    const CacheStats s2 = JitCache::instance().stats();
    EXPECT_EQ(0, s2.memoryHits - s1.memoryHits);
    EXPECT_EQ(1, s2.diskHits - s1.diskHits);
    EXPECT_EQ(s0.misses, s2.misses);
}

TEST_F(JitCacheTest, ClearLoadedForgetsKeptModules) {
    const std::string src = unitSource(11);
    std::weak_ptr<NativeModule> held;
    {
        const CompileResult built = compileAndLoad(src, "kept_unit");
        held = built.module;
    }
    EXPECT_FALSE(held.expired());  // the registry holds it
    JitCache::instance().clearLoaded();
    EXPECT_TRUE(held.expired());   // and let it go: dlclosed
    EXPECT_FALSE(JitCache::instance().findLoaded(cacheKeyFor(src)));

    const CompileResult again = loadCompiled(cacheKeyFor(src));
    ASSERT_TRUE(again.module);
    EXPECT_EQ(11, unitValue(again));
    EXPECT_EQ(1, JitCache::instance().stats().diskHits);
}

TEST_F(JitCacheTest, DisabledCacheKeepsNoModule) {
    setenv("WJ_CACHE", "0", 1);
    const std::string src = unitSource(12);
    std::weak_ptr<NativeModule> held;
    {
        const CompileResult built = compileAndLoad(src, "unkept_unit");
        EXPECT_EQ(12, unitValue(built));
        held = built.module;
    }
    EXPECT_TRUE(held.expired());
    EXPECT_FALSE(JitCache::instance().findLoaded(cacheKeyFor(src)));
}

// Lookup threads (jitAsync workers, wjd's lanes) share the registry: many
// more keys than it keeps, each hit a memory hit or a disk read and
// dlopen, with evictions and clears releasing modules under the others.
TEST_F(JitCacheTest, ConcurrentLookupsPastTheKeptBoundServeTheirOwnModule) {
    constexpr int kUnits = 24;
    std::vector<uint64_t> keys;
    {
        std::vector<std::future<CompileResult>> builds;
        for (int i = 0; i < kUnits; ++i) {
            const std::string src = unitSource(100 + i);
            keys.push_back(cacheKeyFor(src));
            builds.push_back(compileAndLoadAsync(src, "shared_unit", fnv1a64(src.data(), src.size())));
        }
        for (int i = 0; i < kUnits; ++i) EXPECT_EQ(100 + i, unitValue(builds[i].get()));
    }
    std::atomic<int> wrong{0};
    std::vector<std::thread> lookups;
    for (int t = 0; t < 4; ++t) {
        lookups.emplace_back([&, t] {
            for (int r = 0; r < 120; ++r) {
                const int i = (r * 7 + t * 5) % kUnits;
                const CompileResult res = loadCompiled(keys[i]);
                if (!res.module || unitValue(res) != 100 + i) ++wrong;
                if (t == 0 && r % 30 == 29) JitCache::instance().clearLoaded();
            }
        });
    }
    for (auto& th : lookups) th.join();
    EXPECT_EQ(0, wrong.load());
    EXPECT_EQ(kUnits, JitCache::instance().stats().misses);
}

// ---- CRC-32 (the entry and checkpoint check) -----------------------------

TEST(Crc32, SlicedMatchesTheBytewiseTableAndTheCheckValue) {
    EXPECT_EQ(0xCBF43926u, crc32("123456789", 9));
    EXPECT_EQ(0u, crc32("", 0));
    uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
        table[i] = c;
    }
    auto bytewise = [&](const uint8_t* p, size_t n, uint32_t seed) {
        uint32_t c = seed ^ 0xffffffffu;
        for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
        return c ^ 0xffffffffu;
    };
    std::vector<uint8_t> buf(300 + 8);
    uint32_t x = 12345;
    for (auto& b : buf) b = static_cast<uint8_t>((x = x * 1103515245u + 12345u) >> 24);
    for (size_t off = 0; off < 8; ++off) {
        for (size_t n = 0; n < 300; ++n) {
            ASSERT_EQ(bytewise(buf.data() + off, n, 0), crc32(buf.data() + off, n))
                << "offset " << off << " length " << n;
        }
    }
    // Incremental use: the running CRC continues across split points.
    for (size_t cut : {0, 1, 7, 8, 9, 150, 299}) {
        EXPECT_EQ(crc32(buf.data(), 299), crc32(buf.data() + cut, 299 - cut, crc32(buf.data(), cut)))
            << "cut " << cut;
    }
}

TEST_F(JitCacheTest, FlagChangeInvalidates) {
    Program p = makeProgram();
    Interp in(p);
    Value calc = in.instantiate("Calc", {Value::ofF64(0.0)});

    setenv("WJ_CFLAGS", "-O1", 1);
    JitCode o1 = WootinJ::jit(p, calc, "run", {Value::ofI32(3)});
    EXPECT_FALSE(o1.cacheHit());

    // Different flags -> different key -> a fresh compile, even though the
    // generated C is byte-identical.
    setenv("WJ_CFLAGS", "-O0", 1);
    JitCache::instance().clearLoaded();
    JitCode o0 = WootinJ::jit(p, calc, "run", {Value::ofI32(3)});
    EXPECT_FALSE(o0.cacheHit());
    EXPECT_EQ(2u, entryCount());

    // Returning to the first flag set hits the first entry again.
    setenv("WJ_CFLAGS", "-O1", 1);
    JitCache::instance().clearLoaded();
    JitCode again = WootinJ::jit(p, calc, "run", {Value::ofI32(3)});
    EXPECT_TRUE(again.cacheHit());
}

TEST_F(JitCacheTest, CorruptedEntryIsRecompiled) {
    Program p = makeProgram();
    Interp in(p);
    Value calc = in.instantiate("Calc", {Value::ofF64(1.0)});

    {
        JitCode cold = WootinJ::jit(p, calc, "run", {Value::ofI32(4)});
        EXPECT_FALSE(cold.cacheHit());
        ASSERT_EQ(1u, entryCount());
    }
    // Drop the registry so the module is unloaded (its mapping must be
    // gone before the file is rewritten in place), then garble the stored
    // .so as a crashed writer on a non-atomic filesystem would. The next
    // lookup's dlopen fails; the cache must drop the entry and recompile
    // instead of surfacing the dlopen error.
    JitCache::instance().clearLoaded();
    for (const auto& de : fs::directory_iterator(dir_)) {
        if (de.path().extension() != ".so") continue;
        std::ofstream garble(de.path(), std::ios::trunc);
        garble << "not an ELF object";
    }

    JitCode recovered = WootinJ::jit(p, calc, "run", {Value::ofI32(4)});
    EXPECT_FALSE(recovered.cacheHit());  // it really recompiled
    EXPECT_DOUBLE_EQ(5.0, recovered.invoke().asF64());
    EXPECT_GE(JitCache::instance().stats().corrupt, 1);

    // And the rewritten entry serves the next lookup.
    JitCache::instance().clearLoaded();
    EXPECT_TRUE(WootinJ::jit(p, calc, "run", {Value::ofI32(4)}).cacheHit());
}

TEST_F(JitCacheTest, CrossWorldReuse) {
    // The same MPI translation unit jit4mpi()ed twice (fresh World each
    // invoke) reuses one compiled module and computes identical results.
    Program p = makeProgram();
    Interp in(p);
    Value calc = in.instantiate("Calc", {Value::ofF64(0.5)});

    JitCode a = WootinJ::jit4mpi(p, calc, "run", {Value::ofI32(8)});
    a.set4MPI(3);
    const double ra = a.invoke().asF64();
    EXPECT_FALSE(a.cacheHit());

    JitCode b = WootinJ::jit4mpi(p, calc, "run", {Value::ofI32(8)});
    b.set4MPI(2);  // different world size, same binary
    const double rb = b.invoke().asF64();
    EXPECT_TRUE(b.cacheHit());
    EXPECT_DOUBLE_EQ(ra, rb);
    EXPECT_EQ(1u, entryCount());
}

TEST_F(JitCacheTest, LruEvictionRespectsByteCap) {
    // Compile three distinct TUs under a cap that fits only ~one entry;
    // the oldest entries must be evicted.
    Program p = makeProgram();
    Interp in(p);

    JitCode first = WootinJ::jit(p, in.instantiate("Calc", {Value::ofF64(1.0)}), "run",
                                 {Value::ofI32(1)});
    uint64_t oneEntry = JitCache::instance().diskBytes();
    ASSERT_GT(oneEntry, 0u);
    setenv("WJ_CACHE_MAX_BYTES", std::to_string(oneEntry + oneEntry / 2).c_str(), 1);

    // Distinct receivers bake distinct constants into the C source, giving
    // unique translation units.
    for (double bias : {2.0, 3.0, 4.0}) {
        JitCache::instance().clearLoaded();
        WootinJ::jit(p, in.instantiate("Calc", {Value::ofF64(bias)}), "run", {Value::ofI32(1)});
    }
    EXPECT_GE(JitCache::instance().stats().evictions, 1);
    EXPECT_LE(JitCache::instance().diskBytes(), oneEntry + oneEntry / 2);
}

TEST_F(JitCacheTest, DisabledCacheAlwaysCompiles) {
    setenv("WJ_CACHE", "0", 1);
    Program p = makeProgram();
    Interp in(p);
    Value calc = in.instantiate("Calc", {Value::ofF64(6.0)});
    JitCode a = WootinJ::jit(p, calc, "run", {Value::ofI32(2)});
    JitCode b = WootinJ::jit(p, calc, "run", {Value::ofI32(2)});
    EXPECT_FALSE(a.cacheHit());
    EXPECT_FALSE(b.cacheHit());
    EXPECT_GT(b.compileSeconds(), 0.0);
    EXPECT_EQ(0u, entryCount());
}

TEST_F(JitCacheTest, ParallelAsyncCompilesOfDistinctUnits) {
    Program p = makeProgram();
    Interp in(p);
    std::vector<std::future<JitCode>> futs;
    for (double bias : {10.0, 20.0, 30.0, 40.0}) {
        futs.push_back(WootinJ::jitAsync(p, in.instantiate("Calc", {Value::ofF64(bias)}), "run",
                                         {Value::ofI32(3)}));
    }
    double expect = 13.0;
    for (auto& f : futs) {
        JitCode code = f.get();
        EXPECT_DOUBLE_EQ(expect, code.invoke().asF64());
        expect += 10.0;
    }
    EXPECT_EQ(4u, entryCount());
}

// ---- external-compiler failure diagnostics (the decoded-status bugfix) --

TEST_F(JitCacheTest, CompilerExitCodeIsDecoded) {
    // Invalid C source: the compiler exits non-zero; the error must carry
    // a decoded exit code, not a raw wait status, and the compiler's own
    // diagnostic (its stderr, redirected to cc.err) must reach the message.
    try {
        compileAndLoad("this is not C at all !!!", "broken");
        FAIL() << "expected the compile to fail";
    } catch (const UsageError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("exit code"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("signal"), std::string::npos) << msg;
        EXPECT_NE(msg.find("broken.c:1:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("error:"), std::string::npos) << msg;
    }
}

TEST_F(JitCacheTest, CompilerSignalDeathIsReported) {
    // A "compiler" that kills itself: the diagnostic must say signal, and
    // nothing may be cached for this key.
    const fs::path cc = dir_ / "killer-cc.sh";
    {
        std::ofstream out(cc);
        out << "#!/bin/sh\nkill -KILL $$\n";
    }
    ::chmod(cc.c_str(), 0755);
    setenv("WJ_CC", cc.c_str(), 1);
    try {
        compileAndLoad("int wj_entry(void) { return 0; }\n", "sigdeath");
        FAIL() << "expected the compile to fail";
    } catch (const UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("signal"), std::string::npos) << e.what();
    }
    EXPECT_EQ(0u, entryCount());
}

// ---- the spawn path and the lean link ---------------------------------

TEST_F(JitCacheTest, CompilerWithArgumentsIsSplitOnWhitespace) {
    // No shell reads WJ_CC: "cc -m64" must still run cc with -m64 as its
    // own argument, and the words show up in the printable command.
    setenv("WJ_CC", "cc   -m64", 1);
    auto res = compileAndLoad("int wj_probe(void) { return 64; }\n", "cc_with_args");
    EXPECT_FALSE(res.cacheHit);
    using Fn = int (*)(void);
    EXPECT_EQ(64, reinterpret_cast<Fn>(res.module->symbol("wj_probe"))());
    EXPECT_EQ(res.module->compileCommand().rfind("cc -m64 -std=c11 ", 0), 0u)
        << res.module->compileCommand();
}

TEST_F(JitCacheTest, RecipeIsPartOfTheKey) {
    // The fixed recipe (argv template and link mode) is hashed into every
    // key: a module or bundle built by another recipe is never served.
    const std::string src = "int wj_probe(void) { return 2; }\n";
    const std::string recipe = compileRecipe();
    EXPECT_EQ(cacheKeyFor(src),
              JitCache::keyOf(src, resolvedCompiler(), resolvedFlags(), toolchainVersion(recipe)));
    const size_t link = recipe.find(" -nodefaultlibs -lgcc");
    ASSERT_NE(link, std::string::npos) << recipe;
    const std::string withLibm = recipe.substr(0, link) + " -lm";
    EXPECT_NE(toolchainVersion(recipe), toolchainVersion(withLibm));
    EXPECT_NE(cacheKeyFor(src), JitCache::keyOf(src, resolvedCompiler(), resolvedFlags(),
                                                toolchainVersion(withLibm)));
}

namespace {

/// What an ELF64 shared object asks of the dynamic linker: its DT_NEEDED
/// libraries and its undefined dynamic symbols.
struct DynamicDeps {
    std::vector<std::string> needed;
    std::set<std::string> undefined;
};

DynamicDeps dynamicDeps(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    const std::string img((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    DynamicDeps out;
    if (img.size() < sizeof(Elf64_Ehdr)) return out;
    const auto* eh = reinterpret_cast<const Elf64_Ehdr*>(img.data());
    const auto* sh = reinterpret_cast<const Elf64_Shdr*>(img.data() + eh->e_shoff);
    for (int i = 0; i < eh->e_shnum; ++i) {
        const char* strtab = img.data() + sh[sh[i].sh_link].sh_offset;
        if (sh[i].sh_type == SHT_DYNAMIC) {
            const auto* dyn = reinterpret_cast<const Elf64_Dyn*>(img.data() + sh[i].sh_offset);
            for (size_t k = 0; k < sh[i].sh_size / sizeof(Elf64_Dyn); ++k) {
                if (dyn[k].d_tag == DT_NEEDED) out.needed.emplace_back(strtab + dyn[k].d_un.d_val);
            }
        } else if (sh[i].sh_type == SHT_DYNSYM) {
            const auto* sym = reinterpret_cast<const Elf64_Sym*>(img.data() + sh[i].sh_offset);
            for (size_t k = 1; k < sh[i].sh_size / sizeof(Elf64_Sym); ++k) {
                if (sym[k].st_shndx == SHN_UNDEF) out.undefined.insert(strtab + sym[k].st_name);
            }
        }
    }
    return out;
}

/// double run(int n): a float min reduction over sqrt/exp terms (its chunk
/// partials start at INFINITY), plus fabs and sqrtf — libm names a lean
/// module resolves from the host process.
Program mathProgram() {
    ProgramBuilder pb;
    auto& c = pb.cls("MathUnit").finalClass();
    auto term = [] {
        return cast(Type::f32(),
                    sub(intr(Intrinsic::MathSqrtF64, add(cast(Type::f64(), lv("i")), cd(0.5))),
                        intr(Intrinsic::MathExpF64, mul(cast(Type::f64(), lv("i")), cd(0.03)))));
    };
    c.method("run", Type::f64())
        .param("n", Type::i32())
        .body(blk(decl("m", Type::f32(), cf(1e30f)),
                  forRange("i", ci(0), lv("n"),
                           blk(ifs(lt(term(), lv("m")), blk(assign("m", term()))))),
                  ret(add(intr(Intrinsic::MathFabsF64, cast(Type::f64(), lv("m"))),
                          cast(Type::f64(), intr(Intrinsic::MathSqrtF32, cast(Type::f32(),
                                                                              lv("n"))))))));
    return pb.build();
}

} // namespace

TEST_F(JitCacheTest, LeanLinkedMathUnitMatchesTheInterpreter) {
    test::ScopedEnv par("WJ_PARALLEL", "1");
    test::ScopedEnv threads("WJ_THREADS", "2");
    Program p = mathProgram();
    Interp in(p);
    Value unit = in.instantiate("MathUnit", {});
    JitCode code = WootinJ::jit(p, unit, "run", {Value::ofI32(200)});
    ASSERT_EQ(ExecMode::Native, code.execMode());
    EXPECT_EQ(1, code.reduceLoops());
    EXPECT_NE(code.generatedC().find("= INFINITY;"), std::string::npos);
    EXPECT_NE(code.compileCommand().find(" -nodefaultlibs -lgcc"), std::string::npos)
        << code.compileCommand();
    EXPECT_EQ(code.compileCommand().find("-lm"), std::string::npos) << code.compileCommand();
    ASSERT_EQ(1u, entryCount());
    // No libc/libm/libgcc_s dependency: exp is left for the host to
    // provide at dlopen.
    for (const auto& de : fs::directory_iterator(dir_)) {
        if (de.path().extension() != ".so") continue;
        const DynamicDeps deps = dynamicDeps(de.path().string());
        EXPECT_TRUE(deps.needed.empty()) << de.path() << " needs " << deps.needed.front();
        EXPECT_EQ(1u, deps.undefined.count("exp")) << de.path();
    }
    for (int n : {200, 7, 0}) {
        const double want = in.call(unit, "run", {Value::ofI32(n)}).asF64();
        const double got = code.invokeWith({Value::ofI32(n)}).asF64();
        EXPECT_EQ(0, std::memcmp(&want, &got, sizeof want)) << "n=" << n << ": " << want
                                                             << " vs " << got;
    }
}

// compileAndLoad() is its lookup half, loadCompiled(), then its build
// half. The lookup half counts only hits, so a caller that looks up first
// and compiles on a miss (wjd's two lanes) counts one miss per cc run.
TEST_F(JitCacheTest, LookupHalfCountsHitsAndLeavesTheMissToTheBuild) {
    const std::string src = "int wj_split_probe(void) { return 43; }\n";
    const uint64_t key = cacheKeyFor(src);
    const CompileResult before = loadCompiled(key);
    EXPECT_FALSE(before.module);
    EXPECT_FALSE(before.cacheHit);
    EXPECT_EQ(0, JitCache::instance().stats().misses);

    const CompileResult built = compileAndLoad(src, "split_probe");
    EXPECT_FALSE(built.cacheHit);
    EXPECT_EQ(1, JitCache::instance().stats().misses);

    const CompileResult memory = loadCompiled(key);
    EXPECT_TRUE(memory.cacheHit);
    EXPECT_EQ(built.module, memory.module);
    JitCache::instance().clearLoaded();
    const CompileResult disk = loadCompiled(key);
    ASSERT_TRUE(disk.module);
    using Fn = int (*)();
    EXPECT_EQ(43, reinterpret_cast<Fn>(disk.module->symbol("wj_split_probe"))());
    const CacheStats st = JitCache::instance().stats();
    EXPECT_EQ(1, st.memoryHits);
    EXPECT_EQ(1, st.diskHits);
    EXPECT_EQ(1, st.misses);
}

TEST_F(JitCacheTest, HonorsTmpdirForScratch) {
    // Point TMPDIR at a private dir: the generated .c must land there.
    const fs::path scratch = dir_ / "scratch";
    fs::create_directories(scratch);
    setenv("TMPDIR", scratch.c_str(), 1);
    auto res = compileAndLoad("int wj_probe(void) { return 41; }\n", "tmpdir_probe");
    unsetenv("TMPDIR");
    EXPECT_FALSE(res.cacheHit);
    ASSERT_FALSE(res.module->sourcePath().empty());
    EXPECT_EQ(res.module->sourcePath().rfind(scratch.string(), 0), 0u)
        << "source " << res.module->sourcePath() << " not under " << scratch;
    using Fn = int (*)(void);
    EXPECT_EQ(41, reinterpret_cast<Fn>(res.module->symbol("wj_probe"))());
}

// ---- publish vs. evict under concurrency (the multi-process cap fix) ----

TEST_F(JitCacheTest, EvictionGraceProtectsJustPublishedEntries) {
    // With a grace window armed (as wjd arms it), an over-cap sweep must
    // NOT unlink entries another thread/process just published — even
    // though the store is far beyond its byte cap.
    Program p = makeProgram();
    Interp in(p);

    WootinJ::jit(p, in.instantiate("Calc", {Value::ofF64(1.0)}), "run", {Value::ofI32(1)});
    const uint64_t oneEntry = JitCache::instance().diskBytes();
    ASSERT_GT(oneEntry, 0u);
    setenv("WJ_CACHE_MAX_BYTES", std::to_string(oneEntry / 2).c_str(), 1);
    setenv("WJ_CACHE_EVICT_GRACE_MS", "60000", 1);

    const int64_t evictionsBefore = JitCache::instance().stats().evictions;
    for (double bias : {2.0, 3.0, 4.0}) {
        JitCache::instance().clearLoaded();
        WootinJ::jit(p, in.instantiate("Calc", {Value::ofF64(bias)}), "run", {Value::ofI32(1)});
    }
    // Every entry is younger than the grace window: all four survive.
    EXPECT_EQ(4u, entryCount());
    EXPECT_EQ(evictionsBefore, JitCache::instance().stats().evictions);

    // Dropping the grace restores the exact byte cap (the default).
    setenv("WJ_CACHE_EVICT_GRACE_MS", "0", 1);
    JitCache::instance().clearLoaded();
    WootinJ::jit(p, in.instantiate("Calc", {Value::ofF64(5.0)}), "run", {Value::ofI32(1)});
    EXPECT_GE(JitCache::instance().stats().evictions, evictionsBefore + 1);
    EXPECT_LE(JitCache::instance().diskBytes(), oneEntry / 2);
    unsetenv("WJ_CACHE_EVICT_GRACE_MS");
}

TEST_F(JitCacheTest, CompileSurvivesImmediateEvictionOfItsOwnEntry) {
    // Regression: a byte cap smaller than one entry (the extreme of "a
    // concurrent sweep evicted the artifact between store() and dlopen()")
    // used to fail the compile with a dlopen error on the vanished path.
    // compileAndLoad must fall back to the temp .so it just built.
    setenv("WJ_CACHE_MAX_BYTES", "1", 1);
    auto res = compileAndLoad("int wj_tiny(void) { return 7; }\n", "evicted_at_birth");
    EXPECT_FALSE(res.cacheHit);
    using Fn = int (*)(void);
    EXPECT_EQ(7, reinterpret_cast<Fn>(res.module->symbol("wj_tiny"))());
    EXPECT_EQ(0u, entryCount());  // the sweep did run
}

// ---- the cross-process build lock (wjd's singleflight substrate) --------

TEST_F(JitCacheTest, BuildLockSecondClaimantJoinsThePublish) {
    JitCache& cache = JitCache::instance();
    const uint64_t key = 0xabcdef0123456789ULL;

    JitCache::BuildLock leader = cache.lockForBuild(key);
    ASSERT_EQ(JitCache::BuildLock::State::Acquired, leader.state());

    // A waiter in another thread blocks on the leader's lock file...
    std::promise<JitCache::BuildLock::State> got;
    std::thread waiter([&] { got.set_value(cache.lockForBuild(key).state()); });
    // Give the waiter time to reach its polling loop while the lock is
    // still held, so it observes the publish, not the release.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // ...until the leader publishes the artifact (still holding the lock:
    // waiters join off the published entry without waiting for release).
    const fs::path fakeSo = dir_ / "fake.so";
    { std::ofstream out(fakeSo); out << "pretend shared object"; }
    ASSERT_FALSE(cache.store(key, fakeSo.string(), "fake").empty());

    EXPECT_EQ(JitCache::BuildLock::State::Published, got.get_future().get());
    waiter.join();
    leader.release();
}

TEST_F(JitCacheTest, BuildLockStealsLocksOfDeadHolders) {
    // A leader that died without cleanup (SIGKILL) leaves its lock file
    // behind; the next claimant must steal it, not wait out the timeout.
    pid_t dead = fork();
    if (dead == 0) ::_exit(0);
    ASSERT_GT(dead, 0);
    ASSERT_EQ(dead, ::waitpid(dead, nullptr, 0));

    const uint64_t key = 0x1122334455667788ULL;
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx", (unsigned long long)key);
    {
        std::ofstream lock(dir_ / (std::string(hex) + ".building"));
        lock << dead << "\n";
    }
    JitCache::BuildLock stolen = JitCache::instance().lockForBuild(key);
    EXPECT_EQ(JitCache::BuildLock::State::Acquired, stolen.state());
}

TEST_F(JitCacheTest, BuildLockDisabledMeansSkipped) {
    setenv("WJ_CACHE_LOCK", "0", 1);
    JitCache::BuildLock l = JitCache::instance().lockForBuild(0x42);
    EXPECT_EQ(JitCache::BuildLock::State::Skipped, l.state());
    unsetenv("WJ_CACHE_LOCK");
}
