// The fault-injection and recovery subsystem (src/fault/): every FaultPlan
// action reproduced deterministically from its spec, the CheckpointStore's
// coordinated-restart protocol, and the JIT degradation ladder (retry,
// cache CRC eviction, interpreter fallback).
//
// Like test_jit_cache, the JIT tests redirect the compile cache into a
// private temp directory and restore the environment afterwards; every
// test disarms the process-global FaultPlan and CheckpointStore so suites
// stay hermetic.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "fault/checkpoint.h"
#include "fault/fault.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "jit/cache.h"
#include "jit/compile.h"
#include "jit/jit.h"
#include "matmul/matmul_lib.h"
#include "minimpi/minimpi.h"
#include "stencil/stencil_lib.h"
#include "support/diagnostics.h"
#include "support/timer.h"

namespace fs = std::filesystem;
using namespace wj;
using namespace wj::dsl;
using namespace wj::fault;
using wj::minimpi::Comm;
using wj::minimpi::World;

namespace {

class FaultTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / ("wjfault-test-" + std::to_string(::getpid()) + "-" +
                                            ::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        setenv("WJ_CACHE_DIR", dir_.c_str(), 1);
        setenv("WJ_CACHE", "1", 1);
        setenv("WJ_JIT_BACKOFF_MS", "1", 1);
        unsetenv("WJ_CC");
        unsetenv("WJ_JIT_RETRIES");
        unsetenv("WJ_JIT_FALLBACK");
        FaultPlan::instance().disarm();
        FaultPlan::instance().resetStats();
        CheckpointStore::instance().disarm();
        JitCache::instance().clearLoaded();
        JitCache::instance().resetStats();
    }

    void TearDown() override {
        FaultPlan::instance().disarm();
        CheckpointStore::instance().disarm();
        JitCache::instance().clearLoaded();
        unsetenv("WJ_CACHE_DIR");
        unsetenv("WJ_CACHE");
        unsetenv("WJ_JIT_BACKOFF_MS");
        unsetenv("WJ_JIT_RETRIES");
        unsetenv("WJ_JIT_FALLBACK");
        unsetenv("WJ_CC");
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    fs::path dir_;
};

/// A tiny program whose `k` constant gives each test a distinct cache key.
Program makeProgram(double k) {
    ProgramBuilder pb;
    auto& c = pb.cls("Calc").finalClass();
    c.method("run", Type::f64())
        .param("n", Type::i32())
        .body(blk(decl("acc", Type::f64(), cd(k)),
                  forRange("i", ci(0), lv("n"), blk(assign("acc", add(lv("acc"), cd(1.0))))),
                  ret(lv("acc"))));
    return pb.build();
}

// ------------------------------------------------------------ plan parsing

TEST_F(FaultTest, RejectsMalformedSpecs) {
    auto& p = FaultPlan::instance();
    EXPECT_THROW(p.configure("explode"), UsageError);
    EXPECT_THROW(p.configure("kill"), UsageError);            // kill needs rank=
    EXPECT_THROW(p.configure("drop:nth=0"), UsageError);      // nth is 1-based
    EXPECT_THROW(p.configure("drop:prob=1.5"), UsageError);
    EXPECT_THROW(p.configure("delay:ms=x"), UsageError);
    EXPECT_THROW(p.configure("drop:frobnicate=1"), UsageError);
    EXPECT_FALSE(FaultPlan::active());
}

TEST_F(FaultTest, DescribeRoundTrips) {
    auto& p = FaultPlan::instance();
    p.configure("seed=7;drop:src=0,dest=1,tag=5,nth=2;delay:ms=3");
    const std::string d = p.describe();
    EXPECT_TRUE(FaultPlan::active());
    // Re-configuring from the description yields the identical plan.
    p.configure(d);
    EXPECT_EQ(d, p.describe());
    p.disarm();
    EXPECT_FALSE(FaultPlan::active());
}

// ------------------------------------------------------------ MPI actions

TEST_F(FaultTest, KillFiresAtExactCommOp) {
    FaultPlan::instance().configure("kill:rank=1,op=3");
    World w(2);
    std::vector<int> opsDone(2, 0);
    try {
        w.run([&](Comm& c) {
            for (int i = 0; i < 5; ++i) {
                c.barrier();
                opsDone[static_cast<size_t>(c.rank())] = i + 1;
            }
        });
        FAIL() << "expected the injected kill to propagate";
    } catch (const ExecError& e) {
        EXPECT_NE(std::string(e.what()).find("rank 1 killed at comm op 3"), std::string::npos);
    }
    // The kill fired at the 3rd barrier entry, so exactly 2 completed.
    EXPECT_EQ(2, opsDone[1]);
    EXPECT_EQ(1, FaultPlan::instance().stats().kills);
}

TEST_F(FaultTest, DropStallsReceiverUntilWatchdog) {
    // The dropped message models a lost packet: the receiver blocks forever
    // and the watchdog must convert the hang into a diagnosable abort.
    FaultPlan::instance().configure("drop:src=0,dest=1,tag=5");
    World w(2);
    w.setWatchdogMillis(150);
    try {
        w.run([](Comm& c) {
            if (c.rank() == 0) {
                const int v = 99;
                c.send(&v, sizeof v, 1, 5);
            } else {
                int got = 0;
                c.recv(&got, sizeof got, 0, 5);  // never arrives
            }
        });
        FAIL() << "expected the watchdog to abort the stalled world";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog"), std::string::npos);
        EXPECT_NE(msg.find("rank 1"), std::string::npos);
        EXPECT_NE(msg.find("blocked in recv"), std::string::npos);
    }
    EXPECT_TRUE(w.watchdogFired());
    EXPECT_EQ(1, FaultPlan::instance().stats().drops);
}

TEST_F(FaultTest, DuplicateDeliversTwice) {
    FaultPlan::instance().configure("dup:src=0,dest=1,tag=9");
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 7;
            c.send(&v, sizeof v, 1, 9);
        } else {
            int a = 0, b = 0;
            c.recv(&a, sizeof a, 0, 9);
            c.recv(&b, sizeof b, 0, 9);  // satisfied by the duplicate
            EXPECT_EQ(7, a);
            EXPECT_EQ(7, b);
        }
    });
    // A 1 KiB payload: the duplicate is copied before the original moves
    // into the mailbox, so both copies carry every byte.
    FaultPlan::instance().configure("dup:src=0,dest=1,tag=9");
    std::vector<uint8_t> sent(1024);
    for (size_t i = 0; i < sent.size(); ++i) sent[i] = static_cast<uint8_t>(i % 251 + 1);
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            c.send(sent.data(), sent.size(), 1, 9);
        } else {
            std::vector<uint8_t> a(sent.size()), b(sent.size());
            c.recv(a.data(), a.size(), 0, 9);
            c.recv(b.data(), b.size(), 0, 9);
            EXPECT_EQ(sent, a);
            EXPECT_EQ(sent, b);
        }
    });
    EXPECT_EQ(2, FaultPlan::instance().stats().duplicates);
}

TEST_F(FaultTest, CorruptIsDeterministicPerSeed) {
    // The same seed must flip the same byte the same way on every run.
    int first = -1;
    for (int round = 0; round < 2; ++round) {
        FaultPlan::instance().resetStats();
        FaultPlan::instance().configure("seed=11;corrupt:src=0,dest=1,tag=4");
        World w(2);
        int got = 0;
        w.run([&](Comm& c) {
            if (c.rank() == 0) {
                const int v = 0;  // all zero bits: any corruption is visible
                c.send(&v, sizeof v, 1, 4);
            } else {
                c.recv(&got, sizeof got, 0, 4);
            }
        });
        EXPECT_NE(0, got) << "corruption must alter the payload";
        if (round == 0) first = got;
        else EXPECT_EQ(first, got) << "same seed, same corruption";
    }
    EXPECT_EQ(1, FaultPlan::instance().stats().corruptions);
}

TEST_F(FaultTest, DelayHoldsMessageBack) {
    FaultPlan::instance().configure("delay:src=0,dest=1,ms=80");
    World w(2);
    Timer t;
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 1;
            c.send(&v, sizeof v, 1, 2);
        } else {
            int got = 0;
            c.recv(&got, sizeof got, 0, 2);
            EXPECT_EQ(1, got);
        }
    });
    EXPECT_GE(t.seconds(), 0.08);
    EXPECT_EQ(1, FaultPlan::instance().stats().delays);
}

TEST_F(FaultTest, ProbabilisticRuleIsSeedStable) {
    // prob=1 always fires, prob=0 never; the boundary cases need no
    // schedule determinism.
    FaultPlan::instance().configure("seed=3;dup:prob=1");
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 5;
            c.send(&v, sizeof v, 1, 1);
        } else {
            int a = 0, b = 0;
            c.recv(&a, sizeof a, 0, 1);
            c.recv(&b, sizeof b, 0, 1);
        }
    });
    EXPECT_EQ(1, FaultPlan::instance().stats().duplicates);

    FaultPlan::instance().configure("seed=3;drop:prob=0");
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 5;
            c.send(&v, sizeof v, 1, 1);
        } else {
            int a = 0;
            c.recv(&a, sizeof a, 0, 1);
            EXPECT_EQ(5, a);
        }
    });
    EXPECT_EQ(0, FaultPlan::instance().stats().drops);
}

// ------------------------------------------------- JIT degradation ladder

TEST_F(FaultTest, TransientCompileFailureIsRetried) {
    FaultPlan::instance().configure("failcompile:nth=1");
    Program p = makeProgram(0.25);
    Interp in(p);
    Value calc = in.instantiate("Calc", {});
    JitCode code = WootinJ::jit(p, calc, "run", {Value::ofI32(4)});
    EXPECT_EQ(4.25, code.invoke().asF64());
    EXPECT_EQ(ExecMode::Native, code.execMode());
    EXPECT_EQ(2, code.compileAttempts());  // 1 injected failure + 1 success
    EXPECT_EQ(1, FaultPlan::instance().stats().compileFailures);
}

TEST_F(FaultTest, PersistentCompileFailureExhaustsRetries) {
    setenv("WJ_JIT_RETRIES", "1", 1);
    FaultPlan::instance().configure("failcompile:nth=1,count=10");
    Program p = makeProgram(0.5);
    Interp in(p);
    Value calc = in.instantiate("Calc", {});
    try {
        WootinJ::jit(p, calc, "run", {Value::ofI32(4)});
        FAIL() << "expected compile failure after exhausted retries";
    } catch (const UsageError& e) {
        EXPECT_NE(std::string(e.what()).find("after 2 attempt"), std::string::npos);
    }
    EXPECT_EQ(2, FaultPlan::instance().stats().compileFailures);
}

TEST_F(FaultTest, UnavailableCompilerFallsBackToInterpreter) {
    setenv("WJ_CC", "/nonexistent/wj-no-such-cc", 1);
    Program p = makeProgram(0.75);
    Interp in(p);
    Value calc = in.instantiate("Calc", {});
    JitCode code = WootinJ::jit(p, calc, "run", {Value::ofI32(3)});
    EXPECT_EQ(ExecMode::Interpreter, code.execMode());
    EXPECT_FALSE(code.cacheHit());
    EXPECT_EQ(3.75, code.invoke().asF64());
    // Fallback is an opt-out: with WJ_JIT_FALLBACK=0 the error surfaces.
    setenv("WJ_JIT_FALLBACK", "0", 1);
    EXPECT_THROW(WootinJ::jit(p, calc, "run", {Value::ofI32(3)}), CompilerUnavailableError);
}

TEST_F(FaultTest, InterpreterFallbackDoesNotCopyBack) {
    // The ladder must preserve the paper's no-copy-back contract (§3.1):
    // mutations by the fallback interpreter stay invisible to the host heap.
    setenv("WJ_CC", "/nonexistent/wj-no-such-cc", 1);
    ProgramBuilder pb;
    auto& c = pb.cls("Mut").finalClass();
    c.method("bump", Type::f32())
        .param("a", Type::array(Type::f32()))
        .body(blk(aset(lv("a"), ci(0), cf(9.0f)), ret(aget(lv("a"), ci(0)))));
    Program p = pb.build();
    Interp in(p);
    Value mut = in.instantiate("Mut", {});
    Value arr = in.newArray(Type::f32(), 2);
    arr.asArr()->data[0] = Value::ofF32(1.0f);
    arr.asArr()->data[1] = Value::ofF32(2.0f);
    JitCode code = WootinJ::jit(p, mut, "bump", {arr});
    EXPECT_EQ(ExecMode::Interpreter, code.execMode());
    EXPECT_EQ(9.0f, code.invoke().asF32());
    EXPECT_EQ(1.0f, arr.asArr()->data[0].asF32()) << "fallback must not copy back";
}

TEST_F(FaultTest, CorruptCacheEntryIsEvictedAndRecompiled) {
    FaultPlan::instance().configure("corruptcache:nth=1");
    Program p = makeProgram(1.5);
    Interp in(p);
    Value calc = in.instantiate("Calc", {});

    // Cold compile publishes a .so the plan then corrupts on disk.
    JitCode cold = WootinJ::jit(p, calc, "run", {Value::ofI32(2)});
    EXPECT_FALSE(cold.cacheHit());
    EXPECT_EQ(1, FaultPlan::instance().stats().cacheCorruptions);

    // A fresh process (cleared registry) must detect the bad bytes via the
    // CRC sidecar, evict, and recompile rather than dlopen garbage.
    JitCache::instance().clearLoaded();
    JitCode warm = WootinJ::jit(p, calc, "run", {Value::ofI32(2)});
    EXPECT_FALSE(warm.cacheHit());
    EXPECT_EQ(3.5, warm.invoke().asF64());
    EXPECT_GE(JitCache::instance().stats().corrupt, 1);

    // The recompiled entry (corruptcache rule now spent) serves clean hits.
    JitCache::instance().clearLoaded();
    JitCode again = WootinJ::jit(p, calc, "run", {Value::ofI32(2)});
    EXPECT_TRUE(again.cacheHit());
    EXPECT_EQ(ExecMode::NativeCached, again.execMode());
    EXPECT_EQ(3.5, again.invoke().asF64());
}

// ---------------------------------------------------- checkpoint/restart

TEST_F(FaultTest, CheckpointRoundTrip) {
    auto& s = CheckpointStore::instance();
    s.arm(/*ranks=*/1, /*interval=*/1);
    const std::vector<float> gen1 = {1, 2, 3}, gen2 = {4, 5, 6};
    s.save(0, 0, 1, gen1.data(), 3);
    s.save(0, 0, 2, gen2.data(), 3);
    EXPECT_EQ(2, s.latestIter(0, 0));
    EXPECT_EQ(2, s.resolve());
    std::vector<float> out(3, 0.0f);
    EXPECT_EQ(2, s.load(0, 0, out.data(), 3));
    EXPECT_EQ(gen2, out);
    EXPECT_EQ(2, s.saves());
    EXPECT_EQ(1, s.restores());
}

TEST_F(FaultTest, CheckpointIntervalSkipsOffCycleSaves) {
    auto& s = CheckpointStore::instance();
    s.arm(1, /*interval=*/3);
    const std::vector<float> d = {1};
    for (int iter = 1; iter <= 7; ++iter) s.save(0, 0, iter, d.data(), 1);
    EXPECT_EQ(2, s.saves());          // iterations 3 and 6 only
    EXPECT_EQ(6, s.latestIter(0, 0));
}

TEST_F(FaultTest, CorruptSnapshotFallsBackToOlderGeneration) {
    auto& s = CheckpointStore::instance();
    s.arm(1, 1);
    const std::vector<float> gen1 = {1, 1}, gen2 = {2, 2};
    s.save(0, 0, 1, gen1.data(), 2);
    s.save(0, 0, 2, gen2.data(), 2);
    s.corruptSnapshot(0, 0);          // newest generation fails its CRC
    EXPECT_EQ(1, s.resolve());
    std::vector<float> out(2, 0.0f);
    EXPECT_EQ(1, s.load(0, 0, out.data(), 2));
    EXPECT_EQ(gen1, out);
    EXPECT_GE(s.crcFailures(), 1);
}

TEST_F(FaultTest, ResolvePicksNewestGenerationCompleteAcrossRanks) {
    // Rank 1 died before checkpointing iteration 2: the restart generation
    // is the newest one EVERY rank holds, not the global maximum.
    auto& s = CheckpointStore::instance();
    s.arm(/*ranks=*/2, 1);
    const std::vector<float> d = {1};
    s.save(0, 0, 1, d.data(), 1);
    s.save(0, 0, 2, d.data(), 1);
    s.save(1, 0, 1, d.data(), 1);
    EXPECT_EQ(1, s.resolve());
    // A rank with no snapshots at all means no consistent generation.
    s.arm(2, 1);
    s.save(0, 0, 1, d.data(), 1);
    EXPECT_EQ(-1, s.resolve());
}

TEST_F(FaultTest, KilledStencilWorldRestartsFromCheckpoint) {
    // End-to-end acceptance path: a rank killed mid-run, restart resumes
    // from the last consistent generation, and the result is bitwise
    // identical to the fault-free run.
    Program p = stencil::buildProgram();
    Interp in(p);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const int steps = 4;

    auto runWorld = [&]() {
        Value runner = stencil::makeMpiRunner(in, 8, 8, 2, coeffs, 5);
        JitCode code = WootinJ::jit4mpi(p, runner, "run", {Value::ofI32(steps)});
        code.set4MPI(4);
        return code;
    };

    JitCode ref = runWorld();
    const double expect = ref.invoke().asF64();

    // Each halo step costs 4 comm ops per rank (2x sendrecv = send + recv),
    // so op 17 is rank 1's entry into the final allreduce: all 4 of its
    // step snapshots exist. Ranks drift by one step per neighbour hop, so
    // the farthest rank is guaranteed only steps 1..2 — a keep window of 4
    // generations makes the consistent-generation intersection non-empty
    // no matter how the scheduler interleaves the kill.
    auto& ckpt = CheckpointStore::instance();
    ckpt.arm(/*ranks=*/4, /*interval=*/1, /*keep=*/4);
    FaultPlan::instance().configure("kill:rank=1,op=17");
    JitCode code = runWorld();
    EXPECT_THROW(code.invoke(), ExecError);
    EXPECT_GE(ckpt.resolve(), 1) << "at least one full step was checkpointed";
    EXPECT_EQ(expect, code.invoke().asF64());
    EXPECT_GE(ckpt.restores(), 1);
}

TEST_F(FaultTest, KilledFoxMatmulRestartsFromCheckpoint) {
    // Same protocol through the Fox algorithm's two checkpoint slots (the
    // C accumulator and the shifting B block).
    Program p = matmul::buildProgram();
    Interp in(p);
    const int q = 2, nLocal = 4;
    const double expect = matmul::referenceMatMulChecksum(q * nLocal, 5, 6);

    auto makeCode = [&]() {
        Value app = matmul::makeMpiFoxApp(in, matmul::Calc::Optimized, q);
        JitCode code = WootinJ::jit4mpi(p, app, "run",
                                        {Value::ofI32(nLocal), Value::ofI32(5)});
        code.set4MPI(q * q);
        return code;
    };

    JitCode ref = makeCode();
    const double cleanSum = ref.invoke().asF64();
    EXPECT_NEAR(expect, cleanSum, std::abs(expect) * 1e-5);

    auto& ckpt = CheckpointStore::instance();
    ckpt.arm(/*ranks=*/q * q, /*interval=*/1);
    FaultPlan::instance().configure("kill:rank=3,op=4");
    JitCode code = makeCode();
    EXPECT_THROW(code.invoke(), ExecError);
    ckpt.resolve();
    EXPECT_EQ(cleanSum, code.invoke().asF64()) << "restart must be bitwise identical";
}

// ------------------------------------------- disk checkpoints (wjrun PR)
//
// armDisk puts snapshots on the filesystem instead of process memory — the
// mode the process transport needs, where each rank's memory vanishes at
// SIGKILL. Publication is tmp-write + fsync + atomic rename + dir fsync.

TEST_F(FaultTest, DiskCheckpointRoundTrip) {
    auto& s = CheckpointStore::instance();
    const std::string dir = (dir_ / "ck").string();
    s.armDisk(dir, /*ranks=*/1, /*interval=*/1);
    EXPECT_TRUE(s.diskMode());
    EXPECT_EQ(dir, s.directory());
    const std::vector<float> gen1 = {1, 2, 3}, gen2 = {4, 5, 6};
    s.save(0, 0, 1, gen1.data(), 3);
    s.save(0, 0, 2, gen2.data(), 3);
    EXPECT_EQ(2, s.latestIter(0, 0));
    EXPECT_EQ(2, s.resolve());
    std::vector<float> out(3, 0.0f);
    EXPECT_EQ(2, s.load(0, 0, out.data(), 3));
    EXPECT_EQ(gen2, out);
    EXPECT_EQ(2, s.saves());
    EXPECT_EQ(1, s.restores());
}

TEST_F(FaultTest, DiskKeepWindowPrunesOldGenerations) {
    auto& s = CheckpointStore::instance();
    const std::string dir = (dir_ / "ck").string();
    s.armDisk(dir, 1, 1, /*keep=*/2);
    const std::vector<float> d = {1};
    for (int iter = 1; iter <= 5; ++iter) s.save(0, 0, iter, d.data(), 1);
    // Only the last two generations survive on disk.
    size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir)) {
        ++files;
        const std::string n = e.path().filename().string();
        EXPECT_TRUE(n == "ck_r0_s0_g4" || n == "ck_r0_s0_g5") << n;
    }
    EXPECT_EQ(2u, files);
    EXPECT_EQ(5, s.resolve());
}

TEST_F(FaultTest, DiskArmPreserveKeepsOrWipesSnapshots) {
    auto& s = CheckpointStore::instance();
    const std::string dir = (dir_ / "ck").string();
    s.armDisk(dir, 1, 1);
    const std::vector<float> d = {7};
    s.save(0, 0, 1, d.data(), 1);
    // preserve=true (the wjrun --restart path) sees the previous run's files.
    s.armDisk(dir, 1, 1, 2, /*preserve=*/true);
    EXPECT_EQ(1, s.resolve());
    // preserve=false is a fresh run: the directory is wiped.
    s.armDisk(dir, 1, 1, 2, /*preserve=*/false);
    EXPECT_EQ(-1, s.resolve());
}

TEST_F(FaultTest, DiskTornNewestGenerationFallsBackToPrevious) {
    // A torn file (half the payload missing) must disqualify its
    // generation via the CRC, not crash or win the resolve.
    auto& s = CheckpointStore::instance();
    const std::string dir = (dir_ / "ck").string();
    s.armDisk(dir, 1, 1);
    const std::vector<float> gen1 = {1, 1, 1, 1}, gen2 = {2, 2, 2, 2};
    s.save(0, 0, 1, gen1.data(), 4);
    s.save(0, 0, 2, gen2.data(), 4);
    const fs::path newest = fs::path(dir) / "ck_r0_s0_g2";
    ASSERT_TRUE(fs::exists(newest));
    fs::resize_file(newest, fs::file_size(newest) - 8);  // simulated torn write
    EXPECT_EQ(1, s.resolve());
    std::vector<float> out(4, 0.0f);
    EXPECT_EQ(1, s.load(0, 0, out.data(), 4));
    EXPECT_EQ(gen1, out);
    EXPECT_GE(s.crcFailures(), 1);
}

TEST_F(FaultTest, DiskCorruptSnapshotFallsBackToOlderGeneration) {
    auto& s = CheckpointStore::instance();
    s.armDisk((dir_ / "ck").string(), 1, 1);
    const std::vector<float> gen1 = {1, 1}, gen2 = {2, 2};
    s.save(0, 0, 1, gen1.data(), 2);
    s.save(0, 0, 2, gen2.data(), 2);
    s.corruptSnapshot(0, 0);  // flips a payload byte of the newest file
    EXPECT_EQ(1, s.resolve());
    std::vector<float> out(2, 0.0f);
    EXPECT_EQ(1, s.load(0, 0, out.data(), 2));
    EXPECT_EQ(gen1, out);
    EXPECT_GE(s.crcFailures(), 1);
}

TEST_F(FaultTest, DiskResolveSkipsGenerationMissingARank) {
    auto& s = CheckpointStore::instance();
    s.armDisk((dir_ / "ck").string(), /*ranks=*/2, 1);
    const std::vector<float> d = {1};
    s.save(0, 0, 1, d.data(), 1);
    s.save(0, 0, 2, d.data(), 1);
    s.save(1, 0, 1, d.data(), 1);  // rank 1 died before generation 2
    EXPECT_EQ(1, s.resolve());
}

// -------------------------------------- proc-transport suite (wjrun PR)
//
// Everything named Proc* forks real child processes, so these tests carry
// the "proc" ctest label instead of "tsan" (see tests/CMakeLists.txt).
// In-rank verification throws ExecError — gtest assertions inside a forked
// child are invisible to the parent.

class ProcFault : public FaultTest {
protected:
    void SetUp() override {
        FaultTest::SetUp();
        setenv("WJ_TRANSPORT", "proc", 1);  // JitCode::invoke worlds go proc
    }
    void TearDown() override {
        unsetenv("WJ_TRANSPORT");
        FaultTest::TearDown();
    }
};

TEST_F(ProcFault, SigkillAfterPublishLeavesNewestGenerationValid) {
    // Satellite regression: the durable-publish protocol (tmp file, fsync,
    // atomic rename, directory fsync) means a SIGKILL delivered the instant
    // save() returns can never yield a torn or CRC-failing newest
    // generation. A forked child saves two generations and SIGKILLs itself;
    // the parent must resolve generation 2 clean.
    const std::string dir = (dir_ / "ck").string();
    const int64_t n = 257;
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto& s = CheckpointStore::instance();
        s.armDisk(dir, /*ranks=*/1, /*interval=*/1);
        std::vector<float> g1(static_cast<size_t>(n), 1.5f);
        std::vector<float> g2(static_cast<size_t>(n), 2.5f);
        s.save(0, 0, 1, g1.data(), n);
        s.save(0, 0, 2, g2.data(), n);
        ::raise(SIGKILL);  // crash-real: no teardown, no atexit, no flush
        _exit(99);         // unreachable
    }
    int status = 0;
    ASSERT_EQ(pid, ::waitpid(pid, &status, 0));
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    auto& s = CheckpointStore::instance();
    s.armDisk(dir, 1, 1, 2, /*preserve=*/true);
    EXPECT_EQ(2, s.resolve()) << "newest generation must survive the SIGKILL";
    std::vector<float> out(static_cast<size_t>(n), 0.0f);
    EXPECT_EQ(2, s.load(0, 0, out.data(), n));
    EXPECT_EQ(2.5f, out.front());
    EXPECT_EQ(2.5f, out.back());
    EXPECT_EQ(0, s.crcFailures()) << "a post-rename kill must never tear the file";
}

TEST_F(ProcFault, DeadChildReportNamesPidAndSignal) {
    // Watchdog organ ported to real process death: the parent supervisor
    // reaps the SIGKILLed child via waitpid and aborts the world with a
    // report naming the pid, the signal, and every rank's wait state.
    minimpi::World w(3, minimpi::TransportKind::Proc);
    try {
        w.run([](Comm& c) {
            if (c.rank() == 2) ::raise(SIGKILL);
            int got = 0;
            c.recv(&got, sizeof got, 2, 1);  // never satisfied
        });
        FAIL() << "expected the dead child to abort the world";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pid"), std::string::npos) << msg;
        EXPECT_NE(msg.find("killed by signal 9"), std::string::npos) << msg;
        EXPECT_NE(msg.find("Per-rank wait state"), std::string::npos) << msg;
    }
    // The world is reusable after burying its dead.
    w.run([](Comm& c) { c.barrier(); });
}

TEST_F(ProcFault, WatchdogStallDumpNamesPids) {
    // Head-to-head deadlock across real processes: the shared-memory stall
    // watchdog must fire and the per-rank dump must identify each child.
    minimpi::World w(2, minimpi::TransportKind::Proc);
    w.setWatchdogMillis(200);
    try {
        w.run([](Comm& c) {
            int got = 0;
            c.recv(&got, sizeof got, 1 - c.rank(), 6);  // neither sends
        });
        FAIL() << "expected the watchdog to break the deadlock";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
        EXPECT_NE(msg.find("transport=proc"), std::string::npos) << msg;
        EXPECT_NE(msg.find("blocked in recv(src=1, tag=6"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pid"), std::string::npos) << msg;
    }
    EXPECT_TRUE(w.watchdogFired());
}

TEST_F(ProcFault, KillRuleDeliversRealSigkill) {
    // On the proc transport a WJ_FAULT kill rule is not a throw: the child
    // raises SIGKILL on itself, and the parent reports it like any other
    // dead process.
    FaultPlan::instance().configure("kill:rank=1,op=2");
    minimpi::World w(2, minimpi::TransportKind::Proc);
    try {
        w.run([](Comm& c) {
            for (int i = 0; i < 4; ++i) c.barrier();
        });
        FAIL() << "expected the injected SIGKILL to abort the world";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("killed by signal 9"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pid"), std::string::npos) << msg;
    }
}

TEST_F(ProcFault, SigkillMidDiffusionRestartsBitwise) {
    // The acceptance path with REAL process death: rank 2 of a 4-rank
    // diffusion world is SIGKILLed mid-run; the durable on-disk
    // checkpoints let a restart reproduce the unfaulted checksum bitwise.
    Program p = stencil::buildProgram();
    Interp in(p);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    const int steps = 4;

    auto makeCode = [&]() {
        Value runner = stencil::makeMpiRunner(in, 8, 8, 2, coeffs, 5);
        JitCode code = WootinJ::jit4mpi(p, runner, "run", {Value::ofI32(steps)});
        code.set4MPI(4);
        return code;
    };

    const double expect = makeCode().invoke().asF64();  // clean run, proc world

    // Same op arithmetic as KilledStencilWorldRestartsFromCheckpoint: 4
    // comm ops per halo step, so op 17 is the final-allreduce entry; the
    // keep window of 4 generations guarantees a consistent intersection.
    auto& ckpt = CheckpointStore::instance();
    ckpt.armDisk((dir_ / "ck").string(), /*ranks=*/4, /*interval=*/1, /*keep=*/4);
    FaultPlan::instance().configure("seed=42;kill:rank=2,op=17");
    JitCode code = makeCode();
    try {
        code.invoke();
        FAIL() << "expected the SIGKILLed rank to abort the world";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("killed by signal 9"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pid"), std::string::npos) << msg;
    }
    // Unlike the threads transport, the kill rule was spent in the dead
    // child's memory, not ours — disarm it or the next fork re-inherits it.
    FaultPlan::instance().disarm();
    EXPECT_GE(ckpt.resolve(), 1) << "at least one full step reached the disk";
    EXPECT_EQ(expect, code.invoke().asF64()) << "restart must be bitwise identical";
}

TEST_F(ProcFault, DiffusionChecksumBitwiseEqualAcrossTransports) {
    // The determinism contract end-to-end: the same jitted MPI program
    // produces bit-identical checksums on threads and forked processes.
    Program p = stencil::buildProgram();
    Interp in(p);
    const auto coeffs = stencil::DiffusionCoeffs::forKappa(0.1f, 0.1f, 1.0f);
    auto runOn = [&](const char* transport) {
        setenv("WJ_TRANSPORT", transport, 1);
        Value runner = stencil::makeMpiRunner(in, 8, 8, 2, coeffs, 5);
        JitCode code = WootinJ::jit4mpi(p, runner, "run", {Value::ofI32(3)});
        code.set4MPI(4);
        return code.invoke().asF64();
    };
    const double threads = runOn("threads");
    const double proc = runOn("proc");
    EXPECT_EQ(0, std::memcmp(&threads, &proc, sizeof threads))
        << "threads=" << threads << " proc=" << proc;
}

// Message-level fault rules must replay identically whether the rank is a
// thread or a forked process (in-rank verification via thrown ExecError;
// rule counters live in child memory on proc, so observable behavior is
// the only cross-transport truth).
class ProcReplay : public ::testing::TestWithParam<minimpi::TransportKind> {
protected:
    void SetUp() override {
        FaultPlan::instance().disarm();
        FaultPlan::instance().resetStats();
    }
    void TearDown() override { FaultPlan::instance().disarm(); }

    static void require(bool cond, const char* what) {
        if (!cond) throw ExecError(std::string("in-rank check failed: ") + what);
    }
};

TEST_P(ProcReplay, DropStarvesTheReceiverIdentically) {
    FaultPlan::instance().configure("seed=5;drop:src=0,dest=1,tag=5,nth=1");
    minimpi::World w(2, GetParam());
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int doomed = 13, alive = 42;
            c.send(&doomed, sizeof doomed, 1, 5);  // swallowed by the rule
            c.send(&alive, sizeof alive, 1, 6);
        } else {
            int got = 0;
            bool timedOut = false;
            try {
                c.recvTimeout(&got, sizeof got, 0, 5, 250);
            } catch (const ExecError&) {
                timedOut = true;
            }
            require(timedOut, "the dropped message must never arrive");
            c.recv(&got, sizeof got, 0, 6);
            require(got == 42, "traffic after the drop flows normally");
        }
    });
}

TEST_P(ProcReplay, DelayHoldsTheMessageBackIdentically) {
    FaultPlan::instance().configure("delay:src=0,dest=1,ms=120");
    minimpi::World w(2, GetParam());
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 1;
            c.send(&v, sizeof v, 1, 2);
        } else {
            const auto t0 = std::chrono::steady_clock::now();
            int got = 0;
            c.recv(&got, sizeof got, 0, 2);
            const double sec =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            require(got == 1, "delayed payload intact");
            require(sec >= 0.1, "delay rule must hold the message back");
        }
    });
}

TEST_P(ProcReplay, DuplicateDeliversTwiceIdentically) {
    FaultPlan::instance().configure("dup:src=0,dest=1,tag=9");
    minimpi::World w(2, GetParam());
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 7;
            c.send(&v, sizeof v, 1, 9);
        } else {
            int a = 0, b = 0;
            c.recv(&a, sizeof a, 0, 9);
            c.recv(&b, sizeof b, 0, 9);  // satisfied by the duplicate
            require(a == 7 && b == 7, "both copies carry the payload");
        }
    });
    // A 1 KiB payload: the duplicate is copied before the original moves
    // on, so both copies carry every byte.
    FaultPlan::instance().configure("dup:src=0,dest=1,tag=9");
    std::vector<uint8_t> sent(1024);
    for (size_t i = 0; i < sent.size(); ++i) sent[i] = static_cast<uint8_t>(i % 251 + 1);
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            c.send(sent.data(), sent.size(), 1, 9);
        } else {
            for (int copy = 0; copy < 2; ++copy) {
                std::vector<uint8_t> got(sent.size());
                c.recv(got.data(), got.size(), 0, 9);
                require(got == sent, "1 KiB copy intact");
            }
        }
    });
    // A frame larger than a whole proc ring, then a small one on the same
    // tag: the rule doubles both, and the copies arrive whole and in order.
    FaultPlan::instance().configure("dup:src=0,dest=1,tag=9,count=2");
    const size_t kBytes = 300000;
    w.run([&](Comm& c) {
        if (c.rank() == 0) {
            std::vector<uint8_t> big(kBytes);
            for (size_t i = 0; i < kBytes; ++i) big[i] = static_cast<uint8_t>(i % 253);
            c.send(big.data(), big.size(), 1, 9);
            const int v = 8;
            c.send(&v, sizeof v, 1, 9);
        } else {
            for (int copy = 0; copy < 2; ++copy) {
                std::vector<uint8_t> big(kBytes);
                c.recv(big.data(), big.size(), 0, 9);  // throws on a 4-byte frame
                for (size_t i = 0; i < kBytes; ++i) {
                    require(big[i] == static_cast<uint8_t>(i % 253), "large copy intact");
                }
            }
            for (int copy = 0; copy < 2; ++copy) {
                int v = 0;
                c.recv(&v, sizeof v, 0, 9);
                require(v == 8, "small copies follow the large ones");
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(ProcReplayThreads, ProcReplay,
                         ::testing::Values(minimpi::TransportKind::Threads),
                         [](const auto&) { return std::string("threads"); });
INSTANTIATE_TEST_SUITE_P(ProcReplayProc, ProcReplay,
                         ::testing::Values(minimpi::TransportKind::Proc),
                         [](const auto&) { return std::string("proc"); });

TEST(ProcReplayCross, CorruptedPayloadBitsMatchAcrossTransports) {
    // The corrupt rule's seeded RNG must flip the same byte the same way
    // regardless of the address-space strategy, in a 4-byte payload and in
    // one larger than a whole proc ring. The flipped byte's position and
    // value leave the proc world through the shared-memory result slot.
    auto corruptedByte = [](minimpi::TransportKind kind, size_t bytes) {
        FaultPlan::instance().configure("seed=11;corrupt:src=0,dest=1,tag=4");
        minimpi::World w(2, kind);
        w.run([&](Comm& c) {
            std::vector<uint8_t> buf(bytes);  // all zero bits: any corruption is visible
            if (c.rank() == 0) {
                c.send(buf.data(), buf.size(), 1, 4);
            } else {
                c.recv(buf.data(), buf.size(), 0, 4);
                int64_t flipped = 0;
                int nonzero = 0;
                for (size_t i = 0; i < bytes; ++i) {
                    if (buf[i] == 0) continue;
                    ++nonzero;
                    flipped = static_cast<int64_t>(i) * 256 + buf[i];
                }
                if (nonzero != 1) {
                    throw ExecError("in-rank check failed: the rule flips exactly one byte");
                }
                c.publishResult(2, flipped);
            }
        });
        int kind_ = 0;
        int64_t bits = 0;
        EXPECT_TRUE(w.takeResult(&kind_, &bits));
        FaultPlan::instance().disarm();
        return bits;
    };
    for (const size_t bytes : {sizeof(int), size_t{300000}}) {
        const int64_t threads = corruptedByte(minimpi::TransportKind::Threads, bytes);
        const int64_t proc = corruptedByte(minimpi::TransportKind::Proc, bytes);
        EXPECT_NE(0, threads) << "corruption must alter the payload (" << bytes << " B)";
        EXPECT_EQ(threads, proc) << "same seed, same corruption, either transport (" << bytes
                                 << " B)";
    }
}

TEST_F(FaultTest, DisarmedStoreIsInert) {
    auto& s = CheckpointStore::instance();
    const std::vector<float> d = {1};
    s.save(0, 0, 1, d.data(), 1);
    std::vector<float> out(1, 7.0f);
    EXPECT_EQ(-1, s.load(0, 0, out.data(), 1));
    EXPECT_EQ(7.0f, out[0]);
    EXPECT_EQ(0, s.saves());
}

} // namespace
