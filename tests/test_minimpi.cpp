// MiniMPI substrate: point-to-point semantics, collectives, determinism,
// and failure injection (world abort).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "minimpi/minimpi.h"
#include "support/diagnostics.h"
#include "trace/metrics.h"
#include "trace/trace.h"

using namespace wj;
using namespace wj::minimpi;

TEST(MiniMpi, RankAndSize) {
    World w(4);
    std::vector<int> seen(4, -1);
    w.run([&](Comm& c) {
        EXPECT_EQ(4, c.size());
        seen[static_cast<size_t>(c.rank())] = c.rank();
    });
    for (int r = 0; r < 4; ++r) EXPECT_EQ(r, seen[static_cast<size_t>(r)]);
}

TEST(MiniMpi, RejectsNonPositiveSize) {
    EXPECT_THROW(World(0), UsageError);
    EXPECT_THROW(World(-3), UsageError);
}

TEST(MiniMpi, PointToPoint) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int payload = 12345;
            c.send(&payload, sizeof payload, 1, 7);
        } else {
            int got = 0;
            const int src = c.recv(&got, sizeof got, 0, 7);
            EXPECT_EQ(12345, got);
            EXPECT_EQ(0, src);
        }
    });
}

TEST(MiniMpi, TagMatching) {
    // Messages with a different tag must not satisfy a receive.
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            int a = 1, b = 2;
            c.send(&a, sizeof a, 1, 10);
            c.send(&b, sizeof b, 1, 20);
        } else {
            int got = 0;
            c.recv(&got, sizeof got, 0, 20);  // out of order by tag
            EXPECT_EQ(2, got);
            c.recv(&got, sizeof got, 0, 10);
            EXPECT_EQ(1, got);
        }
    });
}

TEST(MiniMpi, FifoPerSourceAndTag) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 100; ++i) c.send(&i, sizeof i, 1, 1);
        } else {
            for (int i = 0; i < 100; ++i) {
                int got = -1;
                c.recv(&got, sizeof got, 0, 1);
                EXPECT_EQ(i, got);
            }
        }
    });
}

TEST(MiniMpi, AnySource) {
    World w(3);
    w.run([](Comm& c) {
        if (c.rank() != 0) {
            const int v = c.rank() * 100;
            c.send(&v, sizeof v, 0, 5);
        } else {
            int sum = 0;
            for (int i = 0; i < 2; ++i) {
                int got = 0;
                const int src = c.recv(&got, sizeof got, kAnySource, 5);
                EXPECT_EQ(src * 100, got);
                sum += got;
            }
            EXPECT_EQ(300, sum);
        }
    });
}

TEST(MiniMpi, SizeMismatchThrows) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
        if (c.rank() == 0) {
            int v = 0;
            c.send(&v, sizeof v, 1, 1);
        } else {
            double got;
            c.recv(&got, sizeof got, 0, 1);  // 8 bytes expected, 4 sent
        }
    }),
                 ExecError);
}

TEST(MiniMpi, InvalidRankThrows) {
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
        int v = 0;
        if (c.rank() == 0) c.send(&v, sizeof v, 5, 1);
        else c.recv(&v, sizeof v, 0, 1);
    }),
                 ExecError);
}

TEST(MiniMpi, SendRecvRingExchange) {
    // The stencil halo pattern: every rank exchanges with both neighbors.
    const int P = 5;
    World w(P);
    w.run([&](Comm& c) {
        const int up = (c.rank() + 1) % P;
        const int down = (c.rank() + P - 1) % P;
        const float mine = static_cast<float>(c.rank());
        float fromDown = -1, fromUp = -1;
        c.sendrecv(&mine, sizeof mine, up, &fromDown, sizeof fromDown, down, 1);
        c.sendrecv(&mine, sizeof mine, down, &fromUp, sizeof fromUp, up, 2);
        EXPECT_EQ(static_cast<float>(down), fromDown);
        EXPECT_EQ(static_cast<float>(up), fromUp);
    });
}

TEST(MiniMpi, SendRecvToSelf) {
    // Buffered sends make self-exchange legal (used by 1-rank MPI runs).
    World w(1);
    w.run([](Comm& c) {
        int out = 9, in_ = 0;
        c.sendrecv(&out, sizeof out, 0, &in_, sizeof in_, 0, 3);
        EXPECT_EQ(9, in_);
    });
}

TEST(MiniMpi, Barrier) {
    const int P = 8;
    World w(P);
    std::atomic<int> phase1{0};
    std::atomic<bool> violated{false};
    w.run([&](Comm& c) {
        phase1.fetch_add(1);
        c.barrier();
        if (phase1.load() != P) violated.store(true);
    });
    EXPECT_FALSE(violated.load());
}

TEST(MiniMpi, Bcast) {
    World w(4);
    w.run([](Comm& c) {
        double buf[3] = {0, 0, 0};
        if (c.rank() == 2) {
            buf[0] = 1.5;
            buf[1] = 2.5;
            buf[2] = 3.5;
        }
        c.bcast(buf, sizeof buf, 2);
        EXPECT_DOUBLE_EQ(1.5, buf[0]);
        EXPECT_DOUBLE_EQ(3.5, buf[2]);
    });
}

TEST(MiniMpi, AllreduceSumDeterministic) {
    const int P = 6;
    World w(P);
    std::vector<double> results(P, 0);
    w.run([&](Comm& c) {
        results[static_cast<size_t>(c.rank())] = c.allreduceSum(0.1 * (c.rank() + 1));
    });
    // Reduction in rank order: 0.1 + 0.2 + ... + 0.6 with fixed grouping.
    double expect = 0;
    for (int r = 0; r < P; ++r) expect += 0.1 * (r + 1);
    for (double r : results) EXPECT_DOUBLE_EQ(expect, r);
}

TEST(MiniMpi, AllreduceMax) {
    World w(5);
    w.run([](Comm& c) {
        const double v = c.rank() == 3 ? 99.0 : static_cast<double>(c.rank());
        EXPECT_DOUBLE_EQ(99.0, c.allreduceMax(v));
    });
}

TEST(MiniMpi, RepeatedCollectives) {
    World w(3);
    w.run([](Comm& c) {
        for (int i = 0; i < 50; ++i) {
            EXPECT_DOUBLE_EQ(3.0 * i, c.allreduceSum(static_cast<double>(i)));
        }
    });
}

TEST(MiniMpi, WorldReusableAcrossRuns) {
    World w(2);
    for (int iter = 0; iter < 3; ++iter) {
        w.run([](Comm& c) {
            int v = c.rank();
            int got = -1;
            c.sendrecv(&v, sizeof v, 1 - c.rank(), &got, sizeof got, 1 - c.rank(), 1);
            EXPECT_EQ(1 - c.rank(), got);
        });
    }
}

TEST(MiniMpi, FailureInjectionAbortsBlockedRanks) {
    // Rank 1 dies; rank 0 is blocked in recv and must be released with an
    // error instead of hanging (MPI_Abort semantics).
    World w(2);
    try {
        w.run([](Comm& c) {
            if (c.rank() == 1) throw ExecError("injected fault");
            int got;
            c.recv(&got, sizeof got, 1, 1);  // never satisfied
        });
        FAIL() << "expected the injected fault to propagate";
    } catch (const ExecError& e) {
        EXPECT_NE(std::string(e.what()).find("injected fault"), std::string::npos);
    }
    // The world remains usable after an abort.
    w.run([](Comm& c) { c.barrier(); });
}

TEST(MiniMpi, FailureInjectionReleasesBarrier) {
    World w(3);
    EXPECT_THROW(w.run([](Comm& c) {
        if (c.rank() == 2) throw ExecError("boom");
        c.barrier();
    }),
                 ExecError);
}

TEST(MiniMpi, AbortDuringBarrierStress) {
    // Regression for the missed-wakeup race in World::abort(): the abort
    // notified barrierCv_ without holding barrierM_, so a rank that had
    // just evaluated the wait predicate (not yet blocked) could sleep
    // forever. Many iterations of ranks piling into a barrier while one
    // rank throws makes the window reliably observable (run under TSan via
    // the tsan ctest label).
    const int P = 4;
    World w(P);
    for (int iter = 0; iter < 150; ++iter) {
        EXPECT_THROW(w.run([&](Comm& c) {
                         if (c.rank() == iter % P) {
                             throw ExecError("abort-in-barrier stress");
                         }
                         // No pre-synchronization: some ranks are already
                         // waiting, some are between check and wait, some
                         // have not arrived when the abort fires.
                         c.barrier();
                         c.barrier();
                     }),
                     ExecError);
    }
    // The world stays usable after every abort.
    w.run([](Comm& c) { c.barrier(); });
}

TEST(MiniMpi, AbortDuringCollectivesStress) {
    // Same race, via the mailbox path: ranks blocked in recvSys inside
    // bcast/allreduce must all be released when a peer dies.
    const int P = 3;
    World w(P);
    for (int iter = 0; iter < 100; ++iter) {
        EXPECT_THROW(w.run([&](Comm& c) {
                         if (c.rank() == iter % P) throw ExecError("die");
                         double v = c.rank();
                         c.bcast(&v, sizeof v, (iter + 1) % P);
                         c.allreduceSum(v);
                     }),
                     ExecError);
    }
}

TEST(MiniMpi, CollectiveBytesAreCounted) {
    // Regression for bytesSent() undercounting: sendSys posted collective
    // messages without accounting, so bcast/allreduce traffic was invisible
    // to the perf model's communication-volume input.
    const int P = 4;
    {
        World w(P);
        w.run([](Comm& c) {
            double buf[2] = {1.0, 2.0};
            c.bcast(buf, sizeof buf, 0);
        });
        // Root sends the 16-byte payload to each of the P-1 others.
        EXPECT_EQ(static_cast<int64_t>(sizeof(double) * 2 * (P - 1)), w.bytesSent());
        EXPECT_EQ(static_cast<int64_t>(P - 1), w.messagesSent());
    }
    {
        World w(P);
        w.run([](Comm& c) { c.allreduceSum(1.0); });
        // Gather to rank 0 then fan back out: 2*(P-1) doubles on the wire.
        EXPECT_EQ(static_cast<int64_t>(sizeof(double) * 2 * (P - 1)), w.bytesSent());
    }
}

TEST(MiniMpi, InstrumentationCounts) {
    World w(2);
    const int64_t m0 = w.messagesSent();
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            float buf[16] = {};
            c.sendF32(buf, 16, 1, 1);
        } else {
            float buf[16];
            c.recvF32(buf, 16, 0, 1);
        }
    });
    EXPECT_EQ(m0 + 1, w.messagesSent());
    EXPECT_EQ(static_cast<int64_t>(16 * sizeof(float)), w.bytesSent());
}

class MiniMpiScale : public ::testing::TestWithParam<int> {};

TEST_P(MiniMpiScale, AllToAllRing) {
    const int P = GetParam();
    World w(P);
    w.run([&](Comm& c) {
        // Pass a token all the way around the ring.
        int token = 0;
        if (c.rank() == 0) {
            token = 1;
            c.send(&token, sizeof token, 1 % P, 9);
            if (P > 1) c.recv(&token, sizeof token, P - 1, 9);
            EXPECT_EQ(P, token);
        } else {
            c.recv(&token, sizeof token, c.rank() - 1, 9);
            ++token;
            c.send(&token, sizeof token, (c.rank() + 1) % P, 9);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Rings, MiniMpiScale, ::testing::Values(1, 2, 3, 4, 8, 16, 32));

// ----------------------------------------------------- robustness (PR 3)

TEST(MiniMpi, SizeMismatchDiagnosticsNameBothEnds) {
    // The error must identify who was receiving, from whom, on which tag,
    // and both byte counts — enough to debug a type mismatch from the log.
    World w(2);
    try {
        w.run([](Comm& c) {
            if (c.rank() == 0) {
                const int v = 0;
                c.send(&v, sizeof v, 1, 7);
            } else {
                double got;
                c.recv(&got, sizeof got, 0, 7);
            }
        });
        FAIL() << "expected a size-mismatch error";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("src 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag 7"), std::string::npos) << msg;
        EXPECT_NE(msg.find("expected 8 bytes, got 4"), std::string::npos) << msg;
    }
}

TEST(MiniMpi, AnySourceDeliveryIsFifoPerSender) {
    // kAnySource must preserve each sender's own ordering even when
    // matching across sources.
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 1) {
            for (int i = 0; i < 5; ++i) c.send(&i, sizeof i, 0, 3);
        } else {
            for (int i = 0; i < 5; ++i) {
                int got = -1;
                const int src = c.recv(&got, sizeof got, kAnySource, 3);
                EXPECT_EQ(1, src);
                EXPECT_EQ(i, got);  // FIFO within the (src, tag) stream
            }
        }
    });
}

TEST(MiniMpi, AbortDuringBcast) {
    World w(3);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 2) throw ExecError("die in bcast");
                     double v = 1.0;
                     c.bcast(&v, sizeof v, 0);
                 }),
                 ExecError);
    // Reusable afterwards.
    w.run([](Comm& c) { c.barrier(); });
}

TEST(MiniMpi, AbortDuringAllreduce) {
    World w(3);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) throw ExecError("die in allreduce");
                     c.allreduceSum(1.0);
                 }),
                 ExecError);
    w.run([](Comm& c) { c.barrier(); });
}

TEST(MiniMpi, RunDrainsStaleMailboxesAfterAbort) {
    // Regression: an aborted run used to leave in-flight messages queued,
    // so the next run() on the same World could deliver a stale payload.
    World w(2);
    EXPECT_THROW(w.run([](Comm& c) {
                     if (c.rank() == 0) {
                         const int stale = 111;
                         c.send(&stale, sizeof stale, 1, 9);
                         throw ExecError("die after send");
                     }
                     // Rank 1 blocks on a different tag so the tag-9 message
                     // is still undelivered when the abort fires.
                     int got = 0;
                     c.recv(&got, sizeof got, 0, 8);
                 }),
                 ExecError);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int fresh = 222;
            c.send(&fresh, sizeof fresh, 1, 9);
        } else {
            int got = 0;
            c.recv(&got, sizeof got, 0, 9);
            EXPECT_EQ(222, got) << "stale message from the aborted run leaked through";
        }
    });
}

TEST(MiniMpi, RecvTimeoutDeliversWhenMessageArrives) {
    World w(2);
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            const int v = 42;
            c.send(&v, sizeof v, 1, 4);
        } else {
            int got = 0;
            const int src = c.recvTimeout(&got, sizeof got, 0, 4, 5000);
            EXPECT_EQ(0, src);
            EXPECT_EQ(42, got);
        }
    });
}

TEST(MiniMpi, RecvTimeoutExpires) {
    World w(2);
    try {
        w.run([](Comm& c) {
            if (c.rank() == 1) {
                int got = 0;
                c.recvTimeout(&got, sizeof got, 0, 4, 50);  // nothing coming
            }
        });
        FAIL() << "expected the receive to time out";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("timeout"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag=4"), std::string::npos) << msg;
    }
}

TEST(MiniMpi, RecvTimeoutRejectsNegative) {
    World w(1);
    EXPECT_THROW(w.run([](Comm& c) {
                     int got;
                     c.recvTimeout(&got, sizeof got, 0, 1, -5);
                 }),
                 UsageError);
}

TEST(MiniMpi, WatchdogFiresOnDeadlock) {
    // A classic head-to-head deadlock: both ranks receive first. The
    // watchdog must abort within its quantum and name every waiter.
    World w(2);
    w.setWatchdogMillis(150);
    EXPECT_EQ(150, w.watchdogMillis());
    try {
        w.run([](Comm& c) {
            int got = 0;
            c.recv(&got, sizeof got, 1 - c.rank(), 6);  // neither sends
        });
        FAIL() << "expected the watchdog to break the deadlock";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rank 0: blocked in recv(src=1, tag=6"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rank 1: blocked in recv(src=0, tag=6"), std::string::npos) << msg;
    }
    EXPECT_TRUE(w.watchdogFired());
    // The same world runs cleanly afterwards and the flag resets.
    w.run([](Comm& c) { c.barrier(); });
    EXPECT_FALSE(w.watchdogFired());
}

// ------------------------------------------- both transports (PR: wjrun)
//
// The same semantics suite against the threads AND the proc transport.
// Rules of the proc world: the rank body runs in a forked child, so gtest
// assertions there are invisible to the parent — every in-rank check
// throws ExecError instead (the transport carries the message back), and
// results cross the fork boundary only via Comm::publishResult. The two
// instantiations are split at discovery time: ProcXport/* carries the
// "proc" ctest label instead of "tsan" (forking a TSan'd process is
// unsupported).

namespace {
/// In-rank assertion: visible to the parent as a propagated ExecError.
void require(bool cond, const std::string& what) {
    if (!cond) throw ExecError("in-rank check failed: " + what);
}

/// `n` bytes of a pattern that differs per `seed`, so a frame delivered
/// out of order or spliced from two frames is caught by its content.
std::vector<uint8_t> pattern(size_t n, int seed) {
    std::vector<uint8_t> out(n);
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>((i * 7 + seed * 31) % 251);
    return out;
}

void requirePattern(const std::vector<uint8_t>& got, int seed, const std::string& what) {
    const std::vector<uint8_t> want = pattern(got.size(), seed);
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    require(diff.first == got.end(),
            what + ": byte " + std::to_string(diff.first - got.begin()) + " of " +
                std::to_string(got.size()) + " differs");
}

/// Receives exactly `bytes` bytes (recv throws on any other size) and
/// checks them against pattern(bytes, seed).
void recvPattern(Comm& c, size_t bytes, int src, int tag, int seed, const std::string& what) {
    std::vector<uint8_t> buf(bytes);
    c.recv(buf.data(), buf.size(), src, tag);
    requirePattern(buf, seed, what);
}
} // namespace

class XportSemantics : public ::testing::TestWithParam<TransportKind> {};

TEST_P(XportSemantics, PointToPointAndTagMatching) {
    World w(2, GetParam());
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            int a = 1, b = 2;
            c.send(&a, sizeof a, 1, 10);
            c.send(&b, sizeof b, 1, 20);
        } else {
            int got = 0;
            c.recv(&got, sizeof got, 0, 20);  // out of order by tag
            require(got == 2, "tag 20 payload");
            c.recv(&got, sizeof got, 0, 10);
            require(got == 1, "tag 10 payload");
        }
    });
}

TEST_P(XportSemantics, FifoPerSourceAndTag) {
    World w(2, GetParam());
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 50; ++i) c.send(&i, sizeof i, 1, 1);
        } else {
            for (int i = 0; i < 50; ++i) {
                int got = -1;
                c.recv(&got, sizeof got, 0, 1);
                require(got == i, "FIFO order at " + std::to_string(i));
            }
        }
    });
    // Small and large frames on one tag: a 4-byte message must never
    // overtake the 300 kB or 1 MiB frame sent before it.
    const std::vector<size_t> sizes = {4, 300000, 4, size_t{1} << 20, 4};
    w.run([&](Comm& c) {
        for (size_t k = 0; k < sizes.size(); ++k) {
            const int seed = static_cast<int>(k);
            if (c.rank() == 0) {
                const std::vector<uint8_t> buf = pattern(sizes[k], seed);
                c.send(buf.data(), buf.size(), 1, 5);
            } else {
                recvPattern(c, sizes[k], 0, 5, seed, "frame " + std::to_string(k));
            }
        }
    });
}

TEST_P(XportSemantics, AnySourceMatchesAllSenders) {
    World w(3, GetParam());
    w.run([](Comm& c) {
        if (c.rank() != 0) {
            const int v = c.rank() * 100;
            c.send(&v, sizeof v, 0, 5);
        } else {
            int sum = 0;
            for (int i = 0; i < 2; ++i) {
                int got = 0;
                const int src = c.recv(&got, sizeof got, kAnySource, 5);
                require(src * 100 == got, "payload names its source");
                sum += got;
            }
            require(sum == 300, "both senders seen");
        }
    });
    // Large frames from two senders at once: each arrives whole.
    const size_t kBytes = size_t{1} << 20;
    w.run([&](Comm& c) {
        if (c.rank() != 0) {
            const std::vector<uint8_t> buf = pattern(kBytes, c.rank());
            c.send(buf.data(), buf.size(), 0, 6);
        } else {
            bool seen[3] = {false, false, false};
            for (int i = 0; i < 2; ++i) {
                std::vector<uint8_t> buf(kBytes);
                const int src = c.recv(buf.data(), buf.size(), kAnySource, 6);
                requirePattern(buf, src, "large frame from rank " + std::to_string(src));
                seen[src] = true;
            }
            require(seen[1] && seen[2], "both large senders seen");
        }
    });
}

TEST_P(XportSemantics, SendRecvRingExchange) {
    const int P = 4;
    World w(P, GetParam());
    w.run([&](Comm& c) {
        const int up = (c.rank() + 1) % P;
        const int down = (c.rank() + P - 1) % P;
        const float mine = static_cast<float>(c.rank());
        float fromDown = -1, fromUp = -1;
        c.sendrecv(&mine, sizeof mine, up, &fromDown, sizeof fromDown, down, 1);
        c.sendrecv(&mine, sizeof mine, down, &fromUp, sizeof fromUp, up, 2);
        require(fromDown == static_cast<float>(down), "halo from below");
        require(fromUp == static_cast<float>(up), "halo from above");
    });
    // 24 ranks shrink the proc rings to 64 KiB; a 300 kB token still goes
    // all the way around, checked at every hop.
    const int Q = 24;
    const size_t kBytes = 300000;
    World big(Q, GetParam());
    big.run([&](Comm& c) {
        const int next = (c.rank() + 1) % Q;
        const int prev = (c.rank() + Q - 1) % Q;
        if (c.rank() == 0) {
            const std::vector<uint8_t> token = pattern(kBytes, 0);
            c.send(token.data(), token.size(), next, 3);
            recvPattern(c, kBytes, prev, 3, 0, "token back at rank 0");
        } else {
            std::vector<uint8_t> token(kBytes);
            c.recv(token.data(), token.size(), prev, 3);
            requirePattern(token, 0, "token at rank " + std::to_string(c.rank()));
            c.send(token.data(), token.size(), next, 3);
        }
    });
}

TEST_P(XportSemantics, SendRecvToSelf) {
    World w(1, GetParam());
    w.run([](Comm& c) {
        int out = 9, in_ = 0;
        c.sendrecv(&out, sizeof out, 0, &in_, sizeof in_, 0, 3);
        require(in_ == 9, "buffered self-exchange");
    });
}

TEST_P(XportSemantics, Collectives) {
    const int P = 4;
    World w(P, GetParam());
    w.run([&](Comm& c) {
        double buf[3] = {0, 0, 0};
        if (c.rank() == 2) {
            buf[0] = 1.5;
            buf[1] = 2.5;
            buf[2] = 3.5;
        }
        c.bcast(buf, sizeof buf, 2);
        require(buf[0] == 1.5 && buf[2] == 3.5, "bcast payload");
        double expect = 0;
        for (int r = 0; r < P; ++r) expect += 0.1 * (r + 1);
        require(c.allreduceSum(0.1 * (c.rank() + 1)) == expect,
                "rank-order deterministic allreduce");
        require(c.allreduceMax(c.rank() == 1 ? 99.0 : 0.0) == 99.0, "allreduce max");
        c.barrier();
    });
}

TEST_P(XportSemantics, RepeatedCollectives) {
    World w(3, GetParam());
    w.run([](Comm& c) {
        for (int i = 0; i < 20; ++i) {
            require(c.allreduceSum(static_cast<double>(i)) == 3.0 * i,
                    "allreduce round " + std::to_string(i));
        }
    });
    // Back-to-back collectives with no barrier between them, sizes
    // crossing 128 KiB. Each root in turn broadcasts 200 kB and then 8 B:
    // a root sends both without receiving in between, so only FIFO per
    // (src, tag) keeps the small frame from overtaking the large one.
    w.run([](Comm& c) {
        for (int i = 0; i < 12; ++i) {
            const int root = (i / 2) % 3;
            const size_t bytes = i % 2 ? 8 : 200000;
            std::vector<uint8_t> buf =
                c.rank() == root ? pattern(bytes, i) : std::vector<uint8_t>(bytes);
            c.bcast(buf.data(), buf.size(), root);
            requirePattern(buf, i, "bcast round " + std::to_string(i));
        }
        for (int i = 0; i < 6; ++i) {
            std::vector<double> v(i % 2 ? 1 : 20000, c.rank() + i);
            c.allreduceSumF64(v.data(), static_cast<int>(v.size()));
            for (double x : v) require(x == 3.0 + 3.0 * i, "allreduce round " + std::to_string(i));
        }
    });
}

TEST_P(XportSemantics, WorldReusableAcrossRuns) {
    World w(2, GetParam());
    for (int iter = 0; iter < 3; ++iter) {
        w.run([](Comm& c) {
            int v = c.rank();
            int got = -1;
            c.sendrecv(&v, sizeof v, 1 - c.rank(), &got, sizeof got, 1 - c.rank(), 1);
            require(got == 1 - c.rank(), "pair exchange");
        });
    }
}

TEST_P(XportSemantics, LargePayloadCrossesTransport) {
    // 300 kB: more than a proc ring holds in one pass. 1 MiB: four whole
    // 256 KiB rings, sent in both directions at once, so both ranks'
    // drainers stream while their senders wait for room.
    World w(2, GetParam());
    int64_t expectBytes = 0;
    for (const size_t kBytes : {size_t{300000}, size_t{1} << 20}) {
        w.run([&](Comm& c) {
            const int peer = 1 - c.rank();
            const std::vector<uint8_t> out = pattern(kBytes, c.rank());
            std::vector<uint8_t> in(kBytes);
            c.sendrecv(out.data(), out.size(), peer, in.data(), in.size(), peer, 2);
            requirePattern(in, peer, "payload from rank " + std::to_string(peer));
        });
        expectBytes += 2 * static_cast<int64_t>(kBytes);
    }
    EXPECT_EQ(expectBytes, w.bytesSent());
}

TEST_P(XportSemantics, SizeMismatchThrowsWithTransportContext) {
    World w(2, GetParam());
    try {
        w.run([](Comm& c) {
            if (c.rank() == 0) {
                int v = 0;
                c.send(&v, sizeof v, 1, 1);
            } else {
                double got;
                c.recv(&got, sizeof got, 0, 1);
            }
        });
        FAIL() << "expected a size-mismatch error";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("expected 8 bytes, got 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("transport="), std::string::npos) << msg;
    }
}

TEST_P(XportSemantics, InvalidRankThrows) {
    World w(2, GetParam());
    EXPECT_THROW(w.run([](Comm& c) {
        int v = 0;
        if (c.rank() == 0) c.send(&v, sizeof v, 5, 1);
        else c.recv(&v, sizeof v, 0, 1);
    }),
                 ExecError);
}

TEST_P(XportSemantics, RecvTimeoutNamesTransportAndPeer) {
    // Satellite contract: the timeout text says which transport the world
    // ran on, and (proc) who the absent peer was, down to its pid.
    World w(2, GetParam());
    try {
        w.run([](Comm& c) {
            if (c.rank() == 1) {
                int got = 0;
                c.recvTimeout(&got, sizeof got, 0, 4, 150);  // nothing coming
            } else {
                std::this_thread::sleep_for(std::chrono::milliseconds(400));
            }
        });
        FAIL() << "expected the receive to time out";
    } catch (const ExecError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("timeout"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tag=4"), std::string::npos) << msg;
        if (GetParam() == TransportKind::Proc) {
            EXPECT_NE(msg.find("transport=proc"), std::string::npos) << msg;
            EXPECT_NE(msg.find("peer pid"), std::string::npos) << msg;
        } else {
            EXPECT_NE(msg.find("transport=threads"), std::string::npos) << msg;
        }
    }
}

TEST_P(XportSemantics, PublishedResultCrossesTheWorldBoundary) {
    World w(2, GetParam());
    w.run([](Comm& c) {
        const double sum = c.allreduceSum(c.rank() + 1.0);
        if (c.rank() == 0) {
            int64_t bits = 0;
            std::memcpy(&bits, &sum, sizeof sum);
            c.publishResult(5, bits);
        }
    });
    int kind = 0;
    int64_t bits = 0;
    ASSERT_TRUE(w.takeResult(&kind, &bits));
    EXPECT_EQ(5, kind);
    double sum = 0;
    std::memcpy(&sum, &bits, sizeof sum);
    EXPECT_DOUBLE_EQ(3.0, sum);
    EXPECT_FALSE(w.takeResult(&kind, &bits)) << "takeResult must clear the slot";
}

TEST_P(XportSemantics, InstrumentationCounts) {
    World w(2, GetParam());
    w.run([](Comm& c) {
        if (c.rank() == 0) {
            float buf[16] = {};
            c.sendF32(buf, 16, 1, 1);
        } else {
            float buf[16];
            c.recvF32(buf, 16, 0, 1);
        }
        c.barrier();  // barrier traffic must stay invisible to the stats
    });
    EXPECT_EQ(1, w.messagesSent());
    EXPECT_EQ(static_cast<int64_t>(16 * sizeof(float)), w.bytesSent());
}

INSTANTIATE_TEST_SUITE_P(ThreadsXport, XportSemantics,
                         ::testing::Values(TransportKind::Threads),
                         [](const auto&) { return std::string("threads"); });
INSTANTIATE_TEST_SUITE_P(ProcXport, XportSemantics, ::testing::Values(TransportKind::Proc),
                         [](const auto&) { return std::string("proc"); });

// Stats must be bit-for-bit identical across transports for identical
// traffic — the accounting half of the determinism contract.
TEST(ProcXportCross, StatsMatchAcrossTransports) {
    auto traffic = [](Comm& c) {
        double v = c.rank() + 0.5;
        c.bcast(&v, sizeof v, 0);
        c.allreduceSum(v);
        c.barrier();
        if (c.rank() == 0) {
            std::vector<uint8_t> big(4096, 1);
            c.send(big.data(), big.size(), 1, 3);
        } else if (c.rank() == 1) {
            std::vector<uint8_t> big(4096);
            c.recv(big.data(), big.size(), 0, 3);
        }
    };
    World threads(3, TransportKind::Threads);
    threads.run(traffic);
    World proc(3, TransportKind::Proc);
    proc.run(traffic);
    EXPECT_EQ(threads.messagesSent(), proc.messagesSent());
    EXPECT_EQ(threads.bytesSent(), proc.bytesSent());
}

// A forked rank's metrics sidecar counts what that rank did, not the
// parent's counts it inherited through fork.
TEST(ProcXportCross, RankSidecarsCountOnlyTheirRank) {
    const std::string path = (std::filesystem::temp_directory_path() /
                              ("wjsidecar-" + std::to_string(::getpid()) + ".json"))
                                 .string();
    trace::Counter& bumps = trace::Metrics::instance().counter("test.sidecar.bumps");
    bumps.reset();
    bumps.add(7);
    trace::Tracer::instance().enable(path);
    World w(2, TransportKind::Proc);
    w.run([](Comm&) { trace::Metrics::instance().counter("test.sidecar.bumps").inc(); });
    trace::Tracer::instance().enable("");  // disarm the at-exit flush
    trace::Tracer::instance().disable();
    EXPECT_EQ(7, bumps.value()) << "the parent keeps its own count";
    for (int r = 0; r < 2; ++r) {
        const std::string sidecar = path + ".rank" + std::to_string(r) + ".metrics.json";
        std::ifstream f(sidecar);
        ASSERT_TRUE(f) << sidecar;
        std::stringstream text;
        text << f.rdbuf();
        const std::string key = "\"test.sidecar.bumps\": ";
        const size_t at = text.str().find(key);
        ASSERT_NE(std::string::npos, at) << sidecar << ":\n" << text.str();
        EXPECT_EQ(1, std::stoll(text.str().substr(at + key.size()))) << sidecar;
        std::filesystem::remove(sidecar);
    }
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".metrics.json");
}

TEST(MiniMpi, WatchdogSparesProgressingWorlds) {
    // Slow-but-alive traffic must never trip the stall detector: each
    // exchange bumps the progress counter, so consecutive quiet samples
    // never accumulate.
    World w(2);
    w.setWatchdogMillis(60);
    w.run([](Comm& c) {
        for (int i = 0; i < 8; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            int v = i, got = -1;
            c.sendrecv(&v, sizeof v, 1 - c.rank(), &got, sizeof got, 1 - c.rank(), 2);
            EXPECT_EQ(i, got);
        }
    });
    EXPECT_FALSE(w.watchdogFired());
}
