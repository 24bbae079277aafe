// ThreadTransport: the original in-process MiniMPI path — ranks as OS
// threads, one Mailbox per rank into which a sender moves its message, a
// generation-counted condvar barrier, and the two-sample stall watchdog.
// This is the fast path; the process transport trades its speed for real
// address-space isolation.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "minimpi/minimpi.h"
#include "minimpi/transport.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace wj::minimpi {

namespace {

class ThreadTransport final : public Transport {
public:
    explicit ThreadTransport(int size)
        : size_(size), boxes_(static_cast<size_t>(std::max(size, 1))),
          cells_(static_cast<size_t>(std::max(size, 1))) {}

    TransportKind kindId() const noexcept override { return TransportKind::Threads; }

    void run(const std::function<void(int)>& body, int watchdogMs) override;

    Traffic& traffic() override { return traffic_; }
    void deliver(int dest, Message&& msg) override {
        boxes_[static_cast<size_t>(dest)].deliver(std::move(msg));
    }
    Mailbox& mailbox(int me) override { return boxes_[static_cast<size_t>(me)]; }
    void barrier(int me) override;

    void publishResult(int kind, int64_t bits) override {
        resultKind_.store(kind, std::memory_order_relaxed);
        resultBits_.store(bits, std::memory_order_relaxed);
        resultSet_.store(true, std::memory_order_release);
    }
    bool takeResult(int* kind, int64_t* bits) override {
        if (!resultSet_.exchange(false, std::memory_order_acquire)) return false;
        *kind = resultKind_.load(std::memory_order_relaxed);
        *bits = resultBits_.load(std::memory_order_relaxed);
        return true;
    }

    CommStats stats() const override { return {traffic_.messages, traffic_.bytes}; }
    bool watchdogFired() const noexcept override { return watchdogFired_.load(); }

private:
    void abort() noexcept;

    int size_;
    std::vector<Mailbox> boxes_;
    std::vector<RankCell> cells_;

    std::mutex barrierM_;
    std::condition_variable barrierCv_;
    int barrierCount_ = 0;
    int64_t barrierGen_ = 0;

    std::atomic<bool> watchdogFired_{false};
    /// Bumped by every delivery, successful take, and barrier release; the
    /// watchdog declares a stall only when this stands still for a quantum
    /// while every live rank is blocked.
    std::atomic<uint64_t> progress_{0};

    std::atomic<bool> aborted_{false};
    Traffic traffic_;

    std::atomic<int> resultKind_{0};
    std::atomic<int64_t> resultBits_{0};
    std::atomic<bool> resultSet_{false};
};

void ThreadTransport::barrier(int me) {
    std::unique_lock<std::mutex> lock(barrierM_);
    const int64_t gen = barrierGen_;
    if (++barrierCount_ == size_) {
        barrierCount_ = 0;
        ++barrierGen_;
        progress_.fetch_add(1, std::memory_order_relaxed);
        barrierCv_.notify_all();
        return;
    }
    RankCell& w = cells_[static_cast<size_t>(me)];
    w.state.store(kRankBlockedBarrier, std::memory_order_release);
    barrierCv_.wait(lock, [&] { return barrierGen_ != gen || aborted_.load(); });
    w.state.store(kRankRunning, std::memory_order_release);
    if (aborted_.load()) {
        throw ExecError(format("MPI world aborted by another rank (rank %d was in barrier)",
                               me));
    }
}

void ThreadTransport::abort() noexcept {
    aborted_.store(true);
    progress_.fetch_add(1, std::memory_order_relaxed);
    // Every wake-up below is serialized with its waiters' check-then-wait
    // step by the mutex they wait under (Mailbox::abort raises its flag
    // under the box's own). Without the lock, a rank that has just
    // evaluated its wait predicate (seeing no abort) but not yet blocked
    // would miss the wakeup and hang forever.
    for (auto& box : boxes_) box.abort("MPI world aborted by another rank");
    {
        std::lock_guard<std::mutex> lock(barrierM_);
        barrierCv_.notify_all();
    }
}

void ThreadTransport::run(const std::function<void(int)>& body, int watchdogMs) {
    // Reset per-run state FIRST: an aborted previous run leaves undelivered
    // messages in the mailboxes and possibly a partial barrier count; a
    // reused World must not let this run consume the dead run's state.
    for (int r = 0; r < size_; ++r) {
        boxes_[static_cast<size_t>(r)].reset(this, &cells_[static_cast<size_t>(r)], &progress_);
    }
    {
        std::lock_guard<std::mutex> lock(barrierM_);
        barrierCount_ = 0;
    }
    for (auto& c : cells_) c.state.store(kRankRunning, std::memory_order_relaxed);
    progress_.store(0, std::memory_order_relaxed);
    watchdogFired_.store(false);
    aborted_.store(false);
    resultSet_.store(false);

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(size_));
    std::mutex errM;
    std::exception_ptr firstErr;

    for (int r = 0; r < size_; ++r) {
        threads.emplace_back([&, r] {
            try {
                body(r);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errM);
                    if (!firstErr) firstErr = std::current_exception();
                }
                abort();
            }
            cells_[static_cast<size_t>(r)].state.store(kRankDone, std::memory_order_release);
        });
    }

    // Stall watchdog: samples twice per quantum; fires only after two
    // consecutive samples in which the progress counter stood still and
    // every rank was blocked (or finished) — i.e. the world cannot advance
    // on its own. Disabled with quantum 0.
    std::thread watchdog;
    std::mutex wdM;
    std::condition_variable wdCv;
    bool wdStop = false;
    const int quantum = watchdogMs;
    if (quantum > 0) {
        watchdog = std::thread([&] {
            std::unique_lock<std::mutex> lk(wdM);
            StallWatch watch;
            const auto tick = std::chrono::milliseconds(std::max(1, quantum / 2));
            for (;;) {
                if (wdCv.wait_for(lk, tick, [&] { return wdStop; })) return;
                if (aborted_.load()) return;
                if (watch.sample(progress_.load(std::memory_order_relaxed), cells_.data(),
                                 size_)) {
                    watchdogFired_.store(true);
                    auto err = std::make_exception_ptr(ExecError(
                        stallReport("threads", quantum, waitDump(cells_.data(), size_))));
                    {
                        std::lock_guard<std::mutex> lock(errM);
                        if (!firstErr) firstErr = std::move(err);
                    }
                    abort();
                    return;
                }
            }
        });
    }

    for (auto& t : threads) t.join();
    if (watchdog.joinable()) {
        {
            std::lock_guard<std::mutex> lock(wdM);
            wdStop = true;
        }
        wdCv.notify_all();
        watchdog.join();
    }
    if (firstErr) std::rethrow_exception(firstErr);
}

} // namespace

std::unique_ptr<Transport> makeThreadTransport(int size) {
    return std::make_unique<ThreadTransport>(size);
}

} // namespace wj::minimpi
