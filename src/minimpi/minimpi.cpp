// Transport-agnostic MiniMPI semantics, written once: the Comm surface
// (one send path, one receive path, collectives layered on point-to-point,
// fault hooks), the tag-matched Mailbox, the watchdog's stall rule and
// wait dump, and the World facade. Everything address-space-specific
// lives in thread_transport.cpp / proc_transport.cpp behind transport.h.
#include "minimpi/minimpi.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "fault/fault.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace wj::minimpi {

namespace {
// Collective operations use distinct tags on the system channel so that
// overlapping collectives (e.g. bcast inside allreduce) cannot cross-match.
constexpr int kTagBcast = 1;
constexpr int kTagReduceUp = 2;
constexpr int kTagReduceDown = 3;

constexpr int kDefaultWatchdogMs = 30000;

int watchdogDefaultMs() {
    if (const char* v = std::getenv("WJ_WATCHDOG_MS"); v && *v) {
        return std::atoi(v);
    }
    return kDefaultWatchdogMs;
}

std::string srcName(int src) {
    return src == kAnySource ? std::string("ANY") : std::to_string(src);
}

} // namespace

TransportKind defaultTransportKind() {
    if (const char* v = std::getenv("WJ_TRANSPORT"); v && *v) {
        if (std::strcmp(v, "proc") == 0) return TransportKind::Proc;
        if (std::strcmp(v, "threads") == 0) return TransportKind::Threads;
        throw UsageError(std::string("WJ_TRANSPORT must be 'threads' or 'proc', got '") + v +
                         "'");
    }
    return TransportKind::Threads;
}

// ---------------------------------------------------------------- Mailbox

void Mailbox::reset(const Transport* owner, RankCell* cell, std::atomic<uint64_t>* progress) {
    std::lock_guard<std::mutex> lock(m_);
    q_.clear();
    aborted_ = false;
    why_.clear();
    owner_ = owner;
    cell_ = cell;
    progress_ = progress;
    cell_->depth.store(0, std::memory_order_relaxed);
}

void Mailbox::deliver(Message&& msg) {
    {
        std::lock_guard<std::mutex> lock(m_);
        q_.push_back(std::move(msg));
        cell_->depth.fetch_add(1, std::memory_order_relaxed);
    }
    progress_->fetch_add(1, std::memory_order_relaxed);
    // Notifying after the unlock is safe: a receiver can only be between
    // its predicate check and its wait while holding m_, which the enqueue
    // above also required — so the message is either seen by the check or
    // the wakeup arrives after the wait began.
    cv_.notify_all();
}

void Mailbox::abort(std::string why) {
    {
        std::lock_guard<std::mutex> lock(m_);
        if (aborted_) return;
        aborted_ = true;
        why_ = std::move(why);
    }
    cv_.notify_all();
}

Message Mailbox::take(int me, int src, int tag, int channel, int timeoutMs) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
    bool timedOut = false;
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
        if (aborted_) {
            throw ExecError(format("%s (rank %d was in recv src=%s tag=%d, transport=%s)",
                                   why_.c_str(), me, srcName(src).c_str(), tag,
                                   owner_->kind()));
        }
        auto it = std::find_if(q_.begin(), q_.end(), [&](const Message& m) {
            return m.channel == channel && m.tag == tag && (src == kAnySource || m.src == src);
        });
        if (it != q_.end()) {
            Message msg = std::move(*it);
            q_.erase(it);
            cell_->depth.fetch_sub(1, std::memory_order_relaxed);
            progress_->fetch_add(1, std::memory_order_relaxed);
            return msg;
        }
        if (timedOut) {
            const std::string peer =
                src == kAnySource ? std::string() : owner_->peerDescription(src);
            throw ExecError(format(
                "MPI recv timeout at rank %d after %d ms (src=%s, tag=%d, transport=%s%s)", me,
                timeoutMs, srcName(src).c_str(), tag, owner_->kind(),
                peer.empty() ? "" : (", peer " + peer).c_str()));
        }
        // Publish what this rank is waiting for, then block: the watchdog
        // reads these fields to build its per-rank stall dump.
        cell_->src.store(src, std::memory_order_relaxed);
        cell_->tag.store(tag, std::memory_order_relaxed);
        cell_->channel.store(channel, std::memory_order_relaxed);
        cell_->state.store(kRankBlockedRecv, std::memory_order_release);
        if (timeoutMs < 0) {
            cv_.wait(lock);
        } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            timedOut = true;  // one more pass over the queue before throwing
        }
        cell_->state.store(kRankRunning, std::memory_order_release);
    }
}

// -------------------------------------------------------------- watchdog

bool StallWatch::sample(uint64_t progress, const RankCell* cells, int n,
                        const std::function<bool(int)>& gone) {
    bool anyBlocked = false, allQuiet = true;
    for (int r = 0; r < n; ++r) {
        if (gone && gone(r)) continue;
        const int s = cells[r].state.load(std::memory_order_acquire);
        if (s == kRankBlockedRecv || s == kRankBlockedBarrier) anyBlocked = true;
        else if (s != kRankDone) allQuiet = false;
    }
    const bool stalled = anyBlocked && allQuiet && progress == lastProgress_;
    const bool fire = stalled && stalledOnce_;
    stalledOnce_ = stalled;
    lastProgress_ = progress;
    return fire;
}

std::string waitDump(const RankCell* cells, int n,
                     const std::function<std::string(int)>& status) {
    std::string out;
    for (int r = 0; r < n; ++r) {
        const RankCell& c = cells[r];
        const int depth = c.depth.load(std::memory_order_relaxed);
        switch (c.state.load(std::memory_order_acquire)) {
        case kRankBlockedRecv:
            out += format("\n  rank %d: blocked in recv(src=%s, tag=%d, %s channel), "
                          "mailbox depth %d",
                          r, srcName(c.src.load()).c_str(), c.tag.load(),
                          c.channel.load() == 0 ? "user" : "collective", depth);
            break;
        case kRankBlockedBarrier:
            out += format("\n  rank %d: blocked in barrier, mailbox depth %d", r, depth);
            break;
        case kRankDone: out += format("\n  rank %d: finished", r); break;
        default: out += format("\n  rank %d: running, mailbox depth %d", r, depth); break;
        }
        if (status) out += " [" + status(r) + "]";
    }
    return out;
}

std::string stallReport(const char* transport, int quantumMs, const std::string& dump) {
    return format("MiniMPI watchdog: global stall — no progress for ~%d ms with every live "
                  "rank blocked (transport=%s); aborting world. Per-rank wait state:%s",
                  quantumMs, transport, dump.c_str());
}

// ------------------------------------------------------------------ World

World::World(int size, TransportKind kind)
    : size_(size), watchdogMs_(watchdogDefaultMs()) {
    if (size <= 0) throw UsageError("MPI world size must be positive");
    transport_ = kind == TransportKind::Proc ? makeProcTransport(size)
                                             : makeThreadTransport(size);
}

void World::run(const std::function<void(Comm&)>& fn) {
    std::exception_ptr err;
    try {
        transport_->run(
            [&](int r) {
                Comm comm(this, r);
                trace::setThreadRank(r);
                try {
                    fn(comm);
                } catch (...) {
                    trace::setThreadRank(-1);
                    throw;
                }
                trace::setThreadRank(-1);
            },
            watchdogMs_);
    } catch (...) {
        err = std::current_exception();
    }
    // All ranks are joined/reaped (quiesced), so this is a safe point to
    // merge their rings — and it runs even when a rank threw or died, so a
    // crashing multi-rank program still leaves a trace of what it did.
    trace::Tracer::instance().flushIfArmed();
    transport_->finishRun();
    if (err) std::rethrow_exception(err);
}

// ------------------------------------------------------------------- Comm

int Comm::size() const noexcept { return world_->size(); }

void Comm::faultHook() {
    if (fault::FaultPlan::active()) fault::FaultPlan::instance().onCommOp(rank_);
}

void Comm::post(const void* buf, size_t bytes, int dest, int tag, int channel) {
    Transport& t = *world_->transport_;
    if (dest < 0 || dest >= world_->size_) {
        throw ExecError(format("MPI send to invalid rank %d (from rank %d, tag %d)", dest,
                               rank_, tag));
    }
    Traffic& traffic = t.traffic();
    traffic.messages.fetch_add(1, std::memory_order_relaxed);
    traffic.bytes.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
    static auto& userBytes = trace::Metrics::instance().counter("comm.bytes.user");
    static auto& sysBytes = trace::Metrics::instance().counter("comm.bytes.collective");
    static auto& msgs = trace::Metrics::instance().counter("comm.messages");
    (channel == 0 ? userBytes : sysBytes).add(static_cast<int64_t>(bytes));
    msgs.inc();
    const auto* p = static_cast<const uint8_t*>(buf);
    Message msg{rank_, tag, channel, std::vector<uint8_t>(p, p + bytes)};
    if (fault::FaultPlan::active()) {
        // The injector models the link: it may corrupt or delay the payload
        // in flight, deliver it twice, or lose it entirely.
        switch (fault::FaultPlan::instance().onMessage(rank_, dest, tag, msg.data)) {
        case fault::MsgFate::Drop: return;
        case fault::MsgFate::Duplicate: t.deliver(dest, Message(msg)); break;
        case fault::MsgFate::Deliver: break;
        }
    }
    t.deliver(dest, std::move(msg));
}

int Comm::take(void* buf, size_t bytes, int src, int tag, int channel, int timeoutMs) {
    if (src != kAnySource && (src < 0 || src >= world_->size_)) {
        throw ExecError(
            format("rank %d: MPI recv from invalid rank %d (tag %d)", rank_, src, tag));
    }
    const Message msg =
        world_->transport_->mailbox(rank_).take(rank_, src, tag, channel, timeoutMs);
    if (msg.data.size() != bytes) {
        throw ExecError(format(
            "MPI %s size mismatch at rank %d (src %d, tag %d, transport=%s): expected %zu "
            "bytes, got %zu",
            channel == 0 ? "recv" : "collective", rank_, msg.src, tag,
            world_->transportName(), bytes, msg.data.size()));
    }
    std::memcpy(buf, msg.data.data(), bytes);
    return msg.src;
}

void Comm::send(const void* buf, size_t bytes, int dest, int tag) {
    trace::Span span("comm", "send", "peer", dest, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    post(buf, bytes, dest, tag, 0);
}

int Comm::recv(void* buf, size_t bytes, int src, int tag) {
    trace::Span span("comm", "recv", "peer", src, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    const int from = take(buf, bytes, src, tag, 0, -1);
    span.arg(0, "peer", from);  // resolve ANY to the actual source
    return from;
}

int Comm::recvTimeout(void* buf, size_t bytes, int src, int tag, int timeoutMs) {
    if (timeoutMs < 0) throw UsageError("recvTimeout: timeout must be >= 0 ms");
    trace::Span span("comm", "recvTimeout", "peer", src, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    const int from = take(buf, bytes, src, tag, 0, timeoutMs);
    span.arg(0, "peer", from);
    return from;
}

int Comm::sendrecv(const void* sbuf, size_t sbytes, int dest,
                   void* rbuf, size_t rbytes, int src, int tag) {
    send(sbuf, sbytes, dest, tag);
    return recv(rbuf, rbytes, src, tag);
}

void Comm::barrier() {
    trace::Span span("comm", "barrier");
    faultHook();
    world_->transport_->barrier(rank_);
}

void Comm::publishResult(int kind, int64_t bits) {
    world_->transport_->publishResult(kind, bits);
}

/// Binomial-tree fan-out from `root` (MPICH's bcast shape): relabel ranks
/// so the root is virtual rank 0, receive from the parent (clear the
/// lowest set bit of the virtual rank), then forward down the remaining
/// subtrees. size-1 messages in ceil(log2(size)) rounds instead of the
/// root pushing size-1 sends serially.
void Comm::treeBcast(void* buf, size_t bytes, int root, int tag) {
    const int size = world_->size_;
    const int vrank = (rank_ - root + size) % size;
    int mask = 1;
    while (mask < size) {
        if (vrank & mask) {
            const int parent = ((vrank & ~mask) + root) % size;
            take(buf, bytes, parent, tag, 1, -1);
            break;
        }
        mask <<= 1;
    }
    // `mask` is now the lowest set bit of vrank (past the top for the
    // root); everything below it is this node's subtree to forward to.
    mask >>= 1;
    while (mask > 0) {
        if (vrank + mask < size) {
            const int child = ((vrank + mask) + root) % size;
            post(buf, bytes, child, tag, 1);
        }
        mask >>= 1;
    }
}

void Comm::bcast(void* buf, size_t bytes, int root) {
    trace::Span span("comm", "bcast", "peer", root, "bytes",
                     static_cast<int64_t>(bytes));
    faultHook();
    if (root < 0 || root >= world_->size_) {
        throw ExecError(format("bcast: invalid root %d at rank %d", root, rank_));
    }
    treeBcast(buf, bytes, root, kTagBcast);
}

void Comm::allreduceF64(double* buf, int n, bool isMax) {
    trace::Span span(
        "comm", isMax ? "allreduceMax" : "allreduceSum", "bytes",
        static_cast<int64_t>(sizeof(double)) * std::max(n, 0));
    faultHook();
    if (n < 0) throw ExecError(format("allreduce: negative count %d at rank %d", n, rank_));
    const size_t bytes = sizeof(double) * static_cast<size_t>(n);
    // Gather to rank 0 in rank order (deterministic floating-point result),
    // reduce element-wise, then binomial-tree broadcast of the reduced
    // buffer — the textbook layering over point-to-point.
    if (rank_ == 0) {
        std::vector<double> other(static_cast<size_t>(n));
        for (int r = 1; r < world_->size_; ++r) {
            take(other.data(), bytes, r, kTagReduceUp, 1, -1);
            for (int i = 0; i < n; ++i) {
                buf[i] = isMax ? std::max(buf[i], other[static_cast<size_t>(i)])
                               : buf[i] + other[static_cast<size_t>(i)];
            }
        }
    } else {
        post(buf, bytes, 0, kTagReduceUp, 1);
    }
    treeBcast(buf, bytes, 0, kTagReduceDown);
}

void Comm::allreduceSumF64(double* buf, int n) { allreduceF64(buf, n, false); }

void Comm::allreduceMaxF64(double* buf, int n) { allreduceF64(buf, n, true); }

double Comm::allreduceSum(double v) {
    allreduceF64(&v, 1, false);
    return v;
}

double Comm::allreduceMax(double v) {
    allreduceF64(&v, 1, true);
    return v;
}

} // namespace wj::minimpi
