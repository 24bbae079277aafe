// Transport-agnostic MiniMPI semantics: the Comm surface (tag matching
// delegated to the transport, collectives layered on point-to-point, fault
// hooks) and the World facade. Everything address-space-specific lives in
// thread_transport.cpp / proc_transport.cpp behind transport.h.
#include "minimpi/minimpi.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "fault/fault.h"
#include "support/diagnostics.h"
#include "support/strings.h"
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

int configuredRanks(int fallback) {
    if (const char* v = std::getenv("WJ_NP"); v && *v) {
        const int n = std::atoi(v);
        if (n > 0) return n;
    }
    return fallback;
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

void Comm::send(const void* buf, size_t bytes, int dest, int tag) {
    trace::Span span("comm", "send", "peer", dest, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    Message msg;
    msg.src = rank_;
    msg.tag = tag;
    msg.channel = 0;
    world_->transport_->fillPayload(&msg, buf, bytes);
    world_->transport_->post(dest, std::move(msg));
}

void Comm::send(std::vector<uint8_t>&& data, int dest, int tag) {
    trace::Span span("comm", "send", "peer", dest, "tag", tag,
                     "bytes", static_cast<int64_t>(data.size()));
    faultHook();
    Message msg;
    msg.src = rank_;
    msg.tag = tag;
    msg.channel = 0;
    msg.origin = kOriginMoved;
    msg.data = std::move(data);
    world_->transport_->post(dest, std::move(msg));
}

int Comm::recv(void* buf, size_t bytes, int src, int tag) {
    trace::Span span("comm", "recv", "peer", src, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    Message msg = world_->transport_->take(rank_, src, tag, 0, -1);
    span.arg(0, "peer", msg.src);  // resolve ANY to the actual source
    if (msg.data.size() != bytes) {
        throw ExecError(format(
            "MPI recv size mismatch at rank %d (src %d, tag %d, transport=%s): expected %zu "
            "bytes, got %zu",
            rank_, msg.src, tag, world_->transportName(), bytes, msg.data.size()));
    }
    std::memcpy(buf, msg.data.data(), bytes);
    world_->transport_->recycle(std::move(msg.data));
    return msg.src;
}

int Comm::recvTimeout(void* buf, size_t bytes, int src, int tag, int timeoutMs) {
    if (timeoutMs < 0) throw UsageError("recvTimeout: timeout must be >= 0 ms");
    trace::Span span("comm", "recvTimeout", "peer", src, "tag", tag,
                     "bytes", static_cast<int64_t>(bytes));
    faultHook();
    Message msg = world_->transport_->take(rank_, src, tag, 0, timeoutMs);
    span.arg(0, "peer", msg.src);
    if (msg.data.size() != bytes) {
        throw ExecError(format(
            "MPI recv size mismatch at rank %d (src %d, tag %d, transport=%s): expected %zu "
            "bytes, got %zu",
            rank_, msg.src, tag, world_->transportName(), bytes, msg.data.size()));
    }
    std::memcpy(buf, msg.data.data(), bytes);
    world_->transport_->recycle(std::move(msg.data));
    return msg.src;
}

int Comm::sendrecv(const void* sbuf, size_t sbytes, int dest,
                   void* rbuf, size_t rbytes, int src, int tag) {
    send(sbuf, sbytes, dest, tag);
    return recv(rbuf, rbytes, src, tag);
}

int Comm::sendrecv(std::vector<uint8_t>&& sbuf, int dest,
                   void* rbuf, size_t rbytes, int src, int tag) {
    send(std::move(sbuf), dest, tag);
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

namespace {

/// Collective-internal send/recv on the system channel (channel 1).
void sendSys(Transport& t, int me, const void* buf, size_t bytes, int dest, int tag) {
    Message msg;
    msg.src = me;
    msg.tag = tag;
    msg.channel = 1;
    t.fillPayload(&msg, buf, bytes);
    t.post(dest, std::move(msg));
}

void recvSys(Transport& t, int me, void* buf, size_t bytes, int src, int tag) {
    Message msg = t.take(me, src, tag, 1, -1);
    if (msg.data.size() != bytes) {
        throw ExecError(format(
            "MPI collective size mismatch at rank %d (src %d, tag %d, transport=%s): expected "
            "%zu bytes, got %zu",
            me, msg.src, tag, t.kind(), bytes, msg.data.size()));
    }
    std::memcpy(buf, msg.data.data(), bytes);
    t.recycle(std::move(msg.data));
}

} // namespace

/// Binomial-tree fan-out from `root` (MPICH's bcast shape): relabel ranks
/// so the root is virtual rank 0, receive from the parent (clear the
/// lowest set bit of the virtual rank), then forward down the remaining
/// subtrees. size-1 messages in ceil(log2(size)) rounds instead of the
/// root pushing size-1 sends serially.
void Comm::treeBcast(void* buf, size_t bytes, int root, int tag) {
    Transport& t = *world_->transport_;
    const int size = world_->size_;
    const int vrank = (rank_ - root + size) % size;
    int mask = 1;
    while (mask < size) {
        if (vrank & mask) {
            const int parent = ((vrank & ~mask) + root) % size;
            recvSys(t, rank_, buf, bytes, parent, tag);
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
            sendSys(t, rank_, buf, bytes, child, tag);
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
    Transport& t = *world_->transport_;
    const size_t bytes = sizeof(double) * static_cast<size_t>(n);
    // Gather to rank 0 in rank order (deterministic floating-point result),
    // reduce element-wise, then binomial-tree broadcast of the reduced
    // buffer — the textbook layering over point-to-point.
    if (rank_ == 0) {
        std::vector<double> other(static_cast<size_t>(n));
        for (int r = 1; r < world_->size_; ++r) {
            recvSys(t, 0, other.data(), bytes, r, kTagReduceUp);
            for (int i = 0; i < n; ++i) {
                buf[i] = isMax ? std::max(buf[i], other[static_cast<size_t>(i)])
                               : buf[i] + other[static_cast<size_t>(i)];
            }
        }
    } else {
        sendSys(t, rank_, buf, bytes, 0, kTagReduceUp);
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
