// Effect analysis: per-method read/write/communication summaries.
//
// For every method body the analysis computes which arrays reachable from
// the caller the method may READ or WRITE — identified either as a
// parameter index (array or object parameter) or as a class-qualified
// array field ("FloatGridDblB.cur") — plus which MiniMPI operations it may
// perform. Summaries are propagated bottom-up over the shared call graph
// (src/analysis/callgraph.h); virtual calls join the summaries of every
// concrete subtype's implementation. The communication race check consumes
// the write sets to decide whether a callee may touch a halo buffer while
// a nonblocking receive into it is in flight.
#pragma once

#include <map>
#include <set>
#include <string>

#include "ir/program.h"

namespace wj::analysis {

struct Effects {
    /// Parameter indices (0-based, receiver excluded) whose reachable
    /// arrays may be read / written. Object parameters appear here when a
    /// callee touches arrays behind their fields.
    std::set<int> readsParams, writesParams;
    /// Class-qualified array fields ("Cls.field", keyed by the declaring
    /// class) that may be read / written, through any receiver.
    std::set<std::string> readsFields, writesFields;
    /// Class-qualified fields ("Cls.field") the method re-binds through
    /// any receiver (`o.f = v`, scalar or array-typed), outside a
    /// constructor.
    std::set<std::string> storesFields;
    /// Writes through an alias the classifier could not root (callee
    /// results, array-of-array elements, ...): treat as "may write
    /// anything".
    bool writesUnknown = false;

    // ---- communication
    bool sends = false;        ///< MPI send / sendrecv / bcast contribution
    bool receives = false;     ///< blocking recv / sendrecv
    bool postsIrecv = false;   ///< posts a nonblocking receive
    bool waits = false;        ///< MPI wait
    bool collectives = false;  ///< barrier / allreduce / bcast
    bool usesComm() const {
        return sends || receives || postsIrecv || waits || collectives;
    }

    // ---- additional side channels (consumed by the loop parallelizer,
    // which must keep comm/ckpt/alloc/IO on the rank's main thread)
    bool ckpt = false;       ///< checkpoint save / load
    bool gpu = false;        ///< any GPU intrinsic or @Global kernel launch
    bool allocates = false;  ///< NewArray / device allocation
    bool frees = false;      ///< WootinJ.free / cuda.free
    bool prints = false;     ///< printI64 / printF64

    bool operator==(const Effects& o) const {
        return readsParams == o.readsParams && writesParams == o.writesParams &&
               readsFields == o.readsFields && writesFields == o.writesFields &&
               storesFields == o.storesFields && writesUnknown == o.writesUnknown && sends == o.sends &&
               receives == o.receives && postsIrecv == o.postsIrecv && waits == o.waits &&
               collectives == o.collectives && ckpt == o.ckpt && gpu == o.gpu &&
               allocates == o.allocates && frees == o.frees && prints == o.prints;
    }

    /// Merges `o` into this; true if anything grew.
    bool merge(const Effects& o);

    std::string str() const;
};

/// "DeclaringClass.field": the class in `cls`'s superclass chain that
/// declares `field`, so all stores and loads of one field agree on the key
/// whatever the receiver's static type (`cls.field` when unresolvable).
std::string fieldKeyOf(const Program& prog, const std::string& cls, const std::string& field);

/// Computes summaries for every concrete method and constructor in the
/// program, iterating over the call graph to a fixed point (cycles — which
/// rule 6 forbids but lint inputs may contain — converge because the
/// domain is finite).
std::map<const Method*, Effects> computeEffects(const Program& prog);

} // namespace wj::analysis
