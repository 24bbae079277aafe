// Control-flow graph construction over WJ IR method bodies.
//
// WJ statements are structured (If/While/For only — no goto, break, or
// continue), so the CFG is built by one recursive pass over the stmt tree.
// Loops contribute the only back edges, and every edge out of a Branch node
// carries the branch condition plus the taken sense, which is what lets the
// interval pass assume `i < n` inside a `for (i ...; i < n; ...)` body.
//
// Node granularity: one node per simple statement, plus synthetic nodes for
// the pieces of a For (init assignment, condition, step assignment) so each
// gets its own transfer function.
#pragma once

#include <vector>

#include "ir/ast.h"
#include "ir/decl.h"

namespace wj::analysis {

struct CfgNode {
    enum class Kind {
        Entry,    ///< method entry (parameters assigned)
        Exit,     ///< all returns / fallthrough join here
        Stmt,     ///< a simple statement (`stmt` set)
        Branch,   ///< an If/While/For condition (`cond` set)
        ForInit,  ///< `var = init` of a For (`forS` set)
        ForStep,  ///< `var = step` of a For (`forS` set)
    };
    Kind kind = Kind::Entry;
    const Stmt* stmt = nullptr;
    const Expr* cond = nullptr;
    const ForStmt* forS = nullptr;
    std::vector<int> succ;  ///< outgoing edge indices
    std::vector<int> pred;  ///< incoming edge indices
};

struct CfgEdge {
    int from = -1, to = -1;
    /// Branch condition this edge assumes (null for unconditional edges).
    const Expr* guard = nullptr;
    /// Sense of the assumption: true = condition held, false = it did not.
    bool sense = true;
    /// Loop back edge (target dominates source) — the solver widens here.
    bool backEdge = false;
};

struct Cfg {
    std::vector<CfgNode> nodes;
    std::vector<CfgEdge> edges;
    int entry = 0;
    int exit = 1;

    /// Builds the CFG of `m`'s body (empty body: entry -> exit).
    static Cfg build(const Method& m);

    /// Reverse postorder over forward edges — the efficient worklist seed
    /// for forward analyses (reverse it for backward ones). Computed once,
    /// by build().
    const std::vector<int>& rpo() const { return rpo_; }

private:
    std::vector<int> rpo_;
    void computeRpo();
};

} // namespace wj::analysis
