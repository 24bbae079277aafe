// Deep copy of IR trees with substitution — the one full-tree rewrite the
// translator's passes share.
//
// The copy renames locals (reads, declarations, assignments and loop
// variables alike), replaces `this` with a receiver expression, and lets the
// caller intercept any node before it is copied. Inlining a callee body at
// a call site is one configuration: parameters renamed to the argument
// locals, callee locals to fresh names, `this` to the receiver path, so
// `this.f` becomes `recv.f`. Walks that only visit a tree use ir/walk.h.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "ir/ast.h"

namespace wj {

struct CloneMap {
    /// Local and parameter renames, applied to every binding and use.
    std::map<std::string, std::string> names;
    /// Replacement for `this`, copied (itself unrenamed) at each use; null
    /// keeps `this`.
    const Expr* self = nullptr;
    /// Called on every source expression before it is copied; a non-null
    /// result is used in place of the node's copy (its subtree is skipped).
    std::function<ExprPtr(const Expr&)> expr;
    /// Called on every source statement before it is copied; returning true
    /// means the hook appended the statement's replacement (possibly
    /// nothing) to the output block itself.
    std::function<bool(const Stmt&, Block&)> stmt;
};

ExprPtr cloneExpr(const Expr& e, const CloneMap& m);
Block cloneBlock(const Block& b, const CloneMap& m);

} // namespace wj
