// Facts derived from a Program alone, built once per Program.
//
// A Program is immutable once built (ir/program.h), so whatever depends on
// nothing but its class table is computed on the first analysis, lint or
// rule check that asks, and shared by every later one on that Program, from
// any thread: the effect summaries, the mutated-field groups, the
// coding-rules verdict, and the CFG plus definite-assignment findings of
// every method and constructor the Program owns.
//
// Never in here: anything derived from a jit() receiver, its arguments, a
// translation switch or the environment — those differ between calls on
// one Program. A body that is not a Program method (the fusion pass's
// rewritten entry) has no entry and is analyzed on its own.
//
// Lifetime: the facts live in a slot of their Program and are destroyed
// with it; nothing is keyed by the Program's address. The first build runs
// under the slot's lock, so concurrent first uses build once. Each build
// increments the `analysis.facts.builds` counter. A body's CFG and
// definite-assignment findings are computed on the first request for that
// body (std::call_once), so a jit() pays only for the bodies it reaches.
#pragma once

#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/effects.h"
#include "ir/program.h"
#include "support/diagnostics.h"

namespace wj::analysis {

/// Which array fields are reassigned after construction, and which fields
/// can alias each other through those reassignments (the double-buffer swap
/// `t = cur; cur = nxt; nxt = t` puts cur and nxt in one group). A read of a
/// mutated field on a known object is the join of that object's values over
/// its whole group; a group is "open" (unknown) when some store's source
/// could not be traced to a same-object field. Keys are fieldKeyOf() keys.
class FieldGroups {
public:
    explicit FieldGroups(const Program& prog);

    bool isMutated(const std::string& key) const { return mutated_.count(key) > 0; }
    bool isOpen(const std::string& key) const { return open_.count(find(key)) > 0; }

    /// Every key in `key`'s group (including itself).
    std::vector<std::string> groupOf(const std::string& key) const;

private:
    // Union-find over field keys.
    std::string find(const std::string& k) const;
    void ensure(const std::string& k);
    void unite(const std::string& a, const std::string& b);
    void markOpen(const std::string& k);
    void scanMethod(const Program& prog, const ClassDecl& cls, const Method& m, bool inCtor);

    std::map<std::string, std::string> parent_;
    std::set<std::string> mutated_;
    std::set<std::string> open_;  // group leaders with untraceable stores
};

/// One method or constructor body of the Program.
struct MethodFacts {
    Cfg cfg;
    std::vector<Violation> daErrors;    ///< checkDefiniteAssignment findings
    std::vector<Violation> daWarnings;  ///< its dead-store warnings
};

class ProgramFacts {
public:
    /// The facts of `prog`, built on the first call and destroyed with it.
    static const ProgramFacts& of(const Program& prog);

    explicit ProgramFacts(const Program& prog);

    const std::map<const Method*, Effects>& effects() const { return effects_; }
    const FieldGroups& fieldGroups() const { return groups_; }

    /// The coding-rules verdict (rules/rules.h): the violations found, or
    /// the type error that stopped the check, rethrown on every call.
    const std::vector<Violation>& ruleViolations() const;

    /// Facts of a body the Program owns, built on the first request for
    /// it; nullptr for any other body.
    const MethodFacts* method(const Method& m) const;

private:
    struct MethodSlot {
        const ClassDecl* owner = nullptr;
        std::once_flag once;
        MethodFacts facts;
    };

    FieldGroups groups_;
    std::map<const Method*, Effects> effects_;
    std::vector<Violation> ruleViolations_;
    std::exception_ptr ruleError_;
    /// One slot per body, all created by the constructor: lookups never
    /// change the map, only a slot's contents, once.
    mutable std::map<const Method*, MethodSlot> methods_;
};

/// Definite assignment over an already built CFG of `m`; the public
/// checkDefiniteAssignment (analysis.h) builds the CFG and calls this.
std::vector<Violation> checkDefiniteAssignment(const Cfg& cfg, const ClassDecl& cls,
                                               const Method& m,
                                               std::vector<Violation>* warnings);

} // namespace wj::analysis
