// The paper's Section 3.2: strict-final, semi-immutable, and the coding
// rules that make aggressive devirtualization and object inlining safe.
//
// A type T is STRICT-FINAL iff
//   1. T is a primitive type, or
//   2. T is an array type whose element type is strict-final, or
//   3. T is a final (leaf) class whose fields — including inherited ones —
//      are all of strict-final types.
//
// A type S is SEMI-IMMUTABLE iff
//   1. S is a primitive type, or
//   2. S is an array type whose element type is semi-immutable AND
//      strict-final, or
//   3. S is a class type where
//      (a) all fields are of semi-immutable types,
//      (b) all superclasses are semi-immutable (Object is),
//      (c) non-array fields are constant once the constructor finishes,
//      (d) constructors contain no conditional branches, no method calls
//          (except super(...)), and do not use `this` in expressions,
//      (e) S is not a recursive type.
//
// Coding rules for @WootinJ code (numbered as in the paper):
//   1. every type appearing in the code is semi-immutable;
//   2. every type is strict-final except method parameter and field types
//      (local-variable, return, and cast types are strict-final);
//   3. method parameters are constant (never assigned);
//   4. (type parameters — WJ IR has no generics; interfaces + rule 2 play
//      that role, so this rule has no checkable surface here);
//   5. static fields are final and not arrays (enforced structurally: the
//      IR only represents constant primitive statics);
//   6. no recursive calls (the static call graph is acyclic);
//   7. no conditional operator (?:) and no reference ==/!=;
//   8. no exceptions/reflection/threads/IO/.class/instanceof/null (the IR
//      cannot express most of these; null literals do not exist).
//
// Only classes marked @WootinJ are checked — "the rest of the program does
// not have to follow the rules" (Section 3).
#pragma once

#include <string>
#include <vector>

#include "ir/program.h"
#include "support/diagnostics.h"

namespace wj {

/// Answers strict-final / semi-immutable queries against one Program,
/// memoizing results. The Program must outlive the analysis.
class TypeProperties {
public:
    explicit TypeProperties(const Program& prog) : prog_(&prog) {}

    /// Is `t` strict-final? (Definition above.)
    bool isStrictFinal(const Type& t);

    /// Is `t` semi-immutable? Collects reasons when not.
    bool isSemiImmutable(const Type& t);

    /// Human-readable explanation of why `t` fails the given property;
    /// empty when it holds.
    std::string explainStrictFinal(const Type& t);
    std::string explainSemiImmutable(const Type& t);

private:
    enum class Tri { Unknown, InProgress, Yes, No };
    bool strictFinalClass(const std::string& name, std::string* why);
    bool semiImmutableClass(const std::string& name, std::string* why);
    bool strictFinalType(const Type& t, std::string* why);
    bool semiImmutableType(const Type& t, std::string* why);

    const Program* prog_;
    std::map<std::string, Tri> sfCache_;
    std::map<std::string, Tri> siCache_;
};

/// Verifies the coding rules over every @WootinJ class of `prog`.
/// Returns all violations found (empty = compliant). The verdict is one of
/// the per-Program analysis facts (analysis/facts.h): checked on the first
/// call, returned (or its type error rethrown) on every later one.
std::vector<Violation> verifyCodingRules(const Program& prog);

/// The check behind verifyCodingRules, run afresh: type-checks `prog`
/// (throwing on a type error), then applies the rules.
std::vector<Violation> checkCodingRules(const Program& prog);

/// Convenience: throws RuleViolationError if verifyCodingRules is non-empty.
void requireCodingRules(const Program& prog);

} // namespace wj
