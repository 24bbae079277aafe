// Program: the class table plus hierarchy queries.
//
// A Program is the unit the rule verifier, interpreter, and JIT operate on —
// the analogue of the set of class files loaded into the JVM. It is built
// once by a ProgramBuilder (which also registers the built-in dim3 and
// CudaConfig classes, Section 3.1) and immutable afterwards, which is what
// lets the JIT treat "leaf class" (no subclasses) as a stable property.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ir/decl.h"

namespace wj {

namespace analysis {
class ProgramFacts;
}

class Program {
public:
    /// Built by ProgramBuilder; takes ownership of all class declarations.
    explicit Program(std::vector<std::unique_ptr<ClassDecl>> classes);

    Program(const Program&) = delete;
    Program& operator=(const Program&) = delete;
    Program(Program&&) = default;

    /// Class by name; nullptr if absent.
    const ClassDecl* cls(const std::string& name) const noexcept;

    /// Class by name; throws UsageError if absent.
    const ClassDecl& require(const std::string& name) const;

    /// All classes, in registration order.
    const std::vector<const ClassDecl*>& classes() const noexcept { return order_; }

    /// True if `name` equals `ancestor` or transitively extends/implements it.
    bool isSubtypeOf(const std::string& name, const std::string& ancestor) const;

    /// Is `from` assignable to a variable of type `to`?
    /// Primitives: exact kind match. Arrays: invariant. Classes: subtype.
    bool assignable(const Type& to, const Type& from) const;

    /// Concrete (non-interface, non-abstract-only) classes that are `name`
    /// or subtypes of it, in registration order. Precomputed at construction.
    const std::vector<const ClassDecl*>& concreteSubtypes(const std::string& name) const;

    /// True if no other class in the table extends or implements `name`.
    bool isLeaf(const std::string& name) const { return !extended_.count(name); }

    /// Method lookup: walks `cls` then its superclass chain; interfaces carry
    /// only abstract methods, so resolution on a concrete class never lands
    /// on one. Returns nullptr if not found.
    const Method* resolveMethod(const std::string& cls, const std::string& method) const;

    /// Class in the superclass chain of `cls` (inclusive) that declares
    /// `method`; nullptr if none.
    const ClassDecl* methodOwner(const std::string& cls, const std::string& method) const;

    /// Field lookup across the superclass chain (fields live on classes, not
    /// interfaces). Returns nullptr if not found.
    const Field* resolveField(const std::string& cls, const std::string& field) const;

    /// All fields of `cls` in layout order: superclass fields first, then own.
    std::vector<const Field*> allFields(const std::string& cls) const;

    /// Static field lookup on exactly `cls`.
    const StaticField* resolveStatic(const std::string& cls, const std::string& field) const;

    /// Structural well-formedness: supers exist, no inheritance cycles, field
    /// and method types name known classes, interface methods abstract,
    /// abstract methods of supers are implemented in concrete classes.
    /// Throws UsageError on the first problem. Called by ProgramBuilder.
    void validate() const;

    /// Names of the built-in classes every program carries.
    static const char* dim3Class() noexcept { return "dim3"; }
    static const char* cudaConfigClass() noexcept { return "CudaConfig"; }

private:
    void checkTypeKnown(const Type& t, const std::string& where) const;

    std::map<std::string, std::unique_ptr<ClassDecl>> byName_;
    std::vector<const ClassDecl*> order_;
    /// The hierarchy queries the analyses ask for every call they resolve:
    /// class or interface name -> its concrete subtypes, and the names some
    /// other class extends or implements.
    std::unordered_map<std::string, std::vector<const ClassDecl*>> subtypes_;
    std::unordered_set<std::string> extended_;

    /// The facts derived from this Program alone (analysis/facts.h): built
    /// on first use under `mu` and destroyed with the Program. Heap-held so
    /// the Program stays movable.
    friend class analysis::ProgramFacts;
    struct FactsSlot {
        std::mutex mu;
        std::shared_ptr<const analysis::ProgramFacts> facts;
    };
    std::unique_ptr<FactsSlot> facts_ = std::make_unique<FactsSlot>();
};

} // namespace wj
