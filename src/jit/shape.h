// Shapes: the exact-type model behind devirtualization and object inlining.
//
// The paper's translator "statically determine[s] the actual type of the
// target object at every object reference" (Section 3.3). A Shape is that
// determination: for a primitive it is the kind; for an array, the (strict-
// final) element type; for an object, the EXACT concrete class plus the
// shape of every field, recursively.
//
// The coding rules make shapes computable everywhere:
//   * strict-final types have a unique shape derivable from the type alone
//     (leaf class + strict-final fields, recursively);
//   * non-strict-final positions (method parameters, fields) get their
//     shape from the actual argument objects given to jit() — legal because
//     semi-immutability freezes the field graph after construction;
//   * `new C(args)` derives its shape by symbolically executing C's
//     constructor, which the rules force to be straight-line code.
//
// Shapes are interned in a ShapeTable; pointer equality == shape equality.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "interp/snapshot.h"
#include "ir/program.h"

namespace wj {

class ShapeTable;

class Shape {
public:
    enum class Kind { Prim, Array, Object };

    Kind kind() const noexcept { return kind_; }
    bool isPrim() const noexcept { return kind_ == Kind::Prim; }
    bool isArray() const noexcept { return kind_ == Kind::Array; }
    bool isObject() const noexcept { return kind_ == Kind::Object; }

    Prim prim() const;                  ///< Kind::Prim
    const Type& arrayElem() const;      ///< Kind::Array — strict-final element type
    const ClassDecl& cls() const;       ///< Kind::Object — the exact class

    /// Object fields in layout order (superclass first). Kind::Object only.
    const std::vector<std::pair<std::string, const Shape*>>& fields() const;

    /// Field shape by name; throws UsageError if absent.
    const Shape* field(const std::string& name) const;

    /// Canonical key, e.g. "Dif3DSolver{a:f32,q:DiffQ{k:f32}}".
    const std::string& key() const noexcept { return key_; }

private:
    friend class ShapeTable;
    Shape() = default;

    Kind kind_ = Kind::Prim;
    Prim prim_ = Prim::I32;
    std::unique_ptr<Type> elem_;
    const ClassDecl* cls_ = nullptr;
    std::vector<std::pair<std::string, const Shape*>> fields_;
    std::string key_;
};

/// Interns shapes; owns them for the lifetime of one translation.
class ShapeTable {
public:
    explicit ShapeTable(const Program& prog) : prog_(&prog) {}

    const Shape* ofPrim(Prim p);
    const Shape* ofArray(const Type& elem);

    /// Unique shape of a strict-final type (throws if not strict-final —
    /// the rule verifier should have rejected such code already).
    const Shape* ofType(const Type& t);

    /// Shape of an object with exact class `cls` and the given field shapes
    /// (layout order). Used by the translator after symbolically executing
    /// a constructor.
    const Shape* ofObject(const ClassDecl& cls,
                          std::vector<std::pair<std::string, const Shape*>> fields);

    /// Shape of node `id` of a jit() snapshot (the composed application
    /// object or an argument). Object fields must be non-null; array fields
    /// may be null (their shape depends only on the declared element type).
    const Shape* ofNode(const GraphSnapshot& g, uint32_t id);

private:
    const Shape* intern(std::unique_ptr<Shape> s);

    const Program* prog_;
    std::map<std::string, std::unique_ptr<Shape>> byKey_;
};

} // namespace wj
