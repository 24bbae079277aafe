// The receiver snapshot: what jit() records of `receiver.method(args)`.
//
// The translator specializes to the composed object and its arguments
// (paper, Section 3.3) and copies their arrays across the boundary
// (Section 3.1). A GraphSnapshot records both once per jit(), under one
// identity rule, for every reader: the translation memo's key, the shape
// table, the prover, loop fusion, codegen's entry and invoke's marshal.
//
// One flat vector of fixed-size records, compared byte for byte. Records
// 0..argCount() are the roots (the receiver, then each argument). A value
// slot is a primitive (kind and exact bits), a null, or a Ref to a node: an
// Object (exact class, then one slot per field in Program::allFields order)
// or an Array (element type and length). Array elements are left out: the
// prover and codegen read none (element shapes follow from the strict-final
// element type, and invoke refuses arrays of objects). An object or array
// gets its node on first sight and is a Ref to it after, so sharing and
// cycles are part of the record. Arrays are numbered in order of first
// sight; the number is both the array's wj_array* slot in the generated
// entry and its place in invoke's marshal.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "interp/value.h"
#include "ir/program.h"

namespace wj {

class GraphSnapshot {
public:
    enum class Kind : uint8_t { Void, NullObj, NullArr, Prim, Ref, Object, Array };

    /// One record. No padding, so equal graphs give equal bytes.
    struct Node {
        Kind kind = Kind::Void;
        uint8_t dims = 0;         ///< Array: array levels of the element type
        uint8_t primCode = 0;     ///< Prim: its Prim; Array: the element's base Prim
        uint8_t unused = 0;
        int32_t slot = -1;        ///< Array: its number (wj_array* slot)
        int64_t bits = 0;         ///< Prim: Value::bits(); Ref: the node; Array: length
        uint32_t first = 0;       ///< Object: its first field slot
        uint32_t count = 0;       ///< Object: its field count
        const Field* field = nullptr;   ///< a field slot's declaration
        const ClassDecl* cls = nullptr; ///< Object: exact class; Array: element base class

        Prim prim() const noexcept { return static_cast<Prim>(primCode); }
        /// A bool/int/long, which the prover reads exactly.
        bool exactPrim() const noexcept {
            return kind == Kind::Prim && prim() != Prim::F32 && prim() != Prim::F64;
        }
    };

    GraphSnapshot(const Program& prog, const Value& receiver, const std::vector<Value>& args);

    const Program& program() const noexcept { return *prog_; }
    size_t size() const noexcept { return nodes_.size(); }
    size_t argCount() const noexcept { return args_; }
    const Node& operator[](uint32_t id) const { return nodes_[id]; }

    /// The record slot `slot` holds: the node a Ref names, else the slot.
    uint32_t value(uint32_t slot) const {
        return nodes_[slot].kind == Kind::Ref ? static_cast<uint32_t>(nodes_[slot].bits) : slot;
    }
    /// Root `i`'s value: 0 is the receiver, i > 0 argument i - 1.
    uint32_t root(size_t i) const { return value(static_cast<uint32_t>(i)); }
    /// The value of field `k` (allFields order) of Object node `obj`.
    uint32_t field(uint32_t obj, size_t k) const {
        return value(nodes_[obj].first + static_cast<uint32_t>(k));
    }

    /// The element type of Array node `arr`.
    Type elemType(const Node& arr) const;

    /// "this.grid.cur", "arg1.data": the field path to a root or field
    /// slot, or for a node the path it was first seen at.
    std::string pathOf(uint32_t id) const;

    /// The exact bytes: the memo key's graph part.
    std::string_view bytes() const {
        return {reinterpret_cast<const char*>(nodes_.data()), nodes_.size() * sizeof(Node)};
    }

    /// What the prover reads exactly of the arguments, as invokeWith's
    /// override tuple: per argument its kind, then a bool/int/long's value,
    /// or an array's node (its sharing with the receiver and the other
    /// arguments) and length.
    std::vector<int64_t> exactArgs() const;

    /// The arrays of `receiver` and `args` at the recorded places, by
    /// number. Throws UsageError naming the fields when one is missing or
    /// of another length, or when they share arrays in another pattern.
    std::vector<ArrRef> liveArrays(const Value& receiver, const std::vector<Value>& args) const;

private:
    class Builder;

    const Program* prog_;
    size_t args_;
    std::vector<Node> nodes_;
    /// Per record: the node a field slot belongs to; for a node, the slot
    /// it was first seen in. Roots point at themselves.
    std::vector<uint32_t> up_;
    size_t arrays_ = 0;  ///< Array nodes (their `slot`s number them)
};

} // namespace wj
