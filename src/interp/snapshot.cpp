#include "interp/snapshot.h"

#include <unordered_map>

#include "support/diagnostics.h"

namespace wj {

static_assert(std::has_unique_object_representations_v<GraphSnapshot::Node>,
              "a Node's bytes are the memo key: it must have no padding");

class GraphSnapshot::Builder {
public:
    explicit Builder(GraphSnapshot& g) : g_(g) {}

    /// Records `v` into `slot`, which already carries its field (if any).
    void fill(uint32_t slot, const Value& v) {
        Node s;
        s.field = g_.nodes_[slot].field;
        if (const std::optional<Prim> p = v.prim()) {
            s.kind = Kind::Prim;
            s.primCode = static_cast<uint8_t>(*p);
            s.bits = v.bits();
        } else if (v.isObj()) {
            s.kind = v.asObj() ? Kind::Ref : Kind::NullObj;
            if (v.asObj()) s.bits = object(*v.asObj(), slot);
        } else if (v.isArr()) {
            s.kind = v.asArr() ? Kind::Ref : Kind::NullArr;
            if (v.asArr()) s.bits = array(*v.asArr(), slot);
        }
        g_.nodes_[slot] = s;  // after the recursion, which may grow nodes_
    }

private:
    /// Appends node `n`, first seen in `from`, and `count` empty slots.
    uint32_t push(Node n, uint32_t from, size_t count) {
        const auto id = static_cast<uint32_t>(g_.nodes_.size());
        n.first = id + 1;
        n.count = static_cast<uint32_t>(count);
        g_.nodes_.push_back(n);
        g_.up_.push_back(from);
        g_.nodes_.resize(g_.nodes_.size() + count);
        g_.up_.resize(g_.up_.size() + count, id);
        return id;
    }

    uint32_t object(const Obj& o, uint32_t from) {
        const auto [it, fresh] = ids_.try_emplace(&o, static_cast<uint32_t>(g_.nodes_.size()));
        if (!fresh) return it->second;
        const std::vector<const Field*> fields = g_.prog_->allFields(o.cls->name);
        Node n;
        n.kind = Kind::Object;
        n.cls = o.cls;
        const uint32_t id = push(n, from, fields.size());
        for (size_t k = 0; k < fields.size(); ++k) {
            const uint32_t slot = id + 1 + static_cast<uint32_t>(k);
            g_.nodes_[slot].field = fields[k];
            fill(slot, o.fields.at(fields[k]->name));
        }
        return id;
    }

    uint32_t array(const Arr& a, uint32_t from) {
        const auto [it, fresh] = ids_.try_emplace(&a, static_cast<uint32_t>(g_.nodes_.size()));
        if (!fresh) return it->second;
        Node n;
        n.kind = Kind::Array;
        n.bits = static_cast<int64_t>(a.data.size());
        n.slot = static_cast<int32_t>(g_.arrays_++);
        const Type* base = &a.elem;
        for (; base->isArray(); base = &base->elem()) ++n.dims;
        if (base->isPrim()) {
            n.primCode = static_cast<uint8_t>(base->prim());
        } else {
            n.cls = g_.prog_->cls(base->className());
        }
        return push(n, from, 0);
    }

    GraphSnapshot& g_;
    std::unordered_map<const void*, uint32_t> ids_;
};

GraphSnapshot::GraphSnapshot(const Program& prog, const Value& receiver,
                             const std::vector<Value>& args)
    : prog_(&prog), args_(args.size()), nodes_(1 + args.size()) {
    for (uint32_t i = 0; i <= args_; ++i) up_.push_back(i);
    Builder b(*this);
    b.fill(0, receiver);
    for (size_t i = 0; i < args.size(); ++i) b.fill(static_cast<uint32_t>(i + 1), args[i]);
}

Type GraphSnapshot::elemType(const Node& arr) const {
    Type t = arr.cls ? Type::cls(arr.cls->name) : Type::prim(arr.prim());
    for (int d = 0; d < arr.dims; ++d) t = Type::array(t);
    return t;
}

std::string GraphSnapshot::pathOf(uint32_t id) const {
    if (id == 0) return "this";
    if (id <= args_) return "arg" + std::to_string(id - 1);
    const Node& n = nodes_[id];
    if (n.kind == Kind::Object || n.kind == Kind::Array) return pathOf(up_[id]);
    return pathOf(up_[id]) + "." + n.field->name;
}

std::vector<int64_t> GraphSnapshot::exactArgs() const {
    std::vector<int64_t> out;
    for (size_t i = 1; i <= args_; ++i) {
        const Node& n = nodes_[root(i)];
        out.push_back(static_cast<int64_t>(n.kind) << 8 | n.primCode);
        if (n.exactPrim() || n.kind == Kind::Array) {
            out.push_back(root(i));  // an array's node: its sharing
            out.push_back(n.bits);   // a value or a length
        }
    }
    return out;
}

namespace {

[[noreturn]] void refuse(const std::string& what) {
    throw UsageError("invoke: " + what + "; jit() again");
}

/// liveArrays' walk: the recorded slots beside the live values. It follows
/// every field path, as codegen does, so every occurrence is checked.
struct LiveWalk {
    using Kind = GraphSnapshot::Kind;
    const GraphSnapshot& g;
    std::vector<ArrRef> live;                         ///< by array number
    std::unordered_map<const Arr*, uint32_t> foundAt;  ///< the first slot holding it

    void visit(uint32_t slot, const Value& v) {
        const GraphSnapshot::Node& s = g[slot];
        const ArrRef* a = v.isArr() && v.asArr() ? &v.asArr() : nullptr;
        if (s.kind == Kind::NullArr && a) {
            refuse(g.pathOf(slot) + " holds an array, but was null at jit() time");
        }
        if (s.kind != Kind::Ref) return;
        const uint32_t id = g.value(slot);
        const GraphSnapshot::Node& n = g[id];
        if (n.kind == Kind::Object) {
            const Obj* o = v.isObj() ? v.asObj().get() : nullptr;
            if (!o || o->cls != n.cls) {
                refuse(g.pathOf(slot) + " is no longer the " + n.cls->name + " object it was");
            }
            for (uint32_t k = 0; k < n.count; ++k) {
                visit(n.first + k, o->fields.at(g[n.first + k].field->name));
            }
            return;
        }
        if (!a || static_cast<int64_t>((*a)->data.size()) != n.bits) {
            refuse(g.pathOf(slot) +
                   (a ? " has length " + std::to_string((*a)->data.size()) : " is null") +
                   ", but the code was specialized to length " + std::to_string(n.bits) +
                   " at jit() time");
        }
        const auto [it, fresh] = foundAt.try_emplace(a->get(), slot);
        if (g[g.value(it->second)].slot != n.slot) {
            refuse(g.pathOf(it->second) + " and " + g.pathOf(slot) +
                   " held two arrays at jit() time but now hold one");
        }
        if (fresh && live[n.slot]) {
            refuse(g.pathOf(id) + " and " + g.pathOf(slot) +
                   " held one array at jit() time but now hold two");
        }
        live[n.slot] = *a;
    }
};

} // namespace

std::vector<ArrRef> GraphSnapshot::liveArrays(const Value& receiver,
                                              const std::vector<Value>& args) const {
    LiveWalk w{*this, std::vector<ArrRef>(arrays_), {}};
    w.visit(0, receiver);
    for (size_t i = 0; i < args.size() && i < args_; ++i) {
        w.visit(static_cast<uint32_t>(i + 1), args[i]);
    }
    return std::move(w.live);
}

} // namespace wj
