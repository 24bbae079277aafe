#include "jit/shape.h"

#include "support/diagnostics.h"

namespace wj {

Prim Shape::prim() const {
    if (!isPrim()) throw UsageError("Shape::prim() on " + key_);
    return prim_;
}

const Type& Shape::arrayElem() const {
    if (!isArray()) throw UsageError("Shape::arrayElem() on " + key_);
    return *elem_;
}

const ClassDecl& Shape::cls() const {
    if (!isObject()) throw UsageError("Shape::cls() on " + key_);
    return *cls_;
}

const std::vector<std::pair<std::string, const Shape*>>& Shape::fields() const {
    if (!isObject()) throw UsageError("Shape::fields() on " + key_);
    return fields_;
}

const Shape* Shape::field(const std::string& name) const {
    for (const auto& [n, s] : fields()) {
        if (n == name) return s;
    }
    throw UsageError("shape " + key_ + " has no field " + name);
}

namespace {

const char* primKey(Prim p) {
    switch (p) {
    case Prim::Bool: return "b";
    case Prim::I32: return "i";
    case Prim::I64: return "l";
    case Prim::F32: return "f";
    case Prim::F64: return "d";
    }
    return "?";
}

} // namespace

const Shape* ShapeTable::intern(std::unique_ptr<Shape> s) {
    auto it = byKey_.find(s->key_);
    if (it != byKey_.end()) return it->second.get();
    const std::string key = s->key_;
    return byKey_.emplace(key, std::move(s)).first->second.get();
}

const Shape* ShapeTable::ofPrim(Prim p) {
    auto s = std::unique_ptr<Shape>(new Shape());
    s->kind_ = Shape::Kind::Prim;
    s->prim_ = p;
    s->key_ = primKey(p);
    return intern(std::move(s));
}

const Shape* ShapeTable::ofArray(const Type& elem) {
    auto s = std::unique_ptr<Shape>(new Shape());
    s->kind_ = Shape::Kind::Array;
    s->elem_ = std::make_unique<Type>(elem);
    s->key_ = "[" + elem.str();
    return intern(std::move(s));
}

const Shape* ShapeTable::ofObject(const ClassDecl& cls,
                                  std::vector<std::pair<std::string, const Shape*>> fields) {
    auto s = std::unique_ptr<Shape>(new Shape());
    s->kind_ = Shape::Kind::Object;
    s->cls_ = &cls;
    s->fields_ = std::move(fields);
    std::string key = cls.name + "{";
    for (size_t i = 0; i < s->fields_.size(); ++i) {
        if (i) key += ",";
        key += s->fields_[i].first + ":" + s->fields_[i].second->key();
    }
    key += "}";
    s->key_ = std::move(key);
    return intern(std::move(s));
}

const Shape* ShapeTable::ofType(const Type& t) {
    switch (t.kind()) {
    case Type::Kind::Prim:
        return ofPrim(t.prim());
    case Type::Kind::Array:
        return ofArray(t.elem());
    case Type::Kind::Class: {
        const ClassDecl& c = prog_->require(t.className());
        // Strict-final precondition: every field type determines its shape.
        std::vector<std::pair<std::string, const Shape*>> fields;
        for (const Field* f : prog_->allFields(c.name)) {
            fields.emplace_back(f->name, ofType(f->type));
        }
        return ofObject(c, std::move(fields));
    }
    case Type::Kind::Void:
        break;
    }
    throw UsageError("no shape for type " + t.str());
}

const Shape* ShapeTable::ofNode(const GraphSnapshot& g, uint32_t id) {
    using Kind = GraphSnapshot::Kind;
    const GraphSnapshot::Node& n = g[id];
    switch (n.kind) {
    case Kind::Prim: return ofPrim(n.prim());
    case Kind::Array: return ofArray(g.elemType(n));
    case Kind::NullArr:
        throw UsageError("cannot derive the shape of a null array without a declared type");
    case Kind::NullObj:
        throw UsageError("null object in the composed application graph: the translator "
                         "cannot determine its actual type (initialize every object field "
                         "before calling jit)");
    case Kind::Object: {
        std::vector<std::pair<std::string, const Shape*>> fields;
        for (uint32_t k = 0; k < n.count; ++k) {
            const Field& f = *g[n.first + k].field;
            const GraphSnapshot::Node& v = g[g.field(id, k)];
            if (f.type.isArray() && v.kind == Kind::Array && g.elemType(v) != f.type.elem()) {
                throw UsageError("array field holds " + g.elemType(v).str() +
                                 "[] but is declared " + f.type.str());
            }
            // Array fields may legally be null at jit time (allocated later
            // by the translated code); their shape is the declared type.
            fields.emplace_back(f.name, f.type.isArray() ? ofArray(f.type.elem())
                                                         : ofNode(g, g.field(id, k)));
        }
        return ofObject(*n.cls, std::move(fields));
    }
    default:
        throw UsageError("cannot derive a shape from a void value");
    }
}

} // namespace wj
