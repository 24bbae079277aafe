#include "interp/value.h"

#include <bit>

#include "support/strings.h"

namespace wj {

Value Value::defaultOf(const Type& t) {
    switch (t.kind()) {
    case Type::Kind::Void:
        return Value();
    case Type::Kind::Prim:
        switch (t.prim()) {
        case Prim::Bool: return ofBool(false);
        case Prim::I32: return ofI32(0);
        case Prim::I64: return ofI64(0);
        case Prim::F32: return ofF32(0.0f);
        case Prim::F64: return ofF64(0.0);
        }
        return Value();
    case Type::Kind::Array:
        return ofArr(nullptr);  // Java null
    case Type::Kind::Class:
        return ofObj(nullptr);  // Java null
    }
    return Value();
}

std::optional<Prim> Value::prim() const noexcept {
    if (isBool()) return Prim::Bool;
    if (isI32()) return Prim::I32;
    if (isI64()) return Prim::I64;
    if (isF32()) return Prim::F32;
    if (isF64()) return Prim::F64;
    return std::nullopt;
}

int64_t Value::bits() const {
    if (isF32()) return std::bit_cast<uint32_t>(asF32());
    if (isF64()) return std::bit_cast<int64_t>(asF64());
    if (isBool()) return asBool() ? 1 : 0;
    return isI32() ? asI32() : asI64();
}

Value Value::ofBits(Prim p, int64_t bits) {
    switch (p) {
    case Prim::Bool: return ofBool(bits != 0);
    case Prim::I32: return ofI32(static_cast<int32_t>(bits));
    case Prim::I64: return ofI64(bits);
    case Prim::F32: return ofF32(std::bit_cast<float>(static_cast<uint32_t>(bits)));
    case Prim::F64: return ofF64(std::bit_cast<double>(bits));
    }
    return Value();
}

std::string Value::str() const {
    if (isVoid()) return "void";
    if (isBool()) return asBool() ? "true" : "false";
    if (isI32()) return std::to_string(asI32());
    if (isI64()) return std::to_string(asI64()) + "L";
    if (isF32()) return format("%gf", static_cast<double>(asF32()));
    if (isF64()) return format("%g", asF64());
    if (isObj()) {
        const ObjRef& o = asObj();
        return o ? o->cls->name + "@obj" : "null";
    }
    const ArrRef& a = asArr();
    return a ? a->elem.str() + "[" + std::to_string(a->data.size()) + "]" : "null";
}

} // namespace wj
