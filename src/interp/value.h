// Runtime values for the WJ interpreter ("the JVM").
//
// Objects are heap-allocated with a field map and arrays are heap vectors of
// boxed values — deliberately the expensive representation. The paper's
// Figure 3/17/18 "Java" bars exist because unoptimized object-oriented
// execution pays for dispatch, boxing, and indirection; this representation
// reproduces that cost profile. The JIT path never touches these types
// except to snapshot the composed application object at translation time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ir/decl.h"
#include "support/diagnostics.h"

namespace wj {

struct Obj;
struct Arr;
using ObjRef = std::shared_ptr<Obj>;
using ArrRef = std::shared_ptr<Arr>;

/// A runtime value: void (monostate), a primitive, or a reference.
class Value {
public:
    Value() = default;
    static Value ofBool(bool b) { return Value(Rep(b)); }
    static Value ofI32(int32_t v) { return Value(Rep(v)); }
    static Value ofI64(int64_t v) { return Value(Rep(v)); }
    static Value ofF32(float v) { return Value(Rep(v)); }
    static Value ofF64(double v) { return Value(Rep(v)); }
    static Value ofObj(ObjRef o) { return Value(Rep(std::move(o))); }
    static Value ofArr(ArrRef a) { return Value(Rep(std::move(a))); }

    bool isVoid() const noexcept { return std::holds_alternative<std::monostate>(v_); }
    bool isBool() const noexcept { return std::holds_alternative<bool>(v_); }
    bool isI32() const noexcept { return std::holds_alternative<int32_t>(v_); }
    bool isI64() const noexcept { return std::holds_alternative<int64_t>(v_); }
    bool isF32() const noexcept { return std::holds_alternative<float>(v_); }
    bool isF64() const noexcept { return std::holds_alternative<double>(v_); }
    bool isObj() const noexcept { return std::holds_alternative<ObjRef>(v_); }
    bool isArr() const noexcept { return std::holds_alternative<ArrRef>(v_); }

    bool asBool() const { return get<bool>("boolean"); }
    int32_t asI32() const { return get<int32_t>("int"); }
    int64_t asI64() const { return get<int64_t>("long"); }
    float asF32() const { return get<float>("float"); }
    double asF64() const { return get<double>("double"); }
    const ObjRef& asObj() const { return get<ObjRef>("object"); }
    const ArrRef& asArr() const { return get<ArrRef>("array"); }

    /// Default (zero / null) value for a declared type.
    static Value defaultOf(const Type& t);

    /// The primitive kind; nullopt for void and references.
    std::optional<Prim> prim() const noexcept;
    /// A primitive's exact bits as an int64 slot carries them across the
    /// jit boundary: bool 0/1, ints sign-extended, floats bit-cast (every
    /// NaN payload and the sign of zero kept). Throws on a non-primitive.
    int64_t bits() const;
    /// The primitive of kind `p` whose bits() are `bits`.
    static Value ofBits(Prim p, int64_t bits);

    std::string str() const;

private:
    using Rep = std::variant<std::monostate, bool, int32_t, int64_t, float, double, ObjRef, ArrRef>;
    explicit Value(Rep r) : v_(std::move(r)) {}

    template <typename T>
    const T& get(const char* what) const {
        const T* p = std::get_if<T>(&v_);
        if (!p) throw ExecError(std::string("value is not a ") + what + ": " + str());
        return *p;
    }

    Rep v_;
};

/// A heap object: exact class plus one boxed value per field (inherited
/// fields included), keyed by name.
struct Obj {
    const ClassDecl* cls = nullptr;
    std::map<std::string, Value> fields;
};

/// A heap array of boxed values.
struct Arr {
    Type elem = Type::i32();
    std::vector<Value> data;
};

} // namespace wj
