#include "jit/memo.h"

#include <cstring>
#include <mutex>
#include <unordered_map>

#include "support/diagnostics.h"
#include "trace/metrics.h"

namespace wj {

namespace {

/// Appends the canonical bytes of values to one key (see memo.h).
class KeyWriter {
public:
    std::string out;

    template <typename T>
    void raw(T x) {
        char b[sizeof x];
        std::memcpy(b, &x, sizeof x);
        out.append(b, sizeof x);
    }

    void str(const std::string& s) {
        raw<uint64_t>(s.size());
        out += s;
    }

    void value(const Value& v) {
        if (v.isBool()) {
            out += 'z';
            out += v.asBool() ? '\1' : '\0';
        } else if (v.isI32()) {
            out += 'i';
            raw(v.asI32());
        } else if (v.isI64()) {
            out += 'j';
            raw(v.asI64());
        } else if (v.isF32()) {
            out += 'f';
            raw(v.asF32());  // the bits: -0.0 and every NaN payload stay distinct
        } else if (v.isF64()) {
            out += 'd';
            raw(v.asF64());
        } else if (v.isObj()) {
            const ObjRef& o = v.asObj();
            if (!o) {
                out += 'o';
            } else if (!seen(o.get())) {
                out += 'O';
                str(o->cls ? o->cls->name : std::string());
                raw<uint64_t>(o->fields.size());
                for (const auto& [name, fv] : o->fields) {
                    str(name);
                    value(fv);
                }
            }
        } else if (v.isArr()) {
            const ArrRef& a = v.asArr();
            if (!a) {
                out += 'a';
            } else if (!seen(a.get())) {
                out += 'A';
                str(a->elem.str());
                raw<uint64_t>(a->data.size());
                if (!a->elem.isPrim()) {
                    for (const Value& e : a->data) value(e);
                }
            }
        } else {
            out += 'v';
        }
    }

private:
    /// Numbers `p` on first sight and returns false; on a later sight
    /// writes a reference to its number instead and returns true.
    bool seen(const void* p) {
        const auto [it, fresh] = ids_.try_emplace(p, static_cast<uint32_t>(ids_.size()));
        if (fresh) return false;
        out += 'R';
        raw(it->second);
        return true;
    }

    std::unordered_map<const void*, uint32_t> ids_;
};

/// The canonical key of translating `receiver.method(args)` under `opts`.
std::string keyOf(const Value& receiver, const std::string& method,
                  const std::vector<Value>& args, const TranslateOptions& opts) {
    KeyWriter w;
    w.value(receiver);
    w.str(method);
    w.raw<uint64_t>(args.size());
    for (const Value& a : args) w.value(a);
    w.raw(opts.bounds);
    w.raw(opts.parallel);
    w.raw(opts.simd);
    w.raw(opts.soa);
    return std::move(w.out);
}

} // namespace

std::shared_ptr<const Translation> TranslationMemo::lookup(const Program& prog,
                                                           const Value& receiver,
                                                           const std::string& method,
                                                           const std::vector<Value>& args,
                                                           const TranslateOptions& opts,
                                                           bool* hit) {
    static auto& hits = trace::Metrics::instance().counter("jit.translate.memo.hits");
    static auto& misses = trace::Metrics::instance().counter("jit.translate.memo.misses");
    if (!prog.memo_) throw UsageError("translation of a moved-from Program");
    Program::MemoSlot& slot = *prog.memo_;
    std::string key = keyOf(receiver, method, args, opts);
    {
        std::lock_guard<std::mutex> lock(slot.mu);
        if (auto it = slot.entries.find(key); it != slot.entries.end()) {
            hits.inc();
            if (hit) *hit = true;
            return it->second;
        }
    }
    misses.inc();
    if (hit) *hit = false;
    auto tr = std::make_shared<const Translation>(translate(prog, receiver, method, args, opts));
    std::lock_guard<std::mutex> lock(slot.mu);
    return slot.entries.try_emplace(std::move(key), std::move(tr)).first->second;
}

} // namespace wj
