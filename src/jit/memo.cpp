#include "jit/memo.h"

#include <mutex>

#include "support/diagnostics.h"
#include "trace/metrics.h"

namespace wj {

namespace {

template <typename T>
void append(std::string& key, T x) {
    key.append(reinterpret_cast<const char*>(&x), sizeof x);
}

} // namespace

std::shared_ptr<const Translation> TranslationMemo::lookup(const GraphSnapshot& snap,
                                                           const std::string& method,
                                                           const TranslateOptions& opts,
                                                           bool* hit) {
    static auto& hits = trace::Metrics::instance().counter("jit.translate.memo.hits");
    static auto& misses = trace::Metrics::instance().counter("jit.translate.memo.misses");
    const Program& prog = snap.program();
    if (!prog.memo_) throw UsageError("translation of a moved-from Program");
    Program::MemoSlot& slot = *prog.memo_;
    std::string key(snap.bytes());
    append<uint64_t>(key, snap.argCount());
    append<uint64_t>(key, method.size());
    key += method;
    append(key, opts.bounds);
    append(key, opts.parallel);
    append(key, opts.simd);
    append(key, opts.soa);
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
    auto tr = std::make_shared<const Translation>(translate(snap, method, opts));
    std::lock_guard<std::mutex> lock(slot.mu);
    return slot.entries.try_emplace(std::move(key), std::move(tr)).first->second;
}

} // namespace wj
