// The Program-owned translation memo (DESIGN.md, "Translation memo").
//
// jit() records the composed object and its arguments and specializes the
// translation to them (paper, Section 3.3), so a translation is a pure
// function of the Program, the receiver graph, the method, the arguments
// and the TranslateOptions. The memo keeps each successful translation on
// its Program under an exact canonical key of the other four, so a warm
// jit() of an unchanged composition is a lookup instead of an entry
// analysis plus codegen.
//
// The key is the call's GraphSnapshot (interp/snapshot.h), compared byte
// for byte (no hash), then the method name and the TranslateOptions. The
// snapshot holds exact classes, primitive bits, array lengths and sharing;
// its field and class declarations are addresses that live as long as the
// Program, which owns the memo too.
// WJ_THREADS, WJ_CC and WJ_CFLAGS are not in it: the first is run-time
// only, the other two select the compiled module, whose cache key every
// jit() still computes from Translation::sourceHash.
//
// Lifetime: the entries live in a slot of their Program and die with it;
// nothing is keyed by the Program's address. Only successful translations
// are stored: a refused one (coding rules, AnalysisError) is re-derived and
// re-thrown on every call. There is no eviction; an entry is about the size
// of its C text.
#pragma once

#include <memory>
#include <string>

#include "jit/codegen.h"

namespace wj {

class TranslationMemo {
public:
    /// The translation of `snap`'s receiver.method(args) under `opts`: the
    /// one stored on its Program under the same key, else a fresh
    /// translate() that is stored if it succeeds. `*hit` (when given) says
    /// which. Counts jit.translate.memo.hits / .misses. Safe to call from
    /// any thread; racing misses on one key translate twice and share the
    /// first stored.
    static std::shared_ptr<const Translation> lookup(const GraphSnapshot& snap,
                                                     const std::string& method,
                                                     const TranslateOptions& opts,
                                                     bool* hit = nullptr);
};

} // namespace wj
