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
// The key is a depth-first serialization, compared byte for byte (no hash):
//   * the receiver graph: each object's exact class and every field by
//     name. A primitive is its kind plus its exact bits (codegen bakes
//     field values into the entry; the prover reads ints exactly). An array
//     is its null-ness, element type and length; arrays of class or array
//     elements recurse into their elements. Primitive array contents are
//     left out: neither the prover nor codegen reads them. Objects and
//     arrays are numbered by identity on first sight and referenced by
//     number after it, so aliasing and cycles are part of the key;
//   * the method name, then the arguments, numbered on from the receiver;
//   * the TranslateOptions.
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
#include <vector>

#include "jit/codegen.h"

namespace wj {

class TranslationMemo {
public:
    /// The translation of `receiver.method(args)` under `opts`: the one
    /// stored on `prog` under the same key, else a fresh translate() that
    /// is stored if it succeeds. `*hit` (when given) says which. Counts
    /// jit.translate.memo.hits / .misses. Safe to call from any thread;
    /// racing misses on one key translate twice and share the first stored.
    static std::shared_ptr<const Translation> lookup(const Program& prog, const Value& receiver,
                                                     const std::string& method,
                                                     const std::vector<Value>& args,
                                                     const TranslateOptions& opts,
                                                     bool* hit = nullptr);
};

} // namespace wj
