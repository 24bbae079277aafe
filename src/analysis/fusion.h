// Producer/consumer loop fusion across devirtualized calls.
//
// Under parallel translation, two adjacent counted loops of the entry
// method — each written inline or as the single loop of a callee the
// receiver graph resolves to exactly one concrete method — fuse into one
// loop when the second reads an array the first writes, both run over the
// same trip range, and the fused body still proves Parallel or
// ParallelReduce. Then no iteration of the fused body conflicts with
// another, so running A_i; B_i for every i equals running all of A and then
// all of B, and the pair costs one pool dispatch instead of two.
//
// Refused: a CondParallel fused verdict (its serial fallback would be the
// fused loop, not the unfused program), a Serial one, unequal trip ranges,
// a statement between the loops that is not a pure declaration or reads
// the first loop's output, a scalar that one loop updates and the other
// uses, and — under WJ_SIMD=1 — a fused loop that would run scalar. See
// DESIGN.md.
#pragma once

#include <string>
#include <vector>

#include "analysis/analysis.h"

namespace wj::analysis {

/// analyzeEntry for a parallel translation with loop fusion. Fused groups
/// land in the result's fusedEntry / fusedLoops / fusionReport. Analysis
/// runs once when every planned group proves; a refusal re-runs it without
/// the refused group.
Result analyzeEntryFused(const GraphSnapshot& snap, const std::string& method, bool simd,
                         bool soa = false);

} // namespace wj::analysis
