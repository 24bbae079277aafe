#!/bin/sh
# Refreshes every checked-in snapshot family after an INTENTIONAL change,
# then shows the resulting diff so it can be reviewed like any other source
# change. The three families:
#
#   * codegen goldens, tests/golden/*.c.golden (test_codegen_golden): the
#     scalar, WJ_BOUNDS, WJ_PARALLEL (including the fused CG solver),
#     WJ_SIMD (including the peeled MPI sweep), WJ_PARALLEL with WJ_SIMD
#     (the CG solver's simd chunk loops) and WJ_SOA variants;
#   * lint goldens, tests/golden/lint/ (tools/lint_examples.sh): the full
#     `wjc lint` and `wjc lint --soa` output of every examples/*.wj;
#   * facts goldens, tests/golden/facts/ (test_facts, FactsGolden.*): the
#     call graph, effect summaries, layout verdicts, coding-rule violations,
#     lint findings and entry analysis of each library composition.
#
# Each family is rewritten in update mode (WJ_UPDATE_GOLDEN=1).
#
# Usage: tests/update_goldens.sh [build-dir]   (default: ./build)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}

if [ ! -f "$build/CMakeCache.txt" ]; then
    echo "error: $build is not a configured build tree (pass the build dir)" >&2
    exit 1
fi

cmake --build "$build" --target test_codegen_golden test_facts wjc
WJ_UPDATE_GOLDEN=1 "$build/tests/test_codegen_golden"
WJ_UPDATE_GOLDEN=1 "$build/tests/test_facts" --gtest_filter='FactsGolden.*'
WJ_UPDATE_GOLDEN=1 sh "$repo/tools/lint_examples.sh" "$build/tools/wjc" \
    "$repo/examples" "$repo/tests/golden/lint" > /dev/null

echo
echo "== golden diff (review before committing) =="
git -C "$repo" --no-pager diff --stat -- tests/golden || true
