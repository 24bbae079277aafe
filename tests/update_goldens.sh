#!/bin/sh
# Refreshes the checked-in codegen snapshots in tests/golden/ after an
# INTENTIONAL translator change. Builds test_codegen_golden, reruns it in
# update mode (WJ_UPDATE_GOLDEN=1), then shows the resulting diff so it can
# be reviewed like any other source change. Every snapshot test_codegen_golden
# pins is refreshed: the scalar, WJ_BOUNDS, WJ_PARALLEL (including the fused
# CG solver, cg_solver_parallel.c.golden), WJ_SIMD (including the peeled MPI
# sweep, diffusion3d_mpi_simd.c.golden) and WJ_SOA variants.
#
# Usage: tests/update_goldens.sh [build-dir]   (default: ./build)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build"}

if [ ! -f "$build/CMakeCache.txt" ]; then
    echo "error: $build is not a configured build tree (pass the build dir)" >&2
    exit 1
fi

cmake --build "$build" --target test_codegen_golden
WJ_UPDATE_GOLDEN=1 "$build/tests/test_codegen_golden"

echo
echo "== golden diff (review before committing) =="
git -C "$repo" --no-pager diff --stat -- tests/golden || true
