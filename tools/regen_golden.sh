#!/bin/sh
# Regenerate the golden-output digests in tests/golden/ from a build
# tree (default: build), then check every golden test against them,
# the variants that must reproduce a pinned output included.
#
#   tools/regen_golden.sh [BUILD_DIR]
#
# A change that runs this lists every digest it changed in CHANGES.md,
# with the reason (`git diff --stat tests/golden` shows which).
set -eu
build=${1:-build}
root=$(cd "$(dirname "$0")/.." && pwd)

cmake --build "$build" -j"$(nproc)" --target flexifleet flexifault \
    flexilint bench_fault_coverage bench_table5_yield \
    bench_fig6_error_maps bench_fig7_current_maps
FLEXI_GOLDEN_REGEN=1 ctest --test-dir "$build" -L golden-pin -j4 \
    --output-on-failure
ctest --test-dir "$build" -L golden -j4 --output-on-failure
git -C "$root" status --short -- tests/golden
