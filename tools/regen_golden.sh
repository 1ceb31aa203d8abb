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
    flexilint bench_fault_campaign bench_fault_coverage \
    bench_table5_yield bench_fig6_error_maps bench_fig7_current_maps \
    bench_ablation_cost bench_ablation_memory bench_ablation_voltage \
    bench_fig8_perf_energy bench_fig9_extensions bench_fig10_code_size \
    bench_fig11_dse_kernels bench_fig12_area_codesize \
    bench_fig13_energy_bus bench_table1_applications \
    bench_table2_3_breakdown bench_table4_comparison \
    bench_table6_kernels bench_table7_prior_work quickstart \
    smart_bandage wafer_explorer dse_explorer edc_checksum
FLEXI_GOLDEN_REGEN=1 ctest --test-dir "$build" -L golden-pin -j4 \
    --output-on-failure
ctest --test-dir "$build" -L golden -j4 --output-on-failure
git -C "$root" status --short -- tests/golden
