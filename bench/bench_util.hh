/**
 * @file
 * Shared helpers for the per-table / per-figure benchmark binaries.
 *
 * Every binary in bench/ regenerates one table or figure from the
 * paper and prints (a) our measured/modeled values and (b) the
 * paper's published values next to them, so EXPERIMENTS.md can be
 * audited directly from `for b in build/bench/bench_*; do $b; done`.
 */

#ifndef FLEXI_BENCH_BENCH_UTIL_HH
#define FLEXI_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>

#include "common/stats.hh"

namespace flexi
{

inline void
benchHeader(const std::string &id, const std::string &title)
{
    std::printf("\n==================================================="
                "=========================\n");
    std::printf("%s — %s\n", id.c_str(), title.c_str());
    std::printf("====================================================="
                "=======================\n");
}

inline std::string
pct(double frac, int digits = 0)
{
    return fmtDouble(frac * 100.0, digits) + "%";
}

} // namespace flexi

#endif // FLEXI_BENCH_BENCH_UTIL_HH
