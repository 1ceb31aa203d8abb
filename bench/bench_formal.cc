/**
 * @file
 * google-benchmark harness for the sequential model checker, the
 * layer behind perfbench's formal_lint `mc` span.
 *
 *  - BM_McLint/<core>: one mcLint call with the default catalog
 *    (watchdog, mmu-page, xfree) at --induct 4, closed over one
 *    embedded single-page kernel, as `flexilint --mc-program` and
 *    formal_lint run it: one incremental session for the two frame
 *    properties, then xfree.
 *  - BM_SeqResetCoverage/<core>: the xfree pass alone at depth 4,
 *    over the same kernel: the simulated witness pairs, and the
 *    two-copy unrolling only when some bit survives them.
 *
 * The kernel is the first single-page one of the core's suite (the
 * first FlexiCore8 program). Each row carries the call's solves and
 * conflicts as counters. CI re-emits BENCH_formal.json every run and
 * compares its timings with the committed snapshot through
 * bench_compare.py (loose threshold, see docs/PERF.md).
 */

#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "gbench_main.hh"

#include "analysis/mc/bmc.hh"
#include "analysis/mc/mc_lint.hh"
#include "assembler/assembler.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"

namespace flexi
{
namespace
{

/** A core and the kernel its ROM-closed model runs. */
struct CoreCase
{
    std::unique_ptr<Netlist> nl;
    Program prog;
};

CoreCase
coreCase(IsaKind isa)
{
    CoreCase c{nullptr, Program(isa)};
    switch (isa) {
      case IsaKind::FlexiCore4: c.nl = buildFlexiCore4Netlist(); break;
      case IsaKind::FlexiCore8: c.nl = buildFlexiCore8Netlist(); break;
      case IsaKind::ExtAcc4: c.nl = buildExtAcc4Netlist(); break;
      case IsaKind::LoadStore4: c.nl = buildLoadStore4Netlist(); break;
    }
    if (isa == IsaKind::FlexiCore8) {
        c.prog = assemble(isa, fc8ProgramSource(Fc8Program::Thresholding));
        return c;
    }
    for (KernelId id : allKernels()) {
        Program p = assemble(isa, kernelSource(id, isa));
        if (p.numPages() == 1) {
            c.prog = std::move(p);
            break;
        }
    }
    return c;
}

void
BM_McLint(benchmark::State &state, IsaKind isa)
{
    CoreCase c = coreCase(isa);
    McLintOptions opts;
    opts.inductDepth = 4;
    opts.model.program = &c.prog;
    McLintOutcome out;
    for (auto _ : state) {
        out = mcLint(*c.nl, opts);
        benchmark::DoNotOptimize(out.solves);
    }
    state.counters["solves"] = static_cast<double>(out.solves);
    state.counters["conflicts"] = static_cast<double>(out.conflicts);
}

void
BM_SeqResetCoverage(benchmark::State &state, IsaKind isa)
{
    CoreCase c = coreCase(isa);
    McModel model;
    model.program = &c.prog;
    SeqResetCoverageResult r;
    for (auto _ : state) {
        r = seqResetCoverage(*c.nl, model, 4);
        benchmark::DoNotOptimize(r.covered.data());
    }
    state.counters["solves"] = static_cast<double>(r.solves);
    state.counters["conflicts"] = static_cast<double>(r.conflicts);
}

BENCHMARK_CAPTURE(BM_McLint, fc4, IsaKind::FlexiCore4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_McLint, fc8, IsaKind::FlexiCore8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_McLint, ext, IsaKind::ExtAcc4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_McLint, ls, IsaKind::LoadStore4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SeqResetCoverage, fc4, IsaKind::FlexiCore4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SeqResetCoverage, fc8, IsaKind::FlexiCore8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SeqResetCoverage, ext, IsaKind::ExtAcc4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SeqResetCoverage, ls, IsaKind::LoadStore4)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace flexi

int
main(int argc, char **argv)
{
    return flexi::gbenchMain("bench_formal", argc, argv);
}
