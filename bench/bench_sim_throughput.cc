/**
 * @file
 * google-benchmark microbenchmarks of the simulation substrates
 * themselves: ISA-simulator instruction rate, gate-level netlist
 * cycle rate, netlist clone rate, assembler throughput, and
 * wafer-study runtime. These bound how large the Monte-Carlo
 * experiments can be made; docs/PERF.md tracks the numbers and CI
 * emits them as BENCH_sim_throughput.json every run.
 */

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "gbench_main.hh"

#include "assembler/assembler.hh"
#include "kernels/runner.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lane_group.hh"
#include "netlist/lockstep.hh"
#include "sim/core_sim.hh"
#include "yield/test_program.hh"
#include "yield/wafer_study.hh"

namespace flexi
{
namespace
{

void
BM_CoreSimInstructionRate(benchmark::State &state)
{
    Program p = assemble(IsaKind::FlexiCore4,
                         kernelSource(KernelId::FirFilter,
                                      IsaKind::FlexiCore4));
    FifoEnvironment env;
    for (int i = 0; i < 4096; ++i)
        env.pushInput(static_cast<uint8_t>(i & 0xF));
    TimingConfig cfg{IsaKind::FlexiCore4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            sim.step();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoreSimInstructionRate);

/** One die through the Netlist API: the compiled engine's one-lane
 *  path that runLockstep, runChecked and the fleet's dirty lanes
 *  take. */
void
BM_NetlistCycleRate(benchmark::State &state)
{
    auto nl = buildFlexiCore4Netlist();
    Program p = makeTestProgram(IsaKind::FlexiCore4, 1);
    const auto &image = p.page(0);
    BusHandle pc = nl->outputBus("pc", 7);
    BusHandle instr = nl->inputBus("instr", 8);
    nl->setBus("iport", 4, 0x5);
    for (auto _ : state) {
        for (int i = 0; i < 100; ++i) {
            unsigned die_pc = nl->bus(pc);
            nl->setBus(instr,
                       die_pc < image.size() ? image[die_pc] : 0);
            nl->evaluate();
            nl->clockEdge();
            nl->evaluate();
        }
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_NetlistCycleRate);

/** The cell-by-cell reference interpreter, as the speedup yardstick
 *  for the compiled engine. */
void
BM_NetlistCycleRateReference(benchmark::State &state)
{
    auto nl = buildFlexiCore4Netlist();
    Program p = makeTestProgram(IsaKind::FlexiCore4, 1);
    const auto &image = p.page(0);
    BusHandle pc = nl->outputBus("pc", 7);
    BusHandle instr = nl->inputBus("instr", 8);
    nl->setBus("iport", 4, 0x5);
    for (auto _ : state) {
        for (int i = 0; i < 100; ++i) {
            unsigned die_pc = nl->bus(pc);
            nl->setBus(instr,
                       die_pc < image.size() ? image[die_pc] : 0);
            nl->evaluateReference();
            nl->clockEdge();
            nl->evaluateReference();
        }
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_NetlistCycleRateReference);

/** Cost of stamping out a per-die simulation instance. */
void
BM_NetlistClone(benchmark::State &state)
{
    auto nl = buildFlexiCore4Netlist();
    for (auto _ : state) {
        auto copy = nl->clone();
        benchmark::DoNotOptimize(copy->numNets());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetlistClone);

void
BM_AssembleCalculator(benchmark::State &state)
{
    std::string src = kernelSource(KernelId::Calculator,
                                   IsaKind::FlexiCore4);
    for (auto _ : state) {
        Program p = assemble(IsaKind::FlexiCore4, src);
        benchmark::DoNotOptimize(p.numPages());
    }
}
BENCHMARK(BM_AssembleCalculator);

void
BM_LockstepDieTest(benchmark::State &state)
{
    auto nl = buildFlexiCore4Netlist();
    Program p = makeTestProgram(IsaKind::FlexiCore4, 3);
    auto inputs = makeTestInputs(IsaKind::FlexiCore4, 128, 3);
    for (auto _ : state) {
        LockstepResult res =
            runLockstep(*nl, IsaKind::FlexiCore4, p, inputs, 500);
        benchmark::DoNotOptimize(res.errors);
    }
}
BENCHMARK(BM_LockstepDieTest);

void
BM_WaferStudyStatistical(benchmark::State &state)
{
    for (auto _ : state) {
        WaferStudyConfig cfg;
        cfg.seed = 1;
        cfg.gateLevelErrors = false;
        cfg.threads = 1;
        auto res = runWaferStudy(cfg);
        benchmark::DoNotOptimize(res.yield(4.5, true));
    }
}
BENCHMARK(BM_WaferStudyStatistical);

/** Up to 512 dies per pass through the fused-run wide evaluator —
 *  the exact per-cycle work of the wafer/campaign inner loop
 *  (per-lane fetch, threaded-dispatch evaluate, DFF commit, pad-cone
 *  exposeState, PC gather). One item = one simulated die-cycle. */
void
BM_LaneGroupCycleRate(benchmark::State &state)
{
    auto nl = buildFlexiCore4Netlist();
    unsigned lanes = static_cast<unsigned>(state.range(0));
    LaneGroup group(*nl, lanes);
    Program p = makeTestProgram(IsaKind::FlexiCore4, 1);
    const auto &image = p.page(0);
    BusHandle pc = nl->outputBus("pc", 7);
    BusHandle instr = nl->inputBus("instr", 8);
    BusHandle iport = nl->inputBus("iport", 4);
    BusHandle oport = nl->outputBus("oport", 4);
    group.setBus(iport, 0x5);
    LaneGroup::PadCone cone = group.padCone({&pc, &oport});
    std::vector<uint8_t> die_pc(lanes, 0);
    std::vector<uint8_t> die_instr(lanes, 0);
    for (auto _ : state) {
        for (int i = 0; i < 100; ++i) {
            for (unsigned lane = 0; lane < lanes; ++lane)
                die_instr[lane] = die_pc[lane] < image.size()
                                      ? image[die_pc[lane]]
                                      : 0;
            group.setBusLanesBytes(instr, die_instr.data());
            group.evaluate();
            group.clockEdge();
            group.exposeState(cone);
            group.gatherBusBytes(pc, die_pc.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * 100 * lanes);
}
BENCHMARK(BM_LaneGroupCycleRate)->Arg(64)->Arg(256)->Arg(512);

/** Full gate-level fault simulation of every defective die in
 *  one-lane groups, one die per group — the speedup yardstick for
 *  the lane batching; the thread count sweeps single-threaded to
 *  auto (0). */
void
BM_WaferStudyGateLevel(benchmark::State &state)
{
    for (auto _ : state) {
        WaferStudyConfig cfg;
        cfg.seed = 5;
        cfg.gateLevelErrors = true;
        cfg.testCycles = 600;
        cfg.threads = static_cast<unsigned>(state.range(0));
        cfg.batchLanes = 1;
        auto res = runWaferStudy(cfg);
        benchmark::DoNotOptimize(res.yield(4.5, true));
    }
}
BENCHMARK(BM_WaferStudyGateLevel)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

/** The same wafer workload with defective dies packed into wide
 *  lane groups (the runWaferStudy default, up to 512 lanes);
 *  bit-identical yields and error counts to
 *  BM_WaferStudyGateLevel's one-lane groups. */
void
BM_WaferStudyGateLevelBatched(benchmark::State &state)
{
    for (auto _ : state) {
        WaferStudyConfig cfg;
        cfg.seed = 5;
        cfg.gateLevelErrors = true;
        cfg.testCycles = 600;
        cfg.threads = static_cast<unsigned>(state.range(0));
        cfg.batchLanes = 512;
        auto res = runWaferStudy(cfg);
        benchmark::DoNotOptimize(res.yield(4.5, true));
    }
}
BENCHMARK(BM_WaferStudyGateLevelBatched)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace flexi

int
main(int argc, char **argv)
{
    return flexi::gbenchMain("bench_sim_throughput", argc, argv);
}
