/**
 * @file
 * google-benchmark harness for the field-fleet lifecycle engine.
 *
 * Two questions, two benchmark families:
 *
 *  - BM_FleetMillionDieLifetimes: raw campaign throughput. One
 *    iteration deploys 2^20 dies and runs each through its full
 *    2-epoch lifecycle (over 2M missions) with field-realistic fault
 *    pressure, exercising the 512-lane prescreen packing end to end.
 *    One item = one die-lifetime, so ns/item from bench_compare.py
 *    is the cost of fielding one part for the whole campaign.
 *
 *  - BM_FleetPolicyCurves/<policy>: availability and SDC curves per
 *    recovery policy and per deployment bin, emitted as benchmark
 *    counters (avail_eN and sdc_eN per epoch, avail/sdc per bin, pulled
 *    dies). The counters are the numbers EXPERIMENTS.md plots; the
 *    timing row guards the prescreen/checked-runtime split from
 *    regressing under fault pressure.
 *
 *  - BM_FleetEpoch/<threads>, BM_FleetCheckpointEncode/<threads> and
 *    BM_FleetEpochCheckpointed: perfbench's fleet_field unit and its
 *    checkpoint. The first runs one 8,192-die FC4 epoch per
 *    iteration through FleetEngine::run on 1 or 4 threads without a
 *    checkpoint; the second encodes that fleet's image on 1 or 4
 *    threads; the third runs the epoch with a checkpoint path, so
 *    each epoch's queued write overlaps the next, as in fleet_field.
 *
 * CI re-emits BENCH_fleet.json every run and diffs the timing
 * metrics against the committed snapshot with bench_compare.py
 * (loose threshold — see docs/PERF.md for the snapshot contract).
 */

#include <filesystem>
#include <string>

#include <benchmark/benchmark.h>

#include "gbench_main.hh"

#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"

namespace flexi
{
namespace
{

/** Field-pressure campaign shared by the policy-curve variants:
 *  small enough to sweep four policies, hot enough that every rung
 *  of the escalation ladder fires. */
FleetConfig
curveConfig()
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 11;
    cfg.numDies = 4096;
    cfg.epochs = 4;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.15;
    cfg.flipsPerEpoch = 0.05;
    // A hung die burns the whole budget in the checked runtime (and
    // holds its lane group that long); keep it a few
    // mission-lengths, not the CLI default.
    cfg.maxInstructions = 8000;
    return cfg;
}

void
stateCounters(benchmark::State &state, const FleetState &st)
{
    for (uint32_t e = 0; e < st.epochsDone; ++e) {
        std::string suffix = "_e" + std::to_string(e);
        state.counters["avail" + suffix] = st.availability(e);
        state.counters["sdc" + suffix] = st.sdcRate(e);
    }
    static const char *binName[2] = {"functional", "salvaged"};
    for (size_t b = 0; b < 2; ++b) {
        uint64_t missions = 0;
        for (uint64_t n : st.binOutcomes[b])
            missions += n;
        if (!missions)
            continue;
        const auto &row = st.binOutcomes[b];
        double good =
            static_cast<double>(row[size_t(FaultOutcome::Masked)] +
                                row[size_t(FaultOutcome::Recovered)]);
        double sdc =
            static_cast<double>(row[size_t(FaultOutcome::Sdc)]);
        state.counters[std::string("avail_") + binName[b]] =
            good / static_cast<double>(missions);
        state.counters[std::string("sdc_") + binName[b]] =
            sdc / static_cast<double>(missions);
    }
    state.counters["pulled"] = static_cast<double>(st.deaths);
}

/**
 * One full campaign per iteration under the given policy; one item
 * = one die-lifetime.
 */
void
BM_FleetPolicyCurves(benchmark::State &state, const FleetConfig &cfg)
{
    FleetEngine engine(cfg);
    FleetState last;
    for (auto _ : state) {
        FleetState st = engine.init();
        engine.run(st);
        benchmark::DoNotOptimize(st.deaths);
        last = std::move(st);
    }
    state.SetItemsProcessed(state.iterations() * cfg.numDies);
    stateCounters(state, last);
}

FleetConfig
policyOff()
{
    FleetConfig cfg = curveConfig();
    cfg.detectors = DetectorConfig{false, false, false,
                                   cfg.detectors.watchdogCycles};
    cfg.recovery.enabled = false;
    return cfg;
}

FleetConfig
policyDetect()
{
    FleetConfig cfg = curveConfig();
    cfg.recovery.enabled = false;
    return cfg;
}

FleetConfig
policyRecover()
{
    return curveConfig();
}

FleetConfig
policyLockstep()
{
    FleetConfig cfg = curveConfig();
    cfg.detectors.lockstep = true;
    return cfg;
}

FleetConfig
policyFc8Recover()
{
    FleetConfig cfg = curveConfig();
    cfg.isa = IsaKind::FlexiCore8;
    cfg.fc8Program = 0;
    return cfg;
}

BENCHMARK_CAPTURE(BM_FleetPolicyCurves, off, policyOff())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetPolicyCurves, detect, policyDetect())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetPolicyCurves, recover, policyRecover())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetPolicyCurves, lockstep, policyLockstep())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetPolicyCurves, fc8_recover,
                  policyFc8Recover())
    ->Unit(benchmark::kMillisecond);

/**
 * The headline scale claim: 2^20 deployed dies, each through its
 * full 2-epoch lifecycle (2M+ missions), in one perf-smoke
 * iteration. Low fault pressure keeps the word-parallel prescreen
 * authoritative for the overwhelming majority of lanes — this is
 * the regime the LaneGroup packing exists for.
 */
void
BM_FleetMillionDieLifetimes(benchmark::State &state)
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 3;
    cfg.numDies = 1u << 20;
    cfg.epochs = 2;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.02;
    cfg.flipsPerEpoch = 0.01;
    cfg.maxInstructions = 8000;
    FleetEngine engine(cfg);
    FleetState last;
    for (auto _ : state) {
        FleetState st = engine.init();
        engine.run(st);
        benchmark::DoNotOptimize(st.deaths);
        last = std::move(st);
    }
    state.SetItemsProcessed(state.iterations() * cfg.numDies);
    stateCounters(state, last);
}
BENCHMARK(BM_FleetMillionDieLifetimes)
    ->Unit(benchmark::kMillisecond);

/** perfbench's fleet_field campaign shape, on FlexiCore4. */
FleetConfig
fieldConfig()
{
    FleetConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 1;
    cfg.numDies = 8192;
    cfg.epochs = 13;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.15;
    cfg.flipsPerEpoch = 0.05;
    cfg.maxInstructions = 8000;
    return cfg;
}

/** One checkpoint image of the field fleet after one epoch, encoded
 *  on range(0) threads; bytes/s is the encode rate. */
void
BM_FleetCheckpointEncode(benchmark::State &state)
{
    FleetConfig cfg = fieldConfig();
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    engine.run(st, 1);
    auto threads = static_cast<unsigned>(state.range(0));
    size_t bytes = 0;
    for (auto _ : state) {
        std::vector<uint8_t> image = encodeFleetState(st, threads);
        bytes = image.size();
        benchmark::DoNotOptimize(image.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_FleetCheckpointEncode)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

/**
 * One field-fleet epoch per iteration through FleetEngine::run on
 * @p threads threads (0 = auto), checkpointing to @p path when not
 * empty; a finished campaign restarts untimed. One item = one
 * deployed die's epoch.
 */
void
timeFieldEpochs(benchmark::State &state, unsigned threads,
                const std::string &path)
{
    FleetConfig cfg = fieldConfig();
    cfg.threads = threads;
    FleetEngine engine(cfg);
    FleetState st = engine.init();
    for (auto _ : state) {
        if (st.epochsDone == cfg.epochs) {
            state.PauseTiming();
            st = engine.init();
            state.ResumeTiming();
        }
        engine.run(st, st.epochsDone + 1, path);
        benchmark::DoNotOptimize(st.deaths);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * cfg.numDies));
}

/** The epoch alone, on range(0) threads: no checkpoint to save. */
void
BM_FleetEpoch(benchmark::State &state)
{
    timeFieldEpochs(state, static_cast<unsigned>(state.range(0)), {});
}
BENCHMARK(BM_FleetEpoch)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/** perfbench's fleet_field unit: the epoch and its queued save. */
void
BM_FleetEpochCheckpointed(benchmark::State &state)
{
    std::string path =
        (std::filesystem::temp_directory_path() / "bench_fleet.ckpt")
            .string();
    timeFieldEpochs(state, 0, path);
    flushFleetCheckpoints();
    std::filesystem::remove(path);
}
BENCHMARK(BM_FleetEpochCheckpointed)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace flexi

int
main(int argc, char **argv)
{
    return flexi::gbenchMain("bench_fleet", argc, argv);
}
