#include "fault_campaign.hh"

#include <memory>
#include <tuple>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "netlist/flexicore_netlist.hh"

namespace flexi
{

namespace
{

/** Stream-id salt for injection schedules (see deriveSeed()). */
constexpr uint64_t kCampaignSalt = 0xF0157A11C0DEull;

/** The program, input stream and output target a campaign runs. */
struct Workload
{
    Program prog;
    std::vector<uint8_t> inputs;
    size_t targetOutputs = 0;
};

Workload
makeWorkload(const CampaignConfig &cfg)
{
    if (cfg.isa == IsaKind::FlexiCore8) {
        // The 8-bit core has its own program suite (one output per
        // input octet on every program).
        auto id = static_cast<Fc8Program>(cfg.fc8Program %
                                          kNumFc8Programs);
        return {assemble(cfg.isa, fc8ProgramSource(id)),
                fc8ProgramInputs(id, cfg.workUnits, cfg.seed),
                cfg.workUnits};
    }
    return {assemble(cfg.isa, kernelSource(cfg.kernel, cfg.isa)),
            kernelInputs(cfg.kernel, cfg.workUnits, cfg.seed),
            cfg.workUnits * kernelOutputsPerWork(cfg.kernel)};
}

} // namespace

std::pair<FaultKind, FaultSchedule>
injectionSchedule(const CampaignConfig &cfg, const Netlist &golden,
                  uint64_t baseline_cycles, unsigned index)
{
    Rng rng(deriveSeed(cfg.seed ^ kCampaignSalt, index));
    uint64_t horizon = baseline_cycles ? baseline_cycles : 1;
    size_t nets = golden.numNets();
    size_t dffs = golden.numDffs() ? golden.numDffs() : 1;

    FaultSchedule sched;
    double u = rng.uniform();
    if (u < cfg.pTransient) {
        NetId net = static_cast<NetId>(rng.below(nets));
        bool value = rng.chance(0.5);
        uint64_t at = rng.below(horizon);
        sched.transients.push_back({net, value, at, at + 1});
        return {FaultKind::TransientNet, sched};
    }
    if (u < cfg.pTransient + cfg.pFlip) {
        sched.flips.push_back({rng.below(horizon), rng.below(dffs)});
        return {FaultKind::DffFlip, sched};
    }
    // Timing-marginal die: every cycle has a small chance of a
    // single-cycle upset somewhere; guarantee at least one event.
    for (uint64_t c = 0; c < horizon; ++c) {
        if (!rng.chance(cfg.glitchRate))
            continue;
        NetId net = static_cast<NetId>(rng.below(nets));
        sched.transients.push_back({net, rng.chance(0.5), c, c + 1});
    }
    if (sched.transients.empty()) {
        NetId net = static_cast<NetId>(rng.below(nets));
        uint64_t at = rng.below(horizon);
        sched.transients.push_back({net, rng.chance(0.5), at, at + 1});
    }
    return {FaultKind::TimingGlitch, sched};
}

FaultOutcome
classifyCheckedRun(const CheckedRunSummary &run,
                   const DetectorConfig &detectors)
{
    bool detected = run.detections > 0;
    bool acted = run.retries > 0 || run.restarts > 0;
    switch (run.outcome) {
      case CheckedOutcome::Degraded:
        // Fail-stop: the runtime gave up loudly, not silently.
        return FaultOutcome::Detected;
      case CheckedOutcome::BudgetExhausted:
        return detected ? FaultOutcome::Detected : FaultOutcome::Hang;
      case CheckedOutcome::Completed:
        break;
    }
    if (run.outputsCorrect) {
        if (!detected)
            return FaultOutcome::Masked;
        return acted ? FaultOutcome::Recovered : FaultOutcome::Detected;
    }
    if (detected)
        return FaultOutcome::Detected;
    bool hung = run.maxPcFrozenCycles > detectors.watchdogCycles;
    return hung ? FaultOutcome::Hang : FaultOutcome::Sdc;
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TransientNet: return "transient-net";
      case FaultKind::DffFlip: return "dff-flip";
      case FaultKind::TimingGlitch: return "timing-glitch";
    }
    return "?";
}

const char *
faultOutcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::Masked: return "masked";
      case FaultOutcome::Recovered: return "recovered";
      case FaultOutcome::Detected: return "detected";
      case FaultOutcome::Sdc: return "sdc";
      case FaultOutcome::Hang: return "hang";
      default: return "?";
    }
}

uint64_t
CampaignCounts::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : n)
        sum += c;
    return sum;
}

CampaignCounts
CampaignResult::counts() const
{
    CampaignCounts counts;
    for (const auto &inj : injections)
        ++counts.n[static_cast<size_t>(inj.outcome)];
    return counts;
}

CampaignResult
runFaultCampaign(const CampaignConfig &config)
{
    if (config.workUnits < 1 || config.workUnits > kMaxWorkUnits)
        fatal("campaign: workUnits must be in [1, %zu], got %zu",
              kMaxWorkUnits, config.workUnits);
    std::unique_ptr<Netlist> golden = buildCoreNetlist(config.isa);
    Workload work = makeWorkload(config);

    CheckedRunConfig runCfg;
    runCfg.isa = config.isa;
    runCfg.detectors = config.detectors;
    runCfg.recovery = config.recovery;
    runCfg.targetOutputs = work.targetOutputs;
    runCfg.maxInstructions = config.maxInstructions;

    CampaignResult result;
    result.config = config;

    // The golden run, recorded once: its length is the baseline every
    // schedule is drawn over, whatever the detectors and recovery.
    GoldenTape tape = checkedTape(work.prog, work.inputs, runCfg);
    result.baselineCycles = tape.at(tape.last()).elapsed;

    // Every schedule is a pure function of (seed, index, netlist,
    // baseline), so they are drawn up front, in parallel, and a lane's
    // result never depends on its prescreen block or lane group:
    // thread count and lane width cannot change any outcome.
    std::vector<FaultKind> kinds(config.injections);
    std::vector<FaultSchedule> sched(config.injections);
    parallelFor(config.injections, config.threads, [&](size_t i) {
        std::tie(kinds[i], sched[i]) =
            injectionSchedule(config, *golden, result.baselineCycles,
                              static_cast<unsigned>(i));
    });
    PopulationResult runs = runCheckedPopulation(
        *golden, tape, runCfg, sched, nullptr, config.batchLanes,
        config.threads, false);
    result.baselineCorrect =
        runs.faultFree.outcome == CheckedOutcome::Completed &&
        runs.faultFree.outputsCorrect;

    result.injections.reserve(config.injections);
    for (size_t i = 0; i < runs.size(); ++i) {
        const CheckedRunSummary &run = runs.die(i);
        result.injections.push_back(
            {kinds[i], classifyCheckedRun(run, config.detectors),
             run.outcome, run.outputsCorrect, run.detections,
             run.retries, run.restarts, run.cycles,
             std::string(run.firstDetector)});
    }
    return result;
}

} // namespace flexi
