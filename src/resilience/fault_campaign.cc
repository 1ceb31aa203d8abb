#include "fault_campaign.hh"

#include <algorithm>
#include <memory>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lane_group.hh"

namespace flexi
{

namespace
{

/** Stream-id salt for injection schedules (see deriveSeed()). */
constexpr uint64_t kCampaignSalt = 0xF0157A11C0DEull;

std::unique_ptr<Netlist>
buildCore(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
      case IsaKind::LoadStore4: return buildLoadStore4Netlist();
    }
    fatal("bad ISA");
}

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
classifyCheckedRun(const CheckedRunResult &run,
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
    std::unique_ptr<Netlist> golden = buildCore(config.isa);
    Workload work = makeWorkload(config);

    CheckedRunConfig runCfg;
    runCfg.isa = config.isa;
    runCfg.detectors = config.detectors;
    runCfg.recovery = config.recovery;
    runCfg.targetOutputs = work.targetOutputs;
    runCfg.maxInstructions = config.maxInstructions;

    CampaignResult result;
    result.config = config;

    // Fault-free baseline, with protection disarmed so the reference
    // trajectory (and thus every schedule horizon) is independent of
    // the campaign's detector/recovery settings.
    {
        CheckedRunConfig baseCfg = runCfg;
        baseCfg.detectors = DetectorConfig{false, false, false,
                                           baseCfg.detectors
                                               .watchdogCycles};
        baseCfg.recovery.enabled = false;
        std::unique_ptr<Netlist> die = golden->clone();
        CheckedRunResult base =
            runChecked(*die, work.prog, work.inputs, baseCfg);
        result.baselineCycles = base.cycles;
        result.baselineInstructions = base.instructions;
        result.baselineCorrect =
            base.outcome == CheckedOutcome::Completed &&
            base.outputsCorrect;
    }

    result.injections.resize(config.injections);

    // Every schedule is a pure function of (seed, index, netlist,
    // baseline) — generate them all up front so the bit-parallel
    // prescreen can bind them to lanes.
    std::vector<std::pair<FaultKind, FaultSchedule>> sched(
        config.injections);
    parallelFor(config.injections, config.threads, [&](size_t i) {
        sched[i] = injectionSchedule(config, *golden,
                                     result.baselineCycles,
                                     static_cast<unsigned>(i));
    });

    // Phase 1: wide-lane lockstep prescreen. Most injections are
    // masked — the upset lands in logic the workload never exercises
    // — and a masked run is exactly one unprotected golden-tracking
    // pass, so one word-parallel pass settles up to 512 of them at
    // once. Lanes the prescreen cannot prove clean fall through to
    // the full checked runtime; batch membership is a pure function
    // of injection index, and a lane's result never depends on its
    // batch or group, so thread count and lane width cannot change
    // any outcome.
    unsigned lanes = std::min<unsigned>(
        config.batchLanes ? config.batchLanes : 1,
        LaneGroup::kMaxLanes);
    std::vector<uint8_t> screened(config.injections, 0);
    if (lanes > 1) {
        size_t num_batches = (config.injections + lanes - 1) / lanes;
        parallelFor(num_batches, config.threads, [&](size_t b) {
            size_t begin = b * lanes;
            unsigned n = static_cast<unsigned>(std::min<size_t>(
                lanes, config.injections - begin));
            std::vector<const FaultSchedule *> group(n);
            for (unsigned lane = 0; lane < n; ++lane)
                group[lane] = &sched[begin + lane].second;
            PrescreenResult ps = prescreenSchedules(
                *golden, work.prog, work.inputs, runCfg, group);
            for (unsigned lane = 0; lane < n; ++lane) {
                if (!ps.clean(lane))
                    continue;
                size_t i = begin + lane;
                InjectionResult &inj = result.injections[i];
                inj.kind = sched[i].first;
                inj.outcome = FaultOutcome::Masked;
                inj.runOutcome = CheckedOutcome::Completed;
                inj.outputsCorrect = true;
                inj.detections = 0;
                inj.retries = 0;
                inj.restarts = 0;
                inj.cycles = ps.cycles;
                inj.firstDetector.clear();
                screened[i] = 1;
            }
        });
    }

    // Phase 2: the lane-parallel checked runtime for everything
    // else, in injection order, one-word groups over the pool.
    std::vector<size_t> pending;
    for (size_t i = 0; i < screened.size(); ++i)
        if (!screened[i])
            pending.push_back(i);
    size_t groupLanes =
        checkedLanesPerGroup(pending.size(), config.threads);
    size_t groups = (pending.size() + groupLanes - 1) / groupLanes;
    parallelFor(groups, config.threads, [&](size_t g) {
        size_t begin = g * groupLanes;
        size_t n = std::min(groupLanes, pending.size() - begin);
        std::vector<const FaultSchedule *> group(n);
        for (size_t l = 0; l < n; ++l)
            group[l] = &sched[pending[begin + l]].second;
        std::vector<CheckedRunResult> runs = runCheckedLanes(
            *golden, work.prog, work.inputs, runCfg, group);
        for (size_t l = 0; l < n; ++l) {
            size_t i = pending[begin + l];
            const CheckedRunResult &run = runs[l];
            InjectionResult &inj = result.injections[i];
            inj.kind = sched[i].first;
            inj.outcome = classifyCheckedRun(run, config.detectors);
            inj.runOutcome = run.outcome;
            inj.outputsCorrect = run.outputsCorrect;
            inj.detections = run.detections;
            inj.retries = run.retries;
            inj.restarts = run.restarts;
            inj.cycles = run.cycles;
            inj.firstDetector = run.firstDetector;
        }
    });
    return result;
}

} // namespace flexi
