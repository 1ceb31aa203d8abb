#include "fleet.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fleet/checkpoint.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "netlist/flexicore_netlist.hh"
#include "yield/die_model.hh"

namespace flexi
{

namespace
{

constexpr uint64_t kPopSalt = 0xF1EE7010ull;
constexpr uint64_t kFaultSalt = 0xF1EE7F17ull;
constexpr uint64_t kInputSalt = 0xF1EE71B0ull;
/** Per-epoch sub-stream stride within one die's fault stream. */
constexpr uint64_t kEpochStride = 1ull << 20;

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t
fnv1a(uint64_t h, const uint8_t *bytes, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

uint64_t
fnvU64(uint64_t h, uint64_t v)
{
    uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<uint8_t>(v >> (8 * i));
    return fnv1a(h, b, 8);
}

constexpr uint64_t kFnvPrime8 = [] {
    uint64_t p = 1;
    for (int i = 0; i < 8; ++i)
        p *= kFnvPrime;
    return p;
}();

/**
 * Eight FNV-1a steps over the bytes 0/1 of one packed byte, by the
 * parity of the hash entering them: kFnvBits[h & 1][byte] is what the
 * steps add to h * P^8. For a byte b in {0, 1}, (h ^ b) * P equals
 * (h + d) * P with d = 0 for b = 0, +1 for even h and -1 for odd h,
 * and every set bit flips the parity of h; so the eight steps map h
 * to h * P^8 + sum of d_j * P^(8-j), and the d_j depend only on the
 * entering parity and the byte.
 */
constexpr auto kFnvBits = [] {
    std::array<std::array<uint64_t, 256>, 2> t{};
    for (uint64_t parity = 0; parity < 2; ++parity) {
        for (unsigned byte = 0; byte < 256; ++byte) {
            uint64_t h = parity;
            for (unsigned j = 0; j < 8; ++j)
                h = (h ^ ((byte >> j) & 1u)) * kFnvPrime;
            t[parity][byte] = h - parity * kFnvPrime8;
        }
    }
    return t;
}();

/** Fixed die slices of an epoch's draw and merge: enough to spread
 *  over any worker count, few enough that their per-slice state is
 *  small. */
constexpr size_t kDieSlices = 64;

/** The schedule every die without an in-field event points at. */
const FaultSchedule kNoEvents;

/**
 * What an epoch leaves for the next epoch run on the same calling
 * thread, so that once it has grown an epoch allocates nothing per
 * die; per thread, not per engine or per run() call (fleet.hh says
 * why). Threads running engines at once each have their own.
 */
struct EpochWorkspace
{
    std::vector<uint32_t> live;
    std::vector<const FaultSchedule *> sched;
    std::vector<const std::vector<StuckFault> *> faults;
    /** Per study die: its glitch mean over the epoch's horizon. */
    std::vector<PoissonMean> glitch;
    /**
     * Per die slice: the schedules its event dies were drawn into, as
     * many as the slice has needed in one epoch plus the one the next
     * die is drawn into. A deque keeps every entry's address (and
     * capacity) while it grows.
     */
    std::array<std::deque<FaultSchedule>, kDieSlices> pools;
};

/** One die slice's share of an epoch's fleet-wide counters. */
struct SliceCounts
{
    /** Outcome histogram per deployment bin (Functional, Salvaged). */
    std::array<std::array<uint64_t, kNumFaultOutcomes>, 2> bins{};
    uint64_t deaths = 0;
};

bool
configsMatch(const FleetConfig &a, const FleetConfig &b)
{
    // threads and batchLanes are execution knobs, not semantics —
    // the determinism contract makes results identical across them,
    // so a resumed campaign may change either.
    return a.isa == b.isa && a.seed == b.seed &&
           a.numDies == b.numDies && a.epochs == b.epochs &&
           a.kernel == b.kernel && a.fc8Program == b.fc8Program &&
           a.workUnits == b.workUnits &&
           a.transientsPerEpoch == b.transientsPerEpoch &&
           a.flipsPerEpoch == b.flipsPerEpoch &&
           a.detectors.lockstep == b.detectors.lockstep &&
           a.detectors.outputCrc == b.detectors.outputCrc &&
           a.detectors.watchdog == b.detectors.watchdog &&
           a.detectors.watchdogCycles == b.detectors.watchdogCycles &&
           a.recovery.enabled == b.recovery.enabled &&
           a.recovery.checkpointInstructions ==
               b.recovery.checkpointInstructions &&
           a.recovery.maxRetries == b.recovery.maxRetries &&
           a.recovery.allowRestart == b.recovery.allowRestart &&
           a.maxRepages == b.maxRepages &&
           a.maxInstructions == b.maxInstructions &&
           a.vdd == b.vdd && a.minKernels == b.minKernels;
}

} // namespace

uint64_t
FleetState::aliveDies() const
{
    uint64_t n = 0;
    for (const FleetDie &d : dies)
        n += d.alive;
    return n;
}

double
FleetState::availability(uint32_t e) const
{
    if (e >= epochOutcomes.size() || dies.empty())
        return 0.0;
    const auto &row = epochOutcomes[e];
    uint64_t good = row[static_cast<size_t>(FaultOutcome::Masked)] +
                    row[static_cast<size_t>(FaultOutcome::Recovered)];
    return static_cast<double>(good) / dies.size();
}

double
FleetState::sdcRate(uint32_t e) const
{
    if (e >= epochOutcomes.size() || dies.empty())
        return 0.0;
    uint64_t sdc =
        epochOutcomes[e][static_cast<size_t>(FaultOutcome::Sdc)];
    return static_cast<double>(sdc) / dies.size();
}

uint64_t
fnv1aBits(uint64_t h, const uint64_t *bits, size_t n)
{
    size_t bytes = n / 8;
    for (size_t j = 0; j < bytes; ++j) {
        unsigned byte = (bits[j / 8] >> (8 * (j % 8))) & 0xFF;
        h = h * kFnvPrime8 + kFnvBits[h & 1][byte];
    }
    for (size_t i = bytes * 8; i < n; ++i)
        h = (h ^ ((bits[i / 64] >> (i % 64)) & 1)) * kFnvPrime;
    return h;
}

uint64_t
fleetDigest(const FleetState &state)
{
    uint64_t h = kFnvOffset;
    h = fnvU64(h, state.epochsDone);
    for (const FleetDie &d : state.dies) {
        h = fnvU64(h, d.digest);
        h = fnvU64(h, (static_cast<uint64_t>(d.alive) << 32) |
                          d.repages);
        h = fnvU64(h, d.epochsRun);
    }
    return h;
}

struct FleetEngine::Impl
{
    FleetConfig cfg;
    std::unique_ptr<Netlist> golden;
    std::unique_ptr<Program> prog;
    SalvageReport report;
    /** Study-die indices deployable for the configured kernel,
     *  ascending. */
    std::vector<uint32_t> pool;
    /** Per study die: 0 when not deployable, else its DieBin + 1. */
    std::vector<uint8_t> deployedBin;
    /** Per-study-die field glitch rate at the deployment supply. */
    std::vector<double> glitchRates;
    size_t targetOutputs = 0;

    std::vector<uint8_t> epochInputs(uint32_t epoch) const;
    /** Die @p die's in-field schedule for @p epoch over @p horizon
     *  cycles, drawn into @p sched (emptied first; its vectors keep
     *  their capacity). */
    void drawSchedule(FaultSchedule &sched, uint32_t die,
                      uint32_t epoch, uint64_t horizon,
                      const PoissonMean &transients,
                      const PoissonMean &glitches,
                      const PoissonMean &flips) const;
    /** One epoch of missions, merged into @p state; the schedules
     *  stay in the calling thread's pools for the next epoch. */
    void runEpoch(FleetState &state, uint32_t epoch) const;
};

std::vector<uint8_t>
FleetEngine::Impl::epochInputs(uint32_t epoch) const
{
    uint64_t s = deriveSeed(cfg.seed ^ kInputSalt, epoch);
    if (cfg.isa == IsaKind::FlexiCore8) {
        auto id = static_cast<Fc8Program>(cfg.fc8Program %
                                          kNumFc8Programs);
        return fc8ProgramInputs(id, cfg.workUnits, s);
    }
    return kernelInputs(cfg.kernel, cfg.workUnits, s);
}

void
FleetEngine::Impl::drawSchedule(FaultSchedule &sched, uint32_t die,
                                uint32_t epoch, uint64_t horizon,
                                const PoissonMean &transients,
                                const PoissonMean &glitches,
                                const PoissonMean &flips) const
{
    Rng rng(deriveSeed(cfg.seed ^ kFaultSalt,
                       die * kEpochStride + epoch));
    size_t nets = golden->numNets();
    size_t dffs = golden->numDffs() ? golden->numDffs() : 1;

    sched.transients.clear();
    sched.flips.clear();
    auto upsets = [&](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) {
            NetId net = static_cast<NetId>(rng.below(nets));
            bool value = rng.chance(0.5);
            uint64_t at = rng.below(horizon);
            sched.transients.push_back({net, value, at, at + 1});
        }
    };
    // Environmental upsets: Poisson arrivals on the mission clock.
    upsets(rng.poisson(transients));
    // Timing marginality of the part itself (salvaged-die physics);
    // a part that never glitches has mean 0, which draws nothing.
    upsets(rng.poisson(glitches));
    uint64_t nF = rng.poisson(flips);
    for (uint64_t i = 0; i < nF; ++i) {
        uint64_t at = rng.below(horizon);
        sched.flips.push_back({at, rng.below(dffs)});
    }
}

void
FleetEngine::Impl::runEpoch(FleetState &state, uint32_t epoch) const
{
    CheckedRunConfig runCfg;
    runCfg.isa = cfg.isa;
    runCfg.detectors = cfg.detectors;
    runCfg.recovery = cfg.recovery;
    runCfg.targetOutputs = targetOutputs;
    runCfg.maxInstructions = cfg.maxInstructions;
    std::vector<uint8_t> inputs = epochInputs(epoch);

    // The epoch's golden mission, recorded once: its length sets the
    // horizon the per-die fault arrivals are drawn over.
    GoldenTape tape = checkedTape(*prog, inputs, runCfg);
    const GoldenTape::Point &mission = tape.at(tape.last());
    if (!mission.done)
        fatal("fleet: epoch %u's mission needs more than "
              "maxInstructions = %llu instructions",
              epoch, static_cast<unsigned long long>(cfg.maxInstructions));
    uint64_t horizon = 2 * mission.elapsed + 64;

    // The pool workers reach the calling thread's workspace through
    // this reference; naming the thread_local inside a worker would
    // give that worker's own.
    thread_local EpochWorkspace workspace;
    EpochWorkspace &ws = workspace;
    ws.live.clear();
    for (uint32_t d = 0; d < state.dies.size(); ++d)
        if (state.dies[d].alive)
            ws.live.push_back(d);
    size_t n = ws.live.size();
    ws.sched.resize(n);
    ws.faults.resize(n);
    auto sliceBegin = [n](size_t s) { return n * s / kDieSlices; };

    // Every Poisson mean of the epoch's draws, with its exp() taken
    // once: the two fleet rates, and each deployable part's glitch
    // rate over the horizon.
    const PoissonMean transients(cfg.transientsPerEpoch);
    const PoissonMean flips(cfg.flipsPerEpoch);
    ws.glitch.assign(glitchRates.size(), PoissonMean(0.0));
    for (uint32_t pi : pool)
        ws.glitch[pi] = PoissonMean(glitchRates[pi] *
                                    static_cast<double>(horizon));

    // Every live die's mission through the population runner: its
    // part's manufacturing stuck-ats plus its in-field schedule,
    // drawn once per die into its slice's pool. Event-free dies, most
    // of them, take the shared empty schedule and leave the entry
    // they were drawn into for the next die.
    parallelFor(kDieSlices, cfg.threads, [&](size_t s) {
        std::deque<FaultSchedule> &slicePool = ws.pools[s];
        size_t used = 0;
        for (size_t k = sliceBegin(s); k < sliceBegin(s + 1); ++k) {
            uint32_t pi = state.dies[ws.live[k]].poolIndex;
            if (used == slicePool.size())
                slicePool.emplace_back();
            FaultSchedule &sc = slicePool[used];
            drawSchedule(sc, ws.live[k], epoch, horizon, transients,
                         ws.glitch[pi], flips);
            bool events = !sc.transients.empty() || !sc.flips.empty();
            ws.sched[k] = events ? &sc : &kNoEvents;
            used += events;
            ws.faults[k] = &report.study.dies[pi].faults;
        }
    });
    PopulationResult pop = runCheckedPopulation(
        *golden, tape, runCfg, ws.sched, &ws.faults, cfg.batchLanes,
        cfg.threads, true);
    if (pop.faultFree.outcome != CheckedOutcome::Completed ||
        !pop.faultFree.outputsCorrect)
        panic("fleet: golden mission failed at epoch %u", epoch);

    // Merge each die's mission into its own record: digest, packed
    // end state and escalation ladder read and write only that die,
    // so any thread count gives the same records. The digest and
    // dffBits come straight from the packed end state. Each slice
    // counts its own share of the fleet-wide histograms.
    uint32_t dffs = static_cast<uint32_t>(golden->numDffs());
    std::array<SliceCounts, kDieSlices> counts{};
    parallelFor(kDieSlices, cfg.threads, [&](size_t s) {
        SliceCounts &c = counts[s];
        for (size_t k = sliceBegin(s); k < sliceBegin(s + 1); ++k) {
            const CheckedRunSummary &run = pop.die(k);
            auto outcome = static_cast<uint8_t>(
                classifyCheckedRun(run, cfg.detectors));
            FleetDie &die = state.dies[ws.live[k]];
            ++die.epochsRun;
            ++die.outcomes[outcome];
            die.lifeCycles += run.cycles;

            const uint64_t *end = pop.endDff(k);
            uint64_t h = die.epochsRun == 1 ? kFnvOffset : die.digest;
            h = fnvU64(h, epoch);
            h = fnvU64(h, outcome);
            h = fnvU64(h, run.cycles);
            die.digest = fnv1aBits(h, end, dffs);
            die.dffCount = dffs;
            die.dffBits.resize((dffs + 7) / 8);
            for (size_t j = 0; j < die.dffBits.size(); ++j)
                die.dffBits[j] =
                    static_cast<uint8_t>(end[j / 8] >> (8 * (j % 8)));

            // Fleet-level escalation: a Degraded mission burns one
            // firmware re-page; past the budget the die fail-stops.
            if (run.outcome == CheckedOutcome::Degraded &&
                ++die.repages > cfg.maxRepages)
                die.alive = false;

            ++c.bins[die.bin == DieBin::Functional ? 0 : 1][outcome];
            c.deaths += !die.alive;
        }
    });

    // Fleet-wide counters, summed in slice order.
    for (const SliceCounts &c : counts) {
        for (size_t b = 0; b < 2; ++b) {
            for (size_t o = 0; o < kNumFaultOutcomes; ++o) {
                state.epochOutcomes[epoch][o] += c.bins[b][o];
                state.binOutcomes[b][o] += c.bins[b][o];
            }
        }
        state.deaths += c.deaths;
    }
}

FleetEngine::FleetEngine(const FleetConfig &config)
    : impl_(new Impl)
{
    Impl &im = *impl_;
    im.cfg = config;
    if (!config.numDies)
        fatal("fleet: numDies must be > 0");
    if (!config.epochs || config.epochs >= kEpochStride)
        fatal("fleet: epochs must be in [1, %llu)",
              static_cast<unsigned long long>(kEpochStride));
    for (auto [name, rate] :
         {std::pair{"transientsPerEpoch", config.transientsPerEpoch},
          std::pair{"flipsPerEpoch", config.flipsPerEpoch}})
        if (!(rate >= 0.0 && rate <= FleetConfig::kMaxEventRate))
            fatal("fleet: %s must be in [0, %g], got %g", name,
                  FleetConfig::kMaxEventRate, rate);
    if (config.workUnits < 1 || config.workUnits > kMaxWorkUnits)
        fatal("fleet: workUnits must be in [1, %zu], got %zu",
              kMaxWorkUnits, config.workUnits);
    if (!(std::isfinite(config.vdd) && config.vdd > 0))
        fatal("fleet: vdd must be a finite positive voltage, got %g",
              config.vdd);
    if (!config.maxInstructions ||
        config.maxInstructions > kMaxInstructionBudget)
        fatal("fleet: maxInstructions must be in [1, %llu], got %llu",
              static_cast<unsigned long long>(kMaxInstructionBudget),
              static_cast<unsigned long long>(config.maxInstructions));
    if (config.detectors.watchdogCycles > kMaxWatchdogCycles)
        fatal("fleet: watchdogCycles must be at most %llu, got %llu",
              static_cast<unsigned long long>(kMaxWatchdogCycles),
              static_cast<unsigned long long>(
                  config.detectors.watchdogCycles));
    if (config.isa != IsaKind::FlexiCore4 &&
        config.isa != IsaKind::FlexiCore8)
        fatal("the fleet engine deploys the fabricated cores, not %s",
              isaName(config.isa));
    im.golden = buildCoreNetlist(config.isa);

    size_t kernelIdx;
    if (config.isa == IsaKind::FlexiCore8) {
        auto id = static_cast<Fc8Program>(config.fc8Program %
                                          kNumFc8Programs);
        im.prog.reset(new Program(
            assemble(config.isa, fc8ProgramSource(id))));
        im.targetOutputs = config.workUnits;
        kernelIdx = static_cast<size_t>(id);
    } else {
        im.prog.reset(new Program(assemble(
            config.isa, kernelSource(config.kernel, config.isa))));
        im.targetOutputs =
            config.workUnits * kernelOutputsPerWork(config.kernel);
        kernelIdx = static_cast<size_t>(config.kernel);
    }

    // The binned supply the deployment draws from.
    SalvageConfig sc;
    sc.study.isa = config.isa;
    sc.study.seed = config.seed;
    sc.study.threads = config.threads;
    sc.vdd = config.vdd;
    sc.detectors = config.detectors;
    sc.recovery = config.recovery;
    sc.minKernels = config.minKernels;
    im.report = runSalvageStudy(sc);

    DieModel model(im.report.study.spec, sc.study.params);
    im.glitchRates.resize(im.report.study.dies.size(), 0.0);
    im.deployedBin.resize(im.report.study.dies.size(), 0);
    for (size_t i = 0; i < im.report.study.dies.size(); ++i) {
        const DieResult &die = im.report.study.dies[i];
        const DieSalvage &verdict = im.report.dies[i];
        im.glitchRates[i] =
            model.glitchRate(die.sample, config.vdd);
        if (!die.site.inInclusionZone)
            continue;
        // Functional parts ship into any bin; salvaged parts only
        // into application bins they qualified for.
        bool deployable =
            verdict.bin == DieBin::Functional ||
            (verdict.bin == DieBin::Salvaged &&
             (verdict.passedMask >> kernelIdx) & 1u);
        if (deployable) {
            im.pool.push_back(static_cast<uint32_t>(i));
            im.deployedBin[i] = static_cast<uint8_t>(verdict.bin) + 1;
        }
    }
    if (im.pool.empty())
        fatal("fleet: no deployable dies for %s (wafer seed %llu)",
              config.isa == IsaKind::FlexiCore8
                  ? fc8ProgramName(static_cast<Fc8Program>(
                        config.fc8Program % kNumFc8Programs))
                  : kernelName(config.kernel),
              static_cast<unsigned long long>(config.seed));
}

FleetEngine::~FleetEngine() = default;

const SalvageReport &
FleetEngine::salvage() const
{
    return impl_->report;
}

FleetState
FleetEngine::init() const
{
    const Impl &im = *impl_;
    FleetState state;
    state.config = im.cfg;
    state.dies.resize(im.cfg.numDies);
    state.epochOutcomes.assign(im.cfg.epochs, {});
    for (uint32_t d = 0; d < im.cfg.numDies; ++d) {
        Rng rng(deriveSeed(im.cfg.seed ^ kPopSalt, d));
        uint32_t poolIndex = im.pool[rng.below(im.pool.size())];
        state.dies[d].poolIndex = poolIndex;
        state.dies[d].bin = im.report.dies[poolIndex].bin;
    }
    return state;
}

void
FleetEngine::run(FleetState &state, uint32_t stopAfter,
                 const std::string &checkpointPath) const
{
    const Impl &im = *impl_;
    if (!configsMatch(state.config, im.cfg))
        fatal("fleet: state was produced by a different campaign "
              "configuration");
    if (state.dies.size() != im.cfg.numDies ||
        state.epochOutcomes.size() != im.cfg.epochs)
        fatal("fleet: state shape does not match its configuration");
    // Die records index the salvage study: a checkpoint that decodes
    // cleanly may still name a part this campaign never deployed.
    for (size_t d = 0; d < state.dies.size(); ++d) {
        const FleetDie &die = state.dies[d];
        uint8_t deployed = die.poolIndex < im.deployedBin.size()
                               ? im.deployedBin[die.poolIndex]
                               : 0;
        if (!deployed)
            fatal("fleet: die %zu has poolIndex %u, not a deployable "
                  "part of this campaign's %zu-die wafer", d,
                  die.poolIndex, im.report.study.dies.size());
        auto bin = static_cast<DieBin>(deployed - 1);
        if (die.bin != bin)
            fatal("fleet: die %zu is binned %s but its part %u is %s",
                  d, dieBinName(die.bin), die.poolIndex,
                  dieBinName(bin));
    }

    uint32_t last = im.cfg.epochs;
    if (stopAfter && stopAfter < last)
        last = stopAfter;

    for (uint32_t epoch = state.epochsDone; epoch < last; ++epoch) {
        im.runEpoch(state, epoch);
        state.epochsDone = epoch + 1;
        if (!checkpointPath.empty())
            saveFleetCheckpoint(state, checkpointPath);
    }
}

} // namespace flexi
