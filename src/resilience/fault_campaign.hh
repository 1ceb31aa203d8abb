/**
 * @file
 * Deterministic in-field fault-injection campaigns.
 *
 * A campaign runs one benchmark kernel on a gate-level die many times,
 * each run with one injected in-field fault event, and classifies what
 * happened. Three fault kinds model the upset mechanisms that matter
 * for flexible IGZO parts:
 *
 *  - TransientNet: a single-cycle upset forcing one net for one cycle
 *    (a glitch coupling onto a wire);
 *  - DffFlip: a one-shot state flip of one DFF (a latched upset);
 *  - TimingGlitch: intermittent single-cycle upsets Bernoulli-drawn
 *    per cycle, the signature of a timing-marginal die where the
 *    slowest paths only just make the clock.
 *
 * Classification per injection:
 *
 *  | outcome   | meaning                                            |
 *  |-----------|----------------------------------------------------|
 *  | Masked    | outputs correct, no detector fired                 |
 *  | Recovered | outputs correct after rollback and/or restart      |
 *  | Detected  | a detector fired; outputs wrong or die degraded    |
 *  | Sdc       | outputs silently wrong (no detector fired)         |
 *  | Hang      | no forward progress / budget exhausted, undetected |
 *
 * Determinism contract (same as runWaferStudy): every injection draws
 * from its own RNG stream derived from (seed, injection index), each
 * injection writes only its own result slot, and the fault schedule
 * depends only on the seed and the fault-free baseline — never on the
 * detector or recovery configuration. Campaigns over the same seed
 * are therefore bit-identical across thread counts, and campaigns
 * differing only in protection settings inject identical faults,
 * which is what makes protection-off/protection-on comparisons sound.
 */

#ifndef FLEXI_RESILIENCE_FAULT_CAMPAIGN_HH
#define FLEXI_RESILIENCE_FAULT_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kernels/kernels.hh"
#include "resilience/checked_run.hh"

namespace flexi
{

/** In-field fault mechanisms. */
enum class FaultKind : uint8_t
{
    TransientNet,
    DffFlip,
    TimingGlitch,
};

const char *faultKindName(FaultKind kind);

/** Classification of one injection. */
enum class FaultOutcome : uint8_t
{
    Masked,
    Recovered,
    Detected,
    Sdc,
    Hang,
    NumOutcomes,
};

constexpr size_t kNumFaultOutcomes =
    static_cast<size_t>(FaultOutcome::NumOutcomes);

const char *faultOutcomeName(FaultOutcome outcome);

/**
 * Map one checked run to its campaign classification. Degraded runs
 * are Detected (fail-stop is loud), exhausted budgets are Hang unless
 * a detector fired first, correct-output completions split Masked /
 * Recovered / Detected on whether recovery had to act, and silent
 * wrong output is Sdc — or Hang if the PC froze past the (possibly
 * disarmed) watchdog's trip point. Shared by the injection campaigns
 * and the fleet lifecycle engine.
 */
FaultOutcome classifyCheckedRun(const CheckedRunSummary &run,
                                const DetectorConfig &detectors);

/**
 * Largest accepted workUnits of a campaign run or a fleet mission
 * (existing callers use at most 12). runFaultCampaign and
 * FleetEngine reject a value outside [1, kMaxWorkUnits] with
 * FatalError instead of generating inputs for it.
 */
constexpr size_t kMaxWorkUnits = 1024;

/** Result of one injection. */
struct InjectionResult
{
    FaultKind kind = FaultKind::TransientNet;
    FaultOutcome outcome = FaultOutcome::Masked;
    CheckedOutcome runOutcome = CheckedOutcome::Completed;
    bool outputsCorrect = false;
    unsigned detections = 0;
    unsigned retries = 0;
    unsigned restarts = 0;
    uint64_t cycles = 0;
    std::string firstDetector;
};

/** Configuration of one campaign. */
struct CampaignConfig
{
    IsaKind isa = IsaKind::FlexiCore4;
    /** Kernel under test (fc4/ext/ls ISAs). */
    KernelId kernel = KernelId::Thresholding;
    /** Program under test when isa == FlexiCore8 (index into
     *  Fc8Program; the fc8 suite has its own program set). */
    unsigned fc8Program = 0;
    uint64_t seed = 1;
    /** Number of injection runs. */
    unsigned injections = 96;
    /** Units of work per run, in [1, kMaxWorkUnits]. */
    size_t workUnits = 6;
    /** Fault-kind mix (remainder goes to TimingGlitch). */
    double pTransient = 0.4;
    double pFlip = 0.4;
    /** Per-cycle upset probability for TimingGlitch injections. */
    double glitchRate = 0.02;
    DetectorConfig detectors;
    RecoveryPolicy recovery;
    /** 0 = auto, 1 = serial (bit-identical either way). */
    unsigned threads = 0;
    uint64_t maxInstructions = 60000;
    /**
     * Prescreen width of the population run (runCheckedPopulation):
     * up to batchLanes injections (at most 512) share one
     * unprotected word-parallel lockstep pass, whose lanes that
     * never diverge from golden are classified Masked directly; the
     * rest run the lane-parallel checked runtime, 64 to a word.
     * 1 skips the prescreen, so every injection takes the checked
     * runtime. Outcomes are bit-identical for any value (the
     * prescreen only skips work it can prove).
     */
    unsigned batchLanes = 512;
};

/** Aggregated classification counts. */
struct CampaignCounts
{
    std::array<uint64_t, kNumFaultOutcomes> n{};

    uint64_t operator[](FaultOutcome o) const
    {
        return n[static_cast<size_t>(o)];
    }
    uint64_t total() const;
};

/** Result of one campaign. */
struct CampaignResult
{
    CampaignConfig config;
    /** Fault-free reference run. */
    uint64_t baselineCycles = 0;
    uint64_t baselineInstructions = 0;
    bool baselineCorrect = false;

    std::vector<InjectionResult> injections;

    CampaignCounts counts() const;
};

/**
 * Run a fault-injection campaign. The die is a pristine copy of the
 * core's golden netlist per injection; callers wanting campaigns on
 * defective dies should use the salvage layer instead.
 */
CampaignResult runFaultCampaign(const CampaignConfig &config);

/**
 * Injection @p index's fault kind and schedule, as the campaign
 * draws it over a fault-free baseline of @p baseline_cycles on
 * @p golden. Depends only on the seed, the index, the netlist shape
 * and the baseline — deliberately NOT on the detector/recovery
 * settings, so campaigns differing only in protection inject
 * identical faults.
 */
std::pair<FaultKind, FaultSchedule>
injectionSchedule(const CampaignConfig &cfg, const Netlist &golden,
                  uint64_t baseline_cycles, unsigned index);

} // namespace flexi

#endif // FLEXI_RESILIENCE_FAULT_CAMPAIGN_HH
