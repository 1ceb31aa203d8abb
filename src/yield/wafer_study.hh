/**
 * @file
 * Monte-Carlo wafer study: the reproduction of Section 4's yield and
 * process-variation experiments (Table 5, Figures 6 and 7).
 *
 * For every die site the model samples a manufacturing outcome; the
 * die is then "probed" at 3 V and 4.5 V exactly as on the MPI probe
 * station: defective dies are gate-level fault-simulated against the
 * golden model over the directed+random vector suite (in lane
 * groups, against one golden tape per wafer: runLockstepGroup),
 * timing-marginal dies produce margin-dependent intermittent errors,
 * and a die counts as fully functional only with zero output errors.
 */

#ifndef FLEXI_YIELD_WAFER_STUDY_HH
#define FLEXI_YIELD_WAFER_STUDY_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "isa/isa.hh"
#include "netlist/netlist.hh"
#include "yield/die_model.hh"
#include "yield/wafer.hh"

namespace flexi
{

/** Probe-station result for one die at one supply voltage. */
struct DieProbe
{
    uint64_t errors = 0;
    double currentA = 0.0;
    bool functional() const { return errors == 0; }
};

/** Full result for one die. */
struct DieResult
{
    DieSite site;
    DieSample sample;
    DieProbe at3V;
    DieProbe at45V;
    /**
     * The stuck-at faults injected into this die's netlist (empty
     * for defect-free dies or statistical-only runs). Recording them
     * lets downstream passes — notably salvage binning — rebuild the
     * exact faulty die without replaying the study's RNG streams.
     */
    std::vector<StuckFault> faults;
};

/** Configuration of one wafer run. */
struct WaferStudyConfig
{
    IsaKind isa = IsaKind::FlexiCore4;
    uint64_t seed = 1;
    /** Test length per die (cycles). The fab used >100k; the default
     *  keeps the gate-level fault sims of defective dies fast while
     *  preserving the pass/fail statistics. */
    uint64_t testCycles = 1500;
    /** Gate-level fault simulation for defective dies (vs. a purely
     *  statistical error count). */
    bool gateLevelErrors = true;
    /**
     * Worker threads for the die loop: 0 = auto (FLEXI_THREADS env
     * var, else hardware concurrency), 1 = single-threaded. Every
     * die draws from its own RNG stream seeded by (seed,
     * site.index), so results are bit-identical for any value.
     */
    unsigned threads = 0;
    /**
     * Bit-parallel lanes for the gate-level fault sim of defective
     * dies: dies are packed in index order up to batchLanes to a
     * LaneGroup (the wide-lane compiled backend; values above 512
     * clamp to it, 0 and 1 give one-lane groups), and every group
     * runs against the wafer's one golden tape. Every die still
     * draws from its own (seed, site.index) RNG stream and the
     * lockstep error counts are lane-exact, so yields, per-die error
     * counts, and fault lists are bit-identical for any value.
     */
    unsigned batchLanes = 512;
    DieModelParams params;
};

/** Result of a wafer run. */
struct WaferStudyResult
{
    WaferStudyConfig config;
    DesignSpec spec;
    std::vector<DieResult> dies;

    /** Fraction of functional dies at @p vdd. */
    double yield(double vdd, bool inclusion_only) const;
    /** Current-draw statistics over functional dies at @p vdd. */
    RunningStat currentStats(double vdd) const;
};

/** Extract the DesignSpec of a fabricated core from its netlist. */
DesignSpec designSpecFor(IsaKind isa);

/** Run the study for one wafer. */
WaferStudyResult runWaferStudy(const WaferStudyConfig &config);

} // namespace flexi

#endif // FLEXI_YIELD_WAFER_STUDY_HH
