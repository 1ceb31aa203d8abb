/**
 * @file
 * Detect-and-recover checked execution harness.
 *
 * The paper motivates field reprogrammability as the repair story for
 * flexible parts (Section 5) but never simulates the repair loop.
 * This harness closes that gap: it runs a (possibly faulty) gate-level
 * die in lockstep fashion against the architectural golden model —
 * the same die-drives-its-own-PC methodology as runLockstep() — while
 * layering on
 *
 *  - pluggable *detectors*: an output-signature CRC compared at every
 *    checkpoint, a PC-progress watchdog with a cycle-budget timeout,
 *    and (the expensive option) full per-instruction lockstep compare
 *    of the PC and OPORT pads; and
 *  - a *recovery policy*: periodic checkpoints of the die's DFF state
 *    plus the architectural model, rollback on detection with bounded
 *    retries, escalation to one full restart (modeling a re-page of
 *    the program through the off-chip MMU), and finally declaring the
 *    die degraded.
 *
 * Transient upsets injected via Netlist::injectTransient() live on
 * the die's monotonic cycle clock, so a rolled-back replay naturally
 * runs *after* the upset window — retry genuinely repairs transient
 * faults, while stuck-at defects survive rollback and restart and
 * escalate to Degraded, exactly the triage the salvage binning needs.
 *
 * Populations of dies — fault campaigns, salvage binning, fleet
 * epochs — all take one path: the golden trajectory is recorded once
 * as a read-only GoldenTape (checkedTape(); netlist/golden_tape.hh,
 * with crc8()), whose length is the fault-free run the fault windows
 * are drawn over, and runCheckedPopulation() runs the dies against
 * it: dies without an in-field event that share a defect list share
 * one run, a word-parallel prescreen settles the runs no detector
 * could fire on, and the rest run the same runtime 64 to a LaneGroup
 * word; end states come back packed, a few words per run. The scalar
 * runChecked() is the oracle every half is tested against.
 */

#ifndef FLEXI_RESILIENCE_CHECKED_RUN_HH
#define FLEXI_RESILIENCE_CHECKED_RUN_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "assembler/program.hh"
#include "netlist/golden_tape.hh"
#include "netlist/lane_group.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/** Which detectors the checked runtime arms. */
struct DetectorConfig
{
    /** Per-instruction PC/OPORT pad compare against golden. */
    bool lockstep = false;
    /** Output-stream CRC compared at each checkpoint and at the end. */
    bool outputCrc = true;
    /** Die-PC progress watchdog. */
    bool watchdog = true;
    /** Watchdog trip point: die PC unchanged for this many cycles. */
    uint64_t watchdogCycles = 192;
};

/** Checkpoint/rollback recovery policy. */
struct RecoveryPolicy
{
    /** Act on detections (off = detect-only, fail-stop reporting). */
    bool enabled = true;
    /** Instructions between checkpoints. */
    unsigned checkpointInstructions = 32;
    /** Rollback attempts per checkpoint before escalating. */
    unsigned maxRetries = 2;
    /** Escalate to one full restart (MMU re-page) before giving up. */
    bool allowRestart = true;
};

/** How a checked run ended. */
enum class CheckedOutcome : uint8_t
{
    Completed,         ///< produced the requested outputs (or halted)
    Degraded,          ///< recovery exhausted; die declared degraded
    BudgetExhausted,   ///< instruction/cycle budget ran out
};

const char *checkedOutcomeName(CheckedOutcome outcome);

/**
 * What population studies keep of a checked run, per die: the fields
 * campaign classification (classifyCheckedRun), salvage binning and
 * the fleet's die records read. A die's end state travels packed in
 * its PopulationResult, not here.
 */
struct CheckedRunSummary
{
    CheckedOutcome outcome = CheckedOutcome::Completed;
    /** Die output stream identical to the golden model's? */
    bool outputsCorrect = false;

    unsigned detections = 0;
    unsigned retries = 0;
    unsigned restarts = 0;

    uint64_t cycles = 0;         ///< die cycles driven (incl. replays)
    /**
     * Longest PC freeze, kept even when the watchdog is disarmed.
     * Dies runCheckedPopulation() settles in its prescreen report 0:
     * their classification never reads it.
     */
    uint64_t maxPcFrozenCycles = 0;

    /** Detector that fired first ("crc" / "watchdog" / "lockstep",
     *  static strings), empty if none did. */
    std::string_view firstDetector;
};

/** Full result of one checked run. */
struct CheckedRunResult : CheckedRunSummary
{
    /** The die's DFF state when the run ended (the state the part
     *  powers down with), in saveDffState() layout. */
    std::vector<uint8_t> endDff;

    uint64_t instructions = 0;   ///< golden instructions executed
    /** Ground truth kept even when the detectors are disarmed. */
    uint64_t padMismatches = 0;

    std::vector<uint8_t> dieOutputs;
    std::vector<uint8_t> goldenOutputs;
};

/** A schedule of in-field fault events to apply while running. */
struct FaultSchedule
{
    /** Time-windowed net upsets (absolute die cycles). */
    std::vector<TransientFault> transients;

    /** One-shot DFF state flips, applied when the die clock reaches
     *  the given cycle (never re-applied on rollback — a flip is a
     *  real-time event, not part of the program). */
    struct DffFlip
    {
        uint64_t cycle = 0;
        size_t dff = 0;
    };
    std::vector<DffFlip> flips;
};

/** Configuration of one checked run. */
struct CheckedRunConfig
{
    IsaKind isa = IsaKind::FlexiCore4;
    DetectorConfig detectors;
    RecoveryPolicy recovery;
    /** Outputs to produce; 0 = run until the golden model halts. */
    size_t targetOutputs = 0;
    uint64_t maxInstructions = 100000;
    /** Die cycle budget; 0 = maxInstructions * 8 + 1024. */
    uint64_t maxCycles = 0;
};

/** Largest maxInstructions a derived cycle budget takes (far below
 *  where maxInstructions * 8 + 1024 wraps). */
constexpr uint64_t kMaxInstructionBudget = 1ull << 60;
/** Largest watchdogCycles (far below where watchdogCycles + 1, the
 *  trip point, wraps). */
constexpr uint64_t kMaxWatchdogCycles = 1ull << 60;

/**
 * The golden tape a checked run of @p prog on @p inputs under @p cfg
 * reads, within cfg's budgets. Its last point is the fault-free run:
 * done, after elapsed die cycles and last() instructions, or out of
 * budget. FatalError naming the field when cfg's budget or watchdog
 * is past its bound above.
 */
GoldenTape checkedTape(const Program &prog,
                       const std::vector<uint8_t> &inputs,
                       const CheckedRunConfig &cfg);

/**
 * Run @p prog on the gate-level die @p die under the checked runtime.
 *
 * @param die an elaborated netlist for cfg.isa (cloned dies with
 *        stuck-at faults welcome); reset() is called on entry, the
 *        schedule's transients are injected on top of whatever
 *        faults the caller installed
 * @param prog the assembled program (multi-page programs page through
 *        an off-chip MMU on both the golden and the die side)
 * @param inputs input-bus values, consumed per architectural read
 * @param cfg detectors, recovery policy and budgets
 * @param schedule in-field fault events (empty = fault-free run)
 */
CheckedRunResult runChecked(Netlist &die, const Program &prog,
                            const std::vector<uint8_t> &inputs,
                            const CheckedRunConfig &cfg,
                            const FaultSchedule &schedule = {});

/**
 * What runCheckedPopulation() returns: one result per simulated run,
 * for every die the run it took, and the fault-free run.
 */
struct PopulationResult
{
    /** Per die, in die order: its index into runs. */
    std::vector<uint32_t> runOf;
    /** One summary per simulated run. */
    std::vector<CheckedRunSummary> runs;
    /** The run of a die with no defect and no event: those dies'
     *  shared run, or one extra lane's kept out of runs. Completed and
     *  correct unless the netlist is broken or the budget too small. */
    CheckedRunSummary faultFree;
    /**
     * Words per run of endState: LaneGroup::dffStateWords() of the
     * golden netlist when end state was captured, else 0.
     */
    size_t stateWords = 0;
    /**
     * Every run's DFF state when it ended (the state the part powers
     * down with), packed as LaneGroup::packDffState() packs a lane.
     */
    std::vector<uint64_t> endState;

    /** Dies in the population. */
    size_t size() const { return runOf.size(); }
    /** Die @p i's result. */
    const CheckedRunSummary &die(size_t i) const { return runs[runOf[i]]; }
    /** Die @p i's packed end state (stateWords words). */
    const uint64_t *
    endDff(size_t i) const
    {
        return endState.data() + runOf[i] * stateWords;
    }
};

/**
 * The checked runtime over a population of dies. Die i runs the
 * program @p tape was recorded from, checkedTape(prog, inputs, cfg),
 * under *schedules[i], with (*stuck)[i]'s stuck-at faults installed
 * when given (null entries allowed), and result i is what
 * runChecked() returns for a clone of @p golden — fault-free and
 * with its die clock at 0, as built — carrying those faults, cut
 * down to a CheckedRunSummary (PopulationResult::die) plus, with
 * @p captureEndState, its endDff packed (PopulationResult::endDff).
 *
 * The one tape serves the whole call. Schedules come by pointer, so
 * a caller may keep them in storage it reuses from call to call (the
 * fleet's per-thread slice pools, fleet/fleet.hh) and point many dies
 * at one: a fleet points all its event-free dies at one empty
 * schedule. Dies whose schedules hold no transient and no flip, and
 * whose stuck-at lists are the same object (or both null or empty),
 * would run identical missions, so they share one simulated run — in
 * a fleet most dies see no in-field event and most parts share a
 * defect list, so an epoch costs in proportion to its events;
 * nothing survives the call. The runs are
 * prescreened in blocks of @p prescreenLanes (clamped to
 * 1..LaneGroup::kMaxLanes; 1 skips the prescreen) against the tape;
 * the runs a block cannot prove clean then run the lane-parallel
 * checked runtime against the same tape, in die order, in one-word
 * groups of checkedLanesPerGroup() lanes. Blocks and groups spread
 * over @p threads workers (0 = the thread pool's default). A die's
 * result depends on neither its block, its group, its sharing nor
 * the thread count. An empty population has no runs but a faultFree.
 */
PopulationResult
runCheckedPopulation(const Netlist &golden, const GoldenTape &tape,
                     const CheckedRunConfig &cfg,
                     const std::vector<const FaultSchedule *> &schedules,
                     const std::vector<const std::vector<StuckFault> *>
                         *stuck,
                     unsigned prescreenLanes, unsigned threads,
                     bool captureEndState);

/**
 * The second half of runCheckedPopulation() on its own: the checked
 * runtime for up to 64 dies, one per lane of a one-word LaneGroup of
 * @p golden's structure, lane L carrying (*laneFaults)[L]'s stuck-ats
 * when given and *schedules[L]. Each lane has its own CRC-8
 * signatures, PC watchdog, lockstep compare, checkpoints, counters,
 * input cursor and die-side MMU page, and drives a die cycle on
 * every group cycle until its run ends, so its die clock reads as in
 * its scalar run; rollback and restart move its cursor back along
 * the golden tape. Result L equals runChecked() on a clone of
 * @p golden with lane L's faults, in every field.
 */
std::vector<CheckedRunResult>
runCheckedLanes(const Netlist &golden, const Program &prog,
                const std::vector<uint8_t> &inputs,
                const CheckedRunConfig &cfg,
                const std::vector<const FaultSchedule *> &schedules,
                const std::vector<const std::vector<StuckFault> *>
                    *laneFaults = nullptr);

/**
 * Lanes per runCheckedLanes() group when @p dies dies share
 * @p threads workers (0 = the thread pool's default): enough groups
 * to give every worker one, at most one 64-lane word each. Results
 * never depend on it — a lane's result is independent of its group.
 */
unsigned checkedLanesPerGroup(size_t dies, unsigned threads);

/** Result of a batched lockstep prescreen of fault schedules. */
struct PrescreenResult
{
    /**
     * Lanes proven clean: the die's PC/OPORT pads matched golden at
     * every instruction boundary, the PC never froze past an armed
     * watchdog, and the run completed within budget. A clean lane's
     * full runChecked() result is known without running it: outcome
     * Completed, outputs correct, zero detections/retries/restarts,
     * and cycles equal to the prescreen's cycle count. Bit L of word
     * w covers lane w*64 + L; query with clean().
     */
    std::array<uint64_t, LaneGroup::kMaxWords> cleanMask{};

    bool
    clean(unsigned lane) const
    {
        return (cleanMask[lane / 64] >> (lane % 64)) & 1ull;
    }
    /** Die cycles driven (the clean lanes' runChecked cycles). */
    uint64_t cycles = 0;
    /** Golden run reached done() within the instruction/cycle
     *  budgets (false means every lane must be re-run). */
    bool completed = false;
    /**
     * Every lane's end-of-run DFF state, packed as
     * LaneGroup::packDffState() packs it (stateWords words per lane),
     * only filled when the prescreen was asked to capture end state
     * and completed. Meaningful for clean lanes (the scalar
     * runChecked endDff, packed); dirty lanes' entries are whatever
     * the unprotected pass left behind and must not be consumed.
     */
    size_t stateWords = 0;
    std::vector<uint64_t> endState;
};

/**
 * The first half of runCheckedPopulation() on its own: drive up to
 * LaneGroup::kMaxLanes (512) dies — *schedules[L], plus
 * (*laneFaults)[L]'s stuck-ats when given — through one unprotected
 * word-parallel lockstep pass of @p prog against the golden tape,
 * and prove which lanes a scalar runChecked() under @p cfg would see
 * run fault-free. The tape supplies every boundary's PC/OPORT
 * targets, each instruction's held input and cycle count, the
 * done/budget test and the page a golden-tracking die fetches from.
 * Lanes not in cleanMask must run the checked runtime for their
 * exact outcome.
 *
 * Sound for any DetectorConfig/RecoveryPolicy: detectors and
 * recovery only alter a run after a detection, and a clean lane —
 * pads matching golden at every boundary, defects and all — never
 * triggers one: the lockstep and final output compares see no
 * mismatch, the output CRCs agree at every checkpoint, and a lane
 * whose PC freezes past an armed watchdog is retired as not clean.
 * @p captureEndState also snapshots every lane's end state into
 * PrescreenResult::endState.
 */
PrescreenResult
prescreenSchedules(const Netlist &golden, const Program &prog,
                   const std::vector<uint8_t> &inputs,
                   const CheckedRunConfig &cfg,
                   const std::vector<const FaultSchedule *> &schedules,
                   const std::vector<const std::vector<StuckFault> *>
                       *laneFaults = nullptr,
                   bool captureEndState = false);

} // namespace flexi

#endif // FLEXI_RESILIENCE_CHECKED_RUN_HH
