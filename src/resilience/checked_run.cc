#include "checked_run.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "isa/encoding.hh"
#include "netlist/lane_group.hh"
#include "sim/core_sim.hh"
#include "sim/environment.hh"
#include "sim/mmu.hh"

namespace flexi
{

const char *
checkedOutcomeName(CheckedOutcome outcome)
{
    switch (outcome) {
      case CheckedOutcome::Completed: return "completed";
      case CheckedOutcome::Degraded: return "degraded";
      case CheckedOutcome::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

namespace
{

constexpr unsigned kNoPc = ~0u;

/** Die cycle budget of a run: cfg.maxCycles, or derived from
 *  cfg.maxInstructions. FatalError where the budget or the
 *  watchdog's trip point would wrap. */
uint64_t
cycleBudget(const CheckedRunConfig &cfg)
{
    if (cfg.detectors.watchdogCycles > kMaxWatchdogCycles)
        fatal("checked run: watchdogCycles must be at most %llu, got %llu",
              static_cast<unsigned long long>(kMaxWatchdogCycles),
              static_cast<unsigned long long>(
                  cfg.detectors.watchdogCycles));
    if (cfg.maxCycles)
        return cfg.maxCycles;
    if (cfg.maxInstructions > kMaxInstructionBudget)
        fatal("checked run: maxInstructions must be at most %llu, got "
              "%llu",
              static_cast<unsigned long long>(kMaxInstructionBudget),
              static_cast<unsigned long long>(cfg.maxInstructions));
    return cfg.maxInstructions * 8 + 1024;
}

/** The lane inputs of a group: one schedule per lane and, when not
 *  empty, one stuck-at list (or null) per lane. */
using ScheduleSpan = std::span<const FaultSchedule *const>;
using StuckSpan = std::span<const std::vector<StuckFault> *const>;

/** @p schedule's flips in die-clock order. */
std::vector<FaultSchedule::DffFlip>
flipsInOrder(const FaultSchedule &schedule)
{
    std::vector<FaultSchedule::DffFlip> flips = schedule.flips;
    std::sort(flips.begin(), flips.end(),
              [](const FaultSchedule::DffFlip &a,
                 const FaultSchedule::DffFlip &b) {
                  return a.cycle < b.cycle;
              });
    return flips;
}

class CheckedRunner
{
  public:
    CheckedRunner(Netlist &die, const Program &prog,
                  const std::vector<uint8_t> &inputs,
                  const CheckedRunConfig &cfg,
                  const FaultSchedule &schedule)
        : die_(die), prog_(prog), inputs_(inputs), cfg_(cfg)
    {
        if (!die.elaborated())
            fatal("checked run needs an elaborated netlist");
        pads_ = padsOf(die, cfg.isa);
        wide_ = wideFetch(cfg.isa);
        wordPc_ = cfg.isa == IsaKind::LoadStore4;
        width_ = isaDataWidth(cfg.isa);

        multiPage_ = prog.numPages() > 1;
        if (multiPage_)
            paged_ = std::make_unique<PagedEnvironment>(env_);
        tcfg_.isa = cfg.isa;

        maxCycles_ = cycleBudget(cfg);

        die_.reset();
        for (const auto &t : schedule.transients)
            die_.injectTransient(t);
        flips_ = flipsInOrder(schedule);

        freshGolden();
        takeCheckpoint();
    }

    CheckedRunResult
    run()
    {
        while (true) {
            if (done()) {
                bool mismatch = dieOut_ != env_.outputs;
                bool armed = cfg_.detectors.outputCrc ||
                             cfg_.detectors.lockstep;
                if (mismatch && armed) {
                    if (!onDetection(cfg_.detectors.outputCrc
                                         ? "crc" : "lockstep"))
                        break;           // degraded
                    if (recoveryActed_)
                        continue;        // rolled back; resume
                    // detect-only: recorded, complete as-is
                }
                res_.outcome = CheckedOutcome::Completed;
                break;
            }
            if (res_.instructions >= cfg_.maxInstructions ||
                res_.cycles >= maxCycles_) {
                res_.outcome = CheckedOutcome::BudgetExhausted;
                break;
            }
            if (!stepInstruction())
                break;                   // degraded mid-step
        }
        res_.dieOutputs = dieOut_;
        res_.goldenOutputs = env_.outputs;
        res_.outputsCorrect = res_.outcome == CheckedOutcome::Completed &&
                              dieOut_ == env_.outputs;
        res_.endDff = die_.saveDffState();
        return res_;
    }

  private:
    struct Checkpoint
    {
        std::vector<uint8_t> dff;
        std::unique_ptr<CoreSim> golden;
        size_t inputIdx = 0;
        uint8_t held = 0;
        size_t dieOutSize = 0;
        size_t goldenOutSize = 0;
        uint8_t dieCrc = 0;
        uint8_t goldenCrc = 0;
        Mmu dieMmu;
        unsigned diePage = 0;
        Mmu goldenMmu;
        unsigned lastDiePc = kNoPc;
        uint64_t frozen = 0;
    };

    Environment &
    goldenEnv()
    {
        return paged_ ? static_cast<Environment &>(*paged_)
                      : static_cast<Environment &>(env_);
    }

    void
    freshGolden()
    {
        golden_ = std::make_unique<CoreSim>(tcfg_, prog_, goldenEnv());
    }

    bool
    done() const
    {
        if (golden_->halted())
            return true;
        return cfg_.targetOutputs &&
               env_.outputs.size() >= cfg_.targetOutputs;
    }

    void
    pushDieOut(uint8_t value)
    {
        dieOut_.push_back(value);
        dieCrc_ = crc8(dieCrc_, value);
    }

    void
    applyDueFlips()
    {
        while (flipIdx_ < flips_.size() &&
               flips_[flipIdx_].cycle <= die_.cycle()) {
            if (die_.numDffs())
                die_.flipDff(flips_[flipIdx_].dff % die_.numDffs());
            ++flipIdx_;
        }
    }

    void
    takeCheckpoint()
    {
        if (cfg_.recovery.enabled) {
            cp_.dff = die_.saveDffState();
            cp_.golden = std::make_unique<CoreSim>(*golden_);
            cp_.inputIdx = inputIdx_;
            cp_.held = env_.held;
            cp_.dieOutSize = dieOut_.size();
            cp_.goldenOutSize = env_.outputs.size();
            cp_.dieCrc = dieCrc_;
            cp_.goldenCrc = goldenCrc_;
            cp_.dieMmu = dieMmu_;
            cp_.diePage = diePage_;
            if (paged_)
                cp_.goldenMmu = paged_->mmu();
            cp_.lastDiePc = lastDiePc_;
            cp_.frozen = frozen_;
        }
        instrSinceCp_ = 0;
        retriesSinceCp_ = 0;
    }

    void
    rollback()
    {
        die_.restoreDffState(cp_.dff);
        die_.evaluate();   // re-expose the restored state on the pads
        golden_ = std::make_unique<CoreSim>(*cp_.golden);
        inputIdx_ = cp_.inputIdx;
        env_.held = cp_.held;
        env_.outputs.resize(cp_.goldenOutSize);
        dieOut_.resize(cp_.dieOutSize);
        dieCrc_ = cp_.dieCrc;
        goldenCrc_ = cp_.goldenCrc;
        dieMmu_ = cp_.dieMmu;
        diePage_ = cp_.diePage;
        if (paged_)
            paged_->mmu() = cp_.goldenMmu;
        lastDiePc_ = cp_.lastDiePc;
        frozen_ = cp_.frozen;
        instrSinceCp_ = 0;
    }

    /**
     * Escalation step two: power-cycle the die and re-page the whole
     * program through the off-chip MMU from scratch. The die's
     * monotonic transient clock keeps counting, so past upset windows
     * do not re-fire on the second attempt.
     */
    void
    restart()
    {
        die_.reset();
        dieMmu_.reset();
        diePage_ = 0;
        env_.outputs.clear();
        env_.held = 0;
        if (paged_)
            paged_->mmu().reset();
        dieOut_.clear();
        dieCrc_ = 0;
        goldenCrc_ = 0;
        inputIdx_ = 0;
        freshGolden();
        lastDiePc_ = kNoPc;
        frozen_ = 0;
        takeCheckpoint();
    }

    /**
     * A detector fired. Returns false when the run must stop (die
     * declared degraded); sets recoveryActed_ when state was rolled
     * back or restarted (the caller abandons the current step).
     */
    bool
    onDetection(const char *detector)
    {
        ++res_.detections;
        if (res_.firstDetector.empty())
            res_.firstDetector = detector;
        recoveryActed_ = false;
        if (!cfg_.recovery.enabled)
            return true;                 // detect-only: report and go on
        if (retriesSinceCp_ < cfg_.recovery.maxRetries) {
            rollback();
            ++res_.retries;
            ++retriesSinceCp_;
            recoveryActed_ = true;
            return true;
        }
        if (cfg_.recovery.allowRestart && res_.restarts == 0) {
            restart();
            ++res_.restarts;
            recoveryActed_ = true;
            return true;
        }
        res_.outcome = CheckedOutcome::Degraded;
        return false;
    }

    bool
    stepInstruction()
    {
        // Decode at the *golden* PC (and page) to learn whether this
        // instruction samples the input bus; both models then see the
        // same held value, exactly as in runLockstep().
        const std::vector<uint8_t> &gimage =
            prog_.page(golden_->page());
        DecodeResult dec = decodeAt(cfg_.isa, gimage, golden_->pc());
        if (readsInput(dec.inst) && inputIdx_ < inputs_.size())
            env_.held = inputs_[inputIdx_++] &
                        static_cast<uint8_t>((1u << width_) - 1u);

        // Drive the die from its own PC pads — and its own MMU page.
        // A corrupted die can page its MMU register to a page the
        // program never filled; external memory there reads as a
        // floating (all-zero) bus, not as a harness error.
        static const std::vector<uint8_t> kUnmappedPage;
        unsigned cycles = wide_ ? 1 : dec.bytes;
        for (unsigned c = 0; c < cycles; ++c) {
            applyDueFlips();
            const std::vector<uint8_t> &dimage =
                diePage_ < prog_.numPages() ? prog_.page(diePage_)
                                            : kUnmappedPage;
            auto fetch = [&](unsigned addr) -> uint8_t {
                return addr < dimage.size() ? dimage[addr] : 0;
            };
            unsigned diePc = die_.bus(pads_.pc);
            if (wide_) {
                unsigned base = wordPc_ ? diePc * 2 : diePc;
                die_.setBus(pads_.instr,
                            fetch(base) | (fetch(base + 1) << 8));
            } else {
                die_.setBus(pads_.instr, fetch(diePc));
            }
            die_.setBus(pads_.iport, env_.held);
            die_.evaluate();
            die_.clockEdge();
            die_.evaluate();   // expose new state on the pads
            ++res_.cycles;

            unsigned newPc = die_.bus(pads_.pc);
            if (newPc == lastDiePc_) {
                ++frozen_;
            } else {
                frozen_ = 0;
                lastDiePc_ = newPc;
            }
            res_.maxPcFrozenCycles =
                std::max(res_.maxPcFrozenCycles, frozen_);
            // Edge-triggered so a detect-only run logs one event per
            // freeze episode instead of one per stuck cycle.
            if (cfg_.detectors.watchdog &&
                frozen_ == cfg_.detectors.watchdogCycles + 1) {
                if (!onDetection("watchdog"))
                    return false;
                if (recoveryActed_)
                    return true;         // instruction abandoned
            }
        }

        uint64_t prevIo = golden_->stats().ioWrites;
        uint64_t prevTb = golden_->stats().takenBranches;
        size_t prevGoldenOut = env_.outputs.size();
        golden_->step();
        ++res_.instructions;

        // Mirror the probe methodology: the die's output value for
        // this event is whatever its OPORT pads carry when the golden
        // model performs the write. Multi-page dies route it through
        // their own off-chip MMU FST.
        if (golden_->stats().ioWrites != prevIo) {
            uint8_t dieVal = static_cast<uint8_t>(die_.bus(pads_.oport));
            if (multiPage_) {
                for (uint8_t v : dieMmu_.onOutput(dieVal))
                    pushDieOut(v);
            } else {
                pushDieOut(dieVal);
            }
        }
        for (size_t i = prevGoldenOut; i < env_.outputs.size(); ++i)
            goldenCrc_ = crc8(goldenCrc_, env_.outputs[i]);
        if (multiPage_ && golden_->stats().takenBranches != prevTb) {
            int p = dieMmu_.takePendingPage();
            if (p >= 0)
                diePage_ = static_cast<unsigned>(p);
        }

        bool mismatch = die_.bus(pads_.pc) != golden_->pc() ||
                        die_.bus(pads_.oport) != golden_->outputLatch();
        res_.padMismatches += mismatch;
        if (mismatch && cfg_.detectors.lockstep) {
            if (!onDetection("lockstep"))
                return false;
            if (recoveryActed_)
                return true;
        }

        if (++instrSinceCp_ >= cfg_.recovery.checkpointInstructions) {
            bool crcBad = cfg_.detectors.outputCrc &&
                          (dieCrc_ != goldenCrc_ ||
                           dieOut_.size() != env_.outputs.size());
            if (crcBad) {
                if (!onDetection("crc"))
                    return false;
                if (recoveryActed_)
                    return true;
            }
            // Checkpoint only state the detectors call clean (or the
            // best we know in detect-only mode).
            takeCheckpoint();
        }
        return true;
    }

    Netlist &die_;
    const Program &prog_;
    const std::vector<uint8_t> &inputs_;
    const CheckedRunConfig &cfg_;

    Pads pads_;
    bool wide_ = false;
    bool wordPc_ = false;
    unsigned width_ = 4;
    bool multiPage_ = false;
    uint64_t maxCycles_ = 0;

    HeldInputEnv env_;
    std::unique_ptr<PagedEnvironment> paged_;
    TimingConfig tcfg_;
    std::unique_ptr<CoreSim> golden_;

    std::vector<FaultSchedule::DffFlip> flips_;
    size_t flipIdx_ = 0;

    Mmu dieMmu_;
    unsigned diePage_ = 0;
    std::vector<uint8_t> dieOut_;
    uint8_t dieCrc_ = 0;
    uint8_t goldenCrc_ = 0;
    size_t inputIdx_ = 0;

    unsigned lastDiePc_ = kNoPc;
    uint64_t frozen_ = 0;

    Checkpoint cp_;
    unsigned instrSinceCp_ = 0;
    unsigned retriesSinceCp_ = 0;
    bool recoveryActed_ = false;

    CheckedRunResult res_;
};

} // namespace

CheckedRunResult
runChecked(Netlist &die, const Program &prog,
           const std::vector<uint8_t> &inputs,
           const CheckedRunConfig &cfg, const FaultSchedule &schedule)
{
    CheckedRunner runner(die, prog, inputs, cfg, schedule);
    return runner.run();
}

GoldenTape
checkedTape(const Program &prog, const std::vector<uint8_t> &inputs,
            const CheckedRunConfig &cfg)
{
    return GoldenTape(cfg.isa, prog, inputs, cfg.maxInstructions,
                      cycleBudget(cfg), cfg.targetOutputs);
}

namespace
{

/**
 * A LaneGroup of @p golden's structure with one die per lane, each
 * lane's stuck-ats and transients installed and its flips queued in
 * die-clock order: what the prescreen and the lane runner share.
 * The group never evaluates past die cycle @p lastCycle (the
 * prescreen's is the tape's end), so a window that opens later is
 * left out: it could not move a force bit.
 */
class DieLanes
{
  public:
    DieLanes(const Netlist &golden, IsaKind isa, ScheduleSpan schedules,
             StuckSpan stuck, uint64_t lastCycle)
        : group(golden, static_cast<unsigned>(schedules.size())),
          pads(padsOf(golden, isa)),
          cone(group.padCone({&pads.pc, &pads.oport}))
    {
        if (!stuck.empty() && stuck.size() != schedules.size())
            fatal("checked run: %zu fault lists for %zu lanes",
                  stuck.size(), schedules.size());
        size_t dffs = group.numDffs();
        for (unsigned l = 0; l < schedules.size(); ++l) {
            if (!stuck.empty() && stuck[l])
                for (const StuckFault &f : *stuck[l])
                    group.injectFault(l, f);
            for (const auto &t : schedules[l]->transients)
                if (t.fromCycle <= lastCycle)
                    group.injectTransient(l, t);
            if (dffs)
                for (const FaultSchedule::DffFlip &f : schedules[l]->flips)
                    flips_.push_back({f.cycle, l, f.dff % dffs});
        }
        std::sort(flips_.begin(), flips_.end(),
                  [](const LaneFlip &a, const LaneFlip &b) {
                      return a.cycle < b.cycle;
                  });
    }

    /** Land every lane's flips that are due by the group clock (they
     *  land before the next fetch, as in CheckedRunner). A flip is an
     *  XOR, so flips due together land in any order. */
    void
    applyDueFlips()
    {
        for (; next_ < flips_.size() && flips_[next_].cycle <= group.cycle();
             ++next_)
            group.flipDff(flips_[next_].lane, flips_[next_].dff);
    }

    LaneGroup group;
    Pads pads;
    /** Post-edge pad sampling only reads the PC/OPORT pads, so the
     *  post-clock evaluate narrows to their fan-in cones. */
    LaneGroup::PadCone cone;

  private:
    struct LaneFlip
    {
        uint64_t cycle;
        unsigned lane;
        size_t dff;
    };
    std::vector<LaneFlip> flips_;   ///< every lane's, by cycle
    size_t next_ = 0;
};

/**
 * CheckedRunner over the lanes of one LaneGroup word. Each lane runs
 * the scalar runner's state machine on its own state; the group
 * clocks every running lane once per cycle, and between cycles each
 * lane that finished an instruction (or hit a detector) does its own
 * golden compare, checkpoint, rollback or restart.
 */
class LaneCheckedRunner
{
  public:
    LaneCheckedRunner(const GoldenTape &tape, const Netlist &golden,
                      const CheckedRunConfig &cfg, ScheduleSpan schedules,
                      StuckSpan stuck)
        : cfg_(cfg), maxCycles_(cycleBudget(cfg)), tape_(tape),
          dies_(golden, cfg.isa, schedules, stuck, ~0ull),
          lanes_(schedules.size()),
          stateWords_(dies_.group.dffStateWords()),
          endState_(lanes_.size() * stateWords_)
    {
        running_ = dies_.group.laneMaskWord(0);
    }

    std::vector<CheckedRunResult>
    run()
    {
        for (unsigned l = 0; l < lanes_.size(); ++l) {
            takeCheckpoint(l);
            advance(l);
        }
        std::array<uint8_t, LaneGroup::kWordLanes> pc{}, oport{},
            held{};
        std::array<uint32_t, LaneGroup::kWordLanes> instr{};
        while (running_) {
            // Fetch from each lane's own PC pads and MMU page, with
            // its own held input; flips land before the fetch.
            dies_.applyDueFlips();
            dies_.group.gatherBusBytes(dies_.pads.pc, pc.data());
            for (uint64_t m = running_; m; m &= m - 1) {
                unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
                Lane &ln = lanes_[l];
                instr[l] = tape_.fetch(ln.diePage)[pc[l] %
                                                   GoldenTape::kPcSpace];
                held[l] = tape_.at(ln.k).held;
            }
            dies_.group.setBusLanes(dies_.pads.instr, instr.data());
            dies_.group.setBusLanesBytes(dies_.pads.iport, held.data());
            dies_.group.evaluate();
            dies_.group.clockEdge();
            dies_.group.exposeState(dies_.cone);   // new state on the pads

            dies_.group.gatherBusBytes(dies_.pads.pc, pc.data());
            dies_.group.gatherBusBytes(dies_.pads.oport, oport.data());
            for (uint64_t m = running_; m; m &= m - 1) {
                unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
                afterCycle(l, pc[l], oport[l]);
            }

            // CheckedRunner re-evaluates a rolled-back die on the
            // spot. Lanes only diverge in DFF state, so one pad
            // re-expose per cycle serves every lane that rolled back
            // (for the rest it recomputes what the pads already
            // show) — but a restarted lane must keep the cleared
            // nets reset() left it, so reset it again afterwards.
            if (exposePending_) {
                dies_.group.exposeState(dies_.cone);
                for (uint64_t m = restarted_; m; m &= m - 1)
                    dies_.group.reset(
                        static_cast<unsigned>(__builtin_ctzll(m)));
            }
            exposePending_ = false;
            restarted_ = 0;
        }

        std::vector<CheckedRunResult> results;
        results.reserve(lanes_.size());
        for (Lane &ln : lanes_)
            results.push_back(std::move(ln.res));
        return results;
    }

    /** @name After run(): what a lane's result leaves out */
    ///@{
    /** Golden outputs up to where lane @p l ended. */
    uint32_t goldenOutputCount(unsigned l) const
    {
        return tape_.at(lanes_[l].k).outputs;
    }
    /** Lane @p l's end state, packed (LaneGroup::packDffState). */
    const uint64_t *endState(unsigned l) const
    {
        return endState_.data() + size_t(l) * stateWords_;
    }
    ///@}

  private:
    enum class Reaction
    {
        Ignored,     ///< detect-only: recorded, run goes on
        Recovered,   ///< rolled back or restarted
        Degraded,    ///< recovery exhausted; the lane has finished
    };

    /** CheckedRunner::Checkpoint, minus what the tape holds. */
    struct Checkpoint
    {
        std::vector<uint8_t> dff;
        size_t k = 0;
        size_t dieOutSize = 0;
        uint8_t dieCrc = 0;
        Mmu dieMmu;
        unsigned diePage = 0;
        unsigned lastDiePc = kNoPc;
        uint64_t frozen = 0;
    };

    struct Lane
    {
        CheckedRunResult res;   ///< dieOutputs doubles as the stream
        size_t k = 0;           ///< golden cursor
        unsigned cycle = 0;     ///< cycles of instruction k driven
        uint8_t dieCrc = 0;
        Mmu dieMmu;
        unsigned diePage = 0;
        unsigned lastDiePc = kNoPc;
        uint64_t frozen = 0;
        unsigned instrSinceCp = 0;
        unsigned retriesSinceCp = 0;
        Checkpoint cp;
    };

    void
    takeCheckpoint(unsigned l)
    {
        Lane &ln = lanes_[l];
        if (cfg_.recovery.enabled)
            ln.cp = {dies_.group.saveDffState(l), ln.k,
                     ln.res.dieOutputs.size(), ln.dieCrc, ln.dieMmu,
                     ln.diePage, ln.lastDiePc, ln.frozen};
        ln.instrSinceCp = 0;
        ln.retriesSinceCp = 0;
    }

    void
    rollback(unsigned l)
    {
        Lane &ln = lanes_[l];
        dies_.group.restoreDffState(l, ln.cp.dff);
        exposePending_ = true;
        restarted_ &= ~(1ull << l);
        ln.k = ln.cp.k;
        ln.res.dieOutputs.resize(ln.cp.dieOutSize);
        ln.dieCrc = ln.cp.dieCrc;
        ln.dieMmu = ln.cp.dieMmu;
        ln.diePage = ln.cp.diePage;
        ln.lastDiePc = ln.cp.lastDiePc;
        ln.frozen = ln.cp.frozen;
        ln.instrSinceCp = 0;
    }

    /** Power-cycle the die and re-page from scratch; the die clock
     *  (and with it the transient windows) keeps counting. */
    void
    restart(unsigned l)
    {
        Lane &ln = lanes_[l];
        dies_.group.reset(l);
        restarted_ |= 1ull << l;
        ln.dieMmu.reset();
        ln.diePage = 0;
        ln.res.dieOutputs.clear();
        ln.dieCrc = 0;
        ln.k = 0;
        ln.lastDiePc = kNoPc;
        ln.frozen = 0;
        takeCheckpoint(l);
    }

    Reaction
    onDetection(unsigned l, const char *detector)
    {
        Lane &ln = lanes_[l];
        ++ln.res.detections;
        if (ln.res.firstDetector.empty())
            ln.res.firstDetector = detector;
        if (!cfg_.recovery.enabled)
            return Reaction::Ignored;
        if (ln.retriesSinceCp < cfg_.recovery.maxRetries) {
            rollback(l);
            ++ln.res.retries;
            ++ln.retriesSinceCp;
            return Reaction::Recovered;
        }
        if (cfg_.recovery.allowRestart && ln.res.restarts == 0) {
            restart(l);
            ++ln.res.restarts;
            return Reaction::Recovered;
        }
        finish(l, CheckedOutcome::Degraded);
        return Reaction::Degraded;
    }

    void
    finish(unsigned l, CheckedOutcome outcome)
    {
        Lane &ln = lanes_[l];
        const std::vector<uint8_t> &gold = tape_.outputs();
        const std::vector<uint8_t> &out = ln.res.dieOutputs;
        ln.res.outcome = outcome;
        ln.res.outputsCorrect =
            outcome == CheckedOutcome::Completed &&
            out.size() == tape_.at(ln.k).outputs &&
            std::equal(out.begin(), out.end(), gold.begin());
        dies_.group.packDffState(l, endState_.data() + l * stateWords_);
        running_ &= ~(1ull << l);
    }

    /** CheckedRunner::run()'s loop head: finish, or start the next
     *  instruction. */
    void
    advance(unsigned l)
    {
        Lane &ln = lanes_[l];
        while (tape_.at(ln.k).done) {
            const GoldenTape::Point &end = tape_.at(ln.k);
            const std::vector<uint8_t> &gold = tape_.outputs();
            bool mismatch =
                ln.res.dieOutputs.size() != end.outputs ||
                !std::equal(ln.res.dieOutputs.begin(),
                            ln.res.dieOutputs.end(), gold.begin());
            bool armed = cfg_.detectors.outputCrc ||
                         cfg_.detectors.lockstep;
            if (mismatch && armed) {
                Reaction r = onDetection(
                    l, cfg_.detectors.outputCrc ? "crc" : "lockstep");
                if (r == Reaction::Degraded)
                    return;
                if (r == Reaction::Recovered)
                    continue;
            }
            finish(l, CheckedOutcome::Completed);
            return;
        }
        // A tape that is not done ends where the golden run ran out of
        // budget; a lane that gets there has too.
        if (ln.k == tape_.last() ||
            ln.res.instructions >= cfg_.maxInstructions ||
            ln.res.cycles >= maxCycles_) {
            finish(l, CheckedOutcome::BudgetExhausted);
            return;
        }
        ln.cycle = 0;
    }

    void
    pushDieOut(Lane &ln, uint8_t value)
    {
        ln.res.dieOutputs.push_back(value);
        ln.dieCrc = crc8(ln.dieCrc, value);
    }

    /** Lane @p l's share of CheckedRunner::stepInstruction() after
     *  one die cycle, given its post-edge pads. */
    void
    afterCycle(unsigned l, unsigned pc, uint8_t oport)
    {
        Lane &ln = lanes_[l];
        ++ln.res.cycles;
        if (pc == ln.lastDiePc) {
            ++ln.frozen;
        } else {
            ln.frozen = 0;
            ln.lastDiePc = pc;
        }
        ln.res.maxPcFrozenCycles =
            std::max(ln.res.maxPcFrozenCycles, ln.frozen);
        if (cfg_.detectors.watchdog &&
            ln.frozen == cfg_.detectors.watchdogCycles + 1) {
            Reaction r = onDetection(l, "watchdog");
            if (r == Reaction::Degraded)
                return;
            if (r == Reaction::Recovered) {
                advance(l);              // instruction abandoned
                return;
            }
        }
        if (++ln.cycle < tape_.at(ln.k).cycles)
            return;

        // Instruction boundary: the golden model steps.
        bool ioWrite = tape_.at(ln.k).ioWrite;
        bool takenBranch = tape_.at(ln.k).takenBranch;
        ++ln.k;
        ++ln.res.instructions;
        const GoldenTape::Point &now = tape_.at(ln.k);
        if (ioWrite) {
            if (tape_.multiPage()) {
                for (uint8_t v : ln.dieMmu.onOutput(oport))
                    pushDieOut(ln, v);
            } else {
                pushDieOut(ln, oport);
            }
        }
        if (tape_.multiPage() && takenBranch) {
            int p = ln.dieMmu.takePendingPage();
            if (p >= 0)
                ln.diePage = static_cast<unsigned>(p);
        }

        bool mismatch = pc != now.pc || oport != now.latch;
        ln.res.padMismatches += mismatch;
        if (mismatch && cfg_.detectors.lockstep) {
            Reaction r = onDetection(l, "lockstep");
            if (r == Reaction::Degraded)
                return;
            if (r == Reaction::Recovered) {
                advance(l);
                return;
            }
        }

        if (++ln.instrSinceCp >= cfg_.recovery.checkpointInstructions) {
            bool crcBad = cfg_.detectors.outputCrc &&
                          (ln.dieCrc != now.crc ||
                           ln.res.dieOutputs.size() != now.outputs);
            if (crcBad) {
                Reaction r = onDetection(l, "crc");
                if (r == Reaction::Degraded)
                    return;
                if (r == Reaction::Recovered) {
                    advance(l);
                    return;
                }
            }
            takeCheckpoint(l);
        }
        advance(l);
    }


    const CheckedRunConfig &cfg_;
    uint64_t maxCycles_;
    const GoldenTape &tape_;
    DieLanes dies_;
    std::vector<Lane> lanes_;

    size_t stateWords_;
    std::vector<uint64_t> endState_;   ///< per lane, at finish

    uint64_t running_ = 0;
    /** A lane rolled back this cycle: the pads need a re-expose. */
    bool exposePending_ = false;
    /** Lanes restarted this cycle (their nets stay cleared). */
    uint64_t restarted_ = 0;
};

/**
 * prescreenSchedules() over a recorded tape: one bit-parallel mirror
 * of CheckedRunner::stepInstruction() with all protection stripped —
 * flips before each fetch, per-lane fetch from the lane's own PC
 * pads, per-lane frozen-PC tracking, and the boundary PC/OPORT
 * compare against the tape. Any deviation retires the lane as not
 * clean, so the tape's held input and clean-die page only ever have
 * to be right for lanes that still track golden exactly.
 */
PrescreenResult
prescreen(const GoldenTape &tape, const Netlist &golden,
          const CheckedRunConfig &cfg, ScheduleSpan schedules,
          StuckSpan stuck, uint64_t *endState)
{
    unsigned lanes = static_cast<unsigned>(schedules.size());
    DieLanes dies(golden, cfg.isa, schedules, stuck,
                  tape.at(tape.last()).elapsed);
    LaneGroup &batch = dies.group;
    const Pads &pads = dies.pads;

    std::array<uint64_t, LaneGroup::kMaxWords> active{};
    for (unsigned w = 0; w < batch.words(); ++w)
        active[w] = batch.laneMaskWord(w);
    auto anyActive = [&]() {
        for (uint64_t m : active)
            if (m)
                return true;
        return false;
    };
    std::array<uint8_t, LaneGroup::kMaxLanes> diePc{};
    std::array<uint32_t, LaneGroup::kMaxLanes> lastPc;
    lastPc.fill(kNoPc);
    std::array<uint64_t, LaneGroup::kMaxLanes> frozen{};

    PrescreenResult res;
    size_t k = 0;
    for (;; ++k) {
        const GoldenTape::Point &p = tape.at(k);
        if (p.done) {
            res.completed = true;
            break;
        }
        if (k == tape.last() || !anyActive())
            break;

        for (unsigned c = 0; c < p.cycles; ++c) {
            dies.applyDueFlips();
            tape.driveFetch(batch, pads, p.page);
            batch.setBus(pads.iport, p.held);
            batch.evaluate();
            batch.clockEdge();
            batch.exposeState(dies.cone);   // new state on the pads

            // Frozen-PC tracking is only consumed by the watchdog
            // retire below; with no watchdog armed the per-lane PC
            // gather is dead work.
            if (!cfg.detectors.watchdog)
                continue;
            batch.gatherBusBytes(pads.pc, diePc.data());
            for (unsigned lane = 0; lane < lanes; ++lane) {
                uint64_t bit = 1ull << (lane % 64);
                if (!(active[lane / 64] & bit))
                    continue;
                if (diePc[lane] == lastPc[lane]) {
                    ++frozen[lane];
                } else {
                    frozen[lane] = 0;
                    lastPc[lane] = diePc[lane];
                }
                // An armed watchdog would fire here in the checked
                // runtime; that lane's trajectory is no longer the
                // unprotected one, so retire it as not clean.
                if (frozen[lane] ==
                    cfg.detectors.watchdogCycles + 1)
                    active[lane / 64] &= ~bit;
            }
        }

        // Boundary compare in the bit domain: clearing an already
        // retired lane's bit is a no-op, so no per-lane active test
        // is needed.
        const GoldenTape::Point &next = tape.at(k + 1);
        std::array<uint64_t, LaneGroup::kMaxWords> pcDiff;
        std::array<uint64_t, LaneGroup::kMaxWords> opDiff;
        batch.busMismatch(pads.pc, next.pc, pcDiff.data());
        batch.busMismatch(pads.oport, next.latch, opDiff.data());
        for (unsigned w = 0; w < batch.words(); ++w)
            active[w] &= ~(pcDiff[w] | opDiff[w]);
    }
    res.cycles = tape.at(k).elapsed;

    if (res.completed) {
        res.cleanMask = active;
        if (endState)
            batch.packDffState(endState);
    }
    return res;
}

/** Lane @p state (packed) as saveDffState() lays it out. */
std::vector<uint8_t>
unpackDffState(const uint64_t *state, size_t dffs)
{
    std::vector<uint8_t> bytes(dffs);
    for (size_t i = 0; i < dffs; ++i)
        bytes[i] = (state[i / 64] >> (i % 64)) & 1;
    return bytes;
}

} // namespace

std::vector<CheckedRunResult>
runCheckedLanes(const Netlist &golden, const Program &prog,
                const std::vector<uint8_t> &inputs,
                const CheckedRunConfig &cfg,
                const std::vector<const FaultSchedule *> &schedules,
                const std::vector<const std::vector<StuckFault> *>
                    *laneFaults)
{
    if (schedules.empty() || schedules.size() > LaneGroup::kWordLanes)
        fatal("runCheckedLanes: bad lane count %zu", schedules.size());
    GoldenTape tape = checkedTape(prog, inputs, cfg);
    LaneCheckedRunner runner(tape, golden, cfg, schedules,
                             laneFaults ? StuckSpan(*laneFaults)
                                        : StuckSpan());
    std::vector<CheckedRunResult> results = runner.run();
    const std::vector<uint8_t> &gold = tape.outputs();
    for (unsigned l = 0; l < results.size(); ++l) {
        results[l].goldenOutputs.assign(
            gold.begin(), gold.begin() + runner.goldenOutputCount(l));
        results[l].endDff =
            unpackDffState(runner.endState(l), golden.numDffs());
    }
    return results;
}

unsigned
checkedLanesPerGroup(size_t dies, unsigned threads)
{
    if (threads == 0)
        threads = ThreadPool::defaultThreads();
    size_t lanes = (dies + threads - 1) / threads;
    return static_cast<unsigned>(
        std::clamp<size_t>(lanes, 1, LaneGroup::kWordLanes));
}

PrescreenResult
prescreenSchedules(const Netlist &golden, const Program &prog,
                   const std::vector<uint8_t> &inputs,
                   const CheckedRunConfig &cfg,
                   const std::vector<const FaultSchedule *> &schedules,
                   const std::vector<const std::vector<StuckFault> *>
                       *laneFaults,
                   bool captureEndState)
{
    if (schedules.empty() || schedules.size() > LaneGroup::kMaxLanes)
        fatal("prescreenSchedules: bad lane count %zu",
              schedules.size());
    GoldenTape tape = checkedTape(prog, inputs, cfg);
    std::vector<uint64_t> endState;
    if (captureEndState)
        endState.resize(schedules.size() * LaneGroup::dffStateWords(golden.numDffs()));
    PrescreenResult res = prescreen(
        tape, golden, cfg, schedules,
        laneFaults ? StuckSpan(*laneFaults) : StuckSpan(),
        captureEndState ? endState.data() : nullptr);
    if (captureEndState && res.completed) {
        res.stateWords = endState.size() / schedules.size();
        res.endState = std::move(endState);
    }
    return res;
}

PopulationResult
runCheckedPopulation(const Netlist &golden, const GoldenTape &tape,
                     const CheckedRunConfig &cfg,
                     const std::vector<const FaultSchedule *> &schedules,
                     const std::vector<const std::vector<StuckFault> *>
                         *stuck,
                     unsigned prescreenLanes, unsigned threads,
                     bool captureEndState)
{
    size_t dies = schedules.size();
    if (stuck && stuck->size() != dies)
        fatal("runCheckedPopulation: %zu fault lists for %zu dies",
              stuck->size(), dies);
    cycleBudget(cfg);   // FatalError on an out-of-bound cfg, up front
    PopulationResult pop;

    // The runs to simulate, in die order of first appearance: a die
    // with an in-field event gets its own; event-free dies with the
    // same stuck-at list (null and empty alike) share one.
    pop.runOf.resize(dies);
    std::vector<const FaultSchedule *> scheds;
    std::vector<const std::vector<StuckFault> *> faults;
    std::unordered_map<const std::vector<StuckFault> *, uint32_t> shared;
    for (size_t i = 0; i < dies; ++i) {
        const std::vector<StuckFault> *f = stuck ? (*stuck)[i] : nullptr;
        if (f && f->empty())
            f = nullptr;
        const FaultSchedule *sched = schedules[i];
        auto next = static_cast<uint32_t>(scheds.size());
        if (sched->transients.empty() && sched->flips.empty()) {
            auto [it, fresh] = shared.try_emplace(f, next);
            pop.runOf[i] = it->second;
            if (!fresh)
                continue;
        } else {
            pop.runOf[i] = next;
        }
        scheds.push_back(sched);
        faults.push_back(f);
    }
    // The fault-free run: the event-free unfaulted dies', or one
    // more, simulated last and kept out of runs.
    const FaultSchedule noEvents;
    auto [guard, extra] = shared.try_emplace(
        nullptr, static_cast<uint32_t>(scheds.size()));
    if (extra) {
        scheds.push_back(&noEvents);
        faults.push_back(nullptr);
    }
    size_t runs = scheds.size();
    pop.runs.resize(runs);
    pop.stateWords = captureEndState ? LaneGroup::dffStateWords(golden.numDffs()) : 0;
    size_t sw = pop.stateWords;
    pop.endState.resize(runs * sw);

    // Phase 1: the word-parallel prescreen settles, block by block,
    // every run whose pads track golden all the way — most of them,
    // since an upset usually lands in logic the run never exercises.
    size_t width = std::clamp(prescreenLanes, 1u, LaneGroup::kMaxLanes);
    std::vector<uint8_t> settled(runs, 0);
    if (width > 1) {
        parallelFor((runs + width - 1) / width, threads, [&](size_t b) {
            size_t begin = b * width;
            size_t n = std::min(width, runs - begin);
            PrescreenResult ps = prescreen(
                tape, golden, cfg, {&scheds[begin], n},
                {&faults[begin], n},
                sw ? pop.endState.data() + begin * sw : nullptr);
            for (size_t l = 0; l < n; ++l) {
                if (!ps.clean(static_cast<unsigned>(l)))
                    continue;
                CheckedRunSummary &r = pop.runs[begin + l];
                r.outputsCorrect = true;
                r.cycles = ps.cycles;
                settled[begin + l] = 1;
            }
        });
    }

    // Phase 2: the checked runtime for every other run, packed in die
    // order (in place: the lane inputs move down over settled runs)
    // into one-word lane groups over the pool.
    std::vector<size_t> dirty;
    for (size_t i = 0; i < runs; ++i) {
        if (settled[i])
            continue;
        scheds[dirty.size()] = scheds[i];
        faults[dirty.size()] = faults[i];
        dirty.push_back(i);
    }
    size_t groupLanes = checkedLanesPerGroup(dirty.size(), threads);
    size_t groups = (dirty.size() + groupLanes - 1) / groupLanes;
    parallelFor(groups, threads, [&](size_t g) {
        size_t begin = g * groupLanes;
        size_t n = std::min(groupLanes, dirty.size() - begin);
        LaneCheckedRunner runner(tape, golden, cfg, {&scheds[begin], n},
                                 {&faults[begin], n});
        std::vector<CheckedRunResult> out = runner.run();
        for (size_t l = 0; l < n; ++l) {
            size_t r = dirty[begin + l];
            pop.runs[r] = out[l];
            std::copy_n(runner.endState(static_cast<unsigned>(l)), sw,
                        pop.endState.data() + r * sw);
        }
    });
    pop.faultFree = pop.runs[guard->second];
    pop.runs.resize(runs - extra);
    pop.endState.resize(pop.runs.size() * sw);
    return pop;
}

} // namespace flexi
