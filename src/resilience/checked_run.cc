#include "checked_run.hh"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "isa/encoding.hh"
#include "netlist/lane_group.hh"
#include "sim/core_sim.hh"
#include "sim/environment.hh"
#include "sim/mmu.hh"

namespace flexi
{

uint8_t
crc8(uint8_t crc, uint8_t byte)
{
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit)
        crc = crc & 0x80 ? static_cast<uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<uint8_t>(crc << 1);
    return crc;
}

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

/** Environment returning a value chosen by the harness per step. */
class HeldInputEnv : public Environment
{
  public:
    uint8_t readInput() override { return held; }
    void
    writeOutput(uint8_t value) override
    {
        outputs.push_back(value);
    }

    uint8_t held = 0;
    std::vector<uint8_t> outputs;
};

/** Does this instruction architecturally sample the input bus? */
bool
readsInput(const Instruction &inst)
{
    return inst.mode == Mode::Mem && inst.op != Op::Store &&
           inst.operand == kInputPortAddr;
}

constexpr unsigned kNoPc = ~0u;

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
        wide_ = cfg.isa == IsaKind::ExtAcc4 ||
                cfg.isa == IsaKind::LoadStore4;
        wordPc_ = cfg.isa == IsaKind::LoadStore4;
        width_ = isaDataWidth(cfg.isa);
        pcBus_ = die.outputBus("pc", 7);
        instrBus_ = die.inputBus("instr", wide_ ? 16 : 8);
        iportBus_ = die.inputBus("iport", width_);
        oportBus_ = die.outputBus("oport", width_);

        multiPage_ = prog.numPages() > 1;
        if (multiPage_)
            paged_ = std::make_unique<PagedEnvironment>(env_);
        tcfg_.isa = cfg.isa;

        maxCycles_ = cfg.maxCycles ? cfg.maxCycles
                                   : cfg.maxInstructions * 8 + 1024;

        die_.reset();
        for (const auto &t : schedule.transients)
            die_.injectTransient(t);
        flips_ = schedule.flips;
        std::sort(flips_.begin(), flips_.end(),
                  [](const FaultSchedule::DffFlip &a,
                     const FaultSchedule::DffFlip &b) {
                      return a.cycle < b.cycle;
                  });

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
            unsigned diePc = die_.bus(pcBus_);
            if (wide_) {
                unsigned base = wordPc_ ? diePc * 2 : diePc;
                die_.setBus(instrBus_,
                            fetch(base) | (fetch(base + 1) << 8));
            } else {
                die_.setBus(instrBus_, fetch(diePc));
            }
            die_.setBus(iportBus_, env_.held);
            die_.evaluate();
            die_.clockEdge();
            die_.evaluate();   // expose new state on the pads
            ++res_.cycles;

            unsigned newPc = die_.bus(pcBus_);
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
            uint8_t dieVal = static_cast<uint8_t>(die_.bus(oportBus_));
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

        bool mismatch = die_.bus(pcBus_) != golden_->pc() ||
                        die_.bus(oportBus_) != golden_->outputLatch();
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

    bool wide_ = false;
    bool wordPc_ = false;
    unsigned width_ = 4;
    BusHandle pcBus_, instrBus_, iportBus_, oportBus_;
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

namespace
{

/**
 * The golden side of the lane-parallel runner: one golden model's
 * trajectory, recorded as a tape indexed by instruction count k.
 * Every lane's golden model follows it, and rollback and restart
 * only ever move a lane back to an earlier k, so a per-lane cursor
 * replaces the CoreSim copies CheckedRunner checkpoints. Recorded on
 * demand: a lane records instruction k only when about to step it.
 */
class GoldenTape
{
  public:
    /** The golden model after k instructions, and instruction k. */
    struct Point
    {
        unsigned pc = 0;
        uint8_t latch = 0;      ///< OPORT latch
        uint8_t crc = 0;        ///< CRC-8 of the outputs so far
        bool done = false;
        uint32_t outputs = 0;   ///< golden outputs so far
        /** @name Instruction k (set once point k+1 is recorded) */
        ///@{
        uint8_t cycles = 0;     ///< die cycles it takes
        uint8_t held = 0;       ///< input-bus value while it runs
        bool ioWrite = false;
        bool takenBranch = false;
        ///@}
    };

    GoldenTape(const Program &prog, const std::vector<uint8_t> &inputs,
               const CheckedRunConfig &cfg)
        : prog_(prog), inputs_(inputs), cfg_(cfg)
    {
        if (prog.numPages() > 1)
            paged_ = std::make_unique<PagedEnvironment>(env_);
        TimingConfig tcfg;
        tcfg.isa = cfg.isa;
        golden_ = std::make_unique<CoreSim>(
            tcfg, prog,
            paged_ ? static_cast<Environment &>(*paged_)
                   : static_cast<Environment &>(env_));
        points_.push_back(boundary(0));
    }

    const Point &at(size_t k) const { return points_[k]; }

    /** Record instruction @p k, if not yet on the tape (boundary k
     *  must not be done). */
    void
    recordThrough(size_t k)
    {
        while (points_.size() <= k + 1)
            record();
    }

    /** The golden output stream recorded so far. */
    const std::vector<uint8_t> &outputs() const { return env_.outputs; }

  private:
    Point
    boundary(uint8_t crc) const
    {
        Point p;
        p.pc = golden_->pc();
        p.latch = golden_->outputLatch();
        p.crc = crc;
        p.outputs = static_cast<uint32_t>(env_.outputs.size());
        p.done = golden_->halted() ||
                 (cfg_.targetOutputs &&
                  env_.outputs.size() >= cfg_.targetOutputs);
        return p;
    }

    /** Step the golden model once: CheckedRunner::stepInstruction's
     *  golden half. */
    void
    record()
    {
        if (points_.back().done)
            panic("golden tape: stepping past the end of the run");
        DecodeResult dec = decodeAt(cfg_.isa, prog_.page(golden_->page()),
                                    golden_->pc());
        if (readsInput(dec.inst) && inputIdx_ < inputs_.size())
            env_.held = inputs_[inputIdx_++] &
                        static_cast<uint8_t>(
                            (1u << isaDataWidth(cfg_.isa)) - 1u);
        uint64_t prevIo = golden_->stats().ioWrites;
        uint64_t prevTb = golden_->stats().takenBranches;
        size_t prevOut = env_.outputs.size();
        golden_->step();

        Point &p = points_.back();
        bool wide = cfg_.isa == IsaKind::ExtAcc4 ||
                    cfg_.isa == IsaKind::LoadStore4;
        p.cycles = static_cast<uint8_t>(wide ? 1 : dec.bytes);
        p.held = env_.held;
        p.ioWrite = golden_->stats().ioWrites != prevIo;
        p.takenBranch = golden_->stats().takenBranches != prevTb;
        uint8_t crc = p.crc;
        for (size_t i = prevOut; i < env_.outputs.size(); ++i)
            crc = crc8(crc, env_.outputs[i]);
        points_.push_back(boundary(crc));
    }

    const Program &prog_;
    const std::vector<uint8_t> &inputs_;
    const CheckedRunConfig &cfg_;
    HeldInputEnv env_;
    std::unique_ptr<PagedEnvironment> paged_;
    std::unique_ptr<CoreSim> golden_;
    size_t inputIdx_ = 0;
    std::vector<Point> points_;
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
    LaneCheckedRunner(const Netlist &golden, const Program &prog,
                      const std::vector<uint8_t> &inputs,
                      const CheckedRunConfig &cfg,
                      const std::vector<const FaultSchedule *> &schedules,
                      const std::vector<const std::vector<StuckFault> *>
                          *laneFaults)
        : cfg_(cfg), tape_(prog, inputs, cfg),
          numLanes_(laneCount(schedules.size())),
          group_(golden, numLanes_), lanes_(numLanes_)
    {
        if (laneFaults && laneFaults->size() != schedules.size())
            fatal("runCheckedLanes: %zu fault lists for %u lanes",
                  laneFaults->size(), numLanes_);
        bool wide = cfg.isa == IsaKind::ExtAcc4 ||
                    cfg.isa == IsaKind::LoadStore4;
        unsigned width = isaDataWidth(cfg.isa);
        pcBus_ = golden.outputBus("pc", 7);
        instrBus_ = golden.inputBus("instr", wide ? 16 : 8);
        iportBus_ = golden.inputBus("iport", width);
        oportBus_ = golden.outputBus("oport", width);
        cone_ = group_.padCone({&pcBus_, &oportBus_});
        multiPage_ = prog.numPages() > 1;
        maxCycles_ = cfg.maxCycles ? cfg.maxCycles
                                   : cfg.maxInstructions * 8 + 1024;

        // What each page feeds a die whose PC pads read pc: the
        // instruction byte, or for the wide cores the 16-bit word
        // (LoadStore4 addresses words at pc*2). Past a page's image
        // — and on pages the program never filled — the bus floats
        // to 0, as in CheckedRunner.
        fetch_.resize(prog.numPages());
        for (unsigned p = 0; p < prog.numPages(); ++p) {
            const std::vector<uint8_t> &image = prog.page(p);
            auto byte = [&](unsigned addr) -> unsigned {
                return addr < image.size() ? image[addr] : 0;
            };
            for (unsigned pc = 0; pc < kPcSpace; ++pc) {
                unsigned base = cfg.isa == IsaKind::LoadStore4 ? pc * 2
                                                               : pc;
                fetch_[p][pc] = static_cast<uint16_t>(
                    wide ? byte(base) | byte(base + 1) << 8
                         : byte(base));
            }
        }

        for (unsigned l = 0; l < numLanes_; ++l) {
            if (laneFaults && (*laneFaults)[l])
                for (const StuckFault &f : *(*laneFaults)[l])
                    group_.injectFault(l, f);
            for (const auto &t : schedules[l]->transients)
                group_.injectTransient(l, t);
            Lane &ln = lanes_[l];
            ln.flips = schedules[l]->flips;
            std::sort(ln.flips.begin(), ln.flips.end(),
                      [](const FaultSchedule::DffFlip &a,
                         const FaultSchedule::DffFlip &b) {
                          return a.cycle < b.cycle;
                      });
        }
        running_ = group_.laneMaskWord(0);
    }

    std::vector<CheckedRunResult>
    run()
    {
        for (unsigned l = 0; l < numLanes_; ++l) {
            takeCheckpoint(l);
            advance(l);
        }
        std::array<uint8_t, LaneGroup::kWordLanes> pc{}, oport{},
            held{};
        std::array<uint32_t, LaneGroup::kWordLanes> instr{};
        static const std::array<uint16_t, kPcSpace> kUnmapped{};
        size_t numDffs = group_.numDffs();
        while (running_) {
            // Fetch from each lane's own PC pads and MMU page, with
            // its own held input; flips land before the fetch.
            group_.gatherBusBytes(pcBus_, pc.data());
            for (uint64_t m = running_; m; m &= m - 1) {
                unsigned l = static_cast<unsigned>(__builtin_ctzll(m));
                Lane &ln = lanes_[l];
                while (ln.flipIdx < ln.flips.size() &&
                       ln.flips[ln.flipIdx].cycle <= group_.cycle()) {
                    if (numDffs)
                        group_.flipDff(l, ln.flips[ln.flipIdx].dff %
                                              numDffs);
                    ++ln.flipIdx;
                }
                const auto &page = ln.diePage < fetch_.size()
                                       ? fetch_[ln.diePage]
                                       : kUnmapped;
                instr[l] = page[pc[l] % kPcSpace];
                held[l] = tape_.at(ln.k).held;
            }
            group_.setBusLanes(instrBus_, instr.data());
            group_.setBusLanesBytes(iportBus_, held.data());
            group_.evaluate();
            group_.clockEdge();
            group_.exposeState(cone_);   // new state on the pads

            group_.gatherBusBytes(pcBus_, pc.data());
            group_.gatherBusBytes(oportBus_, oport.data());
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
                group_.exposeState(cone_);
                for (uint64_t m = restarted_; m; m &= m - 1)
                    group_.reset(
                        static_cast<unsigned>(__builtin_ctzll(m)));
            }
            exposePending_ = false;
            restarted_ = 0;
        }

        std::vector<CheckedRunResult> results;
        results.reserve(numLanes_);
        for (Lane &ln : lanes_)
            results.push_back(std::move(ln.res));
        return results;
    }

  private:
    /** PC pads are 7 bits wide on every core. */
    static constexpr unsigned kPcSpace = 128;

    static unsigned
    laneCount(size_t lanes)
    {
        if (lanes == 0 || lanes > LaneGroup::kWordLanes)
            fatal("runCheckedLanes: bad lane count %zu", lanes);
        return static_cast<unsigned>(lanes);
    }

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
        std::vector<FaultSchedule::DffFlip> flips;
        size_t flipIdx = 0;
        Checkpoint cp;
    };

    void
    takeCheckpoint(unsigned l)
    {
        Lane &ln = lanes_[l];
        if (cfg_.recovery.enabled)
            ln.cp = {group_.saveDffState(l), ln.k,
                     ln.res.dieOutputs.size(), ln.dieCrc, ln.dieMmu,
                     ln.diePage, ln.lastDiePc, ln.frozen};
        ln.instrSinceCp = 0;
        ln.retriesSinceCp = 0;
    }

    void
    rollback(unsigned l)
    {
        Lane &ln = lanes_[l];
        group_.restoreDffState(l, ln.cp.dff);
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
        group_.reset(l);
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
        ln.res.outcome = outcome;
        ln.res.goldenOutputs.assign(
            gold.begin(), gold.begin() + tape_.at(ln.k).outputs);
        ln.res.outputsCorrect =
            outcome == CheckedOutcome::Completed &&
            ln.res.dieOutputs == ln.res.goldenOutputs;
        ln.res.endDff = group_.saveDffState(l);
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
        if (ln.res.instructions >= cfg_.maxInstructions ||
            ln.res.cycles >= maxCycles_) {
            finish(l, CheckedOutcome::BudgetExhausted);
            return;
        }
        tape_.recordThrough(ln.k);
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
            if (multiPage_) {
                for (uint8_t v : ln.dieMmu.onOutput(oport))
                    pushDieOut(ln, v);
            } else {
                pushDieOut(ln, oport);
            }
        }
        if (multiPage_ && takenBranch) {
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
    GoldenTape tape_;
    unsigned numLanes_;
    LaneGroup group_;
    std::vector<Lane> lanes_;

    BusHandle pcBus_, instrBus_, iportBus_, oportBus_;
    LaneGroup::PadCone cone_;
    bool multiPage_ = false;
    uint64_t maxCycles_ = 0;
    std::vector<std::array<uint16_t, kPcSpace>> fetch_;

    uint64_t running_ = 0;
    /** A lane rolled back this cycle: the pads need a re-expose. */
    bool exposePending_ = false;
    /** Lanes restarted this cycle (their nets stay cleared). */
    uint64_t restarted_ = 0;
};

} // namespace

std::vector<CheckedRunResult>
runCheckedLanes(const Netlist &golden, const Program &prog,
                const std::vector<uint8_t> &inputs,
                const CheckedRunConfig &cfg,
                const std::vector<const FaultSchedule *> &schedules,
                const std::vector<const std::vector<StuckFault> *>
                    *laneFaults)
{
    LaneCheckedRunner runner(golden, prog, inputs, cfg, schedules,
                             laneFaults);
    return runner.run();
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
prescreenSchedules(const Netlist &golden_netlist, const Program &prog,
                   const std::vector<uint8_t> &inputs,
                   const CheckedRunConfig &cfg,
                   const std::vector<const FaultSchedule *> &schedules,
                   const std::vector<const std::vector<StuckFault> *>
                       *laneFaults,
                   bool captureEndState)
{
    // One bit-parallel mirror of CheckedRunner::stepInstruction()
    // with all protection stripped: flips before each fetch, per-lane
    // fetch from the lane's own PC pads, per-lane frozen-PC tracking,
    // and the boundary PC/OPORT compare against one shared golden
    // trajectory. Any deviation retires the lane as not clean, so
    // the shared state below (held input, MMU page) only ever has
    // to be correct for lanes that are still tracking golden exactly.
    unsigned lanes = static_cast<unsigned>(schedules.size());
    if (lanes == 0 || lanes > LaneGroup::kMaxLanes)
        fatal("prescreenSchedules: bad lane count %u", lanes);
    LaneGroup batch(golden_netlist, lanes);

    bool wide = cfg.isa == IsaKind::ExtAcc4 ||
                cfg.isa == IsaKind::LoadStore4;
    bool wordPc = cfg.isa == IsaKind::LoadStore4;
    unsigned width = isaDataWidth(cfg.isa);
    BusHandle pcBus = golden_netlist.outputBus("pc", 7);
    BusHandle instrBus =
        golden_netlist.inputBus("instr", wide ? 16 : 8);
    BusHandle iportBus = golden_netlist.inputBus("iport", width);
    BusHandle oportBus = golden_netlist.outputBus("oport", width);

    bool multiPage = prog.numPages() > 1;
    HeldInputEnv env;
    std::unique_ptr<PagedEnvironment> paged;
    if (multiPage)
        paged = std::make_unique<PagedEnvironment>(env);
    TimingConfig tcfg;
    tcfg.isa = cfg.isa;
    CoreSim golden(tcfg, prog,
                   paged ? static_cast<Environment &>(*paged)
                         : static_cast<Environment &>(env));

    uint64_t maxCycles = cfg.maxCycles
                             ? cfg.maxCycles
                             : cfg.maxInstructions * 8 + 1024;

    if (laneFaults && laneFaults->size() != schedules.size())
        fatal("prescreenSchedules: %zu fault lists for %zu lanes",
              laneFaults->size(), schedules.size());

    size_t numDffs = batch.numDffs();
    std::vector<std::vector<FaultSchedule::DffFlip>> flips(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane) {
        if (laneFaults && (*laneFaults)[lane])
            for (const StuckFault &f : *(*laneFaults)[lane])
                batch.injectFault(lane, f);
        for (const auto &t : schedules[lane]->transients)
            batch.injectTransient(lane, t);
        flips[lane] = schedules[lane]->flips;
        std::sort(flips[lane].begin(), flips[lane].end(),
                  [](const FaultSchedule::DffFlip &a,
                     const FaultSchedule::DffFlip &b) {
                      return a.cycle < b.cycle;
                  });
    }
    std::array<size_t, LaneGroup::kMaxLanes> flipIdx{};

    // A clean lane emits golden's exact output values, so one shared
    // mirror MMU fed those values reproduces every clean lane's page
    // trajectory; a lane whose value differs is retired the same
    // instruction by the pad compare below.
    Mmu mirrorMmu;
    unsigned mirrorPage = 0;
    static const std::vector<uint8_t> kUnmappedPage;

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
    std::array<uint32_t, LaneGroup::kMaxLanes> dieInstr16{};
    std::vector<uint8_t> fetchTable;
    unsigned fetchTablePage = ~0u;
    std::array<uint32_t, LaneGroup::kMaxLanes> lastPc;
    lastPc.fill(kNoPc);
    std::array<uint64_t, LaneGroup::kMaxLanes> frozen{};
    size_t inputIdx = 0;

    // Post-edge pad sampling only reads the PC/OPORT pads, so the
    // post-clock evaluate narrows to their fan-in cones.
    LaneGroup::PadCone padCone = batch.padCone({&pcBus, &oportBus});

    PrescreenResult res;
    uint64_t instructions = 0;

    auto isDone = [&]() {
        if (golden.halted())
            return true;
        return cfg.targetOutputs != 0 &&
               env.outputs.size() >= cfg.targetOutputs;
    };

    while (true) {
        if (isDone()) {
            res.completed = true;
            break;
        }
        if (instructions >= cfg.maxInstructions ||
            res.cycles >= maxCycles)
            break;
        if (!anyActive())
            break;

        const std::vector<uint8_t> &gimage =
            prog.page(golden.page());
        DecodeResult dec = decodeAt(cfg.isa, gimage, golden.pc());
        if (readsInput(dec.inst) && inputIdx < inputs.size())
            env.held = inputs[inputIdx++] &
                       static_cast<uint8_t>((1u << width) - 1u);

        const std::vector<uint8_t> &dimage =
            mirrorPage < prog.numPages() ? prog.page(mirrorPage)
                                         : kUnmappedPage;
        auto fetch = [&](unsigned addr) -> uint8_t {
            return addr < dimage.size() ? dimage[addr] : 0;
        };
        if (!wide && fetchTablePage != mirrorPage) {
            // Narrow fetch goes through the fused indexed drive;
            // (re)pad the current page to the PC address space when
            // the mirror MMU pages (out-of-image fetches read 0).
            fetchTable.assign(size_t(1) << pcBus.width(), 0);
            for (size_t a = 0;
                 a < fetchTable.size() && a < dimage.size(); ++a)
                fetchTable[a] = dimage[a];
            fetchTablePage = mirrorPage;
        }

        unsigned cycles = wide ? 1 : dec.bytes;
        for (unsigned c = 0; c < cycles; ++c) {
            for (unsigned lane = 0; lane < lanes; ++lane) {
                while (flipIdx[lane] < flips[lane].size() &&
                       flips[lane][flipIdx[lane]].cycle <=
                           batch.cycle()) {
                    if (numDffs)
                        batch.flipDff(lane,
                                      flips[lane][flipIdx[lane]].dff %
                                          numDffs);
                    ++flipIdx[lane];
                }
            }
            if (wide) {
                batch.gatherBusBytes(pcBus, diePc.data());
                for (unsigned lane = 0; lane < lanes; ++lane) {
                    unsigned base = wordPc ? diePc[lane] * 2
                                           : diePc[lane];
                    dieInstr16[lane] =
                        fetch(base) |
                        static_cast<unsigned>(fetch(base + 1)) << 8;
                }
                batch.setBusLanes(instrBus, dieInstr16.data());
            } else {
                batch.driveBusFromTable(pcBus, instrBus,
                                        fetchTable.data());
            }
            batch.setBus(iportBus, env.held);
            batch.evaluate();
            batch.clockEdge();
            batch.exposeState(padCone);   // new state on the pads
            ++res.cycles;

            // Frozen-PC tracking is only consumed by the watchdog
            // retire below; with no watchdog armed the per-lane PC
            // gather is dead work.
            if (!cfg.detectors.watchdog)
                continue;
            batch.gatherBusBytes(pcBus, diePc.data());
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

        uint64_t prevIo = golden.stats().ioWrites;
        uint64_t prevTb = golden.stats().takenBranches;
        golden.step();
        ++instructions;

        if (multiPage) {
            if (golden.stats().ioWrites != prevIo)
                (void)mirrorMmu.onOutput(
                    static_cast<uint8_t>(golden.outputLatch()));
            if (golden.stats().takenBranches != prevTb) {
                int p = mirrorMmu.takePendingPage();
                if (p >= 0)
                    mirrorPage = static_cast<unsigned>(p);
            }
        }

        // Boundary compare in the bit domain: clearing an already
        // retired lane's bit is a no-op, so no per-lane active test
        // is needed.
        std::array<uint64_t, LaneGroup::kMaxWords> pcDiff;
        std::array<uint64_t, LaneGroup::kMaxWords> opDiff;
        batch.busMismatch(pcBus, golden.pc(), pcDiff.data());
        batch.busMismatch(oportBus, golden.outputLatch(),
                          opDiff.data());
        for (unsigned w = 0; w < batch.words(); ++w)
            active[w] &= ~(pcDiff[w] | opDiff[w]);
    }

    if (res.completed) {
        res.cleanMask = active;
        if (captureEndState) {
            res.endDff.resize(lanes);
            for (unsigned lane = 0; lane < lanes; ++lane)
                res.endDff[lane] = batch.saveDffState(lane);
        }
    }
    return res;
}

} // namespace flexi
