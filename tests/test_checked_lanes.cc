/**
 * @file
 * Differential suite for the lane-parallel checked runtime: every
 * lane of runCheckedLanes() against the scalar runChecked() oracle
 * on a clone of the same die, field by field (endDff included),
 * across all four cores (single- and multi-page programs), every
 * detector configuration, every recovery policy, and lane counts
 * 1, 63, 64 and ragged multi-group splits, with stuck-ats,
 * transients and DFF flips mixed per lane; and every die of
 * runCheckedPopulation() against the same oracle, at every
 * prescreen width and thread count its callers use.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "resilience/checked_run.hh"
#include "resilience/fault_campaign.hh"

namespace flexi
{
namespace
{

/**
 * A two-page FlexiCore8 program: page 0 reads a value and pages to
 * page 1 through the MMU escape triple, which emits value + 1 and
 * pages back.
 */
const char *kFc8TwoPage = R"(
loop: load r0
      store r2
      ldb 0x0A
      store r1
      ldb 0x05
      store r1
      ldb 0x01
      store r1
      nandi 0
      br @inc
.page 1
inc:  load r2
      addi 1
      store r1
      ldb 0x0A
      store r1
      ldb 0x05
      store r1
      ldb 0x00
      store r1
      nandi 0
      br @loop
)";

/** A core, a program and its inputs. */
struct Rig
{
    std::string name;
    std::unique_ptr<Netlist> golden;
    Program prog;
    std::vector<uint8_t> inputs;
    CheckedRunConfig cfg;
    uint64_t horizon = 1;   ///< fault-free run length in cycles
    /** Stuck-ats that freeze the die's PC: the watchdog's prey. */
    std::vector<StuckFault> freezers;
};

Rig
kernelRig(IsaKind isa, KernelId kernel, size_t units)
{
    Rig rig{strfmt("%s/%s", isaName(isa), kernelName(kernel)),
            buildCoreNetlist(isa), assemble(isa, kernelSource(kernel, isa)),
            kernelInputs(kernel, units, 3), {}, 1, {}};
    rig.cfg.isa = isa;
    rig.cfg.targetOutputs = units * kernelOutputsPerWork(kernel);
    return rig;
}

Rig
fc8Rig(bool twoPage)
{
    IsaKind isa = IsaKind::FlexiCore8;
    Rig rig{twoPage ? "fc8/two-page" : "fc8/program0", buildCoreNetlist(isa),
            assemble(isa, twoPage ? std::string(kFc8TwoPage)
                                  : fc8ProgramSource(Fc8Program(0))),
            fc8ProgramInputs(Fc8Program(0), 4, 3), {}, 1, {}};
    rig.cfg.isa = isa;
    rig.cfg.targetOutputs = 4;
    return rig;
}

/**
 * Measure the fault-free run the fault windows are drawn over, and
 * find a few stuck-ats that freeze the PC (random stuck-ats rarely
 * do, and the watchdog paths need them).
 */
Rig
ready(Rig rig)
{
    auto die = rig.golden->clone();
    CheckedRunResult clean =
        runChecked(*die, rig.prog, rig.inputs, rig.cfg);
    EXPECT_EQ(clean.outcome, CheckedOutcome::Completed) << rig.name;
    EXPECT_TRUE(clean.outputsCorrect) << rig.name;
    rig.horizon = clean.cycles ? clean.cycles : 1;

    CheckedRunConfig bare = rig.cfg;
    bare.detectors = DetectorConfig{false, false, false, 192};
    bare.recovery.enabled = false;
    for (size_t n = 0; n < rig.golden->numNets() &&
                       rig.freezers.size() < 4;
         ++n) {
        for (bool v : {false, true}) {
            auto nl = rig.golden->clone();
            nl->injectFault({static_cast<NetId>(n), v});
            if (runChecked(*nl, rig.prog, rig.inputs, bare)
                    .maxPcFrozenCycles > 8)
                rig.freezers.push_back({static_cast<NetId>(n), v});
        }
    }
    EXPECT_FALSE(rig.freezers.empty()) << rig.name;
    return rig;
}

/** One lane's die: manufacturing stuck-ats plus in-field events. */
struct LaneDie
{
    std::vector<StuckFault> stuck;
    FaultSchedule sched;
};

/**
 * Mixed fault populations: every eighth lane carries a PC-freezing
 * stuck-at, about a third of the rest a random one (pads and
 * constants included), every lane draws up to three short transient
 * windows and up to two flips over the fault-free horizon (a few
 * past it), and lane 0 stays fault-free.
 */
std::vector<LaneDie>
drawDies(const Rig &rig, size_t n, uint64_t seed)
{
    std::vector<LaneDie> dies(n);
    size_t nets = rig.golden->numNets();
    size_t dffs = rig.golden->numDffs();
    uint64_t span = rig.horizon + rig.horizon / 4;
    for (size_t d = 1; d < n; ++d) {
        Rng rng(deriveSeed(seed, d));
        LaneDie &die = dies[d];
        if (d % 8 == 7)
            die.stuck.push_back(
                rig.freezers[(d / 8) % rig.freezers.size()]);
        else if (rng.chance(0.35))
            die.stuck.push_back({static_cast<NetId>(rng.below(nets)),
                                 rng.chance(0.5)});
        for (uint64_t t = rng.below(4); t > 0; --t) {
            uint64_t at = rng.below(span);
            die.sched.transients.push_back(
                {static_cast<NetId>(rng.below(nets)), rng.chance(0.5),
                 at, at + 1 + rng.below(3)});
        }
        for (uint64_t f = rng.below(3); f > 0; --f)
            die.sched.flips.push_back(
                {rng.below(span), rng.below(dffs)});
    }
    return dies;
}

CheckedRunResult
scalarRun(const Rig &rig, const LaneDie &die,
          const CheckedRunConfig &cfg)
{
    auto nl = rig.golden->clone();
    for (const StuckFault &f : die.stuck)
        nl->injectFault(f);
    return runChecked(*nl, rig.prog, rig.inputs, cfg, die.sched);
}

/** First differing field, or success. */
::testing::AssertionResult
sameRun(const CheckedRunResult &want, const CheckedRunResult &got)
{
    std::ostringstream diff;
#define FLEXI_FIELD(f)                                                \
    if (!(want.f == got.f))                                           \
        diff << " " #f;
    FLEXI_FIELD(outcome)
    FLEXI_FIELD(outputsCorrect)
    FLEXI_FIELD(cycles)
    FLEXI_FIELD(instructions)
    FLEXI_FIELD(padMismatches)
    FLEXI_FIELD(maxPcFrozenCycles)
    FLEXI_FIELD(detections)
    FLEXI_FIELD(retries)
    FLEXI_FIELD(restarts)
    FLEXI_FIELD(firstDetector)
    FLEXI_FIELD(dieOutputs)
    FLEXI_FIELD(goldenOutputs)
    FLEXI_FIELD(endDff)
#undef FLEXI_FIELD
    if (diff.str().empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "differs in" << diff.str() << " (scalar: "
           << checkedOutcomeName(want.outcome) << ", " << want.cycles
           << " cycles, " << want.detections << " detections, "
           << want.retries << " retries, " << want.restarts
           << " restarts; lanes: " << checkedOutcomeName(got.outcome)
           << ", " << got.cycles << " cycles, " << got.detections
           << " detections, " << got.retries << " retries, "
           << got.restarts << " restarts)";
}

/** What a differential run exercised, so no check is vacuous. */
struct Coverage
{
    unsigned lanes = 0;
    unsigned retried = 0;
    unsigned restarted = 0;
    unsigned degraded = 0;
    unsigned wrongOutputs = 0;
    unsigned crc = 0, watchdog = 0, lockstep = 0;
    unsigned multiDetect = 0;   ///< detections without recovery acting
};

/**
 * Run @p dies through runCheckedLanes in consecutive groups of
 * @p groupLanes and through scalar runChecked, and compare every
 * lane. Returns what the scalar runs exercised.
 */
Coverage
differential(const Rig &rig, const CheckedRunConfig &cfg,
             const std::vector<LaneDie> &dies, size_t groupLanes)
{
    Coverage cov;
    for (size_t begin = 0; begin < dies.size(); begin += groupLanes) {
        size_t n = std::min(groupLanes, dies.size() - begin);
        std::vector<const FaultSchedule *> scheds(n);
        std::vector<const std::vector<StuckFault> *> faults(n);
        for (size_t l = 0; l < n; ++l) {
            scheds[l] = &dies[begin + l].sched;
            faults[l] = &dies[begin + l].stuck;
        }
        std::vector<CheckedRunResult> got = runCheckedLanes(
            *rig.golden, rig.prog, rig.inputs, cfg, scheds, &faults);
        EXPECT_EQ(got.size(), n);
        for (size_t l = 0; l < n && l < got.size(); ++l) {
            CheckedRunResult want = scalarRun(rig, dies[begin + l], cfg);
            EXPECT_TRUE(sameRun(want, got[l]))
                << rig.name << ", die " << begin + l << " (lane " << l
                << " of " << n << ")";
            ++cov.lanes;
            cov.retried += want.retries > 0;
            cov.restarted += want.restarts > 0;
            cov.degraded += want.outcome == CheckedOutcome::Degraded;
            cov.wrongOutputs += !want.outputsCorrect;
            cov.crc += want.firstDetector == "crc";
            cov.watchdog += want.firstDetector == "watchdog";
            cov.lockstep += want.firstDetector == "lockstep";
            cov.multiDetect += want.detections > 1 &&
                               want.retries + want.restarts == 0;
        }
    }
    return cov;
}

std::vector<Rig>
everyCore()
{
    std::vector<Rig> rigs;
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::ExtAcc4,
                        IsaKind::LoadStore4}) {
        rigs.push_back(ready(kernelRig(isa, KernelId::Thresholding, 3)));
        // Calculator pages mul and div out of page 0.
        rigs.push_back(ready(kernelRig(isa, KernelId::Calculator, 3)));
    }
    rigs.push_back(ready(fc8Rig(false)));
    rigs.push_back(ready(fc8Rig(true)));
    return rigs;
}

TEST(CheckedLanes, MatchesScalarOnEveryCore)
{
    std::vector<Rig> rigs = everyCore();
    Coverage total;
    for (const Rig &rig : rigs) {
        bool paged = rig.name.find("Calculator") != std::string::npos ||
                     rig.name.find("two-page") != std::string::npos;
        EXPECT_EQ(rig.prog.numPages() > 1, paged) << rig.name;
        CheckedRunConfig cfg = rig.cfg;
        cfg.recovery.checkpointInstructions = 8;
        cfg.detectors.watchdogCycles = 6;
        Coverage c = differential(rig, cfg, drawDies(rig, 64, 11), 64);
        total.retried += c.retried;
        total.restarted += c.restarted;
        total.degraded += c.degraded;
        total.crc += c.crc;
        total.watchdog += c.watchdog;
        EXPECT_GT(c.retried, 0u) << rig.name;
    }
    EXPECT_GT(total.restarted, 0u);
    EXPECT_GT(total.degraded, 0u);
    EXPECT_GT(total.crc, 0u);
    EXPECT_GT(total.watchdog, 0u);
}

TEST(CheckedLanes, MatchesScalarUnderEveryDetectorConfig)
{
    struct Case
    {
        const char *name;
        DetectorConfig detectors;
    };
    const Case cases[] = {
        {"default", DetectorConfig{}},
        {"lockstep", DetectorConfig{true, true, true, 192}},
        {"lockstep-only", DetectorConfig{true, false, false, 192}},
        {"no-watchdog", DetectorConfig{false, true, false, 192}},
        {"short-watchdog", DetectorConfig{false, true, true, 3}},
        {"disarmed", DetectorConfig{false, false, false, 192}},
    };
    std::vector<Rig> rigs;
    rigs.push_back(ready(kernelRig(IsaKind::FlexiCore4,
                                   KernelId::Thresholding, 3)));
    rigs.push_back(ready(fc8Rig(true)));
    for (Rig &rig : rigs) {
        std::vector<LaneDie> dies = drawDies(rig, 64, 23);
        for (const Case &c : cases) {
            CheckedRunConfig cfg = rig.cfg;
            cfg.detectors = c.detectors;
            rig.name = std::string(isaName(cfg.isa)) + "/" + c.name;
            Coverage cov = differential(rig, cfg, dies, 64);
            if (c.detectors.lockstep) {
                EXPECT_GT(cov.lockstep, 0u) << rig.name;
            }
            if (c.detectors.watchdog &&
                c.detectors.watchdogCycles < 8) {
                EXPECT_GT(cov.watchdog, 0u) << rig.name;
            }
            if (!c.detectors.lockstep && !c.detectors.outputCrc &&
                !c.detectors.watchdog) {
                EXPECT_GT(cov.wrongOutputs, 0u) << rig.name;
            }
        }
    }
}

TEST(CheckedLanes, MatchesScalarUnderEveryRecoveryPolicy)
{
    struct Case
    {
        const char *name;
        RecoveryPolicy recovery;
    };
    const Case cases[] = {
        {"retries2-restart", RecoveryPolicy{true, 8, 2, true}},
        {"retries2-no-restart", RecoveryPolicy{true, 8, 2, false}},
        {"retries0-restart", RecoveryPolicy{true, 8, 0, true}},
        {"retries0-no-restart", RecoveryPolicy{true, 8, 0, false}},
        {"detect-only", RecoveryPolicy{false, 8, 2, true}},
    };
    std::vector<Rig> rigs;
    rigs.push_back(ready(kernelRig(IsaKind::FlexiCore4,
                                   KernelId::Calculator, 3)));
    rigs.push_back(ready(kernelRig(IsaKind::LoadStore4,
                                   KernelId::Thresholding, 3)));
    for (Rig &rig : rigs) {
        std::vector<LaneDie> dies = drawDies(rig, 64, 37);
        for (const Case &c : cases) {
            CheckedRunConfig cfg = rig.cfg;
            cfg.recovery = c.recovery;
            cfg.detectors.lockstep = true;
            rig.name = std::string(isaName(cfg.isa)) + "/" + c.name;
            Coverage cov = differential(rig, cfg, dies, 64);
            if (!c.recovery.enabled) {
                EXPECT_EQ(cov.retried + cov.restarted, 0u) << rig.name;
                EXPECT_GT(cov.multiDetect, 0u) << rig.name;
                continue;
            }
            if (c.recovery.maxRetries) {
                EXPECT_GT(cov.retried, 0u) << rig.name;
            } else {
                EXPECT_EQ(cov.retried, 0u) << rig.name;
            }
            if (c.recovery.allowRestart) {
                EXPECT_GT(cov.restarted, 0u) << rig.name;
            } else {
                EXPECT_EQ(cov.restarted, 0u) << rig.name;
            }
            EXPECT_GT(cov.degraded, 0u) << rig.name;
        }
    }
}

TEST(CheckedLanes, MatchesScalarAtEveryLaneCount)
{
    Rig rig = ready(kernelRig(IsaKind::FlexiCore4,
                              KernelId::Thresholding, 3));
    std::vector<LaneDie> dies = drawDies(rig, 130, 41);
    // One lane, one lane short of a word, a full word, and ragged
    // groups across the 64-lane boundary (37 + 37 + 37 + 19).
    for (size_t n : {size_t(1), size_t(63), size_t(64)}) {
        std::vector<LaneDie> head(dies.begin() + 1,
                                  dies.begin() + 1 + n);
        differential(rig, rig.cfg, head, n);
    }
    Coverage cov = differential(rig, rig.cfg, dies, 37);
    EXPECT_EQ(cov.lanes, dies.size());
    // A budget far below the mission: every lane exhausts it.
    CheckedRunConfig tight = rig.cfg;
    tight.maxCycles = rig.horizon / 2;
    differential(rig, tight, dies, 64);
}

TEST(CheckedLanes, RejectsBadLaneCounts)
{
    Rig rig = ready(kernelRig(IsaKind::FlexiCore4,
                              KernelId::Thresholding, 1));
    FaultSchedule none;
    std::vector<const FaultSchedule *> empty;
    EXPECT_THROW(runCheckedLanes(*rig.golden, rig.prog, rig.inputs,
                                 rig.cfg, empty),
                 FatalError);
    std::vector<const FaultSchedule *> tooMany(65, &none);
    EXPECT_THROW(runCheckedLanes(*rig.golden, rig.prog, rig.inputs,
                                 rig.cfg, tooMany),
                 FatalError);
    std::vector<const FaultSchedule *> two(2, &none);
    std::vector<const std::vector<StuckFault> *> one(1, nullptr);
    EXPECT_THROW(runCheckedLanes(*rig.golden, rig.prog, rig.inputs,
                                 rig.cfg, two, &one),
                 FatalError);
}

TEST(CheckedLanes, GroupSizeFillsTheWorkers)
{
    EXPECT_EQ(checkedLanesPerGroup(0, 4), 1u);
    EXPECT_EQ(checkedLanesPerGroup(3, 4), 1u);
    EXPECT_EQ(checkedLanesPerGroup(123, 4), 31u);
    EXPECT_EQ(checkedLanesPerGroup(123, 1), 64u);
    EXPECT_EQ(checkedLanesPerGroup(1000, 2), 64u);
}

/** One pointer per schedule of @p schedules, in order. */
std::vector<const FaultSchedule *>
pointersTo(const std::vector<FaultSchedule> &schedules)
{
    std::vector<const FaultSchedule *> out;
    for (const FaultSchedule &s : schedules)
        out.push_back(&s);
    return out;
}

/**
 * runCheckedPopulation() over the tape its callers record for @p prog
 * on @p inputs under @p cfg.
 */
PopulationResult
runCheckedPopulation(const Netlist &golden, const Program &prog,
                     const std::vector<uint8_t> &inputs,
                     const CheckedRunConfig &cfg,
                     const std::vector<FaultSchedule> &schedules,
                     const std::vector<const std::vector<StuckFault> *>
                         *stuck,
                     unsigned prescreenLanes, unsigned threads,
                     bool captureEndState)
{
    return flexi::runCheckedPopulation(
        golden, checkedTape(prog, inputs, cfg), cfg,
        pointersTo(schedules), stuck, prescreenLanes, threads,
        captureEndState);
}

/** Scalar endDff bytes, packed as runCheckedPopulation() packs them. */
std::vector<uint64_t>
packedState(const std::vector<uint8_t> &bytes)
{
    std::vector<uint64_t> words((bytes.size() + 63) / 64, 0);
    for (size_t i = 0; i < bytes.size(); ++i)
        words[i / 64] |= uint64_t(bytes[i] != 0) << (i % 64);
    return words;
}

/**
 * Every die of @p got against its scalar runChecked() result, the
 * packed end state included when @p capture.
 */
void
expectPopulation(const PopulationResult &got,
                 const std::vector<CheckedRunResult> &want,
                 const DetectorConfig &detectors, bool capture,
                 const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    if (capture) {
        ASSERT_EQ(got.endState.size(), got.runs.size() * got.stateWords)
            << where;
        ASSERT_EQ(got.stateWords, (want[0].endDff.size() + 63) / 64)
            << where;
    } else {
        EXPECT_EQ(got.stateWords, 0u) << where;
        EXPECT_TRUE(got.endState.empty()) << where;
    }
    for (size_t i = 0; i < want.size(); ++i) {
        const CheckedRunResult &w = want[i];
        const CheckedRunSummary &g = got.die(i);
        std::string at = strfmt("%s, die %zu", where.c_str(), i);
        EXPECT_EQ(g.outcome, w.outcome) << at;
        EXPECT_EQ(g.outputsCorrect, w.outputsCorrect) << at;
        EXPECT_EQ(g.cycles, w.cycles) << at;
        EXPECT_EQ(g.detections, w.detections) << at;
        EXPECT_EQ(g.retries, w.retries) << at;
        EXPECT_EQ(g.restarts, w.restarts) << at;
        EXPECT_EQ(g.firstDetector, w.firstDetector) << at;
        EXPECT_EQ(classifyCheckedRun(g, detectors),
                  classifyCheckedRun(w, detectors))
            << at;
        if (capture) {
            std::vector<uint64_t> end(got.endDff(i),
                                      got.endDff(i) + got.stateWords);
            EXPECT_EQ(end, packedState(w.endDff)) << at;
        }
    }
}

TEST(CheckedPopulation, MatchesScalarPerDie)
{
    // More than 512 runs: prescreen blocks straddle the 512-lane
    // group, and the runs the prescreen hands on straddle the 64-lane
    // word; FC4 Calculator and the two-page FC8 program page through
    // the MMU.
    std::vector<Rig> rigs;
    rigs.push_back(ready(kernelRig(IsaKind::FlexiCore4,
                                   KernelId::Calculator, 3)));
    rigs.push_back(ready(fc8Rig(false)));
    rigs.push_back(ready(fc8Rig(true)));
    for (const Rig &rig : rigs) {
        // Shared defect lists: a PC freezer (dirty: the lane runner
        // shares it), a random stuck-at, two, an empty list, and one
        // more that first appears past the 512th run.
        Rng rng(deriveSeed(0x5A4EDull, rig.golden->numNets()));
        auto randomStuck = [&] {
            return StuckFault{
                static_cast<NetId>(rng.below(rig.golden->numNets())),
                rng.chance(0.5)};
        };
        std::vector<std::vector<StuckFault>> lists = {
            {rig.freezers[0]},
            {randomStuck()},
            {randomStuck(), randomStuck()},
            {},
            {randomStuck()},
        };
        const std::vector<StuckFault> *late = &lists.back();

        // Every drawn die keeps its own list. After every seventh one
        // from die 3 on comes an extra die with no in-field event,
        // carrying one of the first four shared lists or none at all
        // (past drawn die 600, the late list), so the dies sharing a
        // run sit both within one prescreen block and across blocks.
        std::vector<LaneDie> drawn = drawDies(rig, 640, 53);
        std::vector<LaneDie> dies;
        std::vector<const std::vector<StuckFault> *> stuck;
        dies.reserve(2 * drawn.size()); // stuck points into dies
        size_t sharers = 0, nulls = 0, firstFreezer = 0, firstLate = 0;
        for (size_t i = 0; i < drawn.size(); ++i) {
            dies.push_back(drawn[i]);
            stuck.push_back(&dies.back().stuck);
            if (i % 7 != 3)
                continue;
            const std::vector<StuckFault> *s = nullptr;
            if (i >= 600)
                s = late;
            else if ((i / 7) % 5 < 4)
                s = &lists[(i / 7) % 5];
            if (s == &lists[0] && !firstFreezer)
                firstFreezer = dies.size();
            if (s == late && !firstLate)
                firstLate = dies.size();
            LaneDie d;
            if (s)
                d.stuck = *s;
            dies.push_back(d);
            stuck.push_back(s);
            ++(s ? sharers : nulls);
        }
        EXPECT_GT(sharers, 4 * lists.size()) << rig.name;
        EXPECT_GT(nulls, 4u) << rig.name;
        ASSERT_GT(firstFreezer, 0u) << rig.name;
        ASSERT_GT(firstLate, 0u) << rig.name;

        std::vector<FaultSchedule> scheds;
        std::vector<CheckedRunResult> want;
        size_t clean = 0, sharedDirty = 0;
        for (size_t i = 0; i < dies.size(); ++i) {
            scheds.push_back(dies[i].sched);
            want.push_back(scalarRun(rig, dies[i], rig.cfg));
            clean += want.back().outputsCorrect &&
                     want.back().detections == 0;
            sharedDirty += stuck[i] == &lists[0] &&
                           want.back().detections > 0;
        }
        // Both halves must see work: clean dies for the prescreen to
        // settle, and more than a word of dies it cannot; the shared
        // freezer list runs dirty.
        EXPECT_GT(clean, 0u) << rig.name;
        EXPECT_GT(dies.size() - clean, 64u) << rig.name;
        EXPECT_GT(sharedDirty, 0u) << rig.name;

        for (unsigned width : {1u, 5u, 64u, 512u}) {
            for (unsigned threads : {1u, 4u}) {
                bool capture = threads == 1;
                PopulationResult got = runCheckedPopulation(
                    *rig.golden, rig.prog, rig.inputs, rig.cfg, scheds,
                    &stuck, width, threads, capture);
                // The sharers (and the event-free unfaulted dies)
                // took far fewer runs than dies, yet more than one
                // 512-lane block: the freezer list's run sits in the
                // first, the late list's in the second.
                EXPECT_LT(got.runs.size() + sharers, dies.size())
                    << rig.name;
                ASSERT_GT(got.runs.size(), 512u) << rig.name;
                EXPECT_LT(got.runOf[firstFreezer], 512u) << rig.name;
                EXPECT_GE(got.runOf[firstLate], 512u) << rig.name;
                expectPopulation(got, want, rig.cfg.detectors, capture,
                                 strfmt("%s, width %u, %u threads",
                                        rig.name.c_str(), width,
                                        threads));
            }
        }

        // With every die carrying an event, no run is shared.
        std::vector<FaultSchedule> eventful;
        std::vector<const std::vector<StuckFault> *> eventfulStuck;
        std::vector<CheckedRunResult> eventfulWant;
        for (size_t i = 0; i < dies.size(); ++i) {
            if (scheds[i].transients.empty() && scheds[i].flips.empty())
                continue;
            eventful.push_back(scheds[i]);
            eventfulStuck.push_back(stuck[i]);
            eventfulWant.push_back(want[i]);
        }
        PopulationResult own = runCheckedPopulation(
            *rig.golden, rig.prog, rig.inputs, rig.cfg, eventful,
            &eventfulStuck, 64, 4, true);
        EXPECT_EQ(own.runs.size(), eventful.size()) << rig.name;
        expectPopulation(own, eventfulWant, rig.cfg.detectors, true,
                         rig.name + ", every die eventful");
    }
}

TEST(CheckedPopulation, WindowsAtTheTapeEndCount)
{
    // The prescreen leaves out windows that open after the tape ends;
    // one opening on the last cycle still forces the pads of the
    // final boundary compare, which armed lockstep reads.
    Rig rig = ready(kernelRig(IsaKind::FlexiCore4,
                              KernelId::Thresholding, 2));
    CheckedRunConfig cfg = rig.cfg;
    cfg.detectors.lockstep = true;
    std::vector<LaneDie> dies;
    for (const auto &[name, net] : rig.golden->primaryOutputs()) {
        if (name.rfind("pc", 0) && name.rfind("oport", 0))
            continue;
        for (uint64_t at : {rig.horizon - 1, rig.horizon,
                            rig.horizon + 1})
            for (bool v : {false, true}) {
                LaneDie d;
                d.sched.transients.push_back({net, v, at, at + 1});
                dies.push_back(std::move(d));
            }
    }
    std::vector<FaultSchedule> scheds;
    std::vector<CheckedRunResult> want;
    size_t caughtAtEnd = 0;
    for (const LaneDie &d : dies) {
        scheds.push_back(d.sched);
        want.push_back(scalarRun(rig, d, cfg));
        caughtAtEnd += d.sched.transients[0].fromCycle == rig.horizon &&
                       want.back().detections > 0;
    }
    EXPECT_GT(caughtAtEnd, 0u);
    expectPopulation(runCheckedPopulation(*rig.golden, rig.prog,
                                          rig.inputs, cfg, scheds,
                                          nullptr, 512, 1, true),
                     want, cfg.detectors, true, "tape-end windows");
}

TEST(CheckedPopulation, EmptyAndMismatchedPopulations)
{
    Rig rig = kernelRig(IsaKind::FlexiCore4, KernelId::Thresholding, 1);
    std::vector<FaultSchedule> none;
    PopulationResult empty = runCheckedPopulation(
        *rig.golden, rig.prog, rig.inputs, rig.cfg, none, nullptr, 512,
        4, true);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.endState.empty());
    std::vector<FaultSchedule> two(2);
    std::vector<const std::vector<StuckFault> *> one(1, nullptr);
    EXPECT_THROW(runCheckedPopulation(*rig.golden, rig.prog, rig.inputs,
                                      rig.cfg, two, &one, 512, 1,
                                      false),
                 FatalError);
}

/** @p run is a fault-free die's clean run of @p want's length. */
::testing::AssertionResult
cleanRun(const CheckedRunSummary &run, const CheckedRunResult &want)
{
    if (run.outcome == CheckedOutcome::Completed && run.outputsCorrect &&
        run.detections == 0 && run.cycles == want.cycles)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << checkedOutcomeName(run.outcome) << ", outputs "
           << (run.outputsCorrect ? "correct" : "wrong") << ", "
           << run.detections << " detections, " << run.cycles
           << " cycles (want " << want.cycles << ")";
}

TEST(CheckedPopulation, TapeBaselineMatchesScalarOracle)
{
    // Every population reads its fault-free run off the golden tape:
    // the last point's elapsed cycles and index must be the scalar
    // runtime's cycles and instructions with protection off, on every
    // core, kernel and fc8 program (the two-page one included). The
    // population's own fault-free run must come back clean whether it
    // is shared with event-free dies or runs as an extra lane, through
    // the prescreen (width 512) or the lane runner (width 1).
    std::vector<Rig> rigs;
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::ExtAcc4,
                        IsaKind::LoadStore4})
        for (KernelId kernel : allKernels())
            rigs.push_back(kernelRig(isa, kernel, 2));
    for (size_t p = 0; p < kNumFc8Programs; ++p) {
        auto id = static_cast<Fc8Program>(p);
        IsaKind isa = IsaKind::FlexiCore8;
        Rig rig{strfmt("fc8/%s", fc8ProgramName(id)),
                buildCoreNetlist(isa),
                assemble(isa, fc8ProgramSource(id)),
                fc8ProgramInputs(id, 4, 3), {}, 1, {}};
        rig.cfg.isa = isa;
        rig.cfg.targetOutputs = 4;
        rigs.push_back(std::move(rig));
    }
    rigs.push_back(fc8Rig(true));

    for (const Rig &rig : rigs) {
        CheckedRunConfig bare = rig.cfg;
        bare.detectors = DetectorConfig{false, false, false, 192};
        bare.recovery.enabled = false;
        auto pristine = rig.golden->clone();
        CheckedRunResult want =
            runChecked(*pristine, rig.prog, rig.inputs, bare);
        ASSERT_EQ(want.outcome, CheckedOutcome::Completed) << rig.name;
        ASSERT_TRUE(want.outputsCorrect) << rig.name;

        GoldenTape tape = checkedTape(rig.prog, rig.inputs, rig.cfg);
        const GoldenTape::Point &end = tape.at(tape.last());
        EXPECT_TRUE(end.done) << rig.name;
        EXPECT_EQ(end.elapsed, want.cycles) << rig.name;
        EXPECT_EQ(tape.last(), want.instructions) << rig.name;

        // No dies, one die whose PC pad is held high all run (it
        // cannot come back clean), and an event-free die beside it.
        FaultSchedule pcHeld, quiet;
        for (const auto &[name, net] : rig.golden->primaryOutputs())
            if (name == "pc0")
                pcHeld.transients.push_back({net, true, 0, ~0ull});
        ASSERT_EQ(pcHeld.transients.size(), 1u) << rig.name;
        for (unsigned width : {1u, 512u}) {
            std::string at = strfmt("%s, width %u", rig.name.c_str(),
                                    width);
            PopulationResult none = flexi::runCheckedPopulation(
                *rig.golden, tape, rig.cfg, {}, nullptr, width, 1, true);
            EXPECT_TRUE(none.runs.empty()) << at;
            EXPECT_TRUE(none.endState.empty()) << at;
            EXPECT_TRUE(cleanRun(none.faultFree, want)) << at;

            PopulationResult alone = flexi::runCheckedPopulation(
                *rig.golden, tape, rig.cfg, {&pcHeld}, nullptr, width,
                1, true);
            EXPECT_EQ(alone.runs.size(), 1u) << at;
            EXPECT_EQ(alone.endState.size(), alone.stateWords) << at;
            EXPECT_FALSE(cleanRun(alone.die(0), want)) << at;
            EXPECT_TRUE(cleanRun(alone.faultFree, want)) << at;

            PopulationResult beside = flexi::runCheckedPopulation(
                *rig.golden, tape, rig.cfg, {&pcHeld, &quiet}, nullptr,
                width, 1, false);
            ASSERT_EQ(beside.runs.size(), 2u) << at;
            EXPECT_TRUE(cleanRun(beside.faultFree, want)) << at;
            EXPECT_TRUE(cleanRun(beside.die(1), want)) << at;
        }
    }
}

TEST(CheckedPopulation, ShortTapeEndsEveryLaneOutOfBudget)
{
    // A tape recorded under a smaller budget than the runs' ends
    // where the golden run did: every lane stops there, out of
    // budget, instead of reading past the tape.
    Rig rig = kernelRig(IsaKind::FlexiCore4, KernelId::Thresholding, 2);
    CheckedRunConfig small = rig.cfg;
    small.maxInstructions = 12;
    GoldenTape tape = checkedTape(rig.prog, rig.inputs, small);
    ASSERT_FALSE(tape.at(tape.last()).done);
    ASSERT_EQ(tape.last(), 12u);

    std::vector<FaultSchedule> scheds(3);
    scheds[1].flips.push_back({5, 0});
    scheds[2].transients.push_back({0, true, 3, 6});
    for (unsigned width : {1u, 512u}) {
        PopulationResult pop = flexi::runCheckedPopulation(
            *rig.golden, tape, rig.cfg, pointersTo(scheds), nullptr,
            width, 1, false);
        for (size_t i = 0; i < pop.size(); ++i) {
            EXPECT_EQ(pop.die(i).outcome,
                      CheckedOutcome::BudgetExhausted)
                << "die " << i << ", width " << width;
            EXPECT_FALSE(pop.die(i).outputsCorrect) << "die " << i;
        }
        EXPECT_EQ(pop.faultFree.outcome, CheckedOutcome::BudgetExhausted);
        EXPECT_EQ(pop.faultFree.cycles, tape.at(tape.last()).elapsed);
    }
}

} // namespace
} // namespace flexi
