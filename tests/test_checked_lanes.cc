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

std::unique_ptr<Netlist>
buildCore(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
      case IsaKind::LoadStore4: return buildLoadStore4Netlist();
    }
    return nullptr;
}

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
            buildCore(isa), assemble(isa, kernelSource(kernel, isa)),
            kernelInputs(kernel, units, 3), {}, 1, {}};
    rig.cfg.isa = isa;
    rig.cfg.targetOutputs = units * kernelOutputsPerWork(kernel);
    return rig;
}

Rig
fc8Rig(bool twoPage)
{
    IsaKind isa = IsaKind::FlexiCore8;
    Rig rig{twoPage ? "fc8/two-page" : "fc8/program0", buildCore(isa),
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

TEST(CheckedPopulation, MatchesScalarPerDie)
{
    // 530 dies: prescreen blocks straddle the 512-lane group, and the
    // dies the prescreen hands on straddle the 64-lane word; FC4
    // Calculator and the two-page FC8 program page through the MMU.
    std::vector<Rig> rigs;
    rigs.push_back(ready(kernelRig(IsaKind::FlexiCore4,
                                   KernelId::Calculator, 3)));
    rigs.push_back(ready(fc8Rig(false)));
    rigs.push_back(ready(fc8Rig(true)));
    for (const Rig &rig : rigs) {
        std::vector<LaneDie> dies = drawDies(rig, 530, 53);
        std::vector<FaultSchedule> scheds;
        std::vector<const std::vector<StuckFault> *> stuck;
        std::vector<CheckedRunResult> want;
        size_t clean = 0;
        for (const LaneDie &d : dies) {
            scheds.push_back(d.sched);
            stuck.push_back(&d.stuck);
            want.push_back(scalarRun(rig, d, rig.cfg));
            clean += want.back().outputsCorrect &&
                     want.back().detections == 0;
        }
        // Both halves must see work: clean dies for the prescreen to
        // settle, and more than a word of dies it cannot.
        EXPECT_GT(clean, 0u) << rig.name;
        EXPECT_GT(dies.size() - clean, 64u) << rig.name;

        for (unsigned width : {1u, 5u, 64u, 512u}) {
            for (unsigned threads : {1u, 4u}) {
                bool capture = threads == 1;
                std::vector<CheckedRunSummary> got =
                    runCheckedPopulation(*rig.golden, rig.prog,
                                         rig.inputs, rig.cfg, scheds,
                                         &stuck, width, threads,
                                         capture);
                ASSERT_EQ(got.size(), dies.size());
                for (size_t i = 0; i < dies.size(); ++i) {
                    const CheckedRunResult &w = want[i];
                    const CheckedRunSummary &g = got[i];
                    std::string at = strfmt(
                        "%s die %zu, width %u, %u threads",
                        rig.name.c_str(), i, width, threads);
                    EXPECT_EQ(g.outcome, w.outcome) << at;
                    EXPECT_EQ(g.outputsCorrect, w.outputsCorrect)
                        << at;
                    EXPECT_EQ(g.cycles, w.cycles) << at;
                    EXPECT_EQ(g.detections, w.detections) << at;
                    EXPECT_EQ(g.retries, w.retries) << at;
                    EXPECT_EQ(g.restarts, w.restarts) << at;
                    EXPECT_EQ(g.firstDetector, w.firstDetector) << at;
                    EXPECT_EQ(classifyCheckedRun(g, rig.cfg.detectors),
                              classifyCheckedRun(w, rig.cfg.detectors))
                        << at;
                    if (capture) {
                        EXPECT_EQ(g.endDff, w.endDff) << at;
                    } else {
                        EXPECT_TRUE(g.endDff.empty()) << at;
                    }
                }
            }
        }
    }
}

TEST(CheckedPopulation, EmptyAndMismatchedPopulations)
{
    Rig rig = kernelRig(IsaKind::FlexiCore4, KernelId::Thresholding, 1);
    std::vector<FaultSchedule> none;
    EXPECT_TRUE(runCheckedPopulation(*rig.golden, rig.prog, rig.inputs,
                                     rig.cfg, none, nullptr, 512, 4,
                                     true)
                    .empty());
    std::vector<FaultSchedule> two(2);
    std::vector<const std::vector<StuckFault> *> one(1, nullptr);
    EXPECT_THROW(runCheckedPopulation(*rig.golden, rig.prog, rig.inputs,
                                      rig.cfg, two, &one, 512, 1,
                                      false),
                 FatalError);
}

} // namespace
} // namespace flexi
