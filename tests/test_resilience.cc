/**
 * @file
 * Tests for the resilience subsystem: netlist-level in-field fault
 * hooks, the checked (detect-and-recover) runner, fault-injection
 * campaigns and their determinism contract, die-salvage binning, and
 * the SAT-guided ATPG triage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "analysis/atpg.hh"
#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "resilience/checked_run.hh"
#include "resilience/fault_campaign.hh"
#include "resilience/salvage.hh"
#include "yield/die_model.hh"
#include "yield/test_program.hh"

namespace flexi
{
namespace
{

unsigned
popcount32(uint32_t v)
{
    unsigned n = 0;
    for (; v; v &= v - 1)
        ++n;
    return n;
}

// ---------------------------------------------------------------
// Netlist in-field fault hooks
// ---------------------------------------------------------------

TEST(NetlistFaults, CycleCounterIsMonotonicAcrossReset)
{
    auto nl = buildFlexiCore4Netlist();
    EXPECT_EQ(nl->cycle(), 0u);
    for (int i = 0; i < 5; ++i) {
        nl->evaluate();
        nl->clockEdge();
    }
    EXPECT_EQ(nl->cycle(), 5u);
    // reset() is a power cycle of the state, not of wall-clock time:
    // transient windows must not re-arm on rollback/restart.
    nl->reset();
    EXPECT_EQ(nl->cycle(), 5u);
}

TEST(NetlistFaults, TransientForcesOnlyInsideItsWindow)
{
    auto nl = buildFlexiCore4Netlist();
    nl->reset();
    NetId net = nl->cells()[0].output;

    // Learn the natural (fault-free) trajectory of the net first.
    std::vector<bool> natural;
    {
        auto ref = nl->clone();
        for (int c = 0; c < 3; ++c) {
            ref->evaluate();
            natural.push_back(ref->netValue(net));
            ref->clockEdge();
        }
    }

    // Window [2, 3): forced on cycle 2 only; cycles before it follow
    // the natural trajectory.
    nl->injectTransient({net, !natural[2], 2, 3});
    ASSERT_EQ(nl->transients().size(), 1u);
    for (int c = 0; c < 3; ++c) {
        nl->evaluate();
        EXPECT_EQ(nl->netValue(net),
                  c == 2 ? !natural[c] : natural[c])
            << "cycle " << c;
        nl->clockEdge();
    }

    // Release: past the window the evaluator must behave exactly
    // like a transient-free netlist carrying the same (possibly
    // corrupted) DFF state — compare against a cleared twin.
    auto twin = nl->clone();
    twin->clearTransients();
    for (int c = 3; c < 6; ++c) {
        nl->evaluate();
        twin->evaluate();
        EXPECT_EQ(nl->netValue(net), twin->netValue(net))
            << "cycle " << c;
        nl->clockEdge();
        twin->clockEdge();
    }
}

TEST(NetlistFaults, ClearTransientsReleasesTheForce)
{
    auto nl = buildFlexiCore4Netlist();
    auto ref = nl->clone();
    nl->reset();
    ref->reset();
    NetId net = nl->cells()[0].output;
    nl->injectTransient({net, true, 0, 100});
    nl->clearTransients();
    EXPECT_TRUE(nl->transients().empty());
    nl->evaluate();
    ref->evaluate();
    EXPECT_EQ(nl->netValue(net), ref->netValue(net));
}

TEST(NetlistFaults, TransientDoesNotDisturbStuckAtFault)
{
    // Stuck-at faults (manufacturing defects) must survive the
    // release of an overlapping transient on another net.
    auto nl = buildFlexiCore4Netlist();
    nl->reset();
    NetId stuck = nl->cells()[0].output;
    nl->injectFault({stuck, true});
    nl->injectTransient({nl->cells()[1].output, true, 0, 1});
    nl->evaluate();
    nl->clockEdge();
    nl->clearTransients();
    nl->evaluate();
    EXPECT_TRUE(nl->netValue(stuck));
}

TEST(NetlistFaults, DffFlipAndStateRoundtrip)
{
    auto nl = buildFlexiCore4Netlist();
    nl->reset();
    for (int i = 0; i < 8; ++i) {
        nl->evaluate();
        nl->clockEdge();
    }
    ASSERT_GT(nl->numDffs(), 4u);

    std::vector<uint8_t> saved = nl->saveDffState();
    bool v = nl->dffValue(3);
    nl->flipDff(3);
    EXPECT_EQ(nl->dffValue(3), !v);
    nl->restoreDffState(saved);
    EXPECT_EQ(nl->dffValue(3), v);
    EXPECT_EQ(nl->saveDffState(), saved);
}

TEST(ChecksumTest, Crc8MatchesCheckValue)
{
    // CRC-8 poly 0x07, init 0, no reflection: the standard check
    // value over "123456789" is 0xF4.
    uint8_t crc = 0;
    for (char c : std::string("123456789"))
        crc = crc8(crc, static_cast<uint8_t>(c));
    EXPECT_EQ(crc, 0xF4);
}

// ---------------------------------------------------------------
// Checked runner
// ---------------------------------------------------------------

struct CheckedRig
{
    explicit CheckedRig(IsaKind isa)
        : golden(buildCoreNetlist(isa)),
          prog(isa == IsaKind::FlexiCore8
                   ? assemble(isa, fc8ProgramSource(Fc8Program(0)))
                   : assemble(isa, kernelSource(
                                       KernelId::Thresholding, isa)))
    {
        cfg.isa = isa;
        if (isa == IsaKind::FlexiCore8) {
            inputs = fc8ProgramInputs(Fc8Program(0), 4, 1);
            cfg.targetOutputs = 4;
        } else {
            inputs = kernelInputs(KernelId::Thresholding, 4, 1);
            cfg.targetOutputs =
                4 * kernelOutputsPerWork(KernelId::Thresholding);
        }
    }

    std::unique_ptr<Netlist> golden;
    Program prog;
    std::vector<uint8_t> inputs;
    CheckedRunConfig cfg;
};

TEST(CheckedRun, CleanRunCompletesOnEveryCore)
{
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8,
                        IsaKind::ExtAcc4, IsaKind::LoadStore4}) {
        CheckedRig rig(isa);
        auto die = rig.golden->clone();
        CheckedRunResult run =
            runChecked(*die, rig.prog, rig.inputs, rig.cfg);
        EXPECT_EQ(run.outcome, CheckedOutcome::Completed)
            << isaName(isa);
        EXPECT_TRUE(run.outputsCorrect) << isaName(isa);
        EXPECT_EQ(run.detections, 0u) << isaName(isa);
        EXPECT_EQ(run.retries, 0u) << isaName(isa);
        EXPECT_EQ(run.restarts, 0u) << isaName(isa);
        EXPECT_EQ(run.padMismatches, 0u) << isaName(isa);
        EXPECT_EQ(run.dieOutputs, run.goldenOutputs) << isaName(isa);
        EXPECT_EQ(run.dieOutputs.size(), rig.cfg.targetOutputs)
            << isaName(isa);
    }
}

TEST(CheckedRun, CrcDetectorNeverCompletesSilentlyWrong)
{
    // The final-compare contract: with the output CRC armed, a run
    // may end with wrong outputs only if a detector fired or the die
    // was declared degraded — never silently. Exercised over the
    // first stuck-at faults that corrupt an unprotected run.
    CheckedRig rig(IsaKind::FlexiCore4);
    unsigned corrupting = 0;
    for (size_t c = 0; c < rig.golden->cells().size() && corrupting < 6;
         ++c) {
        StuckFault fault{rig.golden->cells()[c].output, true};

        CheckedRunConfig bare = rig.cfg;
        bare.detectors = DetectorConfig{false, false, false, 192};
        bare.recovery.enabled = false;
        auto unprotected = rig.golden->clone();
        unprotected->injectFault(fault);
        CheckedRunResult naked =
            runChecked(*unprotected, rig.prog, rig.inputs, bare);
        if (naked.outcome == CheckedOutcome::Completed &&
            naked.outputsCorrect)
            continue;   // masked fault, nothing to detect
        ++corrupting;

        auto die = rig.golden->clone();
        die->injectFault(fault);
        CheckedRunResult run =
            runChecked(*die, rig.prog, rig.inputs, rig.cfg);
        EXPECT_TRUE(run.outputsCorrect || run.detections > 0 ||
                    run.outcome == CheckedOutcome::Degraded)
            << "cell " << c;
    }
    EXPECT_GT(corrupting, 0u);
}

TEST(CheckedRun, DetectOnlyModeRecordsButDoesNotAct)
{
    // With recovery disabled the runner is a fail-stop monitor: it
    // must never roll back or restart, whatever it detects.
    CheckedRig rig(IsaKind::FlexiCore4);
    rig.cfg.recovery.enabled = false;
    for (size_t c = 0; c < 8; ++c) {
        auto die = rig.golden->clone();
        die->injectFault({rig.golden->cells()[c].output, true});
        CheckedRunResult run =
            runChecked(*die, rig.prog, rig.inputs, rig.cfg);
        EXPECT_EQ(run.retries, 0u);
        EXPECT_EQ(run.restarts, 0u);
        EXPECT_NE(run.outcome, CheckedOutcome::Degraded);
    }
}

// ---------------------------------------------------------------
// Fault campaigns
// ---------------------------------------------------------------

TEST(FaultCampaign, RecoveryConvertsSilentFailuresOnEveryCore)
{
    // The acceptance bar of the resilience PR: on all four cores,
    // arming the runtime converts every silent failure class of the
    // unprotected campaign into Recovered (or at worst Detected) —
    // and because fault schedules are independent of the protection
    // settings, the masked count is provably comparable.
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8,
                        IsaKind::ExtAcc4, IsaKind::LoadStore4}) {
        CampaignConfig off;
        off.isa = isa;
        off.seed = 7;
        off.injections = 48;
        off.detectors = DetectorConfig{false, false, false, 192};
        off.recovery.enabled = false;
        CampaignResult unprot = runFaultCampaign(off);
        ASSERT_TRUE(unprot.baselineCorrect) << isaName(isa);
        CampaignCounts u = unprot.counts();
        ASSERT_GT(u[FaultOutcome::Sdc] + u[FaultOutcome::Hang], 0u)
            << isaName(isa);
        EXPECT_EQ(u[FaultOutcome::Recovered], 0u) << isaName(isa);

        CampaignConfig on = off;
        on.detectors = DetectorConfig{};
        on.recovery = RecoveryPolicy{};
        CampaignResult prot = runFaultCampaign(on);
        CampaignCounts p = prot.counts();
        EXPECT_EQ(p.total(), u.total());
        EXPECT_EQ(p[FaultOutcome::Masked], u[FaultOutcome::Masked])
            << isaName(isa);
        EXPECT_EQ(p[FaultOutcome::Sdc], 0u) << isaName(isa);
        EXPECT_EQ(p[FaultOutcome::Hang], 0u) << isaName(isa);
        EXPECT_GT(p[FaultOutcome::Recovered], 0u) << isaName(isa);
    }
}

TEST(FaultCampaign, BudgetTooSmallFailsTheBaseline)
{
    // The golden tape runs out of budget before the kernel ends: the
    // fault-free run is out of budget too, so the baseline fails, and
    // its length is the scalar oracle's.
    CampaignConfig cfg;
    cfg.injections = 8;
    cfg.maxInstructions = 4;
    CampaignResult r = runFaultCampaign(cfg);
    EXPECT_FALSE(r.baselineCorrect);
    EXPECT_EQ(r.injections.size(), cfg.injections);

    CheckedRunConfig bare;
    bare.isa = cfg.isa;
    bare.detectors = DetectorConfig{false, false, false, 192};
    bare.recovery.enabled = false;
    bare.targetOutputs =
        cfg.workUnits * kernelOutputsPerWork(cfg.kernel);
    bare.maxInstructions = cfg.maxInstructions;
    auto die = buildCoreNetlist(cfg.isa);
    CheckedRunResult base = runChecked(
        *die, assemble(cfg.isa, kernelSource(cfg.kernel, cfg.isa)),
        kernelInputs(cfg.kernel, cfg.workUnits, cfg.seed), bare);
    EXPECT_EQ(base.outcome, CheckedOutcome::BudgetExhausted);
    EXPECT_EQ(r.baselineCycles, base.cycles);

    // Budgets that would wrap are refused, naming the field.
    auto refuses = [](const CampaignConfig &bad, const char *field) {
        try {
            runFaultCampaign(bad);
            ADD_FAILURE() << field << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos) << e.what();
        }
    };
    CampaignConfig bad = cfg;
    bad.maxInstructions = kMaxInstructionBudget + 1;
    refuses(bad, "maxInstructions");
    bad = cfg;
    bad.detectors.watchdogCycles = ~uint64_t(0);
    refuses(bad, "watchdogCycles");
}

TEST(FaultCampaign, ThreadCountDoesNotChangeResults)
{
    // Same contract as WaferStudy.ThreadCountDoesNotChangeResults:
    // per-injection results are bit-identical between a serial and a
    // threaded campaign over the same seed.
    CampaignConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 3;
    cfg.injections = 32;
    cfg.threads = 1;
    CampaignResult serial = runFaultCampaign(cfg);
    cfg.threads = 4;
    CampaignResult threaded = runFaultCampaign(cfg);

    EXPECT_EQ(serial.baselineCycles, threaded.baselineCycles);
    ASSERT_EQ(serial.injections.size(), threaded.injections.size());
    for (size_t i = 0; i < serial.injections.size(); ++i) {
        const InjectionResult &a = serial.injections[i];
        const InjectionResult &b = threaded.injections[i];
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.outcome, b.outcome) << i;
        EXPECT_EQ(a.runOutcome, b.runOutcome) << i;
        EXPECT_EQ(a.outputsCorrect, b.outputsCorrect) << i;
        EXPECT_EQ(a.detections, b.detections) << i;
        EXPECT_EQ(a.retries, b.retries) << i;
        EXPECT_EQ(a.restarts, b.restarts) << i;
        EXPECT_EQ(a.cycles, b.cycles) << i;
        EXPECT_EQ(a.firstDetector, b.firstDetector) << i;
    }
}

TEST(FaultCampaign, BatchLanesBitIdenticalToScalar)
{
    // The word-parallel prescreen only settles injections it can
    // prove masked; everything else runs the lane-parallel checked
    // runtime. Net effect: every injection of every packing — no
    // prescreen (batchLanes=1), 64 lanes, ragged 5-lane batches on
    // 4 threads, 512 lanes — is bit-identical, across all result
    // fields, to a scalar runChecked() of the same schedule on a
    // clone of the core, computed here.
    CampaignConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 9;
    cfg.injections = 40;
    cfg.threads = 1;
    std::vector<CampaignResult> runs;
    for (auto [lanes, threads] :
         {std::pair{1u, 1u}, std::pair{64u, 1u}, std::pair{5u, 4u},
          std::pair{512u, 1u}}) {
        cfg.batchLanes = lanes;
        cfg.threads = threads;
        runs.push_back(runFaultCampaign(cfg));
    }

    std::unique_ptr<Netlist> golden = buildCoreNetlist(cfg.isa);
    Program prog = assemble(cfg.isa, kernelSource(cfg.kernel, cfg.isa));
    std::vector<uint8_t> inputs =
        kernelInputs(cfg.kernel, cfg.workUnits, cfg.seed);
    CheckedRunConfig runCfg;
    runCfg.isa = cfg.isa;
    runCfg.detectors = cfg.detectors;
    runCfg.recovery = cfg.recovery;
    runCfg.targetOutputs =
        cfg.workUnits * kernelOutputsPerWork(cfg.kernel);
    runCfg.maxInstructions = cfg.maxInstructions;

    CheckedRunConfig baseCfg = runCfg;
    baseCfg.detectors = DetectorConfig{false, false, false, 192};
    baseCfg.recovery.enabled = false;
    auto baseDie = golden->clone();
    uint64_t baseline =
        runChecked(*baseDie, prog, inputs, baseCfg).cycles;

    CampaignCounts scalarCounts;
    for (const CampaignResult &r : runs) {
        EXPECT_EQ(r.baselineCycles, baseline);
        ASSERT_EQ(r.injections.size(), cfg.injections);
    }
    for (unsigned i = 0; i < cfg.injections; ++i) {
        auto [kind, sched] =
            injectionSchedule(cfg, *golden, baseline, i);
        auto die = golden->clone();
        CheckedRunResult want =
            runChecked(*die, prog, inputs, runCfg, sched);
        FaultOutcome outcome = classifyCheckedRun(want, cfg.detectors);
        ++scalarCounts.n[static_cast<size_t>(outcome)];
        for (const CampaignResult &r : runs) {
            const InjectionResult &b = r.injections[i];
            unsigned lanes = r.config.batchLanes;
            EXPECT_EQ(b.kind, kind) << i << " @" << lanes;
            EXPECT_EQ(b.outcome, outcome) << i << " @" << lanes;
            EXPECT_EQ(b.runOutcome, want.outcome) << i << " @" << lanes;
            EXPECT_EQ(b.outputsCorrect, want.outputsCorrect)
                << i << " @" << lanes;
            EXPECT_EQ(b.detections, want.detections)
                << i << " @" << lanes;
            EXPECT_EQ(b.retries, want.retries) << i << " @" << lanes;
            EXPECT_EQ(b.restarts, want.restarts) << i << " @" << lanes;
            EXPECT_EQ(b.cycles, want.cycles) << i << " @" << lanes;
            EXPECT_EQ(b.firstDetector, want.firstDetector)
                << i << " @" << lanes;
        }
    }
    // Neither path may agree vacuously: the prescreen must settle
    // some injections, and the checked runtime must see the rest.
    EXPECT_GT(scalarCounts[FaultOutcome::Masked], 0u);
    EXPECT_LT(scalarCounts[FaultOutcome::Masked], cfg.injections);
}

TEST(FaultCampaign, RejectsOutOfRangeWorkUnits)
{
    for (size_t bad : {size_t(0), kMaxWorkUnits + 1,
                       size_t(100000000000ull)}) {
        CampaignConfig cfg;
        cfg.injections = 2;
        cfg.workUnits = bad;
        EXPECT_THROW(runFaultCampaign(cfg), FatalError) << bad;
    }
}

TEST(FaultCampaign, ExercisesAllFaultKinds)
{
    CampaignConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 1;
    cfg.injections = 48;
    CampaignResult res = runFaultCampaign(cfg);
    unsigned kinds[3] = {};
    for (const InjectionResult &inj : res.injections)
        ++kinds[static_cast<size_t>(inj.kind)];
    EXPECT_GT(kinds[0], 0u);   // TransientNet
    EXPECT_GT(kinds[1], 0u);   // DffFlip
    EXPECT_GT(kinds[2], 0u);   // TimingGlitch
}

// ---------------------------------------------------------------
// Die salvage
// ---------------------------------------------------------------

TEST(Salvage, EffectiveYieldUpliftWithRawYieldUntouched)
{
    // Pinned against WaferStudy.PinnedSeedRegression: salvage must
    // report the identical raw Table 5 yields (fault recording may
    // not perturb the per-die RNG streams) while binning at least
    // one probe-failed die back into service.
    SalvageConfig cfg;
    cfg.study.isa = IsaKind::FlexiCore4;
    cfg.study.seed = 42;
    cfg.study.testCycles = 500;
    SalvageReport rep = runSalvageStudy(cfg);

    EXPECT_DOUBLE_EQ(rep.rawYield(true), 76.0 / 88.0);
    EXPECT_DOUBLE_EQ(rep.rawYield(false), 86.0 / 120.0);
    EXPECT_DOUBLE_EQ(rep.study.yield(3.0, true), 47.0 / 88.0);
    EXPECT_DOUBLE_EQ(rep.study.yield(3.0, false), 51.0 / 120.0);

    size_t functional = rep.binCount(DieBin::Functional, true);
    size_t salvaged = rep.binCount(DieBin::Salvaged, true);
    size_t dead = rep.binCount(DieBin::Dead, true);
    EXPECT_EQ(functional, 76u);
    EXPECT_EQ(functional + salvaged + dead, 88u);
    EXPECT_GT(salvaged, 0u);
    EXPECT_DOUBLE_EQ(rep.effectiveYield(true),
                     static_cast<double>(functional + salvaged) / 88.0);
    EXPECT_GE(rep.effectiveYield(true), rep.rawYield(true));
    EXPECT_GE(rep.effectiveYield(false), rep.rawYield(false));
}

TEST(Salvage, VerdictsAreInternallyConsistent)
{
    SalvageConfig cfg;
    cfg.study.isa = IsaKind::FlexiCore4;
    cfg.study.seed = 7;
    cfg.study.testCycles = 400;
    SalvageReport rep = runSalvageStudy(cfg);

    ASSERT_EQ(rep.dies.size(), rep.study.dies.size());
    for (size_t i = 0; i < rep.dies.size(); ++i) {
        const DieSalvage &v = rep.dies[i];
        const DieResult &die = rep.study.dies[i];
        EXPECT_EQ(v.dieIndex, i);
        EXPECT_EQ(v.kernelsPassed, popcount32(v.passedMask));
        bool probe_ok = die.at45V.functional();
        if (probe_ok) {
            EXPECT_EQ(v.bin, DieBin::Functional);
        } else {
            EXPECT_NE(v.bin, DieBin::Functional);
            EXPECT_EQ(v.bin, v.kernelsPassed >= cfg.minKernels
                                 ? DieBin::Salvaged
                                 : DieBin::Dead);
            EXPECT_GT(v.kernelsTotal, 0u);
        }
    }
}

TEST(Salvage, ThreadCountDoesNotChangeVerdicts)
{
    SalvageConfig cfg;
    cfg.study.isa = IsaKind::FlexiCore4;
    cfg.study.seed = 7;
    cfg.study.testCycles = 400;
    cfg.study.threads = 1;
    SalvageReport serial = runSalvageStudy(cfg);
    cfg.study.threads = 4;
    SalvageReport threaded = runSalvageStudy(cfg);

    ASSERT_EQ(serial.dies.size(), threaded.dies.size());
    for (size_t i = 0; i < serial.dies.size(); ++i) {
        const DieSalvage &a = serial.dies[i];
        const DieSalvage &b = threaded.dies[i];
        EXPECT_EQ(a.bin, b.bin) << i;
        EXPECT_EQ(a.passedMask, b.passedMask) << i;
        EXPECT_EQ(a.detections, b.detections) << i;
        EXPECT_EQ(a.retries, b.retries) << i;
        EXPECT_EQ(a.restarts, b.restarts) << i;
    }
}

TEST(Salvage, VerdictsMatchScalarOraclePerDie)
{
    // Every probe-failed die's verdict, recomputed kernel by kernel
    // with scalar runChecked() on a clone carrying the die's
    // stuck-ats, under the glitch schedule salvage draws for it.
    unsigned glitching = 0, salvaged = 0, dead = 0;
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8}) {
        for (double vdd : {4.5, 3.0}) {
            SalvageConfig cfg;
            cfg.study.isa = isa;
            cfg.study.seed = 42;
            cfg.study.testCycles = 500;
            cfg.vdd = vdd;
            SalvageReport rep = runSalvageStudy(cfg);
            std::unique_ptr<Netlist> golden = buildCoreNetlist(isa);
            std::vector<SalvageKernel> suite = salvageSuite(cfg);
            DieModel model(rep.study.spec, cfg.study.params);
            // Each kernel's glitch horizon: the scalar fault-free run
            // with protection off.
            std::vector<uint64_t> baseline;
            for (const SalvageKernel &w : suite) {
                CheckedRunConfig bare = w.runCfg;
                bare.detectors = DetectorConfig{false, false, false, 192};
                bare.recovery.enabled = false;
                auto pristine = golden->clone();
                baseline.push_back(
                    runChecked(*pristine, w.prog, w.inputs, bare).cycles);
            }

            ASSERT_EQ(rep.dies.size(), rep.study.dies.size());
            unsigned failed = 0;
            for (size_t i = 0; i < rep.dies.size(); ++i) {
                const DieResult &die = rep.study.dies[i];
                const DieSalvage &got = rep.dies[i];
                const DieProbe &probe = vdd > 4.0 ? die.at45V : die.at3V;
                if (probe.functional()) {
                    EXPECT_EQ(got.bin, DieBin::Functional) << i;
                    continue;
                }
                ++failed;
                double rate = model.glitchRate(die.sample, vdd);
                glitching += rate > 0;
                DieSalvage want;
                for (size_t k = 0; k < suite.size(); ++k) {
                    auto faulty = golden->clone();
                    for (const StuckFault &f : die.faults)
                        faulty->injectFault(f);
                    CheckedRunResult run = runChecked(
                        *faulty, suite[k].prog, suite[k].inputs,
                        suite[k].runCfg,
                        salvageGlitchSchedule(cfg, *golden, die, rate, k,
                                              baseline[k]));
                    want.detections += run.detections;
                    want.retries += run.retries;
                    want.restarts += run.restarts;
                    if (run.outcome == CheckedOutcome::Completed &&
                        run.outputsCorrect)
                        want.passedMask |= 1u << k;
                }
                std::string at = strfmt("%s at %.1f V, die %zu",
                                        isaName(isa), vdd, i);
                EXPECT_EQ(got.passedMask, want.passedMask) << at;
                EXPECT_EQ(got.detections, want.detections) << at;
                EXPECT_EQ(got.retries, want.retries) << at;
                EXPECT_EQ(got.restarts, want.restarts) << at;
                salvaged += got.bin == DieBin::Salvaged;
                dead += got.bin == DieBin::Dead;
            }
            EXPECT_GT(failed, 0u) << isaName(isa) << " at " << vdd;
        }
    }
    EXPECT_GT(glitching, 0u);
    EXPECT_GT(salvaged, 0u);
    EXPECT_GT(dead, 0u);
}

TEST(Salvage, RejectsNonFiniteVdd)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (double bad : {std::nan(""), kInf, -kInf, 0.0, -3.0}) {
        SalvageConfig cfg;
        cfg.vdd = bad;
        try {
            runSalvageStudy(cfg);
            ADD_FAILURE() << "vdd " << bad << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("vdd"),
                      std::string::npos) << e.what();
        }
    }
}

TEST(Salvage, BudgetTooSmallIsFatal)
{
    // A suite kernel the golden model cannot finish within the budget
    // is a configuration error, not a broken netlist.
    SalvageConfig cfg;
    cfg.study.seed = 42;
    cfg.study.testCycles = 400;
    cfg.maxInstructions = 4;
    try {
        runSalvageStudy(cfg);
        ADD_FAILURE() << "a 4-instruction budget was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("maxInstructions"),
                  std::string::npos) << e.what();
    }
}

// ---------------------------------------------------------------
// SAT-guided ATPG
// ---------------------------------------------------------------

TEST(Atpg, SampledRunTriagesEveryEscape)
{
    AtpgConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.simCycles = 600;
    cfg.maxFaults = 40;
    Program prog = makeTestProgram(cfg.isa, 11);
    auto inputs = makeTestInputs(cfg.isa, 256, 11);
    AtpgReport rep = runAtpg(cfg, prog, inputs);

    EXPECT_EQ(rep.faults, 40u);
    EXPECT_GT(rep.simDetected, 0u);
    EXPECT_EQ(rep.simDetected + rep.escapes.size(), rep.faults);
    // Every escape gets a verdict: a generated pattern or a proof.
    EXPECT_EQ(rep.testable + rep.redundant, rep.escapes.size());
    for (const AtpgFault &f : rep.escapes) {
        EXPECT_NE(f.testable, f.redundant);
        if (f.testable) {
            EXPECT_FALSE(f.pattern.empty());
        }
    }
    EXPECT_GE(rep.testableCoverage(), rep.simCoverage());
    EXPECT_LE(rep.simCoverage(), 1.0);

    // The lane-group fault simulation against its scalar oracle: a
    // fault is an escape exactly when runLockstep() on a faulted
    // clone sees no error. The sample strides the cell-output
    // universe (cell i/2, stuck at i&1).
    auto golden = buildFlexiCore4Netlist();
    const std::vector<CellInst> &cells = golden->cells();
    size_t universe = cells.size() * 2;
    for (size_t i = 0; i < rep.faults; ++i) {
        size_t idx = i * universe / rep.faults;
        StuckFault fault{cells[idx / 2].output, (idx & 1) != 0};
        auto die = golden->clone();
        die->injectFault(fault);
        bool detected =
            runLockstep(*die, cfg.isa, prog, inputs, cfg.simCycles)
                .errors > 0;
        bool escaped = std::any_of(
            rep.escapes.begin(), rep.escapes.end(),
            [&](const AtpgFault &f) {
                return f.fault.net == fault.net &&
                       f.fault.value == fault.value;
            });
        EXPECT_EQ(escaped, !detected) << "fault " << i;
    }
}

} // namespace
} // namespace flexi
