/**
 * @file
 * Tests for the wafer geometry, die outcome model, test-vector
 * generation, and the Monte-Carlo wafer study (Section 4).
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "yield/die_model.hh"
#include "yield/test_program.hh"
#include "yield/wafer.hh"
#include "yield/wafer_study.hh"

namespace flexi
{
namespace
{

// ---------------------------------------------------------------
// Wafer geometry
// ---------------------------------------------------------------

TEST(Wafer, DieCountNearPaper)
{
    // Figure 4 shows 123 dies on the 200 mm wafer; the square grid
    // model yields 120 (DESIGN.md records the deviation).
    WaferMap wafer;
    EXPECT_GE(wafer.numDies(), 115u);
    EXPECT_LE(wafer.numDies(), 125u);
}

TEST(Wafer, InclusionZoneIsStrictSubset)
{
    WaferMap wafer;
    EXPECT_LT(wafer.numInclusionDies(), wafer.numDies());
    EXPECT_GT(wafer.numInclusionDies(), wafer.numDies() / 2);
}

TEST(Wafer, AllDiesOnWafer)
{
    WaferMap wafer;
    for (const auto &site : wafer.sites()) {
        EXPECT_LE(site.radiusMm, wafer.diameterMm() / 2.0);
        EXPECT_EQ(site.inInclusionZone,
                  site.radiusMm <= wafer.inclusionRadiusMm());
    }
}

TEST(Wafer, SmallerPitchMoreDies)
{
    WaferMap coarse(200.0, 16.0, 16.0);
    WaferMap fine(200.0, 8.0, 16.0);
    EXPECT_GT(fine.numDies(), 3 * coarse.numDies());
}

TEST(Wafer, RejectsBadGeometry)
{
    EXPECT_THROW(WaferMap(0.0, 16.0, 16.0), FatalError);
    EXPECT_THROW(WaferMap(200.0, -1.0, 16.0), FatalError);
}

// ---------------------------------------------------------------
// Die model properties
// ---------------------------------------------------------------

class DieModelTest : public ::testing::Test
{
  protected:
    DieModelTest()
        : spec(designSpecFor(IsaKind::FlexiCore4)), model(spec)
    {}

    DesignSpec spec;
    DieModel model;
    WaferMap wafer;
};

TEST_F(DieModelTest, NominalDieWorksAtBothVoltages)
{
    DieSample nominal;   // defaults: no defects, mean Vth, factor 1
    EXPECT_TRUE(model.functional(nominal, kVddNominal));
    EXPECT_TRUE(model.functional(nominal, kVddLow));
}

TEST_F(DieModelTest, DefectiveDieNeverFunctional)
{
    DieSample die;
    die.defects = 1;
    EXPECT_FALSE(model.functional(die, kVddNominal));
}

TEST_F(DieModelTest, SlowDieFailsLowVoltageFirst)
{
    // Push the speed factor until 3 V fails; 4.5 V must still pass
    // at that point (the Table 5 voltage ordering).
    DieSample die;
    for (double sf = 1.0; sf < 2.0; sf += 0.01) {
        die.speedFactor = sf;
        if (!model.meetsTiming(die, kVddLow)) {
            EXPECT_TRUE(model.meetsTiming(die, kVddNominal))
                << "sf=" << sf;
            return;
        }
    }
    FAIL() << "3 V timing never failed";
}

TEST_F(DieModelTest, HighVthSlowsDie)
{
    DieSample fast, slow;
    fast.vth = kVthMean - 0.2;
    slow.vth = kVthMean + 0.2;
    EXPECT_GT(model.critPathDelay(slow, kVddLow),
              model.critPathDelay(fast, kVddLow));
}

TEST_F(DieModelTest, CurrentScalesWithFactorAndVoltage)
{
    DieSample die;
    die.currentFactor = 1.2;
    DieSample base;
    EXPECT_NEAR(model.currentDraw(die, kVddNominal),
                1.2 * model.currentDraw(base, kVddNominal), 1e-12);
    EXPECT_GT(model.currentDraw(base, kVddNominal),
              model.currentDraw(base, kVddLow));
}

TEST_F(DieModelTest, EdgeDiesDefectProne)
{
    Rng rng(7);
    double edge_defects = 0, center_defects = 0;
    unsigned edge_n = 0, center_n = 0;
    for (int rep = 0; rep < 200; ++rep) {
        for (const auto &site : wafer.sites()) {
            DieSample die = model.sample(site, wafer, rng);
            if (site.inInclusionZone) {
                center_defects += die.defects;
                ++center_n;
            } else {
                edge_defects += die.defects;
                ++edge_n;
            }
        }
    }
    EXPECT_GT(edge_defects / edge_n, 2.0 * center_defects / center_n);
}

TEST_F(DieModelTest, TimingErrorsGrowWithShortfall)
{
    DieSample marginal, hopeless;
    marginal.speedFactor = 1.2;
    hopeless.speedFactor = 2.0;
    double e_m = model.expectedTimingErrors(marginal, kVddLow, 1000);
    double e_h = model.expectedTimingErrors(hopeless, kVddLow, 1000);
    if (e_m > 0) {
        EXPECT_GT(e_h, e_m);
    }
    DieSample nominal;
    EXPECT_EQ(model.expectedTimingErrors(nominal, kVddNominal, 1000),
              0.0);
}

TEST(DesignSpecTest, Fc8HasMoreDevicesAndLongerPath)
{
    DesignSpec fc4 = designSpecFor(IsaKind::FlexiCore4);
    DesignSpec fc8 = designSpecFor(IsaKind::FlexiCore8);
    EXPECT_GT(fc8.devices, fc4.devices);
    EXPECT_GT(fc8.critDelayUnits, fc4.critDelayUnits);
    EXPECT_TRUE(fc8.pullUpRefined);
    EXPECT_FALSE(fc4.pullUpRefined);
}

TEST(DesignSpecTest, IncompleteSpecRejected)
{
    DesignSpec bad;
    bad.name = "empty";
    EXPECT_THROW(DieModel{bad}, FatalError);
}

// ---------------------------------------------------------------
// Test program
// ---------------------------------------------------------------

class TestProgramTest : public ::testing::TestWithParam<int>
{
};

TEST_P(TestProgramTest, FillsOnePage)
{
    auto isa = static_cast<IsaKind>(GetParam());
    Program p = makeTestProgram(isa, 1);
    EXPECT_EQ(p.numPages(), 1u);
    EXPECT_EQ(p.page(0).size(), kPageSize);
}

TEST_P(TestProgramTest, FaultFreeDiePassesCleanly)
{
    auto isa = static_cast<IsaKind>(GetParam());
    Program p = makeTestProgram(isa, 2);
    auto inputs = makeTestInputs(isa, 128, 2);
    auto nl = isa == IsaKind::FlexiCore4 ? buildFlexiCore4Netlist()
                                         : buildFlexiCore8Netlist();
    LockstepResult res = runLockstep(*nl, isa, p, inputs, 3000);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_GE(res.cycles, 3000u);   // wraps forever, never halts
}

TEST_P(TestProgramTest, VectorsToggleEveryGate)
{
    // Section 4.1: "all gates toggle at least once".
    auto isa = static_cast<IsaKind>(GetParam());
    Program p = makeTestProgram(isa, 3);
    auto inputs = makeTestInputs(isa, 256, 3);
    auto nl = isa == IsaKind::FlexiCore4 ? buildFlexiCore4Netlist()
                                         : buildFlexiCore8Netlist();
    nl->enableToggles(true);
    runLockstep(*nl, isa, p, inputs, 4000);
    EXPECT_GT(nl->minCellToggles(), 0u);
    EXPECT_GT(nl->meanCellToggles(), 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    BothCores, TestProgramTest,
    ::testing::Values(static_cast<int>(IsaKind::FlexiCore4),
                      static_cast<int>(IsaKind::FlexiCore8)));

TEST(TestProgramTest2, RejectsDseIsas)
{
    EXPECT_THROW(makeTestProgram(IsaKind::ExtAcc4, 1), FatalError);
}

// ---------------------------------------------------------------
// Wafer study
// ---------------------------------------------------------------

TEST(WaferStudy, Table5Shape)
{
    // One seeded wafer per design; assert the Table 5 orderings and
    // broad bands (exact values are Monte-Carlo noisy per wafer).
    WaferStudyConfig cfg4;
    cfg4.isa = IsaKind::FlexiCore4;
    cfg4.seed = 11;
    cfg4.gateLevelErrors = false;
    auto fc4 = runWaferStudy(cfg4);

    WaferStudyConfig cfg8 = cfg4;
    cfg8.isa = IsaKind::FlexiCore8;
    auto fc8 = runWaferStudy(cfg8);

    // Inclusion-zone yield beats full-wafer yield.
    EXPECT_GT(fc4.yield(4.5, true), fc4.yield(4.5, false));
    // 4.5 V beats 3 V.
    EXPECT_GT(fc4.yield(4.5, true), fc4.yield(3.0, true));
    EXPECT_GT(fc8.yield(4.5, true), fc8.yield(3.0, true));
    // FlexiCore4 out-yields FlexiCore8 (more devices, longer adder).
    EXPECT_GT(fc4.yield(4.5, true), fc8.yield(4.5, true));
    // FlexiCore8 falls off a cliff at 3 V (Table 5: 6 %).
    EXPECT_LT(fc8.yield(3.0, true), 0.25);
    // Bands around the paper's numbers.
    EXPECT_GT(fc4.yield(4.5, true), 0.65);
    EXPECT_LT(fc4.yield(4.5, true), 0.97);
}

TEST(WaferStudy, FunctionalMeansZeroErrors)
{
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 3;
    cfg.gateLevelErrors = false;
    auto res = runWaferStudy(cfg);
    for (const auto &die : res.dies) {
        EXPECT_EQ(die.at45V.functional(), die.at45V.errors == 0);
        EXPECT_GT(die.at45V.currentA, 0.0);
    }
}

TEST(WaferStudy, GateLevelFaultSimFindsDefects)
{
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 5;
    cfg.testCycles = 600;
    cfg.gateLevelErrors = true;
    auto res = runWaferStudy(cfg);
    unsigned defective = 0, caught = 0;
    for (const auto &die : res.dies) {
        if (!die.sample.hasDefects())
            continue;
        ++defective;
        caught += die.at45V.errors > 0;
    }
    ASSERT_GT(defective, 0u);
    // The vector suite catches the overwhelming majority of stuck-at
    // defects (a few may be logically masked — real test escapes).
    EXPECT_GT(static_cast<double>(caught) / defective, 0.6);
}

TEST(WaferStudy, CurrentRsdMatchesMeasurement)
{
    // Section 4.2: RSD 15.3 % (FC4) / 21.5 % (FC8) at 4.5 V.
    // Average over wafers to beat Monte-Carlo noise.
    for (auto [isa, target] :
         {std::pair{IsaKind::FlexiCore4, 0.153},
          std::pair{IsaKind::FlexiCore8, 0.215}}) {
        RunningStat rsd;
        for (uint64_t seed = 1; seed <= 10; ++seed) {
            WaferStudyConfig cfg;
            cfg.isa = isa;
            cfg.seed = seed;
            cfg.gateLevelErrors = false;
            auto res = runWaferStudy(cfg);
            rsd.add(res.currentStats(4.5).rsd());
        }
        EXPECT_NEAR(rsd.mean(), target, 0.05) << isaName(isa);
    }
}

TEST(WaferStudy, PinnedSeedRegression)
{
    // Exact regression pin for one seeded gate-level wafer. These
    // numbers are a contract: the per-die RNG streams are derived
    // from (seed, site.index), so no refactor of the probing loop —
    // reordering, batching, threading — may change them. Regenerate
    // only for an intentional change to the sampling scheme itself.
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 42;
    cfg.testCycles = 500;
    cfg.gateLevelErrors = true;
    cfg.threads = 1;
    auto res = runWaferStudy(cfg);

    ASSERT_EQ(res.dies.size(), 120u);
    EXPECT_DOUBLE_EQ(res.yield(4.5, true), 76.0 / 88.0);
    EXPECT_DOUBLE_EQ(res.yield(4.5, false), 86.0 / 120.0);
    EXPECT_DOUBLE_EQ(res.yield(3.0, true), 47.0 / 88.0);
    EXPECT_DOUBLE_EQ(res.yield(3.0, false), 51.0 / 120.0);

    uint64_t err45 = 0, err3 = 0;
    for (const auto &die : res.dies) {
        err45 += die.at45V.errors;
        err3 += die.at3V.errors;
    }
    EXPECT_EQ(err45, 13636u);
    EXPECT_EQ(err3, 14963u);
}

TEST(WaferStudy, TimingMarginalPinnedSeed)
{
    // Pins the intermittent timing-error path of probeDie(): a die
    // with zero defects can still fail when the Monte-Carlo Vth /
    // speed sample erodes its timing margin, in which case the probe
    // adds 1 + E * (0.5 + U) errors from the die's own RNG stream.
    // For defect-free dies those draws are the *only* source of
    // errors, so the counts below pin exactly that path.
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 5;
    cfg.testCycles = 500;
    cfg.gateLevelErrors = true;
    cfg.threads = 1;
    auto res = runWaferStudy(cfg);

    DieModel model(res.spec, cfg.params);
    size_t marginal = 0;
    uint64_t errors = 0;
    for (const auto &die : res.dies) {
        if (die.sample.hasDefects())
            continue;
        double e3 = model.expectedTimingErrors(die.sample, kVddLow,
                                               cfg.testCycles);
        double e45 = model.expectedTimingErrors(
            die.sample, kVddNominal, cfg.testCycles);
        if (e3 > 0) {
            ++marginal;
            errors += die.at3V.errors;
            // "At least one error once the margin is gone."
            EXPECT_GE(die.at3V.errors, 1u);
        } else {
            EXPECT_EQ(die.at3V.errors, 0u);
        }
        if (e45 <= 0) {
            EXPECT_EQ(die.at45V.errors, 0u);
        }
    }
    // Exact regression pin, same contract as PinnedSeedRegression:
    // regenerate only for an intentional sampling-scheme change.
    EXPECT_EQ(marginal, 27u);
    EXPECT_EQ(errors, 585u);
}

TEST(WaferStudy, ThreadCountDoesNotChangeResults)
{
    // The acceptance bar for the parallel die loop: a threaded run
    // is bit-identical to a single-threaded one, per die.
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 7;
    cfg.testCycles = 400;
    cfg.gateLevelErrors = true;
    cfg.threads = 1;
    auto serial = runWaferStudy(cfg);
    cfg.threads = 4;
    auto threaded = runWaferStudy(cfg);

    ASSERT_EQ(serial.dies.size(), threaded.dies.size());
    for (size_t i = 0; i < serial.dies.size(); ++i) {
        const DieResult &a = serial.dies[i];
        const DieResult &b = threaded.dies[i];
        EXPECT_EQ(a.site.index, b.site.index);
        EXPECT_EQ(a.sample.defects, b.sample.defects);
        EXPECT_EQ(a.sample.vth, b.sample.vth);
        EXPECT_EQ(a.at45V.errors, b.at45V.errors);
        EXPECT_EQ(a.at3V.errors, b.at3V.errors);
        EXPECT_EQ(a.at45V.currentA, b.at45V.currentA);
        EXPECT_EQ(a.at3V.currentA, b.at3V.currentA);
    }
}

TEST(WaferStudy, LaneWidthsAndThreadCountsBitIdentical)
{
    // Packing defective dies into lane groups is a pure execution
    // strategy: per-die defect draws, error counts and currents are
    // bit-identical for any lane width — one-lane groups, ragged
    // groups, one to eight words — and thread count.
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 11;
    cfg.testCycles = 400;
    cfg.gateLevelErrors = true;
    cfg.threads = 1;
    cfg.batchLanes = 1;
    auto oneLane = runWaferStudy(cfg);
    cfg.batchLanes = 64;
    auto batched = runWaferStudy(cfg);
    cfg.batchLanes = 7;   // ragged batches
    cfg.threads = 4;
    auto ragged = runWaferStudy(cfg);
    cfg.batchLanes = 256;   // 4-word groups
    auto wide4 = runWaferStudy(cfg);
    cfg.batchLanes = 512;   // 8-word groups (the default)
    cfg.threads = 1;
    auto wide8 = runWaferStudy(cfg);

    ASSERT_EQ(oneLane.dies.size(), batched.dies.size());
    ASSERT_EQ(oneLane.dies.size(), ragged.dies.size());
    ASSERT_EQ(oneLane.dies.size(), wide4.dies.size());
    ASSERT_EQ(oneLane.dies.size(), wide8.dies.size());
    for (size_t i = 0; i < oneLane.dies.size(); ++i) {
        const DieResult &a = oneLane.dies[i];
        for (const DieResult *b :
             {&batched.dies[i], &ragged.dies[i], &wide4.dies[i],
              &wide8.dies[i]}) {
            EXPECT_EQ(a.site.index, b->site.index) << i;
            EXPECT_EQ(a.sample.defects, b->sample.defects) << i;
            EXPECT_EQ(a.at45V.errors, b->at45V.errors) << i;
            EXPECT_EQ(a.at3V.errors, b->at3V.errors) << i;
            EXPECT_EQ(a.at45V.currentA, b->at45V.currentA) << i;
            EXPECT_EQ(a.at3V.currentA, b->at3V.currentA) << i;
        }
    }
}

TEST(WaferStudy, GateLevelErrorsMatchScalarLockstep)
{
    // The per-die oracle: a defective die's gate-level error count is
    // what scalar runLockstep() reports for a clone of the golden
    // netlist carrying the die's faults, on the wafer's test program
    // and inputs. A timing-marginal die adds intermittent errors on
    // top, so there the probe only bounds the count from above.
    for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::FlexiCore8}) {
        SCOPED_TRACE(isaName(isa));
        WaferStudyConfig cfg;
        cfg.isa = isa;
        cfg.seed = 11;
        cfg.testCycles = 400;
        auto res = runWaferStudy(cfg);
        DieModel model(res.spec, cfg.params);
        auto golden = isa == IsaKind::FlexiCore4
                          ? buildFlexiCore4Netlist()
                          : buildFlexiCore8Netlist();
        const Program &prog = cachedTestProgram(isa, cfg.seed);
        auto inputs = makeTestInputs(isa, 256, cfg.seed);

        unsigned exact = 0;
        for (const DieResult &die : res.dies) {
            if (!die.sample.hasDefects())
                continue;
            SCOPED_TRACE(die.site.index);
            ASSERT_EQ(die.faults.size(), die.sample.defects);
            auto nl = golden->clone();
            for (const StuckFault &f : die.faults)
                nl->injectFault(f);
            uint64_t gate =
                runLockstep(*nl, isa, prog, inputs, cfg.testCycles)
                    .errors;
            for (double vdd : {kVddNominal, kVddLow}) {
                const DieProbe &probe =
                    vdd == kVddNominal ? die.at45V : die.at3V;
                if (model.expectedTimingErrors(die.sample, vdd,
                                               cfg.testCycles) > 0) {
                    EXPECT_GT(probe.errors, gate) << vdd;
                } else {
                    EXPECT_EQ(probe.errors, gate) << vdd;
                    ++exact;
                }
            }
        }
        EXPECT_GT(exact, 0u);
    }
}

TEST(WaferStudy, ProbesDoNotAccumulateToggles)
{
    // Each probe of a die must start from clean toggle counters —
    // the 4.5 V probe's activity used to leak into the 3 V probe's
    // statistics. The contract, at the netlist level: an earlier run
    // followed by enableToggles(true) leaves counts identical to a
    // fresh instance running only the second workload.
    auto nl = buildFlexiCore4Netlist();
    Program p = makeTestProgram(IsaKind::FlexiCore4, 2);
    auto inputs = makeTestInputs(IsaKind::FlexiCore4, 128, 2);

    auto probed_twice = nl->clone();
    probed_twice->enableToggles(true);
    runLockstep(*probed_twice, IsaKind::FlexiCore4, p, inputs, 700);
    probed_twice->reset();
    probed_twice->enableToggles(true);
    runLockstep(*probed_twice, IsaKind::FlexiCore4, p, inputs, 300);

    auto probed_once = nl->clone();
    probed_once->enableToggles(true);
    runLockstep(*probed_once, IsaKind::FlexiCore4, p, inputs, 300);

    EXPECT_EQ(probed_twice->toggleCounts(),
              probed_once->toggleCounts());
}

TEST(WaferStudy, Deterministic)
{
    WaferStudyConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    cfg.seed = 9;
    cfg.gateLevelErrors = false;
    auto a = runWaferStudy(cfg);
    auto b = runWaferStudy(cfg);
    ASSERT_EQ(a.dies.size(), b.dies.size());
    for (size_t i = 0; i < a.dies.size(); ++i) {
        EXPECT_EQ(a.dies[i].at45V.errors, b.dies[i].at45V.errors);
        EXPECT_EQ(a.dies[i].at3V.errors, b.dies[i].at3V.errors);
    }
}

} // namespace
} // namespace flexi
