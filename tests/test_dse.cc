/**
 * @file
 * Tests for the design-space exploration models (Section 6):
 * area/timing/power, code-size measurement and estimation, and the
 * kernel-level performance/energy evaluation.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "dse/area_model.hh"
#include "dse/code_size.hh"
#include "dse/perf_model.hh"
#include "dse/sweep.hh"
#include "netlist/flexicore_netlist.hh"

namespace flexi
{
namespace
{

DesignPoint
basePoint()
{
    DesignPoint p;
    p.features = IsaFeatures::none();
    return p;
}

DesignPoint
point(OperandModel om, MicroArch ua,
      BusWidth bus = BusWidth::Wide,
      IsaFeatures f = IsaFeatures::revised())
{
    DesignPoint p;
    p.operands = om;
    p.uarch = ua;
    p.bus = bus;
    p.features = f;
    return p;
}

// ---------------------------------------------------------------
// Design points
// ---------------------------------------------------------------

TEST(DesignPoint, RevisedFeatureSet)
{
    // Section 6.1's final op set: coalescing, shifter, flags, xch,
    // subroutines — no multiplier, no doubled memory.
    IsaFeatures f = IsaFeatures::revised();
    EXPECT_TRUE(f.coalescing);
    EXPECT_TRUE(f.barrelShifter);
    EXPECT_TRUE(f.branchFlags);
    EXPECT_TRUE(f.exchange);
    EXPECT_TRUE(f.subroutines);
    EXPECT_FALSE(f.multiplier);
    EXPECT_FALSE(f.doubleMemory);
}

TEST(DesignPoint, Names)
{
    EXPECT_EQ(point(OperandModel::Accumulator,
                    MicroArch::SingleCycle).name(), "Acc SC");
    EXPECT_EQ(point(OperandModel::LoadStore,
                    MicroArch::Pipelined2).name(), "LS P");
    EXPECT_EQ(point(OperandModel::LoadStore, MicroArch::MultiCycle,
                    BusWidth::Narrow8).name(), "LS MC (8b bus)");
}

TEST(DesignPoint, BusFeasibility)
{
    // Section 6.2: with an 8-bit bus only the multicycle load-store
    // machine can exist.
    EXPECT_FALSE(point(OperandModel::LoadStore,
                       MicroArch::SingleCycle,
                       BusWidth::Narrow8).feasible());
    EXPECT_FALSE(point(OperandModel::LoadStore,
                       MicroArch::Pipelined2,
                       BusWidth::Narrow8).feasible());
    EXPECT_TRUE(point(OperandModel::LoadStore, MicroArch::MultiCycle,
                      BusWidth::Narrow8).feasible());
    EXPECT_TRUE(point(OperandModel::Accumulator,
                      MicroArch::SingleCycle,
                      BusWidth::Narrow8).feasible());
}

TEST(DesignPoint, SixDseCores)
{
    auto cores = dseCores();
    EXPECT_EQ(cores.size(), 6u);
    for (const auto &c : cores)
        EXPECT_TRUE(c.feasible());
}

// ---------------------------------------------------------------
// Area model
// ---------------------------------------------------------------

TEST(AreaModel, BaseMatchesNetlist)
{
    // The analytical base point must track the structural netlist.
    auto nl = buildFlexiCore4Netlist();
    double model = baseCoreArea();
    double netlist = nl->totalNand2Area();
    EXPECT_NEAR(model / netlist, 1.0, 0.10);
}

TEST(AreaModel, MemoryDominatesBaseCore)
{
    // Table 2: the data memory is the largest module.
    AreaBreakdown a = areaOf(basePoint());
    EXPECT_GT(a.memory, a.alu);
    EXPECT_GT(a.memory, a.pc);
    EXPECT_GT(a.memory, a.acc);
    EXPECT_GT(a.memory, a.decoder);
    EXPECT_GT(a.memory / a.total(), 0.40);
}

TEST(AreaModel, SecondPortCostsTens0fPercent)
{
    // Section 3.5: +39 % (8 words) / +25 % (4 words) — the model
    // reproduces the tens-of-percent magnitude and the word-count
    // ordering (more words => second port relatively pricier).
    double one8 = memoryArea(8, 4, 1);
    double two8 = memoryArea(8, 4, 2);
    double one4 = memoryArea(4, 8, 1);
    double two4 = memoryArea(4, 8, 2);
    double rel8 = two8 / one8 - 1.0;
    double rel4 = two4 / one4 - 1.0;
    EXPECT_GT(rel8, 0.15);
    EXPECT_LT(rel8, 0.45);
    EXPECT_GT(rel8, rel4);
}

TEST(AreaModel, ExtensionCostsMatchFigure9)
{
    double base = baseCoreArea();
    auto rel = [&](IsaFeatures f) {
        DesignPoint p = basePoint();
        p.features = f;
        return areaOf(p).total() / base;
    };

    IsaFeatures adc, shift, flags, mul, xch, mem2;
    adc.coalescing = true;
    shift.barrelShifter = true;
    flags.branchFlags = true;
    mul.multiplier = true;
    xch.exchange = true;
    mem2.doubleMemory = true;

    // "modest (< 10%) increase in area associated with the
    // coalescing instructions, barrel shifter, and condition codes"
    EXPECT_LT(rel(adc), 1.10);
    EXPECT_LT(rel(shift), 1.10);
    EXPECT_LT(rel(flags), 1.10);
    EXPECT_LT(rel(xch), 1.05);
    // "high gate count overhead for the multiplier"
    EXPECT_GT(rel(mul), 1.15);
    // "the larger register file is not a viable change ... due to
    // its high (> 70%) area cost"
    EXPECT_GT(rel(mem2), 1.60);
}

TEST(AreaModel, RevisedCoreWithinPaperBand)
{
    // "an area overhead of 9-37 %" for the DSE cores.
    double base = baseCoreArea();
    for (const auto &p : dseCores()) {
        double rel = areaOf(p).total() / base;
        EXPECT_GT(rel, 1.05) << p.name();
        EXPECT_LT(rel, 1.60) << p.name();
    }
}

TEST(AreaModel, Figure12Orderings)
{
    auto area = [&](OperandModel om, MicroArch ua) {
        return areaOf(point(om, ua)).total();
    };
    using enum OperandModel;
    using enum MicroArch;
    // The single-cycle accumulator machine is the smallest.
    EXPECT_LT(area(Accumulator, SingleCycle),
              area(Accumulator, Pipelined2));
    EXPECT_LT(area(Accumulator, SingleCycle),
              area(LoadStore, SingleCycle));
    // Acc + pipeline stage still beats the single-cycle load-store.
    EXPECT_LT(area(Accumulator, Pipelined2),
              area(LoadStore, SingleCycle));
    // Multicycle is the largest accumulator design.
    EXPECT_GT(area(Accumulator, MultiCycle),
              area(Accumulator, Pipelined2));
    // On load-store, multicycle drops the second port and wins.
    EXPECT_LT(area(LoadStore, MultiCycle),
              area(LoadStore, Pipelined2));
    EXPECT_LT(area(LoadStore, MultiCycle),
              area(LoadStore, SingleCycle));
}

TEST(AreaModel, CellCountScalesWithArea)
{
    EXPECT_GT(cellCountOf(point(OperandModel::LoadStore,
                                MicroArch::Pipelined2)),
              cellCountOf(basePoint()));
}

// ---------------------------------------------------------------
// Timing / power models
// ---------------------------------------------------------------

TEST(TimingModel, PipeliningShortensCycle)
{
    using enum OperandModel;
    using enum MicroArch;
    EXPECT_GT(fmaxOf(point(Accumulator, Pipelined2)),
              fmaxOf(point(Accumulator, SingleCycle)));
    EXPECT_GT(fmaxOf(point(Accumulator, MultiCycle)),
              fmaxOf(point(Accumulator, SingleCycle)));
}

TEST(TimingModel, LoadStoreSlightlySlowerCycle)
{
    using enum MicroArch;
    EXPECT_LT(fmaxOf(point(OperandModel::LoadStore, SingleCycle)),
              fmaxOf(point(OperandModel::Accumulator, SingleCycle)));
}

TEST(TimingModel, BaseFmaxAboveTestClock)
{
    // The fabricated parts are IO-limited to 12.5 kHz; the silicon
    // itself closes timing above that at 4.5 V.
    EXPECT_GT(fmaxOf(basePoint()), 12500.0);
}

TEST(PowerModel, PowerTracksArea)
{
    double p_base = staticPowerOf(basePoint());
    double p_ls = staticPowerOf(point(OperandModel::LoadStore,
                                      MicroArch::Pipelined2));
    double a_base = areaOf(basePoint()).total();
    double a_ls = areaOf(point(OperandModel::LoadStore,
                               MicroArch::Pipelined2)).total();
    EXPECT_NEAR(p_ls / p_base, a_ls / a_base, 1e-9);
}

TEST(PowerModel, BaseNearFlexiCore4Measurement)
{
    // FC4 measured ~4.9 mW at 4.5 V (Table 4).
    EXPECT_NEAR(staticPowerOf(basePoint()) * 1e3, 4.9, 1.0);
}

// ---------------------------------------------------------------
// Code-size models
// ---------------------------------------------------------------

TEST(CodeSize, MeasuredBaseMatchesAssembler)
{
    CodeSize cs = measuredCodeSize(KernelId::Thresholding,
                                   IsaKind::FlexiCore4);
    EXPECT_GT(cs.instructions, 8u);
    EXPECT_EQ(cs.bits, cs.instructions * 8);
}

TEST(CodeSize, IdiomCensusFindsKnownPatterns)
{
    // XorShift8 contains the shared right-shift dispatch; IntAvg
    // contains one HALVE block; Calculator has compares + zero test.
    IdiomStats xs = analyzeBaseKernel(KernelId::XorShift8);
    EXPECT_GE(xs.halveBlocks, 1u);
    EXPECT_EQ(xs.sharedDispatch, 1u);

    IdiomStats avg = analyzeBaseKernel(KernelId::IntAvg);
    EXPECT_EQ(avg.halveBlocks, 1u);

    IdiomStats calc = analyzeBaseKernel(KernelId::Calculator);
    EXPECT_GE(calc.compares, 3u);
    EXPECT_GE(calc.zeroTests, 1u);
    EXPECT_TRUE(calc.hasMulLoop);

    IdiomStats thr = analyzeBaseKernel(KernelId::Thresholding);
    EXPECT_GE(thr.ubrs, 2u);
    EXPECT_EQ(thr.halveBlocks, 0u);
}

TEST(CodeSize, EstimatesNeverGrowCode)
{
    for (KernelId id : allKernels()) {
        CodeSize base = measuredCodeSize(id, IsaKind::FlexiCore4);
        CodeSize est = estimatedCodeSize(id, IsaFeatures::revised());
        EXPECT_LE(est.instructions, base.instructions)
            << kernelName(id);
        EXPECT_GE(est.instructions, 4u);
    }
}

TEST(CodeSize, ShifterHelpsShiftHeavyKernelsMost)
{
    IsaFeatures shift;
    shift.barrelShifter = true;
    auto saving = [&](KernelId id) {
        CodeSize base = measuredCodeSize(id, IsaKind::FlexiCore4);
        CodeSize est = estimatedCodeSize(id, shift);
        return 1.0 - static_cast<double>(est.instructions) /
                         base.instructions;
    };
    // Figure 10: XorShift8 / IntAvg gain most from right shifts.
    EXPECT_GT(saving(KernelId::IntAvg), saving(KernelId::FirFilter));
    EXPECT_GT(saving(KernelId::XorShift8),
              saving(KernelId::Thresholding));
}

TEST(CodeSize, DoubleMemoryLeavesCodeAlone)
{
    // Figure 9: "Increasing the size of data-memory does not effect
    // test code size."
    IsaFeatures mem2;
    mem2.doubleMemory = true;
    EXPECT_DOUBLE_EQ(relativeSuiteCodeSize(mem2), 1.0);
}

TEST(CodeSize, RevisedEstimateAgreesWithMeasuredExt)
{
    // The per-idiom estimate for the full revised set must land in
    // the neighborhood of the real ExtAcc4 measurements.
    size_t base = 0, ext = 0;
    for (KernelId id : allKernels()) {
        base += measuredCodeSize(id, IsaKind::FlexiCore4).instructions;
        ext += measuredCodeSize(id, IsaKind::ExtAcc4).instructions;
    }
    double measured = static_cast<double>(ext) / base;
    double estimated = relativeSuiteCodeSize(IsaFeatures::revised());
    EXPECT_NEAR(estimated, measured, 0.20);
}

TEST(CodeSize, LoadStoreDensestInInstructions)
{
    // Figure 12: the load-store ISA has the best instruction-count
    // density (extra expressivity of the second operand), though its
    // instructions are twice as wide.
    size_t ext = 0, ls = 0, ls_bits = 0, ext_bits = 0;
    for (KernelId id : allKernels()) {
        ext += measuredCodeSize(id, IsaKind::ExtAcc4).instructions;
        ls += measuredCodeSize(id, IsaKind::LoadStore4).instructions;
        ext_bits += measuredCodeSize(id, IsaKind::ExtAcc4).bits;
        ls_bits += measuredCodeSize(id, IsaKind::LoadStore4).bits;
    }
    EXPECT_LT(ls, ext);
    EXPECT_GT(ls_bits, ext_bits / 2);   // but not in bits
}

// ---------------------------------------------------------------
// Perf / energy evaluation
// ---------------------------------------------------------------

TEST(PerfModel, DseCoresBeatBaselineOnShiftKernels)
{
    auto base = evalFlexiCore4Baseline(KernelId::IntAvg, 10, 7);
    auto acc_p = evalDsePoint(KernelId::IntAvg,
                              point(OperandModel::Accumulator,
                                    MicroArch::Pipelined2), 10, 7);
    EXPECT_LT(acc_p.timeS, base.timeS / 2);
    EXPECT_LT(acc_p.energyJ, base.energyJ * 0.6);
}

TEST(PerfModel, MultiCycleWorstEnergyPerOperandModel)
{
    // Figure 13: within each operand model the multicycle core has
    // the worst energy.
    for (OperandModel om :
         {OperandModel::Accumulator, OperandModel::LoadStore}) {
        auto sc = evalDsePoint(KernelId::Thresholding,
                               point(om, MicroArch::SingleCycle), 10,
                               3);
        auto mc = evalDsePoint(KernelId::Thresholding,
                               point(om, MicroArch::MultiCycle), 10,
                               3);
        EXPECT_GT(mc.energyJ, sc.energyJ);
    }
}

TEST(PerfModel, NarrowBusPenalizesAccumulatorOnlyMildly)
{
    // Figure 13: with the 8-bit bus the accumulator cores survive
    // (only br/call pay an extra beat).
    auto wide = evalDsePoint(KernelId::FirFilter,
                             point(OperandModel::Accumulator,
                                   MicroArch::Pipelined2), 10, 3);
    auto narrow = evalDsePoint(
        KernelId::FirFilter,
        point(OperandModel::Accumulator, MicroArch::Pipelined2,
              BusWidth::Narrow8), 10, 3);
    EXPECT_GE(narrow.cycles, wide.cycles);
    EXPECT_LT(narrow.cycles, wide.cycles * 3 / 2);
}

TEST(PerfModel, InfeasiblePointRejected)
{
    EXPECT_THROW(
        evalDsePoint(KernelId::IntAvg,
                     point(OperandModel::LoadStore,
                           MicroArch::SingleCycle, BusWidth::Narrow8),
                     5, 1),
        FatalError);
}

TEST(PerfModel, BaselineEnergyPerInstructionNearPaper)
{
    // ~360 nJ per instruction at 4.5 V (Section 5.2) — our baseline
    // runs at its SP&R f_max, so energy/instr is the same order.
    auto base = evalFlexiCore4Baseline(KernelId::Thresholding, 10, 1);
    double nj_per_instr =
        base.energyJ / static_cast<double>(base.instructions) * 1e9;
    EXPECT_GT(nj_per_instr, 100.0);
    EXPECT_LT(nj_per_instr, 600.0);
}

// ---------------------------------------------------------------
// Design-space sweep
// ---------------------------------------------------------------

TEST(Sweep, BaselinePointIsUnity)
{
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    auto all = sweepDesignSpace(cfg);
    ASSERT_FALSE(all.empty());

    // The FlexiCore4 point (no features, accumulator, single-cycle)
    // is the normalization anchor: all ratios exactly 1.
    bool found = false;
    for (const auto &c : all) {
        if (c.point.features == IsaFeatures::none() &&
            c.point.operands == OperandModel::Accumulator &&
            c.point.uarch == MicroArch::SingleCycle) {
            found = true;
            EXPECT_DOUBLE_EQ(c.area, 1.0);
            EXPECT_DOUBLE_EQ(c.codeRel, 1.0);
            EXPECT_DOUBLE_EQ(c.energyRel, 1.0);
        }
    }
    EXPECT_TRUE(found);
    // At least one point is Pareto-optimal, and a dominated point is
    // never marked.
    unsigned pareto = 0;
    for (const auto &c : all) {
        pareto += c.pareto;
        for (const auto &other : all)
            if (other.dominates(c)) {
                EXPECT_FALSE(c.pareto);
            }
    }
    EXPECT_GT(pareto, 0u);
}

TEST(Sweep, ThreadCountDoesNotChangeResults)
{
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    auto serial = sweepDesignSpace(cfg);
    cfg.threads = 4;
    auto threaded = sweepDesignSpace(cfg);

    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].point.name(), threaded[i].point.name());
        EXPECT_EQ(serial[i].point.features.tag(),
                  threaded[i].point.features.tag());
        EXPECT_EQ(serial[i].area, threaded[i].area);
        EXPECT_EQ(serial[i].codeRel, threaded[i].codeRel);
        EXPECT_EQ(serial[i].energyRel, threaded[i].energyRel);
        EXPECT_EQ(serial[i].pareto, threaded[i].pareto);
    }
}

TEST(Sweep, NominalVoltageRejectsNothing)
{
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    SweepResult result = runSweep(cfg);
    EXPECT_TRUE(result.rejected.empty());
    EXPECT_FALSE(result.candidates.empty());
    for (const auto &c : result.candidates) {
        StaticTimingCheck t =
            checkDesignPointTiming(c.point, cfg.vddOperating);
        EXPECT_TRUE(t.feasible) << c.point.name();
        EXPECT_GE(t.slackS, 0.0);
    }
}

TEST(Sweep, LowVoltageStaticallyRejectsSlowPoints)
{
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    cfg.vddOperating = kVddLow;
    SweepResult result = runSweep(cfg);

    // The timing gate must reject at least one design point at 3 V:
    // the slow single-cycle machines blow the 80 us period once the
    // unit delay stretches, exactly like the FlexiCore8 3 V cliff.
    ASSERT_FALSE(result.rejected.empty());
    for (const auto &r : result.rejected) {
        EXPECT_FALSE(r.timing.feasible);
        EXPECT_LT(r.timing.slackS, 0.0);
        EXPECT_GT(r.timing.delayUnits, 0.0);
        // Netlist-backed rejections carry a named worst path.
        if (std::string(r.timing.source) == "netlist") {
            EXPECT_FALSE(r.timing.worstPath.empty());
        }
    }

    // Points backed by real netlists report STA-derived paths; the
    // base FlexiCore4 itself still closes timing at 3 V.
    for (const auto &c : result.candidates) {
        if (c.point.features == IsaFeatures::none() &&
            c.point.operands == OperandModel::Accumulator &&
            c.point.uarch == MicroArch::SingleCycle) {
            StaticTimingCheck t =
                checkDesignPointTiming(c.point, kVddLow);
            EXPECT_STREQ(t.source, "netlist");
            EXPECT_TRUE(t.feasible);
        }
    }

    // Nothing is both rejected and evaluated.
    for (const auto &r : result.rejected)
        for (const auto &c : result.candidates)
            EXPECT_FALSE(c.point.name() == r.point.name() &&
                         c.point.features.tag() ==
                             r.point.features.tag());
}

TEST(Sweep, PropertyGateRejectsFalsifiedPoints)
{
    // bound:pc/7/1 demands the PC never leave 0 — false on every
    // core the moment an instruction retires, so the property gate
    // must reject every point before simulation, next to (and
    // distinguishable from) the timing gate.
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    cfg.properties = {"bound:pc/7/1"};
    cfg.propertyDepth = 3;
    SweepResult result = runSweep(cfg);
    EXPECT_TRUE(result.candidates.empty());
    ASSERT_FALSE(result.rejected.empty());
    for (const auto &r : result.rejected) {
        EXPECT_FALSE(r.property.empty()) << r.point.name();
        EXPECT_NE(r.property.find("bound:pc/7/1"), std::string::npos)
            << r.property;
    }
}

TEST(Sweep, PropertyGatePassesProvablePoints)
{
    // A 7-bit PC is always below 128: k-induction closes at k=1 and
    // the sweep runs exactly as if no property were configured.
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    cfg.properties = {"bound:pc/7/128"};
    cfg.propertyDepth = 2;
    SweepResult gated = runSweep(cfg);
    EXPECT_TRUE(gated.rejected.empty());

    cfg.properties.clear();
    SweepResult plain = runSweep(cfg);
    ASSERT_EQ(gated.candidates.size(), plain.candidates.size());
    for (size_t i = 0; i < plain.candidates.size(); ++i) {
        EXPECT_EQ(gated.candidates[i].point.name(),
                  plain.candidates[i].point.name());
        EXPECT_DOUBLE_EQ(gated.candidates[i].energyRel,
                         plain.candidates[i].energyRel);
    }
}

} // namespace
} // namespace flexi
