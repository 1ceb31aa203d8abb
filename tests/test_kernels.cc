/**
 * @file
 * Kernel-suite tests: golden models, input generators, and the
 * central integration property — every kernel's assembly on every
 * ISA reproduces the golden model output for output.
 */

#include <gtest/gtest.h>

#include <set>

#include "assembler/assembler.hh"
#include "kernels/golden.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "kernels/runner.hh"

namespace flexi
{
namespace
{

// ---------------------------------------------------------------
// Golden models
// ---------------------------------------------------------------

TEST(Golden, CalculatorAdd)
{
    EXPECT_EQ(goldenCalculator(CalcOp::Add, 9, 8),
              (std::vector<uint8_t>{1, 1}));
    EXPECT_EQ(goldenCalculator(CalcOp::Add, 3, 4),
              (std::vector<uint8_t>{7, 0}));
}

TEST(Golden, CalculatorSub)
{
    EXPECT_EQ(goldenCalculator(CalcOp::Sub, 5, 9),
              (std::vector<uint8_t>{(5 - 9) & 0xF, 1}));
    EXPECT_EQ(goldenCalculator(CalcOp::Sub, 9, 5),
              (std::vector<uint8_t>{4, 0}));
}

TEST(Golden, CalculatorMul)
{
    EXPECT_EQ(goldenCalculator(CalcOp::Mul, 15, 15),
              (std::vector<uint8_t>{0x1, 0xE}));   // 225 = 0xE1
    EXPECT_EQ(goldenCalculator(CalcOp::Mul, 3, 5),
              (std::vector<uint8_t>{0xF, 0x0}));
}

TEST(Golden, CalculatorDiv)
{
    EXPECT_EQ(goldenCalculator(CalcOp::Div, 13, 4),
              (std::vector<uint8_t>{3, 1}));
    EXPECT_EQ(goldenCalculator(CalcOp::Div, 7, 9),
              (std::vector<uint8_t>{0, 7}));
    EXPECT_EQ(goldenCalculator(CalcOp::Div, 7, 0),
              (std::vector<uint8_t>{0xF, 0xF}));
}

TEST(Golden, FirHighPassShape)
{
    // Constant input -> alternating-coefficient FIR settles to 0.
    auto out = goldenFir({5, 5, 5, 5, 5, 5});
    EXPECT_EQ(out[4], 0);
    EXPECT_EQ(out[5], 0);
}

TEST(Golden, IntAvgConverges)
{
    // Constant input x: fixed point of y' = ((x+y)&0xF)>>1 is ~x.
    std::vector<uint8_t> xs(12, 6);
    auto out = goldenIntAvg(xs);
    EXPECT_NEAR(out.back(), 5, 1);   // converges just below x
}

TEST(Golden, ThresholdSemantics)
{
    auto out = goldenThreshold({0, 5, 6, 7, 13});
    EXPECT_EQ(out, (std::vector<uint8_t>{0, 0, 6, 7, 13}));
}

TEST(Golden, ParityMatchesBitCount)
{
    // 0xB4 = 0b10110100 has 4 set bits -> even parity.
    EXPECT_EQ(goldenParity({0x4, 0xB}), (std::vector<uint8_t>{0}));
    // 0x01 -> odd.
    EXPECT_EQ(goldenParity({0x1, 0x0}), (std::vector<uint8_t>{1}));
}

TEST(Golden, XorShiftFullPeriod)
{
    // The (7,5,3) triple has full period 255 over nonzero bytes.
    uint8_t s = 1;
    std::set<uint8_t> seen;
    for (int i = 0; i < 255; ++i) {
        s = xorShiftStep(s);
        EXPECT_NE(s, 0);
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 255u);
    EXPECT_EQ(s, 1);   // back to the seed
}

TEST(Golden, TreeClassifierDeterministic)
{
    const DecisionTree &t = benchmarkTree();
    uint8_t c1 = t.classify({3, 5, 1});
    uint8_t c2 = t.classify({3, 5, 1});
    EXPECT_EQ(c1, c2);
    EXPECT_LE(c1, 7);
}

TEST(Golden, TreeWalksAllLeaves)
{
    // Exhaustive feature sweep must reach a reasonable spread of
    // leaves (sanity that the walk logic indexes correctly).
    const DecisionTree &t = benchmarkTree();
    std::set<uint8_t> classes;
    for (uint8_t a = 0; a < 8; ++a)
        for (uint8_t b = 0; b < 8; ++b)
            for (uint8_t c = 0; c < 8; ++c)
                classes.insert(t.classify({a, b, c}));
    EXPECT_GE(classes.size(), 2u);
    for (uint8_t c : classes)
        EXPECT_LE(c, 7);
}

// ---------------------------------------------------------------
// Input generators
// ---------------------------------------------------------------

TEST(Inputs, SizesMatchWorkUnits)
{
    for (KernelId id : allKernels()) {
        auto in = kernelInputs(id, 5, 42);
        EXPECT_EQ(in.size(), 5u * kernelInputsPerWork(id))
            << kernelName(id);
    }
}

TEST(Inputs, Deterministic)
{
    for (KernelId id : allKernels())
        EXPECT_EQ(kernelInputs(id, 7, 9), kernelInputs(id, 7, 9));
}

TEST(Inputs, CalculatorAvoidsReservedPrefix)
{
    auto in = kernelInputs(KernelId::Calculator, 200, 1);
    auto out = goldenOutputs(KernelId::Calculator, in);
    for (size_t i = 0; i + 1 < out.size(); ++i)
        EXPECT_FALSE(out[i] == 0xA && out[i + 1] == 0x5) << i;
}

TEST(Inputs, CalculatorDivisorsNonZero)
{
    auto in = kernelInputs(KernelId::Calculator, 300, 7);
    for (size_t i = 0; i < in.size(); i += 3)
        if (in[i] == 3) {
            EXPECT_NE(in[i + 2], 0);
        }
}

TEST(Inputs, ExhaustiveCalculatorCoversSpace)
{
    auto in = exhaustiveCalculatorInputs(0);
    // 256 (a,b) pairs minus any skipped for the reserved prefix.
    EXPECT_GT(in.size(), 3 * 240u);
    EXPECT_EQ(in.size() % 3, 0u);
}

// ---------------------------------------------------------------
// Assembly sources
// ---------------------------------------------------------------

/** Every kernel assembles on every supported ISA. */
class KernelAssembly
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(KernelAssembly, Assembles)
{
    auto id = static_cast<KernelId>(std::get<0>(GetParam()));
    auto isa = static_cast<IsaKind>(std::get<1>(GetParam()));
    Program p = assemble(isa, kernelSource(id, isa));
    EXPECT_GT(p.staticInstructions(), 4u);
    EXPECT_GT(p.codeSizeBits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsIsas, KernelAssembly,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(kNumKernels)),
        ::testing::Values(static_cast<int>(IsaKind::FlexiCore4),
                          static_cast<int>(IsaKind::ExtAcc4),
                          static_cast<int>(IsaKind::LoadStore4))));

TEST(KernelAssembly, MultiPageKernelsUseTheMmu)
{
    // Calculator and Decision Tree exceed one 128-entry page
    // (Section 5.1); the rest fit in one page.
    for (KernelId id : allKernels()) {
        Program p = assemble(IsaKind::FlexiCore4,
                             kernelSource(id, IsaKind::FlexiCore4));
        bool multi = id == KernelId::Calculator ||
                     id == KernelId::DecisionTree;
        EXPECT_EQ(p.numPages() > 1, multi) << kernelName(id);
    }
}

TEST(KernelAssembly, ExtensionsShrinkCode)
{
    // Figure 10's headline: the revised ISA slashes code size; the
    // shift-heavy kernels shrink the most.
    for (KernelId id : {KernelId::IntAvg, KernelId::XorShift8,
                        KernelId::ParityCheck}) {
        Program base = assemble(IsaKind::FlexiCore4,
                                kernelSource(id, IsaKind::FlexiCore4));
        Program ext = assemble(IsaKind::ExtAcc4,
                               kernelSource(id, IsaKind::ExtAcc4));
        EXPECT_LT(ext.staticInstructions(),
                  base.staticInstructions() / 2)
            << kernelName(id);
    }
}

// ---------------------------------------------------------------
// Asm-vs-golden integration (the heart of the suite)
// ---------------------------------------------------------------

class KernelVsGolden
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(KernelVsGolden, OutputsMatch)
{
    auto id = static_cast<KernelId>(std::get<0>(GetParam()));
    auto isa = static_cast<IsaKind>(std::get<1>(GetParam()));
    uint64_t seed = static_cast<uint64_t>(std::get<2>(GetParam()));

    TimingConfig cfg;
    cfg.isa = isa;
    auto inputs = kernelInputs(id, 20, seed);
    KernelRun run = runKernelOnInputs(id, cfg, inputs);
    EXPECT_EQ(run.stop, StopReason::OutputTarget)
        << kernelName(id) << " on " << isaName(isa);
    EXPECT_EQ(run.outputs, goldenOutputs(id, inputs))
        << kernelName(id) << " on " << isaName(isa) << " seed "
        << seed;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsIsasSeeds, KernelVsGolden,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(kNumKernels)),
        ::testing::Values(static_cast<int>(IsaKind::FlexiCore4),
                          static_cast<int>(IsaKind::ExtAcc4),
                          static_cast<int>(IsaKind::LoadStore4)),
        ::testing::Values(11, 22, 33)));

/** Exhaustive calculator sweep per op on the base ISA. */
class CalculatorExhaustive : public ::testing::TestWithParam<int>
{
};

TEST_P(CalculatorExhaustive, AllOperandPairs)
{
    auto inputs = exhaustiveCalculatorInputs(
        static_cast<uint8_t>(GetParam()));
    TimingConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    KernelRun run = runKernelOnInputs(KernelId::Calculator, cfg,
                                      inputs, 30000000);
    EXPECT_EQ(run.outputs, goldenOutputs(KernelId::Calculator, inputs));
}

INSTANTIATE_TEST_SUITE_P(Ops, CalculatorExhaustive,
                         ::testing::Values(0, 1, 2, 3));

/** Exhaustive decision-tree sweep over the whole feature space. */
TEST(KernelVsGoldenExhaustive, DecisionTreeFeatureSpace)
{
    std::vector<uint8_t> inputs;
    for (uint8_t a = 0; a < 8; ++a)
        for (uint8_t b = 0; b < 8; ++b)
            for (uint8_t c = 0; c < 8; ++c) {
                inputs.push_back(a);
                inputs.push_back(b);
                inputs.push_back(c);
            }
    TimingConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    KernelRun run = runKernelOnInputs(KernelId::DecisionTree, cfg,
                                      inputs, 10000000);
    EXPECT_EQ(run.outputs, goldenOutputs(KernelId::DecisionTree,
                                         inputs));
}

/** XorShift chained through the core must walk the full period. */
TEST(KernelVsGoldenExhaustive, XorShiftFullPeriodOnCore)
{
    // Feed each state back in: 255 queries starting from seed 1.
    std::vector<uint8_t> inputs;
    uint8_t s = 1;
    for (int i = 0; i < 255; ++i) {
        inputs.push_back(s & 0xF);
        inputs.push_back(s >> 4);
        s = xorShiftStep(s);
    }
    TimingConfig cfg;
    cfg.isa = IsaKind::FlexiCore4;
    KernelRun run = runKernelOnInputs(KernelId::XorShift8, cfg,
                                      inputs, 10000000);
    ASSERT_EQ(run.outputs.size(), 510u);
    // The chained outputs must traverse all 255 nonzero states.
    std::set<uint8_t> states;
    for (size_t i = 0; i < run.outputs.size(); i += 2)
        states.insert(static_cast<uint8_t>(run.outputs[i] |
                                           (run.outputs[i + 1] << 4)));
    EXPECT_EQ(states.size(), 255u);
}

/**
 * Property: architectural outputs are invariant under the
 * microarchitecture and bus width — pipelining and multicycle
 * sequencing change cycle counts, never results.
 */
TEST(KernelVsGolden, OutputsInvariantUnderMicroarchitecture)
{
    for (KernelId id :
         {KernelId::IntAvg, KernelId::ParityCheck,
          KernelId::Calculator}) {
        for (IsaKind isa : {IsaKind::ExtAcc4, IsaKind::LoadStore4}) {
            auto inputs = kernelInputs(id, 10, 17);
            auto expected = goldenOutputs(id, inputs);
            uint64_t sc_cycles = 0;
            for (MicroArch ua : {MicroArch::SingleCycle,
                                 MicroArch::Pipelined2,
                                 MicroArch::MultiCycle}) {
                for (BusWidth bus :
                     {BusWidth::Wide, BusWidth::Narrow8}) {
                    TimingConfig cfg{isa, ua, bus};
                    if (isa == IsaKind::LoadStore4 &&
                        bus == BusWidth::Narrow8 &&
                        ua != MicroArch::MultiCycle)
                        continue;   // infeasible (Section 6.2)
                    KernelRun run =
                        runKernelOnInputs(id, cfg, inputs);
                    EXPECT_EQ(run.outputs, expected)
                        << kernelName(id) << " " << isaName(isa)
                        << " " << microArchName(ua);
                    if (ua == MicroArch::SingleCycle &&
                        bus == BusWidth::Wide)
                        sc_cycles = run.stats.cycles;
                    else
                        EXPECT_GE(run.stats.cycles, sc_cycles);
                }
            }
        }
    }
}

/** Timing sanity: DSE cores beat the base core on dynamic count. */
TEST(KernelPerformance, ExtReducesDynamicInstructions)
{
    for (KernelId id : {KernelId::IntAvg, KernelId::XorShift8}) {
        TimingConfig base{IsaKind::FlexiCore4,
                          MicroArch::SingleCycle, BusWidth::Wide};
        TimingConfig ext{IsaKind::ExtAcc4, MicroArch::SingleCycle,
                         BusWidth::Wide};
        KernelRun b = runKernel(id, base, 10, 5);
        KernelRun e = runKernel(id, ext, 10, 5);
        EXPECT_LT(e.stats.instructions, b.stats.instructions / 2)
            << kernelName(id);
    }
}

} // namespace
} // namespace flexi
