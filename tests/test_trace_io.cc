/**
 * @file
 * Tests for the execution tracer.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "kernels/kernels.hh"
#include "sim/core_sim.hh"
#include "sys/flexichip.hh"

namespace flexi
{
namespace
{

// ---------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------

TEST(Trace, RecordsEveryInstruction)
{
    Program p = assemble(IsaKind::FlexiCore4,
                         "addi 5\nstore r2\nnandi 0\nx: br x\n");
    FifoEnvironment env;
    TimingConfig cfg{IsaKind::FlexiCore4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    TraceBuffer buf;
    sim.setTraceSink(buf.sink());
    sim.run(100);

    ASSERT_EQ(buf.records().size(), 4u);
    const auto &r0 = buf.records()[0];
    EXPECT_EQ(r0.pc, 0u);
    EXPECT_EQ(r0.inst.op, Op::Add);
    EXPECT_EQ(r0.accBefore, 0);
    EXPECT_EQ(r0.accAfter, 5);
    EXPECT_FALSE(r0.taken);
    const auto &r3 = buf.records()[3];
    EXPECT_EQ(r3.inst.op, Op::Br);
    EXPECT_TRUE(r3.taken);
    EXPECT_EQ(r3.cycle, 4u);
}

TEST(Trace, FormatIsStable)
{
    TraceRecord rec;
    rec.page = 0;
    rec.pc = 7;
    rec.inst.op = Op::Add;
    rec.inst.mode = Mode::Imm;
    rec.inst.operand = 3;
    rec.accBefore = 2;
    rec.accAfter = 5;
    rec.cycle = 9;
    std::string s = formatTrace(IsaKind::FlexiCore4, rec);
    EXPECT_NE(s.find("addi 3"), std::string::npos);
    EXPECT_NE(s.find("acc 2->5"), std::string::npos);
    EXPECT_NE(s.find("cyc=9"), std::string::npos);
}

TEST(Trace, TracksPageSwitches)
{
    FlexiChip chip(IsaKind::FlexiCore4);
    chip.loadProgram(kernelSource(KernelId::Calculator,
                                  IsaKind::FlexiCore4));
    TraceBuffer buf;
    chip.setTraceSink(buf.sink());
    chip.pushInputs({2, 3, 5, 0});   // mul 3*5 -> page 1
    chip.runUntilOutputs(2, 100000);

    bool saw_page1 = false;
    for (const auto &rec : buf.records())
        saw_page1 |= rec.page == 1;
    EXPECT_TRUE(saw_page1);
}

TEST(Trace, SinkBeforeProgramFails)
{
    FlexiChip chip(IsaKind::FlexiCore4);
    EXPECT_THROW(chip.setTraceSink(TraceBuffer().sink()), FatalError);
}

} // namespace
} // namespace flexi
