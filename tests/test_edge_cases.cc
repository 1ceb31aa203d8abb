/**
 * @file
 * Edge-case and property tests cutting across modules: PC wrap,
 * IO corner semantics, MMU protocol corners, assembler limits,
 * exhaustive cell truth tables, and simulator determinism.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "kernels/runner.hh"
#include "netlist/builder.hh"
#include "netlist/netlist.hh"
#include "sim/core_sim.hh"
#include "sim/mmu.hh"

namespace flexi
{
namespace
{

// ---------------------------------------------------------------
// Simulator corner semantics
// ---------------------------------------------------------------

TEST(SimEdge, PcWrapsAtPageBoundary)
{
    // Fill a page so execution runs off the end: the 7-bit PC wraps
    // to 0 (and the fetch beyond the image reads idle-bus zeros,
    // which decode as add r0).
    Program p(IsaKind::FlexiCore4);
    std::vector<uint8_t> image(kPageSize, 0x41);   // addi 1
    p.appendBytes(0, image);
    FifoEnvironment env;
    TimingConfig cfg{IsaKind::FlexiCore4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    sim.run(kPageSize + 3);
    EXPECT_EQ(sim.pc(), 3u);
    EXPECT_FALSE(sim.halted());
}

TEST(SimEdge, Fc8LdbStraddlingEndReadsZero)
{
    // An ldb prefix as the last byte fetches its immediate from the
    // idle bus (0).
    Program p(IsaKind::FlexiCore8);
    p.appendBytes(0, {0x41, 0x08});   // addi 1 | ldb <beyond image>
    FifoEnvironment env;
    TimingConfig cfg{IsaKind::FlexiCore8, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    sim.run(2);
    EXPECT_EQ(sim.acc(), 0);
    EXPECT_EQ(sim.pc(), 3u);
}

TEST(SimEdge, ConditionalSelfBranchOnlyHaltsWhenTaken)
{
    // A self-branch that is NOT taken must fall through, not halt.
    Program p = assemble(IsaKind::FlexiCore4,
                         "addi 1\nx: br x\naddi 2\nnandi 0\n"
                         "y: br y\n");
    FifoEnvironment env;
    TimingConfig cfg{IsaKind::FlexiCore4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    StopReason r = sim.run(100);
    EXPECT_EQ(r, StopReason::Halted);
    EXPECT_EQ(sim.acc(), 0xF);   // reached the nandi before halting
    EXPECT_EQ(sim.stats().instructions, 5u);
}

TEST(SimEdge, ExtXchWithInputPort)
{
    // xch r0: ACC <- input bus; the write back is dropped (the input
    // register is not writeable).
    Program p = assemble(IsaKind::ExtAcc4,
                         "li 5\nxch r0\nstore r2\nxch r0\nstore r3\n"
                         "e: br.nzp e\n");
    FifoEnvironment env;
    env.pushInputs({0x9, 0x3});
    TimingConfig cfg{IsaKind::ExtAcc4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    sim.run(100);
    EXPECT_EQ(sim.mem(2), 0x9);
    EXPECT_EQ(sim.mem(3), 0x3);
}

TEST(SimEdge, CallOverwritesReturnRegister)
{
    // The single return register (Section 6.1: 8 flip-flops) means
    // a second call clobbers the first return address.
    Program p = assemble(IsaKind::ExtAcc4, R"(
        call a
        li 1            ; never reached: ret returns into b's caller
        e: br.nzp e
        a: call b
        li 2
        store r2
        e2: br.nzp e2
        b: ret          ; returns to just after `call b`
    )");
    FifoEnvironment env;
    TimingConfig cfg{IsaKind::ExtAcc4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    sim.run(100);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.mem(2), 2);
}

TEST(SimEdge, LoadStoreWriteToInputRegisterDropped)
{
    Program p = assemble(IsaKind::LoadStore4,
                         "movi r0, 7\nmov r2, r0\ne: br.nzp e\n");
    FifoEnvironment env;
    env.pushInputs({0x4});
    TimingConfig cfg{IsaKind::LoadStore4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, env);
    sim.run(100);
    // r0 reads sample the bus, not the attempted write.
    EXPECT_EQ(sim.mem(2), 0x4);
}

TEST(SimEdge, DeterministicAcrossRuns)
{
    for (KernelId id : allKernels()) {
        TimingConfig cfg{IsaKind::FlexiCore4,
                         MicroArch::SingleCycle, BusWidth::Wide};
        KernelRun a = runKernel(id, cfg, 12, 99);
        KernelRun b = runKernel(id, cfg, 12, 99);
        EXPECT_EQ(a.outputs, b.outputs) << kernelName(id);
        EXPECT_EQ(a.stats.cycles, b.stats.cycles) << kernelName(id);
    }
}

// ---------------------------------------------------------------
// MMU protocol corners
// ---------------------------------------------------------------

TEST(MmuEdge, PendingSwitchOverwritten)
{
    // Arming twice before a branch: the later page wins (the 4-bit
    // register is simply rewritten).
    Mmu mmu;
    mmu.onOutput(kMmuEscape0);
    mmu.onOutput(kMmuEscape1);
    mmu.onOutput(2);
    mmu.onOutput(kMmuEscape0);
    mmu.onOutput(kMmuEscape1);
    mmu.onOutput(5);
    EXPECT_EQ(mmu.takePendingPage(), 5);
}

TEST(MmuEdge, PageValueMaskedToFourBits)
{
    Mmu mmu;
    mmu.onOutput(kMmuEscape0);
    mmu.onOutput(kMmuEscape1);
    mmu.onOutput(0xF);
    EXPECT_EQ(mmu.takePendingPage(), 15);
}

TEST(MmuEdge, EscapeAfterDataEscapeZero)
{
    // Data 0xA then a real escape: the data byte flushes through and
    // the escape still arms (longest-match re-arm).
    Mmu mmu;
    EXPECT_TRUE(mmu.onOutput(0x7).size() == 1);
    EXPECT_TRUE(mmu.onOutput(kMmuEscape0).empty());
    auto flushed = mmu.onOutput(kMmuEscape0);   // re-arm, flush one
    ASSERT_EQ(flushed.size(), 1u);
    mmu.onOutput(kMmuEscape1);
    mmu.onOutput(3);
    EXPECT_TRUE(mmu.pending());
}

TEST(MmuEdge, SwitchToEmptyPageExecutesIdleBus)
{
    // Software can select a page with no content; fetches read zero
    // (add r0) — defined, non-crashing behaviour.
    Program p = assemble(IsaKind::FlexiCore4, R"(
        addi 0xA
        store r1
        addi -5
        store r1
        addi 2          ; page 7 (empty)
        store r1
        nandi 0
        br 0
    )");
    FifoEnvironment io;
    PagedEnvironment paged(io);
    TimingConfig cfg{IsaKind::FlexiCore4, MicroArch::SingleCycle,
                     BusWidth::Wide};
    CoreSim sim(cfg, p, paged);
    StopReason r = sim.run(500);
    EXPECT_EQ(r, StopReason::Budget);   // spins on add r0 forever
    EXPECT_EQ(sim.page(), 7u);
}

// ---------------------------------------------------------------
// Assembler limits
// ---------------------------------------------------------------

TEST(AsmEdge, ExactlyFullPageAssembles)
{
    std::string src;
    for (unsigned i = 0; i < kPageSize; ++i)
        src += "addi 1\n";
    Program p = assemble(IsaKind::FlexiCore4, src);
    EXPECT_EQ(p.page(0).size(), kPageSize);
}

TEST(AsmEdge, TwoByteInstructionAtPageEndRejected)
{
    // 127 one-byte instructions + one two-byte branch = 129 entries.
    std::string src;
    for (unsigned i = 0; i < kPageSize - 1; ++i)
        src += "li 1\n";
    src += "x: br.nzp x\n";
    EXPECT_THROW(assemble(IsaKind::ExtAcc4, src), FatalError);
}

TEST(AsmEdge, PageDirectiveRange)
{
    EXPECT_THROW(assemble(IsaKind::FlexiCore4, ".page 16\n"),
                 FatalError);
    EXPECT_THROW(assemble(IsaKind::FlexiCore4, ".page -1\n"),
                 FatalError);
    EXPECT_NO_THROW(assemble(IsaKind::FlexiCore4,
                             ".page 15\naddi 1\n"));
}

TEST(AsmEdge, RevisitingPagesAppends)
{
    Program p = assemble(IsaKind::FlexiCore4, R"(
        addi 1
        .page 1
        addi 2
        .page 0
        addi 3
    )");
    EXPECT_EQ(p.page(0).size(), 2u);
    EXPECT_EQ(p.page(1).size(), 1u);
    EXPECT_EQ(p.page(0)[1], 0x43);
}

TEST(AsmEdge, CrossPageTargetViaAtSign)
{
    Program p = assemble(IsaKind::FlexiCore4, R"(
        nandi 0
        br @entry
        .page 1
        .org 5
        entry: addi 1
    )");
    EXPECT_EQ(p.page(0)[1], 0x85);   // br 5 (address bits only)
}

TEST(AsmEdge, LabelsMayContainDigitsAndUnderscores)
{
    Program p = assemble(IsaKind::FlexiCore4,
                         "loop_2x: addi 1\nnandi 0\nbr loop_2x\n");
    EXPECT_TRUE(p.hasSymbol("loop_2x"));
}

TEST(AsmEdge, OrgBackwardsRejected)
{
    EXPECT_THROW(assemble(IsaKind::FlexiCore4,
                          "addi 1\naddi 2\n.org 1\n"),
                 FatalError);
}

// ---------------------------------------------------------------
// Exhaustive cell truth tables (all 13 library cells)
// ---------------------------------------------------------------

TEST(CellTruth, AllCombinationalCellsExhaustive)
{
    for (const CellInfo &info : cellLibrary()) {
        if (isSequential(info.type))
            continue;
        Netlist nl("truth");
        std::vector<NetId> ins;
        for (unsigned i = 0; i < info.numInputs; ++i)
            ins.push_back(nl.addInput(strfmt("i%u", i)));
        NetId y = nl.addCell(info.type, ins, "m");
        nl.addOutput("y", y);
        nl.elaborate();

        for (unsigned v = 0; v < (1u << info.numInputs); ++v) {
            nl.setBus("i", info.numInputs, v);
            nl.evaluate();
            bool a = v & 1, b = (v >> 1) & 1, c = (v >> 2) & 1;
            bool expect = false;
            switch (info.type) {
              case CellType::INV_X1:
              case CellType::INV_X2: expect = !a; break;
              case CellType::BUF_X1:
              case CellType::BUF_X2: expect = a; break;
              case CellType::NAND2: expect = !(a && b); break;
              case CellType::NAND3: expect = !(a && b && c); break;
              case CellType::NOR2: expect = !(a || b); break;
              case CellType::NOR3: expect = !(a || b || c); break;
              case CellType::XOR2: expect = a != b; break;
              case CellType::XNOR2: expect = a == b; break;
              case CellType::MUX2: expect = c ? b : a; break;
              default: FAIL();
            }
            EXPECT_EQ(nl.output("y"), expect)
                << info.name << " input " << v;
        }
    }
}

/** Property: the shared or-reduce / and-reduce trees match C++. */
TEST(CellTruth, ReduceTreesMatchReference)
{
    for (unsigned width : {1u, 2u, 3u, 5u, 8u, 11u}) {
        Netlist nl("reduce");
        Builder b(nl, "m");
        std::vector<NetId> ins;
        for (unsigned i = 0; i < width; ++i)
            ins.push_back(nl.addInput(strfmt("i%u", i)));
        nl.addOutput("and", b.andReduce(ins));
        nl.addOutput("or", b.orReduce(ins));
        nl.elaborate();
        Rng rng(width);
        for (int rep = 0; rep < 64; ++rep) {
            unsigned v = static_cast<unsigned>(
                rng.below(1ull << width));
            nl.setBus("i", width, v);
            nl.evaluate();
            EXPECT_EQ(nl.output("and"),
                      v == (1u << width) - 1u);
            EXPECT_EQ(nl.output("or"), v != 0);
        }
    }
}

} // namespace
} // namespace flexi
