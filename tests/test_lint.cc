/**
 * @file
 * Tests for the static-analysis subsystem: every netlist and program
 * lint rule gets a deliberately broken fixture that must fire it and
 * a clean fixture that must not, plus the blanket property that every
 * shipped netlist and benchmark kernel lints clean (zero errors).
 */

#include <gtest/gtest.h>

#include "analysis/netlist_lint.hh"
#include "analysis/program_lint.hh"
#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/kernels.hh"
#include "netlist/builder.hh"
#include "netlist/flexicore_netlist.hh"

namespace flexi
{
namespace
{

bool
fires(const LintReport &rep, const std::string &rule)
{
    return !rep.byRule(rule).empty();
}

// ---------------------------------------------------------------
// Netlist lint: broken fixtures, one per rule
// ---------------------------------------------------------------

TEST(NetlistLint, UnconnectedInputFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y = b.nand2(a, a);
    nl.addOutput("y", y);
    nl.rewireCellInput(0, 1, kNoNet);

    LintReport rep = lintNetlist(nl);
    EXPECT_TRUE(fires(rep, "unconnected-input"));
    EXPECT_GT(rep.errors(), 0u);
}

TEST(NetlistLint, UndrivenNetFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId floating = nl.newNet();
    nl.addOutput("y", b.nand2(a, floating));

    LintReport rep = lintNetlist(nl);
    ASSERT_TRUE(fires(rep, "undriven-net"));
    // The finding names the floating net and its consumer.
    EXPECT_NE(rep.byRule("undriven-net")[0].message.find("NAND2"),
              std::string::npos);
}

TEST(NetlistLint, MultipleDriversFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y0 = b.inv(a);
    b.inv(y0);
    nl.addOutput("y", y0);
    nl.rewireCellOutput(1, y0);   // short both INV outputs together

    LintReport rep = lintNetlist(nl);
    EXPECT_TRUE(fires(rep, "multiple-drivers"));
}

TEST(NetlistLint, CombLoopFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y0 = b.inv(a);
    NetId y1 = b.inv(y0);
    nl.addOutput("y", y1);
    nl.rewireCellInput(0, 0, y1);   // close the INV-INV ring

    LintReport rep = lintNetlist(nl);
    ASSERT_TRUE(fires(rep, "comb-loop"));
    // The report shows the actual cycle path.
    EXPECT_NE(rep.byRule("comb-loop")[0].message.find("->"),
              std::string::npos);
}

TEST(NetlistLint, FanoutLimitFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y = b.nand2(a, a);   // NAND2 drive limit is 8 loads
    std::vector<NetId> sinks;
    for (int i = 0; i < 9; ++i)
        sinks.push_back(b.inv(y));
    nl.addOutput("y", b.orReduce(sinks));

    LintReport rep = lintNetlist(nl);
    ASSERT_TRUE(fires(rep, "fanout-limit"));
    EXPECT_NE(rep.byRule("fanout-limit")[0].message.find("9 loads"),
              std::string::npos);
}

TEST(NetlistLint, DeadLogicFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    nl.addOutput("y", b.inv(a));
    b.nand2(a, a);   // output feeds nothing

    LintReport rep = lintNetlist(nl);
    EXPECT_TRUE(fires(rep, "dead-logic"));
    EXPECT_EQ(rep.errors(), 0u);   // a smell, not an error
}

TEST(NetlistLint, ConstOutputFires)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    // NAND with a constant-0 input is constant-1 whatever `a` is.
    nl.addOutput("y", b.nand2(a, nl.zero()));

    LintReport rep = lintNetlist(nl);
    ASSERT_TRUE(fires(rep, "const-output"));
    EXPECT_NE(rep.byRule("const-output")[0].message.find("outputs 1"),
              std::string::npos);
}

TEST(NetlistLint, CleanFixtureIsClean)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId c = nl.addInput("b");
    NetId q = nl.addDff(b.xor2(a, c), "m");
    nl.addOutput("y", b.nand2(q, a));

    LintReport rep = lintNetlist(nl);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.diagnostics().size(), 0u);
}

// ---------------------------------------------------------------
// elaborate() failure diagnostics (the old bare cell-count panic)
// ---------------------------------------------------------------

TEST(NetlistLint, ElaborateNamesCombCycle)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y0 = b.inv(a);
    NetId y1 = b.inv(y0);
    nl.addOutput("y", y1);
    nl.rewireCellInput(0, 0, y1);

    try {
        nl.elaborate();
        FAIL() << "elaborate() accepted a combinational loop";
    } catch (const PanicError &err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find("combinational loop"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("INV_X1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("->"), std::string::npos) << msg;
    }
}

TEST(NetlistLint, ElaborateNamesUndrivenNets)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    nl.addOutput("y", b.nand2(a, nl.newNet()));

    try {
        nl.elaborate();
        FAIL() << "elaborate() accepted an undriven input";
    } catch (const PanicError &err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find("never driven"), std::string::npos)
            << msg;
    }
}

// ---------------------------------------------------------------
// Program lint: broken fixtures, one per rule
// ---------------------------------------------------------------

LintReport
lintSrc(IsaKind isa, const std::string &src)
{
    return lintProgram(assemble(isa, src));
}

TEST(ProgramLint, TargetBeyondCodeFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "load r0\n"
                             "br 100\n");
    EXPECT_TRUE(fires(rep, "target-beyond-code"));
    EXPECT_GT(rep.errors(), 0u);
}

TEST(ProgramLint, FallOffCodeFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "load r0\n"
                             "store r1\n");
    EXPECT_TRUE(fires(rep, "fall-off-code"));
}

TEST(ProgramLint, MisalignedTargetFires)
{
    // The branch may jump into the middle of the two-byte ldb.
    LintReport rep = lintSrc(IsaKind::FlexiCore8,
                             "ldb 5\n"
                             "load r0\n"
                             "br 1\n"
                             "nandi 0\n"
                             "halt: br halt\n");
    EXPECT_TRUE(fires(rep, "misaligned-target"));
}

TEST(ProgramLint, WriteToInputPortFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "load r0\n"
                             "store r0\n"
                             "nandi 0\n"
                             "halt: br halt\n");
    EXPECT_TRUE(fires(rep, "write-to-input-port"));
    EXPECT_GT(rep.errors(), 0u);
}

TEST(ProgramLint, RetWithoutCallFires)
{
    LintReport rep = lintSrc(IsaKind::ExtAcc4, "ret\n");
    EXPECT_TRUE(fires(rep, "ret-without-call"));
    EXPECT_GT(rep.errors(), 0u);
}

TEST(ProgramLint, NestedCallFires)
{
    LintReport rep = lintSrc(IsaKind::ExtAcc4,
                             "call f\n"
                             "halt: br.nzp halt\n"
                             "f: call g\n"
                             "ret\n"
                             "g: ret\n");
    EXPECT_TRUE(fires(rep, "nested-call"));
}

TEST(ProgramLint, PageIndeterminateFires)
{
    // Emits 0xA, 0x5, then an input-dependent value: the pending MMU
    // page is statically unknown at the branch.
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "loop: nandi 0\nxori 5\n"   // ACC = 0xA
                             "store r1\n"
                             "nandi 0\nxori 10\n"        // ACC = 0x5
                             "store r1\n"
                             "load r0\n"
                             "store r1\n"
                             "nandi 0\n"
                             "br loop\n");
    EXPECT_TRUE(fires(rep, "page-indeterminate"));
}

TEST(ProgramLint, UnreachableCodeFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "nandi 0\n"
                             "halt: br halt\n"
                             "load r0\n"
                             "store r1\n");
    ASSERT_TRUE(fires(rep, "unreachable-code"));
    EXPECT_NE(rep.byRule("unreachable-code")[0].message.find("2..3"),
              std::string::npos);
}

TEST(ProgramLint, UninitAccReadFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "store r1\n"
                             "nandi 0\n"
                             "halt: br halt\n");
    EXPECT_TRUE(fires(rep, "uninit-acc-read"));
    EXPECT_EQ(rep.errors(), 0u);   // a smell, not an error
}

TEST(ProgramLint, UninitMemReadFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "load r2\n"
                             "store r1\n"
                             "nandi 0\n"
                             "halt: br halt\n");
    EXPECT_TRUE(fires(rep, "uninit-mem-read"));
}

TEST(ProgramLint, InvalidOpcodeFires)
{
    // 0b10110000: ExtAcc4 T-form with reserved sss = 6.
    LintReport rep = lintSrc(IsaKind::ExtAcc4,
                             ".byte 0xB0\n"
                             "halt: br.nzp halt\n");
    EXPECT_TRUE(fires(rep, "invalid-opcode"));
}

TEST(ProgramLint, EmptyProgramFires)
{
    LintReport rep = lintSrc(IsaKind::FlexiCore4, "\n");
    EXPECT_TRUE(fires(rep, "empty-program"));
}

// ---------------------------------------------------------------
// Program lint: precision properties
// ---------------------------------------------------------------

TEST(ProgramLint, UbrIdiomDrawsNoUninitWarning)
{
    // `nandi 0` forces ACC = 0xF regardless of the unknown ACC: the
    // canonical unconditional-branch idiom must not warn and must
    // prune the fall-through edge.
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "loop: load r0\n"
                             "store r1\n"
                             "nandi 0\n"
                             "br loop\n");
    EXPECT_EQ(rep.diagnostics().size(), 0u) << rep.text("t");
}

TEST(ProgramLint, FollowsMmuPageSwitch)
{
    // Constant page escape: the analysis must follow execution onto
    // page 1 and not report page 1 unreachable (nor the branch
    // page-indeterminate).
    LintReport rep = lintSrc(IsaKind::FlexiCore4,
                             "nandi 0\nxori 5\n"    // ACC = 0xA
                             "store r1\n"
                             "nandi 0\nxori 10\n"   // ACC = 0x5
                             "store r1\n"
                             "nandi 0\nxori 14\n"   // ACC = 1 (page)
                             "store r1\n"
                             "nandi 0\n"
                             "br @next\n"
                             ".page 1\n"
                             "next: load r0\n"
                             "store r1\n"
                             "nandi 0\n"
                             "halt: br halt\n");
    EXPECT_FALSE(fires(rep, "unreachable-code")) << rep.text("t");
    EXPECT_FALSE(fires(rep, "page-indeterminate")) << rep.text("t");
    EXPECT_TRUE(rep.clean()) << rep.text("t");
}

TEST(ProgramLint, CallRetRoundTripIsClean)
{
    LintReport rep = lintSrc(IsaKind::ExtAcc4,
                             "loop: call get\n"
                             "store r1\n"
                             "br.nzp loop\n"
                             "get: load r0\n"
                             "ret\n");
    EXPECT_TRUE(rep.clean()) << rep.text("t");
    EXPECT_FALSE(fires(rep, "unreachable-code")) << rep.text("t");
}

// ---------------------------------------------------------------
// Everything we ship lints clean (zero errors)
// ---------------------------------------------------------------

TEST(ShippedDesigns, AllNetlistsLintClean)
{
    for (auto build : {buildFlexiCore4Netlist, buildFlexiCore8Netlist,
                       buildExtAcc4Netlist, buildLoadStore4Netlist}) {
        auto nl = build();
        LintReport rep = lintNetlist(*nl);
        EXPECT_TRUE(rep.clean())
            << nl->name() << ":\n" << rep.text(nl->name());
    }
}

TEST(ShippedDesigns, AllKernelsLintClean)
{
    for (KernelId id : allKernels()) {
        for (IsaKind isa : {IsaKind::FlexiCore4, IsaKind::ExtAcc4,
                            IsaKind::LoadStore4}) {
            Program prog = assemble(isa, kernelSource(id, isa));
            LintReport rep = lintProgram(prog);
            std::string subject =
                strfmt("%s/%s", kernelName(id), isaName(isa));
            EXPECT_TRUE(rep.clean())
                << subject << ":\n" << rep.text(subject);
        }
    }
}

TEST(ShippedDesigns, AllFc8ProgramsLintClean)
{
    for (size_t i = 0; i < kNumFc8Programs; ++i) {
        auto id = static_cast<Fc8Program>(i);
        Program prog = assemble(IsaKind::FlexiCore8,
                                fc8ProgramSource(id));
        LintReport rep = lintProgram(prog);
        EXPECT_TRUE(rep.clean())
            << fc8ProgramName(id) << ":\n"
            << rep.text(fc8ProgramName(id));
    }
}

// ---------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------

TEST(LintReport, TextAndJsonRenderings)
{
    LintReport rep;
    rep.add({Severity::Error, "test-rule", "mod", {3}, 1, 7,
             "quote \" and newline\n", {}});
    std::string text = rep.text("subj");
    EXPECT_NE(text.find("subj: error[test-rule] mod"),
              std::string::npos);
    EXPECT_NE(text.find("page 1 addr 7"), std::string::npos);

    std::string json = rep.json("subj");
    EXPECT_NE(json.find("\"rule\": \"test-rule\""),
              std::string::npos);
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_EQ(rep.errors(), 1u);
    EXPECT_FALSE(rep.clean());
}

TEST(LintReport, JsonRendersStableNetNames)
{
    // Findings on a shipped netlist must name nets through the
    // name table — "acc0", not a bare NetId integer that changes
    // with re-elaboration.
    auto nl = buildFlexiCore4Netlist();
    NetId acc0 = nl->findNet("acc0");
    ASSERT_NE(acc0, kNoNet);

    LintReport rep;
    rep.add({Severity::Warning, "test-rule", "acc", {acc0}, -1, -1,
             "synthetic finding", {}});
    rep.resolveNetNames(*nl);

    ASSERT_EQ(rep.diagnostics().size(), 1u);
    ASSERT_EQ(rep.diagnostics()[0].netNames.size(), 1u);
    EXPECT_EQ(rep.diagnostics()[0].netNames[0], "acc0");

    std::string json = rep.json("FlexiCore4");
    EXPECT_NE(json.find("\"acc0\""), std::string::npos);

    // The real lint pass resolves names for its own findings too.
    LintReport shipped = lintNetlist(*nl);
    for (const Diagnostic &d : shipped.diagnostics())
        EXPECT_EQ(d.netNames.size(), d.nets.size());
}

} // namespace
} // namespace flexi
