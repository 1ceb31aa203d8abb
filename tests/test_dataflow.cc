/**
 * @file
 * Tests for the netlist dataflow framework: the ternary fixed-point
 * engine (constant propagation, reset coverage, cone-of-influence
 * liveness), the canonical structural hash (invariance + pinned
 * digests for the four cores), the SAT-certified prune pass
 * (including differential fuzz of pruned netlists across both
 * evaluators and the counterexample replay on a tampered "prune"),
 * the bespoke-core derivation, the DSE sweep cache, and the
 * LintReport normalization that keeps flexilint --json byte-stable.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/dataflow/bespoke.hh"
#include "analysis/dataflow/dataflow.hh"
#include "analysis/dataflow/prune.hh"
#include "analysis/dataflow/struct_hash.hh"
#include "analysis/program_lint.hh"
#include "assembler/assembler.hh"
#include "dse/bespoke_report.hh"
#include "dse/sweep.hh"
#include "netlist/builder.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/netlist.hh"

namespace flexi
{
namespace
{

/** xorshift PRNG so the differential fuzz is reproducible. */
uint32_t
nextRand(uint32_t &state)
{
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
}

// ---------------------------------------------------------------
// Ternary evaluation
// ---------------------------------------------------------------

TEST(Ternary, JoinLattice)
{
    EXPECT_EQ(ternaryJoin(Ternary::Zero, Ternary::Zero),
              Ternary::Zero);
    EXPECT_EQ(ternaryJoin(Ternary::One, Ternary::One), Ternary::One);
    EXPECT_EQ(ternaryJoin(Ternary::Zero, Ternary::One), Ternary::X);
    EXPECT_EQ(ternaryJoin(Ternary::X, Ternary::Zero), Ternary::X);
}

TEST(Ternary, ControllingValuesDominateX)
{
    // NAND(0, X) = 1 regardless of the unknown input.
    EXPECT_EQ(ternaryEval(CellType::NAND2, Ternary::Zero, Ternary::X,
                          Ternary::X),
              Ternary::One);
    EXPECT_EQ(ternaryEval(CellType::NAND2, Ternary::One, Ternary::X,
                          Ternary::X),
              Ternary::X);
    // NOR(1, X) = 0.
    EXPECT_EQ(ternaryEval(CellType::NOR2, Ternary::One, Ternary::X,
                          Ternary::X),
              Ternary::Zero);
    // NAND3 with any controlling 0.
    EXPECT_EQ(ternaryEval(CellType::NAND3, Ternary::X, Ternary::Zero,
                          Ternary::X),
              Ternary::One);
}

TEST(Ternary, NonControllingXStaysX)
{
    EXPECT_EQ(ternaryEval(CellType::INV_X1, Ternary::X, Ternary::Zero,
                          Ternary::Zero),
              Ternary::X);
    EXPECT_EQ(ternaryEval(CellType::INV_X1, Ternary::Zero,
                          Ternary::Zero, Ternary::Zero),
              Ternary::One);
    EXPECT_EQ(ternaryEval(CellType::XOR2, Ternary::X, Ternary::Zero,
                          Ternary::Zero),
              Ternary::X);
    EXPECT_EQ(ternaryEval(CellType::XNOR2, Ternary::One, Ternary::One,
                          Ternary::Zero),
              Ternary::One);
}

TEST(Ternary, MuxAgreeingBranchesResolveUnknownSelect)
{
    // MUX2 inputs are {a, b, sel}: both branches equal, select X.
    EXPECT_EQ(ternaryEval(CellType::MUX2, Ternary::Zero, Ternary::Zero,
                          Ternary::X),
              Ternary::Zero);
    EXPECT_EQ(ternaryEval(CellType::MUX2, Ternary::One, Ternary::One,
                          Ternary::X),
              Ternary::One);
    EXPECT_EQ(ternaryEval(CellType::MUX2, Ternary::Zero, Ternary::One,
                          Ternary::X),
              Ternary::X);
}

TEST(Ternary, TruthTableExportRejectsSequential)
{
    EXPECT_EQ(cellTruthTable(CellType::INV_X1), 0x55u);
    EXPECT_THROW(cellTruthTable(CellType::DFF_X1), std::logic_error);
}

// ---------------------------------------------------------------
// Fixed-point analysis on small fixtures
// ---------------------------------------------------------------

TEST(Dataflow, TiedPadPropagatesThroughLogic)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId t = nl.addInput("t");
    NetId a = nl.addInput("a");
    NetId y = b.nand2(t, a);
    nl.addOutput("y", y);
    nl.elaborate();

    // Open analysis: y unknown.
    DataflowResult open = analyzeDataflow(nl);
    ASSERT_TRUE(open.ok);
    EXPECT_FALSE(open.netConst(y));

    // t tied low: NAND(0, a) = 1 in every reachable state.
    DataflowOptions opts;
    opts.ties.push_back({"t", false});
    DataflowResult tied = analyzeDataflow(nl, opts);
    ASSERT_TRUE(tied.ok);
    ASSERT_TRUE(tied.netConst(y));
    EXPECT_TRUE(tied.netConstValue(y));
}

TEST(Dataflow, ConstantStateBitFoundInductively)
{
    // q starts 0 and recirculates AND(q, a): provably 0 forever,
    // even though a is free.
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId q = nl.addDff(nl.zero(), "m", false);
    NetId d = b.and2(q, a);
    nl.setDffInput(q, d);
    nl.addOutput("y", b.or2(q, a));
    nl.elaborate();

    DataflowResult df = analyzeDataflow(nl);
    ASSERT_TRUE(df.ok);
    ASSERT_TRUE(df.netConst(q));
    EXPECT_FALSE(df.netConstValue(q));
}

TEST(Dataflow, ResetCoverageSeparatesSelfInitFromPowerOn)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    // self_init: next state is constant 0 -> recovers from any
    // power-on value in one cycle.
    NetId q0 = nl.addDff(nl.zero(), "m", false);
    // hold: recirculates itself -> relies on the power-on value.
    NetId q1 = nl.addDff(nl.zero(), "m", false);
    nl.setDffInput(q1, b.buf(q1));
    nl.addOutput("y", b.nand3(q0, q1, a));
    nl.elaborate();

    DataflowResult df = analyzeDataflow(nl);
    ASSERT_TRUE(df.ok);
    ASSERT_EQ(df.resetVal.size(), 2u);
    EXPECT_EQ(df.resetVal[0], Ternary::Zero);
    EXPECT_EQ(df.resetVal[1], Ternary::X);
    EXPECT_EQ(df.numUninitDffs(), 1u);

    LintReport rep = dataflowLint(nl);
    EXPECT_TRUE(rep.fires("x-after-reset"));
    ASSERT_EQ(rep.byRule("x-after-reset").size(), 1u);
}

TEST(Dataflow, DeadConeDetected)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId c = nl.addInput("b");
    NetId y = b.nand2(a, c);
    NetId dead = b.xor2(a, c);   // feeds nothing observable
    (void)dead;
    nl.addOutput("y", y);
    nl.elaborate();

    DataflowResult df = analyzeDataflow(nl);
    ASSERT_TRUE(df.ok);
    EXPECT_EQ(df.numDeadCells(), 1u);

    LintReport rep = dataflowLint(nl);
    EXPECT_TRUE(rep.fires("dead-gate"));
}

// ---------------------------------------------------------------
// Canonical structural hash
// ---------------------------------------------------------------

/** Two-output fixture; @p swapped reverses construction order. */
std::unique_ptr<Netlist>
buildHashFixture(bool swapped, const char *module = "m")
{
    auto nl = std::make_unique<Netlist>("t");
    Builder b(*nl, module);
    NetId a = nl->addInput("a");
    NetId c = nl->addInput("b");
    NetId y, z;
    if (swapped) {
        z = b.xor2(a, c);
        y = b.nand2(a, c);
    } else {
        y = b.nand2(a, c);
        z = b.xor2(a, c);
    }
    nl->addOutput("y", y);
    nl->addOutput("z", z);
    nl->elaborate();
    return nl;
}

TEST(StructHash, InvariantUnderConstructionOrderAndModuleTags)
{
    uint64_t h = canonicalNetlistHash(*buildHashFixture(false));
    EXPECT_EQ(h, canonicalNetlistHash(*buildHashFixture(true)));
    EXPECT_EQ(h, canonicalNetlistHash(*buildHashFixture(false, "q")));
}

TEST(StructHash, InvariantUnderClone)
{
    auto nl = buildFlexiCore4Netlist();
    auto copy = nl->clone();
    EXPECT_EQ(canonicalNetlistHash(*nl), canonicalNetlistHash(*copy));
}

TEST(StructHash, SensitiveToFunctionAndInit)
{
    uint64_t h = canonicalNetlistHash(*buildHashFixture(false));

    {
        // Same shape, one gate function changed.
        Netlist nl("t");
        Builder b(nl, "m");
        NetId a = nl.addInput("a");
        NetId c = nl.addInput("b");
        nl.addOutput("y", b.nor2(a, c));
        nl.addOutput("z", b.xor2(a, c));
        nl.elaborate();
        EXPECT_NE(canonicalNetlistHash(nl), h);
    }
    {
        // DFF init value must be visible to the digest.
        auto mk = [](bool init) {
            auto nl = std::make_unique<Netlist>("t");
            NetId d = nl->addInput("d");
            NetId q = nl->addDff(d, "m", init);
            nl->addOutput("q", q);
            nl->elaborate();
            return nl;
        };
        EXPECT_NE(canonicalNetlistHash(*mk(false)),
                  canonicalNetlistHash(*mk(true)));
    }
}

TEST(StructHash, PinnedDigestsForTheFourCores)
{
    // The digests are pinned: the sweep cache treats them as the
    // identity of the generated structure, so an unintentional
    // change to a core generator (or to the hash itself) must show
    // up as a test failure, not as silent cache misses.
    EXPECT_EQ(canonicalNetlistHashHex(*buildFlexiCore4Netlist()),
              "d05b5907e382d41e");
    EXPECT_EQ(canonicalNetlistHashHex(*buildFlexiCore8Netlist()),
              "9a844e16cb0e098d");
    EXPECT_EQ(canonicalNetlistHashHex(*buildExtAcc4Netlist()),
              "54798922a191dd4a");
    EXPECT_EQ(canonicalNetlistHashHex(*buildLoadStore4Netlist()),
              "ba973c2b35c7ee34");
}

// ---------------------------------------------------------------
// SAT-certified prune
// ---------------------------------------------------------------

TEST(Prune, FoldsConstantsAndRemovesDeadLogicCertified)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId t = nl.addInput("t");
    NetId a = nl.addInput("a");
    NetId y = b.nand2(t, a);        // const 1 under the tie
    NetId dead = b.xor2(t, a);      // observable by nothing
    (void)dead;
    NetId q = nl.addDff(nl.zero(), "m", false);
    nl.setDffInput(q, b.and2(q, a));   // provably 0 forever
    nl.addOutput("y", y);
    nl.addOutput("z", b.or2(q, a));
    nl.elaborate();

    DataflowOptions opts;
    opts.ties.push_back({"t", false});
    PruneResult pr = prune(nl, opts);
    ASSERT_TRUE(pr.ok) << pr.detail;
    EXPECT_TRUE(pr.certified) << pr.certification.detail;
    EXPECT_EQ(pr.stats.constDffs, 1u);
    EXPECT_EQ(pr.stats.dffsAfter, 0u);
    EXPECT_GE(pr.stats.deadCells + pr.stats.constCells, 2u);
    EXPECT_LT(pr.stats.cellsAfter, pr.stats.cellsBefore);
    EXPECT_GT(pr.stats.nand2AreaSaved(), 0.0);

    // Pad interface intact, and y is now hardwired high.
    ASSERT_EQ(pr.netlist->primaryOutputs().size(), 2u);
    pr.netlist->setInput("t", false);
    pr.netlist->setInput("a", false);
    pr.netlist->evaluate();
    EXPECT_TRUE(pr.netlist->output("y"));
}

TEST(Prune, AllFourCoresCertify)
{
    for (auto build :
         {buildFlexiCore4Netlist, buildFlexiCore8Netlist,
          buildExtAcc4Netlist, buildLoadStore4Netlist}) {
        auto nl = build();
        PruneResult pr = prune(*nl);
        ASSERT_TRUE(pr.ok) << nl->name() << ": " << pr.detail;
        EXPECT_TRUE(pr.certified)
            << nl->name() << ": " << pr.certification.detail
            << (pr.certification.hasCex
                    ? " cex " + pr.certification.cex.text()
                    : "");
        EXPECT_LT(pr.stats.cellsAfter, pr.stats.cellsBefore)
            << nl->name();
        // Pad interface is preserved exactly.
        EXPECT_EQ(pr.netlist->primaryInputs().size(),
                  nl->primaryInputs().size());
        EXPECT_EQ(pr.netlist->primaryOutputs().size(),
                  nl->primaryOutputs().size());
    }
}

TEST(Prune, DifferentialFuzzAcrossAllEvaluators)
{
    // Drive the original and the pruned FlexiCore4 with the same
    // random input stream and insist on identical observable
    // behavior from the compiled engine and the gate-by-gate
    // reference evaluator.
    auto orig = buildFlexiCore4Netlist();
    PruneResult pr = prune(*orig);
    ASSERT_TRUE(pr.ok && pr.certified);
    Netlist &pruned = *pr.netlist;

    auto ref = pruned.clone();   // evaluateReference instance

    std::vector<std::string> ins, outs;
    for (const auto &[name, net] : orig->primaryInputs())
        ins.push_back(name);
    for (const auto &[name, net] : orig->primaryOutputs())
        outs.push_back(name);

    uint32_t rng = 0xdf10u;
    for (int cycle = 0; cycle < 128; ++cycle) {
        for (const std::string &name : ins) {
            bool v = nextRand(rng) & 1u;
            orig->setInput(name, v);
            pruned.setInput(name, v);
            ref->setInput(name, v);
        }
        orig->evaluate();
        pruned.evaluate();
        ref->evaluateReference();
        for (const std::string &name : outs) {
            bool want = orig->output(name);
            ASSERT_EQ(pruned.output(name), want)
                << "plan eval diverged on " << name << " at cycle "
                << cycle;
            ASSERT_EQ(ref->output(name), want)
                << "reference eval diverged on " << name
                << " at cycle " << cycle;
        }
        orig->clockEdge();
        pruned.clockEdge();
        ref->clockEdge();
    }
}

TEST(Prune, TamperedResultYieldsReplayableCounterexample)
{
    // A "prune" that actually changed the function must be caught,
    // and its counterexample must reproduce in plain simulation.
    Netlist orig("t");
    {
        Builder b(orig, "m");
        NetId a = orig.addInput("a");
        NetId c = orig.addInput("b");
        orig.addOutput("y", b.xor2(a, c));
        orig.elaborate();
    }
    Netlist wrong("t");
    {
        Builder b(wrong, "m");
        NetId a = wrong.addInput("a");
        NetId c = wrong.addInput("b");
        wrong.addOutput("y", b.or2(a, c));
        wrong.elaborate();
    }

    DataflowResult df = analyzeDataflow(orig);
    ASSERT_TRUE(df.ok);
    EquivResult res = certifyPrune(orig, wrong, df, {}, {});
    EXPECT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex);

    std::string what;
    EXPECT_TRUE(replayPruneCex(orig, wrong, {}, res.cex, &what));
    EXPECT_NE(what.find("y"), std::string::npos) << what;
}

TEST(Prune, OverclaimedFoldFailsCertification)
{
    // A net claimed constant must be proven so, even when the
    // rewrite is an exact copy that the miter alone would accept.
    Netlist orig("t");
    NetId y;
    {
        Builder b(orig, "m");
        y = b.and2(orig.addInput("a"), orig.addInput("b"));
        orig.addOutput("y", y);
        orig.elaborate();
    }
    std::vector<size_t> dff_map;
    std::vector<NetId> net_map;
    std::string err;
    auto copy =
        rebuild(orig, RewritePlan(orig), "copy", dff_map, net_map, err);
    ASSERT_NE(copy, nullptr) << err;

    SeqInvariants claims;
    claims.nets.push_back({y, false});
    EquivResult res =
        certifyRewrite(orig, *copy, claims, dff_map, net_map);
    EXPECT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex);
    ASSERT_FALSE(res.cex.mismatched.empty());
    EXPECT_NE(res.cex.mismatched[0].find("constant fold"),
              std::string::npos)
        << res.cex.mismatched[0];
}

// ---------------------------------------------------------------
// Bespoke-core derivation
// ---------------------------------------------------------------

TEST(Bespoke, SpecializesCoreToKernelEncodings)
{
    // Encodings 0x50, 0x51, 0x82: bus bits 2, 3 and 5 are zero in
    // every reachable word, so the derivation has pins to tie.
    const char *src =
        "nandi 0\n"          // ACC negative: the branch always takes
        "nandi 1\n"
        "done: br done\n";
    Program prog = assemble(IsaKind::FlexiCore4, src);
    ASSERT_TRUE(lintProgram(prog).clean());

    auto core = buildFlexiCore4Netlist();
    BespokeResult res =
        bespokePrune(*core, IsaKind::FlexiCore4, {prog});
    ASSERT_TRUE(res.ok) << res.detail;
    EXPECT_EQ(res.facts.busWidth, 8u);
    EXPECT_GT(res.facts.words, 0u);
    EXPECT_GT(res.facts.numTiedBits(), 0u);
    EXPECT_EQ(res.ties.size(), res.facts.numTiedBits());
    ASSERT_TRUE(res.prune.ok) << res.prune.detail;
    EXPECT_TRUE(res.prune.certified)
        << res.prune.certification.detail;
    // Specialization must beat the open-netlist prune.
    PruneResult open = prune(*core);
    ASSERT_TRUE(open.ok);
    EXPECT_LT(res.prune.stats.cellsAfter, open.stats.cellsAfter);

    BespokeAreaReport report = bespokeAreaReport(res.prune.stats);
    EXPECT_GT(report.nand2Saved, 0.0);
    EXPECT_GT(report.fractionSaved, 0.0);
    EXPECT_LT(report.fractionSaved, 1.0);
    EXPECT_GT(report.fractionOfBaseline, 0.0);
    EXPECT_FALSE(report.text().empty());
}

TEST(Bespoke, RefusesProgramsWithLintErrors)
{
    // A program that falls off the end of its page has a broken CFG:
    // its reachable set cannot license a specialization.
    Program prog = assemble(IsaKind::FlexiCore4, "nandi 0\n");
    ASSERT_FALSE(lintProgram(prog).clean());

    auto core = buildFlexiCore4Netlist();
    BespokeResult res =
        bespokePrune(*core, IsaKind::FlexiCore4, {prog});
    EXPECT_FALSE(res.ok);
}

// ---------------------------------------------------------------
// Sweep cache
// ---------------------------------------------------------------

TEST(SweepCache, SecondRunHitsEverythingBitIdentical)
{
    SweepCache cache;
    SweepConfig cfg;
    cfg.workUnits = 2;
    cfg.threads = 1;
    cfg.cache = &cache;

    SweepResult first = runSweep(cfg);
    ASSERT_FALSE(first.candidates.empty());
    EXPECT_EQ(cache.hits, 0u);
    EXPECT_EQ(cache.misses, first.candidates.size());

    SweepResult second = runSweep(cfg);
    EXPECT_EQ(cache.misses, first.candidates.size());
    EXPECT_EQ(cache.hits, first.candidates.size());

    ASSERT_EQ(second.candidates.size(), first.candidates.size());
    for (size_t i = 0; i < first.candidates.size(); ++i) {
        EXPECT_EQ(second.candidates[i].area,
                  first.candidates[i].area);
        EXPECT_EQ(second.candidates[i].codeRel,
                  first.candidates[i].codeRel);
        EXPECT_EQ(second.candidates[i].energyRel,
                  first.candidates[i].energyRel);
        EXPECT_EQ(second.candidates[i].pareto,
                  first.candidates[i].pareto);
    }
}

TEST(SweepCache, KeyDependsOnEvaluationInputs)
{
    SweepConfig cfg;
    cfg.workUnits = 2;
    DesignPoint a;
    DesignPoint b = a;
    uint64_t base = sweepPointKey(a, cfg);
    EXPECT_EQ(base, sweepPointKey(b, cfg));

    SweepConfig other = cfg;
    other.workUnits = 3;
    EXPECT_NE(sweepPointKey(a, other), base);
    other = cfg;
    other.seed = cfg.seed + 1;
    EXPECT_NE(sweepPointKey(a, other), base);
    // Threads and operating voltage never key the cache: they do
    // not change any point's metrics.
    other = cfg;
    other.threads = 7;
    other.vddOperating = 3.0;
    EXPECT_EQ(sweepPointKey(a, other), base);
}

// ---------------------------------------------------------------
// Report normalization (byte-stable flexilint --json)
// ---------------------------------------------------------------

TEST(LintReportNormalize, SortsAndDeduplicates)
{
    Diagnostic b;
    b.severity = Severity::Warning;
    b.rule = "b-rule";
    b.module = "m";
    b.message = "later";
    Diagnostic a;
    a.severity = Severity::Warning;
    a.rule = "a-rule";
    a.module = "m";
    a.message = "earlier";

    LintReport rep;
    rep.add(b);
    rep.add(a);
    rep.add(b);   // exact duplicate
    rep.normalize();

    ASSERT_EQ(rep.diagnostics().size(), 2u);
    EXPECT_EQ(rep.diagnostics()[0].rule, "a-rule");
    EXPECT_EQ(rep.diagnostics()[1].rule, "b-rule");

    // Same key at different severity is NOT a duplicate.
    Diagnostic b2 = b;
    b2.severity = Severity::Error;
    rep.add(b2);
    rep.normalize();
    EXPECT_EQ(rep.diagnostics().size(), 3u);
}

} // namespace
} // namespace flexi
