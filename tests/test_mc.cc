/**
 * @file
 * Sequential model-checker tests: the property spec language, BMC
 * falsification with replayable multi-cycle counterexamples
 * (replayed through the reference interpreter), k-induction proofs
 * of the watchdog and MMU page
 * invariants on all four shipped cores, the sequential reset-
 * coverage refinement, and the certified sequential prune with its
 * tamper check.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/mc/bmc.hh"
#include "analysis/mc/mc_lint.hh"
#include "analysis/mc/property.hh"
#include "analysis/mc/seq_prune.hh"
#include "assembler/assembler.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/kernels.hh"
#include "netlist/builder.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/netlist.hh"

namespace flexi
{
namespace
{

std::string
fixtureSource(const std::string &file)
{
    std::ifstream in(std::string(FLEXI_TEST_DATA_DIR) + "/" + file);
    EXPECT_TRUE(in.good()) << file;
    std::ostringstream src;
    src << in.rdbuf();
    return src.str();
}

// ---------------------------------------------------------------
// The property spec language.

TEST(McProperty, ParseAllKinds)
{
    McProperty p;
    ASSERT_TRUE(parsePropertySpec("assert:acc0=1", p));
    EXPECT_EQ(p.kind, McProperty::Kind::NetAssert);
    EXPECT_EQ(p.net, "acc0");
    EXPECT_TRUE(p.value);
    EXPECT_EQ(p.window(), 1u);

    ASSERT_TRUE(parsePropertySpec("bound:pc/7/100", p));
    EXPECT_EQ(p.kind, McProperty::Kind::BusBound);
    EXPECT_EQ(p.bus, "pc");
    EXPECT_EQ(p.width, 7u);
    EXPECT_EQ(p.limit, 100u);

    ASSERT_TRUE(parsePropertySpec("watchdog:3", p));
    EXPECT_EQ(p.kind, McProperty::Kind::Watchdog);
    EXPECT_EQ(p.param, 3u);
    EXPECT_EQ(p.window(), 5u);   // N stuck cycles + the next edge

    ASSERT_TRUE(parsePropertySpec("mmu-page", p));
    EXPECT_EQ(p.kind, McProperty::Kind::MmuPage);

    ASSERT_TRUE(parsePropertySpec("xfree:4", p));
    EXPECT_EQ(p.kind, McProperty::Kind::XFree);
    EXPECT_EQ(p.param, 4u);
}

TEST(McProperty, MalformedSpecsRejectedWithReason)
{
    McProperty p;
    std::string err;
    EXPECT_FALSE(parsePropertySpec("bogus:x", p, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parsePropertySpec("assert:acc0", p, &err));
    EXPECT_FALSE(parsePropertySpec("assert:acc0=2", p, &err));
    EXPECT_FALSE(parsePropertySpec("bound:pc/7", p, &err));
    EXPECT_FALSE(parsePropertySpec("bound:pc/0/1", p, &err));
    EXPECT_FALSE(parsePropertySpec("watchdog:0", p, &err));
    EXPECT_FALSE(parsePropertySpec("", p, &err));
}

TEST(McProperty, OverflowingBoundLimitRejected)
{
    McProperty p;
    std::string err;
    // One past 2^64 - 1 must fail closed, not saturate into a limit
    // no 7-bit bus can reach.
    EXPECT_FALSE(parsePropertySpec("bound:pc/7/18446744073709551616",
                                   p, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parsePropertySpec(
        "bound:pc/7/99999999999999999999999", p, &err));
    EXPECT_FALSE(parsePropertySpec("xfree:99999999999999999999", p,
                                   &err));
    // The largest representable limit, and vacuous ones, stay legal.
    ASSERT_TRUE(parsePropertySpec("bound:pc/7/18446744073709551615",
                                  p, &err));
    EXPECT_EQ(p.limit, UINT64_MAX);
    ASSERT_TRUE(parsePropertySpec("bound:pc/7/128", p, &err));
    EXPECT_EQ(p.limit, 128u);
}

TEST(McProperty, ValidationResolvesModelParameters)
{
    auto nl = buildFlexiCore4Netlist();
    McModel model;
    McProperty p;

    // Names must resolve against the netlist.
    ASSERT_TRUE(parsePropertySpec("assert:no_such_net=0", p));
    EXPECT_FALSE(validateProperty(*nl, model, p).empty());

    // mmu-page is a program property: without a ROM-closed model it
    // is invalid; with one, the limit resolves to the page fill.
    ASSERT_TRUE(parsePropertySpec("mmu-page", p));
    EXPECT_FALSE(validateProperty(*nl, model, p).empty());

    Program prog =
        assemble(IsaKind::FlexiCore4, fixtureSource("mc_fc4.s"));
    model.program = &prog;
    ASSERT_TRUE(parsePropertySpec("mmu-page", p));
    EXPECT_TRUE(validateProperty(*nl, model, p).empty());
    EXPECT_GT(p.limit, 0u);
}

// ---------------------------------------------------------------
// BMC: clean bounds and replayable counterexamples.

TEST(Bmc, CleanWithinBound)
{
    auto nl = buildFlexiCore4Netlist();
    McModel model;
    McProperty p;
    ASSERT_TRUE(parsePropertySpec("bound:pc/7/128", p));
    ASSERT_TRUE(validateProperty(*nl, model, p).empty());
    McResult r = checkBmc(*nl, model, p, 4);
    EXPECT_EQ(r.status, McStatus::Clean);
    EXPECT_EQ(r.depth, 4u);
    EXPECT_GT(r.solves, 0u);
}

TEST(Bmc, EscapeFixtureYieldsReplayableMultiCycleCex)
{
    // mc_escape.s branches to empty program memory: the PC leaves
    // the page two cycles after power-on. The counterexample must
    // be multi-cycle, and the reference interpreter must reproduce
    // it.
    auto nl = buildFlexiCore4Netlist();
    Program prog =
        assemble(IsaKind::FlexiCore4, fixtureSource("mc_escape.s"));
    McModel model;
    model.program = &prog;
    McProperty p;
    ASSERT_TRUE(parsePropertySpec("mmu-page", p));
    ASSERT_TRUE(validateProperty(*nl, model, p).empty());

    McResult r = checkBmc(*nl, model, p, 8);
    ASSERT_EQ(r.status, McStatus::Falsified) << r.detail;
    EXPECT_GE(r.trace.violationStep, 2u);
    ASSERT_GE(r.trace.frames.size(), 3u);
    EXPECT_EQ(r.trace.property, p.spec);

    // The rendered trace is part of the diagnostic contract.
    std::string text = r.trace.text();
    EXPECT_NE(text.find("cycle 0:"), std::string::npos);
    EXPECT_NE(text.find("violated"), std::string::npos);
    EXPECT_NE(r.trace.vcd().find("$timescale"), std::string::npos);

    std::string what;
    EXPECT_TRUE(replayMcTrace(*nl, p, r.trace, &what)) << what;

    // A tampered trace must not replay: the check is not vacuous.
    McTrace bad = r.trace;
    ASSERT_FALSE(bad.frames.back().state.empty());
    bad.frames.back().state.front().second =
        !bad.frames.back().state.front().second;
    EXPECT_FALSE(replayMcTrace(*nl, p, bad, nullptr));
}

// ---------------------------------------------------------------
// k-induction across the shipped cores (the acceptance bar).

struct CoreFixture
{
    IsaKind isa;
    const char *program;
    unsigned maxK;
};

TEST(Induction, ProvesWatchdogAndMmuPageOnAllFourCores)
{
    const CoreFixture cores[] = {
        {IsaKind::FlexiCore4, "mc_fc4.s", 4},
        {IsaKind::FlexiCore8, "mc_fc8.s", 4},
        {IsaKind::ExtAcc4, "mc_ext.s", 4},
        {IsaKind::LoadStore4, "mc_ls.s", 4},
    };
    for (const CoreFixture &c : cores) {
        std::unique_ptr<Netlist> nl;
        switch (c.isa) {
          case IsaKind::FlexiCore4: nl = buildFlexiCore4Netlist(); break;
          case IsaKind::FlexiCore8: nl = buildFlexiCore8Netlist(); break;
          case IsaKind::ExtAcc4: nl = buildExtAcc4Netlist(); break;
          case IsaKind::LoadStore4: nl = buildLoadStore4Netlist(); break;
        }
        Program prog = assemble(c.isa, fixtureSource(c.program));
        McModel model;
        model.program = &prog;
        for (const char *spec : {"watchdog", "mmu-page"}) {
            McProperty p;
            ASSERT_TRUE(parsePropertySpec(spec, p));
            ASSERT_TRUE(validateProperty(*nl, model, p).empty())
                << nl->name() << " " << spec;
            McResult r = checkInduction(*nl, model, p, c.maxK);
            EXPECT_EQ(r.status, McStatus::Proved)
                << nl->name() << " " << spec << ": " << r.detail;
            EXPECT_GE(r.depth, 1u);
            EXPECT_LE(r.depth, c.maxK);
        }
    }
}

TEST(Induction, BaseCaseFailurePassesTheTraceThrough)
{
    // On the escape fixture the induction step may well close, but
    // the BMC base case must catch the real violation and return it
    // as Falsified, trace included.
    auto nl = buildFlexiCore4Netlist();
    Program prog =
        assemble(IsaKind::FlexiCore4, fixtureSource("mc_escape.s"));
    McModel model;
    model.program = &prog;
    McProperty p;
    ASSERT_TRUE(parsePropertySpec("mmu-page", p));
    ASSERT_TRUE(validateProperty(*nl, model, p).empty());
    McResult r = checkInduction(*nl, model, p, 6);
    ASSERT_EQ(r.status, McStatus::Falsified) << r.detail;
    EXPECT_TRUE(replayMcTrace(*nl, p, r.trace, nullptr));
}

// ---------------------------------------------------------------
// Sequential reset coverage (the xfree refinement).

TEST(SeqResetCoverage, SeparatesSelfInitializingFromHoldingState)
{
    // dff_a reloads from an input every cycle: covered after one
    // cycle regardless of power-on. dff_b holds itself forever:
    // never covered. The ternary rule cannot tell these apart when
    // inits are unknown; the two-copy sequential check can.
    Netlist nl("t");
    NetId in = nl.addInput("in");
    NetId qa = nl.addDff(in, "m");
    NetId qb = nl.addDff(in, "m");
    nl.setDffInput(qb, qb);
    Builder b(nl, "m");
    nl.addOutput("y", b.nand2(qa, qb));
    nl.elaborate();

    McModel model;
    SeqResetCoverageResult cov = seqResetCoverage(nl, model, 2);
    EXPECT_FALSE(cov.ok);
    ASSERT_EQ(cov.covered.size(), 2u);
    EXPECT_TRUE(cov.covered[0]);
    EXPECT_FALSE(cov.covered[1]);
}

/**
 * The oracle: one solve per state bit over the two-copy unrolling,
 * hardening each covered bit, with no sampled witnesses.
 */
std::vector<uint8_t>
perBitCoverage(const Netlist &nl, const McModel &model, unsigned depth)
{
    SatSolver solver;
    CnfBuilder cnf(solver);
    Unrolling a(cnf, nl, model);
    Unrolling b(cnf, nl, model);
    a.ensureFrames(depth + 1);
    b.ensureFrames(depth + 1);
    std::vector<uint8_t> own(nl.numNets(), 0);
    if (model.program) {
        IsaKind isa = model.program->isa();
        bool wide = isa == IsaKind::ExtAcc4 ||
                    isa == IsaKind::LoadStore4;
        for (NetId n :
             resolvePadBus(nl, "instr", wide ? 16 : 8, true))
            own[n] = 1;
    }
    for (unsigned t = 0; t <= depth; ++t)
        for (const auto &in : nl.primaryInputs())
            if (!own[in.second])
                cnf.bindEqual(a.netLit(t, in.second),
                              b.netLit(t, in.second));
    std::vector<uint8_t> covered(nl.dffs().size(), 0);
    for (size_t i = 0; i < covered.size(); ++i) {
        SatLit ne = cnf.mkXor(a.stateLit(depth, i),
                              b.stateLit(depth, i));
        if (solver.solve({ne}) == SatSolver::Result::Unsat) {
            covered[i] = 1;
            cnf.assertLit(~ne);
        }
    }
    return covered;
}

TEST(SeqResetCoverage, CoveredBitsAfterUncoveredOnesStayCovered)
{
    // Uncovered DFFs come first, then two that reload from the
    // inputs, then one that mixes a held bit in. `rare` keeps its
    // power-on value only while eight inputs are all 1, so sampled
    // models almost never separate its copies: it takes a per-bit
    // solve, whose Sat model may mark only the later bits it
    // separates, never the covered ones.
    Netlist nl("t");
    std::vector<NetId> in;
    for (int i = 0; i < 8; ++i)
        in.push_back(nl.addInput("in" + std::to_string(i)));
    NetId rare = nl.addDff(in[0], "m");
    NetId h0 = nl.addDff(in[0], "m");
    NetId h1 = nl.addDff(in[0], "m");
    NetId c0 = nl.addDff(in[0], "m");
    NetId c1 = nl.addDff(in[0], "m");
    NetId u = nl.addDff(in[0], "m");
    Builder b(nl, "m");
    NetId all = rare;
    for (NetId i : in)
        all = b.and2(all, i);
    nl.setDffInput(rare, all);
    nl.setDffInput(h0, h0);
    nl.setDffInput(h1, b.inv(h1));
    nl.setDffInput(c1, b.nand2(c0, in[1]));
    nl.setDffInput(u, b.xor2(h0, in[0]));
    nl.addOutput("y", b.nand2(b.nand2(h1, c1), b.nand2(u, rare)));
    nl.elaborate();

    McModel model;
    for (unsigned depth : {1u, 2u, 4u}) {
        SeqResetCoverageResult cov = seqResetCoverage(nl, model, depth);
        std::vector<uint8_t> want = {0, 0, 0, 1, depth >= 2, 0};
        EXPECT_EQ(cov.covered, want) << "depth " << depth;
        EXPECT_EQ(cov.covered, perBitCoverage(nl, model, depth))
            << "depth " << depth;
        EXPECT_FALSE(cov.ok);
    }
}

std::unique_ptr<Netlist>
buildCoreByIndex(int which)
{
    switch (which) {
      case 0: return buildFlexiCore4Netlist();
      case 1: return buildFlexiCore8Netlist();
      case 2: return buildExtAcc4Netlist();
      default: return buildLoadStore4Netlist();
    }
}

constexpr IsaKind kCoreKinds[4] = {IsaKind::FlexiCore4,
                                   IsaKind::FlexiCore8,
                                   IsaKind::ExtAcc4,
                                   IsaKind::LoadStore4};

/** The core's single-page kernels (page 0 is all the model closes). */
std::vector<Program>
singlePageKernels(IsaKind isa)
{
    std::vector<std::string> sources;
    if (isa == IsaKind::FlexiCore8) {
        for (size_t i = 0; i < kNumFc8Programs; ++i)
            sources.push_back(
                fc8ProgramSource(static_cast<Fc8Program>(i)));
    } else {
        for (KernelId id : allKernels())
            sources.push_back(kernelSource(id, isa));
    }
    std::vector<Program> progs;
    for (const std::string &src : sources) {
        Program p = assemble(isa, src);
        if (p.numPages() == 1)
            progs.push_back(std::move(p));
    }
    return progs;
}

class XFreeWitness : public ::testing::TestWithParam<int>
{
};

TEST_P(XFreeWitness, CoverageEqualsPerBitLoop)
{
    auto nl = buildCoreByIndex(GetParam());
    IsaKind isa = kCoreKinds[GetParam()];
    std::vector<Program> kernels = singlePageKernels(isa);
    ASSERT_FALSE(kernels.empty());

    std::vector<std::pair<std::string, McModel>> models;
    for (size_t k = 0; k < kernels.size(); ++k) {
        McModel m;
        m.program = &kernels[k];
        models.emplace_back("kernel " + std::to_string(k), m);
    }
    models.emplace_back("no program", McModel{});
    // Tied pads are root-fixed primaries the sampler must skip.
    McModel tied;
    tied.ties = {{"iport0", true}, {"instr0", false}};
    models.emplace_back("tied", tied);

    size_t separable = 0;
    for (const auto &[what, model] : models) {
        for (unsigned depth : {1u, 2u, 4u}) {
            SeqResetCoverageResult cov =
                seqResetCoverage(*nl, model, depth);
            std::vector<uint8_t> want =
                perBitCoverage(*nl, model, depth);
            EXPECT_EQ(cov.covered, want)
                << nl->name() << " " << what << " depth " << depth;
            for (uint8_t c : want)
                separable += !c;
            // Witnesses spare most per-bit solves: four samples and a
            // handful of solves, against one solve per bit.
            EXPECT_LT(cov.solves, want.size() / 2)
                << nl->name() << " " << what << " depth " << depth;
        }
    }
    EXPECT_GT(separable, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCores, XFreeWitness,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------
// The lint layer.

TEST(McLint, ProvedCatalogRendersNotes)
{
    auto nl = buildFlexiCore4Netlist();
    Program prog =
        assemble(IsaKind::FlexiCore4, fixtureSource("mc_fc4.s"));
    McLintOptions opts;
    opts.inductDepth = 4;
    opts.props = {"watchdog", "mmu-page"};
    opts.model.program = &prog;
    McLintOutcome out = mcLint(*nl, opts);
    EXPECT_TRUE(out.report.clean());
    EXPECT_TRUE(out.report.fires("prop-proved"));
    EXPECT_FALSE(out.report.fires("prop-cex"));
    EXPECT_TRUE(out.traces.empty());
}

TEST(McLint, CounterexampleIsAnErrorWithTrace)
{
    auto nl = buildFlexiCore4Netlist();
    Program prog =
        assemble(IsaKind::FlexiCore4, fixtureSource("mc_escape.s"));
    McLintOptions opts;
    opts.bmcDepth = 8;
    opts.props = {"mmu-page"};
    opts.model.program = &prog;
    McLintOutcome out = mcLint(*nl, opts);
    EXPECT_FALSE(out.report.clean());
    EXPECT_TRUE(out.report.fires("prop-cex"));
    EXPECT_FALSE(out.report.fires("prop-replay-diverged"));
    ASSERT_EQ(out.traces.size(), 1u);
    EXPECT_GE(out.traces[0].frames.size(), 3u);
}

TEST(McLint, ReportsRepeatableSolverEffort)
{
    auto nl = buildLoadStore4Netlist();
    Program prog =
        assemble(IsaKind::LoadStore4, fixtureSource("mc_ls.s"));
    McLintOptions opts;
    opts.inductDepth = 4;
    opts.model.program = &prog;   // the default catalog, xfree included
    McLintOutcome first = mcLint(*nl, opts);
    McLintOutcome second = mcLint(*nl, opts);
    EXPECT_GT(first.solves, 0u);
    EXPECT_GT(first.conflicts, 0u);
    EXPECT_EQ(first.solves, second.solves);
    EXPECT_EQ(first.conflicts, second.conflicts);

    SeqResetCoverageResult a = seqResetCoverage(*nl, opts.model, 4);
    SeqResetCoverageResult b = seqResetCoverage(*nl, opts.model, 4);
    EXPECT_GT(a.solves, 0u);
    EXPECT_GT(a.conflicts, 0u);
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.covered, b.covered);
    // The outcome's totals include the xfree pass.
    EXPECT_GE(first.solves, a.solves);
    EXPECT_GE(first.conflicts, a.conflicts);
}

TEST(McLint, InvalidSpecIsReportedNotFatal)
{
    auto nl = buildFlexiCore4Netlist();
    McLintOptions opts;
    opts.bmcDepth = 2;
    opts.props = {"assert:no_such_net=1"};
    McLintOutcome out = mcLint(*nl, opts);
    EXPECT_FALSE(out.report.clean());
    EXPECT_TRUE(out.report.fires("prop-invalid"));
}

// ---------------------------------------------------------------
// The certified sequential prune.

/**
 * A netlist the ternary engine can do nothing with, but seqPrune
 * folds: a DFF fed by NAND(x, ~x) (combinationally constant 1 but
 * ternary-X), and a register pair whose D cones read their *own* Qs
 * (equal in every reachable state, never combinationally equal).
 */
std::unique_ptr<Netlist>
buildSeqRedundantFixture()
{
    auto nl = std::make_unique<Netlist>("seqfix");
    Builder b(*nl, "m");
    NetId x = nl->addInput("x");
    NetId in = nl->addInput("in");

    NetId always1 = b.nand2(x, b.inv(x));
    NetId qc = nl->addDff(always1, "m", true);

    NetId q1 = nl->addDff(nl->zero(), "m");
    NetId q2 = nl->addDff(nl->zero(), "m");
    nl->setDffInput(q1, b.nand2(in, q1));
    nl->setDffInput(q2, b.nand2(in, q2));

    nl->addOutput("y", b.nand2(qc, b.nand2(q1, q2)));
    nl->elaborate();
    return nl;
}

TEST(SeqPrune, FoldsConstAndPairStateTheTernaryEngineCannot)
{
    auto nl = buildSeqRedundantFixture();
    SeqPruneResult sp = seqPrune(*nl);
    ASSERT_TRUE(sp.ok) << sp.detail;
    EXPECT_TRUE(sp.certified) << sp.certification.detail;

    // The constant DFF folds to a rail, one pair half is deleted.
    EXPECT_GE(sp.seq.constDffs + sp.seq.pairDffs, 2u);
    EXPECT_LT(sp.stats.dffsAfter, sp.stats.dffsBefore);
    // Strictly beyond what ternary pruning alone managed.
    EXPECT_LT(sp.stats.cellsAfter, sp.baseline.cellsAfter);

    // The survivor still computes the same function.
    ASSERT_NE(sp.netlist, nullptr);
    EXPECT_TRUE(sp.netlist->elaborated());
}

TEST(SeqPrune, StrictlyImprovesShippedCoresCertified)
{
    // The acceptance bar: on at least two shipped cores the
    // sequential stage must beat the PR-6 ternary baseline, with
    // every removal SAT-certified.
    for (auto build :
         {buildFlexiCore4Netlist, buildFlexiCore8Netlist}) {
        auto nl = build();
        SeqPruneResult sp = seqPrune(*nl);
        ASSERT_TRUE(sp.ok) << nl->name() << ": " << sp.detail;
        EXPECT_TRUE(sp.certified)
            << nl->name() << ": " << sp.certification.detail;
        EXPECT_LT(sp.stats.cellsAfter, sp.baseline.cellsAfter)
            << nl->name();
        EXPECT_GT(sp.stats.nand2AreaSaved(),
                  sp.baseline.nand2AreaSaved())
            << nl->name();
        EXPECT_GT(sp.seq.mergedNets, 0u) << nl->name();
    }
}

TEST(SeqPrune, TamperedInvariantsFailCertification)
{
    auto nl = buildSeqRedundantFixture();
    SeqPruneResult sp = seqPrune(*nl);
    ASSERT_TRUE(sp.ok) << sp.detail;
    ASSERT_TRUE(sp.certified);
    ASSERT_FALSE(sp.invariants.pairs.empty());

    // The untampered arguments re-certify standalone.
    EquivResult good =
        certifySeqPrune(*nl, *sp.netlist, sp.invariants, sp.dffMap,
                        sp.netMap, sp.netInv);
    EXPECT_TRUE(good.proven) << good.detail;

    // Claiming a register constant when it can change must be
    // refuted by the induction-step proof: the pair keeper reloads
    // from NAND(in, q), which leaves 0 the moment `in` drops.
    SeqInvariants overclaim = sp.invariants;
    size_t keeper = sp.invariants.pairs[0].keep;
    overclaim.consts.push_back({keeper, nl->dffs()[keeper].init});
    EquivResult step =
        certifySeqPrune(*nl, *sp.netlist, overclaim, sp.dffMap,
                        sp.netMap, sp.netInv);
    EXPECT_FALSE(step.proven);

    // A pair claimed with the wrong polarity already contradicts
    // the power-on values: the base case must refuse it.
    SeqInvariants flipped = sp.invariants;
    flipped.pairs[0].inverted = !flipped.pairs[0].inverted;
    EquivResult base =
        certifySeqPrune(*nl, *sp.netlist, flipped, sp.dffMap,
                        sp.netMap, sp.netInv);
    EXPECT_FALSE(base.proven);
    EXPECT_FALSE(base.detail.empty());
}

} // namespace
} // namespace flexi
