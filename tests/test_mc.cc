/**
 * @file
 * Sequential model-checker tests: the property spec language, BMC
 * falsification with replayable multi-cycle counterexamples
 * (replayed through the reference interpreter), k-induction proofs
 * of the watchdog and MMU page
 * invariants on all four shipped cores, the sequential reset-
 * coverage refinement, and the certified sequential prune with its
 * inverted-pair fold and tamper checks.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/mc/bmc.hh"
#include "analysis/mc/mc_lint.hh"
#include "analysis/mc/property.hh"
#include "analysis/mc/seq_prune.hh"
#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
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

/** xfree's two-copy unrolling: each copy fetches its own instr bus,
 *  every other input is shared frame by frame. */
struct TwoCopy
{
    SatSolver solver;
    CnfBuilder cnf{solver};
    Unrolling a, b;

    TwoCopy(const Netlist &nl, const McModel &model, unsigned depth)
        : a(cnf, nl, model), b(cnf, nl, model)
    {
        a.ensureFrames(depth + 1);
        b.ensureFrames(depth + 1);
        std::vector<uint8_t> own(nl.numNets(), 0);
        for (NetId n : resolveModel(nl, model).instr)
            own[n] = 1;
        for (unsigned t = 0; t <= depth; ++t)
            for (const auto &in : nl.primaryInputs())
                if (!own[in.second])
                    cnf.bindEqual(a.netLit(t, in.second),
                                  b.netLit(t, in.second));
    }
};

std::string
panicMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(SeqResetCoverage, SimulatedWitnessIsACnfModel)
{
    // A live witness pair is a concrete run of the compiled engine:
    // its frame-0 states and shared inputs, assumed in the two-copy
    // unrolling, must be satisfiable, and both copies must reach the
    // simulated depth-d states.
    constexpr unsigned kDepth = 4;
    constexpr unsigned kPairsChecked = 6;
    constexpr unsigned kB = XFreeWitnessRuns::kPairs;
    for (int c = 0; c < 4; ++c) {
        auto nl = buildCoreByIndex(c);
        std::vector<Program> kernels = singlePageKernels(kCoreKinds[c]);
        ASSERT_FALSE(kernels.empty());
        McModel program;
        program.program = &kernels.front();
        McModel tied;
        tied.ties = {{"iport0", true}, {"instr0", false}};
        // Under the ROM closure a tie on an instr pad holds only for
        // the pairs whose fetches agree with it; the rest must die.
        McModel programTied = program;
        programTied.ties = {{"instr0", false}};
        const std::pair<const char *, McModel> models[] = {
            {"program", program},
            {"no program", McModel{}},
            {"tied", tied},
            {"program, instr0 tied", programTied},
        };
        for (const auto &[what, model] : models) {
            SCOPED_TRACE(nl->name() + " " + what);
            XFreeWitnessRuns runs =
                simulateXFreeWitnesses(*nl, model, kDepth);
            size_t live = 0;
            for (uint8_t l : runs.live)
                live += l;
            ASSERT_GT(live, 0u);
            if (model.program && !model.ties.empty()) {
                EXPECT_LT(live, kB);
                // The dead pairs stay out of the coverage verdict.
                EXPECT_EQ(seqResetCoverage(*nl, model, kDepth).covered,
                          perBitCoverage(*nl, model, kDepth));
            } else {
                EXPECT_EQ(live, kB);
            }

            TwoCopy two(*nl, model, kDepth);
            auto stateBit = [&](const std::vector<uint64_t> &packed,
                                unsigned lane, size_t i) {
                return (packed[lane * runs.stateWords + i / 64] >>
                        (i % 64)) & 1;
            };
            size_t ndff = nl->dffs().size();
            unsigned checked = 0;
            for (unsigned p = 0; p < kB && checked < kPairsChecked;
                 ++p) {
                if (!runs.live[p])
                    continue;
                ++checked;
                std::vector<SatLit> assume;
                for (size_t i = 0; i < ndff; ++i) {
                    SatLit qa = two.a.stateLit(0, i);
                    SatLit qb = two.b.stateLit(0, i);
                    assume.push_back(stateBit(runs.init, p, i) ? qa : ~qa);
                    assume.push_back(stateBit(runs.init, p + kB, i) ? qb
                                                                 : ~qb);
                }
                ASSERT_EQ(runs.inputs.size(), kDepth + 1);
                for (unsigned t = 0; t <= kDepth; ++t)
                    for (const auto &[net, words] : runs.inputs[t]) {
                        // Both copies of a pair read the same value.
                        bool va = (words[p / 64] >> (p % 64)) & 1;
                        bool vb =
                            (words[(p + kB) / 64] >> ((p + kB) % 64)) & 1;
                        EXPECT_EQ(va, vb);
                        SatLit l = two.a.netLit(t, net);
                        assume.push_back(va ? l : ~l);
                    }
                ASSERT_EQ(two.solver.solve(assume),
                          SatSolver::Result::Sat)
                    << "pair " << p;
                for (size_t i = 0; i < ndff; ++i) {
                    EXPECT_EQ(two.solver.modelValue(
                                  two.a.stateLit(kDepth, i)),
                              stateBit(runs.final, p, i) != 0)
                        << "pair " << p << " dff " << i;
                    EXPECT_EQ(two.solver.modelValue(
                                  two.b.stateLit(kDepth, i)),
                              stateBit(runs.final, p + kB, i) != 0)
                        << "pair " << p << " dff " << i;
                }
            }
            EXPECT_EQ(checked, std::min<size_t>(live, kPairsChecked));
        }
    }

    // Fail closed as the unrolling always has, even where simulation
    // separates every bit and no CNF would be built.
    auto ls = buildLoadStore4Netlist();
    Program prog =
        assemble(IsaKind::LoadStore4, fixtureSource("mc_ls.s"));
    McModel badTie;
    badTie.program = &prog;
    badTie.ties = {{"no_such_pad", true}};
    EXPECT_NE(panicMessage([&] { seqResetCoverage(*ls, badTie, 4); })
                  .find("tie names unknown input 'no_such_pad'"),
              std::string::npos);
    Netlist bare("bare");
    NetId in = bare.addInput("in");
    NetId q = bare.addDff(in, "m");
    bare.addOutput("y", q);
    bare.elaborate();
    McModel closed;
    closed.program = &prog;
    EXPECT_NE(panicMessage([&] { seqResetCoverage(bare, closed, 4); })
                  .find("lacks the pc/instr pad buses"),
              std::string::npos);
}

// ---------------------------------------------------------------
// The incremental session against a fresh build per question.

/** The oracle BMC: one fresh power-on unrolling, each clean step
 *  hardened. */
McResult
freshBmc(const Netlist &nl, const McModel &model, const McProperty &p,
         unsigned depth)
{
    McResult r;
    SatSolver solver;
    CnfBuilder cnf(solver);
    Unrolling u(cnf, nl, model);
    u.addFrame();
    u.assertInit();
    unsigned w = p.window();
    for (unsigned t = 0; t <= depth; ++t) {
        u.ensureFrames(t + w);
        SatLit pt = propertyLit(cnf, u, p, t);
        if (solver.solve({~pt}) == SatSolver::Result::Sat) {
            r.status = McStatus::Falsified;
            r.depth = t;
            r.detail = strfmt("'%s' violated %u cycle%s after "
                              "power-on",
                              p.spec.c_str(), t, t == 1 ? "" : "s");
            return r;
        }
        cnf.assertLit(pt);
    }
    r.status = McStatus::Clean;
    r.depth = depth;
    r.detail = strfmt("'%s' holds for %u cycles after power-on",
                      p.spec.c_str(), depth);
    return r;
}

/** The oracle k-induction: a fresh solver and free-initial-state
 *  unrolling for every k's step case, freshBmc() for the base. */
McResult
freshInduction(const Netlist &nl, const McModel &model,
               const McProperty &p, unsigned maxK, bool simplePath)
{
    McResult r;
    unsigned w = p.window();
    for (unsigned k = 1; k <= maxK; ++k) {
        SatSolver solver;
        CnfBuilder cnf(solver);
        Unrolling u(cnf, nl, model);
        u.ensureFrames(k + w);
        for (unsigned t = 0; t < k; ++t)
            cnf.assertLit(propertyLit(cnf, u, p, t));
        if (simplePath)
            u.assertSimplePath();
        SatLit pk = propertyLit(cnf, u, p, k);
        if (solver.solve({~pk}) != SatSolver::Result::Unsat)
            continue;
        McResult base = freshBmc(nl, model, p, k - 1);
        if (base.status == McStatus::Falsified)
            return base;
        r.status = McStatus::Proved;
        r.depth = k;
        r.detail = strfmt("'%s' proved by %u-induction%s",
                          p.spec.c_str(), k,
                          simplePath ? " (simple-path)" : "");
        return r;
    }
    r.status = McStatus::Unknown;
    r.depth = maxK;
    r.detail = strfmt("'%s': induction did not close within k=%u",
                      p.spec.c_str(), maxK);
    return r;
}

/**
 * A 2-bit counter (four states) beside a tied pad. Simple-path runs
 * longer than four frames do not exist, so a session that let an
 * earlier, longer question's pairs or a later frame's tie leak into a
 * shorter one would close proofs a fresh build cannot.
 */
std::unique_ptr<Netlist>
buildCounterFixture()
{
    auto nl = std::make_unique<Netlist>("counter");
    Builder b(*nl, "m");
    NetId hold = nl->addInput("hold");
    NetId c0 = nl->addDff(nl->zero(), "m");
    NetId c1 = nl->addDff(nl->zero(), "m");
    nl->setDffInput(c0, b.inv(c0));
    nl->setDffInput(c1, b.xor2(c1, c0));
    nl->addOutput("cnt0", c0);
    nl->addOutput("cnt1", c1);
    nl->addOutput("h", b.inv(b.inv(hold)));
    nl->elaborate();
    return nl;
}

/** One (netlist, model) pair and the questions asked of it. */
struct SessionCase
{
    std::string name;
    const Netlist *nl;
    McModel model;
    std::vector<std::string> specs;
};

TEST(Induction, IncrementalMatchesFreshBuild)
{
    // One session per (case, simple-path) answers every property at
    // every maxK, as mcLint's catalog does, so each question runs on
    // the frames, pairs and learned clauses the earlier ones left
    // behind. An Unknown falls back to BMC on the same session.
    // Every answer must be the fresh build's.
    constexpr unsigned kBmcDepth = 8;
    std::vector<std::unique_ptr<Netlist>> cores;
    std::vector<std::vector<Program>> programs;
    std::vector<SessionCase> cases;
    for (int c = 0; c < 4; ++c) {
        cores.push_back(buildCoreByIndex(c));
        programs.push_back(singlePageKernels(kCoreKinds[c]));
        if (c == 0)   // a base case that fails, trace and all
            programs.back().push_back(assemble(
                IsaKind::FlexiCore4, fixtureSource("mc_escape.s")));
    }
    for (int c = 0; c < 4; ++c)
        for (size_t k = 0; k < programs[c].size(); ++k) {
            McModel model;
            model.program = &programs[c][k];
            cases.push_back({strfmt("%s program %zu",
                                    cores[c]->name().c_str(), k),
                             cores[c].get(), model,
                             {"watchdog", "mmu-page", "bound:pc/7/2"}});
        }
    auto counter = buildCounterFixture();
    McModel tiedHold;
    tiedHold.ties = {{"hold", true}};
    cases.push_back({"counter", counter.get(), tiedHold,
                     {"bound:cnt/2/3", "bound:cnt/2/2",
                      "assert:h=1"}});

    size_t proved = 0, falsified = 0, unknown = 0;
    for (const SessionCase &c : cases) {
        std::vector<McProperty> props;
        for (const std::string &spec : c.specs) {
            McProperty p;
            ASSERT_TRUE(parsePropertySpec(spec, p));
            ASSERT_TRUE(validateProperty(*c.nl, c.model, p).empty());
            props.push_back(p);
        }
        for (bool sp : {true, false}) {
            McSession session(*c.nl, c.model, sp);
            for (unsigned maxK = 1; maxK <= 4; ++maxK) {
                for (const McProperty &p : props) {
                    SCOPED_TRACE(strfmt("%s %s maxK %u%s",
                                        c.name.c_str(), p.spec.c_str(),
                                        maxK,
                                        sp ? " simple-path" : ""));
                    McResult got = session.induction(p, maxK);
                    McResult want =
                        freshInduction(*c.nl, c.model, p, maxK, sp);
                    if (got.status == McStatus::Unknown &&
                        want.status == McStatus::Unknown) {
                        ++unknown;
                        got = session.bmc(p, kBmcDepth);
                        want = freshBmc(*c.nl, c.model, p, kBmcDepth);
                    }
                    EXPECT_EQ(got.status, want.status);
                    EXPECT_EQ(got.depth, want.depth);
                    EXPECT_EQ(got.detail, want.detail);
                    proved += got.status == McStatus::Proved;
                    if (got.status != McStatus::Falsified)
                        continue;
                    ++falsified;
                    EXPECT_EQ(got.trace.violationStep, got.depth);
                    EXPECT_EQ(got.trace.frames.size(),
                              got.depth + p.window());
                    std::string what;
                    EXPECT_TRUE(
                        replayMcTrace(*c.nl, p, got.trace, &what))
                        << what;
                }
            }
        }
    }
    EXPECT_GT(proved, 0u);
    EXPECT_GT(falsified, 0u);
    EXPECT_GT(unknown, 0u);
}

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

    // Simulated pairs separate all 47 of LoadStore4's state bits, so
    // its xfree pass builds no CNF and solves nothing.
    SeqResetCoverageResult ls = seqResetCoverage(*nl, opts.model, 4);
    EXPECT_EQ(ls.solves, 0u);
    EXPECT_EQ(ls.conflicts, 0u);
    EXPECT_EQ(ls.covered, std::vector<uint8_t>(47, 0));

    // FlexiCore8's Parity program has one covered bit, and covering
    // it takes a solve and a search: that effort must repeat too.
    auto fc8 = buildFlexiCore8Netlist();
    Program parity = assemble(
        IsaKind::FlexiCore8, fc8ProgramSource(Fc8Program::Parity));
    McLintOptions fopts;
    fopts.inductDepth = 4;
    fopts.model.program = &parity;
    SeqResetCoverageResult a = seqResetCoverage(*fc8, fopts.model, 4);
    SeqResetCoverageResult b = seqResetCoverage(*fc8, fopts.model, 4);
    EXPECT_GT(a.solves, 0u);
    EXPECT_GT(a.conflicts, 0u);
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.conflicts, b.conflicts);
    EXPECT_EQ(a.covered, b.covered);
    // The outcome's totals include the xfree pass.
    McLintOutcome f1 = mcLint(*fc8, fopts);
    McLintOutcome f2 = mcLint(*fc8, fopts);
    EXPECT_EQ(f1.solves, f2.solves);
    EXPECT_EQ(f1.conflicts, f2.conflicts);
    EXPECT_GE(f1.solves, a.solves);
    EXPECT_GE(f1.conflicts, a.conflicts);
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
        certifyRewrite(*nl, *sp.netlist, sp.invariants, sp.dffMap,
                       sp.netMap);
    EXPECT_TRUE(good.proven) << good.detail;

    // Claiming a register constant when it can change must be
    // refuted by the induction-step proof: the pair keeper reloads
    // from NAND(in, q), which leaves 0 the moment `in` drops.
    SeqInvariants overclaim = sp.invariants;
    size_t keeper = sp.invariants.pairs[0].keep;
    overclaim.consts.push_back({keeper, nl->dffs()[keeper].init});
    EquivResult step =
        certifyRewrite(*nl, *sp.netlist, overclaim, sp.dffMap,
                       sp.netMap);
    EXPECT_FALSE(step.proven);

    // A pair claimed with the wrong polarity already contradicts
    // the power-on values: the base case must refuse it.
    SeqInvariants flipped = sp.invariants;
    flipped.pairs[0].inverted = !flipped.pairs[0].inverted;
    EquivResult base =
        certifyRewrite(*nl, *sp.netlist, flipped, sp.dffMap,
                       sp.netMap);
    EXPECT_FALSE(base.proven);
    EXPECT_FALSE(base.detail.empty());
}

/**
 * A constant-0 DFF fed by AND(x, ~x), and a register pair with
 * q2 == ~q1 in every reachable state: q1 reloads NAND(in, q1) from 0
 * and q2 reloads AND(in, ~q2) from 1. Output b reads q2, so once q2
 * is folded onto q1 it must read q1 through an INV_X1.
 */
std::unique_ptr<Netlist>
buildInvertedPairFixture()
{
    auto nl = std::make_unique<Netlist>("invpair");
    Builder b(*nl, "m");
    NetId x = nl->addInput("x");
    NetId in = nl->addInput("in");
    NetId qc = nl->addDff(b.and2(x, b.inv(x)), "m", false);
    NetId q1 = nl->addDff(nl->zero(), "m", false);
    NetId q2 = nl->addDff(nl->zero(), "m", true);
    nl->setDffInput(q1, b.nand2(in, q1));
    nl->setDffInput(q2, b.and2(in, b.inv(q2)));
    nl->addOutput("a", q1);
    nl->addOutput("b", b.nand2(q2, in));
    nl->addOutput("c", b.nand2(qc, in));
    nl->elaborate();
    return nl;
}

TEST(SeqPrune, FoldsAnInvertedRegisterPair)
{
    auto nl = buildInvertedPairFixture();
    SeqPruneResult sp = seqPrune(*nl);
    ASSERT_TRUE(sp.ok) << sp.detail;
    EXPECT_TRUE(sp.certified) << sp.certification.detail;
    ASSERT_EQ(sp.invariants.consts.size(), 1u);
    EXPECT_FALSE(sp.invariants.consts[0].value);
    ASSERT_EQ(sp.invariants.pairs.size(), 1u);
    EXPECT_TRUE(sp.invariants.pairs[0].inverted);
    EXPECT_EQ(sp.seq.constDffs, 1u);
    EXPECT_EQ(sp.seq.pairDffs, 1u);
    ASSERT_EQ(sp.stats.dffsAfter, 1u);

    // The folded half is read through an INV_X1 off the survivor.
    NetId q = sp.netlist->dffs()[0].q;
    bool inverted_read = false;
    for (const CellInst &cell : sp.netlist->cells())
        if (cell.type == CellType::INV_X1 && cell.inputs[0] == q)
            inverted_read = true;
    EXPECT_TRUE(inverted_read);

    // Both netlists agree on every output from power-on.
    auto orig = nl->clone();
    auto folded = sp.netlist->clone();
    orig->reset();
    folded->reset();
    Rng rng(7);
    for (int cycle = 0; cycle < 64; ++cycle) {
        for (const char *pad : {"x", "in"}) {
            bool v = rng.chance(0.5);
            orig->setInput(pad, v);
            folded->setInput(pad, v);
        }
        orig->evaluate();
        folded->evaluate();
        for (const char *out : {"a", "b", "c"})
            ASSERT_EQ(folded->output(out), orig->output(out))
                << out << " at cycle " << cycle;
        orig->clockEdge();
        folded->clockEdge();
    }
}

TEST(SeqPrune, TamperedMergeYieldsReplayableCounterexample)
{
    // A rebuild that aliases a live net to a net it does not equal
    // must be refuted, and the counterexample must reproduce in
    // plain simulation.
    auto nl = buildSeqRedundantFixture();
    RewritePlan plan(*nl);
    plan.alias[nl->primaryOutputs().at("y")] = nl->dffs()[1].q;
    std::vector<size_t> dff_map;
    std::vector<NetId> net_map;
    std::string err;
    auto tampered =
        rebuild(*nl, plan, "tampered", dff_map, net_map, err);
    ASSERT_NE(tampered, nullptr) << err;

    EquivResult res =
        certifyRewrite(*nl, *tampered, {}, dff_map, net_map);
    EXPECT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex);

    std::string what;
    EXPECT_TRUE(replayPruneCex(*nl, *tampered, dff_map, res.cex, &what));
    EXPECT_NE(what.find("y"), std::string::npos) << what;
}

} // namespace
} // namespace flexi
