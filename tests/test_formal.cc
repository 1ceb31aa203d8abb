/**
 * @file
 * Formal engine tests: the CDCL SAT solver (unit + differential
 * against brute force), the plan-vs-reference equivalence sweep on
 * all four cores, counterexample extraction on a deliberately broken
 * netlist (replayed in simulation to prove the cex is real), the
 * clone/fault identity checks, the per-instruction ISA proofs, the
 * model sampler and the ISA sweep it guides (differentially against
 * the unswept per-class loop, on clean and seeded stuck-at dies),
 * the checkers run concurrently, and the search pin (the solver's
 * effort and models on scripted incremental workloads, and the
 * checkers' solve and conflict counts).
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/cnf_encoder.hh"
#include "analysis/equiv.hh"
#include "analysis/isa_spec.hh"
#include "analysis/mc/mc_lint.hh"
#include "analysis/sat.hh"
#include "assembler/assembler.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/netlist.hh"
#include "tech/cell_library.hh"

namespace flexi
{
namespace
{

using Result = SatSolver::Result;

// ---------------------------------------------------------------
// SAT solver unit tests.

TEST(Sat, TrivialSatAndModel)
{
    SatSolver s;
    SatVar a = s.newVar();
    SatVar b = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a), SatLit::make(b)}));
    ASSERT_TRUE(s.addClause({SatLit::make(a, true)}));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_FALSE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, EmptyClauseIsUnsat)
{
    SatSolver s;
    SatVar a = s.newVar();
    (void)a;
    EXPECT_FALSE(s.addClause({}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, ContradictoryUnitsAreUnsat)
{
    SatSolver s;
    SatVar a = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a)}));
    EXPECT_FALSE(s.addClause({SatLit::make(a, true)}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, PigeonholeThreeIntoTwoIsUnsat)
{
    // 3 pigeons, 2 holes: classic small UNSAT instance that needs
    // real conflict analysis, not just propagation.
    SatSolver s;
    SatLit p[3][2];
    for (auto &pigeon : p)
        for (auto &lit : pigeon)
            lit = SatLit::make(s.newVar());
    for (auto &pigeon : p)
        ASSERT_TRUE(s.addClause({pigeon[0], pigeon[1]}));
    for (int h = 0; h < 2; ++h)
        for (int i = 0; i < 3; ++i)
            for (int j = i + 1; j < 3; ++j)
                ASSERT_TRUE(s.addClause({~p[i][h], ~p[j][h]}));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsDoNotPoisonLaterSolves)
{
    SatSolver s;
    SatVar a = s.newVar();
    SatVar b = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a), SatLit::make(b)}));
    // a=0, b=0 assumed: Unsat under assumptions only.
    EXPECT_EQ(s.solve({SatLit::make(a, true), SatLit::make(b, true)}),
              Result::Unsat);
    // The formula itself is still satisfiable.
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.solve({SatLit::make(a, true)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, ContradictoryAssumptionsRejectedCleanly)
{
    // {a, ~a} in one assumption list is Unsat on its face; the
    // solver must notice when placing the second pseudo-decision
    // and must not mark the formula itself unsatisfiable.
    SatSolver s;
    SatVar a = s.newVar();
    SatVar b = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a), SatLit::make(b)}));
    EXPECT_EQ(s.solve({SatLit::make(a), SatLit::make(a, true)}),
              Result::Unsat);
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.solve({SatLit::make(a)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

/** Pigeonhole instance with every clause guarded by ~sel, so the
 *  contradiction only activates under the `sel` assumption. */
void
addGuardedPigeonhole(SatSolver &s, int pigeons, int holes,
                     SatLit sel)
{
    std::vector<std::vector<SatLit>> p(pigeons);
    for (auto &pigeon : p)
        for (int h = 0; h < holes; ++h)
            pigeon.push_back(SatLit::make(s.newVar()));
    for (auto &pigeon : p) {
        std::vector<SatLit> cl = pigeon;
        cl.push_back(~sel);
        ASSERT_TRUE(s.addClause(cl));
    }
    for (int h = 0; h < holes; ++h)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                ASSERT_TRUE(
                    s.addClause({~p[i][h], ~p[j][h], ~sel}));
}

TEST(Sat, IncrementalAssumptionReuseKeepsLearnedClauses)
{
    // The miter loop solves the same CNF under one activation
    // assumption per query. Clauses learned refuting the first
    // query must carry over: re-solving under the same assumption
    // may not redo the full search.
    SatSolver s;
    SatLit sel = SatLit::make(s.newVar());
    addGuardedPigeonhole(s, 4, 3, sel);

    ASSERT_EQ(s.solve({sel}), Result::Unsat);
    uint64_t first = s.stats().conflicts;
    EXPECT_GT(first, 0u);

    ASSERT_EQ(s.solve({sel}), Result::Unsat);
    uint64_t extra = s.stats().conflicts - first;
    EXPECT_LT(extra, first);

    // Deactivated, the instance is satisfiable — the learned
    // clauses (all implied) must not over-constrain it.
    EXPECT_EQ(s.solve({~sel}), Result::Sat);
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, RestartPathIsExercised)
{
    // A pigeonhole instance big enough to outlive the first Luby
    // budget: the Unsat proof must survive restarts (and the
    // learned clauses that persist across them).
    SatSolver s;
    SatLit p[7][6];
    for (auto &pigeon : p)
        for (auto &lit : pigeon)
            lit = SatLit::make(s.newVar());
    for (auto &pigeon : p) {
        std::vector<SatLit> cl(pigeon, pigeon + 6);
        ASSERT_TRUE(s.addClause(cl));
    }
    for (int h = 0; h < 6; ++h)
        for (int i = 0; i < 7; ++i)
            for (int j = i + 1; j < 7; ++j)
                ASSERT_TRUE(s.addClause({~p[i][h], ~p[j][h]}));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().restarts, 0u);
    EXPECT_GT(s.stats().conflicts, 100u);
}

TEST(Sat, TriviallyTrueCnf)
{
    // No clauses at all: every assignment is a model.
    SatSolver empty;
    empty.newVar();
    EXPECT_EQ(empty.solve(), Result::Sat);

    // Tautologies and root-satisfied clauses are absorbed without
    // being stored; the formula stays equivalent to the remaining
    // unit.
    SatSolver s;
    SatVar x = s.newVar();
    SatVar y = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(x), SatLit::make(x, true)}));
    ASSERT_TRUE(s.addClause({SatLit::make(y)}));
    ASSERT_TRUE(s.addClause({SatLit::make(y), SatLit::make(x)}));
    ASSERT_TRUE(s.addClause({SatLit::make(y), SatLit::make(y)}));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(y));
    EXPECT_EQ(s.solve({SatLit::make(x, true)}), Result::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
}

/** xorshift PRNG so the differential test is reproducible. */
uint32_t
nextRand(uint32_t &state)
{
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
}

TEST(Sat, DifferentialAgainstBruteForce)
{
    // Random 3-CNF instances near the phase transition, checked
    // against exhaustive enumeration: same Sat/Unsat verdict, and
    // every returned model actually satisfies the formula.
    uint32_t rng = 0xf1ec5u;
    for (int iter = 0; iter < 200; ++iter) {
        int num_vars = 4 + static_cast<int>(nextRand(rng) % 7);
        int num_clauses =
            static_cast<int>(nextRand(rng) % (4 * num_vars + 1));
        std::vector<std::vector<SatLit>> clauses;
        for (int c = 0; c < num_clauses; ++c) {
            std::vector<SatLit> cl;
            int width = 1 + static_cast<int>(nextRand(rng) % 3);
            for (int k = 0; k < width; ++k)
                cl.push_back(SatLit::make(
                    static_cast<int>(nextRand(rng) % num_vars),
                    (nextRand(rng) & 1) != 0));
            clauses.push_back(cl);
        }

        bool brute_sat = false;
        for (uint32_t m = 0; m < (1u << num_vars) && !brute_sat;
             ++m) {
            bool ok = true;
            for (const auto &cl : clauses) {
                bool any = false;
                for (SatLit l : cl)
                    any |= ((m >> l.var()) & 1u) !=
                           (l.negated() ? 1u : 0u);
                ok &= any;
            }
            brute_sat = ok;
        }

        SatSolver s;
        for (int v = 0; v < num_vars; ++v)
            s.newVar();
        bool trivially_unsat = false;
        for (auto &cl : clauses)
            trivially_unsat |= !s.addClause(cl);
        Result r = s.solve();
        ASSERT_EQ(r == Result::Sat, brute_sat)
            << "iter " << iter << " vars " << num_vars << " clauses "
            << num_clauses;
        if (trivially_unsat) {
            ASSERT_EQ(r, Result::Unsat);
        }
        if (r == Result::Sat) {
            for (const auto &cl : clauses) {
                bool any = false;
                for (SatLit l : cl)
                    any |= s.modelValue(l);
                ASSERT_TRUE(any) << "model violates a clause";
            }
        }
    }
}

TEST(Sat, IncrementalDifferentialAgainstBruteForce)
{
    // Binary-heavy CNFs over at most 10 variables, each solver asked
    // 8 times under random assumptions with clauses added between
    // solves: the clause store grows while watchers hold offsets
    // into it, and clauses learned in one solve (binary ones too)
    // serve as reasons in the next. Every verdict is checked
    // against enumeration under the assumptions, and every model
    // against every clause and every assumption.
    auto holds = [](uint32_t m, SatLit l) {
        return ((m >> l.var()) & 1u) != (l.negated() ? 1u : 0u);
    };
    uint32_t rng = 0x1dc5a7u;
    uint64_t verdicts[2] = {0, 0};
    uint64_t conflicts = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        int num_vars = 3 + static_cast<int>(nextRand(rng) % 8);
        SatSolver s;
        for (int v = 0; v < num_vars; ++v)
            s.newVar();
        auto randomLit = [&] {
            int v = static_cast<int>(nextRand(rng) % num_vars);
            return SatLit::make(v, (nextRand(rng) & 1) != 0);
        };
        std::vector<std::vector<SatLit>> clauses;
        bool root_unsat = false;
        for (int q = 0; q < 8; ++q) {
            int add = static_cast<int>(nextRand(rng) % 5);
            for (int c = 0; c < add; ++c) {
                uint32_t roll = nextRand(rng) % 20;
                int width = roll < 12 ? 2 : roll < 19 ? 3 : 1;
                std::vector<SatLit> cl;
                for (int k = 0; k < width; ++k)
                    cl.push_back(randomLit());
                root_unsat |= !s.addClause(cl);
                clauses.push_back(cl);
            }
            std::vector<SatLit> assume;
            int nassume = static_cast<int>(nextRand(rng) % 4);
            for (int k = 0; k < nassume; ++k)
                assume.push_back(randomLit());

            bool brute_sat = false;
            for (uint32_t m = 0; m < (1u << num_vars) && !brute_sat;
                 ++m) {
                bool ok = true;
                for (SatLit a : assume)
                    ok &= holds(m, a);
                for (const auto &cl : clauses) {
                    bool any = false;
                    for (SatLit l : cl)
                        any |= holds(m, l);
                    ok &= any;
                }
                brute_sat = ok;
            }

            Result r = s.solve(assume);
            ASSERT_EQ(r == Result::Sat, brute_sat)
                << "iter " << iter << " solve " << q << " vars "
                << num_vars << " clauses " << clauses.size();
            if (root_unsat) {
                ASSERT_EQ(r, Result::Unsat);
            }
            ++verdicts[r == Result::Sat];
            if (r != Result::Sat)
                continue;
            for (SatLit a : assume)
                ASSERT_TRUE(s.modelValue(a)) << "model drops an assumption";
            for (const auto &cl : clauses) {
                bool any = false;
                for (SatLit l : cl)
                    any |= s.modelValue(l);
                ASSERT_TRUE(any) << "model violates a clause";
            }
        }
        conflicts += s.stats().conflicts;
    }
    // Both verdicts are common, and the search really learns.
    EXPECT_GT(verdicts[0], 1000u);
    EXPECT_GT(verdicts[1], 1000u);
    EXPECT_GT(conflicts, 200u);
}

// ---------------------------------------------------------------
// CNF builder sanity.

TEST(CnfBuilder, AdderMatchesArithmetic)
{
    SatSolver s;
    CnfBuilder cnf(s);
    CnfBuilder::Word a = cnf.freshWord(4);
    CnfBuilder::Word b = cnf.freshWord(4);
    SatLit cout;
    CnfBuilder::Word sum = cnf.add(a, b, cnf.constFalse(), &cout);
    for (unsigned x = 0; x < 16; ++x) {
        for (unsigned y = 0; y < 16; ++y) {
            std::vector<SatLit> assume;
            for (unsigned i = 0; i < 4; ++i) {
                assume.push_back(((x >> i) & 1) != 0 ? a[i] : ~a[i]);
                assume.push_back(((y >> i) & 1) != 0 ? b[i] : ~b[i]);
            }
            ASSERT_EQ(s.solve(assume), Result::Sat);
            unsigned got = static_cast<unsigned>(cnf.modelWord(sum)) |
                           (s.modelValue(cout) ? 16u : 0u);
            ASSERT_EQ(got, x + y);
        }
    }
}

// ---------------------------------------------------------------
// Model sampling.

TEST(SampleModels, DrawsDistinctGenuineModels)
{
    // An 8-bit adder is a function of its 16 primaries: every draw
    // is pure propagation, every draw is a model (the sum adds up),
    // and the seeded draws differ from each other.
    SatSolver s;
    CnfBuilder cnf(s);
    CnfBuilder::Word a = cnf.freshWord(8);
    CnfBuilder::Word b = cnf.freshWord(8);
    SatLit cout;
    CnfBuilder::Word sum = cnf.add(a, b, cnf.constFalse(), &cout);
    std::vector<SatLit> primaries = a;
    primaries.insert(primaries.end(), b.begin(), b.end());

    uint64_t solves = 0;
    ModelSamples ms = sampleModels(s, primaries, 64, 7, solves);
    ASSERT_EQ(ms.count, 64u);
    EXPECT_EQ(solves, 64u);
    EXPECT_EQ(s.stats().conflicts, 0u);
    auto value = [&](const CnfBuilder::Word &w, unsigned k) {
        unsigned v = 0;
        for (size_t i = 0; i < w.size(); ++i)
            v |= static_cast<unsigned>((ms.of(w[i]) >> k) & 1) << i;
        return v;
    };
    std::set<unsigned> draws;
    for (unsigned k = 0; k < ms.count; ++k) {
        unsigned x = value(a, k);
        unsigned y = value(b, k);
        unsigned got = value(sum, k) |
                       static_cast<unsigned>((ms.of(cout) >> k) & 1)
                           << 8;
        EXPECT_EQ(got, x + y) << "draw " << k;
        draws.insert(x | y << 8);
    }
    EXPECT_GT(draws.size(), 60u);
    for (SatLit l : primaries) {
        EXPECT_NE(ms.of(l), 0u);
        EXPECT_NE(ms.of(l), ms.mask());
        EXPECT_EQ(ms.of(~l), ~ms.of(l) & ms.mask());
    }
}

TEST(SampleModels, SkipsRootFixedAndRepeatedPrimaries)
{
    // A tied primary has one value in every model and a repeated one
    // cannot take two: assuming either would make draws
    // unsatisfiable, so the sampler leaves both out.
    SatSolver s;
    CnfBuilder cnf(s);
    SatLit x = cnf.fresh();
    SatLit y = cnf.fresh();
    SatLit tied = cnf.fresh();
    cnf.assertLit(~tied);
    SatLit o = cnf.mkAnd(x, cnf.mkOr(y, tied));
    uint64_t solves = 0;
    ModelSamples ms =
        sampleModels(s, {x, tied, y, ~x}, 64, 3, solves);
    EXPECT_EQ(ms.count, 64u);
    EXPECT_EQ(solves, 64u);
    EXPECT_EQ(ms.of(tied), 0u);
    EXPECT_EQ(ms.of(o), ms.of(x) & ms.of(y));
}

// ---------------------------------------------------------------
// Plan-vs-reference equivalence (tentpole claim (a)).

std::unique_ptr<Netlist>
buildCore(int which)
{
    switch (which) {
      case 0: return buildFlexiCore4Netlist();
      case 1: return buildFlexiCore8Netlist();
      case 2: return buildExtAcc4Netlist();
      default: return buildLoadStore4Netlist();
    }
}

TEST(PlanEquiv, AllFourCoresProvenEqual)
{
    for (int which = 0; which < 4; ++which) {
        auto nl = buildCore(which);
        EquivResult res = checkPlanEquivalence(*nl);
        EXPECT_TRUE(res.proven)
            << nl->name() << ": "
            << (res.hasCex ? res.cex.text() : res.detail);
        EXPECT_GT(res.solves, 0u) << nl->name();
    }
}

TEST(PlanEquiv, FaultedInstanceStillSelfConsistent)
{
    // evaluate() and evaluateReference() must agree on a faulted die
    // too (both apply the same force masks); the plan proof covers
    // the faulted semantics.
    auto nl = buildFlexiCore4Netlist();
    nl->injectFault({nl->findNet("acc2"), true});
    EquivResult res = checkPlanEquivalence(*nl);
    EXPECT_TRUE(res.proven)
        << (res.hasCex ? res.cex.text() : res.detail);
}

// ---------------------------------------------------------------
// A deliberately broken netlist must yield a concrete, replayable
// counterexample (acceptance requirement).

TEST(NetlistEquiv, BrokenTwinYieldsReplayableCounterexample)
{
    auto a = buildFlexiCore4Netlist();
    auto b = a->clone();

    // Break the clone: stuck-at-1 on an accumulator bit.
    NetId acc1 = b->findNet("acc1");
    ASSERT_NE(acc1, kNoNet);
    b->injectFault({acc1, true});

    EquivResult res = checkNetlistEquivalence(*a, *b);
    ASSERT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex) << res.detail;
    ASSERT_FALSE(res.cex.mismatched.empty());
    ASSERT_FALSE(res.cex.assignment.empty());
    // The rendering is a concrete input assignment.
    EXPECT_NE(res.cex.text().find("instr="), std::string::npos)
        << res.cex.text();

    // Replay the counterexample in simulation: force the state bits
    // of each instance to the assignment (state forces ride on the
    // fault machinery; the genuinely faulted net keeps its fault),
    // drive the inputs, evaluate, and observe a real difference in
    // the outputs or the effective captured next-state.
    auto drive = [&](Netlist &nl) {
        for (const auto &[name, value] : res.cex.assignment) {
            NetId net = nl.findNet(name);
            ASSERT_NE(net, kNoNet) << name;
            if (nl.primaryInputs().count(name)) {
                nl.setInput(name, value);
                continue;
            }
            bool already_faulted = false;
            for (const StuckFault &f : nl.faults())
                already_faulted |= f.net == net;
            if (!already_faulted)
                nl.injectFault({net, value});
        }
        nl.evaluate();
    };
    auto a_run = a->clone();
    auto b_run = b->clone();   // carries the acc1 stuck-at-1 fault
    // Genuine defects (as opposed to the state forces drive() adds).
    auto a_defects = a_run->faults();
    auto b_defects = b_run->faults();
    drive(*a_run);
    drive(*b_run);

    // Effective captured value: the D cone, unless a *genuine* fault
    // forces Q (the state forces only model "the state currently
    // holds this value"; they do not persist across the edge).
    auto captured = [](const Netlist &nl,
                       const std::vector<StuckFault> &defects,
                       const Netlist::DffInfo &d) {
        for (const StuckFault &f : defects)
            if (f.net == d.q)
                return f.value;
        return nl.netValue(d.d);
    };
    bool differs = false;
    for (const auto &[name, net] : a_run->primaryOutputs())
        differs |= a_run->output(name) != b_run->output(name);
    auto a_dffs = a_run->dffs();
    auto b_dffs = b_run->dffs();
    ASSERT_EQ(a_dffs.size(), b_dffs.size());
    for (size_t i = 0; i < a_dffs.size(); ++i)
        differs |= captured(*a_run, a_defects, a_dffs[i]) !=
                   captured(*b_run, b_defects, b_dffs[i]);
    EXPECT_TRUE(differs)
        << "counterexample did not reproduce in simulation: "
        << res.cex.text();
}

TEST(NetlistEquiv, RewiredGateIsCaught)
{
    // Two builds of the same toy state machine, one with a mux
    // select rewired to constant 1 before elaboration; the checker
    // must find a separating input.
    auto make = [](bool broken) {
        Netlist nl("toy");
        NetId a = nl.addInput("a");
        NetId b = nl.addInput("b");
        NetId c = nl.addInput("c");
        size_t mux = nl.numCells();
        NetId x = nl.addCell(CellType::MUX2, {a, b, c}, "m");
        if (broken)
            nl.rewireCellInput(mux, 2, nl.one());
        nl.addOutput("y", x);
        NetId q = nl.addDff(x, "state");
        nl.nameNet(q, "s0");
        nl.elaborate();
        return nl;
    };
    Netlist good = make(false);
    Netlist bad = make(true);

    EquivResult res = checkNetlistEquivalence(good, bad);
    ASSERT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex) << res.detail;
    // Separating input: sel=0 and a != b.
    bool a_val = false;
    bool b_val = false;
    bool c_val = true;
    for (const auto &[name, v] : res.cex.assignment) {
        if (name == "a")
            a_val = v;
        else if (name == "b")
            b_val = v;
        else if (name == "c")
            c_val = v;
    }
    EXPECT_FALSE(c_val);
    EXPECT_NE(a_val, b_val);
}

// ---------------------------------------------------------------
// Clone / fault identity (satellite: cloned fault-free die is
// formally identical to its template).

TEST(NetlistEquiv, CloneIsFormallyIdenticalToTemplate)
{
    for (int which = 0; which < 4; ++which) {
        auto nl = buildCore(which);
        auto die = nl->clone();
        EquivResult res = checkNetlistEquivalence(*nl, *die);
        EXPECT_TRUE(res.proven)
            << nl->name() << ": "
            << (res.hasCex ? res.cex.text() : res.detail);
    }
}

TEST(NetlistEquiv, FaultyDieIsNotIdenticalButClearedDieIs)
{
    auto nl = buildFlexiCore8Netlist();
    auto die = nl->clone();
    die->injectFault({die->findNet("acc5"), false});
    EXPECT_FALSE(checkNetlistEquivalence(*nl, *die).proven);
    die->clearFaults();
    EXPECT_TRUE(checkNetlistEquivalence(*nl, *die).proven);
}

// ---------------------------------------------------------------
// ISA equivalence (tentpole claim (b)).

class IsaEquiv : public ::testing::TestWithParam<int>
{
};

TEST_P(IsaEquiv, NetlistImplementsBehavioralSpec)
{
    static const IsaKind kinds[] = {
        IsaKind::FlexiCore4, IsaKind::FlexiCore8, IsaKind::ExtAcc4,
        IsaKind::LoadStore4};
    int which = GetParam();
    auto nl = buildCore(which);
    IsaEquivResult res = checkIsaEquivalence(*nl, kinds[which]);
    ASSERT_TRUE(res.detail.empty()) << res.detail;
    for (const IsaClassCheck &chk : res.classes)
        EXPECT_TRUE(chk.proven)
            << nl->name() << " class '" << chk.name
            << "': " << chk.cex.text();
    EXPECT_TRUE(res.proven);
    // One class per named instruction plus the whole-space "*".
    EXPECT_GE(res.classes.size(), 11u);
    EXPECT_EQ(res.classes.back().name, "*");
}

INSTANTIATE_TEST_SUITE_P(AllCores, IsaEquiv,
                         ::testing::Values(0, 1, 2, 3));

constexpr IsaKind kCoreKinds[4] = {IsaKind::FlexiCore4,
                                   IsaKind::FlexiCore8,
                                   IsaKind::ExtAcc4,
                                   IsaKind::LoadStore4};

/**
 * The oracle: the ISA miter without the sweep, solved one class at a
 * time.
 */
struct UnsweptIsaMiter
{
    SatSolver solver;
    CnfBuilder cnf{solver};
    NetlistEncoding enc;
    IsaSpecInputs in;
    IsaSpec spec;
    std::vector<std::string> labels;
    std::vector<SatLit> diffs;
    SatLit any;

    UnsweptIsaMiter(const Netlist &nl, IsaKind kind)
    {
        NetlistEncodeOptions opts;
        opts.applyFaults = true;
        enc = encodeNetlist(cnf, nl, opts);
        for (unsigned i = 0; i < isaInstrWidth(kind); ++i)
            in.instr.push_back(
                enc.lit(nl.findNet("instr" + std::to_string(i))));
        for (unsigned i = 0; i < isaDataWidth(kind); ++i)
            in.iport.push_back(
                enc.lit(nl.findNet("iport" + std::to_string(i))));
        auto dffs = nl.dffs();
        for (size_t i = 0; i < dffs.size(); ++i) {
            labels.push_back(nl.netName(dffs[i].q));
            in.state[labels.back()] = enc.dffQ[i];
        }
        spec = buildIsaSpec(cnf, kind, in);
        for (size_t i = 0; i < dffs.size(); ++i)
            diffs.push_back(
                cnf.mkXor(enc.dffD[i], spec.nextState.at(labels[i])));
        any = cnf.mkOrN(diffs);
    }

    /** The class's pinned instruction and state bits. */
    std::vector<SatLit> pins(const InstrClass &cls) const
    {
        std::vector<SatLit> out;
        for (const auto &[bit, v] : cls.instrBits)
            out.push_back(v ? in.instr[bit] : ~in.instr[bit]);
        for (const auto &[name, v] : cls.stateBits)
            out.push_back(v ? in.state.at(name) : ~in.state.at(name));
        return out;
    }
};

/**
 * A failing class's counterexample, asserted on a fresh unswept
 * miter: it must be a model in which the class's pins hold and
 * exactly the reported state bits mismatch.
 */
void
expectGenuineCex(const Netlist &nl, IsaKind kind, size_t cls,
                 const EquivCounterexample &cex)
{
    UnsweptIsaMiter m(nl, kind);
    std::vector<SatLit> assume;
    for (const auto &[name, v] : cex.assignment) {
        SatLit l;
        auto pi = nl.primaryInputs().find(name);
        if (pi != nl.primaryInputs().end()) {
            l = m.enc.lit(pi->second);
        } else {
            auto it =
                std::find(m.labels.begin(), m.labels.end(), name);
            ASSERT_NE(it, m.labels.end()) << name;
            l = m.enc.dffQ[it - m.labels.begin()];
        }
        assume.push_back(v ? l : ~l);
    }
    ASSERT_EQ(m.solver.solve(assume), Result::Sat) << cex.text();
    for (SatLit pin : m.pins(m.spec.classes[cls]))
        EXPECT_TRUE(m.solver.modelValue(pin)) << cex.text();
    std::vector<std::string> mismatched;
    for (size_t i = 0; i < m.diffs.size(); ++i)
        if (m.solver.modelValue(m.diffs[i]))
            mismatched.push_back(m.labels[i]);
    EXPECT_EQ(mismatched, cex.mismatched) << cex.text();
    EXPECT_FALSE(mismatched.empty());
}

class IsaSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(IsaSweep, VerdictsMatchUnsweptLoopOnSeededDies)
{
    auto clean = buildCore(GetParam());
    IsaKind kind = kCoreKinds[GetParam()];

    // Nets to stick: DFF Qs, decode and ALU cell outputs, pads.
    std::vector<NetId> pools[4];
    for (const auto &d : clean->dffs())
        pools[0].push_back(d.q);
    for (const CellInst &c : clean->cells()) {
        if (isSequential(c.type))
            continue;
        if (c.module == "dec")
            pools[1].push_back(c.output);
        else if (c.module == "alu")
            pools[2].push_back(c.output);
    }
    for (const auto &[name, net] : clean->primaryInputs())
        pools[3].push_back(net);

    // The clean die, then two seeded stuck-at dies per pool.
    Rng rng(0x15A0 + GetParam());
    std::vector<std::unique_ptr<Netlist>> dies;
    dies.push_back(clean->clone());
    for (const std::vector<NetId> &pool : pools) {
        ASSERT_FALSE(pool.empty());
        for (int k = 0; k < 2; ++k) {
            auto die = clean->clone();
            die->injectFault(
                {pool[rng.below(pool.size())], rng.chance(0.5)});
            dies.push_back(std::move(die));
        }
    }

    size_t failing = 0;
    for (size_t d = 0; d < dies.size(); ++d) {
        const Netlist &nl = *dies[d];
        IsaEquivResult swept = checkIsaEquivalence(nl, kind);
        ASSERT_TRUE(swept.detail.empty()) << swept.detail;
        UnsweptIsaMiter oracle(nl, kind);
        const auto &classes = oracle.spec.classes;
        ASSERT_EQ(swept.classes.size(), classes.size());
        bool all = true;
        for (size_t c = 0; c < classes.size(); ++c) {
            std::vector<SatLit> assume = oracle.pins(classes[c]);
            assume.push_back(oracle.any);
            bool proven = oracle.solver.solve(assume) == Result::Unsat;
            const IsaClassCheck &chk = swept.classes[c];
            EXPECT_EQ(chk.name, classes[c].name);
            EXPECT_EQ(chk.proven, proven)
                << nl.name() << " die " << d << " class " << chk.name;
            all &= proven;
            if (!chk.proven)
                expectGenuineCex(nl, kind, c, chk.cex);
        }
        EXPECT_EQ(swept.proven, all) << "die " << d;
        failing += !all;
        if (d == 0) {
            // The clean die proves, and the sweep makes it cheaper.
            EXPECT_TRUE(all);
            uint64_t unswept = oracle.solver.stats().conflicts;
            EXPECT_LT(swept.conflicts, unswept);
            if (kind == IsaKind::LoadStore4) {
                EXPECT_LT(4 * swept.conflicts, unswept);
            }
        }
    }
    EXPECT_GT(failing, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCores, IsaSweep,
                         ::testing::Values(0, 1, 2, 3));

TEST(IsaEquivNegative, FaultedDieBlamesTheCorruptedState)
{
    // A die with pc bit 0 stuck at 1 cannot fetch sequentially; the
    // ISA proof must fail and the counterexample must blame the PC.
    auto broken = buildFlexiCore4Netlist();
    NetId pc0 = broken->findNet("pc_q0");
    ASSERT_NE(pc0, kNoNet);
    broken->injectFault({pc0, true});

    IsaEquivResult res =
        checkIsaEquivalence(*broken, IsaKind::FlexiCore4);
    ASSERT_TRUE(res.detail.empty()) << res.detail;
    EXPECT_FALSE(res.proven);
    bool blamed_pc = false;
    for (const IsaClassCheck &chk : res.classes) {
        if (chk.proven)
            continue;
        for (const std::string &m : chk.cex.mismatched)
            blamed_pc |= m == "pc_q0";
    }
    EXPECT_TRUE(blamed_pc);
}

// ---------------------------------------------------------------
// The lint wrapper.

TEST(EquivLint, CleanCoreIsProvenAndRendered)
{
    auto nl = buildExtAcc4Netlist();
    LintReport rep = equivLint(*nl, IsaKind::ExtAcc4);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.fires("equiv-proven"));
    EXPECT_FALSE(rep.fires("equiv-mismatch"));
}

TEST(EquivLint, FaultedCoreReportsError)
{
    auto nl = buildFlexiCore4Netlist();
    nl->injectFault({nl->findNet("acc0"), false});
    LintReport rep = equivLint(*nl, IsaKind::FlexiCore4);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.fires("equiv-mismatch"));
}

// ---------------------------------------------------------------
// Checkers run concurrently, as a formal_lint round runs them.

std::string
fixtureSource(const std::string &file)
{
    std::ifstream in(std::string(FLEXI_TEST_DATA_DIR) + "/" + file);
    EXPECT_TRUE(in.good()) << file;
    std::ostringstream src;
    src << in.rdbuf();
    return src.str();
}

TEST(FormalConcurrency, ParallelChecksMatchSerial)
{
    // Each checker owns its solver and reads the netlist through
    // const methods only, so four ISA proofs and four mcLint calls
    // at once must render exactly what they render one at a time.
    static const char *fixtures[4] = {"mc_fc4.s", "mc_fc8.s",
                                      "mc_ext.s", "mc_ls.s"};
    std::vector<std::unique_ptr<Netlist>> cores;
    std::vector<Program> progs;
    for (int which = 0; which < 4; ++which) {
        cores.push_back(buildCore(which));
        progs.push_back(
            assemble(kCoreKinds[which], fixtureSource(fixtures[which])));
    }
    auto call = [&](size_t i) {
        size_t which = i % 4;
        std::ostringstream out;
        if (i < 4) {
            IsaEquivResult r =
                checkIsaEquivalence(*cores[which], kCoreKinds[which]);
            out << r.proven << r.detail << " " << r.solves << " "
                << r.conflicts;
            for (const IsaClassCheck &c : r.classes)
                out << " " << c.name << c.proven << c.cex.text();
        } else {
            McLintOptions mo;
            mo.inductDepth = 4;
            mo.model.program = &progs[which];
            McLintOutcome r = mcLint(*cores[which], mo);
            out << r.solves << " " << r.conflicts;
            for (const Diagnostic &d : r.report.diagnostics()) {
                out << " " << d.rule << ":" << d.message;
                for (const std::string &n : d.netNames)
                    out << "," << n;
            }
        }
        return out.str();
    };

    std::vector<std::string> serial(8), parallel(8);
    for (size_t i = 0; i < 8; ++i)
        serial[i] = call(i);
    parallelFor(8, 4, [&](size_t i) { parallel[i] = call(i); });
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "call " << i;
}

// ---------------------------------------------------------------
// The search pin. The solver's order of decisions, propagations and
// learned clauses is part of its contract: every effort count in the
// fixtures and the golden corpus depends on it. A change to the
// solver's data layout must leave these numbers untouched; a change
// to its search must update them on purpose.

/** FNV-1a over every verdict and model a solver phase produces. */
struct SearchDigest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void byte(uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    void verdict(const SatSolver &s, Result r)
    {
        byte(r == Result::Sat ? 1 : 0);
        if (r != Result::Sat)
            return;
        for (SatVar v = 0; v < s.numVars(); ++v)
            byte(s.modelValue(v) ? 1 : 0);
    }
};

/** One phase's pinned effort and digest. */
struct PinnedPhase
{
    uint64_t decisions, propagations, conflicts, restarts, digest;
};

void
expectPhase(const char *phase, const SatSolver &s,
            const SearchDigest &d, const PinnedPhase &want)
{
    const SatSolver::Stats &st = s.stats();
    EXPECT_EQ(st.decisions, want.decisions) << phase;
    EXPECT_EQ(st.propagations, want.propagations) << phase;
    EXPECT_EQ(st.conflicts, want.conflicts) << phase;
    EXPECT_EQ(st.restarts, want.restarts) << phase;
    EXPECT_EQ(d.h, want.digest) << phase;
}

TEST(Sat, SearchIsPinned)
{
    SatSolver s;
    SearchDigest d;

    // Phase 1: PHP(7,6) posed eight times under fresh activation
    // literals. Past ~4,490 conflicts the activities pass 1e100 and
    // are rescaled, heap keys included.
    for (int round = 0; round < 8; ++round) {
        SatLit sel = SatLit::make(s.newVar());
        addGuardedPigeonhole(s, 7, 6, sel);
        d.verdict(s, s.solve({sel}));
        d.verdict(s, s.solve({~sel}));
    }
    const double rescale_after = std::log(1e100) / std::log(1 / 0.95);
    EXPECT_GT(static_cast<double>(s.stats().conflicts), rescale_after);
    expectPhase("pigeonhole", s, d,
                {9755, 98130, 5955, 14, 1967285194696290568ull});

    // Phase 2: a binary-heavy random 2/3-CNF, grown between solves
    // and solved under random assumptions. Random 3-clauses near the
    // satisfiability threshold make the search; each variable also
    // gains aliases (fresh variables bound equal or opposite to it
    // by two binary clauses) that the 3-clauses and assumptions name
    // at random, so most clauses are binary and most implications
    // run through binary watches. Learned clauses, binary ones too,
    // serve as reasons in later solves.
    Rng rng(0x5EA2C4);
    const int nv = 120;
    std::vector<std::vector<SatLit>> names(nv);
    for (auto &alias : names)
        alias.push_back(SatLit::make(s.newVar()));
    auto pick = [&] {
        const auto &alias = names[rng.below(nv)];
        SatLit l = alias[rng.below(alias.size())];
        return rng.chance(0.5) ? l : ~l;
    };
    for (int round = 0; round < 30; ++round) {
        for (int k = 0; k < 12; ++k) {
            auto &alias = names[rng.below(nv)];
            SatLit of = alias[rng.below(alias.size())];
            SatLit y = SatLit::make(s.newVar(), rng.chance(0.5));
            ASSERT_TRUE(s.addClause({~y, of}));
            ASSERT_TRUE(s.addClause({y, ~of}));
            alias.push_back(y);
        }
        for (int k = 0; k < 16; ++k)
            ASSERT_TRUE(s.addClause({pick(), pick(), pick()}));
        for (int q = 0; q < 4; ++q)
            d.verdict(s, s.solve({pick(), pick()}));
    }
    expectPhase("random 2/3-CNF", s, d,
                {59582, 425612, 8063, 14, 1358054081638842248ull});

    // Phase 3: proveEqual sweeps on an FC4 plan miter: each plan
    // step's reference and word-program literals (proven and
    // hardened), then against the previous step's word literal
    // (usually separated by a model).
    auto nl = buildFlexiCore4Netlist();
    CnfBuilder cnf(s);
    NetlistEncodeOptions ref_opts;
    ref_opts.applyFaults = true;
    NetlistEncoding ref = encodeNetlist(cnf, *nl, ref_opts);
    NetlistEncodeOptions word_opts;
    word_opts.mode = NetlistEncodeMode::WordPlan;
    word_opts.applyFaults = true;
    word_opts.share = &ref;
    word_opts.shareWith = nl.get();
    NetlistEncoding word = encodeNetlist(cnf, *nl, word_opts);
    uint64_t solves = 0;
    SatLit prev;
    for (const auto &step : nl->planSteps()) {
        if (!ref.hasLit(step.out) || !word.hasLit(step.out))
            continue;
        SatLit a = ref.lit(step.out);
        SatLit b = word.lit(step.out);
        ASSERT_TRUE(proveEqual(cnf, a, b, solves));
        if (prev.code >= 0 && !proveEqual(cnf, a, prev, solves))
            d.verdict(s, Result::Sat);
        prev = b;
    }
    expectPhase("plan sweep", s, d,
                {136777, 667598, 8517, 14, 13800825479966398367ull});
    EXPECT_EQ(solves, 569u);
}

TEST(SearchPin, IsaEquivalenceEffort)
{
    // (solves, conflicts) of the swept ISA proof on each core; the
    // fc4 pair also appears in tests/data/flexilint_fc4_equiv.json.
    static const uint64_t want[4][2] = {
        {317, 533}, {418, 706}, {553, 1008}, {613, 1227}};
    for (int which = 0; which < 4; ++which) {
        auto nl = buildCore(which);
        IsaEquivResult r = checkIsaEquivalence(*nl, kCoreKinds[which]);
        EXPECT_TRUE(r.proven) << nl->name();
        EXPECT_EQ(r.solves, want[which][0]) << nl->name();
        EXPECT_EQ(r.conflicts, want[which][1]) << nl->name();
    }
}

TEST(SearchPin, McLintEffort)
{
    // (solves, conflicts) of mcLint's default catalog at --induct 4
    // over each fixture program, the escape fixture's counterexample
    // search included.
    struct Case
    {
        int core;
        const char *fixture;
        uint64_t solves, conflicts;
    };
    static const Case cases[] = {
        {0, "mc_fc4.s", 6, 18},  {1, "mc_fc8.s", 9, 21},
        {2, "mc_ext.s", 6, 47},  {3, "mc_ls.s", 4, 17},
        {0, "mc_escape.s", 8, 17},
    };
    for (const Case &c : cases) {
        auto nl = buildCore(c.core);
        Program prog =
            assemble(kCoreKinds[c.core], fixtureSource(c.fixture));
        McLintOptions mo;
        mo.inductDepth = 4;
        mo.model.program = &prog;
        McLintOutcome r = mcLint(*nl, mo);
        EXPECT_EQ(r.solves, c.solves) << c.fixture;
        EXPECT_EQ(r.conflicts, c.conflicts) << c.fixture;
    }
}

} // namespace
} // namespace flexi
