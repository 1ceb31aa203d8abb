/**
 * @file
 * Unit tests for the gate-level netlist infrastructure and the
 * structural FlexiCore models, including the central integration
 * property: the netlists track the architectural simulator
 * cycle-for-cycle (the paper's RTL-vs-die test methodology).
 */

#include <gtest/gtest.h>

#include "analysis/netlist_lint.hh"
#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "netlist/builder.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "netlist/netlist.hh"

namespace flexi
{
namespace
{

// ---------------------------------------------------------------
// Netlist core mechanics
// ---------------------------------------------------------------

TEST(Netlist, CombinationalGateEval)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId c = nl.addInput("b");
    NetId y = b.nand2(a, c);
    nl.addOutput("y", y);
    nl.elaborate();

    for (int av = 0; av < 2; ++av) {
        for (int bv = 0; bv < 2; ++bv) {
            nl.setInput("a", av);
            nl.setInput("b", bv);
            nl.evaluate();
            EXPECT_EQ(nl.output("y"), !(av && bv));
        }
    }
}

TEST(Netlist, DffCapturesOnClockEdge)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId d = nl.addInput("d");
    NetId q = nl.addDff(d, "m");
    nl.addOutput("q", q);
    nl.elaborate();

    nl.setInput("d", true);
    nl.evaluate();
    EXPECT_FALSE(nl.output("q"));   // not yet clocked
    nl.clockEdge();
    nl.evaluate();
    EXPECT_TRUE(nl.output("q"));
}

TEST(Netlist, CombinationalLoopDetected)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    // Build u = nand(a, v), v = nand(a, u) by hand.
    NetId u = nl.addCell(CellType::NAND2, {a, a}, "m");
    NetId v = nl.addCell(CellType::NAND2, {a, u}, "m");
    // Rewire first cell's input to form the loop via a DFF-free path:
    // not directly supported by the API, so emulate with setDffInput
    // misuse being rejected. Instead check a self-feeding cell.
    (void)v;
    NetId w = nl.addCell(CellType::NAND2, {a, a}, "m");
    // Reach into the structure: make the cell consume its own output.
    // The public API cannot do this, so we simulate a loop by making
    // a buffer chain and verifying elaborate() *succeeds* (sanity),
    // since true loops are unconstructible through Builder.
    (void)w;
    EXPECT_NO_THROW(nl.elaborate());
}

TEST(Netlist, BusHelpers)
{
    Netlist nl("t");
    Builder b(nl, "m");
    Word in;
    for (int i = 0; i < 4; ++i)
        in.push_back(nl.addInput("in" + std::to_string(i)));
    Word out = b.invWord(in);
    for (int i = 0; i < 4; ++i)
        nl.addOutput("out" + std::to_string(i), out[i]);
    nl.elaborate();
    nl.setBus("in", 4, 0b1010);
    nl.evaluate();
    EXPECT_EQ(nl.bus("out", 4), 0b0101u);
}

TEST(Netlist, StuckFaultForcesNet)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y = b.inv(a);
    nl.addOutput("y", y);
    nl.elaborate();

    nl.setInput("a", false);
    nl.evaluate();
    EXPECT_TRUE(nl.output("y"));

    nl.injectFault({y, false});     // stuck-at-0 on the output
    nl.evaluate();
    EXPECT_FALSE(nl.output("y"));

    nl.clearFaults();
    nl.evaluate();
    EXPECT_TRUE(nl.output("y"));
}

TEST(Netlist, ToggleCounting)
{
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y = b.inv(a);
    nl.addOutput("y", y);
    nl.elaborate();

    nl.setInput("a", false);
    nl.evaluate();
    nl.enableToggles(true);
    for (int i = 0; i < 10; ++i) {
        nl.setInput("a", i % 2 == 0);
        nl.evaluate();
    }
    EXPECT_EQ(nl.toggleCounts()[0], 10u);
}

TEST(Netlist, ModuleBreakdownRollsUp)
{
    Netlist nl("t");
    Builder b(nl, "alpha");
    Builder c = b.scoped("beta");
    NetId a = nl.addInput("a");
    b.inv(a);
    c.nand2(a, a);
    c.xor2(a, a);
    auto breakdown = nl.moduleBreakdown();
    EXPECT_EQ(breakdown.at("alpha").cells, 1u);
    EXPECT_EQ(breakdown.at("beta").cells, 2u);
    EXPECT_GT(breakdown.at("beta").nand2Area,
              breakdown.at("alpha").nand2Area);
}

// ---------------------------------------------------------------
// Builder word-level components (exhaustive truth tables)
// ---------------------------------------------------------------

class AdderTest : public ::testing::TestWithParam<int>
{
};

TEST_P(AdderTest, ExhaustiveFourBit)
{
    int width = GetParam();
    Netlist nl("adder");
    Builder b(nl, "m");
    Word a, c;
    for (int i = 0; i < width; ++i) {
        a.push_back(nl.addInput("a" + std::to_string(i)));
        c.push_back(nl.addInput("b" + std::to_string(i)));
    }
    auto out = b.rippleAdder(a, c, nl.zero());
    for (int i = 0; i < width; ++i) {
        nl.addOutput("s" + std::to_string(i), out.sum[i]);
        nl.addOutput("p" + std::to_string(i), out.propagate[i]);
        nl.addOutput("g" + std::to_string(i), out.nandOut[i]);
    }
    nl.addOutput("cout", out.carryOut);
    nl.elaborate();

    unsigned n = 1u << width;
    unsigned mask = n - 1;
    for (unsigned x = 0; x < n; ++x) {
        for (unsigned y = 0; y < n; ++y) {
            nl.setBus("a", width, x);
            nl.setBus("b", width, y);
            nl.evaluate();
            EXPECT_EQ(nl.bus("s", width), (x + y) & mask);
            EXPECT_EQ(nl.output("cout"), ((x + y) >> width) & 1u);
            // The paper's free side effects (Section 3.4):
            EXPECT_EQ(nl.bus("p", width), x ^ y);
            EXPECT_EQ(nl.bus("g", width), (~(x & y)) & mask);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderTest, ::testing::Values(2, 4, 8));

TEST(BuilderComponents, IncrementerWraps)
{
    Netlist nl("inc");
    Builder b(nl, "m");
    Word a;
    for (int i = 0; i < 7; ++i)
        a.push_back(nl.addInput("a" + std::to_string(i)));
    Word out = b.incrementer(a);
    for (int i = 0; i < 7; ++i)
        nl.addOutput("y" + std::to_string(i), out[i]);
    nl.elaborate();
    for (unsigned v = 0; v < 128; ++v) {
        nl.setBus("a", 7, v);
        nl.evaluate();
        EXPECT_EQ(nl.bus("y", 7), (v + 1) & 0x7F);
    }
}

TEST(BuilderComponents, OneHotDecoder)
{
    Netlist nl("dec");
    Builder b(nl, "m");
    Word sel;
    for (int i = 0; i < 3; ++i)
        sel.push_back(nl.addInput("s" + std::to_string(i)));
    auto hot = b.decodeOneHot(sel);
    for (int i = 0; i < 8; ++i)
        nl.addOutput("h" + std::to_string(i), hot[i]);
    nl.elaborate();
    for (unsigned v = 0; v < 8; ++v) {
        nl.setBus("s", 3, v);
        nl.evaluate();
        EXPECT_EQ(nl.bus("h", 8), 1u << v);
    }
}

TEST(BuilderComponents, MuxTreeSelects)
{
    Netlist nl("mux");
    Builder b(nl, "m");
    std::vector<Word> words(4);
    for (int w = 0; w < 4; ++w)
        for (int i = 0; i < 4; ++i)
            words[w].push_back(nl.addInput(
                "w" + std::to_string(w) + "_" + std::to_string(i)));
    Word sel = {nl.addInput("s0"), nl.addInput("s1")};
    Word out = b.muxTree(words, sel);
    for (int i = 0; i < 4; ++i)
        nl.addOutput("y" + std::to_string(i), out[i]);
    nl.elaborate();

    for (int w = 0; w < 4; ++w)
        nl.setBus("w" + std::to_string(w) + "_", 4, 3 + w * 4);
    for (unsigned s = 0; s < 4; ++s) {
        nl.setInput("s0", s & 1);
        nl.setInput("s1", (s >> 1) & 1);
        nl.evaluate();
        EXPECT_EQ(nl.bus("y", 4), (3 + s * 4) & 0xF);
    }
}

TEST(BuilderComponents, RegisterWordHoldsWithoutEnable)
{
    Netlist nl("reg");
    Builder b(nl, "m");
    Word d;
    for (int i = 0; i < 4; ++i)
        d.push_back(nl.addInput("d" + std::to_string(i)));
    NetId we = nl.addInput("we");
    Word q = b.registerWord(d, we);
    for (int i = 0; i < 4; ++i)
        nl.addOutput("q" + std::to_string(i), q[i]);
    nl.elaborate();

    nl.setBus("d", 4, 0xA);
    nl.setInput("we", true);
    nl.evaluate();
    nl.clockEdge();
    nl.evaluate();
    EXPECT_EQ(nl.bus("q", 4), 0xAu);

    nl.setBus("d", 4, 0x5);
    nl.setInput("we", false);
    nl.evaluate();
    nl.clockEdge();
    nl.evaluate();
    EXPECT_EQ(nl.bus("q", 4), 0xAu);   // held
}

// ---------------------------------------------------------------
// Structural FlexiCore models
// ---------------------------------------------------------------

TEST(FlexiCore4Netlist, BuildsAndHasExpectedInterface)
{
    auto nl = buildFlexiCore4Netlist();
    EXPECT_GT(nl->numCells(), 100u);
    // Constraint from Section 3.3: < 800 NAND2-equivalent area
    // (plus margin: the fabricated core is 801).
    EXPECT_LT(nl->totalNand2Area(), 900.0);
    EXPECT_NO_THROW(nl->bus("pc", 7));
    EXPECT_NO_THROW(nl->bus("oport", 4));
}

TEST(FlexiCore4Netlist, ModuleBreakdownMatchesPaperShape)
{
    // Table 2: memory is the largest module, decoder the smallest.
    auto nl = buildFlexiCore4Netlist();
    auto modules = nl->moduleBreakdown();
    double mem = modules.at("mem").nand2Area;
    EXPECT_GT(mem, modules.at("pc").nand2Area);
    EXPECT_GT(mem, modules.at("alu").nand2Area);
    EXPECT_GT(mem, modules.at("acc").nand2Area);
    EXPECT_GT(modules.at("alu").nand2Area,
              modules.at("dec").nand2Area);
}

TEST(FlexiCore8Netlist, LongerCriticalPath)
{
    // The 8-bit ripple adder roughly doubles the carry chain
    // (Section 4.1 attributes FC8's 3 V yield cliff to this).
    auto fc4 = buildFlexiCore4Netlist();
    auto fc8 = buildFlexiCore8Netlist();
    EXPECT_GT(fc8->criticalPathDelayUnits(),
              1.3 * fc4->criticalPathDelayUnits());
}

TEST(FlexiCore8Netlist, MoreDevicesThanFc4)
{
    // Table 4: 2104 vs 2335 devices (~11 % more).
    auto fc4 = buildFlexiCore4Netlist();
    auto fc8 = buildFlexiCore8Netlist();
    EXPECT_GT(fc8->totalDevices(), fc4->totalDevices());
    double ratio = static_cast<double>(fc8->totalDevices()) /
                   fc4->totalDevices();
    EXPECT_LT(ratio, 1.35);
}

TEST(FlexiCore4Netlist, LintsClean)
{
    auto nl = buildFlexiCore4Netlist();
    LintReport rep = lintNetlist(*nl);
    EXPECT_TRUE(rep.clean()) << rep.text(nl->name());
}

TEST(FlexiCore8Netlist, LintsClean)
{
    auto nl = buildFlexiCore8Netlist();
    LintReport rep = lintNetlist(*nl);
    EXPECT_TRUE(rep.clean()) << rep.text(nl->name());
}

// ---------------------------------------------------------------
// Lockstep netlist-vs-simulator equivalence
// ---------------------------------------------------------------

TEST(Lockstep, Fc4DirectedProgram)
{
    Program p = assemble(IsaKind::FlexiCore4, R"(
        load r0
        store r2
        addi 3
        store r1
        nand r2
        xori 0xF
        store r1
        add r2
        store r1
        end: nandi 0
        spin: br spin
    )");
    auto nl = buildFlexiCore4Netlist();
    LockstepResult res = runLockstep(*nl, IsaKind::FlexiCore4, p,
                                     {0x6, 0x2}, 1000);
    EXPECT_EQ(res.errors, 0u);
    EXPECT_GT(res.outputs.size(), 2u);
}

TEST(Lockstep, Fc8DirectedProgramWithLoadByte)
{
    Program p = assemble(IsaKind::FlexiCore8, R"(
        ldb 0xA5
        store r2
        load r0
        add r2
        store r1
        ldb 0x80
        br over
        addi 1
        over: xori -1
        store r3
        end: ldb 0x80
        spin: br spin
    )");
    auto nl = buildFlexiCore8Netlist();
    LockstepResult res = runLockstep(*nl, IsaKind::FlexiCore8, p,
                                     {0x11}, 1000);
    EXPECT_EQ(res.errors, 0u);
}

/**
 * Property: for random instruction streams (all 256 byte values are
 * legal), netlist and simulator agree on every cycle. This is the
 * paper's randomized test-vector suite.
 */
class RandomLockstep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomLockstep, Fc4RandomProgram)
{
    Rng rng(GetParam());
    Program p(IsaKind::FlexiCore4);
    std::vector<uint8_t> bytes;
    for (int i = 0; i < 127; ++i) {
        uint8_t b = static_cast<uint8_t>(rng.below(256));
        bytes.push_back(b);
    }
    p.appendBytes(0, bytes);
    std::vector<uint8_t> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(static_cast<uint8_t>(rng.below(16)));

    auto nl = buildFlexiCore4Netlist();
    LockstepResult res = runLockstep(*nl, IsaKind::FlexiCore4, p,
                                     inputs, 3000);
    EXPECT_EQ(res.errors, 0u) << "seed " << GetParam();
}

TEST_P(RandomLockstep, Fc8RandomProgram)
{
    Rng rng(GetParam() * 7919 + 13);
    Program p(IsaKind::FlexiCore8);
    std::vector<uint8_t> bytes;
    for (int i = 0; i < 127; ++i)
        bytes.push_back(static_cast<uint8_t>(rng.below(256)));
    p.appendBytes(0, bytes);
    std::vector<uint8_t> inputs;
    for (int i = 0; i < 64; ++i)
        inputs.push_back(static_cast<uint8_t>(rng.below(256)));

    auto nl = buildFlexiCore8Netlist();
    LockstepResult res = runLockstep(*nl, IsaKind::FlexiCore8, p,
                                     inputs, 3000);
    EXPECT_EQ(res.errors, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLockstep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/**
 * Exhaustive single-instruction sweep: every FlexiCore4 opcode byte,
 * executed from every accumulator value, with distinctive memory
 * contents — netlist and simulator must agree on the full
 * architectural trace. Systematic coverage on top of the random
 * streams.
 */
TEST(Lockstep, Fc4ExhaustiveOpcodeByAccSweep)
{
    auto nl = buildFlexiCore4Netlist();
    for (unsigned opcode = 0; opcode < 256; ++opcode) {
        for (unsigned acc = 0; acc < 16; acc += 3) {   // 6 values
            Program p(IsaKind::FlexiCore4);
            std::vector<uint8_t> image;
            // Fill memory with distinctive values: r2..r7 = 9,10,...
            for (unsigned w = 2; w < 8; ++w) {
                image.push_back(0x50);   // nandi 0
                image.push_back(
                    static_cast<uint8_t>(0x60 | ((7 + w) & 0xF)));
                image.push_back(static_cast<uint8_t>(0x38 | w));
            }
            // Set ACC, run the opcode under test, expose state.
            image.push_back(0x50);                        // nandi 0
            image.push_back(
                static_cast<uint8_t>(0x60 | (acc ^ 0xF)));// xori
            image.push_back(static_cast<uint8_t>(opcode));
            image.push_back(0x39);                        // store r1
            p.appendBytes(0, image);

            nl->clearFaults();
            LockstepResult res =
                runLockstep(*nl, IsaKind::FlexiCore4, p, {0x6, 0xB},
                            image.size() + 4);
            EXPECT_EQ(res.errors, 0u)
                << "opcode " << opcode << " acc " << acc;
        }
    }
}

TEST(Lockstep, FaultyDieProducesErrors)
{
    // Stuck-at faults on ALU nets must be caught by the vectors —
    // the basis of the yield test (Section 4.1).
    Program p = assemble(IsaKind::FlexiCore4, R"(
        load r0
        addi 3
        store r1
        xori 0xA
        store r1
        end: nandi 0
        spin: br spin
    )");
    auto nl = buildFlexiCore4Netlist();
    // Fault a mid-design net (an ALU cell output).
    NetId victim = kNoNet;
    for (const auto &cell : nl->cells()) {
        if (cell.module == "alu") {
            victim = cell.output;
            break;
        }
    }
    ASSERT_NE(victim, kNoNet);
    nl->injectFault({victim, true});
    LockstepResult res = runLockstep(*nl, IsaKind::FlexiCore4, p,
                                     {0x1}, 1000);
    EXPECT_GT(res.errors, 0u);
}

// ---------------------------------------------------------------
// Compiled evaluation plan vs the reference interpreter
// ---------------------------------------------------------------

/**
 * Differential fuzz of the compiled engine behind evaluate() against
 * the cell-by-cell reference interpreter: every processor netlist,
 * random primary inputs each cycle, random stuck-at faults, transient
 * windows and DFF upsets injected mid-run. Both paths must agree on
 * every net value and every per-cell toggle count after every
 * evaluation.
 */
TEST(Netlist, FlatEvaluatorMatchesReferenceUnderFaults)
{
    struct Design
    {
        const char *name;
        std::unique_ptr<Netlist> (*build)();
    };
    const Design kDesigns[] = {
        {"fc4", &buildFlexiCore4Netlist},
        {"fc8", &buildFlexiCore8Netlist},
        {"extacc4", &buildExtAcc4Netlist},
        {"loadstore4", &buildLoadStore4Netlist},
    };

    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        auto fast = design.build();
        fast->enableToggles(true);
        auto ref = fast->clone();   // identical structure and state
        Rng rng(deriveSeed(0xD1FFu, fast->numNets()));

        std::vector<std::string> input_names;
        for (const auto &[in_name, net] : fast->primaryInputs())
            input_names.push_back(in_name);

        for (int cycle = 0; cycle < 60; ++cycle) {
            // Fresh random stimulus on every primary input.
            for (const auto &in_name : input_names) {
                bool v = rng.chance(0.5);
                fast->setInput(in_name, v);
                ref->setInput(in_name, v);
            }
            // Occasionally add a stuck-at fault, a short transient
            // window or a latch upset (and once, clear them all) so
            // the force paths are exercised in every combination
            // with the word-op dispatch.
            if (cycle == 30) {
                fast->clearFaults();
                ref->clearFaults();
                fast->clearTransients();
                ref->clearTransients();
            } else if (cycle % 7 == 3) {
                StuckFault f;
                f.net = static_cast<NetId>(
                    rng.below(fast->numNets()));
                f.value = rng.chance(0.5);
                fast->injectFault(f);
                ref->injectFault(f);
            } else if (cycle % 5 == 1) {
                TransientFault t;
                t.net = static_cast<NetId>(
                    rng.below(fast->numNets()));
                t.value = rng.chance(0.5);
                t.fromCycle = fast->cycle() + rng.below(3);
                t.untilCycle = t.fromCycle + 1 + rng.below(3);
                fast->injectTransient(t);
                ref->injectTransient(t);
            } else if (cycle % 11 == 6) {
                size_t d = rng.below(fast->numDffs());
                fast->flipDff(d);
                ref->flipDff(d);
            }

            fast->evaluate();
            ref->evaluateReference();
            fast->clockEdge();
            ref->clockEdge();
            fast->evaluate();
            ref->evaluateReference();

            for (NetId n = 0;
                 n < static_cast<NetId>(fast->numNets()); ++n) {
                ASSERT_EQ(fast->netValue(n), ref->netValue(n))
                    << "cycle " << cycle << " net " << n;
            }
            ASSERT_EQ(fast->toggleCounts(), ref->toggleCounts())
                << "cycle " << cycle;
        }
    }
}

// ---------------------------------------------------------------
// Cloning and bus handles
// ---------------------------------------------------------------

TEST(Netlist, CloneSharesStructureButNotState)
{
    auto nl = buildFlexiCore4Netlist();
    BusHandle instr = nl->inputBus("instr", 8);
    nl->setBus(instr, 0xA5);
    nl->evaluate();
    nl->clockEdge();

    auto copy = nl->clone();
    EXPECT_EQ(copy->numNets(), nl->numNets());
    EXPECT_EQ(copy->numCells(), nl->numCells());
    EXPECT_EQ(copy->bus("pc", 7), nl->bus("pc", 7));

    // Diverge the clone: faults and inputs on the copy must not
    // leak back into the original.
    NetId victim = nl->cells()[100].output;
    copy->injectFault({victim, true});
    copy->setBus(instr, 0x5A);
    copy->evaluate();
    EXPECT_TRUE(nl->faults().empty());
    EXPECT_EQ(nl->bus(instr), 0xA5u);

    nl->reset();
    EXPECT_EQ(copy->faults().size(), 1u);
}

TEST(Netlist, CloneOfUnelaboratedNetlistIsRejected)
{
    Netlist nl("t");
    nl.addInput("a");
    EXPECT_THROW(nl.clone(), std::logic_error);
}

TEST(Netlist, OutputsOfUnelaboratedNetlistAreRejected)
{
    // Instance state exists only after elaborate(): reading a pad
    // before that must fail cleanly, not index missing state.
    Netlist nl("t");
    NetId a = nl.addInput("a");
    nl.addOutput("y", a);
    EXPECT_THROW(nl.output("y"), std::logic_error);
    EXPECT_THROW(nl.bus("y", 1), std::logic_error);
}

TEST(Netlist, BusHandleMatchesStringLookup)
{
    auto nl = buildFlexiCore4Netlist();
    BusHandle instr = nl->inputBus("instr", 8);
    BusHandle pc = nl->outputBus("pc", 7);
    EXPECT_EQ(instr.width(), 8u);
    EXPECT_EQ(pc.width(), 7u);

    const auto &inputs = nl->primaryInputs();
    for (unsigned v : {0x00u, 0xFFu, 0xA5u, 0x3Cu}) {
        // Handle-based write, checked bit-by-bit against the named
        // nets the string API resolves.
        nl->setBus(instr, v);
        for (unsigned i = 0; i < 8; ++i) {
            NetId bit = inputs.at("instr" + std::to_string(i));
            EXPECT_EQ(nl->netValue(bit), ((v >> i) & 1u) != 0);
        }
        // String-based write, read back through the handle.
        nl->setBus("instr", 8, v ^ 0xFF);
        EXPECT_EQ(nl->bus(instr), v ^ 0xFFu);
    }
    nl->evaluate();
    EXPECT_EQ(nl->bus(pc), nl->bus("pc", 7));

    // Handles stay valid on clones: same structure, same numbering.
    auto copy = nl->clone();
    copy->setBus(instr, 0x77);
    EXPECT_EQ(copy->bus(instr), 0x77u);
    EXPECT_EQ(nl->bus(instr), 0xC3u);
}

TEST(Netlist, BusHandleDirectionIsEnforced)
{
    auto nl = buildFlexiCore4Netlist();
    EXPECT_THROW(nl->inputBus("pc", 7), std::logic_error);
    EXPECT_THROW(nl->outputBus("instr", 8), std::logic_error);
    BusHandle pc = nl->outputBus("pc", 7);
    EXPECT_THROW(nl->setBus(pc, 1), std::logic_error);
}

TEST(Netlist, FaultOnConstantNetCannotCorruptLutPadding)
{
    // Unused evaluation-plan input slots are padded with the scratch
    // net, not const0, precisely so that a stuck-at-1 fault on the
    // constant nets cannot flip the unused LUT index bits of 1- and
    // 2-input cells. An INV must still behave as INV with const0
    // stuck high.
    Netlist nl("t");
    Builder b(nl, "m");
    NetId a = nl.addInput("a");
    NetId y = b.inv(a);
    nl.addOutput("y", y);
    nl.elaborate();

    nl.injectFault({nl.zero(), true});
    nl.injectFault({nl.one(), false});
    nl.setInput("a", false);
    nl.evaluate();
    EXPECT_TRUE(nl.output("y"));
    nl.setInput("a", true);
    nl.evaluate();
    EXPECT_FALSE(nl.output("y"));
}

} // namespace
} // namespace flexi
