/**
 * @file
 * Differential tests for the wide-lane compiled evaluator.
 *
 * The contract under test: every lane of a LaneGroup is bit-identical
 * to a Netlist instance carrying the same fault state and stimulus
 * and stepped with the cell-by-cell reference interpreter
 * (evaluateReference()) — on all four fabricated cores, at every
 * group width (1 word / 4 words / 8 words) and at the word-boundary
 * lane counts (1, 63, 64, 65, 255, 256, 512), down to per-lane
 * toggle counts. The group lockstep harness must likewise reproduce
 * runLockstep() per lane, including its pad-cone exposeState()
 * shortcut.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lane_group.hh"
#include "netlist/lockstep.hh"
#include "netlist/netlist.hh"
#include "yield/test_program.hh"

namespace flexi
{
namespace
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

/**
 * Drive two @p width lane groups and @p width reference mirrors — one
 * Netlist clone per lane, stepped with evaluateReference() — with the
 * same random stimulus and per-lane fault schedule for @p cycles
 * cycles, asserting every net of every lane of both groups matches
 * after each evaluate, and every per-cell toggle count at the end.
 * One group counts toggles; the other runs the production path
 * (force-split blend-free runs, sparse primary-force writes), which
 * the counting path never takes.
 */
void
runDifferential(const Design &design, unsigned width, int cycles,
                uint64_t seed)
{
    auto golden = design.build();
    LaneGroup counting(*golden, width);
    LaneGroup plain(*golden, width);
    ASSERT_EQ(counting.lanes(), width);
    ASSERT_EQ(counting.words(), LaneGroup::wordsFor(width));
    counting.enableToggles(true);
    LaneGroup *groups[] = {&counting, &plain};

    std::vector<std::unique_ptr<Netlist>> refs(width);
    for (auto &ref : refs) {
        ref = golden->clone();
        ref->enableToggles(true);
    }

    std::vector<std::string> input_names;
    for (const auto &[in_name, net] : golden->primaryInputs())
        input_names.push_back(in_name);
    unsigned instr_width = 0;
    while (golden->primaryInputs().count(
        "instr" + std::to_string(instr_width)))
        ++instr_width;
    BusHandle instr = golden->inputBus("instr", instr_width);
    size_t nets = golden->numNets();
    size_t dffs = golden->numDffs() ? golden->numDffs() : 1;
    unsigned words = counting.words();

    Rng rng(deriveSeed(seed, width));
    std::array<uint64_t, LaneGroup::kMaxWords> bits{};
    for (int cycle = 0; cycle < cycles; ++cycle) {
        // Independent random stimulus per lane on every input...
        for (const auto &in_name : input_names) {
            for (unsigned w = 0; w < words; ++w)
                bits[w] = rng.next();
            for (LaneGroup *g : groups)
                g->setInputLanes(in_name, bits.data());
            for (unsigned lane = 0; lane < width; ++lane)
                refs[lane]->setInput(
                    in_name, (bits[lane / 64] >> (lane % 64)) & 1ull);
        }
        // ...except the instruction bus, which carries one uniform
        // setBus() value on every lane.
        unsigned instr_value =
            static_cast<unsigned>(rng.below(1u << instr_width));
        for (LaneGroup *g : groups)
            g->setBus(instr, instr_value);
        for (auto &ref : refs)
            ref->setBus(instr, instr_value);

        // Per-lane fault traffic: stuck-ats land on random lanes
        // early, transients open short absolute-cycle windows
        // mid-run, latch upsets flip, then everything is cleared so
        // the post-clear state is compared too.
        if (cycle % 6 == 2 && cycle < cycles / 2) {
            for (unsigned lane = 0; lane < width; ++lane) {
                if (!rng.chance(0.4))
                    continue;
                StuckFault f;
                f.net = static_cast<NetId>(rng.below(nets));
                f.value = rng.chance(0.5);
                for (LaneGroup *g : groups)
                    g->injectFault(lane, f);
                refs[lane]->injectFault(f);
            }
        }
        if (cycle % 9 == 4) {
            for (unsigned lane = 0; lane < width; ++lane) {
                if (!rng.chance(0.4))
                    continue;
                TransientFault t;
                t.net = static_cast<NetId>(rng.below(nets));
                t.value = rng.chance(0.5);
                t.fromCycle = counting.cycle() + rng.below(3);
                t.untilCycle = t.fromCycle + 1 + rng.below(3);
                for (LaneGroup *g : groups)
                    g->injectTransient(lane, t);
                refs[lane]->injectTransient(t);
            }
        }
        if (cycle % 11 == 7) {
            for (unsigned lane = 0; lane < width; ++lane) {
                if (!rng.chance(0.3))
                    continue;
                size_t d = rng.below(dffs);
                for (LaneGroup *g : groups)
                    g->flipDff(lane, d);
                refs[lane]->flipDff(d);
            }
        }
        if (cycle == (2 * cycles) / 3) {
            for (LaneGroup *g : groups) {
                g->clearFaults();
                g->clearTransients();
            }
            for (auto &ref : refs) {
                ref->clearFaults();
                ref->clearTransients();
            }
        }

        for (LaneGroup *g : groups) {
            g->evaluate();
            g->clockEdge();
            g->evaluate();
        }
        for (auto &ref : refs) {
            ref->evaluateReference();
            ref->clockEdge();
            ref->evaluateReference();
        }
        ASSERT_EQ(counting.cycle(), refs[0]->cycle());

        for (unsigned lane = 0; lane < width; ++lane) {
            for (NetId n = 0; n < static_cast<NetId>(nets); ++n) {
                bool want = refs[lane]->netValue(n);
                for (LaneGroup *g : groups) {
                    if (g->netValue(n, lane) != want) {
                        FAIL() << design.name << " width " << width
                               << " cycle " << cycle << " lane " << lane
                               << " net " << n << ": "
                               << (g == &plain ? "plain" : "counting")
                               << " group vs reference " << want;
                    }
                }
            }
        }
    }

    // Per-lane toggle counts, accumulated over the whole faulted
    // run.
    for (unsigned lane = 0; lane < width; ++lane)
        ASSERT_EQ(counting.toggleCounts(lane),
                  refs[lane]->toggleCounts())
            << design.name << " width " << width << " lane " << lane;
}

TEST(LaneGroup, OneWordWidthsMatchScalarAndReferenceAllCores)
{
    // W=1: the degenerate one-lane case every Netlist runs on, the
    // dead-top-lane boundary, and the full word.
    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        runDifferential(design, 1, 30, 0x6AB1u);
        runDifferential(design, 63, 30, 0x6AB63u);
        runDifferential(design, 64, 30, 0x6AB64u);
    }
}

TEST(LaneGroup, FourWordWidthsMatchScalarAndReferenceAllCores)
{
    // W=4: one lane past a word boundary (65 -> three dead words
    // and a nearly-dead second word) and the full/partial 256-lane
    // group. Dead-word bits must never leak into live lanes.
    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        runDifferential(design, 65, 20, 0x6AB65u);
        runDifferential(design, 255, 14, 0x6AB255u);
        runDifferential(design, 256, 14, 0x6AB256u);
    }
}

TEST(LaneGroup, EightWordFullWidthMatchesScalarAndReferenceAllCores)
{
    // W=8: the full 512-lane group the drivers default to.
    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        runDifferential(design, 512, 10, 0x6AB512u);
    }
}

TEST(LaneGroup, ResetRestoresPowerOnState)
{
    auto golden = buildFlexiCore4Netlist();
    LaneGroup group(*golden, 130);
    StuckFault f{static_cast<NetId>(7), true};
    group.injectFault(129, f);
    for (int i = 0; i < 10; ++i) {
        group.evaluate();
        group.clockEdge();
    }
    uint64_t before = group.cycle();
    group.reset();
    EXPECT_EQ(group.cycle(), before)
        << "cycle() is monotonic across reset, as on the scalar";

    // A freshly-built scalar with the same fault must agree from the
    // first post-reset cycle.
    auto mirror = golden->clone();
    mirror->injectFault(f);
    mirror->reset();
    group.evaluate();
    mirror->evaluate();
    for (NetId n = 0; n < static_cast<NetId>(golden->numNets()); ++n)
        ASSERT_EQ(group.netValue(n, 129), mirror->netValue(n))
            << "net " << n;
}

TEST(LaneGroup, LaneResetMatchesScalarResetAndSparesNeighbours)
{
    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        auto golden = design.build();
        size_t nets = golden->numNets();
        std::vector<std::string> input_names;
        for (const auto &[in_name, net] : golden->primaryInputs())
            input_names.push_back(in_name);

        // Scramble every lane of a two-word group (and a scalar die)
        // with random stimulus, a stuck-at on the reset lane included.
        const unsigned kReset = 65;
        Rng rng(0x5E7A1Eull ^ nets);
        LaneGroup group(*golden, 130);
        auto mirror = golden->clone();
        StuckFault f{static_cast<NetId>(rng.below(nets)), true};
        group.injectFault(kReset, f);
        mirror->injectFault(f);
        for (int cycle = 0; cycle < 6; ++cycle) {
            for (const auto &in_name : input_names) {
                std::array<uint64_t, LaneGroup::kMaxWords> bits{};
                for (auto &w : bits)
                    w = rng.next();
                group.setInputLanes(in_name, bits.data());
                mirror->setInput(in_name, rng.chance(0.5));
            }
            group.evaluate();
            group.clockEdge();
            mirror->evaluate();
            mirror->clockEdge();
        }
        group.evaluate();
        mirror->evaluate();

        std::vector<std::vector<uint8_t>> before;
        for (unsigned lane = 0; lane < group.lanes(); ++lane) {
            std::vector<uint8_t> v;
            for (NetId n = 0; n < static_cast<NetId>(nets); ++n)
                v.push_back(group.netValue(n, lane));
            before.push_back(std::move(v));
        }
        std::vector<uint8_t> neighbourDff = group.saveDffState(64);

        group.reset(kReset);
        mirror->reset();
        EXPECT_EQ(group.saveDffState(kReset), mirror->saveDffState());
        for (NetId n = 0; n < static_cast<NetId>(nets); ++n)
            ASSERT_EQ(group.netValue(n, kReset), mirror->netValue(n))
                << "net " << n;
        for (unsigned lane = 0; lane < group.lanes(); ++lane) {
            if (lane == kReset)
                continue;
            for (NetId n = 0; n < static_cast<NetId>(nets); ++n)
                ASSERT_EQ(group.netValue(n, lane), before[lane][n])
                    << "lane " << lane << ", net " << n;
        }
        EXPECT_EQ(group.saveDffState(64), neighbourDff);
    }
}

TEST(LaneGroup, ExposeStateMatchesFullEvaluateOnPads)
{
    // exposeState(padCone) must read back exactly what a full
    // evaluate() would on the cone's pads, on every core, with
    // per-lane faults in play.
    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        auto golden = design.build();
        BusHandle pc = golden->outputBus("pc", 7);
        unsigned data_w = 0;
        while (golden->findNet("oport" + std::to_string(data_w)) !=
               kNoNet)
            ++data_w;
        BusHandle oport = golden->outputBus("oport", data_w);

        unsigned width = 70;
        LaneGroup a(*golden, width);
        LaneGroup b(*golden, width);
        LaneGroup::PadCone cone = a.padCone({&pc, &oport});
        ASSERT_FALSE(cone.steps.empty());

        std::vector<std::string> input_names;
        for (const auto &[in_name, net] : golden->primaryInputs())
            input_names.push_back(in_name);

        Rng rng(0xC0DEu);
        std::array<uint64_t, LaneGroup::kMaxWords> bits{};
        for (int cycle = 0; cycle < 25; ++cycle) {
            if (cycle == 2) {
                for (unsigned lane = 0; lane < width; lane += 4) {
                    StuckFault f;
                    f.net = static_cast<NetId>(
                        rng.below(golden->numNets()));
                    f.value = rng.chance(0.5);
                    a.injectFault(lane, f);
                    b.injectFault(lane, f);
                }
            }
            for (const auto &in_name : input_names) {
                for (unsigned k = 0; k < a.words(); ++k)
                    bits[k] = rng.next();
                a.setInputLanes(in_name, bits.data());
                b.setInputLanes(in_name, bits.data());
            }
            a.evaluate();
            a.clockEdge();
            a.evaluate();   // full post-edge evaluate
            b.evaluate();
            b.clockEdge();
            b.exposeState(cone);   // narrowed post-edge evaluate
            for (unsigned lane = 0; lane < width; ++lane) {
                ASSERT_EQ(a.bus(pc, lane), b.bus(pc, lane))
                    << "cycle " << cycle << " lane " << lane;
                ASSERT_EQ(a.bus(oport, lane), b.bus(oport, lane))
                    << "cycle " << cycle << " lane " << lane;
            }
        }
    }
}

TEST(LaneGroup, LockstepGroupMatchesScalarLockstep)
{
    // The wafer-study inner loop at a width crossing the word
    // boundary: per-lane error totals from one group lockstep pass
    // (pad-cone exposeState shortcut and all) equal scalar
    // runLockstep() runs with the same per-die fault sets.
    auto golden = buildFlexiCore4Netlist();
    Program prog = makeTestProgram(IsaKind::FlexiCore4, 3);
    auto inputs = makeTestInputs(IsaKind::FlexiCore4, 128, 3);
    const uint64_t kBudget = 300;

    Rng rng(0xD1E5EEDull);
    unsigned width = 96;
    LaneGroup group(*golden, width);
    std::vector<std::vector<StuckFault>> faults(width);
    for (unsigned lane = 0; lane < width; ++lane) {
        // Lane 0 stays fault-free; others get 1-3 stuck-ats.
        unsigned n = lane ? 1 + static_cast<unsigned>(rng.below(3))
                          : 0;
        for (unsigned k = 0; k < n; ++k) {
            StuckFault f;
            f.net =
                static_cast<NetId>(rng.below(golden->numNets()));
            f.value = rng.chance(0.5);
            faults[lane].push_back(f);
            group.injectFault(lane, f);
        }
    }

    LockstepGroupResult res = runLockstepGroup(
        group, *golden, IsaKind::FlexiCore4, prog, inputs, kBudget,
        /*early_exit=*/false);

    for (unsigned lane = 0; lane < width; ++lane) {
        auto die = golden->clone();
        for (const StuckFault &f : faults[lane])
            die->injectFault(f);
        LockstepResult scalar = runLockstep(
            *die, IsaKind::FlexiCore4, prog, inputs, kBudget);
        EXPECT_EQ(res.errors[lane], scalar.errors) << "lane " << lane;
        EXPECT_EQ(res.laneClean(lane), scalar.errors == 0)
            << "lane " << lane;
    }
    EXPECT_TRUE(res.laneClean(0))
        << "fault-free lane 0 must stay clean";

    // Early exit must not change which lanes are clean, only how
    // much error counting the dirty lanes receive.
    LaneGroup group2(*golden, width);
    for (unsigned lane = 0; lane < width; ++lane)
        for (const StuckFault &f : faults[lane])
            group2.injectFault(lane, f);
    LockstepGroupResult fast = runLockstepGroup(
        group2, *golden, IsaKind::FlexiCore4, prog, inputs, kBudget,
        /*early_exit=*/true);
    EXPECT_EQ(fast.activeMask, res.activeMask);
    for (unsigned lane = 0; lane < width; ++lane) {
        EXPECT_LE(fast.errors[lane], res.errors[lane]) << lane;
        if (res.laneClean(lane))
            EXPECT_EQ(fast.errors[lane], 0u) << lane;
    }
}

TEST(LaneGroup, ByteBusPathsMatchGenericPaths)
{
    // The lockstep fast paths — setBusLanesBytes, gatherBusBytes,
    // busMismatch, and the fused driveBusFromTable fetch — must be
    // indistinguishable from the generic setBusLanes / gatherBus /
    // per-lane bus() routes, across group widths and with per-lane
    // faults in play.
    auto golden = buildFlexiCore4Netlist();
    BusHandle instr = golden->inputBus("instr", 8);
    BusHandle iport = golden->inputBus("iport", 4);
    BusHandle pc = golden->outputBus("pc", 7);

    // Fetch table padded to the full 1 << addr_width contract.
    Rng table_rng(0xF00Du);
    std::vector<uint8_t> table(size_t(1) << pc.width());
    for (auto &entry : table)
        entry = static_cast<uint8_t>(table_rng.next());

    for (unsigned width : {46u, 64u, 255u, 512u}) {
        SCOPED_TRACE(width);
        LaneGroup a(*golden, width);   // generic paths
        LaneGroup b(*golden, width);   // byte / fused paths
        Rng rng(0xBEEF00ull + width);
        for (unsigned lane = 0; lane < width; lane += 5) {
            StuckFault f;
            f.net = static_cast<NetId>(rng.below(golden->numNets()));
            f.value = rng.chance(0.5);
            a.injectFault(lane, f);
            b.injectFault(lane, f);
        }

        std::vector<uint32_t> vals32(LaneGroup::kMaxLanes);
        std::vector<uint8_t> vals8(LaneGroup::kMaxLanes);
        std::vector<uint32_t> pc32(LaneGroup::kMaxLanes);
        std::array<uint8_t, LaneGroup::kMaxLanes> pc_a{}, pc_b{};
        for (int cycle = 0; cycle < 12; ++cycle) {
            for (unsigned lane = 0; lane < width; ++lane) {
                vals8[lane] = static_cast<uint8_t>(rng.next());
                vals32[lane] = vals8[lane];
            }
            a.setBusLanes(instr, vals32.data());
            b.setBusLanesBytes(instr, vals8.data());
            a.setBus(iport, cycle & 0xF);
            b.setBus(iport, cycle & 0xF);
            a.evaluate();
            a.clockEdge();
            a.evaluate();
            b.evaluate();
            b.clockEdge();
            b.evaluate();

            // gatherBusBytes == gatherBus == per-lane bus().
            a.gatherBus(pc, pc32.data());
            a.gatherBusBytes(pc, pc_a.data());
            b.gatherBusBytes(pc, pc_b.data());
            for (unsigned lane = 0; lane < width; ++lane) {
                ASSERT_EQ(pc32[lane], uint32_t(pc_a[lane]))
                    << "cycle " << cycle << " lane " << lane;
                ASSERT_EQ(pc_a[lane], pc_b[lane])
                    << "cycle " << cycle << " lane " << lane;
                ASSERT_EQ(a.bus(pc, lane), unsigned(pc_a[lane]))
                    << "cycle " << cycle << " lane " << lane;
            }

            // busMismatch == per-lane compare; a value the bus
            // cannot represent mismatches in every live lane.
            unsigned probe =
                static_cast<unsigned>(rng.below(table.size()));
            std::array<uint64_t, LaneGroup::kMaxWords> diff{};
            std::array<uint64_t, LaneGroup::kMaxWords> over{};
            a.busMismatch(pc, probe, diff.data());
            a.busMismatch(pc, probe | (1u << pc.width()),
                          over.data());
            for (unsigned lane = 0; lane < width; ++lane) {
                bool bit = (diff[lane / 64] >> (lane % 64)) & 1;
                ASSERT_EQ(bit, a.bus(pc, lane) != probe)
                    << "cycle " << cycle << " lane " << lane;
                ASSERT_TRUE((over[lane / 64] >> (lane % 64)) & 1)
                    << "cycle " << cycle << " lane " << lane;
            }

            // driveBusFromTable == gather + table lookup + scatter.
            for (unsigned lane = 0; lane < width; ++lane)
                vals8[lane] = table[pc_a[lane]];
            a.setBusLanesBytes(instr, vals8.data());
            b.driveBusFromTable(pc, instr, table.data());
            a.evaluate();
            a.clockEdge();
            b.evaluate();
            b.clockEdge();
            for (NetId n = 0;
                 n < static_cast<NetId>(golden->numNets()); ++n)
                for (unsigned lane = 0; lane < width; lane += 3)
                    ASSERT_EQ(a.netValue(n, lane),
                              b.netValue(n, lane))
                        << "cycle " << cycle << " net " << n
                        << " lane " << lane;
        }
    }
}

/**
 * Round-trip fuzz for the per-lane DFF snapshot API: states
 * harvested from a live faulted single-die run — including saves
 * taken while a transient window is open and forcing nets — restored
 * into arbitrary lanes of LaneGroup words of every width must read
 * back bit-identically, without
 * perturbing neighbouring lanes, and regardless of any fault traffic
 * the destination lane itself carries.
 */
TEST(LaneGroup, DffStateRoundTripAcrossWidthsAndMidTransient)
{
    const unsigned kWidths[] = {1, 63, 64, 256, 512};
    for (const auto &design : kDesigns) {
        SCOPED_TRACE(design.name);
        auto golden = design.build();
        size_t nets = golden->numNets();
        size_t dffs = golden->numDffs();
        std::vector<std::string> input_names;
        for (const auto &[in_name, net] : golden->primaryInputs())
            input_names.push_back(in_name);

        // Harvest snapshots from a live faulted run: every third
        // cycle runs under an open transient window, so half the
        // saves are genuinely mid-window.
        Rng rng(0xD77F57A7Eull ^ nets);
        std::unique_ptr<Netlist> die = golden->clone();
        std::vector<std::vector<uint8_t>> snaps;
        for (int cycle = 0; cycle < 24; ++cycle) {
            if (cycle % 3 == 0) {
                TransientFault t;
                t.net = static_cast<NetId>(rng.below(nets));
                t.value = rng.chance(0.5);
                t.fromCycle = die->cycle();
                t.untilCycle = die->cycle() + 4;
                die->injectTransient(t);
            }
            for (const auto &in_name : input_names)
                die->setInput(in_name, rng.chance(0.5));
            die->evaluate();
            die->clockEdge();
            if (cycle % 11 == 7)
                die->flipDff(rng.below(dffs ? dffs : 1));
            snaps.push_back(die->saveDffState());
        }
        // Plus pure fuzz states, beyond what the core can reach.
        for (int i = 0; i < 8; ++i) {
            std::vector<uint8_t> s(dffs);
            for (auto &b : s)
                b = rng.chance(0.5);
            snaps.push_back(std::move(s));
        }

        for (unsigned width : kWidths) {
            SCOPED_TRACE(width);
            LaneGroup group(*golden, width);
            // Fault traffic on the destination does not bleed into
            // the snapshot path.
            StuckFault f{static_cast<NetId>(rng.below(nets)),
                         rng.chance(0.5)};
            group.injectFault(rng.below(width), f);
            TransientFault t;
            t.net = static_cast<NetId>(rng.below(nets));
            t.value = true;
            t.fromCycle = 0;
            t.untilCycle = 1000;
            group.injectTransient(rng.below(width), t);

            // Fill every lane with a known state, then spot-check
            // that restores read back exactly and neighbours kept
            // their own bits.
            std::vector<unsigned> laneSnap(width);
            for (unsigned lane = 0; lane < width; ++lane) {
                laneSnap[lane] =
                    static_cast<unsigned>(rng.below(snaps.size()));
                group.restoreDffState(lane, snaps[laneSnap[lane]]);
            }
            for (unsigned lane = 0; lane < width; ++lane)
                ASSERT_EQ(group.saveDffState(lane),
                          snaps[laneSnap[lane]])
                    << "lane " << lane;

            // A restored lane evolves exactly like a scalar die
            // restored from the same snapshot (no fault traffic on
            // the compared lane).
            LaneGroup clean(*golden, width);
            unsigned lane = width / 2;
            const auto &snap = snaps[snaps.size() / 2];
            clean.restoreDffState(lane, snap);
            std::unique_ptr<Netlist> mirror = golden->clone();
            mirror->restoreDffState(snap);
            for (int cycle = 0; cycle < 4; ++cycle) {
                for (const auto &in_name : input_names) {
                    bool v = rng.chance(0.5);
                    std::array<uint64_t, LaneGroup::kMaxWords>
                        bits{};
                    if (v)
                        bits.fill(~0ull);
                    clean.setInputLanes(in_name, bits.data());
                    mirror->setInput(in_name, v);
                }
                clean.evaluate();
                clean.clockEdge();
                mirror->evaluate();
                mirror->clockEdge();
            }
            ASSERT_EQ(clean.saveDffState(lane),
                      mirror->saveDffState());
        }
    }
}

} // namespace
} // namespace flexi
