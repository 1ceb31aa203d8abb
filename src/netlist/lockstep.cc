#include "lockstep.hh"

#include "common/logging.hh"
#include "isa/encoding.hh"
#include "sim/core_sim.hh"

namespace flexi
{

LockstepResult
runLockstep(Netlist &netlist, IsaKind isa, const Program &prog,
            const std::vector<uint8_t> &inputs,
            uint64_t max_instructions)
{
    if (!netlist.elaborated())
        fatal("netlist must be elaborated");

    bool wide_bus = wideFetch(isa);
    bool word_pc = isa == IsaKind::LoadStore4;

    unsigned w = isaDataWidth(isa);
    const std::vector<uint8_t> &image = prog.page(0);
    auto fetch = [&](unsigned pc) -> uint8_t {
        return pc < image.size() ? image[pc] : 0;
    };

    // Resolve every pad bus once; the per-cycle loop below then
    // never touches a name map or builds a string.
    Pads pads = padsOf(netlist, isa);

    HeldInputEnv env;
    TimingConfig cfg;
    cfg.isa = isa;
    CoreSim golden(cfg, prog, env);

    netlist.reset();

    LockstepResult res;
    size_t input_idx = 0;

    while (res.instructions < max_instructions && !golden.halted()) {
        // Decode at the *golden* PC to know whether this instruction
        // samples the input bus; both models then see the same value.
        DecodeResult dec = decodeAt(isa, image, golden.pc());
        if (readsInput(dec.inst) && input_idx < inputs.size())
            env.held = inputs[input_idx++] &
                       static_cast<uint8_t>((1u << w) - 1u);

        // Drive the die for as many cycles as the instruction takes,
        // fetching from the netlist's own PC pads.
        unsigned cycles = wide_bus ? 1 : dec.bytes;
        for (unsigned c = 0; c < cycles; ++c) {
            unsigned die_pc = netlist.bus(pads.pc);
            if (wide_bus) {
                unsigned base = word_pc ? die_pc * 2 : die_pc;
                netlist.setBus(pads.instr,
                               fetch(base) | (fetch(base + 1) << 8));
            } else {
                netlist.setBus(pads.instr, fetch(die_pc));
            }
            netlist.setBus(pads.iport, env.held);
            netlist.evaluate();
            netlist.clockEdge();
            netlist.evaluate();   // expose new state on the pads
            ++res.cycles;
        }

        golden.step();
        ++res.instructions;

        if (netlist.bus(pads.pc) != golden.pc())
            ++res.errors;
        if (netlist.bus(pads.oport) != golden.outputLatch())
            ++res.errors;
    }

    res.outputs = std::move(env.outputs);
    return res;
}

LockstepGroupResult
runLockstepGroup(LaneGroup &group, const Netlist &golden_netlist,
                 const GoldenTape &tape, bool early_exit)
{
    if (!golden_netlist.elaborated())
        fatal("netlist must be elaborated");
    if (tape.multiPage())
        fatal("lockstep runs are single-page");

    Pads pads = padsOf(golden_netlist, tape.isa());
    // Between clockEdge() and the pad sample only the PC/OPORT pads
    // are read, so the post-edge evaluate is narrowed to their
    // fan-in cones — exact for those nets, and a fraction of the
    // full plan.
    LaneGroup::PadCone pad_cone = group.padCone({&pads.pc, &pads.oport});

    group.reset();

    LockstepGroupResult res;
    unsigned words = group.words();
    for (unsigned wd = 0; wd < words; ++wd)
        res.activeMask[wd] = group.laneMaskWord(wd);

    // Drive the input bus once up front and again only when the held
    // value changes: between changes the pads already carry it.
    uint8_t held = 0;
    group.setBus(pads.iport, held);

    for (size_t k = 0; k < tape.last(); ++k) {
        const GoldenTape::Point &p = tape.at(k);
        if (p.held != held) {
            held = p.held;
            group.setBus(pads.iport, held);
        }
        for (unsigned c = 0; c < p.cycles; ++c) {
            tape.driveFetch(group, pads, p.page);
            group.evaluate();
            group.clockEdge();
            group.exposeState(pad_cone);
        }
        const GoldenTape::Point &next = tape.at(k + 1);
        res.instructions = k + 1;
        res.cycles = next.elapsed;

        // Compare both pads against the golden core in the bit
        // domain: a handful of XORs per bus bit replaces a per-lane
        // gather, and the mismatch masks drive the per-lane error
        // counts and the early-exit mask directly.
        std::array<uint64_t, LaneGroup::kMaxWords> pc_diff;
        std::array<uint64_t, LaneGroup::kMaxWords> op_diff;
        group.busMismatch(pads.pc, next.pc, pc_diff.data());
        group.busMismatch(pads.oport, next.latch, op_diff.data());
        uint64_t active = 0;
        for (unsigned wd = 0; wd < words; ++wd) {
            uint64_t live = early_exit ? res.activeMask[wd] : ~0ull;
            uint64_t pd = pc_diff[wd] & live;
            uint64_t od = op_diff[wd] & live;
            uint64_t any = pd | od;
            while (pd) {
                res.errors[wd * 64 + __builtin_ctzll(pd)] += 1;
                pd &= pd - 1;
            }
            while (od) {
                res.errors[wd * 64 + __builtin_ctzll(od)] += 1;
                od &= od - 1;
            }
            res.activeMask[wd] &= ~any;
            active |= res.activeMask[wd];
        }
        if (early_exit && !active)
            break;
    }
    return res;
}

LockstepGroupResult
runLockstepGroup(LaneGroup &group, const Netlist &golden_netlist,
                 IsaKind isa, const Program &prog,
                 const std::vector<uint8_t> &inputs,
                 uint64_t max_instructions, bool early_exit)
{
    return runLockstepGroup(
        group, golden_netlist,
        GoldenTape(isa, prog, inputs, max_instructions), early_exit);
}

} // namespace flexi
