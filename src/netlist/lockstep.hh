/**
 * @file
 * Lockstep execution of a gate-level FlexiCore netlist against the
 * architectural simulator.
 *
 * This reproduces the paper's wafer-test methodology (Section 4.1):
 * "A test pattern derived from a Verilog simulation was translated to
 * input signals ... We count a core as fully-functional if there are
 * zero measured differences between its output and the expected
 * output as determined by RTL simulation across all test vectors."
 *
 * Here the netlist plays the part of the die, the CoreSim plays the
 * RTL golden model, and the harness plays the NI digital pattern
 * instrument: it drives the instruction bus from the netlist's own
 * PC pins (so a faulty PC fetches the wrong instruction, exactly as
 * on the probe station) and compares the PC and OPORT pads every
 * cycle.
 *
 * runLockstepGroup() drives up to 512 dies per pass against a
 * GoldenTape; the wafer study and ATPG run through it. runLockstep()
 * steps one die beside its own CoreSim: the oracle the group engine
 * is tested against.
 */

#ifndef FLEXI_NETLIST_LOCKSTEP_HH
#define FLEXI_NETLIST_LOCKSTEP_HH

#include <array>
#include <cstdint>
#include <vector>

#include "assembler/program.hh"
#include "netlist/golden_tape.hh"
#include "netlist/lane_group.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/** Result of a lockstep run. */
struct LockstepResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    /** Cycles on which PC or OPORT pads differed from golden. */
    uint64_t errors = 0;
    /** Output-port write events observed on the golden model. */
    std::vector<uint8_t> outputs;
};

/**
 * Run @p netlist in lockstep with its own CoreSim executing @p prog
 * (page 0 only — the probe-station tests are single-page): the
 * scalar oracle of runLockstepGroup().
 *
 * @param netlist an elaborated core netlist (possibly with injected
 *        faults)
 * @param isa which ISA the netlist implements
 * @param prog the test program
 * @param inputs values appearing on the input bus; each architectural
 *        read of data address 0 consumes the next one (the last value
 *        is held once exhausted)
 * @param max_instructions instruction budget
 */
LockstepResult runLockstep(Netlist &netlist, IsaKind isa,
                           const Program &prog,
                           const std::vector<uint8_t> &inputs,
                           uint64_t max_instructions);

/** Result of a wide-lane (up to 512 lanes) lockstep run. */
struct LockstepGroupResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    /**
     * Lanes whose PC and OPORT pads matched golden on every compared
     * instruction: bit L of word w = lane w*64 + L still clean.
     */
    std::array<uint64_t, LaneGroup::kMaxWords> activeMask{};
    /** Per-lane pad-mismatch count (as LockstepResult::errors). */
    std::array<uint64_t, LaneGroup::kMaxLanes> errors{};

    bool
    laneClean(unsigned lane) const
    {
        return (activeMask[lane / 64] >> (lane % 64)) & 1ull;
    }
};

/**
 * Drive all lanes of @p group — up to LaneGroup::kMaxLanes dies per
 * pass through the compiled fused-run plan — in lockstep with the
 * golden run recorded on @p tape. Each lane fetches from its *own*
 * PC pads (a faulty lane chases its own wrong-path instruction
 * stream, as on the probe station) while the input port and the
 * expected pads are shared, so per-lane error counts are
 * bit-identical to running each faulted die through runLockstep()
 * with the tape's program, inputs and instruction budget (for a tape
 * recorded with no cycle budget or output target). Between
 * clockEdge() and the pad sample the runner re-evaluates only the
 * PC/OPORT pad cones (LaneGroup::exposeState), which is exact for
 * the compared pads. The tape must be of a single-page program, as
 * runLockstep() runs page 0 only; one tape serves any number of
 * groups, on any thread.
 *
 * @param golden_netlist the elaborated netlist the group was built
 *        from (or any clone sharing its structure); used only to
 *        resolve the pad buses
 * @param early_exit retire a lane at its first pad mismatch (its
 *        error count stops accumulating but stays >= 1) and stop the
 *        whole group once every lane has diverged. Exact per-lane
 *        error totals are only preserved with early_exit = false.
 */
LockstepGroupResult runLockstepGroup(LaneGroup &group,
                                     const Netlist &golden_netlist,
                                     const GoldenTape &tape,
                                     bool early_exit);

/**
 * runLockstepGroup() against a tape recorded for this call: @p isa
 * running @p prog on @p inputs for at most @p max_instructions.
 */
LockstepGroupResult runLockstepGroup(LaneGroup &group,
                                     const Netlist &golden_netlist,
                                     IsaKind isa, const Program &prog,
                                     const std::vector<uint8_t> &inputs,
                                     uint64_t max_instructions,
                                     bool early_exit);

} // namespace flexi

#endif // FLEXI_NETLIST_LOCKSTEP_HH
