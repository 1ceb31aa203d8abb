/**
 * @file
 * The golden side of every lane-parallel lockstep run, and the
 * helpers the lockstep drivers share.
 *
 * A die passes only if its pads match the golden model on every test
 * vector (Section 4.1). Whatever drives the dies — the wafer study's
 * and ATPG's lane groups, the checked runtime's prescreen and lane
 * runner — the golden model runs one program on one input stream, so
 * it is recorded once as a read-only tape that serves every group of
 * a call, on any thread. Its last point is also the fault-free run
 * itself: a population's baseline length, in elapsed die cycles, is
 * read off it, not simulated again. Only the scalar oracles,
 * runLockstep() and runChecked(), step a CoreSim of their own.
 */

#ifndef FLEXI_NETLIST_GOLDEN_TAPE_HH
#define FLEXI_NETLIST_GOLDEN_TAPE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "assembler/program.hh"
#include "isa/isa.hh"
#include "netlist/lane_group.hh"
#include "netlist/netlist.hh"
#include "sim/environment.hh"

namespace flexi
{

/** Environment returning a value chosen by the harness per step. */
class HeldInputEnv : public Environment
{
  public:
    uint8_t readInput() override { return held; }
    void
    writeOutput(uint8_t value) override
    {
        outputs.push_back(value);
    }

    uint8_t held = 0;
    std::vector<uint8_t> outputs;
};

/** Does this instruction architecturally sample the input bus? */
bool readsInput(const Instruction &inst);

/** Do the core's instructions arrive as one 16-bit word, one per
 *  cycle? (The DSE cores'; LoadStore4's PC counts words.) */
bool wideFetch(IsaKind isa);

/** What the instr bus reads at each PC of one page. */
using FetchTable = std::array<uint16_t, kPageSize>;

/**
 * The instr bus of @p isa at every PC of one page @p image: one byte
 * at pc on the narrow cores, a 16-bit word on the wide ones
 * (LoadStore4 addresses words at pc*2), zeros past the image. The
 * golden tape, the model checker's ROM closure and its witness
 * simulation all fetch through this one table.
 */
FetchTable fetchTable(IsaKind isa, const std::vector<uint8_t> &image);

/** The pads the lockstep drivers drive and sample. */
struct Pads
{
    BusHandle pc, instr, iport, oport;
};

/** @p die's pad buses, resolved once per run. */
Pads padsOf(const Netlist &die, IsaKind isa);

/** Incremental CRC-8 (poly 0x07) used by the output detector. */
uint8_t crc8(uint8_t crc, uint8_t byte);

/**
 * The golden model's trajectory over one run, indexed by instruction
 * count k, and what each page feeds a die at each PC. Rollback and
 * restart only move a die back to an earlier k, so a per-lane cursor
 * replaces golden copies.
 */
class GoldenTape
{
  public:
    /** PC pads are 7 bits wide on every core. */
    static constexpr unsigned kPcSpace = kPageSize;

    /** The golden model after k instructions, and instruction k. */
    struct Point
    {
        unsigned pc = 0;
        uint8_t latch = 0;      ///< OPORT latch
        uint8_t crc = 0;        ///< CRC-8 of the outputs so far
        bool done = false;
        uint32_t outputs = 0;   ///< golden outputs so far
        /** Die cycles a golden-tracking die has driven by now. */
        uint64_t elapsed = 0;
        /** @name Instruction k (unset on the last point) */
        ///@{
        /** Page a golden-tracking die fetches it from. */
        unsigned page = 0;
        uint8_t cycles = 0;     ///< die cycles it takes
        uint8_t held = 0;       ///< input-bus value while it runs
        bool ioWrite = false;
        bool takenBranch = false;
        ///@}
    };

    /**
     * Run the golden model of @p isa on @p prog to the end of the
     * run: the first point that is done — halted, or @p targetOutputs
     * outputs written when nonzero — or where @p maxInstructions or
     * @p maxCycles runs out; no die can get further along the tape.
     * Each architectural read of the input bus consumes the next of
     * @p inputs, the last held once they run out. Multi-page programs
     * page through an off-chip MMU, as in runChecked().
     */
    GoldenTape(IsaKind isa, const Program &prog,
               const std::vector<uint8_t> &inputs,
               uint64_t maxInstructions, uint64_t maxCycles = ~0ull,
               size_t targetOutputs = 0);

    IsaKind isa() const { return isa_; }
    const Point &at(size_t k) const { return points_[k]; }
    /** Index of the last point: done, or out of budget. */
    size_t last() const { return points_.size() - 1; }
    /** The whole golden output stream. */
    const std::vector<uint8_t> &outputs() const { return outputs_; }

    bool multiPage() const { return fetch_.size() > 1; }

    /** What page @p page feeds a die whose PC pads read pc (past a
     *  page's image, and on pages never filled, the bus reads 0).
     *  Inline: the lane runner looks it up per lane per cycle. */
    const FetchTable &
    fetch(unsigned page) const
    {
        static const FetchTable kUnmapped{};
        return page < fetch_.size() ? fetch_[page] : kUnmapped;
    }

    /**
     * One die cycle's instruction fetch for every lane of @p group:
     * each lane reads page @p page at its own PC pads, so a faulty
     * lane chases its own wrong-path instruction stream, as on the
     * probe station.
     */
    void driveFetch(LaneGroup &group, const Pads &pads,
                    unsigned page) const;

  private:
    IsaKind isa_;
    std::vector<Point> points_;
    std::vector<uint8_t> outputs_;
    std::vector<FetchTable> fetch_;
    /** fetch_ as bytes: the narrow cores' fused table drive. */
    std::vector<std::array<uint8_t, kPcSpace>> fetchBytes_;
};

} // namespace flexi

#endif // FLEXI_NETLIST_GOLDEN_TAPE_HH
