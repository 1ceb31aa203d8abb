/**
 * @file
 * Transition-relation unrolling for the sequential model checker.
 *
 * An Unrolling is a chain of NetlistEncoding frames over one
 * netlist: frame 0's DFF Q literals are free variables (or pinned to
 * the power-on values), and every later frame is encoded with its Q
 * literals bound to the previous frame's *effective* captured dffD
 * literals — the same clockEdge() semantics the combinational
 * miters already encode, stitched k timesteps deep.
 *
 * The model can optionally be closed over an assembled program: the
 * instr bus of every frame is then constrained to the ROM word at
 * the frame's own PC pads, replicating the lockstep harness's fetch
 * contract exactly (narrow cores fetch one byte at pc every cycle;
 * the wide-bus DSE cores fetch two bytes at pc or pc*2; fetches
 * beyond the image read the idle bus's zeros). Under that closure,
 * program-dependent properties — the watchdog, the MMU page
 * invariant — become well-defined sequential claims about a
 * (netlist, program) pair.
 */

#ifndef FLEXI_ANALYSIS_MC_UNROLL_HH
#define FLEXI_ANALYSIS_MC_UNROLL_HH

#include <string>
#include <utility>
#include <vector>

#include "analysis/cnf_encoder.hh"
#include "analysis/dataflow/dataflow.hh"
#include "assembler/program.hh"
#include "isa/isa.hh"
#include "netlist/golden_tape.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/** The environment a sequential check runs under. */
struct McModel
{
    /** Pad ties asserted on every frame's inputs. */
    std::vector<PadTie> ties;
    /**
     * Close the system over this program (page 0): each frame's
     * instr bus reads the image at the frame's own PC pads. Null
     * leaves the instruction bus a free input per frame.
     */
    const Program *program = nullptr;
};

/**
 * An McModel resolved against one netlist: the tied pads' nets and,
 * under the ROM closure, the pc/instr pads and the page-0 fetch
 * table. The unrolling and xfree's witness simulation both start
 * from it, so they refuse the same models the same way.
 */
struct ResolvedModel
{
    std::vector<std::pair<NetId, bool>> ties;
    /** ROM closure only: PC pads (7 bits) and the instr pads. */
    std::vector<NetId> pc, instr;
    FetchTable rom{};

    bool romClosed() const { return !instr.empty(); }
};

/**
 * Resolve @p model against @p nl. Panics on an unelaborated
 * netlist, a tie naming an unknown input, or a ROM-closed model on
 * a netlist without pc/instr pads.
 */
ResolvedModel resolveModel(const Netlist &nl, const McModel &model);

class Unrolling
{
  public:
    /**
     * Start an unrolling of @p nl (must stay alive) with no frames.
     * Call addFrame() / ensureFrames() to grow it.
     *
     * @p guarded puts each frame's environment (ties, ROM closure)
     * and its simple-path pairs with the earlier frames behind a
     * fresh activation literal, which implies the previous frame's.
     * A frame that is not switched on is a pure definition of its
     * nets that constrains nothing, so one unrolling grown to the
     * longest question answers shorter ones exactly as an unrolling
     * of their own length would.
     */
    Unrolling(CnfBuilder &cnf, const Netlist &nl,
              const McModel &model, bool guarded = false);

    const Netlist &netlist() const { return nl_; }
    unsigned frames() const { return frames_.size(); }

    /** Append one timestep; returns its index. */
    unsigned addFrame();
    void ensureFrames(unsigned n);

    /** Pin frame 0's state to the power-on values (BMC base). */
    void assertInit();

    const NetlistEncoding &frame(unsigned t) const
    {
        return frames_.at(t);
    }
    /** Q of DFF @p i (commit order) at timestep @p t. */
    SatLit stateLit(unsigned t, size_t i) const
    {
        return frames_.at(t).dffQ[i];
    }
    /** Effective captured next-state of DFF @p i at timestep @p t. */
    SatLit nextLit(unsigned t, size_t i) const
    {
        return frames_.at(t).dffD[i];
    }
    SatLit netLit(unsigned t, NetId n) const
    {
        return frames_.at(t).lit(n);
    }
    /** Little-endian literals of a named pad bus at timestep @p t. */
    CnfBuilder::Word busLits(unsigned t,
                             const std::vector<NetId> &nets) const;

    /**
     * Simple-path strengthening: for every pair of frames now
     * present, at least one state bit differs. Incremental — frames
     * added later are constrained against all earlier ones on the
     * next call. Guarded, a pair belongs to its later frame.
     */
    void assertSimplePath();

    /** Guarded only: the literal that switches on frames 0..@p n-1
     *  (which must exist; n >= 1). */
    SatLit activation(unsigned n) const { return act_.at(n - 1); }
    /**
     * Guarded only: append to @p assume the assumptions that switch
     * on frames 0..@p n-1 (n >= 1) and every later frame off, so the
     * solver never searches the frames a question does not hold.
     */
    void assumeWindow(unsigned n, std::vector<SatLit> &assume) const
    {
        assume.push_back(activation(n));
        if (n < act_.size())
            assume.push_back(~act_[n]);
    }

  private:
    void closeRom(unsigned t);
    /** Add a clause of frame @p t's environment. */
    void envClause(unsigned t, std::vector<SatLit> clause);

    CnfBuilder &cnf_;
    const Netlist &nl_;
    ResolvedModel model_;
    std::vector<NetlistEncoding> frames_;
    bool guarded_;
    /** Guarded: one activation literal per frame, each implying
     *  the one before. */
    std::vector<SatLit> act_;
    /** Frames already pairwise-covered by assertSimplePath(). */
    unsigned simplePathDone_ = 0;
};

/**
 * Resolve a named pad bus ("pc", "instr", ...) to its net ids, LSB
 * first, from the input or output name maps. Fatal-free: returns an
 * empty vector when any bit is missing.
 */
std::vector<NetId> resolvePadBus(const Netlist &nl,
                                 const std::string &prefix,
                                 unsigned width, bool input);

} // namespace flexi

#endif // FLEXI_ANALYSIS_MC_UNROLL_HH
