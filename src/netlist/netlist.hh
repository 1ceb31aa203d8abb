/**
 * @file
 * Gate-level netlist container and cycle-accurate evaluator.
 *
 * A Netlist is a flat collection of standard cells (from the 13-cell
 * IGZO library) connected by nets, with named primary inputs and
 * outputs and a single implicit clock. It supports:
 *
 *  - levelized evaluation, one clock cycle at a time (combinational
 *    propagate, then DFF commit),
 *  - per-cell toggle counting (the paper reports gates toggling
 *    24,060 times on average over the >100k test-vector cycles),
 *  - stuck-at fault injection for the yield test bench,
 *  - static analysis: per-module area / device / power rollups and
 *    the critical combinational path in delay units.
 *
 * Internally a netlist is split into a *shared immutable structure*
 * (cells, connectivity, the compiled evaluation plan) and cheap
 * *per-instance state*. elaborate() freezes the structure and
 * compiles the evaluation plan: combinational cells flattened, in
 * topological order, into contiguous input-index / output-index
 * arrays (three padded input slots per cell — unused slots point at
 * a dedicated always-zero scratch net), each tagged with its WordOp
 * and fused with its same-op neighbours into straight-line runs.
 *
 * The one engine that executes that plan is LaneGroup
 * (lane_group.hh). A Netlist's instance state — net values, DFF
 * state, stuck-at / transient force words, toggle counters, cycle()
 * — is a one-lane LaneGroup, so evaluate(), clockEdge() and every
 * state accessor forward to the same kernels the wafer studies and
 * campaigns run 512 dies at a time on.
 *
 * clone() then produces an independent simulation instance in a few
 * memcpys: the structure is shared by reference, only the one-lane
 * state is copied. This is what lets the checked runtime and the
 * fleet's scalar phase fault-simulate dies one at a time without
 * rebuilding the core netlist per die. evaluateReference() is the
 * independent cell-by-cell interpreter, kept as the
 * differential-testing oracle for the engine.
 */

#ifndef FLEXI_NETLIST_NETLIST_HH
#define FLEXI_NETLIST_NETLIST_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tech/cell_library.hh"

namespace flexi
{

class LaneGroup;

using NetId = uint32_t;
constexpr NetId kNoNet = ~0u;

/**
 * Word-parallel opcode of one compiled plan step. elaborate()
 * assigns each combinational cell the op matching its boolean
 * function so the engine (LaneGroup) computes 64 lanes of a step per
 * machine word in a handful of bitwise instructions. Lut is the
 * generic fallback: expand the step's 8-bit truth table as a sum of
 * minterms over the three input words (padded slots read the
 * always-zero scratch word).
 */
enum class WordOp : uint8_t
{
    Buf,
    Inv,
    Nand2,
    Nand3,
    Nor2,
    Nor3,
    Xor2,
    Xnor2,
    Mux2,   ///< inputs {a, b, sel} -> sel ? b : a
    Lut,
};

/** Number of WordOp codes (Lut is last). */
constexpr unsigned kNumWordOps =
    static_cast<unsigned>(WordOp::Lut) + 1;

/** A standard-cell instance. */
struct CellInst
{
    CellType type;
    /** Input nets; DFF uses inputs[0] = D. */
    std::vector<NetId> inputs;
    NetId output = kNoNet;
    /** Hierarchical module tag, e.g. "mem", "pc", "alu". */
    std::string module;
};

/** A stuck-at fault on a net. */
struct StuckFault
{
    NetId net = kNoNet;
    bool value = false;
};

/**
 * A transient fault on a net: the net is forced to @p value for the
 * half-open cycle window [fromCycle, untilCycle), measured on the
 * instance's cycle() counter, then released. Used by the in-field
 * fault-injection campaigns to model single-cycle upsets and
 * timing-marginal glitches; outside its window the fault has no
 * effect at all.
 */
struct TransientFault
{
    NetId net = kNoNet;
    bool value = false;
    uint64_t fromCycle = 0;
    uint64_t untilCycle = 0;
};

/** Per-module rollup of area / power / devices (Tables 2 and 3). */
struct ModuleStats
{
    unsigned cells = 0;
    unsigned devices = 0;
    double nand2Area = 0.0;
    double nand2AreaSeq = 0.0;   ///< sequential (DFF) share
    double staticCurrentUa = 0.0;
};

/**
 * A named bus resolved to net ids once, so the per-cycle drive /
 * sample of instruction, port, and PC buses stops concatenating
 * strings and probing name maps. Obtain from Netlist::inputBus() /
 * Netlist::outputBus(); valid for the netlist that produced it and
 * any of its clone()s (they share the same net numbering).
 */
class BusHandle
{
  public:
    BusHandle() = default;
    unsigned width() const { return nets_.size(); }
    bool valid() const { return !nets_.empty(); }

  private:
    friend class Netlist;
    friend class LaneGroup;
    std::vector<NetId> nets_;   ///< LSB first
    bool input_ = false;
};

/**
 * Combinational semantics of a cell as the 8-bit truth table each
 * evaluation-plan step carries: the output for inputs (i0, i1, i2) is
 * bit (i0 | i1<<1 | i2<<2). Inputs beyond the cell's arity are
 * don't-cares padded with 0 (matching the scratch-net convention).
 * Fatal on sequential cell types.
 */
uint8_t cellTruthTable(CellType type);

class Netlist
{
  public:
    explicit Netlist(std::string name);

    // The structure is shared between clones by reference; copying a
    // Netlist wholesale is never what callers want (use clone()).
    Netlist(const Netlist &) = delete;
    Netlist &operator=(const Netlist &) = delete;
    Netlist(Netlist &&) noexcept;
    Netlist &operator=(Netlist &&) noexcept;
    ~Netlist();

    const std::string &name() const;

    /** @name Construction */
    ///@{
    NetId newNet();
    /** Constant-0 / constant-1 nets. */
    NetId zero() const;
    NetId one() const;

    /** Add a primary input and return its net. */
    NetId addInput(const std::string &name);
    /** Mark a net as the named primary output. */
    void addOutput(const std::string &name, NetId net);

    /** Add a combinational cell; returns its output net. */
    NetId addCell(CellType type, const std::vector<NetId> &inputs,
                  const std::string &module);
    /**
     * Add a D flip-flop; returns the Q net. @p init is the power-on
     * value (the fabricated parts reset via an external sequence; we
     * model a defined power-on state).
     */
    NetId addDff(NetId d, const std::string &module, bool init = false,
                 bool x2 = false);
    /** Re-wire a DFF's D input (for feedback loops built late). */
    void setDffInput(NetId q, NetId d);

    /**
     * Attach a stable label to a net. Builders label architectural
     * state (accumulator, PC, memory words, flags) and other nets of
     * interest; labels feed netName(), the lint reports, and the
     * formal checker's state correspondence, and survive clone()
     * (the table lives in the shared structure). One label per net,
     * one net per label.
     */
    void nameNet(NetId net, const std::string &name);
    /**
     * Net carrying the given name — a label, primary input, or
     * primary output — or kNoNet when nothing matches.
     */
    NetId findNet(const std::string &name) const;

    /**
     * Netlist surgery: repoint one input (or the output) of an
     * existing cell at an arbitrary net. Used by rewiring studies and
     * by lint fixtures to produce electrically broken netlists that
     * the normal construction API refuses to build (combinational
     * loops, multiply-driven nets). No invariant checking beyond
     * range checks — run the lint pass afterwards.
     */
    void rewireCellInput(size_t cell, size_t input, NetId net);
    void rewireCellOutput(size_t cell, NetId net);
    ///@}

    /** @name Simulation */
    ///@{
    /**
     * Finalize: levelize and compile the flat evaluation plan. Must
     * be called before evaluation; freezes the structure.
     */
    void elaborate();
    bool elaborated() const { return elaborated_; }

    /**
     * Independent simulation instance sharing this netlist's
     * immutable structure. O(state), not O(structure): only the
     * one-lane engine state (net values, DFF state, fault forces,
     * toggle counters) and the fault lists are copied, including any
     * currently injected faults. Requires an elaborated netlist.
     * Safe to call concurrently from multiple threads, and clones can
     * be simulated concurrently.
     */
    std::unique_ptr<Netlist> clone() const;

    void setInput(const std::string &name, bool value);
    /** Set a multi-bit input bus name0..name{n-1}, LSB first. */
    void setBus(const std::string &prefix, unsigned width,
                unsigned value);

    /** Resolve an input bus prefix0..prefix{width-1} once. */
    BusHandle inputBus(const std::string &prefix,
                       unsigned width) const;
    /** Resolve an output bus prefix0..prefix{width-1} once. */
    BusHandle outputBus(const std::string &prefix,
                        unsigned width) const;
    /** Drive a pre-resolved input bus (hot-path setBus). */
    void setBus(const BusHandle &bus, unsigned value);
    /** Sample a pre-resolved bus (hot-path bus()). */
    unsigned bus(const BusHandle &bus) const;

    /** Propagate combinational logic (call after setting inputs). */
    void evaluate();
    /**
     * Reference implementation of evaluate(): the cell-by-cell
     * interpreter walking CellInst records, deciding forces from this
     * instance's own fault and transient lists. It shares only the
     * state storage with the engine — never its force index or
     * kernels — and is the differential-testing oracle for it;
     * bit-exact in outputs and toggle counts.
     */
    void evaluateReference();
    /**
     * Clock edge: commit DFFs (call after evaluate()). After
     * evaluateReference() the commit follows the reference rules
     * too, so a reference run never touches the engine.
     */
    void clockEdge();

    bool output(const std::string &name) const;
    unsigned bus(const std::string &prefix, unsigned width) const;
    bool netValue(NetId net) const;

    /**
     * Reset all state bits to their power-on values. The experiment
     * clock (cycle()) keeps counting and transient-fault windows are
     * not re-armed: a reset models the field runtime power-cycling /
     * re-paging the part, not rewinding wall-clock time, so an upset
     * whose window has passed cannot strike again on the retry.
     */
    void reset();

    void injectFault(const StuckFault &fault);
    void clearFaults();
    /** Faults currently forced on this instance. */
    const std::vector<StuckFault> &faults() const { return faults_; }

    /**
     * Clock edges seen by this instance since elaborate()/clone()
     * (monotonic; survives reset(), see above).
     */
    uint64_t cycle() const;

    /**
     * Arm a transient fault. Activation and release happen inside
     * evaluate() based on cycle(); stuck-at faults on the same net
     * reassert themselves once the window closes.
     */
    void injectTransient(const TransientFault &fault);
    void clearTransients();
    const std::vector<TransientFault> &transients() const
    {
        return transients_;
    }

    /** Number of DFFs (state bits), in commit order. */
    size_t numDffs() const { return s_->dffCells.size(); }
    /** Stored state bit of DFF @p index (commit order). */
    bool dffValue(size_t index) const;
    /**
     * Flip the stored state bit of DFF @p index — a single-event
     * upset of the latch itself, independent of its D cone. Call
     * evaluate() afterwards to propagate the corrupted state.
     */
    void flipDff(size_t index);

    /**
     * Snapshot / restore the architectural state (all DFF bits) for
     * checkpoint-rollback recovery. restoreDffState() leaves the
     * combinational nets stale; drive inputs and evaluate() before
     * sampling any pad. Faults, toggle counters, and cycle() are
     * deliberately not part of the snapshot.
     */
    std::vector<uint8_t> saveDffState() const;
    void restoreDffState(const std::vector<uint8_t> &state);
    ///@}

    /** @name Analysis */
    ///@{
    size_t numCells() const;
    size_t numNets() const;

    /** Named primary inputs / outputs (name -> net). */
    const std::map<std::string, NetId> &primaryInputs() const;
    const std::map<std::string, NetId> &primaryOutputs() const;

    /**
     * Nets consumed by combinational cells but driven by nothing
     * (no cell output, primary input, or constant).
     */
    std::vector<NetId> undrivenNets() const;

    /**
     * One combinational cycle, as the cell indices along the cycle
     * (each cell's output feeds the next cell; the last feeds the
     * first). Empty when the combinational logic is acyclic. Shared
     * by elaborate()'s failure diagnostics and the lint pass.
     */
    std::vector<size_t> findCombCycle() const;

    /**
     * Human-readable name for a net: a primary input/output name,
     * "const0"/"const1", or "n<id>".
     */
    std::string netName(NetId net) const;
    unsigned totalDevices() const;
    double totalNand2Area() const;
    double totalStaticCurrentUa() const;
    std::map<std::string, ModuleStats> moduleBreakdown() const;

    /** Longest input/Q -> output/D path, in delay units. */
    double criticalPathDelayUnits() const;

    /**
     * One step of the compiled evaluation plan. Unused input slots
     * hold scratchNet(), which always reads 0; the truth-table bit
     * for inputs (i0, i1, i2) is bit (i0 | i1<<1 | i2<<2) of lut.
     */
    struct PlanStep
    {
        std::array<NetId, 3> in;
        NetId out;
        uint8_t lut;
        uint32_t cell;   ///< original cell index
    };
    /**
     * The compiled combinational plan in execution order. Valid only
     * after elaborate(). This is the artifact the formal checker
     * proves equivalent to the CellInst-level reference semantics.
     */
    std::vector<PlanStep> planSteps() const;
    /** The always-zero scratch net padding unused plan slots. */
    NetId scratchNet() const;

    /**
     * One fused run of the compiled plan: plan steps
     * [begin, end) share the same WordOp, so the word-parallel
     * evaluator dispatches once per run and executes the steps as a
     * straight-line loop. Runs partition the plan exactly: the first
     * run starts at step 0, each run starts where the previous one
     * ended, and the last run ends at planSteps().size(). The formal
     * checker's word-plan encoding walks this exact program, so the
     * fusion itself is inside the proof.
     */
    struct PlanRun
    {
        uint32_t begin;
        uint32_t end;
        WordOp op;
    };
    /** The fused-run program, in execution order (post-elaborate). */
    std::vector<PlanRun> planRuns() const;

    /** One DFF, in commit (construction) order. */
    struct DffInfo
    {
        NetId d;
        NetId q;
        uint32_t cell;   ///< cell index
        bool init;       ///< power-on value
    };
    std::vector<DffInfo> dffs() const;

    /**
     * Total output toggles per cell since enableToggles(true).
     * Requires toggle counting to be on.
     */
    std::vector<uint64_t> toggleCounts() const;
    /**
     * Turn per-cell toggle counting on or off. Off by default: only
     * activity studies read the counts, and counting costs a bit
     * scan per toggled cell. Enabling (re)zeroes the counters.
     */
    void enableToggles(bool on);
    uint64_t minCellToggles() const;
    double meanCellToggles() const;

    const std::vector<CellInst> &cells() const;
    ///@}

  private:
    /// The engine executes the compiled plan straight out of the
    /// shared structure.
    friend class LaneGroup;

    /**
     * The compiled flat evaluation plan: combinational cells in
     * topological order with padded three-slot input indices, one
     * 8-bit truth table and WordOp per cell, plus flattened DFF D/Q
     * indices.
     * Unused input slots point at the scratch net (index numNets()),
     * which always reads 0 and is unreachable by fault injection.
     */
    struct EvalPlan
    {
        std::vector<NetId> in;        ///< 3 slots per comb cell
        std::vector<NetId> out;       ///< output net per comb cell
        std::vector<uint8_t> lut;     ///< truth table per comb cell
        std::vector<uint8_t> wop;     ///< WordOp per comb cell
        std::vector<uint32_t> cell;   ///< original cell index
        /**
         * Adjacent same-op steps fused into straight-line runs: run r
         * covers steps [runBegin[r], runBegin[r+1]) and executes op
         * runOp[r]. runBegin has runOp.size() + 1 entries; the runs
         * partition [0, out.size()) exactly.
         */
        std::vector<uint32_t> runBegin;
        std::vector<uint8_t> runOp;
        std::vector<NetId> dffD;
        std::vector<NetId> dffQ;
        std::vector<uint32_t> dffCell;
        /** No run / no DFF, in netRun and netDff. */
        static constexpr uint32_t kNone = ~0u;
        /**
         * Per net: the fused run whose step produces it, and the DFF
         * whose Q it is (kNone where neither). A net with either is
         * blend-covered — the engine's per-step / Q-expose blends
         * apply its forces; a force on any other (primary) net needs
         * a direct value write.
         */
        std::vector<uint32_t> netRun;
        std::vector<uint32_t> netDff;

        bool
        blendCovered(NetId net) const
        {
            return netRun[net] != kNone || netDff[net] != kNone;
        }
    };

    /** Immutable (once elaborated) shared structure. */
    struct Structure
    {
        std::string name;
        std::vector<CellInst> cells;
        NetId nextNet = 0;
        NetId zero = kNoNet;
        NetId one = kNoNet;
        std::map<std::string, NetId> inputs;
        std::map<std::string, NetId> outputs;
        /** Stable net labels (see nameNet()). */
        std::map<NetId, std::string> netLabels;
        std::map<std::string, NetId> labelToNet;
        /** DFF bookkeeping: cell index and power-on value. */
        std::vector<size_t> dffCells;
        std::vector<uint8_t> dffInit;
        std::vector<size_t> evalOrder;   ///< comb cells in topo order
        EvalPlan plan;
    };

    /** clone(): share structure, copy instance state. */
    Netlist(const Netlist &other, bool);

    void checkElaborated(bool want) const;
    void compilePlan();
    /**
     * The reference semantics' forces at cycle(): each forced net
     * with its value. An open transient window overrides a stuck-at
     * on the same net; later list entries win.
     */
    std::map<NetId, bool> referenceForces() const;
    /** The DFF commit of a clockEdge() after evaluateReference(). */
    void commitReference();

    std::shared_ptr<Structure> s_;
    bool elaborated_ = false;

    /**
     * Per-instance state: a one-lane group of the compiled engine
     * (net values, DFF state, force words, toggle counters, cycle()).
     * elaborate() builds it and clone() copies it.
     */
    std::unique_ptr<LaneGroup> engine_;
    /** The faults as injected: what faults() / transients() report
     *  and what the reference interpreter derives its forces from. */
    std::vector<StuckFault> faults_;
    std::vector<TransientFault> transients_;
    /**
     * evaluateReference() ran since the last evaluate(): clockEdge()
     * then commits by the reference rules too, so a reference run
     * never depends on the engine's force state.
     */
    bool referenceEdge_ = false;
};

} // namespace flexi

#endif // FLEXI_NETLIST_NETLIST_HH
