/**
 * @file
 * BMC falsification and k-induction proofs over Unrolling.
 *
 * McSession answers both kinds of question for one (netlist, model)
 * pair on one incremental solver. bmc() pins timestep 0 to the
 * power-on state and searches for a property violation within a
 * bounded number of steps; a hit comes back as a replayable
 * multi-cycle McTrace (every input and state bit of every frame, by
 * name). induction() proves the property invariant by temporal
 * k-induction: if P held for the last k steps of *any* loop-free
 * path then it holds one step later (UNSAT of the negation), and
 * bmc() discharges the base case. Simple-path strengthening
 * (pairwise distinct states across the unrolled window) is what
 * makes the method complete in k for the properties the catalog
 * cares about; docs/FORMAL.md carries the soundness argument.
 * checkBmc() and checkInduction() are one-question sessions.
 *
 * replayMcTrace() closes the loop with simulation: the trace is
 * driven cycle by cycle through the netlist's reference interpreter,
 * checking the state evolution frame by frame and re-evaluating the
 * property concretely at the violation step.
 */

#ifndef FLEXI_ANALYSIS_MC_BMC_HH
#define FLEXI_ANALYSIS_MC_BMC_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "analysis/mc/property.hh"
#include "analysis/mc/unroll.hh"
#include "analysis/sat.hh"
#include "netlist/lane_group.hh"

namespace flexi
{

/** One timestep of a counterexample trace. */
struct McFrame
{
    std::vector<std::pair<std::string, bool>> inputs;
    std::vector<std::pair<std::string, bool>> state;
};

/** A multi-cycle counterexample. */
struct McTrace
{
    std::vector<McFrame> frames;
    /** Normalized spec of the violated property. */
    std::string property;
    /** Step at which the property instance fails. */
    unsigned violationStep = 0;

    /** One line per cycle, buses packed to hex. */
    std::string text() const;
    /** Standard VCD rendering (one timestep per #tick). */
    std::string vcd() const;
};

enum class McStatus
{
    Proved,      ///< k-induction closed
    Clean,       ///< BMC found no violation within the bound
    Falsified,   ///< concrete counterexample in `trace`
    Unknown,     ///< induction did not close within maxK
    Invalid,     ///< ill-formed property / model (see detail)
};

struct McResult
{
    McStatus status = McStatus::Invalid;
    std::string detail;
    /** Proved: closing k. Clean: depth checked. Falsified: step. */
    unsigned depth = 0;
    McTrace trace;   ///< valid iff Falsified
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

/**
 * One incremental SAT session for the frame-property questions about
 * one (netlist, model) pair, after Een & Sorensson, "Temporal
 * Induction by Incremental SAT Solving" (BMC 2003). It keeps a
 * free-initial-state step unrolling and a power-on unrolling, each
 * guarded (see Unrolling) on an incremental solver of its own and
 * grown on demand.
 *
 * A question switches on exactly the frames a fresh unrolling of its
 * own would encode, and the property instances that unrolling would
 * assert hold under literals the question assumes. Everything else
 * in the solver is a pure definition or a clause the formula
 * implies, so each (property, k) answer, and with it the closing k,
 * is the answer a fresh build gives. Only the effort, and the model
 * a Sat answer returns, can differ.
 */
class McSession
{
  public:
    /** @p nl must outlive the session. @p simplePath adds the
     *  loop-freedom strengthening to every induction step. */
    McSession(const Netlist &nl, const McModel &model,
              bool simplePath = true);

    /**
     * Search for a violation of @p p within @p depth steps of the
     * power-on state (steps 0..depth inclusive). @p p must be
     * validated against the netlist and model first.
     */
    McResult bmc(const McProperty &p, unsigned depth);

    /**
     * Prove G(p) by k-induction, trying k = 1..maxK. The base case
     * is bmc() to k - 1; a base-case hit returns Falsified with its
     * trace.
     */
    McResult induction(const McProperty &p, unsigned maxK);

  private:
    /** One guarded unrolling on a solver of its own. */
    struct Side
    {
        Side(const Netlist &nl, const McModel &model);
        SatSolver solver;
        CnfBuilder cnf;
        Unrolling u;
    };

    SatSolver::Result solve(Side &side,
                            const std::vector<SatLit> &assume,
                            McResult &r);

    const Netlist &nl_;
    bool simplePath_;
    Side step_;
    Side init_;
};

/** McSession(nl, model).bmc(p, depth). */
McResult checkBmc(const Netlist &nl, const McModel &model,
                  const McProperty &p, unsigned depth);

/** McSession(nl, model, simplePath).induction(p, maxK). */
McResult checkInduction(const Netlist &nl, const McModel &model,
                        const McProperty &p, unsigned maxK,
                        bool simplePath = true);

/**
 * Drive @p trace through a clone of @p nl stepped with
 * evaluateReference() — semantics independent of both the CNF
 * encoding and the compiled engine. Returns true iff the replay
 * reproduces the recorded state evolution *and* the property
 * violation at the recorded step; a divergence is described in
 * @p what.
 */
bool replayMcTrace(const Netlist &nl, const McProperty &p,
                   const McTrace &trace, std::string *what = nullptr);

/** Outcome of the sequential reset-coverage (xfree) analysis. */
struct SeqResetCoverageResult
{
    bool ok = false;
    std::string detail;
    /** Depth the analysis ran at. */
    unsigned depth = 0;
    /** Per DFF (commit order): value after `depth` cycles is fully
     *  determined by the inputs, regardless of the power-on state. */
    std::vector<uint8_t> covered;
    /** Solver effort: one solve per bit no simulated pair
     *  separated (the witnesses themselves cost none). */
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

/**
 * xfree's witnesses: kPairs concrete two-copy runs of the compiled
 * engine on one 512-lane LaneGroup, copy a of pair p in lane p and
 * copy b in lane p + kPairs. Every lane starts from a random state.
 * Each cycle both copies of a pair read the same random
 * non-instruction inputs, tied pads held; under the ROM closure each
 * copy fetches at its own PC. A live pair is a model of the two-copy
 * unrolling; a fetch that breaks a tie on an instr pad, or that moves
 * its own PC, kills the pair.
 */
struct XFreeWitnessRuns
{
    static constexpr unsigned kPairs = LaneGroup::kMaxLanes / 2;
    using LaneWords = std::array<uint64_t, LaneGroup::kMaxWords>;

    /** Every lane's DFF state at frame 0 and after the last edge,
     *  in LaneGroup::packDffState() layout. */
    size_t stateWords = 0;
    std::vector<uint64_t> init, final;
    /** Per frame 0..depth, the lanes of every shared input. */
    std::vector<std::vector<std::pair<NetId, LaneWords>>> inputs;
    std::array<uint8_t, kPairs> live{};

    /** Per DFF: some live pair ends with its two copies apart. */
    std::vector<uint8_t> separated(size_t dffs) const;
};

/** Run xfree's witnesses over @p depth cycles (the seed is fixed).
 *  Panics on the models Unrolling refuses. */
XFreeWitnessRuns simulateXFreeWitnesses(const Netlist &nl,
                                        const McModel &model,
                                        unsigned depth);

/**
 * X-free-after-reset, sequentially: two copies of the unrolled
 * machine share every per-frame input but start from two arbitrary
 * (unconstrained) states; a DFF whose two copies are provably equal
 * after @p depth cycles self-initializes within that window. This
 * refines PR 6's ternary reset-coverage rule, which must give up on
 * any state bit whose re-initialization needs correlated values the
 * ternary domain cannot express.
 *
 * Witnesses first, from simulateXFreeWitnesses(): every live pair
 * is a concrete model of the two-copy unrolling, so a bit whose
 * copies it ends apart is not covered. Only the bits no pair
 * separates get the unrolling built and a solve each, and each Sat
 * answer marks every later bit its model separates. Hardening a
 * covered bit adds only implied clauses, so `covered` is exactly
 * what a solve per bit would give.
 */
SeqResetCoverageResult seqResetCoverage(const Netlist &nl,
                                        const McModel &model,
                                        unsigned depth);

} // namespace flexi

#endif // FLEXI_ANALYSIS_MC_BMC_HH
