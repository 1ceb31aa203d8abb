/**
 * @file
 * BMC falsification and k-induction proofs over Unrolling.
 *
 * checkBmc() pins timestep 0 to the power-on state and searches for
 * a property violation within a bounded number of steps; a hit
 * comes back as a replayable multi-cycle McTrace (every input and
 * state bit of every frame, by name). Each clean step is hardened
 * into the CNF so later steps reuse the proof work.
 *
 * checkInduction() proves the property invariant by temporal
 * k-induction: if P held for the last k steps of *any* loop-free
 * path then it holds one step later (UNSAT of the negation), and
 * BMC discharges the base case. Simple-path strengthening (pairwise
 * distinct states across the unrolled window) is what makes the
 * method complete in k for the properties the catalog cares about;
 * docs/FORMAL.md carries the soundness argument.
 *
 * replayMcTrace() closes the loop with simulation: the trace is
 * driven cycle by cycle through the netlist's reference interpreter,
 * checking the state evolution frame by frame and re-evaluating the
 * property concretely at the violation step.
 */

#ifndef FLEXI_ANALYSIS_MC_BMC_HH
#define FLEXI_ANALYSIS_MC_BMC_HH

#include <string>
#include <utility>
#include <vector>

#include "analysis/mc/property.hh"
#include "analysis/mc/unroll.hh"

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
 * Search for a violation of @p p within @p depth steps of the
 * power-on state (steps 0..depth inclusive). @p p must be validated
 * against (@p nl, @p model) first.
 */
McResult checkBmc(const Netlist &nl, const McModel &model,
                  const McProperty &p, unsigned depth);

/**
 * Prove G(p) by k-induction, trying k = 1..maxK. The base case is
 * discharged by BMC; a base-case hit returns Falsified with its
 * trace. @p simplePath adds the loop-freedom strengthening.
 */
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
    /** Solver effort, the sampled witnesses included. */
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

/**
 * X-free-after-reset, sequentially: two copies of the unrolled
 * machine share every per-frame input but start from two arbitrary
 * (unconstrained) states; a DFF whose two copies are provably equal
 * after @p depth cycles self-initializes within that window. This
 * refines PR 6's ternary reset-coverage rule, which must give up on
 * any state bit whose re-initialization needs correlated values the
 * ternary domain cannot express.
 *
 * Witnesses first: four sampled models of the two-copy unrolling
 * mark every bit whose copies they separate, and each Sat answer of
 * the per-bit loop marks every later bit its model separates; only
 * unmarked bits are solved. A witness is a real model and hardening
 * a covered bit adds only implied clauses, so `covered` is exactly
 * what a solve per bit would give.
 */
SeqResetCoverageResult seqResetCoverage(const Netlist &nl,
                                        const McModel &model,
                                        unsigned depth);

} // namespace flexi

#endif // FLEXI_ANALYSIS_MC_BMC_HH
