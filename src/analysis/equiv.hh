/**
 * @file
 * Miter-based combinational equivalence checking.
 *
 * Three checkers, all built on the CNF encoder and the CDCL solver:
 *
 *  - checkPlanEquivalence(): proves the compiled fused-run word-op
 *    program (what the LaneGroup engine behind evaluate()
 *    dispatches) bit-equal to the CellInst reference semantics (what
 *    evaluateReference() interprets), one cell cone at a time. The
 *    sweep runs in plan order and hardens each proven equality into
 *    the CNF, so every cone check is effectively local.
 *
 *  - checkNetlistEquivalence(): proves two netlist instances (e.g. a
 *    cloned die against its template) produce identical primary
 *    outputs and next-state for every input and state, honoring any
 *    injected stuck-at faults on either side.
 *
 *  - checkIsaEquivalence(): proves a core netlist's next-state
 *    function (the D cones of its architectural DFFs, matched by net
 *    label) equivalent to the behavioral ISA specification of
 *    src/analysis/isa_spec.cc, one instruction class at a time,
 *    after a signature-guided sweep has proven and hardened the
 *    spec's internal signals against their netlist twins.
 *
 * A failed proof comes back as a concrete counterexample: a full
 * input and state assignment plus the state bits that disagree.
 */

#ifndef FLEXI_ANALYSIS_EQUIV_HH
#define FLEXI_ANALYSIS_EQUIV_HH

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/sat.hh"
#include "isa/isa.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/**
 * Compact rendering of a named bit assignment: groups sharing a
 * name prefix ("acc0".."acc3") are packed into hex bus values.
 * Shared by the combinational counterexamples and the sequential
 * checker's multi-cycle traces.
 */
std::string packedAssignmentText(
    const std::vector<std::pair<std::string, bool>> &assignment);

/** A satisfying assignment that separates the two sides of a miter. */
struct EquivCounterexample
{
    /** Every primary input and state bit, by name. */
    std::vector<std::pair<std::string, bool>> assignment;
    /** Names of the nets / state bits that disagree. */
    std::vector<std::string> mismatched;

    /**
     * Compact human-readable rendering: bit groups sharing a name
     * prefix ("acc0".."acc3") are packed into bus values, e.g.
     * "acc=0x5 carry=1 instr=0x9f -> mismatch on acc1, acc3".
     */
    std::string text() const;
};

/** Outcome of one equivalence proof. */
struct EquivResult
{
    bool proven = false;
    /** Failure explanation when no counterexample applies. */
    std::string detail;
    bool hasCex = false;
    EquivCounterexample cex;
    /** Solver effort for the whole check. */
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

/** Per-instruction-class outcome of an ISA proof. */
struct IsaClassCheck
{
    std::string name;
    bool proven = false;
    EquivCounterexample cex;   ///< valid iff !proven
};

struct IsaEquivResult
{
    bool proven = false;
    std::string detail;
    std::vector<IsaClassCheck> classes;
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

/**
 * Prove the compiled evaluation plan of @p nl — the fused-run WordOp
 * program the engine dispatches — equivalent to its reference cell
 * semantics (a SAT sweep over every cell cone and every DFF's
 * effective captured value).
 */
EquivResult checkPlanEquivalence(const Netlist &nl);

/**
 * Prove netlists @p a and @p b (same interface; typically a clone
 * and its template) equivalent: identical primary outputs (matched
 * by name) and identical effective next-state (matched by DFF commit
 * order) for every shared input and state assignment. Stuck-at
 * faults injected on either instance are part of its semantics.
 */
EquivResult checkNetlistEquivalence(const Netlist &a,
                                    const Netlist &b);

/**
 * Prove core netlist @p nl implements the behavioral next-state
 * specification of @p kind, one instruction class at a time. Every
 * architectural DFF must carry a net label (nameNet()) matching the
 * specification's state names. Injected stuck-at faults count as
 * part of the instance's semantics, so a defective die fails the
 * proof with a counterexample naming the corrupted state.
 *
 * Before the class solves, 64 sampled models of the miter give every
 * variable a signature; each spec-side variable whose signature (or
 * its complement) matches an earlier netlist-side variable is proven
 * equal to it and hardened. The sweep adds only implied clauses, so
 * class verdicts are those of the unswept miter and a counterexample
 * is a genuine model of it; `solves` counts the sampling and sweep
 * solves too.
 */
IsaEquivResult checkIsaEquivalence(const Netlist &nl, IsaKind kind);

/**
 * Run the plan proof and the ISA proof on a core netlist and render
 * the outcomes as diagnostics: rule "equiv-proven" (Note) per
 * successful proof, "equiv-mismatch" (Error) with the rendered
 * counterexample per failure.
 */
LintReport equivLint(const Netlist &nl, IsaKind kind);

} // namespace flexi

#endif // FLEXI_ANALYSIS_EQUIV_HH
