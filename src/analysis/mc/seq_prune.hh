/**
 * @file
 * Sequentially-certified netlist pruning beyond the ternary fixpoint.
 *
 * The PR-6 prune() folds what the ternary dataflow engine can see:
 * nets constant in the ternary abstraction of every reachable state.
 * That abstraction cannot express *correlations* — AND(x, ~x) is
 * X when x is X, two registers fed by the same cone are two
 * independent Xs — so a class of real redundancy survives it.
 * seqPrune() goes after exactly that class, in three certified
 * stages:
 *
 *  1. prune() — the ternary baseline (PR-6 numbers).
 *
 *  2. seqMerge — two discovery engines over the pruned netlist:
 *
 *      - A universal SAT sweep: random-simulation signatures bucket
 *        nets whose 64-sample behavior matches (directly or
 *        inverted); SAT then proves each candidate equal (or
 *        anti-equal) to its class leader for *every* input and
 *        state assignment. One driver survives per polarity per
 *        class: same-polarity members read the leader's net, the
 *        first anti member's driver is replaced by an INV_X1 off
 *        the leader (or kept, when it already is one), and later
 *        anti members read that keeper.
 *
 *      - Sequential state invariants, proven by k-induction:
 *        reachable simulation from power-on nominates DFFs that
 *        never leave their init value and register pairs that never
 *        disagree (or never agree); mutual 1-induction with
 *        iterative dropping keeps the subset that actually proves.
 *        Constant DFFs fold to rails, the redundant half of each
 *        pair is deleted and its readers repointed at the survivor
 *        (through an INV_X1 for anti-pairs).
 *
 *  3. prune() again — the merge leaves dead D cones and unread
 *     drivers behind; the ternary engine sweeps them up.
 *
 * Every stage is one rebuild() and one certifyRewrite()
 * (analysis/dataflow/prune.hh). The merge fills the rebuild plan
 * from the sweep's classes and the invariants, and its
 * certification first proves the invariants by induction (base case
 * against power-on values, step case under the invariant
 * assumptions), then proves primary outputs and every surviving
 * DFF's next-state equal with the invariants asserted,
 * interior-sweeping the net map for incremental hardening. A failed
 * proof carries a replayable counterexample.
 */

#ifndef FLEXI_ANALYSIS_MC_SEQ_PRUNE_HH
#define FLEXI_ANALYSIS_MC_SEQ_PRUNE_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/dataflow/prune.hh"

namespace flexi
{

struct SeqPruneOptions
{
    DataflowOptions dataflow;
    /** Signature samples for the universal sweep (max 64). */
    unsigned simRounds = 64;
    /** Reachable-simulation runs / cycles nominating invariants. */
    unsigned simRuns = 8;
    unsigned simCycles = 64;
    uint64_t seed = 0x5eedf1e5;
    bool certify = true;
};

/** What the merge stage itself removed or rewrote. */
struct SeqMergeStats
{
    size_t mergedNets = 0;    ///< same-polarity drivers dropped
    size_t invDrivers = 0;    ///< anti drivers rewritten to INV_X1
    size_t constDffs = 0;     ///< sequentially-constant DFFs folded
    size_t pairDffs = 0;      ///< redundant pair halves deleted
};

struct SeqPruneResult
{
    bool ok = false;
    std::string detail;
    /** The final, elaborated netlist (same pad interface). */
    std::unique_ptr<Netlist> netlist;

    /** Original -> final, for strict-improvement reporting. */
    PruneStats stats;
    /** Original -> ternary-only prune (the PR-6 baseline). */
    PruneStats baseline;
    SeqMergeStats seq;
    /** The merge's invariants; their DFF indices are commit indices
     *  of the stage-1 (ternary-pruned) netlist. */
    SeqInvariants invariants;

    /** Original DFF index -> final index (composed over stages). */
    std::vector<size_t> dffMap;
    /** Original net -> final net (same value); kNoNet when swept
     *  away. */
    std::vector<NetId> netMap;

    /** All three stage certifications proved. */
    bool certified = false;
    EquivResult certification;
};

/**
 * Run the full pipeline on @p nl (must be elaborated). With
 * certification on (the default), a stage that fails its proof
 * aborts the pipeline and returns the counterexample.
 */
SeqPruneResult seqPrune(const Netlist &nl,
                        const SeqPruneOptions &opts = {});

} // namespace flexi

#endif // FLEXI_ANALYSIS_MC_SEQ_PRUNE_HH
