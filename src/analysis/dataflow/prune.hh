/**
 * @file
 * SAT-certified netlist pruning on top of the dataflow engine.
 *
 * prune() rebuilds a netlist with every provably-dead cell removed
 * and every proven-constant net folded onto a rail, keeping the pad
 * interface (all primary inputs and outputs) intact. The licenses
 * come from analyzeDataflow(): a cell outside every observable cone
 * cannot affect an output; a net constant in every reachable state
 * (under the tie environment) can be replaced by its rail; a DFF
 * whose Q is constant can be deleted outright.
 *
 * The rewrite is one engine, shared with seqPrune()
 * (analysis/mc/seq_prune.hh): rebuild() copies a netlist under a
 * per-net plan, and certifyRewrite() takes none of it on faith. It
 * discharges every rewrite with the CDCL solver and the Tseitin
 * encoder (analysis/sat.hh, analysis/cnf_encoder.hh):
 *
 *  1. Inductive invariants — the power-on state satisfies every
 *     state claim (the base case). With the tie environment
 *     asserted, the constant DFFs pinned and the register pairs
 *     bound, each constant DFF's *next* state is proven equal to its
 *     constant, each pair's next states equal, and each folded
 *     combinational net equal to its rail (UNSAT of the negation,
 *     hardened incrementally). This makes "holds in every reachable
 *     state" an induction, not a heuristic.
 *
 *  2. Observable equivalence — a miter between the original and the
 *     rewritten netlist (primary inputs shared by name, surviving
 *     state bits shared by the rewrite's DFF map) proves every
 *     primary output and every surviving DFF's captured next-state
 *     equal. The interior is swept in topological order with
 *     incremental hardening, the same engine checkPlanEquivalence()
 *     uses.
 *
 * A failed proof returns a *replayable* counterexample: a complete
 * named input-and-state assignment. replayPruneCex() drives both
 * netlists (scalar simulation) with it and reports the divergence,
 * closing the loop between the solver and the simulator.
 */

#ifndef FLEXI_ANALYSIS_DATAFLOW_PRUNE_HH
#define FLEXI_ANALYSIS_DATAFLOW_PRUNE_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/dataflow/dataflow.hh"
#include "analysis/equiv.hh"
#include "netlist/netlist.hh"

namespace flexi
{

class CnfBuilder;
struct NetlistEncoding;

/** dffMap / netMap entry for state or nets the prune deleted. */
constexpr size_t kPrunedAway = ~size_t{0};

/** What the prune removed, for reports and the area model. */
struct PruneStats
{
    size_t cellsBefore = 0;
    size_t cellsAfter = 0;
    size_t dffsBefore = 0;
    size_t dffsAfter = 0;
    size_t deadCells = 0;    ///< removed: outside every cone
    size_t constCells = 0;   ///< removed: output folded to a rail
    size_t constDffs = 0;    ///< state bits folded to constants
    double nand2AreaBefore = 0.0;
    double nand2AreaAfter = 0.0;

    double nand2AreaSaved() const
    {
        return nand2AreaBefore - nand2AreaAfter;
    }
};

struct PruneResult
{
    /** A pruned netlist was produced (see detail otherwise). */
    bool ok = false;
    std::string detail;
    /** The pruned, elaborated netlist (same pad interface). */
    std::unique_ptr<Netlist> netlist;
    PruneStats stats;
    /** The analysis the prune acted on. */
    DataflowResult dataflow;
    /** Original DFF index (commit order) -> pruned index. */
    std::vector<size_t> dffMap;
    /** Original net -> pruned net (folded nets map to rails). */
    std::vector<NetId> netMap;

    /** Certification ran and proved every transformation. */
    bool certified = false;
    EquivResult certification;
};

/**
 * What a rewrite claims holds in every reachable state under the
 * tie environment; certifyRewrite() proves each claim by induction
 * before its miter. DFF indices are commit indices of the netlist
 * the rewrite starts from.
 */
struct SeqInvariants
{
    struct ConstDff
    {
        size_t index;   ///< DFF commit index
        bool value;     ///< == init; proven never to change
    };
    struct PairDff
    {
        size_t keep;      ///< surviving DFF (commit index)
        size_t drop;      ///< redundant DFF, folded onto keep
        bool inverted;    ///< drop == ~keep in every reachable state
    };
    /** A combinational net folded onto a rail. */
    struct ConstNet
    {
        NetId net;
        bool value;
    };
    std::vector<ConstDff> consts;
    std::vector<PairDff> pairs;
    /** In plan (topological) order: each proof hardens into a unit
     *  clause the later cones reuse. */
    std::vector<ConstNet> nets;
};

/**
 * What rebuild() does with each net and cell of its source. A net
 * keeps its driver unless it takes an alias (a rail for a folded
 * constant, a class leader, a pair keeper), read through a new
 * INV_X1 when `inverted`. A cell marked dead is dropped.
 */
struct RewritePlan
{
    explicit RewritePlan(const Netlist &nl)
        : alias(nl.numNets(), kNoNet), inverted(nl.numNets(), 0),
          dead(nl.numCells(), 0)
    {
    }

    std::vector<NetId> alias;
    std::vector<uint8_t> inverted;
    std::vector<uint8_t> dead;
};

/**
 * Rebuild @p nl (elaborated) under @p plan as the netlist @p name,
 * with the same pad interface. Cells are made in a fixed order:
 * pads, then DFFs in commit order (an aliased DFF's INV_X1 among
 * them), then the plan steps; so an alias must be a rail, a pad, an
 * earlier DFF or an earlier step. @p dffMap gets each source DFF's
 * rebuilt index (kPrunedAway when aliased or dead), @p netMap each
 * source net's rebuilt net, carrying the same value (kNoNet when
 * dropped). Returns null, with the reason in @p err, when a kept
 * cell or an alias reads a dropped net.
 */
std::unique_ptr<Netlist> rebuild(const Netlist &nl,
                                 const RewritePlan &plan,
                                 const std::string &name,
                                 std::vector<size_t> &dffMap,
                                 std::vector<NetId> &netMap,
                                 std::string &err);

/**
 * Discharge a rewrite of @p orig into @p rewritten: the claims of
 * @p inv by induction under the ties of @p opts, then the observable
 * miter (see the file comment). @p dffMap and @p netMap are
 * rebuild()'s maps; an empty @p netMap skips the interior sweep (a
 * pure observable proof). Exposed so tests can certify tampered
 * rewrites and exercise the counterexample path.
 */
EquivResult certifyRewrite(const Netlist &orig,
                           const Netlist &rewritten,
                           const SeqInvariants &inv,
                           const std::vector<size_t> &dffMap,
                           const std::vector<NetId> &netMap,
                           const DataflowOptions &opts = {});

/**
 * certifyRewrite() on the claims a prune reads off @p df: every
 * constant DFF and every folded combinational net of @p orig.
 */
EquivResult certifyPrune(const Netlist &orig, const Netlist &pruned,
                         const DataflowResult &df,
                         const std::vector<size_t> &dffMap,
                         const std::vector<NetId> &netMap,
                         const DataflowOptions &opts = {});

/**
 * Assert the tie environment of @p opts on @p nl's pads as encoded
 * in @p enc. False, with the reason in @p err, when a tie names an
 * input @p nl does not have.
 */
bool assertTies(CnfBuilder &cnf, const Netlist &nl,
                const DataflowOptions &opts,
                const NetlistEncoding &enc, std::string &err);

/**
 * Prune @p nl (must be elaborated) under the tie environment of
 * @p opts. With @p certify (the default), the result is SAT-proven
 * equivalent before being returned; an uncertified result carries
 * the counterexample in `certification`.
 */
PruneResult prune(const Netlist &nl, const DataflowOptions &opts = {},
                  bool certify = true);

/**
 * Replay a certification counterexample on both simulators: restore
 * the named state bits, drive the named inputs, evaluate, clock.
 * Returns true iff the two netlists observably diverge (a primary
 * output before the edge or a shared state bit after it); the
 * divergence is described in @p what when given.
 */
bool replayPruneCex(const Netlist &orig, const Netlist &pruned,
                    const std::vector<size_t> &dffMap,
                    const EquivCounterexample &cex,
                    std::string *what = nullptr);

} // namespace flexi

#endif // FLEXI_ANALYSIS_DATAFLOW_PRUNE_HH
