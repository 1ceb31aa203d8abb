/**
 * @file
 * Tseitin CNF construction over elaborated netlists.
 *
 * CnfBuilder is a thin circuit-construction layer on top of the SAT
 * solver: fresh literals, constant literals, standard gates with
 * constant folding, and little-endian word helpers (ripple adders,
 * muxes) used by the behavioral ISA specifications.
 *
 * encodeNetlist() turns a netlist into CNF in one of two
 * deliberately independent ways:
 *
 *  - Reference: clauses derived from each CellInst's gate semantics
 *    (NAND2 becomes the three NAND clauses, and so on) — the same
 *    semantics evaluateReference() interprets;
 *  - WordPlan: clauses derived by walking the fused-run program
 *    (Netlist::planRuns()) with each step encoded from its WordOp's
 *    gate semantics — the exact straight-line program the compiled
 *    engine (LaneGroup, which also backs Netlist::evaluate())
 *    dispatches.
 *
 * A miter between the two (shared primary-input and DFF-Q
 * variables) therefore proves the fused word-op dispatch program
 * bit-equal to the reference interpreter for every cell cone.
 *
 * The checkers' shared proof helpers live here too: proveEqual() and
 * proveConst() (incremental SAT-sweep steps that harden what they
 * prove), extractCex() (a named counterexample from the last model)
 * and sampleModels() (64-bit model signatures that nominate sweep
 * candidates and witness separations before any real search).
 */

#ifndef FLEXI_ANALYSIS_CNF_ENCODER_HH
#define FLEXI_ANALYSIS_CNF_ENCODER_HH

#include <cstdint>
#include <vector>

#include "analysis/sat.hh"
#include "netlist/netlist.hh"

namespace flexi
{

class CnfBuilder
{
  public:
    /** A little-endian vector of literals. */
    using Word = std::vector<SatLit>;

    explicit CnfBuilder(SatSolver &solver) : solver_(solver) {}

    SatSolver &solver() { return solver_; }

    SatLit fresh();
    SatLit constTrue();
    SatLit constFalse() { return ~constTrue(); }
    SatLit constant(bool b) { return b ? constTrue() : constFalse(); }
    bool isConstTrue(SatLit l);
    bool isConstFalse(SatLit l);

    /** Add a clause; see SatSolver::addClause. */
    void addClause(const SatLit *begin, const SatLit *end)
    {
        solver_.addClause(begin, end);
    }
    void addClause(std::initializer_list<SatLit> lits)
    {
        solver_.addClause(lits);
    }
    void addClause(const std::vector<SatLit> &lits)
    {
        solver_.addClause(lits);
    }
    void assertLit(SatLit l) { addClause({l}); }

    /** Gates (with constant folding). */
    SatLit mkAnd(SatLit a, SatLit b);
    SatLit mkOr(SatLit a, SatLit b);
    SatLit mkNand(SatLit a, SatLit b) { return ~mkAnd(a, b); }
    SatLit mkNor(SatLit a, SatLit b) { return ~mkOr(a, b); }
    SatLit mkXor(SatLit a, SatLit b);
    SatLit mkXnor(SatLit a, SatLit b) { return ~mkXor(a, b); }
    /** sel ? b : a (matching the MUX2 cell's input order a, b, sel). */
    SatLit mkMux(SatLit a, SatLit b, SatLit sel);
    SatLit mkAndN(const std::vector<SatLit> &lits);
    SatLit mkOrN(const std::vector<SatLit> &lits);

    /** @name Word helpers (LSB first) */
    ///@{
    Word freshWord(unsigned width);
    Word constWord(uint64_t value, unsigned width);
    /** Ripple-carry a + b + cin; optionally yields the carry out. */
    Word add(const Word &a, const Word &b, SatLit cin,
             SatLit *cout = nullptr);
    Word mux(const Word &a, const Word &b, SatLit sel);
    Word invert(const Word &a);
    SatLit equalsConst(const Word &w, uint64_t value);
    /** Unsigned w < value (the sequential checker's bound props). */
    SatLit lessThanConst(const Word &w, uint64_t value);
    /** Bitwise equality of two same-width words. */
    SatLit equalWords(const Word &a, const Word &b);
    /** Constrain two literals equal (two binary clauses). */
    void bindEqual(SatLit a, SatLit b);
    SatLit orReduce(const Word &w);
    SatLit norReduce(const Word &w) { return ~orReduce(w); }
    ///@}

    /** Read a word back from the solver model (after Sat). */
    uint64_t modelWord(const Word &w) const;

  private:
    SatSolver &solver_;
    SatLit const_;   ///< lazily created root-asserted true literal
    bool haveConst_ = false;
};

/**
 * One netlist rendered to CNF: a literal per net plus the DFF D/Q
 * literals in DFF commit order. dffD holds the *effective* captured
 * value (a fault forcing a Q net overrides the D cone, exactly as
 * clockEdge() does).
 */
struct NetlistEncoding
{
    std::vector<SatLit> net;   ///< per NetId; invalid if unused
    std::vector<SatLit> dffD;
    std::vector<SatLit> dffQ;

    bool hasLit(NetId n) const
    {
        return n < net.size() && net[n].code >= 0;
    }
    SatLit lit(NetId n) const { return net[n]; }
};

enum class NetlistEncodeMode { Reference, WordPlan };

struct NetlistEncodeOptions
{
    NetlistEncodeMode mode = NetlistEncodeMode::Reference;
    /** Honor the instance's injected stuck-at faults. */
    bool applyFaults = false;
    /**
     * Share primary-input variables (matched by input name against
     * @p shareWith) and DFF state variables (matched by DFF commit
     * order) with a previous encoding, making the two encodings two
     * halves of a miter.
     */
    const NetlistEncoding *share = nullptr;
    const Netlist *shareWith = nullptr;
    /**
     * Bind every DFF Q literal (commit order) to the given literal
     * instead of a fresh variable. The sequential unroller stitches
     * timestep t+1 to timestep t by binding the new frame's Q nets
     * to the previous frame's effective dffD literals. Mutually
     * exclusive with `share`.
     */
    const std::vector<SatLit> *bindQ = nullptr;
};

NetlistEncoding encodeNetlist(CnfBuilder &cnf, const Netlist &nl,
                              const NetlistEncodeOptions &opts = {});

/** @name SAT proof helpers shared by the sweeps and checkers */
///@{

/**
 * Prove @p a == @p b with two assumption solves ({a, ~b}, then
 * {~a, b}) and, on success, harden the equality into the CNF so
 * later proofs get it for free. Each solve bumps @p solves.
 */
bool proveEqual(CnfBuilder &cnf, SatLit a, SatLit b,
                uint64_t &solves);

/** Prove @p l == @p value with one solve; harden it on success. */
bool proveConst(CnfBuilder &cnf, SatLit l, bool value,
                uint64_t &solves);

struct EquivCounterexample;   // analysis/equiv.hh

/**
 * Full named input + state assignment of @p nl under @p enc, read
 * from the solver's last Sat model (mismatched left empty).
 */
EquivCounterexample extractCex(const SatSolver &solver,
                               const Netlist &nl,
                               const NetlistEncoding &enc);

/** Per-variable signatures over a handful of sampled models. */
struct ModelSamples
{
    /** Satisfiable samples drawn (bits 0..count-1 are valid). */
    unsigned count = 0;
    /** Bit s of sig[v]: variable v's value in sample s. */
    std::vector<uint64_t> sig;

    /** The valid signature bits. */
    uint64_t mask() const
    {
        return count >= 64 ? ~0ull : (1ull << count) - 1;
    }
    /** The signature of a literal (complemented when negated). */
    uint64_t of(SatLit l) const
    {
        return (l.negated() ? ~sig[l.var()] : sig[l.var()]) & mask();
    }
};

/**
 * Draw up to @p count (<= 64) models of the solver's formula, each
 * by solving under seeded random values for @p primaries. Every
 * encoding here is a function of its primary inputs and state, so
 * such a solve is pure propagation. Primaries fixed at the root (a
 * stuck-at constant, a tied pad) and repeats are skipped, so the
 * assumptions never contradict the formula; an unsatisfiable draw is
 * dropped rather than counted. Each solve bumps @p solves. Hardening
 * only implied clauses later never invalidates a sample: it stays a
 * model of the formula.
 */
ModelSamples sampleModels(SatSolver &solver,
                          const std::vector<SatLit> &primaries,
                          unsigned count, uint64_t seed,
                          uint64_t &solves);
///@}

} // namespace flexi

#endif // FLEXI_ANALYSIS_CNF_ENCODER_HH
