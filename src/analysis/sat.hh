/**
 * @file
 * A small self-contained CDCL SAT solver.
 *
 * This is the decision engine behind the formal checker: conflict-
 * driven clause learning with two-watched-literal propagation, 1UIP
 * conflict analysis (no clause minimization), VSIDS-style activity
 * ordering, phase saving, Luby restarts, and solving under
 * assumptions (used to check one instruction class of a miter at a
 * time without rebuilding the CNF).
 *
 * Storage is MiniSat's (Een & Sorensson, SAT 2003): every clause
 * lives in one flat arena and is named by its offset; a binary
 * clause propagates from its watcher alone, the other literal being
 * the blocker; clause intake sorts in a reused scratch buffer; heap
 * entries carry their activity inline.
 *
 * The search order is part of the contract: every solve and conflict
 * count the checkers report depends on the order in which clauses
 * are stored and watchers visited. A layout change must pass the
 * search pin in tests/test_formal.cc untouched (docs/FORMAL.md).
 *
 * The instances are miters over a few hundred standard cells —
 * thousands of variables, tens of thousands of clauses — and most
 * solves are pure propagation, so there is no clause-database
 * reduction and no preprocessing. LoadStore4's unswept ISA miter
 * still takes ~11.8k conflicts; the ISA checker sweeps it first
 * (sampleModels() in analysis/cnf_encoder.hh), which cuts that to
 * ~1.2k.
 */

#ifndef FLEXI_ANALYSIS_SAT_HH
#define FLEXI_ANALYSIS_SAT_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory_resource>
#include <vector>

namespace flexi
{

/** Variable index (0-based). */
using SatVar = int;

/**
 * A literal: variable with polarity, encoded as 2*var (positive) or
 * 2*var+1 (negated), so negation is an XOR and literals index arrays
 * directly.
 */
struct SatLit
{
    int code = -1;

    SatLit() = default;
    static SatLit make(SatVar v, bool negated = false)
    {
        SatLit l;
        l.code = 2 * v + (negated ? 1 : 0);
        return l;
    }
    SatVar var() const { return code >> 1; }
    bool negated() const { return (code & 1) != 0; }
    SatLit operator~() const
    {
        SatLit l;
        l.code = code ^ 1;
        return l;
    }
    bool operator==(const SatLit &o) const { return code == o.code; }
    bool operator!=(const SatLit &o) const { return code != o.code; }
};

class SatSolver
{
  public:
    enum class Result { Sat, Unsat };

    struct Stats
    {
        uint64_t decisions = 0;
        uint64_t propagations = 0;
        uint64_t conflicts = 0;
        uint64_t restarts = 0;
    };

    SatVar newVar();
    int numVars() const { return static_cast<int>(assign_.size()); }

    /**
     * Add the clause [@p begin, @p end) (empty clause or conflicting
     * unit makes the formula trivially unsatisfiable; later solve()
     * calls return Unsat). Returns false iff the formula is already
     * known unsatisfiable at the root level.
     */
    bool addClause(const SatLit *begin, const SatLit *end);
    bool addClause(std::initializer_list<SatLit> lits)
    {
        return addClause(lits.begin(), lits.end());
    }
    bool addClause(const std::vector<SatLit> &lits)
    {
        return addClause(lits.data(), lits.data() + lits.size());
    }

    /**
     * Solve the formula under the assumption literals [@p begin,
     * @p end). The model (on Sat) assigns every variable;
     * assumptions hold in it. Incremental: clauses learned in one
     * call carry over.
     */
    Result solve(const SatLit *begin, const SatLit *end);
    Result solve(std::initializer_list<SatLit> assumptions)
    {
        return solve(assumptions.begin(), assumptions.end());
    }
    Result solve(const std::vector<SatLit> &assumptions = {})
    {
        return solve(assumptions.data(),
                     assumptions.data() + assumptions.size());
    }

    /**
     * True iff @p v is assigned at decision level 0: the root
     * clauses fix it to the same value in every model (a unit
     * clause, a tied pad, a stuck-at constant).
     */
    bool fixedAtRoot(SatVar v) const
    {
        return assign_[v] != kUnassigned && vars_[v].level == 0;
    }

    /** Model value of a variable after a Sat result. */
    bool modelValue(SatVar v) const;
    bool modelValue(SatLit l) const
    {
        return modelValue(l.var()) != l.negated();
    }

    const Stats &stats() const { return stats_; }

  private:
    // Assignment lattice: 0 = true, 1 = false, 2 = unassigned
    // (tri-state chosen so `assign_[v] == lit.negated()` tests a
    // literal's truth in one compare).
    static constexpr uint8_t kTrue = 0;
    static constexpr uint8_t kFalse = 1;
    static constexpr uint8_t kUnassigned = 2;

    /** A clause: the offset of its header slot in arena_. */
    using CRef = uint32_t;
    static constexpr CRef kNoReason = UINT32_MAX;

    struct Watcher
    {
        uint32_t tag;    ///< clause offset << 1, | 1 for a binary clause
        SatLit blocker;  ///< often-true literal checked first; a
                         ///< binary clause's other literal
    };

    struct VarData
    {
        CRef reason;   ///< clause forcing the var, or kNoReason
        int level;     ///< decision level of the var
    };

    struct HeapEntry
    {
        double activity;   ///< always activity_[var]
        SatVar var;
    };

    bool litTrue(SatLit l) const
    {
        return assign_[l.var()] == (l.negated() ? kFalse : kTrue);
    }
    bool litFalse(SatLit l) const
    {
        return assign_[l.var()] == (l.negated() ? kTrue : kFalse);
    }

    /**
     * The arena holds each clause as a header slot (its length, in
     * the slot's code) followed by its literals. Pointers into it
     * die with the next append: never hold one across storeClause().
     */
    uint32_t clauseSize(CRef c) const
    {
        return static_cast<uint32_t>(arena_[c].code);
    }
    SatLit *clauseLits(CRef c) { return &arena_[c + 1]; }

    CRef storeClause(const SatLit *lits, uint32_t n);
    void enqueue(SatLit l, CRef reason);
    CRef propagate();   ///< conflicting clause or kNoReason
    void analyze(CRef confl, int &backtrack_level);
    void backtrack(int level);
    void bumpVar(SatVar v);
    void decayActivities();
    static uint64_t luby(uint64_t i);

    void heapInsert(SatVar v);
    void heapSiftUp(int i);
    void heapSiftDown(int i);
    SatVar heapPopMax();

    std::vector<SatLit> arena_;   ///< every clause
    /**
     * Watch lists live in one bump allocator freed with the solver.
     * A list that outgrows its block leaves it behind, but a list
     * never holds more watchers than its literal has occurrences,
     * so the pool stays within a small multiple of the arena.
     */
    std::pmr::monotonic_buffer_resource watchPool_;
    std::vector<std::pmr::vector<Watcher>> watches_;   ///< per literal
    std::vector<uint8_t> assign_;                 ///< per variable
    std::vector<uint8_t> phase_;       ///< saved phase (1 = false)
    std::vector<VarData> vars_;
    std::vector<double> activity_;
    std::vector<SatLit> trail_;
    std::vector<int> trailLim_;        ///< trail size per level
    std::vector<HeapEntry> heap_;      ///< activity max-heap
    std::vector<int> heapPos_;         ///< heap index per var, -1 out
    std::vector<uint8_t> model_;       ///< snapshot of the last Sat
    size_t qhead_ = 0;
    double varInc_ = 1.0;
    bool unsat_ = false;               ///< root-level conflict seen
    std::vector<uint8_t> seen_;        ///< scratch for analyze()
    std::vector<SatLit> learned_;      ///< scratch for analyze()
    std::vector<SatLit> intake_;       ///< scratch for addClause()
    Stats stats_;
};

} // namespace flexi

#endif // FLEXI_ANALYSIS_SAT_HH
