/**
 * @file
 * A small self-contained CDCL SAT solver.
 *
 * This is the decision engine behind the formal checker: conflict-
 * driven clause learning with two-watched-literal propagation, 1UIP
 * conflict analysis, VSIDS-style activity ordering, phase saving,
 * Luby restarts, and solving under assumptions (used to check one
 * instruction class of a miter at a time without rebuilding the CNF).
 *
 * The instances we solve are miters over a few hundred standard
 * cells — thousands of variables, tens of thousands of clauses — so
 * the solver favors clarity over heroics: no clause-database
 * reduction, no preprocessing. Most equivalence proofs on these
 * netlists complete in milliseconds, but a monolithic miter can
 * still cost thousands of conflicts: LoadStore4's unswept ISA miter
 * takes ~11.8k conflicts and ~180 ms. The ISA checker therefore
 * sweeps its miter first (sampleModels() in analysis/cnf_encoder.hh),
 * which cuts that to ~1.2k conflicts without touching this engine.
 */

#ifndef FLEXI_ANALYSIS_SAT_HH
#define FLEXI_ANALYSIS_SAT_HH

#include <cstddef>
#include <cstdint>
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
     * Add a clause (empty clause or conflicting unit makes the
     * formula trivially unsatisfiable; later solve() calls return
     * Unsat). Returns false iff the formula is already known
     * unsatisfiable at the root level.
     */
    bool addClause(std::vector<SatLit> lits);

    /**
     * Solve the formula under the given assumption literals. The
     * model (on Sat) assigns every variable; assumptions hold in it.
     * Incremental: clauses learned in one call carry over.
     */
    Result solve(const std::vector<SatLit> &assumptions = {});

    /**
     * True iff @p v is assigned at decision level 0: the root
     * clauses fix it to the same value in every model (a unit
     * clause, a tied pad, a stuck-at constant).
     */
    bool fixedAtRoot(SatVar v) const
    {
        return assign_[v] != kUnassigned && level_[v] == 0;
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

    static constexpr int kNoReason = -1;

    struct Watcher
    {
        int clause;      ///< index into clauses_
        SatLit blocker;  ///< often-true literal checked first
    };

    bool litTrue(SatLit l) const
    {
        return assign_[l.var()] == (l.negated() ? kFalse : kTrue);
    }
    bool litFalse(SatLit l) const
    {
        return assign_[l.var()] == (l.negated() ? kTrue : kFalse);
    }
    bool litUnassigned(SatLit l) const
    {
        return assign_[l.var()] == kUnassigned;
    }

    void enqueue(SatLit l, int reason);
    int propagate();   ///< conflicting clause index or kNoReason
    void analyze(int confl, std::vector<SatLit> &learned,
                 int &backtrack_level);
    void backtrack(int level);
    void bumpVar(SatVar v);
    void decayActivities();
    SatVar pickBranchVar();
    void attachClause(int ci);
    static uint64_t luby(uint64_t i);

    void heapInsert(SatVar v);
    void heapSwap(int i, int j);
    void heapSiftUp(int i);
    void heapSiftDown(int i);
    SatVar heapPopMax();

    std::vector<std::vector<SatLit>> clauses_;
    std::vector<std::vector<Watcher>> watches_;   ///< per literal
    std::vector<uint8_t> assign_;                 ///< per variable
    std::vector<uint8_t> phase_;       ///< saved phase (1 = false)
    std::vector<int> reason_;          ///< clause forcing the var
    std::vector<int> level_;           ///< decision level of the var
    std::vector<double> activity_;
    std::vector<SatLit> trail_;
    std::vector<int> trailLim_;        ///< trail size per level
    std::vector<SatVar> heap_;         ///< activity max-heap
    std::vector<int> heapPos_;         ///< heap index per var, -1 out
    std::vector<uint8_t> model_;       ///< snapshot of the last Sat
    size_t qhead_ = 0;
    double varInc_ = 1.0;
    bool unsat_ = false;               ///< root-level conflict seen
    std::vector<uint8_t> seen_;        ///< scratch for analyze()
    Stats stats_;
};

} // namespace flexi

#endif // FLEXI_ANALYSIS_SAT_HH
