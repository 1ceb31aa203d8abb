#include "sat.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flexi
{

SatVar
SatSolver::newVar()
{
    SatVar v = numVars();
    assign_.push_back(kUnassigned);
    phase_.push_back(1);   // prefer false first, like MiniSat
    vars_.push_back({kNoReason, 0});
    activity_.push_back(0.0);
    seen_.push_back(0);
    heapPos_.push_back(-1);
    watches_.emplace_back(&watchPool_);
    watches_.emplace_back(&watchPool_);
    heapInsert(v);
    return v;
}

// ---------------------------------------------------------------
// Activity-ordered decision heap (max-heap keyed by the activity
// each entry carries, equal to activity_ at all times).

void
SatSolver::heapInsert(SatVar v)
{
    if (heapPos_[v] >= 0)
        return;
    heap_.push_back({activity_[v], v});
    heapSiftUp(static_cast<int>(heap_.size()) - 1);
}

void
SatSolver::heapSiftUp(int i)
{
    HeapEntry x = heap_[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (heap_[parent].activity >= x.activity)
            break;
        heap_[i] = heap_[parent];
        heapPos_[heap_[i].var] = i;
        i = parent;
    }
    heap_[i] = x;
    heapPos_[x.var] = i;
}

void
SatSolver::heapSiftDown(int i)
{
    HeapEntry x = heap_[i];
    int n = static_cast<int>(heap_.size());
    for (;;) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            heap_[child + 1].activity > heap_[child].activity)
            ++child;
        if (!(heap_[child].activity > x.activity))
            break;
        heap_[i] = heap_[child];
        heapPos_[heap_[i].var] = i;
        i = child;
    }
    heap_[i] = x;
    heapPos_[x.var] = i;
}

SatVar
SatSolver::heapPopMax()
{
    while (!heap_.empty()) {
        SatVar v = heap_[0].var;
        heapPos_[v] = -1;
        HeapEntry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_[0] = last;
            heapPos_[last.var] = 0;
            heapSiftDown(0);
        }
        if (assign_[v] == kUnassigned)
            return v;
    }
    return -1;
}

void
SatSolver::bumpVar(SatVar v)
{
    activity_[v] += varInc_;
    if (activity_[v] > 1e100) {
        for (double &a : activity_)
            a *= 1e-100;
        for (HeapEntry &e : heap_)
            e.activity *= 1e-100;
        varInc_ *= 1e-100;
    }
    int pos = heapPos_[v];
    if (pos >= 0) {
        heap_[pos].activity = activity_[v];
        heapSiftUp(pos);
    }
}

void
SatSolver::decayActivities()
{
    varInc_ *= (1.0 / 0.95);
}

// ---------------------------------------------------------------

SatSolver::CRef
SatSolver::storeClause(const SatLit *lits, uint32_t n)
{
    // Watcher tags keep one bit for the binary flag.
    if (arena_.size() + n + 1 > (size_t{1} << 31))
        panic("SatSolver: clause arena full");
    CRef c = static_cast<CRef>(arena_.size());
    SatLit header;
    header.code = static_cast<int>(n);
    arena_.push_back(header);
    arena_.insert(arena_.end(), lits, lits + n);
    uint32_t tag = c << 1 | (n == 2 ? 1u : 0u);
    watches_[lits[0].code].push_back({tag, lits[1]});
    watches_[lits[1].code].push_back({tag, lits[0]});
    return c;
}

bool
SatSolver::addClause(const SatLit *begin, const SatLit *end)
{
    if (unsat_)
        return false;
    backtrack(0);

    intake_.assign(begin, end);
    std::sort(intake_.begin(), intake_.end(),
              [](SatLit a, SatLit b) { return a.code < b.code; });
    // Filter in place: intake_[0, n) is the clause kept so far.
    uint32_t n = 0;
    for (SatLit l : intake_) {
        if (l.var() < 0 || l.var() >= numVars())
            panic("addClause: literal over unknown variable");
        if (n > 0 && intake_[n - 1] == l)
            continue;   // duplicate
        if (n > 0 && intake_[n - 1] == ~l)
            return true;   // tautology: l or ~l
        if (litTrue(l))
            return true;   // satisfied at root
        if (litFalse(l))
            continue;      // falsified at root: drop literal
        intake_[n++] = l;
    }

    if (n == 0) {
        unsat_ = true;
        return false;
    }
    if (n == 1) {
        enqueue(intake_[0], kNoReason);
        if (propagate() != kNoReason) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    storeClause(intake_.data(), n);
    return true;
}

void
SatSolver::enqueue(SatLit l, CRef reason)
{
    SatVar v = l.var();
    assign_[v] = l.negated() ? kFalse : kTrue;
    vars_[v] = {reason, static_cast<int>(trailLim_.size())};
    trail_.push_back(l);
    ++stats_.propagations;
}

SatSolver::CRef
SatSolver::propagate()
{
    while (qhead_ < trail_.size()) {
        SatLit p = trail_[qhead_++];
        SatLit np = ~p;   // now false
        std::pmr::vector<Watcher> &ws = watches_[np.code];
        Watcher *i = ws.data();
        Watcher *j = i;
        Watcher *const end = i + ws.size();
        CRef confl = kNoReason;
        while (i != end) {
            Watcher w = *i++;
            if (litTrue(w.blocker)) {
                *j++ = w;
                continue;
            }
            CRef c = w.tag >> 1;
            if (w.tag & 1) {
                // Binary: the blocker is the other literal.
                *j++ = w;
                if (!litFalse(w.blocker)) {
                    enqueue(w.blocker, c);
                    continue;
                }
                // Conflict: order the clause as a long clause's
                // scan leaves it, the false watch second, since
                // analyze() visits a conflict's literals in order.
                SatLit *cl = clauseLits(c);
                cl[0] = w.blocker;
                cl[1] = np;
                confl = c;
                break;
            }
            SatLit *cl = clauseLits(c);
            uint32_t n = clauseSize(c);
            // Normalize: the false literal sits at cl[1].
            if (cl[0] == np)
                std::swap(cl[0], cl[1]);
            if (litTrue(cl[0])) {
                *j++ = {w.tag, cl[0]};
                continue;
            }
            // Look for a replacement watch. Its literal is not false,
            // so its list is never the one being scanned.
            uint32_t k = 2;
            while (k < n && litFalse(cl[k]))
                ++k;
            if (k < n) {
                std::swap(cl[1], cl[k]);
                watches_[cl[1].code].push_back({w.tag, cl[0]});
                continue;
            }
            // Unit or conflicting.
            *j++ = {w.tag, cl[0]};
            if (litFalse(cl[0])) {
                confl = c;
                break;
            }
            enqueue(cl[0], c);
        }
        if (confl != kNoReason) {
            // Keep the remaining watchers, flush the queue.
            while (i != end)
                *j++ = *i++;
            ws.resize(j - ws.data());
            qhead_ = trail_.size();
            return confl;
        }
        ws.resize(j - ws.data());
    }
    return kNoReason;
}

void
SatSolver::analyze(CRef confl, int &backtrack_level)
{
    learned_.clear();
    learned_.push_back(SatLit{});   // slot for the asserting 1UIP lit

    int path = 0;
    SatLit p;
    bool have_p = false;
    size_t index = trail_.size();
    int current = static_cast<int>(trailLim_.size());
    CRef c = confl;

    do {
        const SatLit *q = clauseLits(c);
        const SatLit *end = q + clauseSize(c);
        if (have_p) {
            // Skip the reason's implied literal p: first in a long
            // clause, either one in a binary clause, which
            // propagation never reorders.
            if (end - q == 2 && q[0].var() != p.var())
                --end;
            else
                ++q;
        }
        for (; q != end; ++q) {
            SatVar v = q->var();
            if (seen_[v] || vars_[v].level == 0)
                continue;
            seen_[v] = 1;
            bumpVar(v);
            if (vars_[v].level >= current)
                ++path;
            else
                learned_.push_back(*q);
        }
        // Walk the trail back to the next marked literal.
        do {
            --index;
        } while (!seen_[trail_[index].var()]);
        p = trail_[index];
        have_p = true;
        c = vars_[p.var()].reason;
        seen_[p.var()] = 0;
        --path;
    } while (path > 0);
    learned_[0] = ~p;

    if (learned_.size() == 1) {
        backtrack_level = 0;
    } else {
        // Second-highest decision level in the clause becomes the
        // backjump target; keep a literal of that level at slot 1
        // so it stays watched.
        size_t best = 1;
        for (size_t k = 2; k < learned_.size(); ++k)
            if (vars_[learned_[k].var()].level >
                vars_[learned_[best].var()].level)
                best = k;
        std::swap(learned_[1], learned_[best]);
        backtrack_level = vars_[learned_[1].var()].level;
    }
    for (size_t k = 1; k < learned_.size(); ++k)
        seen_[learned_[k].var()] = 0;
}

void
SatSolver::backtrack(int level)
{
    if (static_cast<int>(trailLim_.size()) <= level)
        return;
    size_t keep = trailLim_[level];
    for (size_t k = trail_.size(); k > keep; --k) {
        SatVar v = trail_[k - 1].var();
        phase_[v] = assign_[v];
        assign_[v] = kUnassigned;
        vars_[v].reason = kNoReason;
        heapInsert(v);
    }
    trail_.resize(keep);
    trailLim_.resize(level);
    qhead_ = trail_.size();
}

uint64_t
SatSolver::luby(uint64_t i)
{
    // The reluctant-doubling sequence 1 1 2 1 1 2 4 ...
    uint64_t k = 1;
    while ((1ull << (k + 1)) - 1 <= i + 1)
        ++k;
    while ((1ull << k) - 1 != i + 1) {
        i -= (1ull << k) - 1;
        k = 1;
        while ((1ull << (k + 1)) - 1 <= i + 1)
            ++k;
    }
    return 1ull << (k - 1);
}

SatSolver::Result
SatSolver::solve(const SatLit *begin, const SatLit *end)
{
    const size_t nassume = static_cast<size_t>(end - begin);
    if (unsat_)
        return Result::Unsat;
    backtrack(0);
    if (propagate() != kNoReason) {
        unsat_ = true;
        return Result::Unsat;
    }

    uint64_t budget = 100 * luby(stats_.restarts);

    for (;;) {
        CRef confl = propagate();
        if (confl != kNoReason) {
            ++stats_.conflicts;
            if (trailLim_.empty()) {
                unsat_ = true;
                return Result::Unsat;
            }
            int bt = 0;
            analyze(confl, bt);
            backtrack(bt);
            if (learned_.size() == 1) {
                enqueue(learned_[0], kNoReason);
            } else {
                CRef c = storeClause(
                    learned_.data(),
                    static_cast<uint32_t>(learned_.size()));
                enqueue(learned_[0], c);
            }
            decayActivities();
            if (budget > 0)
                --budget;
            continue;
        }

        if (budget == 0 && !trailLim_.empty()) {
            ++stats_.restarts;
            budget = 100 * luby(stats_.restarts);
            backtrack(0);
            continue;
        }

        // Place pending assumptions as pseudo-decisions, then make a
        // real decision.
        SatLit next;
        bool have_next = false;
        while (trailLim_.size() < nassume) {
            SatLit a = begin[trailLim_.size()];
            if (litTrue(a)) {
                trailLim_.push_back(trail_.size());
            } else if (litFalse(a)) {
                return Result::Unsat;
            } else {
                next = a;
                have_next = true;
                break;
            }
        }
        if (!have_next) {
            SatVar v = heapPopMax();
            if (v < 0) {
                model_.assign(assign_.begin(), assign_.end());
                return Result::Sat;
            }
            ++stats_.decisions;
            next = SatLit::make(v, phase_[v] != kTrue);
            have_next = true;
        }
        trailLim_.push_back(trail_.size());
        enqueue(next, kNoReason);
    }
}

bool
SatSolver::modelValue(SatVar v) const
{
    if (v < 0 || static_cast<size_t>(v) >= model_.size())
        panic("modelValue: no model for variable %d", v);
    return model_[v] == kTrue;
}

} // namespace flexi
