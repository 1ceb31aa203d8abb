#include "lane_group.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

// Threaded (computed-goto) dispatch needs the GNU `&&label` /
// `goto *p` extension; every other compiler gets the portable
// indirect-threaded function table, which executes the identical
// per-run kernels through one indirect call per fused run.
#if defined(__GNUC__) || defined(__clang__)
#define FLEXI_THREADED_DISPATCH 1
#else
#define FLEXI_THREADED_DISPATCH 0
#endif

namespace flexi
{

namespace
{

/**
 * Native word expression per WordOp, over input words av/bv/cv.
 * Order must match the WordOp enum; Lut is handled separately (it
 * needs the per-step truth table).
 */
#define FLEXI_WORD_OPS(X)                                             \
    X(Buf, av)                                                        \
    X(Inv, ~av)                                                       \
    X(Nand2, ~(av & bv))                                              \
    X(Nand3, ~(av & bv & cv))                                         \
    X(Nor2, ~(av | bv))                                               \
    X(Nor3, ~(av | bv | cv))                                          \
    X(Xor2, av ^ bv)                                                  \
    X(Xnor2, ~(av ^ bv))                                              \
    X(Mux2, av ^ ((av ^ bv) & cv))

/** Generic fallback: minterm expansion of the step's 8-bit truth
 *  table. Padded slots read the always-zero scratch group, whose
 *  complemented literal is all-ones — exactly the semantics of a
 *  truth-table index bit padded with 0. Computes the identical
 *  function to the native expression for every op. */
inline uint64_t
lutWord(uint64_t av, uint64_t bv, uint64_t cv, uint8_t lut)
{
    uint64_t v = 0;
    for (unsigned t = 0; t < 8; ++t) {
        if (!((lut >> t) & 1))
            continue;
        v |= ((t & 1) ? av : ~av) & ((t & 2) ? bv : ~bv) &
             ((t & 4) ? cv : ~cv);
    }
    return v;
}

/** Everything a run kernel touches, gathered once per evaluate(). */
struct RunCtx
{
    const NetId *in;
    const NetId *out;
    const uint8_t *lut;
    uint64_t *val;
    const uint64_t *mask;
    const uint64_t *fval;
    uint64_t *toggles;
    const uint32_t *cell;
    const uint64_t *laneMask;
};

/**
 * Execute plan steps [begin, end) — one fused run — computing each
 * output word group with @p fn; kBlend selects whether the per-lane
 * force groups are blended in (the force-split program only
 * dispatches blending kernels for steps that actually carry a force
 * bit). The W-word inner loop is the auto-vectorization target:
 * every access strides unit distance through the SoA groups.
 */
template <unsigned W, bool kToggles, bool kBlend, class Fn>
inline void
runSteps(const RunCtx &ctx, size_t begin, size_t end, Fn fn)
{
    for (size_t i = begin; i < end; ++i) {
        const uint64_t *a = ctx.val + size_t(ctx.in[3 * i]) * W;
        const uint64_t *b = ctx.val + size_t(ctx.in[3 * i + 1]) * W;
        const uint64_t *c = ctx.val + size_t(ctx.in[3 * i + 2]) * W;
        size_t o = size_t(ctx.out[i]) * W;
        uint64_t *ov = ctx.val + o;
        const uint64_t *m = ctx.mask + o;
        const uint64_t *fv = ctx.fval + o;
        uint8_t lut = ctx.lut[i];
        if constexpr (!kToggles) {
            for (unsigned w = 0; w < W; ++w) {
                uint64_t v = fn(a[w], b[w], c[w], lut);
                if constexpr (kBlend)
                    v = (v & ~m[w]) | (fv[w] & m[w]);
                ov[w] = v;
            }
        } else {
            uint64_t *tg =
                ctx.toggles +
                size_t(ctx.cell[i]) * (W * LaneGroup::kWordLanes);
            for (unsigned w = 0; w < W; ++w) {
                uint64_t v = fn(a[w], b[w], c[w], lut);
                v = (v & ~m[w]) | (fv[w] & m[w]);
                uint64_t diff = (ov[w] ^ v) & ctx.laneMask[w];
                uint64_t *tgw = tg + size_t(w) * LaneGroup::kWordLanes;
                while (diff) {
                    ++tgw[__builtin_ctzll(diff)];
                    diff &= diff - 1;
                }
                ov[w] = v;
            }
        }
    }
}

/** Per-op run kernels and the indirect-threaded dispatch table. */
template <unsigned W, bool kToggles, bool kBlend>
struct RunKernels
{
    using Fn = void (*)(const RunCtx &, size_t, size_t);

#define FLEXI_OP_FN(name, expr)                                       \
    static void name(const RunCtx &ctx, size_t begin, size_t end)     \
    {                                                                 \
        runSteps<W, kToggles, kBlend>(                                \
            ctx, begin, end,                                          \
            [](uint64_t av, uint64_t bv, uint64_t cv, uint8_t) {      \
                (void)av;                                             \
                (void)bv;                                             \
                (void)cv;                                             \
                return static_cast<uint64_t>(expr);                   \
            });                                                       \
    }
    FLEXI_WORD_OPS(FLEXI_OP_FN)
#undef FLEXI_OP_FN

    static void
    Lut(const RunCtx &ctx, size_t begin, size_t end)
    {
        runSteps<W, kToggles, kBlend>(ctx, begin, end, lutWord);
    }

#define FLEXI_OP_ENTRY(name, expr) &RunKernels::name,
    static constexpr Fn table[] = {FLEXI_WORD_OPS(FLEXI_OP_ENTRY)
                                       &RunKernels::Lut};
#undef FLEXI_OP_ENTRY
};

/** A fused run's force-split code: its op (blending kernel) while
 *  an output word of the run is forced, op + kNumWordOps (blend-free
 *  kernel) otherwise. */
uint8_t
forceSplitOp(uint8_t op, bool forced)
{
    return forced ? op : static_cast<uint8_t>(op + kNumWordOps);
}

} // namespace

unsigned
LaneGroup::wordsFor(unsigned lanes)
{
    if (lanes == 0 || lanes > kMaxLanes)
        panic("LaneGroup: bad lane count %u", lanes);
    if (lanes <= kWordLanes)
        return 1;
    if (lanes <= 4 * kWordLanes)
        return 4;
    return 8;
}

LaneGroup::LaneGroup(const Netlist &golden, unsigned lanes)
    : s_(golden.s_), lanes_(lanes), words_(wordsFor(lanes))
{
    if (!golden.elaborated())
        panic("LaneGroup: netlist '%s' must be elaborated",
              s_->name.c_str());
    for (unsigned w = 0; w < words_; ++w) {
        unsigned base = w * kWordLanes;
        if (lanes_ >= base + kWordLanes)
            laneMask_[w] = ~0ull;
        else if (lanes_ > base)
            laneMask_[w] = (1ull << (lanes_ - base)) - 1;
    }
    // One extra trailing group: the always-0 scratch net backing the
    // padded input slots of the plan.
    val_.assign(size_t(s_->nextNet + 1) * words_, 0);
    dffState_.assign(s_->dffCells.size() * words_, 0);
    mask_.assign(size_t(s_->nextNet) * words_, 0);
    fval_.assign(size_t(s_->nextNet) * words_, 0);
    reset();
}

void
LaneGroup::rebuildForceIndex()
{
    const Netlist::EvalPlan &plan = s_->plan;
    std::vector<uint8_t> seen(val_.size(), 0);
    allForced_.clear();
    auto note = [&](NetId net, unsigned lane) {
        size_t idx = size_t(net) * words_ + lane / kWordLanes;
        if (!seen[idx]) {
            seen[idx] = 1;
            allForced_.push_back(idx);
        }
    };
    for (const LaneFault &f : faults_)
        note(f.f.net, f.lane);
    for (const LaneTransient &t : transients_)
        note(t.f.net, t.lane);
    primaryForced_.clear();
    for (size_t idx : allForced_)
        if (!plan.blendCovered(static_cast<NetId>(idx / words_)))
            primaryForced_.push_back(idx);

    // Only words with a record can carry a force bit, so counting
    // theirs gives every DFF's and every run's forced-word count.
    qForcedWords_.assign(plan.dffQ.size(), 0);
    runForcedWords_.assign(plan.runOp.size(), 0);
    for (size_t idx : allForced_) {
        if (!mask_[idx])
            continue;
        NetId net = static_cast<NetId>(idx / words_);
        if (plan.netRun[net] != plan.kNone)
            ++runForcedWords_[plan.netRun[net]];
        if (plan.netDff[net] != plan.kNone)
            ++qForcedWords_[plan.netDff[net]];
    }

    // Select a kernel flavor per fused run: blending a step whose
    // output group carries no force bit is the identity, so a run
    // needs the blending kernels only when at least one of its steps
    // has a forced output. Keeping the shared run boundaries (rather
    // than re-splitting at every forced step) keeps the dispatch
    // count — and its branch-prediction footprint — independent of
    // the fault population.
    fsRunOp_.resize(plan.runOp.size());
    for (size_t r = 0; r < fsRunOp_.size(); ++r)
        fsRunOp_[r] = forceSplitOp(plan.runOp[r], runForcedWords_[r]);
    listForcedDffs();
}

void
LaneGroup::listForcedDffs()
{
    qForcedList_.clear();
    qFreeList_.clear();
    for (size_t i = 0; i < qForcedWords_.size(); ++i)
        (qForcedWords_[i] ? qForcedList_ : qFreeList_)
            .push_back(static_cast<uint32_t>(i));
}

bool
LaneGroup::noteForceWord(size_t idx, uint64_t before)
{
    bool forced = mask_[idx] != 0;
    if (forced == (before != 0))
        return false;
    const Netlist::EvalPlan &plan = s_->plan;
    NetId net = static_cast<NetId>(idx / words_);
    if (uint32_t r = plan.netRun[net]; r != plan.kNone) {
        runForcedWords_[r] += forced ? 1 : -1;
        fsRunOp_[r] = forceSplitOp(plan.runOp[r], runForcedWords_[r]);
    }
    if (uint32_t d = plan.netDff[net]; d != plan.kNone) {
        // The DFF's Q changes list when its first word gains a force
        // bit or its last one loses it.
        qForcedWords_[d] += forced ? 1 : -1;
        return qForcedWords_[d] == (forced ? 1u : 0u);
    }
    return false;
}

void
LaneGroup::applyWindows(const WindowSlot &slot)
{
    // The reference's precedence: the stuck-at beneath, then every
    // open window in injection order, the last one winning.
    bool forced = slot.stuck, value = slot.stuckValue;
    for (uint32_t k = slot.begin; k < slot.end; ++k) {
        const TransientFault &f = transients_[slotTransients_[k]].f;
        if (cycle_ >= f.fromCycle && cycle_ < f.untilCycle) {
            forced = true;
            value = f.value;
        }
    }
    uint64_t &m = mask_[slot.idx];
    uint64_t &v = fval_[slot.idx];
    m = forced ? m | slot.bit : m & ~slot.bit;
    v = forced && value ? v | slot.bit : v & ~slot.bit;
}

void
LaneGroup::syncForces()
{
    slots_.clear();
    slotTransients_.clear();
    edges_.clear();
    if (!transients_.empty()) {
        releaseWindows();
        // Group the transients by (net, lane), keeping injection
        // order within a pair — one sort of (pair << 32 | index)
        // keys — and open the windows the clock is in.
        std::vector<uint64_t> keys(transients_.size());
        for (size_t k = 0; k < keys.size(); ++k) {
            const LaneTransient &t = transients_[k];
            uint64_t pair = (uint64_t(t.f.net) * words_ +
                             t.lane / kWordLanes) * kWordLanes +
                            t.lane % kWordLanes;
            keys[k] = pair << 32 | k;
        }
        std::sort(keys.begin(), keys.end());
        slotTransients_.resize(keys.size());
        for (uint32_t k = 0; k < keys.size(); ++k) {
            slotTransients_[k] = static_cast<uint32_t>(keys[k]);
            uint64_t pair = keys[k] >> 32;
            if (k && pair == keys[k - 1] >> 32) {
                ++slots_.back().end;
                continue;
            }
            size_t idx = pair / kWordLanes;
            uint64_t bit = 1ull << (pair % kWordLanes);
            slots_.push_back({idx, bit, (mask_[idx] & bit) != 0,
                              (fval_[idx] & bit) != 0, k, k + 1});
        }
        // Edges up to now are in the masks already; the rest wait in
        // a min-heap, since a run rarely reaches them all.
        for (uint32_t s = 0; s < slots_.size(); ++s) {
            applyWindows(slots_[s]);
            for (uint32_t k = slots_[s].begin; k < slots_[s].end; ++k) {
                const TransientFault &f = transients_[slotTransients_[k]].f;
                for (uint64_t edge : {f.fromCycle, f.untilCycle})
                    if (edge > cycle_)
                        edges_.push_back({edge, s});
            }
        }
        std::make_heap(edges_.begin(), edges_.end(), laterEdge);
    }
    rebuildForceIndex();
    forceDirty_ = false;
}

void
LaneGroup::advanceWindows()
{
    bool qChanged = false;
    while (edgeDue()) {
        std::pop_heap(edges_.begin(), edges_.end(), laterEdge);
        const WindowSlot &slot = slots_[edges_.back().slot];
        edges_.pop_back();
        uint64_t before = mask_[slot.idx];
        applyWindows(slot);
        qChanged |= noteForceWord(slot.idx, before);
    }
    if (qChanged)
        listForcedDffs();
}

void
LaneGroup::checkLane(unsigned lane) const
{
    if (lane >= lanes_)
        panic("LaneGroup: lane %u out of range (%u lanes)", lane,
              lanes_);
}

void
LaneGroup::injectFault(unsigned lane, const StuckFault &fault)
{
    checkLane(lane);
    if (fault.net >= s_->nextNet)
        panic("injectFault: bad net %u", fault.net);
    faults_.push_back({lane, fault});
    size_t idx = size_t(fault.net) * words_ + lane / kWordLanes;
    uint64_t bit = 1ull << (lane % kWordLanes);
    mask_[idx] |= bit;
    fval_[idx] = (fval_[idx] & ~bit) | (fault.value ? bit : 0);
    forceDirty_ = true;
}

void
LaneGroup::clearFaults()
{
    for (const auto &f : faults_) {
        size_t idx = size_t(f.f.net) * words_ + f.lane / kWordLanes;
        uint64_t bit = 1ull << (f.lane % kWordLanes);
        mask_[idx] &= ~bit;
        fval_[idx] &= ~bit;
    }
    faults_.clear();
    forceDirty_ = true;
}

void
LaneGroup::injectTransient(unsigned lane, const TransientFault &fault)
{
    checkLane(lane);
    if (fault.net >= s_->nextNet)
        panic("injectTransient: bad net %u", fault.net);
    if (fault.untilCycle <= fault.fromCycle)
        panic("injectTransient: empty window [%llu, %llu)",
              static_cast<unsigned long long>(fault.fromCycle),
              static_cast<unsigned long long>(fault.untilCycle));
    transients_.push_back({lane, fault});
    forceDirty_ = true;
}

void
LaneGroup::releaseWindows()
{
    // Release every window's force bit, then let the stuck-at faults
    // reassert their own.
    for (const auto &t : transients_) {
        size_t idx = size_t(t.f.net) * words_ + t.lane / kWordLanes;
        uint64_t bit = 1ull << (t.lane % kWordLanes);
        mask_[idx] &= ~bit;
        fval_[idx] &= ~bit;
    }
    for (const auto &f : faults_) {
        size_t idx = size_t(f.f.net) * words_ + f.lane / kWordLanes;
        uint64_t bit = 1ull << (f.lane % kWordLanes);
        mask_[idx] |= bit;
        fval_[idx] = (fval_[idx] & ~bit) | (f.f.value ? bit : 0);
    }
}

void
LaneGroup::clearTransients()
{
    releaseWindows();
    transients_.clear();
    forceDirty_ = true;
}

void
LaneGroup::flipDff(unsigned lane, size_t index)
{
    checkLane(lane);
    if (index >= s_->dffCells.size())
        panic("flipDff: bad DFF %zu", index);
    dffState_[index * words_ + lane / kWordLanes] ^=
        1ull << (lane % kWordLanes);
}

std::vector<uint8_t>
LaneGroup::saveDffState(unsigned lane) const
{
    checkLane(lane);
    size_t word = lane / kWordLanes;
    unsigned bit = lane % kWordLanes;
    std::vector<uint8_t> state(s_->dffCells.size());
    for (size_t i = 0; i < state.size(); ++i)
        state[i] = (dffState_[i * words_ + word] >> bit) & 1;
    return state;
}

void
LaneGroup::restoreDffState(unsigned lane,
                           const std::vector<uint8_t> &state)
{
    checkLane(lane);
    if (state.size() != s_->dffCells.size())
        panic("restoreDffState: %zu bits, netlist has %zu",
              state.size(), s_->dffCells.size());
    size_t word = lane / kWordLanes;
    uint64_t bit = 1ull << (lane % kWordLanes);
    for (size_t i = 0; i < state.size(); ++i) {
        uint64_t &v = dffState_[i * words_ + word];
        v = state[i] ? v | bit : v & ~bit;
    }
}

namespace
{

/**
 * Transpose a 64x64 bit matrix in place: bit c of row r trades places
 * with bit r of row c. Six rounds of block swaps (Hacker's Delight
 * 7-3, widened to 64 bits).
 */
void
transpose64(uint64_t *a)
{
    uint64_t m = 0x00000000FFFFFFFFull;
    for (unsigned j = 32; j; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
    }
}

} // namespace

void
LaneGroup::packDffState(uint64_t *out) const
{
    size_t nd = numDffs();
    size_t sw = dffStateWords();
    uint64_t a[kWordLanes];
    for (unsigned w = 0; w * kWordLanes < lanes_; ++w) {
        unsigned live = std::min(kWordLanes, lanes_ - w * kWordLanes);
        uint64_t *lane0 = out + size_t(w) * kWordLanes * sw;
        for (size_t b = 0; b < sw; ++b) {
            // Row r = DFF 64b + r across the word's lanes; transposed,
            // row L = lane L's 64 DFFs.
            size_t rows = std::min<size_t>(kWordLanes, nd - b * kWordLanes);
            for (size_t r = 0; r < rows; ++r)
                a[r] = dffState_[(b * kWordLanes + r) * words_ + w];
            std::fill(a + rows, a + kWordLanes, 0);
            transpose64(a);
            for (unsigned l = 0; l < live; ++l)
                lane0[l * sw + b] = a[l];
        }
    }
}

void
LaneGroup::packDffState(unsigned lane, uint64_t *out) const
{
    checkLane(lane);
    size_t word = lane / kWordLanes;
    unsigned bit = lane % kWordLanes;
    std::fill(out, out + dffStateWords(), 0);
    for (size_t i = 0; i < numDffs(); ++i)
        out[i / kWordLanes] |= ((dffState_[i * words_ + word] >> bit) & 1)
                               << (i % kWordLanes);
}

void
LaneGroup::reset()
{
    for (size_t i = 0; i < s_->dffCells.size(); ++i) {
        uint64_t v = s_->dffInit[i] ? ~0ull : 0;
        for (unsigned w = 0; w < words_; ++w)
            dffState_[i * words_ + w] = v;
    }
    std::fill(val_.begin(), val_.end(), 0);
    for (unsigned w = 0; w < words_; ++w)
        val_[size_t(s_->one) * words_ + w] = ~0ull;
}

void
LaneGroup::reset(unsigned lane)
{
    checkLane(lane);
    size_t word = lane / kWordLanes;
    uint64_t bit = 1ull << (lane % kWordLanes);
    for (size_t i = 0; i < s_->dffCells.size(); ++i) {
        uint64_t &v = dffState_[i * words_ + word];
        v = s_->dffInit[i] ? v | bit : v & ~bit;
    }
    for (size_t n = 0; n < s_->nextNet; ++n)
        val_[n * words_ + word] &= ~bit;
    val_[size_t(s_->one) * words_ + word] |= bit;
}

void
LaneGroup::applyFaultForces()
{
    // A changed fault set rebuilds the forces and their index whole;
    // otherwise only the transient windows that opened or closed
    // since the last pass move force bits, so only their (net, lane)
    // pairs are recomputed.
    if (forceDirty_)
        syncForces();
    else if (edgeDue())
        advanceWindows();

    // Apply fault forcing to primary/state nets. Cell outputs and
    // DFF Q nets are blend-covered — their producing step (or the
    // Q-expose) applies the force before any consumer reads them —
    // so only the handful of words on primary nets need a value
    // write here. Toggle counting is the exception: the counters
    // difference each step against the previously *stored* word, so
    // a force window opening must land in val_ before the pass for
    // every faulted net — exactly the reference interpreter's order
    // — or the blend would count an edge the reference run never
    // saw.
    for (size_t idx : countToggles_ ? allForced_ : primaryForced_) {
        uint64_t m = mask_[idx];
        val_[idx] = (val_[idx] & ~m) | (fval_[idx] & m);
    }
}

template <unsigned W, bool kToggles>
void
LaneGroup::evaluateImpl()
{
    applyFaultForces();

    // Expose DFF state on Q nets; the force-masked blend runs only
    // for DFFs that actually carry a forced Q (the lists are fresh —
    // the force apply above rebuilt the index if anything changed).
    const Netlist::EvalPlan &plan = s_->plan;
    for (uint32_t i : qFreeList_) {
        size_t q = size_t(plan.dffQ[i]) * W;
        const uint64_t *st = dffState_.data() + size_t(i) * W;
        for (unsigned w = 0; w < W; ++w)
            val_[q + w] = st[w];
    }
    for (uint32_t i : qForcedList_) {
        size_t q = size_t(plan.dffQ[i]) * W;
        const uint64_t *st = dffState_.data() + size_t(i) * W;
        for (unsigned w = 0; w < W; ++w) {
            uint64_t m = mask_[q + w];
            val_[q + w] = (st[w] & ~m) | (fval_[q + w] & m);
        }
    }

    RunCtx ctx{plan.in.data(),
               plan.out.data(),
               plan.lut.data(),
               val_.data(),
               mask_.data(),
               fval_.data(),
               kToggles ? toggles_.data() : nullptr,
               plan.cell.data(),
               laneMask_.data()};

    // The toggle-counting path sticks to the shared always-blend op
    // codes (its kernels blend unconditionally anyway); the plain
    // path runs the force-split codes, where a code at or above
    // kNumWordOps selects the blend-free kernel variant.
    const uint32_t *rb = plan.runBegin.data();
    const uint8_t *rop =
        kToggles ? plan.runOp.data() : fsRunOp_.data();
    size_t nruns = plan.runOp.size();

#if FLEXI_THREADED_DISPATCH
    // Threaded code: each fused run jumps straight to its op block
    // and the block's tail dispatches the next run — no dispatch
    // loop, no per-step classification. Blend-free blocks mirror the
    // blending ones at code + kNumWordOps (under kToggles they alias
    // the blending blocks; the shared program never emits them).
#define FLEXI_OP_LABEL(name, expr) &&lbl_##name,
#define FLEXI_OP_LABEL_NB(name, expr)                                 \
    kToggles ? &&lbl_##name : &&lbl_nb_##name,
    const void *labels[] = {FLEXI_WORD_OPS(FLEXI_OP_LABEL) &&lbl_Lut,
                            FLEXI_WORD_OPS(FLEXI_OP_LABEL_NB)(
                                kToggles ? &&lbl_Lut : &&lbl_nb_Lut)};
#undef FLEXI_OP_LABEL
#undef FLEXI_OP_LABEL_NB
    size_t r = 0;
    size_t begin = 0, end = 0;
#define FLEXI_DISPATCH()                                              \
    do {                                                              \
        if (r == nruns)                                               \
            goto lbl_done;                                            \
        begin = rb[r];                                                \
        end = rb[r + 1];                                              \
        goto *labels[rop[r++]];                                       \
    } while (0)

    FLEXI_DISPATCH();
#define FLEXI_OP_CASE(name, expr)                                     \
    lbl_##name:                                                       \
    runSteps<W, kToggles, true>(                                      \
        ctx, begin, end,                                              \
        [](uint64_t av, uint64_t bv, uint64_t cv, uint8_t) {          \
            (void)av;                                                 \
            (void)bv;                                                 \
            (void)cv;                                                 \
            return static_cast<uint64_t>(expr);                       \
        });                                                           \
    FLEXI_DISPATCH();
    FLEXI_WORD_OPS(FLEXI_OP_CASE)
#undef FLEXI_OP_CASE
lbl_Lut:
    runSteps<W, kToggles, true>(ctx, begin, end, lutWord);
    FLEXI_DISPATCH();
#define FLEXI_OP_CASE_NB(name, expr)                                  \
    lbl_nb_##name:                                                    \
    runSteps<W, kToggles, false>(                                     \
        ctx, begin, end,                                              \
        [](uint64_t av, uint64_t bv, uint64_t cv, uint8_t) {          \
            (void)av;                                                 \
            (void)bv;                                                 \
            (void)cv;                                                 \
            return static_cast<uint64_t>(expr);                       \
        });                                                           \
    FLEXI_DISPATCH();
    FLEXI_WORD_OPS(FLEXI_OP_CASE_NB)
#undef FLEXI_OP_CASE_NB
lbl_nb_Lut:
    runSteps<W, kToggles, false>(ctx, begin, end, lutWord);
    FLEXI_DISPATCH();
#undef FLEXI_DISPATCH
lbl_done:;
#else
    // Portable indirect-threaded dispatch: one function-table call
    // per fused run.
    for (size_t r = 0; r < nruns; ++r) {
        uint8_t code = rop[r];
        if (code < kNumWordOps)
            RunKernels<W, kToggles, true>::table[code](ctx, rb[r],
                                                       rb[r + 1]);
        else
            RunKernels<W, kToggles, false>::table[code - kNumWordOps](
                ctx, rb[r], rb[r + 1]);
    }
#endif
}

void
LaneGroup::evaluate()
{
    switch (words_) {
      case 1:
        countToggles_ ? evaluateImpl<1, true>()
                      : evaluateImpl<1, false>();
        break;
      case 4:
        countToggles_ ? evaluateImpl<4, true>()
                      : evaluateImpl<4, false>();
        break;
      default:
        countToggles_ ? evaluateImpl<8, true>()
                      : evaluateImpl<8, false>();
        break;
    }
}

template <unsigned W, bool kToggles>
void
LaneGroup::clockEdgeImpl()
{
    const Netlist::EvalPlan &plan = s_->plan;
    size_t nd = plan.dffD.size();
    for (size_t i = 0; i < nd; ++i) {
        const uint64_t *d = val_.data() + size_t(plan.dffD[i]) * W;
        size_t q = size_t(plan.dffQ[i]) * W;
        uint64_t *st = dffState_.data() + i * W;
        for (unsigned w = 0; w < W; ++w) {
            // Unconditional force blend: an unforced Q has mask 0,
            // so the blend is an identity — cheaper than a per-DFF
            // branch that mispredicts whenever forces are sparse.
            uint64_t dv = d[w];
            uint64_t m = mask_[q + w];
            dv = (dv & ~m) | (fval_[q + w] & m);
            if constexpr (kToggles) {
                uint64_t diff = (st[w] ^ dv) & laneMask_[w];
                uint64_t *tg =
                    toggles_.data() +
                    size_t(plan.dffCell[i]) * (W * kWordLanes) +
                    size_t(w) * kWordLanes;
                while (diff) {
                    ++tg[__builtin_ctzll(diff)];
                    diff &= diff - 1;
                }
            }
            st[w] = dv;
        }
    }
    ++cycle_;
}

void
LaneGroup::clockEdge()
{
    switch (words_) {
      case 1:
        countToggles_ ? clockEdgeImpl<1, true>()
                      : clockEdgeImpl<1, false>();
        break;
      case 4:
        countToggles_ ? clockEdgeImpl<4, true>()
                      : clockEdgeImpl<4, false>();
        break;
      default:
        countToggles_ ? clockEdgeImpl<8, true>()
                      : clockEdgeImpl<8, false>();
        break;
    }
}

LaneGroup::PadCone
LaneGroup::padCone(const std::vector<const BusHandle *> &buses) const
{
    const Netlist::EvalPlan &plan = s_->plan;
    // Map net -> producing plan step.
    std::vector<uint32_t> producer(s_->nextNet, ~0u);
    for (size_t i = 0; i < plan.out.size(); ++i)
        producer[plan.out[i]] = static_cast<uint32_t>(i);

    PadCone cone;
    std::vector<uint8_t> seen(plan.out.size(), 0);
    std::vector<uint32_t> stack;
    auto push = [&](NetId net) {
        if (net >= s_->nextNet)
            return;   // scratch padding
        uint32_t step = producer[net];
        if (step != ~0u && !seen[step]) {
            seen[step] = 1;
            stack.push_back(step);
        }
    };
    for (const BusHandle *bus : buses)
        for (NetId net : bus->nets_)
            push(net);
    while (!stack.empty()) {
        uint32_t step = stack.back();
        stack.pop_back();
        cone.steps.push_back(step);
        for (unsigned k = 0; k < 3; ++k)
            push(plan.in[3 * step + k]);
    }
    // Execution order == plan order.
    std::sort(cone.steps.begin(), cone.steps.end());

    // Compile the cone into its own contiguous mini-program: copy
    // each step's operands out (the cone's plan indices are sparse,
    // the kernels want dense [begin, end) ranges) and re-fuse
    // adjacent same-op steps into runs.
    std::vector<uint8_t> stepOp(plan.out.size(), 0);
    for (size_t r = 0; r + 1 < plan.runBegin.size(); ++r)
        for (uint32_t s = plan.runBegin[r]; s < plan.runBegin[r + 1];
             ++s)
            stepOp[s] = plan.runOp[r];
    for (size_t k = 0; k < cone.steps.size(); ++k) {
        uint32_t step = cone.steps[k];
        for (unsigned i = 0; i < 3; ++i)
            cone.in.push_back(plan.in[3 * step + i]);
        cone.out.push_back(plan.out[step]);
        cone.lut.push_back(plan.lut[step]);
        if (k == 0 || stepOp[step] != cone.runOp.back()) {
            cone.runBegin.push_back(static_cast<uint32_t>(k));
            cone.runOp.push_back(stepOp[step]);
        }
    }
    cone.runBegin.push_back(
        static_cast<uint32_t>(cone.steps.size()));

    // The DFFs the cone actually reads: Q nets consumed by a cone
    // step, or exposed directly as a pad bit.
    std::vector<uint8_t> needed(s_->nextNet, 0);
    for (const BusHandle *bus : buses)
        for (NetId net : bus->nets_)
            needed[net] = 1;
    for (NetId net : cone.in)
        if (net < s_->nextNet)
            needed[net] = 1;
    for (size_t i = 0; i < plan.dffQ.size(); ++i)
        if (needed[plan.dffQ[i]])
            cone.dffs.push_back(static_cast<uint32_t>(i));
    return cone;
}

template <unsigned W>
void
LaneGroup::exposeStateImpl(const PadCone &cone)
{
    const Netlist::EvalPlan &plan = s_->plan;
    for (uint32_t i : cone.dffs) {
        size_t q = size_t(plan.dffQ[i]) * W;
        const uint64_t *st = dffState_.data() + i * W;
        if (qForcedWords_[i]) {
            for (unsigned w = 0; w < W; ++w) {
                uint64_t m = mask_[q + w];
                val_[q + w] = (st[w] & ~m) | (fval_[q + w] & m);
            }
        } else {
            for (unsigned w = 0; w < W; ++w)
                val_[q + w] = st[w];
        }
    }

    // Run the cone's compiled mini-program through the same per-op
    // kernels as the full evaluate (a cone is a handful of runs, so
    // the indirect table is dispatch enough).
    RunCtx ctx{cone.in.data(), cone.out.data(), cone.lut.data(),
               val_.data(),    mask_.data(),    fval_.data(),
               nullptr,        nullptr,         laneMask_.data()};
    for (size_t r = 0; r < cone.runOp.size(); ++r)
        RunKernels<W, false, true>::table[cone.runOp[r]](
            ctx, cone.runBegin[r], cone.runBegin[r + 1]);
}

void
LaneGroup::exposeState(const PadCone &cone)
{
    if (countToggles_)
        panic("exposeState: toggle counting needs full evaluate()");
    applyFaultForces();
    switch (words_) {
      case 1:
        exposeStateImpl<1>(cone);
        break;
      case 4:
        exposeStateImpl<4>(cone);
        break;
      default:
        exposeStateImpl<8>(cone);
        break;
    }
}

void
LaneGroup::setBus(const BusHandle &bus, unsigned value)
{
    if (!bus.input_)
        panic("setBus: handle does not name an input bus");
    for (unsigned i = 0; i < bus.nets_.size(); ++i) {
        uint64_t v = ((value >> i) & 1u) ? ~0ull : 0;
        size_t o = size_t(bus.nets_[i]) * words_;
        for (unsigned w = 0; w < words_; ++w)
            val_[o + w] = v;
    }
}

void
LaneGroup::setInputLanes(const std::string &name,
                         const uint64_t *lane_words)
{
    auto it = s_->inputs.find(name);
    if (it == s_->inputs.end())
        panic("no input named '%s'", name.c_str());
    size_t o = size_t(it->second) * words_;
    for (unsigned w = 0; w < words_; ++w)
        val_[o + w] = lane_words[w] & laneMask_[w];
}

namespace
{

/**
 * Transpose an 8x8 bit matrix held as 8 row bytes of a uint64_t
 * (bit (r, c) = bit 8r + c); an involution, so the same kernel
 * serves both the scatter and the gather direction. Hacker's
 * Delight 7-3.
 */
inline uint64_t
transpose8x8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
    x ^= t ^ (t << 28);
    return x;
}

} // namespace

void
LaneGroup::setBusLanes(const BusHandle &bus, const uint32_t *values)
{
    if (!bus.input_)
        panic("setBusLanes: handle does not name an input bus");
    unsigned width = bus.nets_.size();
    for (unsigned i = 0; i < width; ++i) {
        size_t o = size_t(bus.nets_[i]) * words_;
        for (unsigned w = 0; w < words_; ++w)
            val_[o + w] = 0;
    }
    // Scatter lanes in blocks of 8 via 8x8 bit-matrix transposes:
    // byte s of 8 lane values in, one byte of 8 bus-bit words out —
    // ~8x fewer shift/or steps than the per-lane per-bit loop.
    unsigned nbytes = (width + 7) / 8;
    unsigned groups = lanes_ / 8;
    for (unsigned g = 0; g < groups; ++g) {
        unsigned w = g / 8;
        unsigned sub = g % 8;
        const uint32_t *v = values + g * 8;
        for (unsigned s = 0; s < nbytes; ++s) {
            uint64_t x = 0;
            for (unsigned k = 0; k < 8; ++k)
                x |= (uint64_t((v[k] >> (8 * s)) & 0xFF)) << (8 * k);
            if (!x)
                continue;
            uint64_t y = transpose8x8(x);
            unsigned hi = std::min(width - s * 8, 8u);
            for (unsigned i = 0; i < hi; ++i) {
                uint64_t byte = (y >> (8 * i)) & 0xFF;
                if (byte)
                    val_[size_t(bus.nets_[s * 8 + i]) * words_ + w] |=
                        byte << (8 * sub);
            }
        }
    }
    for (unsigned lane = groups * 8; lane < lanes_; ++lane) {
        uint64_t bit = 1ull << (lane % kWordLanes);
        unsigned w = lane / kWordLanes;
        for (unsigned i = 0; i < width; ++i)
            if ((values[lane] >> i) & 1u)
                val_[size_t(bus.nets_[i]) * words_ + w] |= bit;
    }
}

void
LaneGroup::setBusLanesBytes(const BusHandle &bus,
                            const uint8_t *values)
{
    if (!bus.input_)
        panic("setBusLanesBytes: handle does not name an input bus");
    unsigned width = bus.nets_.size();
    if (width > 8)
        panic("setBusLanesBytes: bus is %u bits wide (max 8)", width);
    for (unsigned i = 0; i < width; ++i) {
        size_t o = size_t(bus.nets_[i]) * words_;
        for (unsigned w = 0; w < words_; ++w)
            val_[o + w] = 0;
    }
    // One byte per lane: a block of 8 lanes is a single word load,
    // and one 8x8 transpose turns it into 8 bus-bit bytes.
    unsigned groups = lanes_ / 8;
    for (unsigned g = 0; g < groups; ++g) {
        unsigned w = g / 8;
        unsigned sub = g % 8;
        uint64_t x;
        std::memcpy(&x, values + g * 8, 8);
        if (!x)
            continue;
        uint64_t y = transpose8x8(x);
        for (unsigned i = 0; i < width; ++i) {
            uint64_t byte = (y >> (8 * i)) & 0xFF;
            if (byte)
                val_[size_t(bus.nets_[i]) * words_ + w] |=
                    byte << (8 * sub);
        }
    }
    for (unsigned lane = groups * 8; lane < lanes_; ++lane) {
        uint64_t bit = 1ull << (lane % kWordLanes);
        unsigned w = lane / kWordLanes;
        for (unsigned i = 0; i < width; ++i)
            if ((values[lane] >> i) & 1u)
                val_[size_t(bus.nets_[i]) * words_ + w] |= bit;
    }
}

void
LaneGroup::gatherBusBytes(const BusHandle &bus, uint8_t *out) const
{
    unsigned width = bus.nets_.size();
    if (width > 8)
        panic("gatherBusBytes: bus is %u bits wide (max 8)", width);
    unsigned groups = lanes_ / 8;
    for (unsigned g = 0; g < groups; ++g) {
        unsigned w = g / 8;
        unsigned sub = g % 8;
        uint64_t x = 0;
        for (unsigned i = 0; i < width; ++i)
            x |= ((val_[size_t(bus.nets_[i]) * words_ + w] >>
                   (8 * sub)) &
                  0xFF)
                 << (8 * i);
        uint64_t y = transpose8x8(x);
        std::memcpy(out + g * 8, &y, 8);
    }
    for (unsigned lane = groups * 8; lane < lanes_; ++lane) {
        unsigned w = lane / kWordLanes;
        unsigned shift = lane % kWordLanes;
        uint8_t v = 0;
        for (unsigned i = 0; i < width; ++i)
            v |= static_cast<uint8_t>(
                     (val_[size_t(bus.nets_[i]) * words_ + w] >>
                      shift) &
                     1ull)
                 << i;
        out[lane] = v;
    }
}

void
LaneGroup::driveBusFromTable(const BusHandle &addr_bus,
                             const BusHandle &data_bus,
                             const uint8_t *table)
{
    if (!data_bus.input_)
        panic("driveBusFromTable: data handle does not name an input "
              "bus");
    unsigned aw = addr_bus.nets_.size();
    unsigned dw = data_bus.nets_.size();
    if (aw > 8 || dw > 8)
        panic("driveBusFromTable: buses are %u/%u bits wide (max 8)",
              aw, dw);
    // Word-outer, 8-lane-block-inner: the address words load once
    // per net word into registers and the data words accumulate in
    // registers with a single store each — the per-block
    // read-modify-write stores a naive block loop would issue form
    // store-forwarding chains on the same data words. A trailing
    // partial block runs through the same transpose machinery as a
    // full one — dead lanes read address 0 (their net bits are kept
    // zero by every drive path), and masking their fetched bytes to
    // 0 preserves that invariant — far cheaper than a per-lane
    // gather/lookup/scatter tail.
    for (unsigned w = 0; w * kWordLanes < lanes_; ++w) {
        uint64_t areg[8];
        for (unsigned i = 0; i < aw; ++i)
            areg[i] = val_[size_t(addr_bus.nets_[i]) * words_ + w];
        uint64_t dreg[8] = {};
        unsigned word_lanes = lanes_ - w * kWordLanes;
        unsigned nsubs =
            word_lanes >= kWordLanes ? 8 : (word_lanes + 7) / 8;
        for (unsigned sub = 0; sub < nsubs; ++sub) {
            uint64_t x = 0;
            for (unsigned i = 0; i < aw; ++i)
                x |= ((areg[i] >> (8 * sub)) & 0xFF) << (8 * i);
            uint64_t addrs = transpose8x8(x);
            uint64_t y = 0;
            for (unsigned k = 0; k < 8; ++k)
                y |= uint64_t(table[(addrs >> (8 * k)) & 0xFF])
                     << (8 * k);
            unsigned live = word_lanes - sub * 8;
            if (live < 8)
                y &= ~0ull >> (8 * (8 - live));
            uint64_t z = transpose8x8(y);
            // Scatter unconditionally: the fetched bytes vary per
            // lane, so a per-bit branch here is a mispredict per bus
            // bit — costlier than the OR it would sometimes skip.
            for (unsigned i = 0; i < dw; ++i)
                dreg[i] |= ((z >> (8 * i)) & 0xFF) << (8 * sub);
        }
        for (unsigned i = 0; i < dw; ++i)
            val_[size_t(data_bus.nets_[i]) * words_ + w] = dreg[i];
    }
    // Fully-dead trailing words stay all-zero.
    for (unsigned w = (lanes_ + kWordLanes - 1) / kWordLanes;
         w < words_; ++w)
        for (unsigned i = 0; i < dw; ++i)
            val_[size_t(data_bus.nets_[i]) * words_ + w] = 0;
}

void
LaneGroup::busMismatch(const BusHandle &bus, unsigned value,
                       uint64_t *diff) const
{
    unsigned width = bus.nets_.size();
    // A value the bus cannot even represent differs in every lane —
    // the same verdict a per-lane gather-and-compare would reach.
    if (width < 32 && (value >> width) != 0) {
        for (unsigned w = 0; w < words_; ++w)
            diff[w] = laneMask_[w];
        return;
    }
    for (unsigned w = 0; w < words_; ++w)
        diff[w] = 0;
    for (unsigned i = 0; i < width; ++i) {
        uint64_t expect = ((value >> i) & 1u) ? ~0ull : 0;
        size_t o = size_t(bus.nets_[i]) * words_;
        for (unsigned w = 0; w < words_; ++w)
            diff[w] |= val_[o + w] ^ expect;
    }
    for (unsigned w = 0; w < words_; ++w)
        diff[w] &= laneMask_[w];
}

unsigned
LaneGroup::bus(const BusHandle &bus, unsigned lane) const
{
    checkLane(lane);
    unsigned w = lane / kWordLanes;
    unsigned shift = lane % kWordLanes;
    unsigned v = 0;
    for (unsigned i = 0; i < bus.nets_.size(); ++i)
        v |= static_cast<unsigned>(
                 (val_[size_t(bus.nets_[i]) * words_ + w] >> shift) &
                 1ull)
             << i;
    return v;
}

void
LaneGroup::gatherBus(const BusHandle &bus, uint32_t *out) const
{
    unsigned width = bus.nets_.size();
    for (unsigned lane = 0; lane < lanes_; ++lane)
        out[lane] = 0;
    unsigned nbytes = (width + 7) / 8;
    unsigned groups = lanes_ / 8;
    for (unsigned g = 0; g < groups; ++g) {
        unsigned w = g / 8;
        unsigned sub = g % 8;
        for (unsigned s = 0; s < nbytes; ++s) {
            uint64_t x = 0;
            unsigned hi = std::min(width - s * 8, 8u);
            for (unsigned i = 0; i < hi; ++i)
                x |= ((val_[size_t(bus.nets_[s * 8 + i]) * words_ +
                            w] >>
                       (8 * sub)) &
                      0xFF)
                     << (8 * i);
            if (!x)
                continue;
            uint64_t y = transpose8x8(x);
            for (unsigned k = 0; k < 8; ++k)
                out[g * 8 + k] |=
                    static_cast<uint32_t>((y >> (8 * k)) & 0xFF)
                    << (8 * s);
        }
    }
    for (unsigned lane = groups * 8; lane < lanes_; ++lane) {
        unsigned w = lane / kWordLanes;
        unsigned shift = lane % kWordLanes;
        uint32_t v = 0;
        for (unsigned i = 0; i < width; ++i)
            v |= static_cast<uint32_t>(
                     (val_[size_t(bus.nets_[i]) * words_ + w] >>
                      shift) &
                     1ull)
                 << i;
        out[lane] = v;
    }
}

bool
LaneGroup::netValue(NetId net, unsigned lane) const
{
    checkLane(lane);
    if (net >= s_->nextNet)
        panic("netValue: bad net %u", net);
    return (val_[size_t(net) * words_ + lane / kWordLanes] >>
            (lane % kWordLanes)) &
           1ull;
}

void
LaneGroup::enableToggles(bool on)
{
    countToggles_ = on;
    toggles_.assign(
        on ? s_->cells.size() * size_t(words_) * kWordLanes : 0, 0);
}

std::vector<uint64_t>
LaneGroup::toggleCounts(unsigned lane) const
{
    checkLane(lane);
    if (!countToggles_)
        panic("toggleCounts: enableToggles(true) first");
    size_t stride = size_t(words_) * kWordLanes;
    std::vector<uint64_t> out(s_->cells.size());
    for (size_t c = 0; c < out.size(); ++c)
        out[c] = toggles_[c * stride + lane];
    return out;
}

} // namespace flexi
