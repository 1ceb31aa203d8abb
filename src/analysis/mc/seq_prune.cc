#include "seq_prune.hh"

#include <algorithm>
#include <unordered_map>

#include "analysis/cnf_encoder.hh"
#include "common/logging.hh"
#include "tech/cell_library.hh"

namespace flexi
{

namespace
{

using Result = SatSolver::Result;

/** Deterministic xorshift64 — discovery must be reproducible. */
struct Rng
{
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed ? seed : 1) {}
    uint64_t next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    bool bit() { return (next() >> 33) & 1; }
};

/**
 * Universal net-equivalence sweep: 64-sample random signatures over
 * free state and inputs nominate candidate classes; SAT proofs
 * (under the tie environment) make them real. Each member whose
 * driver goes takes an alias in @p plan.
 */
void
universalSweep(const Netlist &nl, const SeqPruneOptions &opts,
               RewritePlan &plan, SeqMergeStats &stats,
               uint64_t &solves)
{
    size_t num_nets = nl.numNets();
    unsigned samples =
        std::min<unsigned>(std::max(opts.simRounds, 1u), 64);

    // Combinational driver of each net; -1 for inputs, rails, Q.
    std::vector<int> driver(num_nets, -1);
    const auto &cells = nl.cells();
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].type != CellType::DFF_X1 &&
            cells[i].type != CellType::DFF_X2)
            driver[cells[i].output] = static_cast<int>(i);

    // Simulation signatures: one bit per random sample.
    Rng rng(opts.seed);
    auto sim = nl.clone();
    std::vector<uint64_t> sig(num_nets, 0);
    std::vector<uint8_t> state(nl.numDffs());
    for (unsigned s = 0; s < samples; ++s) {
        for (auto &b : state)
            b = rng.bit();
        sim->restoreDffState(state);
        for (const auto &[name, net] : nl.primaryInputs())
            sim->setInput(name, rng.bit());
        for (const PadTie &tie : opts.dataflow.ties)
            sim->setInput(tie.input, tie.value);
        sim->evaluate();
        for (NetId n = 0; n < num_nets; ++n)
            if (sim->netValue(n))
                sig[n] |= uint64_t(1) << s;
    }

    // Candidate order decides who leads a class: rails, then pads
    // and state (never droppable), then cell outputs in plan
    // (topological) order — so a member's leader always exists by
    // the time the rebuild reaches the member.
    std::vector<NetId> order;
    order.reserve(num_nets);
    order.push_back(nl.zero());
    order.push_back(nl.one());
    for (const auto &[name, net] : nl.primaryInputs())
        order.push_back(net);
    for (const auto &dff : nl.dffs())
        order.push_back(dff.q);
    for (const auto &step : nl.planSteps())
        order.push_back(cells[step.cell].output);

    std::unordered_map<uint64_t, std::vector<NetId>> buckets;
    for (NetId n : order)
        buckets[std::min(sig[n], ~sig[n])].push_back(n);

    SatSolver solver;
    CnfBuilder cnf(solver);
    NetlistEncodeOptions enc_opts;
    enc_opts.mode = NetlistEncodeMode::Reference;
    NetlistEncoding enc = encodeNetlist(cnf, nl, enc_opts);
    std::string err;
    if (!assertTies(cnf, nl, opts.dataflow, enc, err))
        panic("universalSweep: %s", err.c_str());

    struct Class
    {
        NetId leader;
        NetId antiKeeper = kNoNet;
    };
    for (NetId n : order) {
        auto &bucket = buckets[std::min(sig[n], ~sig[n])];
        if (bucket.size() < 2)
            continue;
        std::vector<Class> classes;
        for (NetId m : bucket) {
            if (!enc.hasLit(m)) {
                classes.push_back({m});
                continue;
            }
            bool matched = false;
            for (Class &cls : classes) {
                if (!enc.hasLit(cls.leader))
                    continue;
                bool anti = sig[m] == ~sig[cls.leader];
                SatLit want = anti ? ~enc.lit(cls.leader)
                                   : enc.lit(cls.leader);
                if (!proveEqual(cnf, enc.lit(m), want, solves))
                    continue;
                matched = true;
                if (driver[m] < 0)
                    break;   // pads / state can't drop drivers
                if (!anti) {
                    plan.alias[m] = cls.leader;
                    ++stats.mergedNets;
                } else if (cls.antiKeeper != kNoNet) {
                    plan.alias[m] = cls.antiKeeper;
                    ++stats.mergedNets;
                } else {
                    // First anti member: it becomes the class's
                    // inverted keeper. A driver bigger than an
                    // inverter is rewritten to INV_X1(leader).
                    cls.antiKeeper = m;
                    if (cells[driver[m]].type != CellType::INV_X1 &&
                        cells[driver[m]].type != CellType::INV_X2) {
                        plan.alias[m] = cls.leader;
                        plan.inverted[m] = 1;
                        ++stats.invDrivers;
                    }
                }
                break;
            }
            if (!matched)
                classes.push_back({m});
        }
        bucket.clear();   // each bucket processed once
    }
}

/**
 * Nominate sequential state invariants by reachable simulation
 * (power-on state, random inputs under the ties), then keep the
 * subset that survives mutual 1-induction with iterative dropping.
 */
SeqInvariants
discoverInvariants(const Netlist &nl, const SeqPruneOptions &opts,
                   uint64_t &solves)
{
    SeqInvariants inv;
    auto dffs = nl.dffs();
    size_t num_dffs = dffs.size();
    if (num_dffs == 0)
        return inv;

    // Reachable state samples (the power-on state is sample 0).
    Rng rng(opts.seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<std::vector<uint8_t>> samples;
    for (unsigned run = 0; run < std::max(opts.simRuns, 1u);
         ++run) {
        auto sim = nl.clone();
        sim->reset();
        for (unsigned c = 0; c <= opts.simCycles; ++c) {
            samples.push_back(sim->saveDffState());
            for (const auto &[name, net] : nl.primaryInputs())
                sim->setInput(name, rng.bit());
            for (const PadTie &tie : opts.dataflow.ties)
                sim->setInput(tie.input, tie.value);
            sim->evaluate();
            sim->clockEdge();
        }
    }

    std::vector<uint8_t> is_const(num_dffs, 1);
    for (const auto &s : samples)
        for (size_t i = 0; i < num_dffs; ++i)
            if ((s[i] != 0) != dffs[i].init)
                is_const[i] = 0;

    // Pair candidates among the non-constant DFFs: never disagree,
    // or never agree, across every sample. Each DFF keeps its
    // smallest such partner, so classes chain onto one survivor.
    struct PairCand
    {
        size_t keep, drop;
        bool inverted;
    };
    std::vector<PairCand> pair_cands;
    for (size_t j = 0; j < num_dffs; ++j) {
        if (is_const[j])
            continue;
        for (size_t i = 0; i < j; ++i) {
            if (is_const[i])
                continue;
            bool eq = true, ne = true;
            for (const auto &s : samples) {
                if (s[i] != s[j])
                    eq = false;
                else
                    ne = false;
                if (!eq && !ne)
                    break;
            }
            if (eq || ne) {
                pair_cands.push_back({i, j, ne});
                break;
            }
        }
    }

    std::vector<size_t> const_cands;
    for (size_t i = 0; i < num_dffs; ++i)
        if (is_const[i])
            const_cands.push_back(i);
    if (const_cands.empty() && pair_cands.empty())
        return inv;

    // Mutual 1-induction: assume every live candidate on Q through
    // an activation literal, check each on the captured D; drop
    // failures and iterate to the greatest closed subset.
    SatSolver solver;
    CnfBuilder cnf(solver);
    NetlistEncodeOptions enc_opts;
    enc_opts.mode = NetlistEncodeMode::Reference;
    NetlistEncoding enc = encodeNetlist(cnf, nl, enc_opts);
    std::string err;
    if (!assertTies(cnf, nl, opts.dataflow, enc, err))
        panic("discoverInvariants: %s", err.c_str());

    std::vector<SatLit> const_act(const_cands.size());
    for (size_t c = 0; c < const_cands.size(); ++c) {
        size_t i = const_cands[c];
        const_act[c] = cnf.fresh();
        SatLit q = enc.dffQ[i];
        cnf.addClause({~const_act[c], dffs[i].init ? q : ~q});
    }
    std::vector<SatLit> pair_act(pair_cands.size());
    for (size_t c = 0; c < pair_cands.size(); ++c) {
        const PairCand &p = pair_cands[c];
        pair_act[c] = cnf.fresh();
        SatLit qk = enc.dffQ[p.keep];
        SatLit qd = p.inverted ? ~enc.dffQ[p.drop]
                               : enc.dffQ[p.drop];
        cnf.addClause({~pair_act[c], ~qk, qd});
        cnf.addClause({~pair_act[c], qk, ~qd});
    }

    std::vector<uint8_t> const_live(const_cands.size(), 1);
    std::vector<uint8_t> pair_live(pair_cands.size(), 1);
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<SatLit> assume;
        for (size_t c = 0; c < const_cands.size(); ++c)
            if (const_live[c])
                assume.push_back(const_act[c]);
        for (size_t c = 0; c < pair_cands.size(); ++c)
            if (pair_live[c])
                assume.push_back(pair_act[c]);

        auto holds = [&](SatLit bad) {
            auto a = assume;
            a.push_back(bad);
            ++solves;
            return solver.solve(a) == Result::Unsat;
        };
        for (size_t c = 0; c < const_cands.size(); ++c) {
            if (!const_live[c])
                continue;
            size_t i = const_cands[c];
            SatLit d = enc.dffD[i];
            if (!holds(dffs[i].init ? ~d : d)) {
                const_live[c] = 0;
                changed = true;
            }
        }
        for (size_t c = 0; c < pair_cands.size(); ++c) {
            if (!pair_live[c])
                continue;
            const PairCand &p = pair_cands[c];
            SatLit dk = enc.dffD[p.keep];
            SatLit dd = p.inverted ? ~enc.dffD[p.drop]
                                   : enc.dffD[p.drop];
            if (!holds(cnf.mkXor(dk, dd))) {
                pair_live[c] = 0;
                changed = true;
            }
        }
    }

    for (size_t c = 0; c < const_cands.size(); ++c)
        if (const_live[c])
            inv.consts.push_back(
                {const_cands[c], dffs[const_cands[c]].init});
    // Keepers never appear as drops: each DFF chains onto its
    // *smallest* sample-equivalent partner, and sample equivalence
    // is transitive, so every member of a chain names the chain
    // head. Const candidates were excluded from pairing outright.
    for (size_t c = 0; c < pair_cands.size(); ++c)
        if (pair_live[c])
            inv.pairs.push_back({pair_cands[c].keep,
                                 pair_cands[c].drop,
                                 pair_cands[c].inverted});
    return inv;
}

} // namespace

SeqPruneResult
seqPrune(const Netlist &nl, const SeqPruneOptions &opts)
{
    SeqPruneResult res;
    if (!nl.elaborated()) {
        res.detail = "seqPrune requires an elaborated netlist";
        return res;
    }

    // Stage 1: the ternary baseline.
    PruneResult p1 = prune(nl, opts.dataflow, opts.certify);
    if (!p1.ok) {
        res.detail = strfmt("stage-1 prune failed: %s",
                            p1.detail.c_str());
        return res;
    }
    if (opts.certify && !p1.certified) {
        res.detail = "stage-1 prune failed certification";
        res.certification = p1.certification;
        return res;
    }
    res.baseline = p1.stats;
    uint64_t solves = p1.certification.solves;
    uint64_t conflicts = p1.certification.conflicts;

    // Stage 2: sequential merge. Swept members alias their class
    // leader or keeper; constant DFFs alias their rail and pair
    // drops their keeper (through an INV_X1 when inverted).
    const Netlist &base = *p1.netlist;
    RewritePlan plan(base);
    universalSweep(base, opts, plan, res.seq, solves);
    res.invariants = discoverInvariants(base, opts, solves);
    auto dffs = base.dffs();
    for (const auto &c : res.invariants.consts)
        plan.alias[dffs[c.index].q] = c.value ? base.one() : base.zero();
    for (const auto &p : res.invariants.pairs) {
        plan.alias[dffs[p.drop].q] = dffs[p.keep].q;
        plan.inverted[dffs[p.drop].q] = p.inverted;
    }
    res.seq.constDffs = res.invariants.consts.size();
    res.seq.pairDffs = res.invariants.pairs.size();

    std::vector<size_t> dff_map2;
    std::vector<NetId> net_map2;
    std::string err;
    auto merged = rebuild(base, plan, base.name() + "-seq", dff_map2,
                          net_map2, err);
    if (!merged) {
        res.detail = strfmt("merge rebuild failed: %s", err.c_str());
        return res;
    }
    if (opts.certify) {
        EquivResult cert = certifyRewrite(base, *merged, res.invariants,
                                          dff_map2, net_map2,
                                          opts.dataflow);
        solves += cert.solves;
        conflicts += cert.conflicts;
        if (!cert.proven) {
            res.detail = "merge failed certification";
            res.certification = std::move(cert);
            res.certification.solves = solves;
            res.certification.conflicts = conflicts;
            return res;
        }
    }

    // Stage 3: sweep the dead cones the merge exposed.
    PruneResult p2 = prune(*merged, opts.dataflow, opts.certify);
    if (!p2.ok) {
        res.detail = strfmt("stage-3 prune failed: %s",
                            p2.detail.c_str());
        return res;
    }
    solves += p2.certification.solves;
    conflicts += p2.certification.conflicts;
    if (opts.certify && !p2.certified) {
        res.detail = "stage-3 prune failed certification";
        res.certification = p2.certification;
        res.certification.solves = solves;
        res.certification.conflicts = conflicts;
        return res;
    }

    // Compose the three stage maps into original -> final.
    res.dffMap.assign(nl.dffs().size(), kPrunedAway);
    for (size_t i = 0; i < res.dffMap.size(); ++i) {
        size_t a = p1.dffMap[i];
        if (a == kPrunedAway)
            continue;
        size_t b = dff_map2[a];
        if (b == kPrunedAway)
            continue;
        res.dffMap[i] = p2.dffMap[b];
    }
    res.netMap.assign(nl.numNets(), kNoNet);
    for (NetId n = 0; n < nl.numNets(); ++n) {
        NetId a = p1.netMap[n];
        if (a == kNoNet)
            continue;
        NetId b = net_map2[a];
        if (b == kNoNet)
            continue;
        res.netMap[n] = p2.netMap[b];
    }

    res.stats.cellsBefore = nl.numCells();
    res.stats.cellsAfter = p2.netlist->numCells();
    res.stats.dffsBefore = nl.dffs().size();
    res.stats.dffsAfter = p2.netlist->dffs().size();
    res.stats.deadCells =
        p1.stats.deadCells + p2.stats.deadCells;
    res.stats.constCells =
        p1.stats.constCells + p2.stats.constCells;
    res.stats.constDffs = p1.stats.constDffs + res.seq.constDffs +
                          p2.stats.constDffs;
    res.stats.nand2AreaBefore = nl.totalNand2Area();
    res.stats.nand2AreaAfter = p2.netlist->totalNand2Area();

    res.netlist = std::move(p2.netlist);
    res.certified = opts.certify;
    res.certification.proven = opts.certify;
    res.certification.solves = solves;
    res.certification.conflicts = conflicts;
    res.certification.detail =
        opts.certify ? "all three stages proved" : "not certified";
    res.detail = strfmt(
        "%zu -> %zu cells (ternary baseline %zu), %zu -> %zu state "
        "bits; merged %zu drivers, rewrote %zu to INV_X1, folded "
        "%zu constant and %zu paired registers",
        res.stats.cellsBefore, res.stats.cellsAfter,
        res.baseline.cellsAfter, res.stats.dffsBefore,
        res.stats.dffsAfter, res.seq.mergedNets,
        res.seq.invDrivers, res.seq.constDffs, res.seq.pairDffs);
    res.ok = true;
    return res;
}

} // namespace flexi
