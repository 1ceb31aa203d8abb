#include "seq_prune.hh"

#include <algorithm>
#include <map>
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

bool
assertTies(CnfBuilder &cnf, const Netlist &nl,
           const DataflowOptions &opts, const NetlistEncoding &enc,
           std::string *err)
{
    for (const PadTie &tie : opts.ties) {
        auto it = nl.primaryInputs().find(tie.input);
        if (it == nl.primaryInputs().end()) {
            if (err)
                *err = strfmt("tie names unknown input '%s'",
                              tie.input.c_str());
            return false;
        }
        SatLit l = enc.lit(it->second);
        cnf.assertLit(tie.value ? l : ~l);
    }
    return true;
}

/** What the merge stage will do to each net of the stage-1 netlist. */
struct MergePlan
{
    /** Class leader this net's value is taken from; kNoNet keeps
     *  the net's own driver. */
    std::vector<NetId> repNet;
    /** This net keeps its identity but its driver is rewritten to
     *  INV_X1(repNet) — the class's anti-polarity keeper. */
    std::vector<uint8_t> toInv;
    SeqInvariants inv;
};

/**
 * Universal net-equivalence sweep: 64-sample random signatures over
 * free state and inputs nominate candidate classes; SAT proofs
 * (under the tie environment) make them real. Populates
 * plan.repNet / plan.toInv.
 */
void
universalSweep(const Netlist &nl, const SeqPruneOptions &opts,
               MergePlan &plan, SeqMergeStats &stats,
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
    if (!assertTies(cnf, nl, opts.dataflow, enc, &err))
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
                    plan.repNet[m] = cls.leader;
                    ++stats.mergedNets;
                } else if (cls.antiKeeper != kNoNet) {
                    plan.repNet[m] = cls.antiKeeper;
                    ++stats.mergedNets;
                } else {
                    // First anti member: it becomes the class's
                    // inverted keeper. A driver bigger than an
                    // inverter is rewritten to INV_X1(leader).
                    cls.antiKeeper = m;
                    if (cells[driver[m]].type != CellType::INV_X1 &&
                        cells[driver[m]].type != CellType::INV_X2) {
                        plan.repNet[m] = cls.leader;
                        plan.toInv[m] = 1;
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
    if (!assertTies(cnf, nl, opts.dataflow, enc, &err))
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

/**
 * Rebuild the netlist with the merge applied: class members read
 * their leader (through the INV keeper for anti polarity), constant
 * DFFs become rails, pair drops alias the surviving register. The
 * stage-3 prune() sweeps the dead cones this leaves behind.
 */
std::unique_ptr<Netlist>
applyMerge(const Netlist &nl, const MergePlan &plan,
           std::vector<size_t> &dff_map, std::vector<NetId> &net_map,
           SeqMergeStats &stats, std::string *err)
{
    const auto &cells = nl.cells();
    auto dffs = nl.dffs();
    size_t num_nets = nl.numNets();

    auto out = std::make_unique<Netlist>(nl.name() + "-seq");
    net_map.assign(num_nets, kNoNet);
    net_map[nl.zero()] = out->zero();
    net_map[nl.one()] = out->one();
    for (const auto &[name, net] : nl.primaryInputs())
        net_map[net] = out->addInput(name);

    std::vector<int8_t> const_val(dffs.size(), -1);
    for (const auto &c : plan.inv.consts)
        const_val[c.index] = c.value;
    std::vector<ptrdiff_t> pair_keep(dffs.size(), -1);
    std::vector<uint8_t> pair_inv(dffs.size(), 0);
    for (const auto &p : plan.inv.pairs) {
        pair_keep[p.drop] = static_cast<ptrdiff_t>(p.keep);
        pair_inv[p.drop] = p.inverted;
    }

    dff_map.assign(dffs.size(), kPrunedAway);
    size_t next_dff = 0;
    for (size_t i = 0; i < dffs.size(); ++i) {
        if (const_val[i] >= 0) {
            net_map[dffs[i].q] =
                const_val[i] ? out->one() : out->zero();
            ++stats.constDffs;
            continue;
        }
        if (pair_keep[i] >= 0) {
            NetId keep_q = net_map[dffs[pair_keep[i]].q];
            if (keep_q == kNoNet) {
                *err = strfmt("pair keeper %zu unmapped",
                              static_cast<size_t>(pair_keep[i]));
                return nullptr;
            }
            net_map[dffs[i].q] =
                pair_inv[i]
                    ? out->addCell(CellType::INV_X1, {keep_q},
                                   cells[dffs[i].cell].module)
                    : keep_q;
            ++stats.pairDffs;
            continue;
        }
        bool x2 = cells[dffs[i].cell].type == CellType::DFF_X2;
        NetId q = out->addDff(out->zero(),
                              cells[dffs[i].cell].module,
                              dffs[i].init, x2);
        net_map[dffs[i].q] = q;
        dff_map[i] = next_dff++;
    }

    for (const auto &step : nl.planSteps()) {
        const CellInst &cell = cells[step.cell];
        NetId m = cell.output;
        if (plan.repNet[m] != kNoNet && !plan.toInv[m]) {
            net_map[m] = net_map[plan.repNet[m]];
            if (net_map[m] == kNoNet) {
                *err = strfmt("merge leader of %s unmapped",
                              nl.netName(m).c_str());
                return nullptr;
            }
            continue;
        }
        if (plan.toInv[m]) {
            NetId rep = net_map[plan.repNet[m]];
            if (rep == kNoNet) {
                *err = strfmt("merge leader of %s unmapped",
                              nl.netName(m).c_str());
                return nullptr;
            }
            net_map[m] = out->addCell(CellType::INV_X1, {rep},
                                      cell.module);
            continue;
        }
        std::vector<NetId> ins;
        ins.reserve(cell.inputs.size());
        for (NetId in : cell.inputs) {
            if (in == kNoNet || net_map[in] == kNoNet) {
                *err = strfmt("cell #%u reads an unmapped net",
                              step.cell);
                return nullptr;
            }
            ins.push_back(net_map[in]);
        }
        net_map[m] = out->addCell(cell.type, ins, cell.module);
    }

    for (size_t i = 0; i < dffs.size(); ++i) {
        if (dff_map[i] == kPrunedAway)
            continue;
        NetId d = net_map[dffs[i].d];
        if (d == kNoNet) {
            *err = strfmt("surviving DFF %zu has an unmapped D "
                          "cone", i);
            return nullptr;
        }
        out->setDffInput(net_map[dffs[i].q], d);
    }
    for (const auto &[name, net] : nl.primaryOutputs()) {
        if (net_map[net] == kNoNet) {
            *err = strfmt("output '%s' has an unmapped net",
                          name.c_str());
            return nullptr;
        }
        out->addOutput(name, net_map[net]);
    }

    out->elaborate();
    return out;
}

} // namespace

EquivResult
certifySeqPrune(const Netlist &orig, const Netlist &merged,
                const SeqInvariants &inv,
                const std::vector<size_t> &dffMap,
                const std::vector<NetId> &netMap,
                const std::vector<uint8_t> &netInv,
                const DataflowOptions &opts)
{
    EquivResult res;
    if (!orig.elaborated() || !merged.elaborated()) {
        res.detail = "certifySeqPrune requires elaborated netlists";
        return res;
    }
    auto odffs = orig.dffs();
    auto mdffs = merged.dffs();
    if (dffMap.size() != odffs.size()) {
        res.detail = "dffMap does not cover the original state";
        return res;
    }

    // Induction base case: the power-on state satisfies every
    // invariant the merge relies on.
    for (const auto &c : inv.consts) {
        if (c.value != odffs[c.index].init) {
            res.detail = strfmt(
                "constant state bit %s disagrees with its power-on "
                "value (base case)",
                orig.netName(odffs[c.index].q).c_str());
            return res;
        }
    }
    for (const auto &p : inv.pairs) {
        bool want = p.inverted ? !odffs[p.keep].init
                               : odffs[p.keep].init;
        if (odffs[p.drop].init != want) {
            res.detail = strfmt(
                "pair %s/%s disagrees at power-on (base case)",
                orig.netName(odffs[p.keep].q).c_str(),
                orig.netName(odffs[p.drop].q).c_str());
            return res;
        }
    }

    SatSolver solver;
    CnfBuilder cnf(solver);
    NetlistEncodeOptions enc_opts;
    enc_opts.mode = NetlistEncodeMode::Reference;
    NetlistEncoding eo = encodeNetlist(cnf, orig, enc_opts);
    if (!assertTies(cnf, orig, opts, eo, &res.detail))
        return res;

    auto fail = [&](const std::string &who) {
        res.hasCex = true;
        res.cex = extractCex(solver, orig, eo);
        res.cex.mismatched.push_back(who);
        res.conflicts = solver.stats().conflicts;
    };

    // Assume the invariants on the current state...
    for (const auto &c : inv.consts)
        cnf.assertLit(c.value ? eo.dffQ[c.index]
                              : ~eo.dffQ[c.index]);
    for (const auto &p : inv.pairs)
        cnf.bindEqual(eo.dffQ[p.drop],
                      p.inverted ? ~eo.dffQ[p.keep]
                                 : eo.dffQ[p.keep]);

    // ...and prove them on the next state (the induction step).
    for (const auto &c : inv.consts) {
        if (!proveConst(cnf, eo.dffD[c.index], c.value,
                        res.solves)) {
            fail(orig.netName(odffs[c.index].q) +
                 " (constant induction)");
            return res;
        }
    }
    for (const auto &p : inv.pairs) {
        SatLit want = p.inverted ? ~eo.dffD[p.keep]
                                 : eo.dffD[p.keep];
        if (!proveEqual(cnf, eo.dffD[p.drop], want, res.solves)) {
            fail(orig.netName(odffs[p.drop].q) +
                 " (pair induction)");
            return res;
        }
    }

    // Observable miter: pads shared by name, surviving state shared
    // through the merge's DFF map.
    NetlistEncoding em = encodeNetlist(cnf, merged, enc_opts);
    for (const auto &[name, onet] : orig.primaryInputs()) {
        auto it = merged.primaryInputs().find(name);
        if (it == merged.primaryInputs().end()) {
            res.detail = strfmt("merged netlist lost input '%s'",
                                name.c_str());
            return res;
        }
        cnf.bindEqual(eo.lit(onet), em.lit(it->second));
    }
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        if (dffMap[i] >= mdffs.size()) {
            res.detail = "dffMap points past the merged state";
            return res;
        }
        cnf.bindEqual(eo.dffQ[i], em.dffQ[dffMap[i]]);
    }

    // Interior sweep (best effort, with polarity): harden original
    // nets onto their merged counterparts cone by cone.
    if (!netMap.empty()) {
        for (const auto &step : orig.planSteps()) {
            NetId onet = orig.cells()[step.cell].output;
            if (onet >= netMap.size() || netMap[onet] == kNoNet)
                continue;
            NetId mnet = netMap[onet];
            if (!eo.hasLit(onet) || !em.hasLit(mnet))
                continue;
            SatLit b = em.lit(mnet);
            if (onet < netInv.size() && netInv[onet])
                b = ~b;
            proveEqual(cnf, eo.lit(onet), b, res.solves);
        }
    }

    for (const auto &[name, onet] : orig.primaryOutputs()) {
        auto it = merged.primaryOutputs().find(name);
        if (it == merged.primaryOutputs().end()) {
            res.detail = strfmt("merged netlist lost output '%s'",
                                name.c_str());
            return res;
        }
        if (!proveEqual(cnf, eo.lit(onet), em.lit(it->second),
                        res.solves)) {
            fail(name);
            return res;
        }
    }
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        if (!proveEqual(cnf, eo.dffD[i], em.dffD[dffMap[i]],
                        res.solves)) {
            fail(orig.netName(odffs[i].q) + " (next-state)");
            return res;
        }
    }

    res.proven = true;
    res.conflicts = solver.stats().conflicts;
    return res;
}

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

    // Stage 2: sequential merge.
    const Netlist &base = *p1.netlist;
    MergePlan plan;
    plan.repNet.assign(base.numNets(), kNoNet);
    plan.toInv.assign(base.numNets(), 0);
    universalSweep(base, opts, plan, res.seq, solves);
    plan.inv = discoverInvariants(base, opts, solves);
    res.invariants = plan.inv;

    std::vector<size_t> dff_map2;
    std::vector<NetId> net_map2;
    std::string err;
    auto merged = applyMerge(base, plan, dff_map2, net_map2,
                             res.seq, &err);
    if (!merged) {
        res.detail = strfmt("merge rebuild failed: %s",
                            err.c_str());
        return res;
    }
    std::vector<uint8_t> net_inv2(base.numNets(), 0);
    if (opts.certify) {
        EquivResult cert = certifySeqPrune(base, *merged, plan.inv,
                                           dff_map2, net_map2,
                                           net_inv2, opts.dataflow);
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
    res.netInv.assign(nl.numNets(), 0);
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
