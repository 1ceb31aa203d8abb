#include "prune.hh"

#include <map>

#include "analysis/cnf_encoder.hh"
#include "common/logging.hh"

namespace flexi
{

namespace
{

/** The claims a prune rests on, read off the dataflow facts. */
SeqInvariants
pruneClaims(const Netlist &nl, const DataflowResult &df)
{
    SeqInvariants inv;
    if (!nl.elaborated())
        return inv;   // certifyRewrite() refuses the netlist
    auto dffs = nl.dffs();
    for (size_t i = 0; i < dffs.size(); ++i)
        if (df.netConst(dffs[i].q))
            inv.consts.push_back({i, df.netConstValue(dffs[i].q)});
    for (const auto &step : nl.planSteps()) {
        NetId net = nl.cells()[step.cell].output;
        if (df.netConst(net))
            inv.nets.push_back({net, df.netConstValue(net)});
    }
    return inv;
}

} // namespace

std::unique_ptr<Netlist>
rebuild(const Netlist &nl, const RewritePlan &plan,
        const std::string &name, std::vector<size_t> &dffMap,
        std::vector<NetId> &netMap, std::string &err)
{
    const auto &cells = nl.cells();
    auto dffs = nl.dffs();

    auto out = std::make_unique<Netlist>(name);
    netMap.assign(nl.numNets(), kNoNet);
    netMap[nl.zero()] = out->zero();
    netMap[nl.one()] = out->one();

    // An aliased net reads its alias's rebuilt net, through a new
    // INV_X1 in the net's own module when inverted.
    auto takeAlias = [&](NetId n, const std::string &module) {
        NetId a = netMap[plan.alias[n]];
        if (a == kNoNet) {
            err = strfmt("alias of %s is unmapped",
                         nl.netName(n).c_str());
            return false;
        }
        netMap[n] = plan.inverted[n]
            ? out->addCell(CellType::INV_X1, {a}, module) : a;
        return true;
    };

    // The pad interface survives verbatim; an aliased (tied) pad's
    // consumers read the alias instead (the pad stays, dangling).
    for (const auto &[pad, net] : nl.primaryInputs()) {
        netMap[net] = out->addInput(pad);
        if (plan.alias[net] != kNoNet && !takeAlias(net, ""))
            return nullptr;
    }

    // Surviving DFFs next (D wired after the comb cells exist).
    dffMap.assign(dffs.size(), kPrunedAway);
    size_t next_dff = 0;
    for (size_t i = 0; i < dffs.size(); ++i) {
        const CellInst &cell = cells[dffs[i].cell];
        if (plan.alias[dffs[i].q] != kNoNet) {
            if (!takeAlias(dffs[i].q, cell.module))
                return nullptr;
            continue;
        }
        if (plan.dead[dffs[i].cell])
            continue;
        netMap[dffs[i].q] =
            out->addDff(out->zero(), cell.module, dffs[i].init,
                        cell.type == CellType::DFF_X2);
        dffMap[i] = next_dff++;
    }

    // Combinational cells in plan (topological) order, so every
    // kept cell's inputs and every alias already exist.
    for (const auto &step : nl.planSteps()) {
        const CellInst &cell = cells[step.cell];
        if (plan.alias[cell.output] != kNoNet) {
            if (!takeAlias(cell.output, cell.module))
                return nullptr;
            continue;
        }
        if (plan.dead[step.cell])
            continue;
        std::vector<NetId> ins;
        ins.reserve(cell.inputs.size());
        for (NetId in : cell.inputs) {
            if (in == kNoNet || netMap[in] == kNoNet) {
                err = strfmt("cell #%u reads an unmapped net",
                             step.cell);
                return nullptr;
            }
            ins.push_back(netMap[in]);
        }
        netMap[cell.output] = out->addCell(cell.type, ins, cell.module);
    }

    // Close the sequential feedback and the pad interface.
    for (size_t i = 0; i < dffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        NetId d = netMap[dffs[i].d];
        if (d == kNoNet) {
            err = strfmt("surviving DFF %zu has an unmapped D cone", i);
            return nullptr;
        }
        out->setDffInput(netMap[dffs[i].q], d);
    }
    for (const auto &[pad, net] : nl.primaryOutputs()) {
        if (netMap[net] == kNoNet) {
            err = strfmt("output '%s' has an unmapped net",
                         pad.c_str());
            return nullptr;
        }
        out->addOutput(pad, netMap[net]);
    }

    out->elaborate();
    return out;
}

bool
assertTies(CnfBuilder &cnf, const Netlist &nl,
           const DataflowOptions &opts, const NetlistEncoding &enc,
           std::string &err)
{
    for (const PadTie &tie : opts.ties) {
        auto it = nl.primaryInputs().find(tie.input);
        if (it == nl.primaryInputs().end()) {
            err = strfmt("tie names unknown input '%s'",
                         tie.input.c_str());
            return false;
        }
        SatLit l = enc.lit(it->second);
        cnf.assertLit(tie.value ? l : ~l);
    }
    return true;
}

EquivResult
certifyRewrite(const Netlist &orig, const Netlist &rewritten,
               const SeqInvariants &inv,
               const std::vector<size_t> &dffMap,
               const std::vector<NetId> &netMap,
               const DataflowOptions &opts)
{
    EquivResult res;
    if (!orig.elaborated() || !rewritten.elaborated()) {
        res.detail = "certifyRewrite requires elaborated netlists";
        return res;
    }
    auto odffs = orig.dffs();
    if (dffMap.size() != odffs.size()) {
        res.detail = "dffMap does not cover the original state";
        return res;
    }

    // Induction base case: the power-on state satisfies every state
    // claim.
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
        if (odffs[p.drop].init != (odffs[p.keep].init != p.inverted)) {
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
    if (!assertTies(cnf, orig, opts, eo, res.detail))
        return res;

    auto fail = [&](const std::string &who) {
        res.hasCex = true;
        res.cex = extractCex(solver, orig, eo);
        res.cex.mismatched.push_back(who);
        res.conflicts = solver.stats().conflicts;
    };

    // Induction step: assume the state claims on the current
    // state...
    for (const auto &c : inv.consts)
        cnf.assertLit(c.value ? eo.dffQ[c.index]
                              : ~eo.dffQ[c.index]);
    for (const auto &p : inv.pairs)
        cnf.bindEqual(eo.dffQ[p.drop],
                      p.inverted ? ~eo.dffQ[p.keep]
                                 : eo.dffQ[p.keep]);

    // ...prove them on the next state, then every folded net equal
    // to its rail in topological order (each proof hardens into a
    // unit clause the later cones reuse).
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
    for (const auto &c : inv.nets) {
        if (!eo.hasLit(c.net))
            continue;
        if (!proveConst(cnf, eo.lit(c.net), c.value, res.solves)) {
            fail(orig.netName(c.net) + " (constant fold)");
            return res;
        }
    }

    // Observable miter: pads shared by name, surviving state shared
    // through the rewrite's DFF map.
    NetlistEncoding er = encodeNetlist(cnf, rewritten, enc_opts);
    for (const auto &[name, onet] : orig.primaryInputs()) {
        auto it = rewritten.primaryInputs().find(name);
        if (it == rewritten.primaryInputs().end()) {
            res.detail = strfmt("rewritten netlist lost input '%s'",
                                name.c_str());
            return res;
        }
        cnf.bindEqual(eo.lit(onet), er.lit(it->second));
    }
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        if (dffMap[i] >= rewritten.numDffs()) {
            res.detail = "dffMap points past the rewritten state";
            return res;
        }
        cnf.bindEqual(eo.dffQ[i], er.dffQ[dffMap[i]]);
    }

    // Interior sweep: prove original nets equal to their rewritten
    // counterparts cone by cone, hardening as we go, so the
    // observable proofs below are effectively local. Best effort: a
    // failed interior proof only forfeits its hardening.
    for (const auto &step : orig.planSteps()) {
        NetId onet = orig.cells()[step.cell].output;
        if (onet >= netMap.size() || netMap[onet] == kNoNet)
            continue;
        NetId rnet = netMap[onet];
        if (eo.hasLit(onet) && er.hasLit(rnet))
            proveEqual(cnf, eo.lit(onet), er.lit(rnet), res.solves);
    }

    for (const auto &[name, onet] : orig.primaryOutputs()) {
        auto it = rewritten.primaryOutputs().find(name);
        if (it == rewritten.primaryOutputs().end()) {
            res.detail = strfmt("rewritten netlist lost output '%s'",
                                name.c_str());
            return res;
        }
        if (!proveEqual(cnf, eo.lit(onet), er.lit(it->second),
                        res.solves)) {
            fail(name);
            return res;
        }
    }
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        if (!proveEqual(cnf, eo.dffD[i], er.dffD[dffMap[i]],
                        res.solves)) {
            fail(orig.netName(odffs[i].q) + " (next-state)");
            return res;
        }
    }

    res.proven = true;
    res.conflicts = solver.stats().conflicts;
    return res;
}

EquivResult
certifyPrune(const Netlist &orig, const Netlist &pruned,
             const DataflowResult &df,
             const std::vector<size_t> &dffMap,
             const std::vector<NetId> &netMap,
             const DataflowOptions &opts)
{
    return certifyRewrite(orig, pruned, pruneClaims(orig, df), dffMap,
                          netMap, opts);
}

PruneResult
prune(const Netlist &nl, const DataflowOptions &opts, bool certify)
{
    PruneResult res;
    if (!nl.elaborated()) {
        res.detail = "prune requires an elaborated netlist";
        return res;
    }

    res.dataflow = analyzeDataflow(nl, opts);
    const DataflowResult &df = res.dataflow;
    if (!df.ok) {
        res.detail = strfmt("dataflow analysis failed: %s",
                            df.detail.c_str());
        return res;
    }

    // Every constant net folds onto its rail (a tied pad included)
    // and every cell outside the observable cones is dropped. The
    // ascending analysis starts at the power-on state, so a constant
    // DFF's value necessarily equals its init.
    SeqInvariants claims = pruneClaims(nl, df);
    RewritePlan plan(nl);
    for (NetId n = 0; n < nl.numNets(); ++n)
        if (df.netConst(n))
            plan.alias[n] = df.netConstValue(n) ? nl.one() : nl.zero();
    for (size_t i = 0; i < nl.numCells(); ++i)
        plan.dead[i] = !df.liveCell[i];
    auto dffs = nl.dffs();
    for (const auto &c : claims.consts)
        if (c.value != dffs[c.index].init)
            panic("prune: constant DFF disagrees with its init");
    res.stats.constDffs = claims.consts.size();
    res.stats.constCells = claims.nets.size();
    for (const auto &step : nl.planSteps())
        if (plan.alias[nl.cells()[step.cell].output] == kNoNet &&
            plan.dead[step.cell])
            ++res.stats.deadCells;

    std::string err;
    res.netlist = rebuild(nl, plan, nl.name() + "-pruned", res.dffMap,
                          res.netMap, err);
    if (!res.netlist) {
        res.detail = err;
        return res;
    }

    res.stats.cellsBefore = nl.numCells();
    res.stats.cellsAfter = res.netlist->numCells();
    res.stats.dffsBefore = dffs.size();
    res.stats.dffsAfter = res.netlist->numDffs();
    res.stats.nand2AreaBefore = nl.totalNand2Area();
    res.stats.nand2AreaAfter = res.netlist->totalNand2Area();
    res.ok = true;

    if (certify) {
        res.certification = certifyRewrite(nl, *res.netlist, claims,
                                           res.dffMap, res.netMap,
                                           opts);
        res.certified = res.certification.proven;
    }
    return res;
}

bool
replayPruneCex(const Netlist &orig, const Netlist &pruned,
               const std::vector<size_t> &dffMap,
               const EquivCounterexample &cex, std::string *what)
{
    auto a = orig.clone();
    auto b = pruned.clone();

    std::map<std::string, bool> bits;
    for (const auto &[name, v] : cex.assignment)
        bits[name] = v;

    // State: original bits by name, pruned bits through the map.
    auto odffs = orig.dffs();
    std::vector<uint8_t> sa = a->saveDffState();
    std::vector<uint8_t> sb = b->saveDffState();
    for (size_t i = 0; i < odffs.size(); ++i) {
        auto it = bits.find(orig.netName(odffs[i].q));
        if (it != bits.end())
            sa[i] = it->second ? 1 : 0;
        if (i < dffMap.size() && dffMap[i] != kPrunedAway &&
            dffMap[i] < sb.size())
            sb[dffMap[i]] = sa[i];
    }
    a->restoreDffState(sa);
    b->restoreDffState(sb);

    for (const auto &[name, net] : orig.primaryInputs()) {
        auto it = bits.find(name);
        bool v = it != bits.end() && it->second;
        a->setInput(name, v);
        b->setInput(name, v);
    }

    a->evaluate();
    b->evaluate();
    for (const auto &[name, net] : orig.primaryOutputs()) {
        if (a->output(name) != b->output(name)) {
            if (what)
                *what = strfmt("output %s: %d vs %d", name.c_str(),
                               a->output(name) ? 1 : 0,
                               b->output(name) ? 1 : 0);
            return true;
        }
    }

    a->clockEdge();
    b->clockEdge();
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (i >= dffMap.size() || dffMap[i] == kPrunedAway)
            continue;
        if (a->dffValue(i) != b->dffValue(dffMap[i])) {
            if (what)
                *what = strfmt("state %s: %d vs %d",
                               orig.netName(odffs[i].q).c_str(),
                               a->dffValue(i) ? 1 : 0,
                               b->dffValue(dffMap[i]) ? 1 : 0);
            return true;
        }
    }
    return false;
}

} // namespace flexi
