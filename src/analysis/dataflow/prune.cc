#include "prune.hh"

#include <algorithm>
#include <map>

#include "analysis/cnf_encoder.hh"
#include "common/logging.hh"
#include "tech/cell_library.hh"

namespace flexi
{

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

    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();
    auto dffs = nl.dffs();

    auto out = std::make_unique<Netlist>(nl.name() + "-pruned");
    std::vector<NetId> net_map(num_nets, kNoNet);
    net_map[nl.zero()] = out->zero();
    net_map[nl.one()] = out->one();

    // The pad interface survives verbatim; a tied pad's consumers
    // read the rail instead (the pad itself stays, dangling).
    for (const auto &[name, net] : nl.primaryInputs())
        net_map[net] = out->addInput(name);
    for (NetId n = 0; n < num_nets; ++n)
        if (df.constVal[n] != Ternary::X)
            net_map[n] = df.constVal[n] == Ternary::One
                ? out->one() : out->zero();

    // Surviving DFFs first (D wired after the comb cells exist).
    // The ascending analysis starts at the power-on state, so a
    // constant DFF's value necessarily equals its init.
    res.dffMap.assign(dffs.size(), kPrunedAway);
    size_t next_dff = 0;
    for (size_t i = 0; i < dffs.size(); ++i) {
        bool is_const = df.constVal[dffs[i].q] != Ternary::X;
        if (is_const &&
            (df.constVal[dffs[i].q] == Ternary::One) !=
                dffs[i].init)
            panic("prune: constant DFF disagrees with its init");
        if (is_const) {
            ++res.stats.constDffs;
            continue;
        }
        if (!df.liveCell[dffs[i].cell])
            continue;
        bool x2 = cells[dffs[i].cell].type == CellType::DFF_X2;
        NetId q = out->addDff(out->zero(),
                              cells[dffs[i].cell].module,
                              dffs[i].init, x2);
        net_map[dffs[i].q] = q;
        res.dffMap[i] = next_dff++;
    }

    // Surviving combinational cells, in plan (topological) order so
    // every mapped input already exists.
    for (const auto &step : nl.planSteps()) {
        size_t i = step.cell;
        const CellInst &cell = cells[i];
        if (df.constVal[cell.output] != Ternary::X) {
            ++res.stats.constCells;
            continue;
        }
        if (!df.liveCell[i]) {
            ++res.stats.deadCells;
            continue;
        }
        std::vector<NetId> ins;
        ins.reserve(cell.inputs.size());
        for (NetId in : cell.inputs) {
            if (in == kNoNet || net_map[in] == kNoNet) {
                res.detail = strfmt(
                    "live cell #%zu reads an unmapped net", i);
                return res;
            }
            ins.push_back(net_map[in]);
        }
        net_map[cell.output] =
            out->addCell(cell.type, ins, cell.module);
    }

    // Close the sequential feedback and the pad interface.
    for (size_t i = 0; i < dffs.size(); ++i) {
        if (res.dffMap[i] == kPrunedAway)
            continue;
        NetId d = net_map[dffs[i].d];
        if (d == kNoNet) {
            res.detail = strfmt(
                "surviving DFF %zu has an unmapped D cone", i);
            return res;
        }
        out->setDffInput(net_map[dffs[i].q], d);
    }
    for (const auto &[name, net] : nl.primaryOutputs()) {
        if (net_map[net] == kNoNet) {
            res.detail = strfmt("output '%s' has an unmapped net",
                                name.c_str());
            return res;
        }
        out->addOutput(name, net_map[net]);
    }

    out->elaborate();

    res.stats.cellsBefore = nl.numCells();
    res.stats.cellsAfter = out->numCells();
    res.stats.dffsBefore = dffs.size();
    res.stats.dffsAfter = next_dff;
    res.stats.nand2AreaBefore = nl.totalNand2Area();
    res.stats.nand2AreaAfter = out->totalNand2Area();

    res.netlist = std::move(out);
    res.netMap = std::move(net_map);
    res.ok = true;

    if (certify) {
        res.certification = certifyPrune(nl, *res.netlist, df,
                                         res.dffMap, res.netMap,
                                         opts);
        res.certified = res.certification.proven;
    }
    return res;
}

EquivResult
certifyPrune(const Netlist &orig, const Netlist &pruned,
             const DataflowResult &df,
             const std::vector<size_t> &dffMap,
             const std::vector<NetId> &netMap,
             const DataflowOptions &opts)
{
    EquivResult res;
    if (!orig.elaborated() || !pruned.elaborated()) {
        res.detail = "certifyPrune requires elaborated netlists";
        return res;
    }
    auto odffs = orig.dffs();
    auto pdffs = pruned.dffs();
    if (dffMap.size() != odffs.size()) {
        res.detail = "dffMap does not cover the original state";
        return res;
    }

    SatSolver solver;
    CnfBuilder cnf(solver);
    NetlistEncodeOptions enc_opts;
    enc_opts.mode = NetlistEncodeMode::Reference;
    NetlistEncoding eo = encodeNetlist(cnf, orig, enc_opts);

    auto fail = [&](const std::string &who) {
        res.hasCex = true;
        res.cex = extractCex(solver, orig, eo);
        res.cex.mismatched.push_back(who);
    };

    // Environment: the tie assumptions hold on both sides (pads are
    // shared below, so asserting them once on the original pins the
    // pruned pads too).
    for (const PadTie &tie : opts.ties) {
        auto it = orig.primaryInputs().find(tie.input);
        if (it == orig.primaryInputs().end()) {
            res.detail = strfmt("tie names unknown input '%s'",
                                tie.input.c_str());
            return res;
        }
        SatLit l = eo.lit(it->second);
        cnf.assertLit(tie.value ? l : ~l);
    }

    // Step 1a: pin the constant DFFs (the induction hypothesis) and
    // check the base case against the power-on values.
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (df.constVal[odffs[i].q] == Ternary::X)
            continue;
        bool v = df.constVal[odffs[i].q] == Ternary::One;
        if (v != odffs[i].init) {
            res.detail = strfmt(
                "constant state bit %s disagrees with its power-on "
                "value (base case)",
                orig.netName(odffs[i].q).c_str());
            return res;
        }
        cnf.assertLit(v ? eo.dffQ[i] : ~eo.dffQ[i]);
    }

    // Step 1b: the inductive step — every constant DFF's captured
    // next-state equals its constant under the pins.
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (df.constVal[odffs[i].q] == Ternary::X)
            continue;
        bool v = df.constVal[odffs[i].q] == Ternary::One;
        if (!proveConst(cnf, eo.dffD[i], v, res.solves)) {
            fail(orig.netName(odffs[i].q) + " (constant induction)");
            res.conflicts = solver.stats().conflicts;
            return res;
        }
    }

    // Step 1c: every folded combinational net is proven equal to its
    // rail, in topological order (each proof hardens into a unit
    // clause the later cones reuse).
    for (const auto &step : orig.planSteps()) {
        NetId net = orig.cells()[step.cell].output;
        if (df.constVal[net] == Ternary::X || !eo.hasLit(net))
            continue;
        bool v = df.constVal[net] == Ternary::One;
        if (!proveConst(cnf, eo.lit(net), v, res.solves)) {
            fail(orig.netName(net) + " (constant fold)");
            res.conflicts = solver.stats().conflicts;
            return res;
        }
    }

    // Step 2: the observable miter. Pads shared by name, surviving
    // state shared through the prune's DFF map.
    NetlistEncoding ep = encodeNetlist(cnf, pruned, enc_opts);
    for (const auto &[name, onet] : orig.primaryInputs()) {
        auto it = pruned.primaryInputs().find(name);
        if (it == pruned.primaryInputs().end()) {
            res.detail = strfmt("pruned netlist lost input '%s'",
                                name.c_str());
            return res;
        }
        SatLit a = eo.lit(onet), b = ep.lit(it->second);
        solver.addClause({~a, b});
        solver.addClause({a, ~b});
    }
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        if (dffMap[i] >= pdffs.size()) {
            res.detail = "dffMap points past the pruned state";
            return res;
        }
        SatLit a = eo.dffQ[i], b = ep.dffQ[dffMap[i]];
        solver.addClause({~a, b});
        solver.addClause({a, ~b});
    }

    // Interior sweep: prove original nets equal to their pruned
    // counterparts cone by cone, hardening as we go, so the
    // observable proofs below are effectively local.
    if (!netMap.empty()) {
        for (const auto &step : orig.planSteps()) {
            NetId onet = orig.cells()[step.cell].output;
            if (onet >= netMap.size() || netMap[onet] == kNoNet)
                continue;
            NetId pnet = netMap[onet];
            if (!eo.hasLit(onet) || !ep.hasLit(pnet))
                continue;
            // Best effort: a failed interior proof is not itself a
            // certification failure (only observables are), it just
            // forfeits the hardening.
            proveEqual(cnf, eo.lit(onet), ep.lit(pnet), res.solves);
        }
    }

    for (const auto &[name, onet] : orig.primaryOutputs()) {
        auto it = pruned.primaryOutputs().find(name);
        if (it == pruned.primaryOutputs().end()) {
            res.detail = strfmt("pruned netlist lost output '%s'",
                                name.c_str());
            return res;
        }
        if (!proveEqual(cnf, eo.lit(onet), ep.lit(it->second),
                        res.solves)) {
            fail(name);
            res.conflicts = solver.stats().conflicts;
            return res;
        }
    }
    for (size_t i = 0; i < odffs.size(); ++i) {
        if (dffMap[i] == kPrunedAway)
            continue;
        if (!proveEqual(cnf, eo.dffD[i], ep.dffD[dffMap[i]],
                        res.solves)) {
            fail(orig.netName(odffs[i].q) + " (next-state)");
            res.conflicts = solver.stats().conflicts;
            return res;
        }
    }

    res.proven = true;
    res.conflicts = solver.stats().conflicts;
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
