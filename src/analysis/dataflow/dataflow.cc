#include "dataflow.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "common/logging.hh"
#include "tech/cell_library.hh"

namespace flexi
{

namespace
{

constexpr size_t kNoCell = ~size_t{0};

/** Number of meaningful inputs (the DFF clock slot is implicit). */
size_t
realInputs(const CellInst &cell)
{
    return isSequential(cell.type) ? 1 : cell.inputs.size();
}

/**
 * Combinational cells in topological order (Kahn over the
 * cell-to-cell dependency edges; DFF outputs, primary inputs, and
 * rails are sources). Returns false on a combinational cycle.
 */
bool
combTopoOrder(const Netlist &nl, std::vector<size_t> &order)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    std::vector<size_t> driver(num_nets, kNoCell);
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellInst &cell = cells[i];
        if (!isSequential(cell.type) && cell.output < num_nets)
            driver[cell.output] = i;
    }

    std::vector<unsigned> indeg(cells.size(), 0);
    std::vector<std::vector<size_t>> consumers(cells.size());
    size_t num_comb = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (isSequential(cells[i].type))
            continue;
        ++num_comb;
        for (size_t k = 0; k < realInputs(cells[i]); ++k) {
            NetId in = cells[i].inputs[k];
            if (in == kNoNet || in >= num_nets)
                continue;
            size_t d = driver[in];
            if (d != kNoCell) {
                consumers[d].push_back(i);
                ++indeg[i];
            }
        }
    }

    std::deque<size_t> ready;
    for (size_t i = 0; i < cells.size(); ++i)
        if (!isSequential(cells[i].type) && indeg[i] == 0)
            ready.push_back(i);

    order.clear();
    order.reserve(num_comb);
    while (!ready.empty()) {
        size_t i = ready.front();
        ready.pop_front();
        order.push_back(i);
        for (size_t c : consumers[i])
            if (--indeg[c] == 0)
                ready.push_back(c);
    }
    return order.size() == num_comb;
}

/** One forward pass over the combinational logic. */
void
evalComb(const Netlist &nl, const std::vector<size_t> &order,
         std::vector<Ternary> &vals)
{
    const auto &cells = nl.cells();
    for (size_t i : order) {
        const CellInst &cell = cells[i];
        Ternary in[3] = {Ternary::Zero, Ternary::Zero, Ternary::Zero};
        for (size_t k = 0; k < cell.inputs.size() && k < 3; ++k) {
            NetId n = cell.inputs[k];
            in[k] = (n != kNoNet && n < vals.size()) ? vals[n]
                                                     : Ternary::X;
        }
        if (cell.output < vals.size())
            vals[cell.output] =
                ternaryEval(cell.type, in[0], in[1], in[2]);
    }
}

std::string
cellDesc(const Netlist &nl, size_t i)
{
    const CellInst &cell = nl.cells()[i];
    return strfmt("%s #%zu @%s (%s)", cellInfo(cell.type).name, i,
                  cell.module.c_str(),
                  nl.netName(cell.output).c_str());
}

} // namespace

const char *
ternaryName(Ternary t)
{
    switch (t) {
      case Ternary::Zero: return "0";
      case Ternary::One: return "1";
      case Ternary::X: return "X";
    }
    return "?";
}

Ternary
ternaryEval(CellType type, Ternary a, Ternary b, Ternary c)
{
    uint8_t lut = cellTruthTable(type);
    const Ternary in[3] = {a, b, c};
    bool can0 = false, can1 = false;
    for (unsigned idx = 0; idx < 8; ++idx) {
        bool possible = true;
        for (unsigned k = 0; k < 3; ++k) {
            bool bit = (idx >> k) & 1u;
            if (in[k] != Ternary::X &&
                bit != (in[k] == Ternary::One)) {
                possible = false;
                break;
            }
        }
        if (!possible)
            continue;
        if ((lut >> idx) & 1u)
            can1 = true;
        else
            can0 = true;
        if (can0 && can1)
            return Ternary::X;
    }
    return can1 ? Ternary::One : Ternary::Zero;
}

size_t
DataflowResult::numConstNets() const
{
    size_t n = 0;
    for (Ternary t : constVal)
        if (t != Ternary::X)
            ++n;
    // Never count the two constant rails themselves.
    return n >= 2 ? n - 2 : 0;
}

size_t
DataflowResult::numDeadCells() const
{
    size_t n = 0;
    for (uint8_t live : liveCell)
        if (!live)
            ++n;
    return n;
}

size_t
DataflowResult::numUninitDffs() const
{
    size_t n = 0;
    for (Ternary t : resetVal)
        if (t == Ternary::X)
            ++n;
    return n;
}

DataflowResult
analyzeDataflow(const Netlist &nl, const DataflowOptions &opts)
{
    DataflowResult res;
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    std::vector<size_t> order;
    if (!combTopoOrder(nl, order)) {
        res.detail = "combinational cycle: no topological order";
        return res;
    }

    // Base abstraction: rails defined, tied pads defined, everything
    // else (free inputs, undriven nets) starts X.
    std::vector<Ternary> base(num_nets, Ternary::X);
    base[nl.zero()] = Ternary::Zero;
    base[nl.one()] = Ternary::One;
    for (const PadTie &tie : opts.ties) {
        auto it = nl.primaryInputs().find(tie.input);
        if (it == nl.primaryInputs().end()) {
            res.detail =
                strfmt("tie names unknown input '%s'",
                       tie.input.c_str());
            return res;
        }
        base[it->second] = ternaryOf(tie.value);
    }

    auto dffs = nl.dffs();

    // Constant propagation: ascend from the power-on state, joining
    // each DFF's captured next-state into its abstraction. Each
    // iteration degrades at least one DFF toward X or converges, so
    // numDffs()+1 rounds always suffice.
    std::vector<Ternary> q(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i)
        q[i] = ternaryOf(dffs[i].init);
    std::vector<Ternary> vals;
    for (size_t round = 0; round <= dffs.size() + 1; ++round) {
        ++res.constIterations;
        vals = base;
        for (size_t i = 0; i < dffs.size(); ++i)
            vals[dffs[i].q] = q[i];
        evalComb(nl, order, vals);
        bool changed = false;
        for (size_t i = 0; i < dffs.size(); ++i) {
            Ternary d = dffs[i].d != kNoNet && dffs[i].d < num_nets
                ? vals[dffs[i].d] : Ternary::X;
            Ternary next = ternaryJoin(q[i], d);
            if (next != q[i]) {
                q[i] = next;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    res.constVal = vals;

    // X / reset coverage: the same machine iterated from an
    // undefined power-on state. Values only move X -> defined
    // (gates are monotone on the Kleene order), so this is an
    // ascending chain too.
    std::vector<Ternary> xq(dffs.size(), Ternary::X);
    for (size_t round = 0; round <= dffs.size() + 1; ++round) {
        ++res.resetIterations;
        vals = base;
        for (size_t i = 0; i < dffs.size(); ++i)
            vals[dffs[i].q] = xq[i];
        evalComb(nl, order, vals);
        bool changed = false;
        for (size_t i = 0; i < dffs.size(); ++i) {
            Ternary d = dffs[i].d != kNoNet && dffs[i].d < num_nets
                ? vals[dffs[i].d] : Ternary::X;
            if (d != xq[i]) {
                xq[i] = d;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    res.resetVal = std::move(xq);

    // Cone-of-influence liveness from the primary outputs, cut at
    // proven constants: a constant net needs no driver (prune folds
    // it to a rail), so its cone contributes to no observable.
    res.liveCell.assign(cells.size(), 0);
    res.liveNet.assign(num_nets, 0);
    std::vector<size_t> driver(num_nets, kNoCell);
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].output < num_nets)
            driver[cells[i].output] = i;

    std::deque<NetId> work;
    auto visit = [&](NetId net) {
        if (net == kNoNet || net >= num_nets || res.liveNet[net])
            return;
        if (res.constVal[net] != Ternary::X)
            return;
        res.liveNet[net] = 1;
        work.push_back(net);
    };
    for (const auto &[name, net] : nl.primaryOutputs())
        visit(net);
    while (!work.empty()) {
        NetId net = work.front();
        work.pop_front();
        size_t i = driver[net];
        if (i == kNoCell || res.liveCell[i])
            continue;
        res.liveCell[i] = 1;
        for (size_t k = 0; k < realInputs(cells[i]); ++k)
            visit(cells[i].inputs[k]);
    }

    res.ok = true;
    return res;
}

LintReport
dataflowLint(const Netlist &nl, const DataflowOptions &opts)
{
    LintReport rep;
    DataflowResult df = analyzeDataflow(nl, opts);
    if (!df.ok) {
        rep.add(netlistFinding(Severity::Note, "dataflow-skipped",
                               "core", {},
                               strfmt("dataflow analysis skipped: %s",
                                      df.detail.c_str())));
        return rep;
    }

    const auto &cells = nl.cells();
    auto dffs = nl.dffs();

    // dead-gate: cells in no observable cone (and not explained by a
    // constant output, which constant-output reports instead).
    std::map<std::string, std::vector<size_t>> dead;
    for (size_t i = 0; i < cells.size(); ++i)
        if (!df.liveCell[i] &&
            df.constVal[cells[i].output] == Ternary::X)
            dead[cells[i].module].push_back(i);
    for (const auto &[module, idxs] : dead) {
        std::string list;
        std::vector<NetId> nets;
        for (size_t k = 0; k < idxs.size(); ++k) {
            if (k < 6)
                list += (k ? ", " : "") + cellDesc(nl, idxs[k]);
            nets.push_back(cells[idxs[k]].output);
        }
        if (idxs.size() > 6)
            list += ", ...";
        rep.add(netlistFinding(
            Severity::Warning, "dead-gate", module, nets,
            strfmt("%zu cell(s) in no observable cone (dataflow "
                   "reachability): %s",
                   idxs.size(), list.c_str())));
    }

    // constant-output: cell outputs with a proven constant value in
    // every reachable state (sequential-aware, unlike const-output).
    std::map<std::string, std::vector<size_t>> constant;
    for (size_t i = 0; i < cells.size(); ++i)
        if (df.constVal[cells[i].output] != Ternary::X)
            constant[cells[i].module].push_back(i);
    for (const auto &[module, idxs] : constant) {
        std::string list;
        std::vector<NetId> nets;
        for (size_t k = 0; k < idxs.size(); ++k) {
            NetId out = cells[idxs[k]].output;
            if (k < 6)
                list += strfmt("%s%s=%s", k ? ", " : "",
                               nl.netName(out).c_str(),
                               ternaryName(df.constVal[out]));
            nets.push_back(out);
        }
        if (idxs.size() > 6)
            list += ", ...";
        rep.add(netlistFinding(
            Severity::Warning, "constant-output", module, nets,
            strfmt("%zu cell output(s) provably constant in "
                   "every reachable state: %s",
                   idxs.size(), list.c_str())));
    }

    // x-after-reset: state bits never re-initialized by the logic.
    std::map<std::string, std::vector<size_t>> uninit;
    for (size_t i = 0; i < dffs.size(); ++i)
        if (df.resetVal[i] == Ternary::X)
            uninit[cells[dffs[i].cell].module].push_back(i);
    for (const auto &[module, idxs] : uninit) {
        std::string list;
        std::vector<NetId> nets;
        for (size_t k = 0; k < idxs.size(); ++k) {
            if (k < 6)
                list += (k ? ", " : "") +
                        nl.netName(dffs[idxs[k]].q);
            nets.push_back(dffs[idxs[k]].q);
        }
        if (idxs.size() > 6)
            list += ", ...";
        rep.add(netlistFinding(
            Severity::Warning, "x-after-reset", module, nets,
            strfmt("%zu state bit(s) rely on the power-on "
                   "value (X-pessimistic simulation from an "
                   "undefined start never re-initializes "
                   "them): %s",
                   idxs.size(), list.c_str())));
    }

    rep.resolveNetNames(nl);
    return rep;
}

} // namespace flexi
