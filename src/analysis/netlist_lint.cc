#include "netlist_lint.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"
#include "tech/cell_library.hh"

namespace flexi
{

namespace
{

std::string
cellDesc(const Netlist &nl, size_t i)
{
    const CellInst &cell = nl.cells()[i];
    return strfmt("%s #%zu @%s (%s)", cellInfo(cell.type).name, i,
                  cell.module.c_str(),
                  nl.netName(cell.output).c_str());
}

/** Number of meaningful inputs (the DFF clock slot is implicit). */
size_t
realInputs(const CellInst &cell)
{
    return isSequential(cell.type) ? 1 : cell.inputs.size();
}

void
checkConnectivity(const Netlist &nl, LintReport &rep)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    std::vector<std::vector<size_t>> drivers(num_nets);
    for (size_t i = 0; i < cells.size(); ++i) {
        NetId out = cells[i].output;
        if (out != kNoNet && out < num_nets)
            drivers[out].push_back(i);
    }

    for (size_t i = 0; i < cells.size(); ++i) {
        for (size_t k = 0; k < realInputs(cells[i]); ++k) {
            if (cells[i].inputs[k] == kNoNet) {
                rep.add(netlistFinding(
                    Severity::Error, "unconnected-input",
                    cells[i].module, {},
                    strfmt("input %zu of %s is unconnected", k,
                           cellDesc(nl, i).c_str())));
            }
        }
    }

    // A cell output shorted onto another driver, a primary input,
    // or a constant rail.
    for (NetId net = 0; net < num_nets; ++net) {
        bool is_const = net == nl.zero() || net == nl.one();
        bool is_input = false;
        for (const auto &[name, n] : nl.primaryInputs())
            is_input |= n == net;
        size_t total = drivers[net].size() +
                       (is_const ? 1 : 0) + (is_input ? 1 : 0);
        if (total <= 1)
            continue;
        std::string who;
        for (size_t i : drivers[net])
            who += (who.empty() ? "" : ", ") + cellDesc(nl, i);
        if (is_input)
            who += ", primary input";
        if (is_const)
            who += ", constant rail";
        rep.add(netlistFinding(
            Severity::Error, "multiple-drivers",
            drivers[net].empty()
                ? std::string()
                : cells[drivers[net].front()].module,
            {net},
            strfmt("net %s has %zu drivers: %s",
                   nl.netName(net).c_str(), total, who.c_str())));
    }

    for (NetId net : nl.undrivenNets()) {
        std::string consumers;
        std::string module;
        for (size_t i = 0; i < cells.size(); ++i) {
            for (size_t k = 0; k < realInputs(cells[i]); ++k) {
                if (cells[i].inputs[k] != net)
                    continue;
                consumers += (consumers.empty() ? "" : ", ") +
                             cellDesc(nl, i);
                if (module.empty())
                    module = cells[i].module;
            }
        }
        for (const auto &[name, n] : nl.primaryOutputs())
            if (n == net)
                consumers += (consumers.empty() ? "" : ", ") +
                             ("output '" + name + "'");
        rep.add(netlistFinding(
            Severity::Error, "undriven-net", module, {net},
            strfmt("net %s is consumed by %s but never driven",
                   nl.netName(net).c_str(), consumers.c_str())));
    }
}

void
checkCombLoop(const Netlist &nl, LintReport &rep)
{
    std::vector<size_t> cycle = nl.findCombCycle();
    if (cycle.empty())
        return;
    std::string path;
    std::vector<NetId> nets;
    for (size_t i : cycle) {
        path += cellDesc(nl, i) + " -> ";
        nets.push_back(nl.cells()[i].output);
    }
    path += cellDesc(nl, cycle.front());
    rep.add(netlistFinding(Severity::Error, "comb-loop",
                           nl.cells()[cycle.front()].module, nets,
                           "combinational loop: " + path));
}

void
checkFanout(const Netlist &nl, LintReport &rep)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    std::vector<unsigned> loads(num_nets, 0);
    for (const auto &cell : cells)
        for (size_t k = 0; k < realInputs(cell); ++k)
            if (cell.inputs[k] != kNoNet &&
                cell.inputs[k] < num_nets)
                ++loads[cell.inputs[k]];
    // Each primary output is one pad load on its net.
    for (const auto &[name, net] : nl.primaryOutputs())
        if (net < num_nets)
            ++loads[net];

    std::vector<int64_t> driver(num_nets, -1);
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].output < num_nets)
            driver[cells[i].output] = static_cast<int64_t>(i);

    for (NetId net = 0; net < num_nets; ++net) {
        if (net == nl.zero() || net == nl.one())
            continue;   // tie rails, not a single cell's pull-up
        unsigned limit = 0;
        std::string module;
        std::string drv;
        if (driver[net] >= 0) {
            auto i = static_cast<size_t>(driver[net]);
            limit = cellInfo(cells[i].type).maxFanout;
            module = cells[i].module;
            drv = cellDesc(nl, i);
        } else {
            bool is_input = false;
            for (const auto &[name, n] : nl.primaryInputs())
                is_input |= n == net;
            if (!is_input)
                continue;   // undriven net: reported elsewhere
            limit = kPadMaxFanout;
            drv = "input pad '" + nl.netName(net) + "'";
        }
        if (loads[net] > limit)
            rep.add(netlistFinding(
                Severity::Error, "fanout-limit", module, {net},
                strfmt("%s drives %u loads, limit %u",
                       drv.c_str(), loads[net], limit)));
    }
}

void
checkDeadLogic(const Netlist &nl, LintReport &rep)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    std::vector<std::vector<size_t>> drivers(num_nets);
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].output < num_nets)
            drivers[cells[i].output].push_back(i);

    // Backward closure from the primary outputs: a cell is live iff
    // its output (transitively) reaches a primary output. DFFs
    // propagate liveness from Q to D.
    std::vector<bool> live_net(num_nets, false);
    std::vector<bool> live_cell(cells.size(), false);
    std::deque<NetId> work;
    for (const auto &[name, net] : nl.primaryOutputs()) {
        if (net < num_nets && !live_net[net]) {
            live_net[net] = true;
            work.push_back(net);
        }
    }
    while (!work.empty()) {
        NetId net = work.front();
        work.pop_front();
        for (size_t i : drivers[net]) {
            if (live_cell[i])
                continue;
            live_cell[i] = true;
            for (size_t k = 0; k < realInputs(cells[i]); ++k) {
                NetId in = cells[i].inputs[k];
                if (in != kNoNet && in < num_nets && !live_net[in]) {
                    live_net[in] = true;
                    work.push_back(in);
                }
            }
        }
    }

    // Aggregate per module so a dead subsystem is one finding, not
    // hundreds.
    std::map<std::string, std::vector<size_t>> dead;
    for (size_t i = 0; i < cells.size(); ++i)
        if (!live_cell[i])
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
            Severity::Warning, "dead-logic", module, nets,
            strfmt("%zu cell(s) reach no primary output: %s",
                   idxs.size(), list.c_str())));
    }
}

void
checkConstOutputs(const Netlist &nl, LintReport &rep)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    // Forward constant propagation from the const rails; -1 means
    // not statically constant. Dominant inputs (a 0 on a NAND, a 1
    // on a NOR, a constant MUX select) fold without the other
    // inputs being known.
    std::vector<int8_t> val(num_nets, -1);
    val[nl.zero()] = 0;
    val[nl.one()] = 1;

    auto fold = [&](const CellInst &cell) -> int8_t {
        auto in = [&](size_t k) -> int8_t {
            NetId n = cell.inputs[k];
            return n == kNoNet || n >= num_nets ? -1 : val[n];
        };
        switch (cell.type) {
          case CellType::INV_X1:
          case CellType::INV_X2:
            return in(0) < 0 ? -1 : !in(0);
          case CellType::BUF_X1:
          case CellType::BUF_X2:
            return in(0);
          case CellType::NAND2:
            if (in(0) == 0 || in(1) == 0)
                return 1;
            return in(0) < 0 || in(1) < 0 ? -1 : !(in(0) && in(1));
          case CellType::NAND3:
            if (in(0) == 0 || in(1) == 0 || in(2) == 0)
                return 1;
            return in(0) < 0 || in(1) < 0 || in(2) < 0
                ? -1 : !(in(0) && in(1) && in(2));
          case CellType::NOR2:
            if (in(0) == 1 || in(1) == 1)
                return 0;
            return in(0) < 0 || in(1) < 0 ? -1 : !(in(0) || in(1));
          case CellType::NOR3:
            if (in(0) == 1 || in(1) == 1 || in(2) == 1)
                return 0;
            return in(0) < 0 || in(1) < 0 || in(2) < 0
                ? -1 : !(in(0) || in(1) || in(2));
          case CellType::XOR2:
            return in(0) < 0 || in(1) < 0 ? -1 : in(0) != in(1);
          case CellType::XNOR2:
            return in(0) < 0 || in(1) < 0 ? -1 : in(0) == in(1);
          case CellType::MUX2:
            if (in(2) >= 0)
                return in(2) ? in(1) : in(0);
            if (in(0) >= 0 && in(0) == in(1))
                return in(0);
            return -1;
          default:
            return -1;   // sequential: state is not a constant
        }
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (const auto &cell : cells) {
            if (isSequential(cell.type) || cell.output >= num_nets ||
                val[cell.output] >= 0)
                continue;
            int8_t v = fold(cell);
            if (v >= 0) {
                val[cell.output] = v;
                changed = true;
            }
        }
    }

    for (size_t i = 0; i < cells.size(); ++i) {
        if (isSequential(cells[i].type) ||
            cells[i].output >= num_nets)
            continue;
        int8_t v = val[cells[i].output];
        if (v >= 0)
            rep.add(netlistFinding(
                Severity::Warning, "const-output", cells[i].module,
                {cells[i].output},
                strfmt("%s always outputs %d; fold it away",
                       cellDesc(nl, i).c_str(), v)));
    }
}

} // namespace

LintReport
lintNetlist(const Netlist &nl)
{
    LintReport rep;
    checkConnectivity(nl, rep);
    checkCombLoop(nl, rep);
    checkFanout(nl, rep);
    checkDeadLogic(nl, rep);
    checkConstOutputs(nl, rep);
    rep.resolveNetNames(nl);
    return rep;
}

} // namespace flexi
