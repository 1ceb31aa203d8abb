#include "timing.hh"

#include <algorithm>

#include "common/logging.hh"
#include "tech/cell_library.hh"

namespace flexi
{

namespace
{

/** One timed (or floating) endpoint candidate before ranking. */
struct Endpoint
{
    EndpointKind kind;
    double arrival;       ///< total path delay in units
    NetId net;            ///< the last combinational net of the path
    std::string endName;
    std::string module;
    double captureDelay;  ///< DFF capture contribution, 0 otherwise
    NetId captureNet;     ///< the DFF Q net, kNoNet otherwise
};

} // namespace

const char *
endpointKindName(EndpointKind kind)
{
    switch (kind) {
      case EndpointKind::DffSetup: return "dff-setup";
      case EndpointKind::PrimaryOutput: return "primary-output";
      case EndpointKind::Floating: return "floating";
    }
    panic("endpointKindName: bad EndpointKind");
}

std::string
TimingPath::text() const
{
    std::string out = startName;
    for (const TimingStep &s : steps)
        out += " -> " + s.name;
    out += strfmt(" (%.2f units via %zu cells, %s endpoint)",
                  delayUnits, steps.size(),
                  endpointKindName(endpoint));
    return out;
}

TimingReport
analyzeTiming(const Netlist &nl, unsigned top_k)
{
    const auto &cells = nl.cells();
    size_t num_nets = nl.numNets();

    // Longest-arrival DP in plan (topological) order — the same
    // traversal and arithmetic as criticalPathDelayUnits(), plus a
    // predecessor per net for path reconstruction.
    std::vector<double> arrival(num_nets, 0.0);
    std::vector<int64_t> driver(num_nets, -1);
    std::vector<NetId> pred(num_nets, kNoNet);
    for (const auto &step : nl.planSteps()) {
        const CellInst &cell = cells[step.cell];
        double in_max = 0.0;
        NetId in_pred = kNoNet;
        for (NetId in : cell.inputs) {
            if (in == kNoNet)
                continue;
            if (in_pred == kNoNet || arrival[in] > in_max)
                in_pred = in;
            in_max = std::max(in_max, arrival[in]);
        }
        double t = in_max + cellInfo(cell.type).delayUnits;
        arrival[step.out] = t;
        driver[step.out] = static_cast<int64_t>(step.cell);
        pred[step.out] = in_pred;
    }

    // Which nets anything consumes (a DFF consumes only its D).
    std::vector<bool> consumed(num_nets, false);
    for (const CellInst &cell : cells) {
        size_t real = isSequential(cell.type) ? 1 : cell.inputs.size();
        for (size_t k = 0; k < real && k < cell.inputs.size(); ++k)
            if (cell.inputs[k] != kNoNet)
                consumed[cell.inputs[k]] = true;
    }
    for (const auto &[name, net] : nl.primaryOutputs())
        if (net < num_nets)
            consumed[net] = true;

    std::vector<Endpoint> ends;
    for (const auto &dff : nl.dffs()) {
        const CellInst &cell = cells[dff.cell];
        ends.push_back({EndpointKind::DffSetup,
                        arrival[dff.d] +
                            cellInfo(cell.type).delayUnits,
                        dff.d, nl.netName(dff.q), cell.module,
                        cellInfo(cell.type).delayUnits, dff.q});
    }
    for (const auto &[name, net] : nl.primaryOutputs()) {
        if (net >= num_nets)
            continue;
        std::string module =
            driver[net] >= 0
                ? cells[static_cast<size_t>(driver[net])].module
                : std::string();
        ends.push_back({EndpointKind::PrimaryOutput, arrival[net],
                        net, name, module, 0.0, kNoNet});
    }
    for (const auto &step : nl.planSteps()) {
        if (consumed[step.out])
            continue;
        ends.push_back({EndpointKind::Floating, arrival[step.out],
                        step.out, nl.netName(step.out),
                        cells[step.cell].module, 0.0, kNoNet});
    }

    std::stable_sort(ends.begin(), ends.end(),
                     [](const Endpoint &a, const Endpoint &b) {
                         if (a.arrival != b.arrival)
                             return a.arrival > b.arrival;
                         return a.endName < b.endName;
                     });
    if (ends.size() > top_k)
        ends.resize(top_k);

    TimingReport report;
    report.netlist = nl.name();
    for (const Endpoint &end : ends) {
        TimingPath path;
        path.delayUnits = end.arrival;
        path.endpoint = end.kind;
        path.endName = end.endName;

        // Walk the worst-arrival predecessors back to a source.
        std::vector<TimingStep> rev;
        NetId cur = end.net;
        path.startName = nl.netName(cur);
        while (cur != kNoNet && cur < num_nets && driver[cur] >= 0) {
            auto ci = static_cast<size_t>(driver[cur]);
            rev.push_back({cur, nl.netName(cur), cells[ci].module,
                           cellInfo(cells[ci].type).delayUnits,
                           arrival[cur]});
            NetId next = pred[cur];
            if (next == kNoNet) {
                path.startName = rev.back().name;
                cur = kNoNet;
                break;
            }
            cur = next;
        }
        if (cur != kNoNet)
            path.startName = nl.netName(cur);
        std::reverse(rev.begin(), rev.end());
        path.steps = std::move(rev);
        if (end.kind == EndpointKind::DffSetup)
            path.steps.push_back({end.captureNet,
                                  nl.netName(end.captureNet),
                                  end.module, end.captureDelay,
                                  end.arrival});
        report.paths.push_back(std::move(path));
    }
    return report;
}

LintReport
timingLint(const Netlist &nl, const Technology &tech, double vdd,
           unsigned top_k, double clock_hz)
{
    LintReport rep;
    TimingReport tr = analyzeTiming(nl, top_k);
    double period = 1.0 / clock_hz;
    double tau = tech.unitDelay(vdd);

    for (const TimingPath &path : tr.paths) {
        std::vector<NetId> nets;
        for (const TimingStep &s : path.steps)
            nets.push_back(s.net);
        std::string module =
            path.steps.empty() ? std::string()
                               : path.steps.back().module;

        if (path.endpoint == EndpointKind::Floating) {
            rep.add(netlistFinding(
                Severity::Warning, "unconstrained-path", module, nets,
                strfmt("sinkless cone '%s' (%.2f units) has no "
                       "timed endpoint; no clock constraint "
                       "checks it",
                       path.endName.c_str(), path.delayUnits)));
            continue;
        }

        double delay_s = path.delayUnits * tau;
        double slack_s = period - delay_s;
        std::string msg = strfmt(
            "%s -> %s: %.2f units x %.3f us = %.1f us at %.2f V; "
            "slack %+.1f us against the %.1f us clock period",
            path.startName.c_str(), path.endName.c_str(),
            path.delayUnits, tau * 1e6, delay_s * 1e6, vdd,
            slack_s * 1e6, period * 1e6);
        if (slack_s < 0.0)
            rep.add(netlistFinding(Severity::Error, "timing-violation",
                                   module, nets,
                                   msg + "; path: " + path.text()));
        else
            rep.add(netlistFinding(Severity::Note, "critical-path",
                                   module, nets, msg));
    }
    rep.resolveNetNames(nl);
    return rep;
}

} // namespace flexi
