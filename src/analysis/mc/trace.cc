/**
 * @file
 * Counterexample trace rendering and simulator replay.
 *
 * A trace leaving the solver is only as trustworthy as the encoding
 * it came from, so every BMC counterexample is replayed before it is
 * reported: the cell-by-cell reference interpreter
 * (evaluateReference(), independent of both the CNF encoding and the
 * compiled engine) must reproduce the recorded state evolution cycle
 * by cycle and the concrete property violation at the recorded step.
 */

#include <map>

#include "analysis/equiv.hh"
#include "analysis/mc/bmc.hh"
#include "common/logging.hh"

namespace flexi
{

namespace
{

/** VCD identifier for signal @p n: printable chars, base 94. */
std::string
vcdId(size_t n)
{
    std::string id;
    do {
        id += static_cast<char>('!' + n % 94);
        n /= 94;
    } while (n);
    return id;
}

bool
failReplay(std::string *what, const std::string &why)
{
    if (what)
        *what = why;
    return false;
}

/**
 * The per-frame samples a concrete replay feeds
 * propertyHoldsConcrete(): the packed PC pads and the property's
 * own observable (assert net / bound bus).
 */
struct ReplayProbe
{
    std::vector<NetId> pc;
    NetId net = kNoNet;
    std::vector<NetId> bus;

    ReplayProbe(const Netlist &nl, const McProperty &p)
    {
        pc = resolvePadBus(nl, "pc", kPcBits, false);
        if (p.kind == McProperty::Kind::NetAssert)
            net = nl.findNet(p.net);
        else if (p.kind == McProperty::Kind::BusBound)
            bus = resolvePadBus(nl, p.bus, p.width, false);
    }
};

template <typename F>
unsigned
packNets(const std::vector<NetId> &nets, F value)
{
    unsigned v = 0;
    for (size_t i = 0; i < nets.size(); ++i)
        v |= value(nets[i]) ? 1u << i : 0;
    return v;
}

} // namespace

std::string
McTrace::text() const
{
    std::string s;
    for (size_t t = 0; t < frames.size(); ++t) {
        s += strfmt("cycle %zu: %s", t,
                    packedAssignmentText(frames[t].state).c_str());
        if (!frames[t].inputs.empty())
            s += strfmt(" | in %s",
                        packedAssignmentText(frames[t].inputs)
                            .c_str());
        s += "\n";
    }
    s += strfmt("-> '%s' violated at cycle %u", property.c_str(),
                violationStep);
    return s;
}

std::string
McTrace::vcd() const
{
    std::string s = "$timescale 1ns $end\n$scope module mc $end\n";
    std::vector<std::pair<std::string, std::string>> sigs;
    if (!frames.empty()) {
        size_t n = 0;
        for (const auto &kv : frames[0].inputs)
            sigs.emplace_back(kv.first, vcdId(n++));
        for (const auto &kv : frames[0].state)
            sigs.emplace_back(kv.first, vcdId(n++));
    }
    for (const auto &sig : sigs)
        s += strfmt("$var wire 1 %s %s $end\n", sig.second.c_str(),
                    sig.first.c_str());
    s += "$upscope $end\n$enddefinitions $end\n";

    std::vector<int> last(sigs.size(), -1);
    for (size_t t = 0; t < frames.size(); ++t) {
        s += strfmt("#%zu\n", t);
        size_t n = 0;
        auto emit = [&](bool v) {
            if (last[n] != static_cast<int>(v)) {
                s += strfmt("%c%s\n", v ? '1' : '0',
                            sigs[n].second.c_str());
                last[n] = v;
            }
            ++n;
        };
        for (const auto &kv : frames[t].inputs)
            emit(kv.second);
        for (const auto &kv : frames[t].state)
            emit(kv.second);
    }
    s += strfmt("#%zu\n", frames.size());
    return s;
}

bool
replayMcTrace(const Netlist &nl, const McProperty &p,
              const McTrace &trace, std::string *what)
{
    if (trace.frames.empty() ||
        trace.violationStep + p.window() > trace.frames.size())
        return failReplay(what, "trace too short for the property");

    auto dffs = nl.dffs();
    std::map<std::string, size_t> dff_index;
    for (size_t i = 0; i < dffs.size(); ++i)
        dff_index[nl.netName(dffs[i].q)] = i;

    std::vector<uint8_t> state(dffs.size(), 0);
    for (const auto &kv : trace.frames[0].state) {
        auto it = dff_index.find(kv.first);
        if (it == dff_index.end())
            return failReplay(what, strfmt("trace names unknown "
                                           "state bit '%s'",
                                           kv.first.c_str()));
        state[it->second] = kv.second;
    }

    auto sim = nl.clone();
    sim->restoreDffState(state);

    ReplayProbe probe(nl, p);
    std::vector<unsigned> pcs, bits;
    for (size_t t = 0; t < trace.frames.size(); ++t) {
        for (const auto &kv : trace.frames[t].inputs)
            sim->setInput(kv.first, kv.second);
        sim->evaluateReference();
        for (const auto &kv : trace.frames[t].state)
            if (sim->dffValue(dff_index[kv.first]) != kv.second)
                return failReplay(
                    what, strfmt("state diverges from the trace at "
                                 "cycle %zu on %s",
                                 t, kv.first.c_str()));
        auto net_of = [&](NetId n) { return sim->netValue(n); };
        pcs.push_back(packNets(probe.pc, net_of));
        bits.push_back(probe.net != kNoNet
                           ? sim->netValue(probe.net)
                           : packNets(probe.bus, net_of));
        if (t + 1 < trace.frames.size())
            sim->clockEdge();
    }

    if (propertyHoldsConcrete(p, pcs, bits, trace.violationStep))
        return failReplay(what, strfmt("simulator says '%s' holds "
                                       "at cycle %u",
                                       p.spec.c_str(),
                                       trace.violationStep));
    return true;
}

} // namespace flexi
