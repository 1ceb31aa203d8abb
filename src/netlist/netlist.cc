#include "netlist.hh"

#include <algorithm>
#include <queue>

#include "common/logging.hh"
#include "netlist/lane_group.hh"

namespace flexi
{

namespace
{

/** Cell semantics as an 8-bit truth table over (in0, in1, in2). */
bool
combValue(CellType type, bool a, bool b, bool c)
{
    switch (type) {
      case CellType::INV_X1:
      case CellType::INV_X2:
        return !a;
      case CellType::BUF_X1:
      case CellType::BUF_X2:
        return a;
      case CellType::NAND2:
        return !(a && b);
      case CellType::NAND3:
        return !(a && b && c);
      case CellType::NOR2:
        return !(a || b);
      case CellType::NOR3:
        return !(a || b || c);
      case CellType::XOR2:
        return a != b;
      case CellType::XNOR2:
        return a == b;
      case CellType::MUX2:
        // inputs: {a, b, sel} -> sel ? b : a
        return c ? b : a;
      default:
        panic("combValue: unexpected cell type");
    }
}

uint8_t
lutFor(CellType type)
{
    uint8_t lut = 0;
    for (unsigned idx = 0; idx < 8; ++idx) {
        if (combValue(type, idx & 1, idx & 2, idx & 4))
            lut |= static_cast<uint8_t>(1u << idx);
    }
    return lut;
}

/**
 * Lane 0 of the one-word engine state the reference interpreter
 * walks: bit 0 of a net's value word or a DFF's state word.
 */
bool
lane0(uint64_t word)
{
    return word & 1;
}

void
setLane0(uint64_t &word, bool v)
{
    word = (word & ~uint64_t(1)) | uint64_t(v);
}

} // namespace

uint8_t
cellTruthTable(CellType type)
{
    if (isSequential(type))
        panic("cellTruthTable: sequential cell has no truth table");
    return lutFor(type);
}

namespace
{

/** Word-parallel opcode matching the cell's boolean function. */
WordOp
wordOpFor(CellType type)
{
    switch (type) {
      case CellType::INV_X1:
      case CellType::INV_X2:
        return WordOp::Inv;
      case CellType::BUF_X1:
      case CellType::BUF_X2:
        return WordOp::Buf;
      case CellType::NAND2:
        return WordOp::Nand2;
      case CellType::NAND3:
        return WordOp::Nand3;
      case CellType::NOR2:
        return WordOp::Nor2;
      case CellType::NOR3:
        return WordOp::Nor3;
      case CellType::XOR2:
        return WordOp::Xor2;
      case CellType::XNOR2:
        return WordOp::Xnor2;
      case CellType::MUX2:
        return WordOp::Mux2;
      default:
        return WordOp::Lut;
    }
}

} // namespace

Netlist::Netlist(std::string name)
    : s_(std::make_shared<Structure>())
{
    s_->name = std::move(name);
    s_->zero = newNet();
    s_->one = newNet();
}

Netlist::Netlist(const Netlist &other, bool)
    : s_(other.s_), elaborated_(other.elaborated_),
      engine_(std::make_unique<LaneGroup>(*other.engine_)),
      faults_(other.faults_), transients_(other.transients_),
      referenceEdge_(other.referenceEdge_)
{
}

Netlist::Netlist(Netlist &&) noexcept = default;
Netlist &Netlist::operator=(Netlist &&) noexcept = default;
Netlist::~Netlist() = default;

std::unique_ptr<Netlist>
Netlist::clone() const
{
    checkElaborated(true);
    return std::unique_ptr<Netlist>(new Netlist(*this, true));
}

const std::string &
Netlist::name() const
{
    return s_->name;
}

NetId
Netlist::zero() const
{
    return s_->zero;
}

NetId
Netlist::one() const
{
    return s_->one;
}

size_t
Netlist::numCells() const
{
    return s_->cells.size();
}

size_t
Netlist::numNets() const
{
    return s_->nextNet;
}

const std::map<std::string, NetId> &
Netlist::primaryInputs() const
{
    return s_->inputs;
}

const std::map<std::string, NetId> &
Netlist::primaryOutputs() const
{
    return s_->outputs;
}

const std::vector<CellInst> &
Netlist::cells() const
{
    return s_->cells;
}

NetId
Netlist::newNet()
{
    return s_->nextNet++;
}

NetId
Netlist::addInput(const std::string &name)
{
    checkElaborated(false);
    auto [it, inserted] = s_->inputs.emplace(name, kNoNet);
    if (!inserted)
        panic("duplicate input '%s'", name.c_str());
    it->second = newNet();
    return it->second;
}

void
Netlist::addOutput(const std::string &name, NetId net)
{
    checkElaborated(false);
    if (!s_->outputs.emplace(name, net).second)
        panic("duplicate output '%s'", name.c_str());
}

NetId
Netlist::addCell(CellType type, const std::vector<NetId> &inputs,
                 const std::string &module)
{
    checkElaborated(false);
    if (isSequential(type))
        panic("use addDff for sequential cells");
    const CellInfo &info = cellInfo(type);
    if (inputs.size() != info.numInputs)
        panic("%s expects %u inputs, got %zu", info.name,
              info.numInputs, inputs.size());
    CellInst cell;
    cell.type = type;
    cell.inputs = inputs;
    cell.output = newNet();
    cell.module = module;
    s_->cells.push_back(std::move(cell));
    return s_->cells.back().output;
}

NetId
Netlist::addDff(NetId d, const std::string &module, bool init, bool x2)
{
    checkElaborated(false);
    CellInst cell;
    cell.type = x2 ? CellType::DFF_X2 : CellType::DFF_X1;
    cell.inputs = {d, kNoNet};   // D, (implicit clock slot)
    cell.output = newNet();
    cell.module = module;
    s_->cells.push_back(std::move(cell));
    s_->dffCells.push_back(s_->cells.size() - 1);
    s_->dffInit.push_back(init);
    return s_->cells.back().output;
}

void
Netlist::setDffInput(NetId q, NetId d)
{
    checkElaborated(false);
    for (size_t idx : s_->dffCells) {
        if (s_->cells[idx].output == q) {
            s_->cells[idx].inputs[0] = d;
            return;
        }
    }
    panic("setDffInput: net %u is not a DFF output", q);
}

void
Netlist::rewireCellInput(size_t cell, size_t input, NetId net)
{
    checkElaborated(false);
    if (cell >= s_->cells.size())
        panic("rewireCellInput: bad cell %zu", cell);
    if (input >= s_->cells[cell].inputs.size())
        panic("rewireCellInput: cell %zu has no input %zu", cell,
              input);
    if (net != kNoNet && net >= s_->nextNet)
        panic("rewireCellInput: bad net %u", net);
    s_->cells[cell].inputs[input] = net;
}

void
Netlist::rewireCellOutput(size_t cell, NetId net)
{
    checkElaborated(false);
    if (cell >= s_->cells.size())
        panic("rewireCellOutput: bad cell %zu", cell);
    if (net >= s_->nextNet)
        panic("rewireCellOutput: bad net %u", net);
    s_->cells[cell].output = net;
}

void
Netlist::nameNet(NetId net, const std::string &name)
{
    checkElaborated(false);
    if (net >= s_->nextNet)
        panic("nameNet: bad net %u", net);
    auto [it, inserted] = s_->labelToNet.emplace(name, net);
    if (!inserted)
        panic("duplicate net label '%s'", name.c_str());
    if (!s_->netLabels.emplace(net, name).second)
        panic("net %u already labeled '%s'", net,
              s_->netLabels.at(net).c_str());
}

NetId
Netlist::findNet(const std::string &name) const
{
    if (auto it = s_->labelToNet.find(name);
        it != s_->labelToNet.end())
        return it->second;
    if (auto it = s_->inputs.find(name); it != s_->inputs.end())
        return it->second;
    if (auto it = s_->outputs.find(name); it != s_->outputs.end())
        return it->second;
    return kNoNet;
}

std::string
Netlist::netName(NetId net) const
{
    if (net == kNoNet)
        return "<unconnected>";
    if (net == s_->zero)
        return "const0";
    if (net == s_->one)
        return "const1";
    for (const auto &[name, n] : s_->inputs)
        if (n == net)
            return name;
    for (const auto &[name, n] : s_->outputs)
        if (n == net)
            return name;
    if (auto it = s_->netLabels.find(net); it != s_->netLabels.end())
        return it->second;
    return strfmt("n%u", net);
}

std::vector<Netlist::PlanStep>
Netlist::planSteps() const
{
    checkElaborated(true);
    const EvalPlan &plan = s_->plan;
    std::vector<PlanStep> steps(plan.out.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        steps[i].in = {plan.in[3 * i], plan.in[3 * i + 1],
                       plan.in[3 * i + 2]};
        steps[i].out = plan.out[i];
        steps[i].lut = plan.lut[i];
        steps[i].cell = plan.cell[i];
    }
    return steps;
}

std::vector<Netlist::PlanRun>
Netlist::planRuns() const
{
    checkElaborated(true);
    const EvalPlan &plan = s_->plan;
    std::vector<PlanRun> runs(plan.runOp.size());
    for (size_t r = 0; r < runs.size(); ++r) {
        runs[r].begin = plan.runBegin[r];
        runs[r].end = plan.runBegin[r + 1];
        runs[r].op = static_cast<WordOp>(plan.runOp[r]);
    }
    return runs;
}

NetId
Netlist::scratchNet() const
{
    return s_->nextNet;
}

std::vector<Netlist::DffInfo>
Netlist::dffs() const
{
    std::vector<DffInfo> out(s_->dffCells.size());
    for (size_t i = 0; i < out.size(); ++i) {
        size_t idx = s_->dffCells[i];
        out[i].d = s_->cells[idx].inputs[0];
        out[i].q = s_->cells[idx].output;
        out[i].cell = static_cast<uint32_t>(idx);
        out[i].init = s_->dffInit[i] != 0;
    }
    return out;
}

std::vector<NetId>
Netlist::undrivenNets() const
{
    std::vector<bool> driven(s_->nextNet, false);
    driven[s_->zero] = driven[s_->one] = true;
    for (const auto &[name, net] : s_->inputs)
        driven[net] = true;
    for (const auto &cell : s_->cells)
        if (cell.output != kNoNet && cell.output < s_->nextNet)
            driven[cell.output] = true;

    std::vector<bool> seen(s_->nextNet, false);
    std::vector<NetId> undriven;
    auto note = [&](NetId in) {
        if (in == kNoNet || in >= s_->nextNet)
            return;
        if (!driven[in] && !seen[in]) {
            seen[in] = true;
            undriven.push_back(in);
        }
    };
    for (const auto &cell : s_->cells) {
        // inputs[1] of a DFF is the implicit clock slot.
        size_t nin = isSequential(cell.type) ? 1 : cell.inputs.size();
        for (size_t k = 0; k < nin; ++k)
            note(cell.inputs[k]);
    }
    for (const auto &[name, net] : s_->outputs)
        note(net);
    return undriven;
}

std::vector<size_t>
Netlist::findCombCycle() const
{
    const auto &cells = s_->cells;
    // Producer cell for each net; DFF Q outputs are cycle breakers
    // (state, not combinational flow), so only comb cells count.
    std::vector<int64_t> producer(s_->nextNet, -1);
    for (size_t i = 0; i < cells.size(); ++i)
        if (!isSequential(cells[i].type) &&
            cells[i].output != kNoNet && cells[i].output < s_->nextNet)
            producer[cells[i].output] = static_cast<int64_t>(i);

    // Iterative DFS over consumer -> producer edges.
    // color: 0 = unvisited, 1 = on stack, 2 = done.
    std::vector<uint8_t> color(cells.size(), 0);
    for (size_t root = 0; root < cells.size(); ++root) {
        if (color[root] || isSequential(cells[root].type))
            continue;
        std::vector<std::pair<size_t, size_t>> frames;
        std::vector<size_t> path;
        frames.emplace_back(root, 0);
        color[root] = 1;
        path.push_back(root);
        while (!frames.empty()) {
            auto &[c, k] = frames.back();
            if (k < cells[c].inputs.size()) {
                NetId in = cells[c].inputs[k++];
                if (in == kNoNet || in >= s_->nextNet ||
                    producer[in] < 0)
                    continue;
                auto p = static_cast<size_t>(producer[in]);
                if (color[p] == 1) {
                    // Back edge: the cycle is path[p..end], found in
                    // consumer->producer order; reverse it so each
                    // cell's output feeds the next one in the list.
                    auto it = std::find(path.begin(), path.end(), p);
                    std::vector<size_t> cycle(it, path.end());
                    std::reverse(cycle.begin(), cycle.end());
                    return cycle;
                }
                if (color[p] == 0) {
                    color[p] = 1;
                    frames.emplace_back(p, 0);
                    path.push_back(p);
                }
            } else {
                color[c] = 2;
                frames.pop_back();
                path.pop_back();
            }
        }
    }
    return {};
}

void
Netlist::compilePlan()
{
    EvalPlan &plan = s_->plan;
    const auto &cells = s_->cells;
    // Unused input slots point at the scratch net one past the last
    // real net: always 0 and unreachable by injectFault, so a stuck
    // fault on const0/const1 cannot leak into padded truth-table
    // index bits.
    const NetId scratch = s_->nextNet;

    size_t n = s_->evalOrder.size();
    plan.in.assign(3 * n, scratch);
    plan.out.resize(n);
    plan.lut.resize(n);
    plan.wop.resize(n);
    plan.cell.resize(n);
    for (size_t i = 0; i < n; ++i) {
        size_t idx = s_->evalOrder[i];
        const CellInst &cell = cells[idx];
        for (size_t k = 0; k < cell.inputs.size(); ++k)
            plan.in[3 * i + k] = cell.inputs[k];
        plan.out[i] = cell.output;
        plan.lut[i] = lutFor(cell.type);
        plan.wop[i] = static_cast<uint8_t>(wordOpFor(cell.type));
        plan.cell[i] = static_cast<uint32_t>(idx);
    }

    // Fuse adjacent same-op steps into straight-line runs. The
    // word-parallel evaluator dispatches once per run (threaded
    // dispatch) instead of classifying every step; the runs must
    // partition the plan exactly — planRuns() and the formal
    // word-plan encoding both rely on it.
    plan.runBegin.clear();
    plan.runOp.clear();
    for (size_t i = 0; i < n; ++i) {
        if (i == 0 || plan.wop[i] != plan.wop[i - 1]) {
            plan.runBegin.push_back(static_cast<uint32_t>(i));
            plan.runOp.push_back(plan.wop[i]);
        }
    }
    plan.runBegin.push_back(static_cast<uint32_t>(n));

    size_t nd = s_->dffCells.size();
    plan.dffD.resize(nd);
    plan.dffQ.resize(nd);
    plan.dffCell.resize(nd);
    for (size_t i = 0; i < nd; ++i) {
        size_t idx = s_->dffCells[i];
        plan.dffD[i] = cells[idx].inputs[0];
        plan.dffQ[i] = cells[idx].output;
        plan.dffCell[i] = static_cast<uint32_t>(idx);
    }

    plan.netRun.assign(s_->nextNet, EvalPlan::kNone);
    for (size_t r = 0; r < plan.runOp.size(); ++r)
        for (uint32_t s = plan.runBegin[r]; s < plan.runBegin[r + 1]; ++s)
            plan.netRun[plan.out[s]] = static_cast<uint32_t>(r);
    plan.netDff.assign(s_->nextNet, EvalPlan::kNone);
    for (size_t i = 0; i < nd; ++i)
        plan.netDff[plan.dffQ[i]] = static_cast<uint32_t>(i);
}

void
Netlist::elaborate()
{
    checkElaborated(false);
    const auto &cells = s_->cells;

    // Topological sort of combinational cells: a cell is ready once
    // all of its input nets are known (inputs, constants, DFF Q
    // outputs, or outputs of already-ordered cells).
    std::vector<bool> known(s_->nextNet, false);
    known[s_->zero] = known[s_->one] = true;
    for (const auto &[name, net] : s_->inputs)
        known[net] = true;
    for (size_t idx : s_->dffCells)
        known[cells[idx].output] = true;

    // Map net -> consuming comb cells, and count unresolved inputs.
    std::vector<std::vector<size_t>> consumers(s_->nextNet);
    std::vector<unsigned> pendingIn(cells.size(), 0);
    std::queue<size_t> ready;

    for (size_t i = 0; i < cells.size(); ++i) {
        if (isSequential(cells[i].type))
            continue;
        unsigned pending = 0;
        for (NetId in : cells[i].inputs) {
            if (in == kNoNet)
                panic("cell %zu has an unconnected input", i);
            if (!known[in]) {
                consumers[in].push_back(i);
                ++pending;
            }
        }
        pendingIn[i] = pending;
        if (!pending)
            ready.push(i);
    }

    s_->evalOrder.clear();
    while (!ready.empty()) {
        size_t i = ready.front();
        ready.pop();
        s_->evalOrder.push_back(i);
        NetId out = cells[i].output;
        known[out] = true;
        for (size_t c : consumers[out])
            if (--pendingIn[c] == 0)
                ready.push(c);
    }

    size_t comb = 0;
    for (const auto &cell : cells)
        if (!isSequential(cell.type))
            ++comb;
    if (s_->evalOrder.size() != comb) {
        // Name the culprits instead of just counting un-levelized
        // cells: either some nets are driven by nothing (so their
        // consumers never become ready) or there is a real
        // combinational cycle — report the actual path.
        auto cellDesc = [&](size_t i) {
            return strfmt("%s #%zu @%s (%s)",
                          cellInfo(cells[i].type).name, i,
                          cells[i].module.c_str(),
                          netName(cells[i].output).c_str());
        };
        std::vector<NetId> undriven = undrivenNets();
        if (!undriven.empty()) {
            std::string list;
            for (size_t k = 0; k < undriven.size() && k < 8; ++k)
                list += (k ? ", " : "") + netName(undriven[k]);
            if (undriven.size() > 8)
                list += ", ...";
            panic("netlist '%s': %zu net(s) consumed but never "
                  "driven: %s", s_->name.c_str(), undriven.size(),
                  list.c_str());
        }
        std::vector<size_t> cycle = findCombCycle();
        if (!cycle.empty()) {
            std::string path;
            for (size_t i : cycle)
                path += cellDesc(i) + " -> ";
            path += cellDesc(cycle.front());
            panic("netlist '%s' has a combinational loop: %s",
                  s_->name.c_str(), path.c_str());
        }
        panic("netlist '%s' has a combinational loop (%zu of %zu "
              "cells ordered)", s_->name.c_str(),
              s_->evalOrder.size(), comb);
    }

    // Check DFF D inputs are wired.
    for (size_t idx : s_->dffCells)
        if (cells[idx].inputs[0] == kNoNet)
            panic("DFF (net %u) has an unconnected D input",
                  cells[idx].output);

    compilePlan();

    // The instance state: one lane of the compiled engine, built at
    // power-on values.
    elaborated_ = true;
    engine_ = std::make_unique<LaneGroup>(*this, 1);
}

void
Netlist::checkElaborated(bool want) const
{
    if (elaborated_ != want)
        panic("netlist '%s': %s", s_->name.c_str(),
              want ? "not elaborated yet" : "already elaborated");
}

void
Netlist::setInput(const std::string &name, bool value)
{
    checkElaborated(true);
    uint64_t word = value;
    engine_->setInputLanes(name, &word);
}

void
Netlist::setBus(const std::string &prefix, unsigned width,
                unsigned value)
{
    for (unsigned i = 0; i < width; ++i)
        setInput(prefix + std::to_string(i), (value >> i) & 1u);
}

BusHandle
Netlist::inputBus(const std::string &prefix, unsigned width) const
{
    BusHandle handle;
    handle.input_ = true;
    handle.nets_.reserve(width);
    for (unsigned i = 0; i < width; ++i) {
        auto it = s_->inputs.find(prefix + std::to_string(i));
        if (it == s_->inputs.end())
            panic("no input named '%s%u'", prefix.c_str(), i);
        handle.nets_.push_back(it->second);
    }
    return handle;
}

BusHandle
Netlist::outputBus(const std::string &prefix, unsigned width) const
{
    BusHandle handle;
    handle.nets_.reserve(width);
    for (unsigned i = 0; i < width; ++i) {
        auto it = s_->outputs.find(prefix + std::to_string(i));
        if (it == s_->outputs.end())
            panic("no output named '%s%u'", prefix.c_str(), i);
        handle.nets_.push_back(it->second);
    }
    return handle;
}

void
Netlist::setBus(const BusHandle &bus, unsigned value)
{
    checkElaborated(true);
    engine_->setBus(bus, value);
}

unsigned
Netlist::bus(const BusHandle &bus) const
{
    checkElaborated(true);
    return engine_->bus(bus, 0);
}

void
Netlist::evaluate()
{
    checkElaborated(true);
    engine_->evaluate();
    referenceEdge_ = false;
}

std::map<NetId, bool>
Netlist::referenceForces() const
{
    std::map<NetId, bool> forces;
    for (const auto &f : faults_)
        forces[f.net] = f.value;
    uint64_t now = engine_->cycle();
    for (const auto &t : transients_)
        if (now >= t.fromCycle && now < t.untilCycle)
            forces[t.net] = t.value;
    return forces;
}

void
Netlist::evaluateReference()
{
    checkElaborated(true);
    LaneGroup &g = *engine_;
    const std::map<NetId, bool> forces = referenceForces();

    // Forced nets take their value before the pass: a primary input
    // or constant has no producing cell to apply it, and a forced
    // cell output then counts no toggle when its window opens.
    for (const auto &[net, v] : forces)
        setLane0(g.val_[net], v);

    const auto &cells = s_->cells;
    const auto &dffCells = s_->dffCells;
    for (size_t i = 0; i < dffCells.size(); ++i) {
        NetId q = cells[dffCells[i]].output;
        auto f = forces.find(q);
        setLane0(g.val_[q],
                 f != forces.end() ? f->second : lane0(g.dffState_[i]));
    }

    for (size_t idx : s_->evalOrder) {
        const CellInst &cell = cells[idx];
        auto in = [&](size_t k) { return lane0(g.val_[cell.inputs[k]]); };
        bool v = combValue(cell.type, in(0),
                           cell.inputs.size() > 1 && in(1),
                           cell.inputs.size() > 2 && in(2));
        NetId out = cell.output;
        if (auto f = forces.find(out); f != forces.end())
            v = f->second;
        if (g.countToggles_ && lane0(g.val_[out]) != v)
            ++g.toggles_[idx * LaneGroup::kWordLanes];
        setLane0(g.val_[out], v);
    }
    referenceEdge_ = true;
}

void
Netlist::commitReference()
{
    LaneGroup &g = *engine_;
    const std::map<NetId, bool> forces = referenceForces();
    const auto &cells = s_->cells;
    const auto &dffCells = s_->dffCells;
    for (size_t i = 0; i < dffCells.size(); ++i) {
        const CellInst &cell = cells[dffCells[i]];
        bool d = lane0(g.val_[cell.inputs[0]]);
        if (auto f = forces.find(cell.output); f != forces.end())
            d = f->second;
        if (g.countToggles_ && lane0(g.dffState_[i]) != d)
            ++g.toggles_[dffCells[i] * LaneGroup::kWordLanes];
        setLane0(g.dffState_[i], d);
    }
    ++g.cycle_;
}

void
Netlist::clockEdge()
{
    checkElaborated(true);
    if (referenceEdge_)
        commitReference();
    else
        engine_->clockEdge();
}

bool
Netlist::output(const std::string &name) const
{
    checkElaborated(true);
    auto it = s_->outputs.find(name);
    if (it == s_->outputs.end())
        panic("no output named '%s'", name.c_str());
    return engine_->netValue(it->second, 0);
}

unsigned
Netlist::bus(const std::string &prefix, unsigned width) const
{
    checkElaborated(true);
    unsigned v = 0;
    for (unsigned i = 0; i < width; ++i)
        v |= static_cast<unsigned>(
                 output(prefix + std::to_string(i))) << i;
    return v;
}

bool
Netlist::netValue(NetId net) const
{
    checkElaborated(true);
    return engine_->netValue(net, 0);
}

void
Netlist::reset()
{
    checkElaborated(true);
    engine_->reset();
}

uint64_t
Netlist::cycle() const
{
    return engine_ ? engine_->cycle() : 0;
}

void
Netlist::injectFault(const StuckFault &fault)
{
    checkElaborated(true);
    engine_->injectFault(0, fault);
    faults_.push_back(fault);
}

void
Netlist::clearFaults()
{
    checkElaborated(true);
    engine_->clearFaults();
    faults_.clear();
}

void
Netlist::injectTransient(const TransientFault &fault)
{
    checkElaborated(true);
    engine_->injectTransient(0, fault);
    transients_.push_back(fault);
}

void
Netlist::clearTransients()
{
    checkElaborated(true);
    engine_->clearTransients();
    transients_.clear();
}

bool
Netlist::dffValue(size_t index) const
{
    checkElaborated(true);
    if (index >= numDffs())
        panic("dffValue: bad DFF %zu", index);
    return lane0(engine_->dffState_[index]);
}

void
Netlist::flipDff(size_t index)
{
    checkElaborated(true);
    engine_->flipDff(0, index);
}

std::vector<uint8_t>
Netlist::saveDffState() const
{
    checkElaborated(true);
    return engine_->saveDffState(0);
}

void
Netlist::restoreDffState(const std::vector<uint8_t> &state)
{
    checkElaborated(true);
    engine_->restoreDffState(0, state);
}

unsigned
Netlist::totalDevices() const
{
    unsigned n = 0;
    for (const auto &cell : s_->cells)
        n += cellInfo(cell.type).deviceCount;
    return n;
}

double
Netlist::totalNand2Area() const
{
    double a = 0.0;
    for (const auto &cell : s_->cells)
        a += cellInfo(cell.type).nand2Area;
    return a;
}

double
Netlist::totalStaticCurrentUa() const
{
    double c = 0.0;
    for (const auto &cell : s_->cells)
        c += cellInfo(cell.type).staticCurrentUa;
    return c;
}

std::map<std::string, ModuleStats>
Netlist::moduleBreakdown() const
{
    std::map<std::string, ModuleStats> out;
    for (const auto &cell : s_->cells) {
        const CellInfo &info = cellInfo(cell.type);
        ModuleStats &m = out[cell.module];
        ++m.cells;
        m.devices += info.deviceCount;
        m.nand2Area += info.nand2Area;
        if (isSequential(cell.type))
            m.nand2AreaSeq += info.nand2Area;
        m.staticCurrentUa += info.staticCurrentUa;
    }
    return out;
}

double
Netlist::criticalPathDelayUnits() const
{
    // Longest-path DP in evaluation (topological) order; sources
    // (inputs, constants, DFF Q) start at zero arrival.
    std::vector<double> arrival(s_->nextNet, 0.0);
    double worst = 0.0;
    for (size_t idx : s_->evalOrder) {
        const CellInst &cell = s_->cells[idx];
        double in_max = 0.0;
        for (NetId in : cell.inputs)
            if (in != kNoNet)
                in_max = std::max(in_max, arrival[in]);
        double t = in_max + cellInfo(cell.type).delayUnits;
        arrival[cell.output] = t;
        worst = std::max(worst, t);
    }
    // Include DFF setup path (D arrival + DFF delay weight).
    for (size_t idx : s_->dffCells) {
        const CellInst &cell = s_->cells[idx];
        worst = std::max(worst, arrival[cell.inputs[0]] +
                                cellInfo(cell.type).delayUnits);
    }
    return worst;
}

std::vector<uint64_t>
Netlist::toggleCounts() const
{
    checkElaborated(true);
    return engine_->toggleCounts(0);
}

void
Netlist::enableToggles(bool on)
{
    checkElaborated(true);
    engine_->enableToggles(on);
}

uint64_t
Netlist::minCellToggles() const
{
    std::vector<uint64_t> toggles = toggleCounts();
    return toggles.empty()
               ? 0
               : *std::min_element(toggles.begin(), toggles.end());
}

double
Netlist::meanCellToggles() const
{
    std::vector<uint64_t> toggles = toggleCounts();
    if (toggles.empty())
        return 0.0;
    double sum = 0.0;
    for (uint64_t t : toggles)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(toggles.size());
}

} // namespace flexi
