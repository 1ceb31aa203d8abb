#include "unroll.hh"

#include "common/logging.hh"

namespace flexi
{

std::vector<NetId>
resolvePadBus(const Netlist &nl, const std::string &prefix,
              unsigned width, bool input)
{
    const auto &map = input ? nl.primaryInputs()
                            : nl.primaryOutputs();
    std::vector<NetId> nets;
    nets.reserve(width);
    for (unsigned i = 0; i < width; ++i) {
        auto it = map.find(prefix + std::to_string(i));
        if (it == map.end())
            return {};
        nets.push_back(it->second);
    }
    return nets;
}

ResolvedModel
resolveModel(const Netlist &nl, const McModel &model)
{
    if (!nl.elaborated())
        panic("Unrolling: netlist '%s' not elaborated",
              nl.name().c_str());
    ResolvedModel r;
    if (model.program) {
        IsaKind isa = model.program->isa();
        r.pc = resolvePadBus(nl, "pc", kPcBits, false);
        r.instr = resolvePadBus(nl, "instr", wideFetch(isa) ? 16 : 8,
                                true);
        if (r.pc.empty() || r.instr.empty())
            panic("Unrolling: netlist '%s' lacks the pc/instr pad "
                  "buses required by the ROM-closed model",
                  nl.name().c_str());
        r.rom = fetchTable(isa, model.program->page(0));
    }
    for (const PadTie &tie : model.ties) {
        auto it = nl.primaryInputs().find(tie.input);
        if (it == nl.primaryInputs().end())
            panic("Unrolling: tie names unknown input '%s'",
                  tie.input.c_str());
        r.ties.emplace_back(it->second, tie.value);
    }
    return r;
}

Unrolling::Unrolling(CnfBuilder &cnf, const Netlist &nl,
                     const McModel &model, bool guarded)
    : cnf_(cnf), nl_(nl), model_(resolveModel(nl, model)),
      guarded_(guarded)
{
}

unsigned
Unrolling::addFrame()
{
    NetlistEncodeOptions opts;
    opts.mode = NetlistEncodeMode::Reference;
    if (!frames_.empty())
        opts.bindQ = &frames_.back().dffD;
    frames_.push_back(encodeNetlist(cnf_, nl_, opts));
    unsigned t = frames_.size() - 1;
    if (guarded_) {
        act_.push_back(cnf_.fresh());
        if (t > 0)
            cnf_.addClause({~act_[t], act_[t - 1]});
    }

    // The tie environment holds on every timestep.
    for (const auto &[net, value] : model_.ties) {
        SatLit l = frames_[t].lit(net);
        envClause(t, {value ? l : ~l});
    }

    if (model_.romClosed())
        closeRom(t);
    return t;
}

void
Unrolling::ensureFrames(unsigned n)
{
    while (frames_.size() < n)
        addFrame();
}

void
Unrolling::assertInit()
{
    if (frames_.empty())
        panic("Unrolling::assertInit: no frames");
    auto dffs = nl_.dffs();
    for (size_t i = 0; i < dffs.size(); ++i) {
        SatLit q = frames_[0].dffQ[i];
        cnf_.assertLit(dffs[i].init ? q : ~q);
    }
}

CnfBuilder::Word
Unrolling::busLits(unsigned t, const std::vector<NetId> &nets) const
{
    CnfBuilder::Word w;
    w.reserve(nets.size());
    for (NetId n : nets)
        w.push_back(frames_.at(t).lit(n));
    return w;
}

/**
 * Constrain frame @p t's instruction bus to the program image word
 * at the frame's own PC pads — the lockstep harness's fetch. The
 * table is fetchTable()'s, the one the lockstep drivers' golden tape
 * reads, so out-of-image addresses read the idle bus's zeros here
 * too.
 *
 * The table is rendered as clauses over the PC literals, with no
 * gate of its own: per instr bit, the PC space splits from the top
 * bit down into the largest aligned blocks on which the bit is
 * constant, and each block gets one clause "PC in block => bit". A
 * mostly-zero image is a few blocks past its fill.
 */
void
Unrolling::closeRom(unsigned t)
{
    CnfBuilder::Word pc = busLits(t, model_.pc);
    CnfBuilder::Word instr = busLits(t, model_.instr);
    std::vector<SatLit> clause;
    // Block [lo, lo + 2^level): PC bits kPcBits-1..level are fixed.
    auto block = [&](auto &&self, unsigned b, unsigned lo,
                     unsigned level) -> void {
        unsigned size = 1u << level;
        bool first = model_.rom[lo] >> b & 1;
        bool constant = true;
        for (unsigned v = lo + 1; v < lo + size && constant; ++v)
            constant = (model_.rom[v] >> b & 1) == first;
        if (!constant) {
            self(self, b, lo, level - 1);
            self(self, b, lo + size / 2, level - 1);
            return;
        }
        clause.clear();
        for (unsigned i = level; i < kPcBits; ++i)
            clause.push_back(lo >> i & 1 ? ~pc[i] : pc[i]);
        clause.push_back(first ? instr[b] : ~instr[b]);
        envClause(t, clause);
    };
    for (unsigned b = 0; b < instr.size(); ++b)
        block(block, b, 0, kPcBits);
}

void
Unrolling::envClause(unsigned t, std::vector<SatLit> clause)
{
    if (guarded_)
        clause.push_back(~act_[t]);
    cnf_.addClause(clause);
}

void
Unrolling::assertSimplePath()
{
    size_t ndff = nl_.dffs().size();
    for (unsigned j = simplePathDone_; j < frames_.size(); ++j) {
        for (unsigned i = 0; i < j; ++i) {
            std::vector<SatLit> differs;
            differs.reserve(ndff + 1);
            for (size_t d = 0; d < ndff; ++d)
                differs.push_back(cnf_.mkXor(frames_[i].dffQ[d],
                                             frames_[j].dffQ[d]));
            envClause(j, std::move(differs));
        }
    }
    simplePathDone_ = frames_.size();
}

} // namespace flexi
