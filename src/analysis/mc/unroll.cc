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

Unrolling::Unrolling(CnfBuilder &cnf, const Netlist &nl,
                     const McModel &model)
    : cnf_(cnf), nl_(nl), model_(model)
{
    if (!nl.elaborated())
        panic("Unrolling: netlist '%s' not elaborated",
              nl.name().c_str());
    if (model_.program) {
        IsaKind isa = model_.program->isa();
        wide_bus_ = isa == IsaKind::ExtAcc4 ||
                    isa == IsaKind::LoadStore4;
        word_pc_ = isa == IsaKind::LoadStore4;
        pc_nets_ = resolvePadBus(nl, "pc", kPcBits, false);
        instr_nets_ =
            resolvePadBus(nl, "instr", wide_bus_ ? 16 : 8, true);
        if (pc_nets_.empty() || instr_nets_.empty())
            panic("Unrolling: netlist '%s' lacks the pc/instr pad "
                  "buses required by the ROM-closed model",
                  nl.name().c_str());
    } else {
        pc_nets_ = resolvePadBus(nl, "pc", kPcBits, false);
    }
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

    // The tie environment holds on every timestep.
    for (const PadTie &tie : model_.ties) {
        auto it = nl_.primaryInputs().find(tie.input);
        if (it == nl_.primaryInputs().end())
            panic("Unrolling: tie names unknown input '%s'",
                  tie.input.c_str());
        SatLit l = frames_[t].lit(it->second);
        cnf_.assertLit(tie.value ? l : ~l);
    }

    if (model_.program)
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
 * at the frame's own PC pads — the lockstep harness's fetch,
 * rendered as a mux tree over the 7-bit PC. Out-of-image addresses
 * read the idle bus's zeros, exactly like the scalar and wide-lane
 * drivers' fetch lambdas.
 */
void
Unrolling::closeRom(unsigned t)
{
    const std::vector<uint8_t> &image = model_.program->page(0);
    auto fetch = [&](unsigned addr) -> unsigned {
        return addr < image.size() ? image[addr] : 0;
    };

    unsigned bits = instr_nets_.size();
    std::vector<uint64_t> table(kPageSize, 0);
    for (unsigned pc = 0; pc < kPageSize; ++pc) {
        if (wide_bus_) {
            unsigned base = word_pc_ ? pc * 2 : pc;
            table[pc] = fetch(base) | (fetch(base + 1) << 8);
        } else {
            table[pc] = fetch(pc);
        }
    }

    CnfBuilder::Word pc = busLits(t, pc_nets_);
    std::vector<CnfBuilder::Word> words;
    words.reserve(kPageSize);
    for (unsigned v = 0; v < kPageSize; ++v)
        words.push_back(cnf_.constWord(table[v], bits));
    // Balanced mux tree, LSB select first; constant folding in
    // mkMux collapses the (large) identical-subtree regions of a
    // mostly-zero image.
    for (unsigned level = 0; level < kPcBits; ++level) {
        std::vector<CnfBuilder::Word> next;
        next.reserve(words.size() / 2);
        for (size_t i = 0; i + 1 < words.size(); i += 2)
            next.push_back(
                cnf_.mux(words[i], words[i + 1], pc[level]));
        words = std::move(next);
    }

    CnfBuilder::Word instr = busLits(t, instr_nets_);
    for (unsigned b = 0; b < bits; ++b)
        cnf_.bindEqual(instr[b], words[0][b]);
}

void
Unrolling::assertSimplePath()
{
    size_t ndff = nl_.dffs().size();
    for (unsigned j = simplePathDone_; j < frames_.size(); ++j) {
        for (unsigned i = 0; i < j; ++i) {
            std::vector<SatLit> differs;
            differs.reserve(ndff);
            for (size_t d = 0; d < ndff; ++d)
                differs.push_back(cnf_.mkXor(frames_[i].dffQ[d],
                                             frames_[j].dffQ[d]));
            cnf_.addClause(differs);
        }
    }
    simplePathDone_ = frames_.size();
}

} // namespace flexi
