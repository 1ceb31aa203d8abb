#include "cnf_encoder.hh"

#include <algorithm>

#include "analysis/equiv.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace flexi
{

SatLit
CnfBuilder::fresh()
{
    return SatLit::make(solver_.newVar());
}

SatLit
CnfBuilder::constTrue()
{
    if (!haveConst_) {
        const_ = fresh();
        solver_.addClause({const_});
        haveConst_ = true;
    }
    return const_;
}

bool
CnfBuilder::isConstTrue(SatLit l)
{
    return haveConst_ && l == const_;
}

bool
CnfBuilder::isConstFalse(SatLit l)
{
    return haveConst_ && l == ~const_;
}

void
CnfBuilder::addClause(std::vector<SatLit> lits)
{
    solver_.addClause(std::move(lits));
}

SatLit
CnfBuilder::mkAnd(SatLit a, SatLit b)
{
    if (isConstFalse(a) || isConstFalse(b))
        return constFalse();
    if (isConstTrue(a))
        return b;
    if (isConstTrue(b))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return constFalse();
    SatLit o = fresh();
    addClause({~o, a});
    addClause({~o, b});
    addClause({o, ~a, ~b});
    return o;
}

SatLit
CnfBuilder::mkOr(SatLit a, SatLit b)
{
    return ~mkAnd(~a, ~b);
}

SatLit
CnfBuilder::mkXor(SatLit a, SatLit b)
{
    if (isConstFalse(a))
        return b;
    if (isConstFalse(b))
        return a;
    if (isConstTrue(a))
        return ~b;
    if (isConstTrue(b))
        return ~a;
    if (a == b)
        return constFalse();
    if (a == ~b)
        return constTrue();
    SatLit o = fresh();
    addClause({~o, a, b});
    addClause({~o, ~a, ~b});
    addClause({o, ~a, b});
    addClause({o, a, ~b});
    return o;
}

SatLit
CnfBuilder::mkMux(SatLit a, SatLit b, SatLit sel)
{
    if (isConstFalse(sel))
        return a;
    if (isConstTrue(sel))
        return b;
    if (a == b)
        return a;
    SatLit o = fresh();
    addClause({sel, ~o, a});
    addClause({sel, o, ~a});
    addClause({~sel, ~o, b});
    addClause({~sel, o, ~b});
    return o;
}

SatLit
CnfBuilder::mkAndN(const std::vector<SatLit> &lits)
{
    std::vector<SatLit> ins;
    for (SatLit l : lits) {
        if (isConstFalse(l))
            return constFalse();
        if (isConstTrue(l))
            continue;
        ins.push_back(l);
    }
    if (ins.empty())
        return constTrue();
    if (ins.size() == 1)
        return ins[0];
    SatLit o = fresh();
    std::vector<SatLit> big{o};
    for (SatLit l : ins) {
        addClause({~o, l});
        big.push_back(~l);
    }
    addClause(std::move(big));
    return o;
}

SatLit
CnfBuilder::mkOrN(const std::vector<SatLit> &lits)
{
    std::vector<SatLit> inv;
    inv.reserve(lits.size());
    for (SatLit l : lits)
        inv.push_back(~l);
    return ~mkAndN(inv);
}

CnfBuilder::Word
CnfBuilder::freshWord(unsigned width)
{
    Word w(width);
    for (auto &l : w)
        l = fresh();
    return w;
}

CnfBuilder::Word
CnfBuilder::constWord(uint64_t value, unsigned width)
{
    Word w(width);
    for (unsigned i = 0; i < width; ++i)
        w[i] = constant((value >> i) & 1u);
    return w;
}

CnfBuilder::Word
CnfBuilder::add(const Word &a, const Word &b, SatLit cin,
                SatLit *cout)
{
    if (a.size() != b.size())
        panic("CnfBuilder::add: width mismatch");
    Word sum(a.size());
    SatLit carry = cin;
    for (size_t i = 0; i < a.size(); ++i) {
        SatLit axb = mkXor(a[i], b[i]);
        sum[i] = mkXor(axb, carry);
        carry = mkOr(mkAnd(a[i], b[i]), mkAnd(axb, carry));
    }
    if (cout)
        *cout = carry;
    return sum;
}

CnfBuilder::Word
CnfBuilder::mux(const Word &a, const Word &b, SatLit sel)
{
    if (a.size() != b.size())
        panic("CnfBuilder::mux: width mismatch");
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = mkMux(a[i], b[i], sel);
    return out;
}

CnfBuilder::Word
CnfBuilder::invert(const Word &a)
{
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = ~a[i];
    return out;
}

SatLit
CnfBuilder::equalsConst(const Word &w, uint64_t value)
{
    std::vector<SatLit> bits;
    bits.reserve(w.size());
    for (size_t i = 0; i < w.size(); ++i)
        bits.push_back(((value >> i) & 1u) ? w[i] : ~w[i]);
    return mkAndN(bits);
}

SatLit
CnfBuilder::orReduce(const Word &w)
{
    return mkOrN(w);
}

SatLit
CnfBuilder::lessThanConst(const Word &w, uint64_t value)
{
    if (value == 0)
        return constFalse();
    if (w.empty() || value >= (uint64_t{1} << w.size()))
        return constTrue();
    // MSB-down: strictly less as soon as a 1-bit of the constant
    // meets a 0-bit of the word with an equal prefix above it.
    SatLit lt = constFalse();
    SatLit eq = constTrue();
    for (size_t i = w.size(); i-- > 0;) {
        bool vbit = (value >> i) & 1u;
        if (vbit)
            lt = mkOr(lt, mkAnd(eq, ~w[i]));
        eq = mkAnd(eq, vbit ? w[i] : ~w[i]);
    }
    return lt;
}

SatLit
CnfBuilder::equalWords(const Word &a, const Word &b)
{
    if (a.size() != b.size())
        panic("CnfBuilder::equalWords: width mismatch");
    std::vector<SatLit> bits;
    bits.reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        bits.push_back(mkXnor(a[i], b[i]));
    return mkAndN(bits);
}

void
CnfBuilder::bindEqual(SatLit a, SatLit b)
{
    if (a == b)
        return;
    addClause({~a, b});
    addClause({a, ~b});
}

uint64_t
CnfBuilder::modelWord(const Word &w) const
{
    uint64_t v = 0;
    for (size_t i = 0; i < w.size(); ++i)
        if (solver_.modelValue(w[i]))
            v |= 1ull << i;
    return v;
}

namespace
{

/**
 * Clauses for one standard cell from its gate semantics. This is the
 * Reference half of the checker: derived from the cell library's
 * boolean functions, not from the compiled truth tables.
 */
void
addGateClauses(CnfBuilder &cnf, CellType type, SatLit o, SatLit a,
               SatLit b, SatLit c)
{
    switch (type) {
      case CellType::INV_X1:
      case CellType::INV_X2:
        cnf.addClause({~o, ~a});
        cnf.addClause({o, a});
        break;
      case CellType::BUF_X1:
      case CellType::BUF_X2:
        cnf.addClause({~o, a});
        cnf.addClause({o, ~a});
        break;
      case CellType::NAND2:
        cnf.addClause({o, a});
        cnf.addClause({o, b});
        cnf.addClause({~o, ~a, ~b});
        break;
      case CellType::NAND3:
        cnf.addClause({o, a});
        cnf.addClause({o, b});
        cnf.addClause({o, c});
        cnf.addClause({~o, ~a, ~b, ~c});
        break;
      case CellType::NOR2:
        cnf.addClause({~o, ~a});
        cnf.addClause({~o, ~b});
        cnf.addClause({o, a, b});
        break;
      case CellType::NOR3:
        cnf.addClause({~o, ~a});
        cnf.addClause({~o, ~b});
        cnf.addClause({~o, ~c});
        cnf.addClause({o, a, b, c});
        break;
      case CellType::XOR2:
        cnf.addClause({~o, a, b});
        cnf.addClause({~o, ~a, ~b});
        cnf.addClause({o, ~a, b});
        cnf.addClause({o, a, ~b});
        break;
      case CellType::XNOR2:
        cnf.addClause({o, a, b});
        cnf.addClause({o, ~a, ~b});
        cnf.addClause({~o, ~a, b});
        cnf.addClause({~o, a, ~b});
        break;
      case CellType::MUX2:
        // inputs {a, b, sel=c}: o = sel ? b : a
        cnf.addClause({c, ~o, a});
        cnf.addClause({c, o, ~a});
        cnf.addClause({~c, ~o, b});
        cnf.addClause({~c, o, ~b});
        break;
      default:
        panic("addGateClauses: unexpected cell type");
    }
}

} // namespace

NetlistEncoding
encodeNetlist(CnfBuilder &cnf, const Netlist &nl,
              const NetlistEncodeOptions &opts)
{
    if (!nl.elaborated())
        panic("encodeNetlist: netlist '%s' not elaborated",
              nl.name().c_str());

    NetlistEncoding enc;
    // One slot per net plus the plan's scratch net (always 0).
    enc.net.assign(nl.numNets() + 1, SatLit{});
    enc.net[nl.zero()] = cnf.constFalse();
    enc.net[nl.one()] = cnf.constTrue();
    enc.net[nl.scratchNet()] = cnf.constFalse();

    auto getLit = [&](NetId n) {
        if (enc.net[n].code < 0)
            enc.net[n] = cnf.fresh();
        return enc.net[n];
    };

    // Primary inputs: shared with a previous encoding (by name) or
    // fresh.
    for (const auto &[name, net] : nl.primaryInputs()) {
        if (opts.share) {
            auto it = opts.shareWith->primaryInputs().find(name);
            if (it == opts.shareWith->primaryInputs().end())
                panic("encodeNetlist: '%s' lacks shared input '%s'",
                      opts.shareWith->name().c_str(), name.c_str());
            enc.net[net] = opts.share->lit(it->second);
        } else {
            enc.net[net] = cnf.fresh();
        }
    }

    // DFF state: Q nets are free variables of the combinational
    // problem, shared across a miter by DFF commit order.
    auto dffs = nl.dffs();
    if (opts.share && opts.share->dffQ.size() != dffs.size())
        panic("encodeNetlist: DFF count mismatch (%zu vs %zu)",
              opts.share->dffQ.size(), dffs.size());
    if (opts.bindQ && opts.bindQ->size() != dffs.size())
        panic("encodeNetlist: bindQ count mismatch (%zu vs %zu)",
              opts.bindQ->size(), dffs.size());
    enc.dffQ.resize(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i) {
        if (opts.share)
            enc.net[dffs[i].q] = opts.share->dffQ[i];
        else if (opts.bindQ)
            enc.net[dffs[i].q] = (*opts.bindQ)[i];
        else
            enc.net[dffs[i].q] = getLit(dffs[i].q);
        enc.dffQ[i] = enc.net[dffs[i].q];
    }

    // Stuck-at faults force a net to a constant for every consumer;
    // the faulted net's driver cone is left unconstrained, exactly
    // like the force-mask blend in the evaluators.
    std::vector<uint8_t> faulted(nl.numNets() + 1, 0);
    if (opts.applyFaults) {
        for (const StuckFault &f : nl.faults()) {
            enc.net[f.net] = cnf.constant(f.value);
            faulted[f.net] = 1;
        }
    }

    if (opts.mode == NetlistEncodeMode::Reference) {
        // Gate semantics straight from the CellInst records, in
        // construction order (creation order is causal for every
        // builder; forward references would get a free literal that
        // the later driver then constrains via getLit).
        const auto &cells = nl.cells();
        for (const auto &cell : cells) {
            if (isSequential(cell.type))
                continue;
            if (faulted[cell.output]) {
                continue;   // forced: drop the driving cone
            }
            SatLit a = getLit(cell.inputs[0]);
            SatLit b = cell.inputs.size() > 1 ? getLit(cell.inputs[1])
                                              : SatLit{};
            SatLit c = cell.inputs.size() > 2 ? getLit(cell.inputs[2])
                                              : SatLit{};
            addGateClauses(cnf, cell.type, getLit(cell.output), a, b,
                           c);
        }
    } else {
        // The fused-run word program: walk the exact straight-line
        // program the compiled engine dispatches (planRuns()),
        // encoding each step from its WordOp's gate semantics — the
        // kernel bodies, not the truth tables — so the fusion and
        // the per-op word kernels are both inside the proof.
        const auto steps = nl.planSteps();
        for (const auto &run : nl.planRuns()) {
            for (uint32_t s = run.begin; s < run.end; ++s) {
                const auto &step = steps[s];
                if (faulted[step.out])
                    continue;
                SatLit a = getLit(step.in[0]);
                SatLit b = getLit(step.in[1]);
                SatLit c = getLit(step.in[2]);
                SatLit o;
                switch (run.op) {
                  case WordOp::Buf:
                    o = a;
                    break;
                  case WordOp::Inv:
                    o = ~a;
                    break;
                  case WordOp::Nand2:
                    o = cnf.mkNand(a, b);
                    break;
                  case WordOp::Nand3:
                    o = ~cnf.mkAndN({a, b, c});
                    break;
                  case WordOp::Nor2:
                    o = cnf.mkNor(a, b);
                    break;
                  case WordOp::Nor3:
                    o = ~cnf.mkOrN({a, b, c});
                    break;
                  case WordOp::Xor2:
                    o = cnf.mkXor(a, b);
                    break;
                  case WordOp::Xnor2:
                    o = cnf.mkXnor(a, b);
                    break;
                  case WordOp::Mux2:
                    o = cnf.mkMux(a, b, c);
                    break;
                  case WordOp::Lut: {
                    // lutWord(): OR over the set minterms of the
                    // 8-bit table.
                    std::vector<SatLit> terms;
                    for (unsigned idx = 0; idx < 8; ++idx)
                        if ((step.lut >> idx) & 1)
                            terms.push_back(
                                cnf.mkAndN({(idx & 1) ? a : ~a,
                                            (idx & 2) ? b : ~b,
                                            (idx & 4) ? c : ~c}));
                    o = cnf.mkOrN(terms);
                    break;
                  }
                  default:
                    panic("encodeNetlist: unexpected word op");
                }
                if (enc.net[step.out].code < 0) {
                    enc.net[step.out] = o;
                } else {
                    // A pre-existing literal (e.g. a shared Q net
                    // can't be a plan output, but stay defensive):
                    // constrain equality instead of clobbering.
                    SatLit prev = enc.net[step.out];
                    cnf.addClause({~prev, o});
                    cnf.addClause({prev, ~o});
                }
            }
        }
    }

    // Effective captured DFF values: the D cone, unless a fault on
    // the Q net overrides the capture (clockEdge() semantics).
    enc.dffD.resize(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i)
        enc.dffD[i] =
            faulted[dffs[i].q] ? enc.net[dffs[i].q]
                               : getLit(dffs[i].d);
    return enc;
}

bool
proveEqual(CnfBuilder &cnf, SatLit a, SatLit b, uint64_t &solves)
{
    if (a == b)
        return true;
    SatSolver &solver = cnf.solver();
    ++solves;
    if (solver.solve({a, ~b}) == SatSolver::Result::Sat)
        return false;
    ++solves;
    if (solver.solve({~a, b}) == SatSolver::Result::Sat)
        return false;
    solver.addClause({~a, b});
    solver.addClause({a, ~b});
    return true;
}

bool
proveConst(CnfBuilder &cnf, SatLit l, bool value, uint64_t &solves)
{
    SatSolver &solver = cnf.solver();
    SatLit want = value ? l : ~l;
    ++solves;
    if (solver.solve({~want}) == SatSolver::Result::Sat)
        return false;
    solver.addClause({want});
    return true;
}

EquivCounterexample
extractCex(const SatSolver &solver, const Netlist &nl,
           const NetlistEncoding &enc)
{
    EquivCounterexample cex;
    for (const auto &[name, net] : nl.primaryInputs())
        if (enc.hasLit(net))
            cex.assignment.emplace_back(
                name, solver.modelValue(enc.lit(net)));
    auto dffs = nl.dffs();
    for (size_t i = 0; i < dffs.size(); ++i)
        cex.assignment.emplace_back(nl.netName(dffs[i].q),
                                    solver.modelValue(enc.dffQ[i]));
    return cex;
}

ModelSamples
sampleModels(SatSolver &solver, const std::vector<SatLit> &primaries,
             unsigned count, uint64_t seed, uint64_t &solves)
{
    const SatVar nvars = solver.numVars();
    ModelSamples out;
    out.sig.assign(nvars, 0);

    // Assume only free primaries: a root-fixed one has its value in
    // every model already, and assuming the other value would make
    // the draw unsatisfiable.
    std::vector<SatLit> unfixed;
    std::vector<uint8_t> seen(nvars, 0);
    for (SatLit l : primaries) {
        if (solver.fixedAtRoot(l.var()) || seen[l.var()])
            continue;
        seen[l.var()] = 1;
        unfixed.push_back(l);
    }
    // One random word per primary; bit s is its value in draw s.
    Rng rng(seed);
    std::vector<uint64_t> pattern(unfixed.size());
    for (uint64_t &w : pattern)
        w = rng.next();

    std::vector<SatLit> assume(unfixed.size());
    for (unsigned s = 0; s < std::min(count, 64u); ++s) {
        for (size_t k = 0; k < unfixed.size(); ++k)
            assume[k] =
                (pattern[k] >> s) & 1 ? unfixed[k] : ~unfixed[k];
        ++solves;
        if (solver.solve(assume) != SatSolver::Result::Sat)
            continue;
        uint64_t bit = 1ull << out.count++;
        for (SatVar v = 0; v < nvars; ++v)
            if (solver.modelValue(v))
                out.sig[v] |= bit;
    }
    return out;
}

} // namespace flexi
