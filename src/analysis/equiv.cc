#include "equiv.hh"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "analysis/cnf_encoder.hh"
#include "analysis/isa_spec.hh"
#include "common/logging.hh"

namespace flexi
{

namespace
{

using Result = SatSolver::Result;

/**
 * Models sampled for the ISA miter's sweep: one signature word. On
 * LoadStore4 they nominate 280 spec-to-netlist pairs, 244 of which
 * prove, and the whole proof falls from 11,787 to 1,227 conflicts.
 */
constexpr unsigned kIsaSamples = 64;
/** Fixed, so hardened pairs and solve counts repeat run to run. */
constexpr uint64_t kIsaSampleSeed = 0x15A5EEDull;

/**
 * SAT-sweep an ISA miter, FRAIG-style: sample models over the free
 * @p primaries, then walk the spec-side variables [@p specBegin,
 * @p specEnd) in creation order, pair each with the earliest
 * netlist-side variable (below @p specBegin) whose signature equals
 * it or its complement, and prove and harden the pair. Hardened
 * clauses are implied by the miter, so every model of the swept CNF
 * is a model of the original: class verdicts do not move and every
 * counterexample stays genuine.
 */
void
sweepIsaMiter(CnfBuilder &cnf, const std::vector<SatLit> &primaries,
              SatVar specBegin, SatVar specEnd, uint64_t &solves)
{
    ModelSamples ms = sampleModels(cnf.solver(), primaries,
                                   kIsaSamples, kIsaSampleSeed, solves);
    if (ms.count == 0)
        return;
    // One key per signature class: the polarity false in sample 0.
    auto key = [&](uint64_t sig) {
        return sig & 1 ? ~sig & ms.mask() : sig;
    };
    std::unordered_map<uint64_t, SatVar> earliest;
    for (SatVar v = 0; v < specBegin; ++v)
        earliest.emplace(key(ms.of(SatLit::make(v))), v);
    for (SatVar v = specBegin; v < specEnd; ++v) {
        uint64_t sig = ms.of(SatLit::make(v));
        auto it = earliest.find(key(sig));
        if (it == earliest.end())
            continue;
        SatLit u = SatLit::make(it->second);
        proveEqual(cnf, u, SatLit::make(v, ms.of(u) != sig), solves);
    }
}

} // namespace

std::string
packedAssignmentText(
    const std::vector<std::pair<std::string, bool>> &assignment)
{
    // Pack bit groups that share a name prefix into bus values.
    std::map<std::string, std::map<unsigned, bool>> buses;
    std::vector<std::pair<std::string, bool>> singles;
    for (const auto &[name, v] : assignment) {
        size_t p = name.size();
        while (p > 0 &&
               std::isdigit(static_cast<unsigned char>(name[p - 1])))
            --p;
        if (p == 0 || p == name.size()) {
            singles.emplace_back(name, v);
            continue;
        }
        unsigned idx =
            static_cast<unsigned>(std::stoul(name.substr(p)));
        buses[name.substr(0, p)][idx] = v;
    }

    std::string out;
    auto emit = [&](const std::string &s) {
        if (!out.empty())
            out += " ";
        out += s;
    };
    for (const auto &[prefix, bits] : buses) {
        std::string shown = prefix;
        while (!shown.empty() && shown.back() == '_')
            shown.pop_back();
        // Dense little-endian group starting at bit 0 -> hex value.
        unsigned width = 0;
        uint64_t value = 0;
        bool dense = true;
        for (const auto &[i, v] : bits) {
            if (i >= 64) {
                dense = false;
                break;
            }
            if (v)
                value |= 1ull << i;
            width = std::max(width, i + 1);
        }
        dense = dense && bits.size() == width;
        if (dense && width > 1) {
            emit(strfmt("%s=0x%llx", shown.c_str(),
                        static_cast<unsigned long long>(value)));
        } else {
            for (const auto &[i, v] : bits)
                emit(strfmt("%s%u=%d", prefix.c_str(), i, v ? 1 : 0));
        }
    }
    for (const auto &[name, v] : singles)
        emit(strfmt("%s=%d", name.c_str(), v ? 1 : 0));
    return out;
}

std::string
EquivCounterexample::text() const
{
    std::string out = packedAssignmentText(assignment);
    out += " -> mismatch on ";
    for (size_t i = 0; i < mismatched.size(); ++i)
        out += (i ? ", " : "") + mismatched[i];
    return out;
}

EquivResult
checkPlanEquivalence(const Netlist &nl)
{
    EquivResult res;
    SatSolver solver;
    CnfBuilder cnf(solver);

    NetlistEncodeOptions ref_opts;
    ref_opts.mode = NetlistEncodeMode::Reference;
    ref_opts.applyFaults = true;
    NetlistEncoding ref = encodeNetlist(cnf, nl, ref_opts);

    // Other half of the miter: the fused-run word program the
    // compiled engine dispatches, encoded from the WordOp kernel
    // semantics over the same input/Q variables.
    NetlistEncodeOptions word_opts;
    word_opts.mode = NetlistEncodeMode::WordPlan;
    word_opts.applyFaults = true;
    word_opts.share = &ref;
    word_opts.shareWith = &nl;
    NetlistEncoding word = encodeNetlist(cnf, nl, word_opts);

    auto fail = [&](NetId net) {
        res.hasCex = true;
        res.cex = extractCex(solver, nl, ref);
        res.cex.mismatched = {nl.netName(net)};
        res.conflicts = solver.stats().conflicts;
    };

    // Sweep every cell cone in plan execution order: each proof is
    // local once its fanin equalities are hardened.
    for (const auto &step : nl.planSteps()) {
        if (!ref.hasLit(step.out) || !word.hasLit(step.out)) {
            res.detail = strfmt("net %s missing from an encoding",
                                nl.netName(step.out).c_str());
            return res;
        }
        if (!proveEqual(cnf, ref.lit(step.out), word.lit(step.out),
                        res.solves)) {
            fail(step.out);
            return res;
        }
    }

    // Effective captured DFF values (D cone blended with any fault
    // forcing Q, exactly as clockEdge() does).
    auto dffs = nl.dffs();
    for (size_t i = 0; i < dffs.size(); ++i) {
        if (!proveEqual(cnf, ref.dffD[i], word.dffD[i], res.solves)) {
            fail(dffs[i].q);
            return res;
        }
    }

    res.proven = true;
    res.conflicts = solver.stats().conflicts;
    return res;
}

EquivResult
checkNetlistEquivalence(const Netlist &a, const Netlist &b)
{
    EquivResult res;

    // The interface must match or the miter is meaningless.
    {
        const auto &ia = a.primaryInputs();
        const auto &ib = b.primaryInputs();
        const auto &oa = a.primaryOutputs();
        const auto &ob = b.primaryOutputs();
        auto same_names = [](const std::map<std::string, NetId> &x,
                             const std::map<std::string, NetId> &y) {
            if (x.size() != y.size())
                return false;
            for (const auto &[name, net] : x)
                if (!y.count(name))
                    return false;
            return true;
        };
        if (!same_names(ia, ib) || !same_names(oa, ob)) {
            res.detail = "primary input/output names differ";
            return res;
        }
        if (a.dffs().size() != b.dffs().size()) {
            res.detail = strfmt("state mismatch: %zu vs %zu DFFs",
                                a.dffs().size(), b.dffs().size());
            return res;
        }
    }

    SatSolver solver;
    CnfBuilder cnf(solver);

    NetlistEncodeOptions ea_opts;
    ea_opts.mode = NetlistEncodeMode::Reference;
    ea_opts.applyFaults = true;
    NetlistEncoding ea = encodeNetlist(cnf, a, ea_opts);

    NetlistEncodeOptions eb_opts;
    eb_opts.mode = NetlistEncodeMode::Reference;
    eb_opts.applyFaults = true;
    eb_opts.share = &ea;
    eb_opts.shareWith = &a;
    NetlistEncoding eb = encodeNetlist(cnf, b, eb_opts);

    // Sweep acceleration when the instances share one structure
    // (clone() dies): prove internal cones equal where possible.
    // Failures here are *not* mismatches — a fault can corrupt an
    // internal cone yet be masked at every output — so they are
    // simply left unhardened for the final miter to sort out.
    if (a.numCells() == b.numCells() && a.numNets() == b.numNets()) {
        for (const auto &step : a.planSteps()) {
            if (!ea.hasLit(step.out) || !eb.hasLit(step.out))
                continue;
            proveEqual(cnf, ea.lit(step.out), eb.lit(step.out),
                       res.solves);
        }
    }

    // The real question: any input/state separating an output or a
    // captured next-state bit?
    std::vector<SatLit> diffs;
    std::vector<std::string> names;
    for (const auto &[name, net_a] : a.primaryOutputs()) {
        NetId net_b = b.primaryOutputs().at(name);
        if (!ea.hasLit(net_a) || !eb.hasLit(net_b)) {
            res.detail = strfmt("output '%s' missing from an encoding",
                                name.c_str());
            return res;
        }
        diffs.push_back(cnf.mkXor(ea.lit(net_a), eb.lit(net_b)));
        names.push_back(name);
    }
    auto dffs = a.dffs();
    for (size_t i = 0; i < dffs.size(); ++i) {
        diffs.push_back(cnf.mkXor(ea.dffD[i], eb.dffD[i]));
        names.push_back(a.netName(dffs[i].q) + "'");
    }

    SatLit any = cnf.mkOrN(diffs);
    ++res.solves;
    if (solver.solve({any}) == Result::Sat) {
        res.hasCex = true;
        res.cex = extractCex(solver, a, ea);
        for (size_t i = 0; i < diffs.size(); ++i)
            if (solver.modelValue(diffs[i]))
                res.cex.mismatched.push_back(names[i]);
    } else {
        res.proven = true;
    }
    res.conflicts = solver.stats().conflicts;
    return res;
}

IsaEquivResult
checkIsaEquivalence(const Netlist &nl, IsaKind kind)
{
    IsaEquivResult res;
    SatSolver solver;
    CnfBuilder cnf(solver);

    NetlistEncodeOptions opts;
    opts.mode = NetlistEncodeMode::Reference;
    // Injected faults are part of this die's semantics: a defective
    // die must *fail* the ISA proof (with a counterexample naming
    // the corrupted state), not silently pass as its template.
    opts.applyFaults = true;
    NetlistEncoding enc = encodeNetlist(cnf, nl, opts);

    IsaSpecInputs in;
    unsigned iw = isaInstrWidth(kind);
    for (unsigned i = 0; i < iw; ++i) {
        NetId net = nl.findNet("instr" + std::to_string(i));
        if (net == kNoNet || !enc.hasLit(net)) {
            res.detail = strfmt("no instruction input instr%u", i);
            return res;
        }
        in.instr.push_back(enc.lit(net));
    }
    unsigned dw = isaDataWidth(kind);
    for (unsigned i = 0; i < dw; ++i) {
        NetId net = nl.findNet("iport" + std::to_string(i));
        if (net == kNoNet || !enc.hasLit(net)) {
            res.detail = strfmt("no input port bit iport%u", i);
            return res;
        }
        in.iport.push_back(enc.lit(net));
    }

    // Architectural state correspondence: every DFF must carry a
    // stable net label (the builders name their state; an unlabeled
    // DFF means the spec cannot account for it).
    auto dffs = nl.dffs();
    std::vector<std::string> labels(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i) {
        std::string label = nl.netName(dffs[i].q);
        if (nl.findNet(label) != dffs[i].q) {
            res.detail = strfmt(
                "DFF #%zu (net %s) has no stable state label", i,
                label.c_str());
            return res;
        }
        labels[i] = label;
        in.state[label] = enc.dffQ[i];
    }

    const SatVar specBegin = solver.numVars();
    IsaSpec spec = buildIsaSpec(cnf, kind, in);
    const SatVar specEnd = solver.numVars();

    for (const auto &[name, lit] : spec.nextState) {
        if (!in.state.count(name)) {
            res.detail =
                "spec state '" + name + "' has no matching DFF label";
            return res;
        }
    }
    for (const auto &[name, lit] : in.state) {
        if (!spec.nextState.count(name)) {
            res.detail =
                "DFF label '" + name + "' not covered by the ISA spec";
            return res;
        }
    }

    // One XOR diff per state bit; the miter output asks whether any
    // of them can go high.
    std::vector<SatLit> diffs(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i)
        diffs[i] =
            cnf.mkXor(enc.dffD[i], spec.nextState.at(labels[i]));
    SatLit any = cnf.mkOrN(diffs);

    // Sweep the miter before the class solves: the spec's internal
    // signals mostly have a netlist twin, and a proven twin turns a
    // monolithic miter into local steps.
    std::vector<SatLit> primaries = in.instr;
    primaries.insert(primaries.end(), in.iport.begin(), in.iport.end());
    primaries.insert(primaries.end(), enc.dffQ.begin(), enc.dffQ.end());
    sweepIsaMiter(cnf, primaries, specBegin, specEnd, res.solves);

    res.proven = true;
    for (const InstrClass &cls : spec.classes) {
        std::vector<SatLit> assumptions;
        for (const auto &[bit, v] : cls.instrBits)
            assumptions.push_back(v ? in.instr[bit]
                                    : ~in.instr[bit]);
        for (const auto &[name, v] : cls.stateBits) {
            SatLit s = in.state.at(name);
            assumptions.push_back(v ? s : ~s);
        }
        assumptions.push_back(any);

        ++res.solves;
        IsaClassCheck chk;
        chk.name = cls.name;
        chk.proven = solver.solve(assumptions) == Result::Unsat;
        if (!chk.proven) {
            res.proven = false;
            chk.cex = extractCex(solver, nl, enc);
            for (size_t i = 0; i < dffs.size(); ++i)
                if (solver.modelValue(diffs[i]))
                    chk.cex.mismatched.push_back(labels[i]);
        }
        res.classes.push_back(std::move(chk));
    }
    res.conflicts = solver.stats().conflicts;
    return res;
}

LintReport
equivLint(const Netlist &nl, IsaKind kind)
{
    LintReport rep;

    EquivResult plan = checkPlanEquivalence(nl);
    if (plan.proven) {
        rep.add({Severity::Note, "equiv-proven", "plan", {}, -1, -1,
                 strfmt("compiled word program == reference "
                        "semantics (%llu solves, %llu conflicts)",
                        static_cast<unsigned long long>(plan.solves),
                        static_cast<unsigned long long>(
                            plan.conflicts))});
    } else {
        rep.add({Severity::Error, "equiv-mismatch", "plan", {}, -1,
                 -1,
                 "compiled plan diverges from reference semantics: " +
                     (plan.hasCex ? plan.cex.text() : plan.detail)});
    }

    IsaEquivResult isa = checkIsaEquivalence(nl, kind);
    if (!isa.detail.empty()) {
        rep.add({Severity::Error, "equiv-mismatch", "isa", {}, -1, -1,
                 "ISA equivalence setup failed: " + isa.detail});
        return rep;
    }
    for (const IsaClassCheck &chk : isa.classes) {
        if (chk.proven)
            continue;
        rep.add({Severity::Error, "equiv-mismatch", "isa", {}, -1, -1,
                 "instruction class '" + chk.name +
                     "': netlist != ISA spec: " + chk.cex.text()});
    }
    if (isa.proven) {
        rep.add({Severity::Note, "equiv-proven", "isa", {}, -1, -1,
                 strfmt("netlist == ISA behavioral spec across %zu "
                        "instruction classes (%llu solves, %llu "
                        "conflicts)",
                        isa.classes.size(),
                        static_cast<unsigned long long>(isa.solves),
                        static_cast<unsigned long long>(
                            isa.conflicts))});
    }
    return rep;
}

} // namespace flexi
