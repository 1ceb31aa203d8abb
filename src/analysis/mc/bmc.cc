#include "bmc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace flexi
{

namespace
{

/**
 * Read a full multi-cycle trace out of the solver model: every
 * primary input and every state bit of every frame, by name, in
 * deterministic (map / commit) order.
 */
McTrace
extractTrace(const SatSolver &solver, const Netlist &nl,
             const Unrolling &u, const McProperty &p,
             unsigned violation)
{
    McTrace trace;
    trace.property = p.spec;
    trace.violationStep = violation;
    auto dffs = nl.dffs();
    // The frames the violating instance spans; any later ones were
    // not switched on.
    for (unsigned t = 0; t < violation + p.window(); ++t) {
        McFrame fr;
        for (const auto &in : nl.primaryInputs())
            fr.inputs.emplace_back(
                in.first,
                solver.modelValue(u.netLit(t, in.second)));
        for (size_t i = 0; i < dffs.size(); ++i)
            fr.state.emplace_back(
                nl.netName(dffs[i].q),
                solver.modelValue(u.stateLit(t, i)));
        trace.frames.push_back(std::move(fr));
    }
    return trace;
}

/** Fixed, so solve counts repeat run to run. */
constexpr uint64_t kXFreeSampleSeed = 0x5EEDF1A7ull;

McResult
invalidProperty(const McProperty &p)
{
    McResult r;
    r.status = McStatus::Invalid;
    r.detail = strfmt("'%s' is not a frame property (xfree runs "
                      "through seqResetCoverage())",
                      p.spec.c_str());
    return r;
}

} // namespace

McSession::Side::Side(const Netlist &nl, const McModel &model)
    : cnf(solver), u(cnf, nl, model, true)
{
}

McSession::McSession(const Netlist &nl, const McModel &model,
                     bool simplePath)
    : nl_(nl), simplePath_(simplePath), step_(nl, model),
      init_(nl, model)
{
}

SatSolver::Result
McSession::solve(Side &side, const std::vector<SatLit> &assume,
                 McResult &r)
{
    uint64_t before = side.solver.stats().conflicts;
    ++r.solves;
    SatSolver::Result res = side.solver.solve(assume);
    r.conflicts += side.solver.stats().conflicts - before;
    return res;
}

McResult
McSession::bmc(const McProperty &p, unsigned depth)
{
    if (p.kind == McProperty::Kind::XFree)
        return invalidProperty(p);
    Unrolling &u = init_.u;
    if (u.frames() == 0) {
        u.addFrame();
        u.assertInit();
    }

    McResult r;
    unsigned w = p.window();
    for (unsigned t = 0; t <= depth; ++t) {
        u.ensureFrames(t + w);
        SatLit pt = propertyLit(init_.cnf, u, p, t);
        std::vector<SatLit> assume;
        u.assumeWindow(t + w, assume);
        assume.push_back(~pt);
        if (solve(init_, assume, r) == SatSolver::Result::Sat) {
            r.status = McStatus::Falsified;
            r.depth = t;
            r.trace = extractTrace(init_.solver, nl_, u, p, t);
            r.detail = strfmt("'%s' violated %u cycle%s after "
                              "power-on",
                              p.spec.c_str(), t, t == 1 ? "" : "s");
            return r;
        }
        // This step is clean for good wherever its frames are on:
        // harden that, so deeper steps (and later questions) solve
        // against the accumulated invariant prefix.
        init_.cnf.addClause({~u.activation(t + w), pt});
    }

    r.status = McStatus::Clean;
    r.depth = depth;
    r.detail = strfmt("'%s' holds for %u cycles after power-on",
                      p.spec.c_str(), depth);
    return r;
}

McResult
McSession::induction(const McProperty &p, unsigned maxK)
{
    if (p.kind == McProperty::Kind::XFree)
        return invalidProperty(p);

    McResult r;
    unsigned w = p.window();
    // The premises P(0..k-1) hold under this question's own literal,
    // retired at the end so later questions never see them.
    Unrolling &u = step_.u;
    CnfBuilder &cnf = step_.cnf;
    SatLit premises = cnf.fresh();
    std::vector<SatLit> lits;   // P(t) on the step unrolling
    for (unsigned k = 1; k <= maxK; ++k) {
        // Step case: from any loop-free run of k clean steps
        // (arbitrary start state), step k is clean too. Frames
        // 0..k+w-1 are switched on, the ones a fresh unrolling of
        // this step would hold, with their simple-path pairs.
        u.ensureFrames(k + w);
        if (simplePath_)
            u.assertSimplePath();
        while (lits.size() <= k) {
            if (!lits.empty())
                cnf.addClause({~premises, lits.back()});
            lits.push_back(propertyLit(cnf, u, p, lits.size()));
        }
        std::vector<SatLit> assume;
        u.assumeWindow(k + w, assume);
        assume.push_back(premises);
        assume.push_back(~lits[k]);
        if (solve(step_, assume, r) == SatSolver::Result::Sat)
            continue;

        // Base case: no violation reachable in the first k steps.
        McResult base = bmc(p, k - 1);
        r.solves += base.solves;
        r.conflicts += base.conflicts;
        cnf.assertLit(~premises);
        if (base.status == McStatus::Falsified) {
            base.solves = r.solves;
            base.conflicts = r.conflicts;
            return base;
        }
        r.status = McStatus::Proved;
        r.depth = k;
        r.detail = strfmt("'%s' proved by %u-induction%s",
                          p.spec.c_str(), k,
                          simplePath_ ? " (simple-path)" : "");
        return r;
    }

    cnf.assertLit(~premises);
    r.status = McStatus::Unknown;
    r.depth = maxK;
    r.detail = strfmt("'%s': induction did not close within k=%u",
                      p.spec.c_str(), maxK);
    return r;
}

McResult
checkBmc(const Netlist &nl, const McModel &model, const McProperty &p,
         unsigned depth)
{
    return McSession(nl, model).bmc(p, depth);
}

McResult
checkInduction(const Netlist &nl, const McModel &model,
               const McProperty &p, unsigned maxK, bool simplePath)
{
    return McSession(nl, model, simplePath).induction(p, maxK);
}

std::vector<uint8_t>
XFreeWitnessRuns::separated(size_t dffs) const
{
    std::vector<uint64_t> apart(stateWords, 0);
    for (unsigned p = 0; p < kPairs; ++p)
        if (live[p])
            for (size_t j = 0; j < stateWords; ++j)
                apart[j] |= final[p * stateWords + j] ^
                            final[(p + kPairs) * stateWords + j];
    std::vector<uint8_t> out(dffs, 0);
    for (size_t i = 0; i < dffs && !apart.empty(); ++i)
        out[i] = apart[i / 64] >> (i % 64) & 1;
    return out;
}

XFreeWitnessRuns
simulateXFreeWitnesses(const Netlist &nl, const McModel &model,
                       unsigned depth)
{
    constexpr unsigned kPairWords =
        XFreeWitnessRuns::kPairs / LaneGroup::kWordLanes;
    ResolvedModel env = resolveModel(nl, model);
    XFreeWitnessRuns runs;
    std::vector<int8_t> tie(nl.numNets(), -1);
    for (const auto &[net, value] : env.ties) {
        if (tie[net] >= 0 && tie[net] != value)
            return runs;   // contradictory ties: no model at all
        tie[net] = value;
    }
    std::vector<uint8_t> own(nl.numNets(), 0);
    unsigned instrTieMask = 0, instrTieValue = 0;
    for (size_t b = 0; b < env.instr.size(); ++b) {
        own[env.instr[b]] = 1;
        if (tie[env.instr[b]] >= 0) {
            instrTieMask |= 1u << b;
            instrTieValue |= unsigned(tie[env.instr[b]]) << b;
        }
    }

    LaneGroup g(nl);
    Rng rng(kXFreeSampleSeed);
    size_t ndff = g.numDffs();
    std::vector<uint8_t> state(ndff);
    for (unsigned lane = 0; lane < g.lanes(); ++lane) {
        uint64_t bits = 0;
        for (size_t i = 0; i < ndff; ++i) {
            if (i % 64 == 0)
                bits = rng.next();
            state[i] = bits >> (i % 64) & 1;
        }
        g.restoreDffState(lane, state);
    }
    runs.stateWords = g.dffStateWords();
    runs.init.resize(g.lanes() * runs.stateWords);
    g.packDffState(runs.init.data());

    BusHandle pcBus, instrBus;
    if (env.romClosed()) {
        pcBus = nl.outputBus("pc", kPcBits);
        instrBus = nl.inputBus("instr", env.instr.size());
    }
    std::array<uint8_t, LaneGroup::kMaxLanes> live, pc, pcAfter;
    std::array<uint32_t, LaneGroup::kMaxLanes> instr;
    live.fill(1);
    runs.inputs.resize(depth + 1);
    for (unsigned t = 0; t <= depth; ++t) {
        runs.inputs[t].reserve(nl.primaryInputs().size());
        for (const auto &[name, net] : nl.primaryInputs()) {
            if (own[net])
                continue;
            XFreeWitnessRuns::LaneWords words{};
            for (unsigned w = 0; w < kPairWords; ++w) {
                uint64_t v = tie[net] < 0 ? rng.next()
                                          : tie[net] ? ~0ull : 0;
                words[w] = words[w + kPairWords] = v;
            }
            g.setInputLanes(name, words.data());
            runs.inputs[t].emplace_back(net, words);
        }
        if (env.romClosed()) {
            g.evaluate();
            g.gatherBusBytes(pcBus, pc.data());
            for (unsigned lane = 0; lane < g.lanes(); ++lane) {
                instr[lane] = env.rom[pc[lane] % kPageSize];
                if ((instr[lane] ^ instrTieValue) & instrTieMask)
                    live[lane] = 0;
            }
            g.setBusLanes(instrBus, instr.data());
        }
        g.evaluate();
        if (env.romClosed()) {
            g.gatherBusBytes(pcBus, pcAfter.data());
            for (unsigned lane = 0; lane < g.lanes(); ++lane)
                live[lane] &= pc[lane] == pcAfter[lane];
        }
        // The last frame only has to be consistent: the state it
        // shows is the one after `depth` edges.
        if (t < depth)
            g.clockEdge();
    }
    runs.final.resize(g.lanes() * runs.stateWords);
    g.packDffState(runs.final.data());
    for (unsigned p = 0; p < XFreeWitnessRuns::kPairs; ++p)
        runs.live[p] = live[p] && live[p + XFreeWitnessRuns::kPairs];
    return runs;
}

SeqResetCoverageResult
seqResetCoverage(const Netlist &nl, const McModel &model,
                 unsigned depth)
{
    SeqResetCoverageResult r;
    r.depth = depth;
    if (depth == 0) {
        r.detail = "xfree depth must be at least 1";
        return r;
    }

    // Witnesses first: nearly every bit is separable, and a
    // simulated pair whose copies differ on a bit proves it uncovered
    // without a search of its own. Only the unseparated bits get a
    // solve, over a two-copy unrolling built for them alone.
    size_t ndff = nl.dffs().size();
    std::vector<uint8_t> separated =
        simulateXFreeWitnesses(nl, model, depth).separated(ndff);
    r.covered.assign(ndff, 0);
    size_t num_covered = 0;
    if (std::find(separated.begin(), separated.end(), 0) !=
        separated.end()) {
        SatSolver solver;
        CnfBuilder cnf(solver);
        Unrolling a(cnf, nl, model);
        Unrolling b(cnf, nl, model);
        a.ensureFrames(depth + 1);
        b.ensureFrames(depth + 1);
        // Both copies read the same input sequence; under the ROM-
        // closed model the instr bus is each copy's own fetch (it
        // follows that copy's PC), so it is exactly the non-instr
        // pads that are shared.
        std::vector<uint8_t> own(nl.numNets(), 0);
        for (NetId n : resolveModel(nl, model).instr)
            own[n] = 1;
        for (unsigned t = 0; t <= depth; ++t)
            for (const auto &in : nl.primaryInputs())
                if (!own[in.second])
                    cnf.bindEqual(a.netLit(t, in.second),
                                  b.netLit(t, in.second));

        for (size_t i = 0; i < ndff; ++i) {
            if (separated[i])
                continue;
            SatLit ne = cnf.mkXor(a.stateLit(depth, i),
                                  b.stateLit(depth, i));
            ++r.solves;
            if (solver.solve({ne}) == SatSolver::Result::Unsat) {
                r.covered[i] = 1;
                ++num_covered;
                // Harden the proven convergence: later bits usually
                // depend on earlier ones.
                cnf.assertLit(~ne);
                continue;
            }
            // The model is a witness for every later bit it
            // separates.
            for (size_t j = i + 1; j < ndff; ++j)
                separated[j] |=
                    solver.modelValue(a.stateLit(depth, j)) !=
                    solver.modelValue(b.stateLit(depth, j));
        }
        r.conflicts = solver.stats().conflicts;
    }

    r.ok = num_covered == ndff;
    r.detail = strfmt("%zu/%zu state bits self-initialize within "
                      "%u cycle%s",
                      num_covered, ndff, depth,
                      depth == 1 ? "" : "s");
    return r;
}

} // namespace flexi
