#include "bmc.hh"

#include "common/logging.hh"

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
    for (unsigned t = 0; t < u.frames(); ++t) {
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

/**
 * Models sampled before xfree's per-bit solves. On the shipped cores
 * 0-1 of 39-47 state bits are covered, and four models leave at most
 * 8 bits to the per-bit loop (every core and single-page kernel, at
 * depths 1, 2 and 4).
 */
constexpr unsigned kXFreeSamples = 4;
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

McResult
checkBmc(const Netlist &nl, const McModel &model, const McProperty &p,
         unsigned depth)
{
    if (p.kind == McProperty::Kind::XFree)
        return invalidProperty(p);

    McResult r;
    SatSolver solver;
    CnfBuilder cnf(solver);
    Unrolling u(cnf, nl, model);
    u.addFrame();
    u.assertInit();

    unsigned w = p.window();
    for (unsigned t = 0; t <= depth; ++t) {
        u.ensureFrames(t + w);
        SatLit pt = propertyLit(cnf, u, p, t);
        ++r.solves;
        if (solver.solve({~pt}) == SatSolver::Result::Sat) {
            r.status = McStatus::Falsified;
            r.depth = t;
            r.trace = extractTrace(solver, nl, u, p, t);
            r.detail = strfmt("'%s' violated %u cycle%s after "
                              "power-on",
                              p.spec.c_str(), t, t == 1 ? "" : "s");
            r.conflicts = solver.stats().conflicts;
            return r;
        }
        // This step is clean for good: harden it so deeper steps
        // solve against the accumulated invariant prefix.
        cnf.assertLit(pt);
    }

    r.status = McStatus::Clean;
    r.depth = depth;
    r.detail = strfmt("'%s' holds for %u cycles after power-on",
                      p.spec.c_str(), depth);
    r.conflicts = solver.stats().conflicts;
    return r;
}

McResult
checkInduction(const Netlist &nl, const McModel &model,
               const McProperty &p, unsigned maxK, bool simplePath)
{
    if (p.kind == McProperty::Kind::XFree)
        return invalidProperty(p);

    McResult r;
    unsigned w = p.window();
    for (unsigned k = 1; k <= maxK; ++k) {
        // Step case on a fresh solver: from any loop-free run of k
        // clean steps (arbitrary start state), step k is clean too.
        SatSolver solver;
        CnfBuilder cnf(solver);
        Unrolling u(cnf, nl, model);
        u.ensureFrames(k + w);
        for (unsigned t = 0; t < k; ++t)
            cnf.assertLit(propertyLit(cnf, u, p, t));
        if (simplePath)
            u.assertSimplePath();
        SatLit pk = propertyLit(cnf, u, p, k);
        ++r.solves;
        bool step =
            solver.solve({~pk}) == SatSolver::Result::Unsat;
        r.conflicts += solver.stats().conflicts;
        if (!step)
            continue;

        // Base case: no violation reachable in the first k steps.
        McResult base = checkBmc(nl, model, p, k - 1);
        r.solves += base.solves;
        r.conflicts += base.conflicts;
        if (base.status == McStatus::Falsified) {
            base.solves = r.solves;
            base.conflicts = r.conflicts;
            return base;
        }
        r.status = McStatus::Proved;
        r.depth = k;
        r.detail = strfmt("'%s' proved by %u-induction%s",
                          p.spec.c_str(), k,
                          simplePath ? " (simple-path)" : "");
        return r;
    }

    r.status = McStatus::Unknown;
    r.depth = maxK;
    r.detail = strfmt("'%s': induction did not close within k=%u",
                      p.spec.c_str(), maxK);
    return r;
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

    SatSolver solver;
    CnfBuilder cnf(solver);
    Unrolling a(cnf, nl, model);
    Unrolling b(cnf, nl, model);
    a.ensureFrames(depth + 1);
    b.ensureFrames(depth + 1);

    // Both copies read the same input sequence; under the ROM-closed
    // model the instr bus is each copy's own fetch (it follows that
    // copy's PC), so it is exactly the non-instr pads that are
    // shared.
    std::vector<uint8_t> own(nl.numNets(), 0);
    if (model.program) {
        IsaKind isa = model.program->isa();
        bool wide = isa == IsaKind::ExtAcc4 ||
                    isa == IsaKind::LoadStore4;
        for (NetId n :
             resolvePadBus(nl, "instr", wide ? 16 : 8, true))
            own[n] = 1;
    }
    // The free primaries: the shared inputs of every frame and both
    // copies' power-on state.
    std::vector<SatLit> primaries;
    for (unsigned t = 0; t <= depth; ++t)
        for (const auto &in : nl.primaryInputs())
            if (!own[in.second]) {
                cnf.bindEqual(a.netLit(t, in.second),
                              b.netLit(t, in.second));
                primaries.push_back(a.netLit(t, in.second));
            }
    auto dffs = nl.dffs();
    for (size_t i = 0; i < dffs.size(); ++i) {
        primaries.push_back(a.stateLit(0, i));
        primaries.push_back(b.stateLit(0, i));
    }

    // Witnesses first: nearly every bit is separable, and any model
    // whose two copies differ on a bit proves it uncovered without a
    // search of its own. Only the unseparated bits get a solve.
    ModelSamples ms = sampleModels(solver, primaries, kXFreeSamples,
                                   kXFreeSampleSeed, r.solves);
    std::vector<uint8_t> separated(dffs.size(), 0);
    for (size_t i = 0; i < dffs.size(); ++i)
        separated[i] = ms.of(a.stateLit(depth, i)) !=
                       ms.of(b.stateLit(depth, i));

    r.covered.assign(dffs.size(), 0);
    size_t num_covered = 0;
    for (size_t i = 0; i < dffs.size(); ++i) {
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
        // The model is a witness for every later bit it separates.
        for (size_t j = i + 1; j < dffs.size(); ++j)
            separated[j] |=
                solver.modelValue(a.stateLit(depth, j)) !=
                solver.modelValue(b.stateLit(depth, j));
    }
    r.conflicts = solver.stats().conflicts;

    r.ok = num_covered == dffs.size();
    r.detail = strfmt("%zu/%zu state bits self-initialize within "
                      "%u cycle%s",
                      num_covered, dffs.size(), depth,
                      depth == 1 ? "" : "s");
    return r;
}

} // namespace flexi
