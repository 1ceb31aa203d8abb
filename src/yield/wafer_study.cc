#include "wafer_study.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "yield/test_program.hh"

namespace flexi
{

namespace
{

DesignSpec
computeDesignSpec(IsaKind isa)
{
    DesignSpec spec;
    std::unique_ptr<Netlist> nl;
    switch (isa) {
      case IsaKind::FlexiCore4:
        nl = buildFlexiCore4Netlist();
        spec.pullUpRefined = false;
        spec.currentSigma = 0.153;   // measured RSD, Section 4.2
        break;
      case IsaKind::FlexiCore8:
        nl = buildFlexiCore8Netlist();
        spec.pullUpRefined = true;   // post process-refinement wafer
        spec.currentSigma = 0.215;
        break;
      default:
        fatal("no fabricated netlist for %s", isaName(isa));
    }
    spec.name = nl->name();
    spec.devices = nl->totalDevices();
    spec.critDelayUnits = nl->criticalPathDelayUnits();
    spec.refCurrentUa = nl->totalStaticCurrentUa();
    return spec;
}

/**
 * Elaborated golden netlist of a fabricated core, built once per
 * process; per-die faulty instances are clone()d from it. Safe to
 * clone concurrently (the structure is immutable and shared).
 */
const Netlist &
templateNetlist(IsaKind isa)
{
    if (isa == IsaKind::FlexiCore4) {
        static const std::unique_ptr<Netlist> fc4 =
            buildFlexiCore4Netlist();
        return *fc4;
    }
    static const std::unique_ptr<Netlist> fc8 =
        buildFlexiCore8Netlist();
    return *fc8;
}

/** Probe one die at one voltage. */
DieProbe
probeDie(const DieModel &model, const DieSample &die, double vdd,
         const WaferStudyConfig &cfg, Netlist *faulty_netlist,
         bool gate_deferred, const Program &test_prog,
         const std::vector<uint8_t> &test_inputs, Rng &rng)
{
    DieProbe probe;
    probe.currentA = model.currentDraw(die, vdd);

    uint64_t errors = 0;
    if (die.hasDefects()) {
        if (gate_deferred) {
            // Gate-level errors are added by the batched lane phase
            // after all dies are sampled. Crucially this branch
            // consumes no RNG draws — neither does the immediate
            // gate-level branch below — so the per-die stream stays
            // aligned with the scalar path.
        } else if (cfg.gateLevelErrors && faulty_netlist) {
            LockstepResult res =
                runLockstep(*faulty_netlist, cfg.isa, test_prog,
                            test_inputs, cfg.testCycles);
            errors += res.errors;
            // A defect that the vectors happen to miss still usually
            // perturbs analog margins; count the die as suspect with
            // at least one error only if the fault sim saw any.
        } else {
            // Statistical fallback: defects corrupt a sizable share
            // of cycles.
            errors += 1 + rng.below(cfg.testCycles / 2);
        }
    }

    double expected =
        model.expectedTimingErrors(die, vdd, cfg.testCycles);
    if (expected > 0) {
        // Intermittent timing faults: at least one error once the
        // margin is gone.
        errors += 1 + static_cast<uint64_t>(
            expected * (0.5 + rng.uniform()));
    }

    probe.errors = errors;
    return probe;
}

} // namespace

DesignSpec
designSpecFor(IsaKind isa)
{
    // The spec is a pure function of the (immutable) netlist; cache
    // per core so hot callers — every runWaferStudy() — stop
    // rebuilding the whole netlist just to measure it.
    if (isa == IsaKind::FlexiCore4) {
        static const DesignSpec fc4 =
            computeDesignSpec(IsaKind::FlexiCore4);
        return fc4;
    }
    if (isa == IsaKind::FlexiCore8) {
        static const DesignSpec fc8 =
            computeDesignSpec(IsaKind::FlexiCore8);
        return fc8;
    }
    return computeDesignSpec(isa);   // fatals with the right name
}

double
WaferStudyResult::yield(double vdd, bool inclusion_only) const
{
    size_t total = 0, good = 0;
    for (const auto &die : dies) {
        if (inclusion_only && !die.site.inInclusionZone)
            continue;
        ++total;
        const DieProbe &probe = vdd > 4.0 ? die.at45V : die.at3V;
        good += probe.functional();
    }
    return total ? static_cast<double>(good) / total : 0.0;
}

RunningStat
WaferStudyResult::currentStats(double vdd) const
{
    RunningStat st;
    for (const auto &die : dies) {
        const DieProbe &probe = vdd > 4.0 ? die.at45V : die.at3V;
        if (probe.functional())
            st.add(probe.currentA);
    }
    return st;
}

WaferStudyResult
runWaferStudy(const WaferStudyConfig &config)
{
    WaferMap wafer;
    DesignSpec spec = designSpecFor(config.isa);
    DieModel model(spec, config.params);

    const Program &test_prog =
        cachedTestProgram(config.isa, config.seed);
    std::vector<uint8_t> test_inputs =
        makeTestInputs(config.isa, 256, config.seed);
    const Netlist *golden =
        config.gateLevelErrors ? &templateNetlist(config.isa)
                               : nullptr;

    WaferStudyResult result;
    result.config = config;
    result.spec = spec;
    result.dies.resize(wafer.numDies());

    // Lane batching applies to the gate-level fault sim only; 1
    // forces the scalar clone-per-die path.
    unsigned lanes = std::min<unsigned>(
        config.batchLanes ? config.batchLanes : 1,
        LaneGroup::kMaxLanes);
    const bool batched = golden && lanes > 1;

    const std::vector<DieSite> &sites = wafer.sites();
    parallelFor(sites.size(), config.threads, [&](size_t i) {
        const DieSite &site = sites[i];
        // Every die owns an RNG stream derived from (seed, site
        // index): probing order, die count, and thread count cannot
        // perturb any other die's draws.
        Rng rng(deriveSeed(config.seed ^ 0x3AFE12D1E5ull,
                           site.index));

        DieResult &die = result.dies[i];
        die.site = site;
        die.sample = model.sample(site, wafer, rng);

        // Draw the die's defects (if any). The scalar path breaks a
        // clone of the golden netlist right away; the batched path
        // only records the fault list and binds it to a lane later —
        // the RNG draws are identical either way.
        std::unique_ptr<Netlist> faulty;
        if (die.sample.hasDefects() && golden) {
            if (!batched)
                faulty = golden->clone();
            for (unsigned d = 0; d < die.sample.defects; ++d) {
                NetId net = static_cast<NetId>(
                    rng.below(golden->numNets()));
                StuckFault fault{net, rng.chance(0.5)};
                if (faulty)
                    faulty->injectFault(fault);
                die.faults.push_back(fault);
            }
        }

        die.at45V = probeDie(model, die.sample, kVddNominal, config,
                             faulty.get(), batched, test_prog,
                             test_inputs, rng);
        if (faulty)
            faulty->reset();
        die.at3V = probeDie(model, die.sample, kVddLow, config,
                            faulty.get(), batched, test_prog,
                            test_inputs, rng);
    });

    if (batched) {
        // Phase 2: gate-level fault sim of the defective dies, up to
        // 512 to a wide lane group. Batch membership is a pure
        // function of die index order (thread count cannot perturb
        // it), each lane's lockstep error count is bit-identical to
        // a scalar runLockstep of the same faulted die, and both
        // voltage probes receive the same count — exactly what the
        // scalar path computes by running the identical
        // deterministic lockstep once per voltage.
        std::vector<size_t> defective;
        for (size_t i = 0; i < result.dies.size(); ++i)
            if (result.dies[i].sample.hasDefects())
                defective.push_back(i);
        size_t num_batches = (defective.size() + lanes - 1) / lanes;
        parallelFor(num_batches, config.threads, [&](size_t b) {
            size_t begin = b * lanes;
            unsigned n = static_cast<unsigned>(std::min<size_t>(
                lanes, defective.size() - begin));
            LaneGroup group(*golden, n);
            for (unsigned lane = 0; lane < n; ++lane)
                for (const StuckFault &f :
                     result.dies[defective[begin + lane]].faults)
                    group.injectFault(lane, f);
            LockstepGroupResult res = runLockstepGroup(
                group, *golden, config.isa, test_prog, test_inputs,
                config.testCycles, /*early_exit=*/false);
            for (unsigned lane = 0; lane < n; ++lane) {
                DieResult &die =
                    result.dies[defective[begin + lane]];
                die.at45V.errors += res.errors[lane];
                die.at3V.errors += res.errors[lane];
            }
        });
    }
    return result;
}

} // namespace flexi
