#include "salvage.hh"

#include <cmath>
#include <memory>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "yield/die_model.hh"

namespace flexi
{

namespace
{

constexpr uint64_t kSalvageSalt = 0x5A17A6EDull;
/** Per-kernel sub-stream stride within one die's salvage stream. */
constexpr uint64_t kKernelStride = 16;

} // namespace

const char *
dieBinName(DieBin bin)
{
    switch (bin) {
      case DieBin::Functional: return "functional";
      case DieBin::Salvaged: return "salvaged";
      case DieBin::Dead: return "dead";
    }
    return "?";
}

double
SalvageReport::rawYield(bool inclusion_only) const
{
    return study.yield(vdd, inclusion_only);
}

double
SalvageReport::effectiveYield(bool inclusion_only) const
{
    size_t total = 0, good = 0;
    for (size_t i = 0; i < dies.size(); ++i) {
        if (inclusion_only && !study.dies[i].site.inInclusionZone)
            continue;
        ++total;
        good += dies[i].bin != DieBin::Dead;
    }
    return total ? static_cast<double>(good) / total : 0.0;
}

size_t
SalvageReport::binCount(DieBin bin, bool inclusion_only) const
{
    size_t count = 0;
    for (size_t i = 0; i < dies.size(); ++i) {
        if (inclusion_only && !study.dies[i].site.inInclusionZone)
            continue;
        count += dies[i].bin == bin;
    }
    return count;
}

std::vector<SalvageKernel>
salvageSuite(const SalvageConfig &config)
{
    IsaKind isa = config.study.isa;
    uint64_t inputSeed = config.study.seed ^ kSalvageSalt;
    std::vector<SalvageKernel> suite;
    auto add = [&](Program prog, std::vector<uint8_t> inputs,
                   size_t targetOutputs) {
        SalvageKernel &k = suite.emplace_back(
            SalvageKernel{std::move(prog), std::move(inputs), {}});
        k.runCfg.isa = isa;
        k.runCfg.detectors = config.detectors;
        k.runCfg.recovery = config.recovery;
        k.runCfg.targetOutputs = targetOutputs;
        k.runCfg.maxInstructions = config.maxInstructions;
    };
    if (isa == IsaKind::FlexiCore8) {
        for (size_t p = 0; p < kNumFc8Programs; ++p) {
            auto id = static_cast<Fc8Program>(p);
            add(assemble(isa, fc8ProgramSource(id)),
                fc8ProgramInputs(id, config.workUnits, inputSeed),
                config.workUnits);
        }
    } else {
        for (KernelId id : allKernels())
            add(assemble(isa, kernelSource(id, isa)),
                kernelInputs(id, config.workUnits, inputSeed),
                config.workUnits * kernelOutputsPerWork(id));
    }
    return suite;
}

FaultSchedule
salvageGlitchSchedule(const SalvageConfig &config, const Netlist &golden,
                      const DieResult &die, double glitchRate,
                      size_t kernel, uint64_t baselineCycles)
{
    FaultSchedule sched;
    if (glitchRate <= 0)
        return sched;
    Rng rng(deriveSeed(config.study.seed ^ kSalvageSalt,
                       die.site.index * kKernelStride + kernel));
    uint64_t horizon = 2 * baselineCycles + 64;
    for (uint64_t c = 0; c < horizon; ++c) {
        if (!rng.chance(glitchRate))
            continue;
        NetId net = static_cast<NetId>(rng.below(golden.numNets()));
        sched.transients.push_back({net, rng.chance(0.5), c, c + 1});
    }
    return sched;
}

SalvageReport
runSalvageStudy(const SalvageConfig &config)
{
    if (!config.study.gateLevelErrors)
        fatal("salvage binning needs gateLevelErrors (the recorded "
              "per-die fault lists)");
    if (!(std::isfinite(config.vdd) && config.vdd > 0))
        fatal("salvage: vdd must be a finite positive voltage, got %g",
              config.vdd);

    SalvageReport report;
    report.vdd = config.vdd;
    report.study = runWaferStudy(config.study);

    IsaKind isa = config.study.isa;
    if (isa != IsaKind::FlexiCore4 && isa != IsaKind::FlexiCore8)
        fatal("salvage binning models the fabricated cores, not %s",
              isaName(isa));
    std::unique_ptr<Netlist> golden = buildCoreNetlist(isa);
    std::vector<SalvageKernel> suite = salvageSuite(config);
    DieModel model(report.study.spec, config.study.params);

    // Every die that failed the probe at the binning supply is
    // re-examined: the exact faulty die, rebuilt from its recorded
    // stuck-ats, glitching at the per-cycle rate the probe model
    // expects of it at this supply.
    std::vector<size_t> failed;
    std::vector<const std::vector<StuckFault> *> stuck;
    report.dies.resize(report.study.dies.size());
    for (size_t i = 0; i < report.dies.size(); ++i) {
        const DieResult &die = report.study.dies[i];
        report.dies[i].dieIndex = i;
        report.dies[i].kernelsTotal = static_cast<unsigned>(suite.size());
        if (!(config.vdd > 4.0 ? die.at45V : die.at3V).functional()) {
            failed.push_back(i);
            stuck.push_back(&die.faults);
        }
    }

    for (size_t k = 0; k < suite.size(); ++k) {
        const SalvageKernel &w = suite[k];
        // The kernel's golden run, recorded once: its length is the
        // horizon the per-die glitch schedules are drawn over.
        GoldenTape tape = checkedTape(w.prog, w.inputs, w.runCfg);
        const GoldenTape::Point &baseline = tape.at(tape.last());
        if (!baseline.done)
            fatal("salvage: suite kernel %zu needs more than "
                  "maxInstructions = %llu instructions", k,
                  static_cast<unsigned long long>(config.maxInstructions));
        std::vector<FaultSchedule> sched(failed.size());
        std::vector<const FaultSchedule *> schedOf(failed.size());
        parallelFor(failed.size(), config.study.threads, [&](size_t j) {
            const DieResult &die = report.study.dies[failed[j]];
            sched[j] = salvageGlitchSchedule(
                config, *golden, die,
                model.glitchRate(die.sample, config.vdd), k,
                baseline.elapsed);
            schedOf[j] = &sched[j];
        });
        PopulationResult runs = runCheckedPopulation(
            *golden, tape, w.runCfg, schedOf, &stuck,
            LaneGroup::kMaxLanes, config.study.threads, false);
        if (runs.faultFree.outcome != CheckedOutcome::Completed ||
            !runs.faultFree.outputsCorrect)
            panic("salvage baseline failed on a pristine die");
        for (size_t j = 0; j < failed.size(); ++j) {
            const CheckedRunSummary &run = runs.die(j);
            DieSalvage &verdict = report.dies[failed[j]];
            verdict.detections += run.detections;
            verdict.retries += run.retries;
            verdict.restarts += run.restarts;
            if (run.outcome == CheckedOutcome::Completed &&
                run.outputsCorrect) {
                ++verdict.kernelsPassed;
                verdict.passedMask |= 1u << k;
            }
        }
    }
    for (size_t i : failed)
        report.dies[i].bin = report.dies[i].kernelsPassed >=
                                     config.minKernels
                                 ? DieBin::Salvaged
                                 : DieBin::Dead;
    return report;
}

} // namespace flexi
