/**
 * @file
 * Resilience command-line driver.
 *
 *   flexifault campaign [--isa fc4|fc8|ext|ls] [--seed N]
 *                       [--injections N] [--work N] [--threads N]
 *                       [--no-detectors] [--no-recovery] [--lockstep]
 *                       [--batch-lanes N]
 *   flexifault salvage  [--isa fc4|fc8] [--seed N] [--cycles N]
 *                       [--vdd V] [--min-kernels N] [--threads N]
 *   flexifault atpg     [--isa fc4|fc8] [--seed N] [--max-faults N]
 *                       [--cycles N] [--threads N]
 *
 * campaign: inject in-field faults while a kernel runs and classify
 * each as masked / recovered / detected / SDC / hang. salvage: run
 * the Table 5 wafer study, then re-bin failed dies that still
 * complete benchmark kernels under the detect-and-recover runtime.
 * atpg: stuck-at coverage of the wafer-test vector suite with SAT
 * triage of the escapes (test hole vs provably redundant).
 *
 * Exit codes follow the flexilint contract: 0 = success, 1 =
 * runtime error (a failed baseline run), 2 = usage error (unknown
 * command or ISA, an ISA other than fc4|fc8 for salvage or atpg,
 * a malformed or out-of-range option value — a negative seed,
 * --batch-lanes 0, --work 0, a --vdd that is not a finite positive
 * voltage). Every integer option has an explicit range, so no value
 * wraps or runs unbounded.
 */

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/atpg.hh"
#include "common/logging.hh"
#include "resilience/fault_campaign.hh"
#include "resilience/salvage.hh"
#include "yield/test_program.hh"

using namespace flexi;

namespace
{

/** @name Option bounds: every run they admit stays finite and small. */
///@{
constexpr uint64_t kMaxInjections = 1u << 20;
constexpr uint64_t kMaxCycles = 100000;   ///< probe / ATPG cycles
constexpr uint64_t kMaxThreads = 1024;
///@}

/** Usage errors exit 2, per the flexilint exit-code contract. */
[[noreturn]] void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

IsaKind
parseIsa(const char *name)
{
    if (!std::strcmp(name, "fc4"))
        return IsaKind::FlexiCore4;
    if (!std::strcmp(name, "fc8"))
        return IsaKind::FlexiCore8;
    if (!std::strcmp(name, "ext"))
        return IsaKind::ExtAcc4;
    if (!std::strcmp(name, "ls"))
        return IsaKind::LoadStore4;
    usageError("unknown ISA '%s' (expected fc4|fc8|ext|ls)", name);
}

/** The ISA of a command that probes the fabricated cores. */
IsaKind
parseFabricatedIsa(const char *name)
{
    IsaKind isa = parseIsa(name);
    if (isa != IsaKind::FlexiCore4 && isa != IsaKind::FlexiCore8)
        usageError("ISA '%s' was never fabricated (expected fc4|fc8)",
                   name);
    return isa;
}

struct Args
{
    int argc;
    char **argv;
    int pos = 2;

    /** Consume "--name <value>"; returns nullptr when not present. */
    const char *
    option(const char *name)
    {
        for (int i = pos; i + 1 < argc; ++i) {
            if (!std::strcmp(argv[i], name))
                return argv[i + 1];
        }
        return nullptr;
    }

    bool
    flag(const char *name) const
    {
        for (int i = pos; i < argc; ++i)
            if (!std::strcmp(argv[i], name))
                return true;
        return false;
    }

    /** Strict unsigned option: all-numeric and within
     *  [@p min, @p max], else usage error (exit 2). */
    uint64_t
    number(const char *name, uint64_t fallback, uint64_t min,
           uint64_t max)
    {
        const char *v = option(name);
        if (!v)
            return fallback;
        char *end = nullptr;
        errno = 0;
        unsigned long long n = std::strtoull(v, &end, 0);
        if (*v == '-' || *v == '\0' || end == v || *end != '\0' ||
            errno == ERANGE || n < min || n > max)
            usageError("%s: expected an integer in %llu..%llu, got "
                       "'%s'", name, (unsigned long long)min,
                       (unsigned long long)max, v);
        return n;
    }

    /**
     * Consume "--name <value>" as a lane count: strictly numeric,
     * at least 1, at most @p max (the compiled group maximum).
     * Anything else is a usage error (exit 2).
     */
    unsigned
    laneCount(const char *name, unsigned fallback, unsigned max)
    {
        const char *v = option(name);
        if (!v)
            return fallback;
        char *end = nullptr;
        unsigned long long n = std::strtoull(v, &end, 0);
        if (*v == '-' || end == v || *end != '\0' || n == 0 ||
            n > max)
            usageError("%s: expected a lane count in 1..%u, got "
                       "'%s'", name, max, v);
        return static_cast<unsigned>(n);
    }
};

int
cmdCampaign(Args &args)
{
    CampaignConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.isa = parseIsa(isa);
    cfg.seed = args.number("--seed", 1, 0, UINT64_MAX);
    cfg.injections = static_cast<unsigned>(
        args.number("--injections", 96, 1, kMaxInjections));
    cfg.workUnits = args.number("--work", 6, 1, kMaxWorkUnits);
    cfg.threads = static_cast<unsigned>(
        args.number("--threads", 0, 0, kMaxThreads));
    // 512 = full wide-lane prescreen, 1 = no prescreen (every
    // injection takes the lane-parallel checked runtime); outcomes
    // are bit-identical for any value.
    cfg.batchLanes = args.laneCount("--batch-lanes", 512,
                                    LaneGroup::kMaxLanes);
    if (args.flag("--no-detectors"))
        cfg.detectors = DetectorConfig{false, false, false,
                                       cfg.detectors.watchdogCycles};
    if (args.flag("--lockstep"))
        cfg.detectors.lockstep = true;
    if (args.flag("--no-recovery"))
        cfg.recovery.enabled = false;

    CampaignResult res = runFaultCampaign(cfg);
    CampaignCounts c = res.counts();
    std::printf("%s: %u injections, seed %llu (baseline %llu cycles, "
                "%s)\n",
                isaName(cfg.isa), cfg.injections,
                (unsigned long long)cfg.seed,
                (unsigned long long)res.baselineCycles,
                res.baselineCorrect ? "clean" : "BASELINE FAILED");
    for (size_t o = 0; o < kNumFaultOutcomes; ++o)
        std::printf("  %-10s %llu\n",
                    faultOutcomeName(static_cast<FaultOutcome>(o)),
                    (unsigned long long)c.n[o]);
    return res.baselineCorrect ? 0 : 1;
}

int
cmdSalvage(Args &args)
{
    SalvageConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.study.isa = parseFabricatedIsa(isa);
    cfg.study.seed = args.number("--seed", 42, 0, UINT64_MAX);
    cfg.study.testCycles = args.number("--cycles", 500, 1, kMaxCycles);
    cfg.study.threads = static_cast<unsigned>(
        args.number("--threads", 0, 0, kMaxThreads));
    cfg.minKernels = static_cast<unsigned>(
        args.number("--min-kernels", 1, 1, 32));
    if (const char *vdd = args.option("--vdd")) {
        char *end = nullptr;
        cfg.vdd = std::strtod(vdd, &end);
        if (end == vdd || *end != '\0' ||
            !(std::isfinite(cfg.vdd) && cfg.vdd > 0))
            usageError("--vdd: expected a finite positive voltage, "
                       "got '%s'", vdd);
    }

    SalvageReport rep = runSalvageStudy(cfg);
    std::printf("%s wafer, seed %llu, binned at %.1f V (inclusion "
                "zone):\n",
                rep.study.spec.name.c_str(),
                (unsigned long long)cfg.study.seed, cfg.vdd);
    std::printf("  raw yield        %.4f\n", rep.rawYield(true));
    std::printf("  effective yield  %.4f\n",
                rep.effectiveYield(true));
    std::printf("  functional %zu, salvaged %zu, dead %zu\n",
                rep.binCount(DieBin::Functional, true),
                rep.binCount(DieBin::Salvaged, true),
                rep.binCount(DieBin::Dead, true));
    for (const DieSalvage &v : rep.dies) {
        if (v.bin != DieBin::Salvaged)
            continue;
        const DieResult &die = rep.study.dies[v.dieIndex];
        if (!die.site.inInclusionZone)
            continue;
        std::printf("  die %3zu: %u/%u kernels (mask 0x%02x), %u "
                    "detections, %u retries, %u restarts\n",
                    v.dieIndex, v.kernelsPassed, v.kernelsTotal,
                    v.passedMask, v.detections, v.retries,
                    v.restarts);
    }
    return 0;
}

int
cmdAtpg(Args &args)
{
    AtpgConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.isa = parseFabricatedIsa(isa);
    uint64_t seed = args.number("--seed", 11, 0, UINT64_MAX);
    cfg.simCycles = args.number("--cycles", 1500, 1, kMaxCycles);
    cfg.maxFaults = args.number("--max-faults", 0, 0, UINT32_MAX);
    cfg.threads = static_cast<unsigned>(
        args.number("--threads", 0, 0, kMaxThreads));

    Program prog = makeTestProgram(cfg.isa, seed);
    auto inputs = makeTestInputs(cfg.isa, 256, seed);
    AtpgReport rep = runAtpg(cfg, prog, inputs);
    std::printf("%s: %zu stuck-at faults, %zu sim-detected "
                "(%.1f%%)\n",
                isaName(cfg.isa), rep.faults, rep.simDetected,
                100.0 * rep.simCoverage());
    std::printf("escapes: %zu testable (ATPG pattern exists), %zu "
                "provably redundant\n",
                rep.testable, rep.redundant);
    std::printf("testable-fault coverage %.1f%% (%llu solver calls, "
                "%llu conflicts)\n",
                100.0 * rep.testableCoverage(),
                (unsigned long long)rep.solves,
                (unsigned long long)rep.conflicts);
    for (const AtpgFault &f : rep.escapes)
        if (f.testable)
            std::printf("  hole: %s stuck-at-%d [%s]\n    %s\n",
                        f.net.c_str(), f.fault.value ? 1 : 0,
                        f.module.c_str(), f.pattern.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <campaign|salvage|atpg> [options]\n",
                     argv[0]);
        return 2;
    }
    Args args{argc, argv};
    try {
        if (!std::strcmp(argv[1], "campaign"))
            return cmdCampaign(args);
        if (!std::strcmp(argv[1], "salvage"))
            return cmdSalvage(args);
        if (!std::strcmp(argv[1], "atpg"))
            return cmdAtpg(args);
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
