/**
 * @file
 * Fleet lifecycle command-line driver.
 *
 *   flexifleet run    [--isa fc4|fc8] [--seed N] [--dies N]
 *                     [--epochs N] [--kernel NAME] [--program NAME]
 *                     [--work N] [--transients R] [--flips R]
 *                     [--lockstep] [--no-crc] [--no-watchdog]
 *                     [--no-recovery] [--retries N] [--no-restart]
 *                     [--max-repages N] [--vdd V] [--min-kernels N]
 *                     [--threads N] [--batch-lanes N]
 *                     [--checkpoint FILE] [--stop-after N]
 *                     [--json FILE]
 *   flexifleet resume --checkpoint FILE [--stop-after N]
 *                     [--threads N] [--batch-lanes N] [--json FILE]
 *   flexifleet report --checkpoint FILE [--json FILE]
 *
 * run: draw a deployed population from the wafer model's binned
 * supply and drive it through the configured number of field epochs,
 * checkpointing after each when --checkpoint is given; --stop-after
 * N stops once N epochs are done (deterministically equivalent to
 * killing the process there). resume: continue a checkpointed
 * campaign to completion — bit-identical to a run that was never
 * stopped, at any thread count. report: summarize a checkpoint
 * without running anything.
 *
 * Exit codes follow the flexilint contract: 0 = success, 1 =
 * runtime/data error (unreadable or corrupt checkpoint, engine
 * failure, a --json report that cannot be written), 2 = usage error
 * (unknown command, malformed or out-of-range option value, missing
 * required option).
 */

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"
#include "kernels/fc8_programs.hh"

using namespace flexi;

namespace
{

const char *gProgName = "flexifleet";

/** Largest --threads: a bound, so no value wraps to another. */
constexpr uint64_t kMaxThreads = 1024;

[[noreturn]] void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "%s: ", gProgName);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

struct Args
{
    int argc;
    char **argv;

    /** Consume "--name <value>"; nullptr when not present. */
    const char *
    option(const char *name) const
    {
        for (int i = 2; i + 1 < argc; ++i)
            if (!std::strcmp(argv[i], name))
                return argv[i + 1];
        return nullptr;
    }

    bool
    flag(const char *name) const
    {
        for (int i = 2; i < argc; ++i)
            if (!std::strcmp(argv[i], name))
                return true;
        return false;
    }

    /** Strict unsigned option: all-numeric and within range, else
     *  usage error (exit 2). Rejects negatives outright. */
    uint64_t
    number(const char *name, uint64_t fallback, uint64_t min = 0,
           uint64_t max = UINT64_MAX) const
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

    /** Strict real option in [0, max]: rejects negatives, NaN and
     *  infinities (exit 2). */
    double
    real(const char *name, double fallback, double max) const
    {
        const char *v = option(name);
        if (!v)
            return fallback;
        char *end = nullptr;
        double x = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(x >= 0.0 && x <= max))
            usageError("%s: expected a number in 0..%g, got '%s'",
                       name, max, v);
        return x;
    }
};

IsaKind
parseIsa(const char *name)
{
    if (!std::strcmp(name, "fc4"))
        return IsaKind::FlexiCore4;
    if (!std::strcmp(name, "fc8"))
        return IsaKind::FlexiCore8;
    usageError("unknown ISA '%s' (fleet campaigns deploy the "
               "fabricated cores: fc4|fc8)", name);
}

KernelId
parseKernel(const char *name)
{
    for (KernelId id : allKernels())
        if (!std::strcmp(name, kernelName(id)))
            return id;
    usageError("unknown kernel '%s'", name);
}

unsigned
parseFc8Program(const char *name)
{
    for (size_t p = 0; p < kNumFc8Programs; ++p)
        if (!std::strcmp(name, fc8ProgramName(
                                   static_cast<Fc8Program>(p))))
            return static_cast<unsigned>(p);
    usageError("unknown FlexiCore8 program '%s'", name);
}

FleetConfig
configFromArgs(const Args &args)
{
    FleetConfig cfg;
    if (const char *isa = args.option("--isa"))
        cfg.isa = parseIsa(isa);
    cfg.seed = args.number("--seed", 42);
    cfg.numDies = static_cast<uint32_t>(
        args.number("--dies", 512, 1, UINT32_MAX));
    cfg.epochs = static_cast<uint32_t>(
        args.number("--epochs", 4, 1, (1u << 20) - 1));
    if (const char *k = args.option("--kernel"))
        cfg.kernel = parseKernel(k);
    if (const char *p = args.option("--program"))
        cfg.fc8Program = parseFc8Program(p);
    cfg.workUnits = args.number("--work", 2, 1, kMaxWorkUnits);
    cfg.transientsPerEpoch = args.real("--transients", 0.25,
                                       FleetConfig::kMaxEventRate);
    cfg.flipsPerEpoch =
        args.real("--flips", 0.05, FleetConfig::kMaxEventRate);
    if (args.flag("--lockstep"))
        cfg.detectors.lockstep = true;
    if (args.flag("--no-crc"))
        cfg.detectors.outputCrc = false;
    if (args.flag("--no-watchdog"))
        cfg.detectors.watchdog = false;
    if (args.flag("--no-recovery"))
        cfg.recovery.enabled = false;
    cfg.recovery.maxRetries = static_cast<unsigned>(
        args.number("--retries", cfg.recovery.maxRetries, 0, 64));
    if (args.flag("--no-restart"))
        cfg.recovery.allowRestart = false;
    cfg.maxRepages = static_cast<unsigned>(
        args.number("--max-repages", 1, 0, 1u << 20));
    if (const char *vdd = args.option("--vdd")) {
        char *end = nullptr;
        cfg.vdd = std::strtod(vdd, &end);
        if (end == vdd || *end != '\0' ||
            !(std::isfinite(cfg.vdd) && cfg.vdd > 0))
            usageError("--vdd: expected a finite positive voltage, "
                       "got '%s'", vdd);
    }
    cfg.minKernels = static_cast<unsigned>(
        args.number("--min-kernels", 1, 1, 32));
    cfg.threads = static_cast<unsigned>(
        args.number("--threads", 0, 0, kMaxThreads));
    cfg.batchLanes = static_cast<unsigned>(
        args.number("--batch-lanes", LaneGroup::kMaxLanes, 1,
                    LaneGroup::kMaxLanes));
    return cfg;
}

void
printSummary(const FleetState &state)
{
    const FleetConfig &cfg = state.config;
    std::printf("%s fleet: %u dies, epoch %u/%u, seed %llu\n",
                isaName(cfg.isa), cfg.numDies, state.epochsDone,
                cfg.epochs, (unsigned long long)cfg.seed);
    std::printf("  alive %llu, pulled %llu, digest %016llx\n",
                (unsigned long long)state.aliveDies(),
                (unsigned long long)state.deaths,
                (unsigned long long)fleetDigest(state));
    for (uint32_t e = 0; e < state.epochsDone; ++e) {
        const auto &row = state.epochOutcomes[e];
        std::printf("  epoch %3u: availability %.4f, sdc %.4f  [", e,
                    state.availability(e), state.sdcRate(e));
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::printf("%s%s %llu", o ? ", " : "",
                        faultOutcomeName(static_cast<FaultOutcome>(o)),
                        (unsigned long long)row[o]);
        std::printf("]\n");
    }
    static const char *binNames[2] = {"functional", "salvaged"};
    for (size_t b = 0; b < 2; ++b) {
        std::printf("  %-10s [", binNames[b]);
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::printf("%s%s %llu", o ? ", " : "",
                        faultOutcomeName(static_cast<FaultOutcome>(o)),
                        (unsigned long long)state.binOutcomes[b][o]);
        std::printf("]\n");
    }
}

void
writeJson(const FleetState &state, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (!f)
        fatal("cannot write '%s'", path);
    const FleetConfig &cfg = state.config;
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"isa\": \"%s\",\n", isaName(cfg.isa));
    std::fprintf(f, "  \"seed\": %llu,\n",
                 (unsigned long long)cfg.seed);
    std::fprintf(f, "  \"dies\": %u,\n", cfg.numDies);
    std::fprintf(f, "  \"epochs\": %u,\n", cfg.epochs);
    std::fprintf(f, "  \"epochs_done\": %u,\n", state.epochsDone);
    std::fprintf(f, "  \"alive\": %llu,\n",
                 (unsigned long long)state.aliveDies());
    std::fprintf(f, "  \"pulled\": %llu,\n",
                 (unsigned long long)state.deaths);
    std::fprintf(f, "  \"digest\": \"%016llx\",\n",
                 (unsigned long long)fleetDigest(state));
    std::fprintf(f, "  \"epoch_stats\": [\n");
    for (uint32_t e = 0; e < state.epochsDone; ++e) {
        std::fprintf(f,
                     "    {\"epoch\": %u, \"availability\": %.6f, "
                     "\"sdc_rate\": %.6f, \"outcomes\": [", e,
                     state.availability(e), state.sdcRate(e));
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::fprintf(f, "%s%llu", o ? ", " : "",
                         (unsigned long long)
                             state.epochOutcomes[e][o]);
        std::fprintf(f, "]}%s\n",
                     e + 1 < state.epochsDone ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    static const char *binNames[2] = {"functional", "salvaged"};
    std::fprintf(f, "  \"bin_outcomes\": {\n");
    for (size_t b = 0; b < 2; ++b) {
        std::fprintf(f, "    \"%s\": [", binNames[b]);
        for (size_t o = 0; o < kNumFaultOutcomes; ++o)
            std::fprintf(f, "%s%llu", o ? ", " : "",
                         (unsigned long long)state.binOutcomes[b][o]);
        std::fprintf(f, "]%s\n", b == 0 ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    // A full disk or a closed pipe shows up only as a stream error or
    // a failed flush at close: report it, never exit 0 on a lost
    // report.
    bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed)
        fatal("cannot write '%s': %s", path, std::strerror(errno));
}

int
cmdRun(const Args &args)
{
    FleetConfig cfg = configFromArgs(args);
    const char *checkpoint = args.option("--checkpoint");
    uint32_t stopAfter = static_cast<uint32_t>(
        args.number("--stop-after", 0, 0, UINT32_MAX));

    FleetEngine engine(cfg);
    FleetState state = engine.init();
    engine.run(state, stopAfter,
               checkpoint ? std::string(checkpoint)
                          : std::string());
    // The last checkpoint is only queued: a write error must exit 1.
    flushFleetCheckpoints();
    printSummary(state);
    if (const char *json = args.option("--json"))
        writeJson(state, json);
    return 0;
}

int
cmdResume(const Args &args, bool runEpochs)
{
    const char *checkpoint = args.option("--checkpoint");
    if (!checkpoint)
        usageError("%s needs --checkpoint FILE",
                   runEpochs ? "resume" : "report");

    FleetState state = loadFleetCheckpoint(checkpoint);
    if (runEpochs) {
        // Execution knobs may change across a resume; everything
        // semantic comes from the checkpoint.
        state.config.threads = static_cast<unsigned>(args.number(
            "--threads", state.config.threads, 0, kMaxThreads));
        state.config.batchLanes = static_cast<unsigned>(
            args.number("--batch-lanes", state.config.batchLanes, 1,
                        LaneGroup::kMaxLanes));
        uint32_t stopAfter = static_cast<uint32_t>(
            args.number("--stop-after", 0, 0, UINT32_MAX));
        FleetEngine engine(state.config);
        engine.run(state, stopAfter, checkpoint);
        flushFleetCheckpoints();
    }
    printSummary(state);
    if (const char *json = args.option("--json"))
        writeJson(state, json);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 1 && argv[0])
        gProgName = argv[0];
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <run|resume|report> [options]\n",
                     argv[0]);
        return 2;
    }
    Args args{argc, argv};
    try {
        if (!std::strcmp(argv[1], "run"))
            return cmdRun(args);
        if (!std::strcmp(argv[1], "resume"))
            return cmdResume(args, true);
        if (!std::strcmp(argv[1], "report"))
            return cmdResume(args, false);
        std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
        return 2;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
