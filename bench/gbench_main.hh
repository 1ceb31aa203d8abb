/**
 * @file
 * The main() of the google-benchmark binaries (bench_sim_throughput,
 * bench_fleet, bench_formal), whose --benchmark_out JSON becomes a
 * committed BENCH_*.json snapshot.
 *
 * A snapshot is only meaningful from an optimized build: a debug
 * (assert-enabled) build is refused unless FLEXI_BENCH_ALLOW_DEBUG
 * is set, and the build type is recorded in the JSON context either
 * way. flexi_build_type is the authoritative flavor of the measured
 * code, and bench_compare.py refuses debug snapshots;
 * library_build_type (emitted by google-benchmark) describes the
 * harness. A debug harness only adds per-batch reporting overhead
 * outside the timed loops, so it is recorded and warned about rather
 * than refused: some distros only ship a debug-flavored libbenchmark.
 */

#ifndef FLEXI_BENCH_GBENCH_MAIN_HH
#define FLEXI_BENCH_GBENCH_MAIN_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include <benchmark/benchmark.h>

namespace flexi
{

/**
 * The build flavor the google-benchmark *library* was compiled with
 * (its NDEBUG, not ours). There is no public getter, but the
 * library's own JSONReporter prints it in the context block, so
 * render one into a string and read it back.
 */
inline std::string
benchmarkLibraryBuildType()
{
    benchmark::JSONReporter probe;
    std::ostringstream out;
    probe.SetOutputStream(&out);
    probe.SetErrorStream(&out);
    benchmark::BenchmarkReporter::Context ctx;
    probe.ReportContext(ctx);
    return out.str().find("library_build_type\": \"debug") !=
                   std::string::npos
               ? "debug"
               : "release";
}

/** Run the registered benchmarks of binary @p tool. */
inline int
gbenchMain(const char *tool, int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("flexi_build_type", "release");
#else
    if (!std::getenv("FLEXI_BENCH_ALLOW_DEBUG")) {
        std::fprintf(stderr,
                     "%s: refusing to benchmark a debug build "
                     "(numbers would be meaningless); configure with "
                     "-DCMAKE_BUILD_TYPE=Release or set "
                     "FLEXI_BENCH_ALLOW_DEBUG=1 to override\n",
                     tool);
        return 1;
    }
    benchmark::AddCustomContext("flexi_build_type", "debug");
#endif
    if (benchmarkLibraryBuildType() == "debug")
        std::fprintf(stderr,
                     "%s: warning: the google-benchmark library is a "
                     "debug build (library_build_type=debug in the "
                     "JSON context); measured loops are unaffected, "
                     "but harness overhead is not representative\n",
                     tool);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace flexi

#endif // FLEXI_BENCH_GBENCH_MAIN_HH
