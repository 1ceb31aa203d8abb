/**
 * @file
 * flexibench: the layered host-time benchmark program.
 *
 * One process runs one workload through the libraries' public entry
 * points and prints one JSON object as its last stdout line:
 *
 *   flexibench --workload wafer_lot|fleet_field|formal_lint
 *              --seed N --seconds S --threads T --workdir DIR
 *              [--trace 0|1] [--setup-only]
 *
 * --trace 0 measures the end-to-end metrics with tracing off: set-up
 * time, then a closed loop of top-level library calls ("units") that
 * cycles over the workload's distinct inputs for S seconds; each
 * input's cost is its fastest recurrence. --trace 1 runs a fixed amount of work twice, untraced
 * and then traced, with spans around every call into a layer plus
 * layer replicas that call the layers a monolithic entry point hides
 * on matched inputs; it reports the per-layer metrics and writes the
 * spans as a Chrome trace-event file into DIR. --setup-only stops
 * after set-up (run.py takes the median of several set-ups).
 *
 * Every unit folds its deterministic outputs into a digest; the
 * digests must repeat across the run and, on the default seed, match
 * the pinned values below. See README.md in this directory.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/equiv.hh"
#include "analysis/mc/mc_lint.hh"
#include "analysis/mc/seq_prune.hh"
#include "assembler/assembler.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "fleet/checkpoint.hh"
#include "fleet/fleet.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/inputs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"
#include "resilience/checked_run.hh"
#include "sim/core_sim.hh"
#include "sim/environment.hh"
#include "yield/die_model.hh"
#include "yield/test_program.hh"
#include "yield/wafer_study.hh"

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
#define FLEXIBENCH_UNOPTIMIZED 1
#endif

using namespace flexi;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------
// Digests: FNV-1a over the deterministic outputs of each unit.

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t
fold(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
foldStr(uint64_t h, const std::string &s)
{
    for (char c : s)
        h = fold(h, static_cast<uint8_t>(c));
    return fold(h, s.size());
}

uint64_t
foldDouble(uint64_t h, double d)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return fold(h, bits);
}

// ---------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.

struct Span
{
    std::string name;
    int64_t parent = -1;
    uint64_t unit = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/**
 * Span recorder. A span names the layer call it surrounds, the span
 * that caused it and the unit it belongs to. A replica span's parent
 * is the end-to-end unit span whose hidden work it replays, so the
 * unit's self time is the part no replica explains. Thread-safe;
 * disabled tracers record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }

    int64_t
    open(const std::string &name, int64_t parent, uint64_t unit)
    {
        if (!on_)
            return -1;
        int64_t now = sinceStart();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, parent, unit, now, now});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    void
    close(int64_t id)
    {
        if (id < 0)
            return;
        int64_t now = sinceStart();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].endNs = now;
    }

    /** Total duration (ms) and count of spans named @p name. */
    double
    totalMs(const std::string &name, size_t *count = nullptr) const
    {
        double ms = 0;
        size_t n = 0;
        for (const Span &s : spans_)
            if (s.name == name) {
                ms += (s.endNs - s.startNs) / 1e6;
                ++n;
            }
        if (count)
            *count = n;
        return ms;
    }

    /** Total self time (ms): duration minus the children's. */
    double
    selfMs(const std::string &name) const
    {
        std::vector<int64_t> child(spans_.size(), 0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[s.parent] += s.endNs - s.startNs;
        double ms = 0;
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                ms += (spans_[i].endNs - spans_[i].startNs - child[i]) /
                      1e6;
        return ms;
    }

    /** Sum of the durations of every child of a span named @p name. */
    double
    childMs(const std::string &name) const
    {
        double ms = 0;
        for (const Span &s : spans_)
            if (s.parent >= 0 && spans_[s.parent].name == name)
                ms += (s.endNs - s.startNs) / 1e6;
        return ms;
    }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%lld,"
                          "\"unit\":%llu}}%s\n",
                          s.name.c_str(), s.startNs / 1e3,
                          (s.endNs - s.startNs) / 1e3, i,
                          static_cast<long long>(s.parent),
                          static_cast<unsigned long long>(s.unit),
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
    }

  private:
    int64_t
    sinceStart() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    bool on_;
    Clock::time_point t0_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int64_t parent = -1,
          uint64_t unit = 0)
        : t_(t), id_(t.open(name, parent, unit))
    {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer &t_;
    int64_t id_;
};

// ---------------------------------------------------------------
// Run bookkeeping shared by the workloads.

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    unsigned threads = 1;
    std::string workdir = ".";
};

/** Units and checks of one run. */
struct Run
{
    Args args;
    Tracer tracer;
    double setupS = 0;
    /**
     * Fastest wall time (ms) of every distinct unit input, and of
     * every distinct batch (a unit, or a formal_lint round) with the
     * work it does. Inputs recur every cycle; host interference only
     * ever adds time, so a unit's fastest recurrence is its cost.
     */
    std::vector<double> unitMs;
    std::vector<double> batchMs;
    std::vector<uint64_t> batchWork;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Per-layer metrics (trace runs). */
    std::map<std::string, double> layer;

    explicit Run(const Args &a) : args(a), tracer(a.trace) {}

    /** Record one output check; a failure counts one failed unit. */
    void
    check(bool ok, const char *what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "flexibench: check failed: %s\n",
                         what);
        }
    }

    bool defaultSeed() const { return args.seed == 1; }

    void
    batchDone(size_t slot, uint64_t work, double ms)
    {
        keepFastest(batchMs, slot, ms);
        batchWork.resize(batchMs.size(), 0);
        batchWork[slot] = work;
    }

    static void
    keepFastest(std::vector<double> &best, size_t slot, double ms)
    {
        if (best.size() <= slot)
            best.resize(slot + 1, HUGE_VAL);
        best[slot] = std::min(best[slot], ms);
    }
};

/**
 * Time one unit (a top-level library call) on distinct input @p slot,
 * which does @p work units of work_per_s. Exceptions count as a
 * failed unit, never as a skipped one.
 */
template <typename Fn>
bool
timedUnit(Run &run, size_t slot, uint64_t work, Fn &&fn)
{
    auto t0 = Clock::now();
    bool ok = true;
    try {
        fn();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "flexibench: unit threw: %s\n", e.what());
        ok = false;
    }
    double ms = msBetween(t0, Clock::now());
    Run::keepFastest(run.unitMs, slot, ms);
    run.batchDone(slot, work, ms);
    ++run.attempted;
    run.failed += !ok;
    return ok;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::min(v.size() - 1, idx ? idx - 1 : 0)];
}

/**
 * Peak resident set of this process image (VmHWM). ru_maxrss would
 * also count the launching process, whose high-water mark survives
 * execve.
 */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0;
            in >> kb;
            return kb / 1024.0;
        }
        std::getline(in, key);
    }
    return 0;
}

/**
 * The end-to-end loop: call @p cycle -- one pass over every distinct
 * input of the workload (a lot, four campaigns, five proof rounds,
 * each at least 100 units so ten lie above unit_ms_p90) -- until the
 * run's seconds are spent.
 */
template <typename Fn>
void
measure(Run &run, Fn &&cycle)
{
    auto r0 = Clock::now();
    do
        cycle();
    while (msBetween(r0, Clock::now()) < run.args.seconds * 1e3);
}

/** Layer call counts and wall time of the traced run's setup. */
struct SetupLayers
{
    Tracer &t;
    int64_t root;

    std::unique_ptr<Netlist>
    build(IsaKind isa)
    {
        Scope s(t, "netlist.build", root);
        switch (isa) {
          case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
          case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
          case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
          case IsaKind::LoadStore4: return buildLoadStore4Netlist();
        }
        return nullptr;
    }

    Program
    assembleSource(IsaKind isa, const std::string &src)
    {
        Scope s(t, "assembler", root);
        return assemble(isa, src);
    }

    const Program &
    testProgram(IsaKind isa, uint64_t seed)
    {
        Scope s(t, "assembler", root);
        return cachedTestProgram(isa, seed);
    }
};

/** CoreSim replica: golden-model host speed on a single-page image. */
void
coreSimReplica(Run &run, const Program &prog, IsaKind isa,
               const std::vector<uint8_t> &inputs, uint64_t instrs)
{
    FifoEnvironment env;
    env.pushInputs(inputs);
    TimingConfig cfg;
    cfg.isa = isa;
    CoreSim sim(cfg, prog, env);
    uint64_t done = 0;
    {
        Scope s(run.tracer, "coresim");
        for (; done < instrs && sim.step(); ++done) {
        }
    }
    run.layer["coresim.instructions"] += static_cast<double>(done);
}

// ---------------------------------------------------------------
// wafer_lot: gate-level runWaferStudy over a lot of consecutive-seed
// wafers, alternating FlexiCore4 and FlexiCore8.

constexpr unsigned kLotWafers = 128;

/** Pinned lot digest for --seed 1. */
constexpr uint64_t kPinnedLot = 0xea14b04ea4c2c41cull;

WaferStudyConfig
lotWafer(const Run &run, unsigned i, unsigned threads)
{
    WaferStudyConfig cfg;
    cfg.isa = i % 2 ? IsaKind::FlexiCore8 : IsaKind::FlexiCore4;
    cfg.seed = run.args.seed * kLotWafers + i;
    cfg.threads = threads;
    return cfg;
}

uint64_t
waferDigest(const WaferStudyResult &res)
{
    uint64_t h = kFnvOffset;
    h = foldDouble(h, res.yield(4.5, true));
    h = foldDouble(h, res.yield(3.0, true));
    for (const DieResult &d : res.dies) {
        h = fold(h, d.at45V.errors);
        h = fold(h, d.at3V.errors);
        h = fold(h, d.faults.size());
        for (const StuckFault &f : d.faults)
            h = fold(h, (static_cast<uint64_t>(f.net) << 1) | f.value);
    }
    return h;
}

/** Replay the lane-group layer of one wafer on its own faults. */
void
laneGroupReplica(Run &run, const Netlist &golden,
                 const WaferStudyResult &res, int64_t parent,
                 uint64_t unit)
{
    Tracer &t = run.tracer;
    const WaferStudyConfig &cfg = res.config;
    std::vector<uint8_t> inputs;
    const Program *prog = nullptr;
    {
        Scope s(t, "yield.inputs", parent, unit);
        prog = &cachedTestProgram(cfg.isa, cfg.seed);
        inputs = makeTestInputs(cfg.isa, 256, cfg.seed);
    }
    std::vector<size_t> defective;
    for (size_t i = 0; i < res.dies.size(); ++i)
        if (res.dies[i].sample.hasDefects())
            defective.push_back(i);
    run.layer["wafer.defective_dies"] += defective.size();
    for (size_t begin = 0; begin < defective.size();
         begin += LaneGroup::kMaxLanes) {
        unsigned n = static_cast<unsigned>(std::min<size_t>(
            LaneGroup::kMaxLanes, defective.size() - begin));
        std::unique_ptr<LaneGroup> group;
        {
            Scope s(t, "lanegroup.setup", parent, unit);
            group = std::make_unique<LaneGroup>(golden, n);
            for (unsigned lane = 0; lane < n; ++lane)
                for (const StuckFault &f :
                     res.dies[defective[begin + lane]].faults)
                    group->injectFault(lane, f);
        }
        LockstepGroupResult out;
        {
            Scope s(t, "lanegroup", parent, unit);
            out = runLockstepGroup(*group, golden, cfg.isa, *prog,
                                   inputs, cfg.testCycles, false);
        }
        unsigned words = (n + 63) / 64;
        run.layer["lanegroup.calls"] += 1;
        run.layer["lanegroup.die_cycles"] +=
            static_cast<double>(out.cycles) * n;
        run.layer["lanegroup.lanes"] += n;
        run.layer["lanegroup.capacity"] += 64.0 * words;
        // Gate-level errors land on both probes; timing errors only
        // add to them.
        bool ok = true;
        for (unsigned lane = 0; lane < n; ++lane) {
            const DieResult &d = res.dies[defective[begin + lane]];
            ok &= out.errors[lane] <= std::min(d.at45V.errors,
                                                d.at3V.errors);
        }
        run.check(ok, "lane-group replica error counts");
    }
}

void
waferLot(Run &run)
{
    const unsigned T = run.args.threads;
    Tracer &t = run.tracer;

    // Set-up: fill the process-lifetime caches (template netlists,
    // design specs, memoized test programs) before the first unit.
    auto s0 = Clock::now();
    std::unique_ptr<Netlist> golden[2];
    {
        Scope root(t, "setup");
        SetupLayers setup{t, root.id()};
        for (unsigned i = 0; i < 2; ++i)
            runWaferStudy(lotWafer(run, i, T));
        for (unsigned i = 0; i < kLotWafers; ++i) {
            WaferStudyConfig cfg = lotWafer(run, i, T);
            setup.testProgram(cfg.isa, cfg.seed);
        }
        if (t.on())
            for (unsigned i = 0; i < 2; ++i)
                golden[i] = setup.build(lotWafer(run, i, T).isa);
    }
    run.setupS = msBetween(s0, Clock::now()) / 1e3;
    if (run.args.setupOnly)
        return;

    std::vector<uint64_t> ref(kLotWafers, 0);
    std::vector<uint8_t> seen(kLotWafers, 0);
    auto unit = [&](unsigned i, unsigned threads,
                    WaferStudyResult *keep) {
        WaferStudyResult res;
        bool ok = timedUnit(run, i, 1, [&] {
            res = runWaferStudy(lotWafer(run, i, threads));
        });
        if (!ok)
            return;
        uint64_t h = waferDigest(res);
        if (!seen[i]) {
            seen[i] = 1;
            ref[i] = h;
        } else if (h != ref[i]) {
            ++run.failed;
            std::fprintf(stderr, "flexibench: wafer %u digest moved\n",
                         i);
        }
        if (keep)
            *keep = std::move(res);
    };

    if (!t.on()) {
        measure(run, [&] {
            for (unsigned i = 0; i < kLotWafers; ++i)
                unit(i, T, nullptr);
        });
    } else {
        // A warm-up pass, then every wafer untraced and traced back to
        // back, so drift cancels out of trace.overhead.
        for (unsigned i = 0; i < kLotWafers; ++i)
            unit(i, T, nullptr);
        double untraced = 0, traced = 0;
        for (unsigned i = 0; i < kLotWafers; ++i) {
            auto u = Clock::now();
            unit(i, T, nullptr);
            untraced += msBetween(u, Clock::now());
            WaferStudyResult res;
            int64_t id = t.open("wafer", -1, i);
            auto a = Clock::now();
            unit(i, T, &res);
            traced += msBetween(a, Clock::now());
            t.close(id);
            if (res.dies.empty())
                continue;
            laneGroupReplica(run, *golden[i % 2], res, id, i);
            if (i < 2) {
                Scope s(t, "sim.replica");
                coreSimReplica(run,
                               cachedTestProgram(res.config.isa,
                                                 res.config.seed),
                               res.config.isa,
                               makeTestInputs(res.config.isa, 256,
                                              res.config.seed),
                               200000);
            }
        }
        run.layer["trace.overhead"] = traced / untraced - 1;
        // pool.speedup: the lot at 1 thread vs T threads.
        double t1 = 0, tn = 0;
        for (unsigned i = 0; i < kLotWafers; ++i) {
            {
                Scope s(t, "pool.t1", -1, i);
                auto a = Clock::now();
                unit(i, 1, nullptr);
                t1 += msBetween(a, Clock::now());
            }
            {
                Scope s(t, "pool.tn", -1, i);
                auto a = Clock::now();
                unit(i, T, nullptr);
                tn += msBetween(a, Clock::now());
            }
        }
        run.layer["pool.speedup"] = t1 / tn;
    }

    uint64_t lot = kFnvOffset;
    for (uint64_t h : ref)
        lot = fold(lot, h);
    std::fprintf(stderr, "flexibench: wafer_lot digest %016llx\n",
                 static_cast<unsigned long long>(lot));
    if (run.defaultSeed())
        run.check(lot == kPinnedLot, "wafer_lot pinned lot digest");

    // Scalar clone-per-die path on one wafer, outside the timed region.
    unsigned pick = static_cast<unsigned>(run.args.seed % kLotWafers);
    WaferStudyConfig scalar = lotWafer(run, pick, T);
    scalar.batchLanes = 1;
    run.check(waferDigest(runWaferStudy(scalar)) == ref[pick],
              "wafer_lot scalar batchLanes=1 re-simulation");
}

// ---------------------------------------------------------------
// fleet_field: lifecycle campaigns at field fault pressure,
// alternating FC4 and FC8, checkpointing after every epoch. Eight
// populations (wafer seeds) per ISA: one wafer's salvage mix swings
// the dirty-lane count, and so the cost, by 2x from seed to seed.
// Campaigns of odd populations stop half-way and resume from their
// checkpoint through a separately constructed engine.

constexpr uint32_t kFleetDies = 8192;
constexpr uint32_t kFleetEpochs = 13;
constexpr unsigned kCampaigns = 16;

/** Pinned digest of all campaigns for --seed 1. */
constexpr uint64_t kPinnedFleet = 0x9b02d5f6529eb0b9ull;

bool
resumedCampaign(unsigned c)
{
    return (c / 2) % 2 == 1;
}

FleetConfig
fleetConfig(const Run &run, unsigned c, unsigned threads)
{
    FleetConfig cfg;
    cfg.isa = c % 2 ? IsaKind::FlexiCore8 : IsaKind::FlexiCore4;
    cfg.fc8Program = 0;
    cfg.seed = deriveSeed(run.args.seed, c / 2);
    cfg.numDies = kFleetDies;
    cfg.epochs = kFleetEpochs;
    cfg.workUnits = 1;
    cfg.transientsPerEpoch = 0.15;
    cfg.flipsPerEpoch = 0.05;
    cfg.maxInstructions = 8000;
    cfg.threads = threads;
    return cfg;
}

uint64_t
campaignDigest(const FleetState &st)
{
    uint64_t h = fold(kFnvOffset, fleetDigest(st));
    h = fold(h, st.deaths);
    for (const auto &row : st.epochOutcomes)
        for (uint64_t v : row)
            h = fold(h, v);
    for (const auto &row : st.binOutcomes)
        for (uint64_t v : row)
            h = fold(h, v);
    return h;
}

/** What the layer replicas need to redraw a campaign's population. */
struct FleetReplica
{
    FleetConfig cfg;
    std::unique_ptr<Netlist> golden;
    Program prog{IsaKind::FlexiCore4};
    std::vector<uint32_t> pool;
    std::vector<double> glitch;
    size_t targetOutputs = 0;
};

FleetReplica
makeFleetReplica(SetupLayers &setup, const FleetEngine &engine,
                 const FleetConfig &cfg)
{
    FleetReplica r;
    r.cfg = cfg;
    r.golden = setup.build(cfg.isa);
    size_t kernelIdx = 0;
    if (cfg.isa == IsaKind::FlexiCore8) {
        auto id = static_cast<Fc8Program>(cfg.fc8Program);
        r.prog = setup.assembleSource(cfg.isa, fc8ProgramSource(id));
        r.targetOutputs = cfg.workUnits;
        kernelIdx = cfg.fc8Program;
    } else {
        r.prog = setup.assembleSource(
            cfg.isa, kernelSource(cfg.kernel, cfg.isa));
        r.targetOutputs = cfg.workUnits * kernelOutputsPerWork(cfg.kernel);
        kernelIdx = static_cast<size_t>(cfg.kernel);
    }
    const SalvageReport &rep = engine.salvage();
    DieModel model(rep.study.spec, WaferStudyConfig{}.params);
    r.glitch.resize(rep.study.dies.size());
    for (size_t i = 0; i < rep.study.dies.size(); ++i) {
        const DieResult &die = rep.study.dies[i];
        r.glitch[i] = model.glitchRate(die.sample, cfg.vdd);
        const DieSalvage &v = rep.dies[i];
        if (die.site.inInclusionZone &&
            (v.bin == DieBin::Functional ||
             (v.bin == DieBin::Salvaged &&
              ((v.passedMask >> kernelIdx) & 1u))))
            r.pool.push_back(static_cast<uint32_t>(i));
    }
    return r;
}

/**
 * Replay one epoch's prescreen and checked-runtime layers on a
 * population drawn from the engine's salvage study, at the
 * campaign's arrival rates: one word-parallel prescreen per 512-lane
 * block, then a scalar runChecked on every dirty lane. Both phases
 * run on the engine's thread count; their spans are phase walls.
 */
void
fleetLayerReplica(Run &run, const FleetEngine &engine,
                  const FleetReplica &r, uint32_t epoch, int64_t parent,
                  uint64_t unit)
{
    Tracer &t = run.tracer;
    const FleetConfig &cfg = r.cfg;
    const SalvageReport &rep = engine.salvage();
    uint64_t s = deriveSeed(run.args.seed ^ 0xBE7C4F1Eull, epoch);
    std::vector<uint8_t> inputs =
        cfg.isa == IsaKind::FlexiCore8
            ? fc8ProgramInputs(static_cast<Fc8Program>(cfg.fc8Program),
                               cfg.workUnits, s)
            : kernelInputs(cfg.kernel, cfg.workUnits, s);

    CheckedRunConfig runCfg;
    runCfg.isa = cfg.isa;
    runCfg.detectors = cfg.detectors;
    runCfg.recovery = cfg.recovery;
    runCfg.targetOutputs = r.targetOutputs;
    runCfg.maxInstructions = cfg.maxInstructions;

    CheckedRunResult base;
    {
        Scope sc(t, "checked", parent, unit);
        std::unique_ptr<Netlist> ref = r.golden->clone();
        CheckedRunConfig baseCfg = runCfg;
        baseCfg.detectors = DetectorConfig{false, false, false, 192};
        baseCfg.recovery.enabled = false;
        base = runChecked(*ref, r.prog, inputs, baseCfg);
    }
    run.layer["checked.calls"] += 1;
    run.layer["checked.die_cycles"] += static_cast<double>(base.cycles);
    run.check(base.outcome == CheckedOutcome::Completed &&
                  base.outputsCorrect,
              "fleet replica golden mission");
    uint64_t horizon = 2 * base.cycles + 64;
    size_t nets = r.golden->numNets();
    size_t dffs = std::max<size_t>(1, r.golden->numDffs());

    // The population and its in-field schedules (benchmark code).
    std::vector<uint32_t> die(cfg.numDies);
    std::vector<FaultSchedule> sched(cfg.numDies);
    for (uint32_t d = 0; d < cfg.numDies; ++d) {
        Rng rng(deriveSeed(s, d));
        die[d] = r.pool[rng.below(r.pool.size())];
        auto upsets = [&](uint64_t n) {
            for (uint64_t k = 0; k < n; ++k) {
                NetId net = static_cast<NetId>(rng.below(nets));
                bool v = rng.chance(0.5);
                uint64_t at = rng.below(horizon);
                sched[d].transients.push_back({net, v, at, at + 1});
            }
        };
        upsets(rng.poisson(cfg.transientsPerEpoch));
        if (r.glitch[die[d]] > 0)
            upsets(rng.poisson(r.glitch[die[d]] *
                               static_cast<double>(horizon)));
        uint64_t nF = rng.poisson(cfg.flipsPerEpoch);
        for (uint64_t k = 0; k < nF; ++k) {
            uint64_t at = rng.below(horizon);
            sched[d].flips.push_back({at, rng.below(dffs)});
        }
    }

    const unsigned lanesMax = LaneGroup::kMaxLanes;
    size_t blocks = (cfg.numDies + lanesMax - 1) / lanesMax;
    std::vector<std::vector<uint32_t>> blockDirty(blocks);
    std::atomic<uint64_t> clean{0}, laneCycles{0};
    {
        Scope sc(t, "prescreen", parent, unit);
        parallelFor(blocks, run.args.threads, [&](size_t b) {
            size_t begin = b * lanesMax;
            unsigned lanes = static_cast<unsigned>(
                std::min<size_t>(lanesMax, cfg.numDies - begin));
            std::vector<const FaultSchedule *> sp(lanes);
            std::vector<const std::vector<StuckFault> *> fp(lanes);
            for (unsigned l = 0; l < lanes; ++l) {
                sp[l] = &sched[begin + l];
                fp[l] = &rep.study.dies[die[begin + l]].faults;
            }
            PrescreenResult pres = prescreenSchedules(
                *r.golden, r.prog, inputs, runCfg, sp, &fp, true);
            laneCycles += pres.cycles * lanes;
            for (unsigned l = 0; l < lanes; ++l) {
                if (pres.completed && pres.clean(l))
                    ++clean;
                else
                    blockDirty[b].push_back(
                        static_cast<uint32_t>(begin + l));
            }
        });
    }
    run.layer["prescreen.calls"] += blocks;
    run.layer["prescreen.lanes"] += cfg.numDies;
    run.layer["prescreen.clean_lanes"] += clean.load();
    run.layer["prescreen.lane_cycles"] += laneCycles.load();

    std::vector<uint32_t> dirty;
    for (const auto &bd : blockDirty)
        dirty.insert(dirty.end(), bd.begin(), bd.end());
    std::atomic<uint64_t> cycles{0}, det{0}, ret{0}, rst{0}, degr{0},
        cloneNs{0};
    {
        Scope sc(t, "checked", parent, unit);
        parallelFor(dirty.size(), run.args.threads, [&](size_t k) {
            uint32_t d = dirty[k];
            auto c0 = Clock::now();
            std::unique_ptr<Netlist> nl = r.golden->clone();
            cloneNs += std::chrono::duration_cast<
                           std::chrono::nanoseconds>(Clock::now() - c0)
                           .count();
            for (const StuckFault &f : rep.study.dies[die[d]].faults)
                nl->injectFault(f);
            CheckedRunResult res =
                runChecked(*nl, r.prog, inputs, runCfg, sched[d]);
            cycles += res.cycles;
            det += res.detections;
            ret += res.retries;
            rst += res.restarts;
            degr += res.outcome == CheckedOutcome::Degraded;
        });
    }
    run.layer["checked.calls"] += dirty.size();
    run.layer["checked.die_cycles"] += cycles.load();
    run.layer["checked.detections"] += det.load();
    run.layer["checked.retries"] += ret.load();
    run.layer["checked.restarts"] += rst.load();
    run.layer["checked.degraded"] += degr.load();
    run.layer["netlist.clones"] += dirty.size() + 1;
    run.layer["netlist.clone_ns_total"] += cloneNs.load();
}

/** Checkpoint layer replica on the campaign's real state. */
void
checkpointReplica(Run &run, const FleetState &st,
                  const std::string &path, int64_t parent,
                  uint64_t unit)
{
    Tracer &t = run.tracer;
    uint64_t want = campaignDigest(st);
    {
        // The engine's own per-epoch write: attributed to the unit.
        Scope s(t, "checkpoint.save", parent, unit);
        saveFleetCheckpoint(st, path);
    }
    Scope rep(t, "checkpoint.replica", -1, unit);
    std::vector<uint8_t> bytes;
    {
        Scope s(t, "checkpoint.encode", rep.id(), unit);
        bytes = encodeFleetState(st);
    }
    run.layer["checkpoint.bytes_total"] += bytes.size();
    FleetState back;
    {
        Scope s(t, "checkpoint.decode", rep.id(), unit);
        back = decodeFleetState(bytes);
    }
    FleetState loaded;
    {
        Scope s(t, "checkpoint.load", rep.id(), unit);
        loaded = loadFleetCheckpoint(path);
    }
    run.check(campaignDigest(back) == want &&
                  campaignDigest(loaded) == want,
              "checkpoint round trip");
}

void
fleetField(Run &run)
{
    const unsigned T = run.args.threads;
    Tracer &t = run.tracer;
    std::filesystem::create_directories(run.args.workdir);
    const std::string ckpt = run.args.workdir + "/fleet.ckpt";

    // Set-up: engine construction runs the wafer and salvage studies
    // and assembles the deployed program. Resumed campaigns continue
    // on a separately built engine, as a restarted process would.
    auto s0 = Clock::now();
    std::unique_ptr<FleetEngine> primary[kCampaigns], resume[kCampaigns];
    std::unique_ptr<FleetEngine> single;
    FleetReplica replica[kCampaigns];
    {
        Scope root(t, "setup");
        SetupLayers setup{t, root.id()};
        for (unsigned c = 0; c < kCampaigns; ++c) {
            {
                Scope s(t, "fleet.engine", root.id());
                primary[c] = std::make_unique<FleetEngine>(
                    fleetConfig(run, c, T));
                if (resumedCampaign(c))
                    resume[c] = std::make_unique<FleetEngine>(
                        fleetConfig(run, c, T));
            }
            if (t.on())
                replica[c] = makeFleetReplica(setup, *primary[c],
                                              fleetConfig(run, c, T));
        }
        if (t.on()) {
            Scope s(t, "fleet.engine", root.id());
            single = std::make_unique<FleetEngine>(
                fleetConfig(run, 0, 1));
        }
    }
    run.setupS = msBetween(s0, Clock::now()) / 1e3;
    if (run.args.setupOnly)
        return;

    uint64_t ref[kCampaigns] = {};
    bool haveRef[kCampaigns] = {};

    // One campaign; every epoch is one timed unit. A resumed campaign
    // stops after half its epochs and continues from the checkpoint.
    auto campaign = [&](unsigned c, const FleetEngine *override,
                        bool resumed, bool replicas, double *epochMs) {
        const FleetEngine *eng = override ? override : primary[c].get();
        FleetState st = eng->init();
        bool ok = true;
        for (uint32_t e = 0; e < kFleetEpochs && ok; ++e) {
            if (resumed && e == kFleetEpochs / 2) {
                try {
                    st = loadFleetCheckpoint(ckpt);
                } catch (const std::exception &ex) {
                    std::fprintf(stderr, "flexibench: resume: %s\n",
                                 ex.what());
                    ok = false;
                    break;
                }
                eng = resume[c].get();
            }
            uint64_t alive = st.aliveDies();
            int64_t id = replicas ? t.open("fleet.epoch", -1, c) : -1;
            auto a = Clock::now();
            ok = timedUnit(run, c * kFleetEpochs + e, alive,
                           [&] { eng->run(st, e + 1, ckpt); });
            if (epochMs)
                *epochMs += msBetween(a, Clock::now());
            t.close(id);
            if (replicas && ok) {
                run.layer["fleet.missions"] += alive;
                fleetLayerReplica(run, *primary[c], replica[c], e, id,
                                  c);
                checkpointReplica(run, st,
                                  run.args.workdir + "/replica.ckpt",
                                  id, c);
            }
        }
        if (!ok)
            return;
        uint64_t h = campaignDigest(st);
        if (!haveRef[c]) {
            haveRef[c] = true;
            ref[c] = h;
        } else if (h != ref[c]) {
            ++run.failed;
            std::fprintf(stderr, "flexibench: campaign %u digest "
                         "%016llx != %016llx\n", c,
                         static_cast<unsigned long long>(h),
                         static_cast<unsigned long long>(ref[c]));
        }
    };
    auto cycle = [&](bool replicas, double *epochMs) {
        for (unsigned c = 0; c < kCampaigns; ++c)
            campaign(c, nullptr, resumedCampaign(c), replicas, epochMs);
    };

    if (!t.on()) {
        measure(run, [&] { cycle(false, nullptr); });
    } else {
        // A warm-up cycle, then each campaign untraced and traced back
        // to back.
        double untraced = 0, traced = 0;
        cycle(false, nullptr);
        for (unsigned c = 0; c < kCampaigns; ++c) {
            campaign(c, nullptr, resumedCampaign(c), false, &untraced);
            campaign(c, nullptr, resumedCampaign(c), true, &traced);
        }
        run.layer["trace.overhead"] = traced / untraced - 1;
        // pool.speedup: campaign 0 on a threads=1 engine vs the
        // T-thread engine.
        double t1 = 0, tn = 0;
        {
            Scope s(t, "pool.t1");
            campaign(0, single.get(), false, false, &t1);
        }
        {
            Scope s(t, "pool.tn");
            campaign(0, nullptr, false, false, &tn);
        }
        run.layer["pool.speedup"] = t1 / tn;
    }

    // Resumed campaigns must match the same campaign run straight
    // through (outside the timed region).
    uint64_t all = kFnvOffset;
    for (unsigned c = 0; c < kCampaigns; ++c) {
        run.check(haveRef[c], "fleet_field campaign completed");
        if (resumedCampaign(c)) {
            uint64_t resumedRef = ref[c];
            haveRef[c] = false;
            campaign(c, nullptr, false, false, nullptr);
            run.check(ref[c] == resumedRef,
                      "fleet_field resumed campaign matches uninterrupted");
        }
        all = fold(all, ref[c]);
    }
    std::fprintf(stderr, "flexibench: fleet_field digest %016llx\n",
                 static_cast<unsigned long long>(all));
    if (run.defaultSeed())
        run.check(all == kPinnedFleet, "fleet_field pinned digest");
    std::error_code ec;
    std::filesystem::remove(ckpt, ec);
    std::filesystem::remove(run.args.workdir + "/replica.ckpt", ec);
}

// ---------------------------------------------------------------
// formal_lint: the flexilint formal pass on all four cores, one
// round per seed-derived input set.

constexpr IsaKind kCores[4] = {IsaKind::FlexiCore4, IsaKind::FlexiCore8,
                               IsaKind::ExtAcc4, IsaKind::LoadStore4};
constexpr unsigned kChecks = 5;
constexpr const char *kCheckLayer[kChecks] = {
    "equiv.plan", "equiv.isa", "equiv.cex", "mc", "seqprune"};
/** Checker order within a round, longest first (ISA proofs, then
 *  induction), so the round's tail stays short. */
constexpr unsigned kRoundOrder[kChecks] = {1, 3, 4, 0, 2};

/** Distinct rounds per cycle (5 x 20 calls). */
constexpr unsigned kRounds = 5;

/** Pinned digests of rounds 0 and 1 for --seed 1. */
constexpr uint64_t kPinnedRounds[2] = {0x95921b59413278d6ull,
                                      0xdfbd13db817565ccull};

struct FormalCore
{
    IsaKind isa;
    std::unique_ptr<Netlist> nl;
    std::vector<Program> kernels;
    std::vector<std::pair<std::string, NetId>> outputs;
};

/**
 * Replay an equivalence counterexample in simulation (state forces
 * ride on the fault machinery; genuine faults keep theirs) and
 * confirm the two sides really differ on an output or a captured
 * next-state bit.
 */
bool
replayCex(const Netlist &a, const Netlist &b, const EquivResult &res)
{
    auto drive = [&](Netlist &nl) {
        std::vector<StuckFault> defects = nl.faults();
        for (const auto &[name, value] : res.cex.assignment) {
            NetId net = nl.findNet(name);
            if (net == kNoNet)
                return defects;
            if (nl.primaryInputs().count(name)) {
                nl.setInput(name, value);
                continue;
            }
            bool faulted = false;
            for (const StuckFault &f : defects)
                faulted |= f.net == net;
            if (!faulted)
                nl.injectFault({net, value});
        }
        nl.evaluate();
        return defects;
    };
    auto ar = a.clone();
    auto br = b.clone();
    auto ad = drive(*ar);
    auto bd = drive(*br);
    auto captured = [](const Netlist &nl,
                       const std::vector<StuckFault> &defects,
                       const Netlist::DffInfo &d) {
        for (const StuckFault &f : defects)
            if (f.net == d.q)
                return f.value;
        return nl.netValue(d.d);
    };
    bool differs = false;
    for (const auto &[name, net] : ar->primaryOutputs())
        differs |= ar->output(name) != br->output(name);
    auto adf = ar->dffs();
    auto bdf = br->dffs();
    for (size_t i = 0; i < adf.size() && i < bdf.size(); ++i)
        differs |= captured(*ar, ad, adf[i]) != captured(*br, bd, bdf[i]);
    return differs;
}

/** One checker call's deterministic verdicts and solver effort. */
struct CallOut
{
    bool ok = false;
    uint64_t digest = kFnvOffset;
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

CallOut
formalCall(Run &run, const FormalCore &core, unsigned check,
           uint64_t roundSeed, unsigned coreIdx, int64_t unitSpan,
           uint64_t unit)
{
    Tracer &t = run.tracer;
    CallOut out;
    Rng rng(deriveSeed(roundSeed, coreIdx));
    switch (check) {
      case 0: {
        EquivResult r;
        {
            Scope s(t, kCheckLayer[0], unitSpan, unit);
            r = checkPlanEquivalence(*core.nl);
        }
        out.ok = r.proven;
        out.digest = fold(out.digest, r.proven);
        out.solves = r.solves;
        out.conflicts = r.conflicts;
        break;
      }
      case 1: {
        IsaEquivResult r;
        {
            Scope s(t, kCheckLayer[1], unitSpan, unit);
            r = checkIsaEquivalence(*core.nl, core.isa);
        }
        out.ok = r.proven;
        out.digest = fold(out.digest, r.proven);
        for (const IsaClassCheck &c : r.classes)
            out.digest = fold(foldStr(out.digest, c.name), c.proven);
        out.solves = r.solves;
        out.conflicts = r.conflicts;
        break;
      }
      case 2: {
        // A seed-drawn stuck-at on a primary output net: observable
        // for some state, so the miter must be satisfiable.
        const auto &[name, net] =
            core.outputs[rng.below(core.outputs.size())];
        std::unique_ptr<Netlist> faulty = core.nl->clone();
        faulty->injectFault({net, rng.chance(0.5)});
        EquivResult r;
        {
            Scope s(t, kCheckLayer[2], unitSpan, unit);
            r = checkNetlistEquivalence(*core.nl, *faulty);
        }
        bool replayed = false;
        if (r.hasCex) {
            Scope s(t, "equiv.replay", -1, unit);
            replayed = replayCex(*core.nl, *faulty, r);
        }
        out.ok = !r.proven && r.hasCex && replayed;
        out.digest = fold(foldStr(out.digest, name), r.proven);
        out.digest = fold(fold(out.digest, r.hasCex), replayed);
        out.solves = r.solves;
        out.conflicts = r.conflicts;
        break;
      }
      case 3: {
        // Every cycle of rounds visits the core's kernels in turn from
        // a seed-drawn start, so the kernel mix barely varies by seed.
        size_t k = (unit + deriveSeed(run.args.seed, coreIdx)) %
                   core.kernels.size();
        McLintOptions mo;
        mo.inductDepth = 4;
        mo.model.program = &core.kernels[k];
        McLintOutcome r;
        {
            Scope s(t, kCheckLayer[3], unitSpan, unit);
            r = mcLint(*core.nl, mo);
        }
        out.ok = r.report.errors() == 0;
        out.digest = fold(out.digest, k);
        for (const Diagnostic &d : r.report.diagnostics())
            if (d.severity == Severity::Error)
                std::fprintf(stderr, "flexibench: mc %s kernel %zu: %s: %s\n",
                             isaName(core.isa), k, d.rule.c_str(),
                             d.message.substr(0, 160).c_str());
        for (const Diagnostic &d : r.report.diagnostics())
            out.digest = fold(foldStr(foldStr(out.digest, d.rule),
                                      d.module),
                              static_cast<uint64_t>(d.severity));
        break;
      }
      case 4: {
        SeqPruneOptions so;
        so.seed = rng.next();
        SeqPruneResult r;
        {
            Scope s(t, kCheckLayer[4], unitSpan, unit);
            r = seqPrune(*core.nl, so);
        }
        out.ok = r.ok && r.certified &&
                 r.stats.cellsAfter <= r.stats.cellsBefore;
        out.digest = fold(fold(out.digest, r.ok), r.certified);
        out.digest = fold(fold(out.digest, r.stats.cellsBefore),
                          r.stats.cellsAfter);
        out.digest = fold(fold(out.digest, r.stats.dffsAfter),
                          r.baseline.cellsAfter);
        out.solves = r.certification.solves;
        out.conflicts = r.certification.conflicts;
        break;
      }
    }
    return out;
}

void
formalLint(Run &run)
{
    Tracer &t = run.tracer;
    auto s0 = Clock::now();
    std::vector<FormalCore> cores;
    {
        Scope root(t, "setup");
        SetupLayers setup{t, root.id()};
        for (IsaKind isa : kCores) {
            FormalCore c{isa, setup.build(isa), {}, {}};
            std::vector<Program> progs;
            if (isa == IsaKind::FlexiCore8) {
                for (size_t i = 0; i < kNumFc8Programs; ++i)
                    progs.push_back(setup.assembleSource(
                        isa,
                        fc8ProgramSource(static_cast<Fc8Program>(i))));
            } else {
                for (KernelId id : allKernels())
                    progs.push_back(setup.assembleSource(
                        isa, kernelSource(id, isa)));
            }
            // The closed model (and mmu-page) covers page 0 only.
            for (Program &p : progs)
                if (p.numPages() == 1)
                    c.kernels.push_back(std::move(p));
            for (const auto &[name, net] : c.nl->primaryOutputs())
                c.outputs.emplace_back(name, net);
            cores.push_back(std::move(c));
        }
    }
    run.setupS = msBetween(s0, Clock::now()) / 1e3;
    if (run.args.setupOnly)
        return;

    const unsigned calls = 4 * kChecks;
    // First digest of every round number; a repeated round must
    // reproduce it.
    std::map<unsigned, uint64_t> roundDigests;

    // One round: the 20 checker calls spread over the worker threads.
    auto round = [&](unsigned r, bool traced, double *wall) {
        uint64_t roundSeed =
            deriveSeed(run.args.seed ^ 0xF0A1ull, r % kRounds);
        std::vector<CallOut> outs(calls);
        std::vector<double> ms(calls, 0);
        std::vector<uint8_t> threw(calls, 0);
        auto a = Clock::now();
        parallelFor(calls, run.args.threads, [&](size_t i) {
            unsigned core = static_cast<unsigned>(3 - i % 4);
            unsigned check = kRoundOrder[i / 4];
            size_t slot = core * kChecks + check;
            int64_t id = traced ? t.open("formal.call", -1, r) : -1;
            auto c0 = Clock::now();
            try {
                outs[slot] = formalCall(run, cores[core], check,
                                        roundSeed, core, id, r);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "flexibench: %s threw: %s\n",
                             kCheckLayer[check], e.what());
                threw[slot] = 1;
            }
            ms[slot] = msBetween(c0, Clock::now());
            t.close(id);
        });
        if (wall)
            *wall += msBetween(a, Clock::now());
        uint64_t h = kFnvOffset;
        size_t slot = r % kRounds;
        run.batchDone(slot, calls, msBetween(a, Clock::now()));
        for (size_t i = 0; i < calls; ++i) {
            Run::keepFastest(run.unitMs, slot * calls + i, ms[i]);
            ++run.attempted;
            if (threw[i] || !outs[i].ok) {
                ++run.failed;
                if (!threw[i])
                    std::fprintf(stderr,
                                 "flexibench: %s on core %zu failed its "
                                 "output check (round %u)\n",
                                 kCheckLayer[i % kChecks], i / kChecks,
                                 r);
            }
            h = fold(h, outs[i].digest);
            if (traced && (outs[i].solves || outs[i].conflicts)) {
                run.layer["sat.solves"] += outs[i].solves;
                run.layer["sat.conflicts"] += outs[i].conflicts;
                run.layer["sat.solver_ms"] += ms[i];
            }
        }
        auto [it, fresh] = roundDigests.emplace(r, h);
        if (!fresh)
            run.check(it->second == h, "formal_lint repeated round digest");
    };

    if (!t.on()) {
        measure(run, [&] {
            for (unsigned r = 0; r < kRounds; ++r)
                round(r, false, nullptr);
        });
    } else {
        // Warm-up rounds, then each round untraced and traced back to
        // back; solver effort is read off the traced rounds.
        double untraced = 0, traced = 0;
        for (unsigned r = 0; r < 2; ++r)
            round(r, false, nullptr);
        for (unsigned r = 0; r < 2; ++r) {
            round(r, false, &untraced);
            round(r, true, &traced);
        }
        run.layer["trace.overhead"] = traced / untraced - 1;
    }
    for (unsigned r = 0; r < 2; ++r) {
        std::fprintf(stderr, "flexibench: formal_lint round %u digest "
                     "%016llx\n", r,
                     static_cast<unsigned long long>(roundDigests[r]));
        if (run.defaultSeed())
            run.check(roundDigests[r] == kPinnedRounds[r],
                      "formal_lint pinned round digest");
    }
    if (t.on()) {
        Scope s(t, "sim.replica");
        coreSimReplica(run, cores[0].kernels.front(),
                       IsaKind::FlexiCore4,
                       makeTestInputs(IsaKind::FlexiCore4, 256,
                                      run.args.seed),
                       200000);
    }
}

// ---------------------------------------------------------------
// Output.

/** Derived per-layer metrics; every named metric, 0 when unused. */
std::map<std::string, double>
layerMetrics(Run &run)
{
    const Tracer &t = run.tracer;
    auto &L = run.layer;
    std::map<std::string, double> m;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    size_t n = 0;

    m["lanegroup.calls"] = L["lanegroup.calls"];
    m["lanegroup.die_cycles"] = L["lanegroup.die_cycles"];
    m["lanegroup.ms"] = t.totalMs("lanegroup");
    m["lanegroup.ns_per_die_cycle"] =
        ratio(m["lanegroup.ms"] * 1e6, m["lanegroup.die_cycles"]);
    m["lanegroup.lane_occupancy"] =
        ratio(L["lanegroup.lanes"], L["lanegroup.capacity"]);

    m["wafer.ms"] = t.totalMs("wafer", &n);
    m["wafer.calls"] = static_cast<double>(n);
    m["wafer.defective_dies"] = L["wafer.defective_dies"];
    m["wafer.self_ms"] = t.selfMs("wafer");
    m["pool.speedup"] = L["pool.speedup"];

    m["prescreen.calls"] = L["prescreen.calls"];
    m["prescreen.lanes"] = L["prescreen.lanes"];
    m["prescreen.clean_lanes"] = L["prescreen.clean_lanes"];
    m["prescreen.clean_ratio"] =
        ratio(L["prescreen.clean_lanes"], L["prescreen.lanes"]);
    m["prescreen.ms"] = t.totalMs("prescreen");
    m["prescreen.ns_per_lane_cycle"] =
        ratio(m["prescreen.ms"] * 1e6, L["prescreen.lane_cycles"]);

    for (const char *k : {"calls", "die_cycles", "detections", "retries",
                          "restarts", "degraded"})
        m[std::string("checked.") + k] = L[std::string("checked.") + k];
    m["checked.ms"] = t.totalMs("checked");
    m["checked.ns_per_die_cycle"] =
        ratio(m["checked.ms"] * 1e6, m["checked.die_cycles"]);

    m["fleet.run_ms"] = t.totalMs("fleet.epoch");
    m["fleet.missions"] = L["fleet.missions"];
    size_t saves = 0;
    m["checkpoint.save_ms"] = t.totalMs("checkpoint.save", &saves);
    m["checkpoint.bytes"] = ratio(L["checkpoint.bytes_total"],
                                  static_cast<double>(saves));
    m["checkpoint.encode_ms"] = t.totalMs("checkpoint.encode");
    m["checkpoint.decode_ms"] = t.totalMs("checkpoint.decode");
    m["checkpoint.load_ms"] = t.totalMs("checkpoint.load");
    m["checkpoint.share"] =
        ratio(m["checkpoint.save_ms"], m["fleet.run_ms"]);

    m["equiv.plan_ms"] = t.totalMs("equiv.plan");
    m["equiv.isa_ms"] = t.totalMs("equiv.isa");
    m["equiv.cex_ms"] = t.totalMs("equiv.cex");
    m["mc.ms"] = t.totalMs("mc");
    m["seqprune.ms"] = t.totalMs("seqprune");
    m["sat.solves"] = L["sat.solves"];
    m["sat.conflicts"] = L["sat.conflicts"];
    m["sat.conflicts_per_s"] =
        ratio(L["sat.conflicts"], L["sat.solver_ms"] / 1e3);

    size_t asmCalls = 0;
    m["assembler.ms"] = t.totalMs("assembler", &asmCalls);
    m["assembler.calls"] = static_cast<double>(asmCalls);
    m["netlist.build_ms"] = t.totalMs("netlist.build");
    m["netlist.clone_ns"] =
        ratio(L["netlist.clone_ns_total"], L["netlist.clones"]);
    m["coresim.ns_per_instr"] = ratio(t.totalMs("coresim") * 1e6,
                                      L["coresim.instructions"]);

    m["trace.overhead"] = L["trace.overhead"];
    // Share of the end-to-end units' wall that the layer spans under
    // them explain (> 1 when a replica is slower than the hidden
    // work it replays).
    double unitMs = 0, childMs = 0;
    for (const char *u : {"wafer", "fleet.epoch", "formal.call"}) {
        unitMs += t.totalMs(u);
        childMs += t.childMs(u);
    }
    m["trace.coverage"] = ratio(childMs, unitMs);
    m["error_rate"] = ratio(static_cast<double>(run.failed),
                            static_cast<double>(run.attempted));
    return m;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: flexibench --workload wafer_lot|fleet_field|"
                 "formal_lint --seed N --seconds S --threads T\n"
                 "                  --workdir DIR [--trace 0|1] "
                 "[--setup-only]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifdef FLEXIBENCH_UNOPTIMIZED
    std::fprintf(stderr, "flexibench: refusing to measure a "
                         "non-optimized build (configure with "
                         "-DCMAKE_BUILD_TYPE=Release)\n");
    return 1;
#endif
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue)
            args.workload = argv[++i];
        else if (a == "--seed" && hasValue)
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && hasValue)
            args.seconds = std::atof(argv[++i]);
        else if (a == "--trace" && hasValue)
            args.trace = std::atoi(argv[++i]) != 0;
        else if (a == "--threads" && hasValue)
            args.threads = static_cast<unsigned>(std::atoi(argv[++i]));
        else if (a == "--workdir" && hasValue)
            args.workdir = argv[++i];
        else if (a == "--setup-only")
            args.setupOnly = true;
        else
            return usage();
    }
    std::map<std::string, void (*)(Run &)> workloads = {
        {"wafer_lot", waferLot},
        {"fleet_field", fleetField},
        {"formal_lint", formalLint},
    };
    auto it = workloads.find(args.workload);
    if (it == workloads.end() || args.threads == 0 || args.seconds <= 0)
        return usage();

    Run run(args);
    try {
        it->second(run);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "flexibench: %s\n", e.what());
        return 1;
    }

    std::string json = "{";
    auto add = [&](const std::string &k, double v) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s\"%s\": %.9g",
                      json.size() > 1 ? ", " : "", k.c_str(), v);
        json += buf;
    };
    add("setup_s", run.setupS);
    if (!args.setupOnly) {
        add("attempted", static_cast<double>(run.attempted));
        add("failed", static_cast<double>(run.failed));
        add("units", static_cast<double>(run.unitMs.size()));
        add("peak_rss_mb", peakRssMb());
        add("error_rate",
            run.attempted ? static_cast<double>(run.failed) /
                                run.attempted
                          : 1.0);
        if (!args.trace) {
            double work = 0, ms = 0;
            for (size_t b = 0; b < run.batchMs.size(); ++b) {
                work += static_cast<double>(run.batchWork[b]);
                ms += run.batchMs[b];
            }
            add("work_per_s", work / (ms / 1e3));
            add("unit_ms_p50", percentile(run.unitMs, 0.5));
            add("unit_ms_p90", percentile(run.unitMs, 0.9));
        } else {
            for (const auto &[k, v] : layerMetrics(run))
                add("layer:" + k, v);
            std::filesystem::create_directories(args.workdir);
            run.tracer.write(args.workdir + "/trace-" + args.workload +
                             ".json");
        }
    }
    json += ", \"compiler\": \"" FLEXIBENCH_COMPILER "\"";
    json += ", \"cxx_flags\": \"" FLEXIBENCH_CXX_FLAGS "\"}";
    std::printf("%s\n", json.c_str());
    return 0;
}
