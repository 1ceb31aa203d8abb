#include "sweep.hh"

#include "analysis/dataflow/struct_hash.hh"
#include "analysis/mc/mc_lint.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "dse/area_model.hh"
#include "dse/code_size.hh"
#include "dse/perf_model.hh"
#include "netlist/flexicore_netlist.hh"

namespace flexi
{

bool
SweepCandidate::dominates(const SweepCandidate &other) const
{
    bool no_worse = area <= other.area && codeRel <= other.codeRel &&
                    energyRel <= other.energyRel;
    bool better = area < other.area || codeRel < other.codeRel ||
                  energyRel < other.energyRel;
    return no_worse && better;
}

namespace
{

/** The paper's candidate feature subsets (Section 6.1). */
std::vector<IsaFeatures>
candidateFeatureSets()
{
    std::vector<IsaFeatures> sets;
    sets.push_back(IsaFeatures::none());
    {
        IsaFeatures f;
        f.coalescing = true;
        f.branchFlags = true;
        sets.push_back(f);
    }
    {
        IsaFeatures f;
        f.coalescing = true;
        f.barrelShifter = true;
        f.branchFlags = true;
        sets.push_back(f);
    }
    sets.push_back(IsaFeatures::revised());
    {
        IsaFeatures f = IsaFeatures::revised();
        f.multiplier = true;
        sets.push_back(f);
    }
    return sets;
}

/** splitmix64 step for composing cache-key fields. */
uint64_t
mixKey(uint64_t h, uint64_t v)
{
    uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Canonical structural hash of the base core netlist behind one
 * operand model — the "structure version" part of the cache key.
 * Computed once per process (the generators are deterministic).
 */
uint64_t
coreStructureHash(OperandModel model)
{
    static const uint64_t ext =
        canonicalNetlistHash(*buildExtAcc4Netlist());
    static const uint64_t ls =
        canonicalNetlistHash(*buildLoadStore4Netlist());
    return model == OperandModel::LoadStore ? ls : ext;
}

} // namespace

uint64_t
sweepPointKey(const DesignPoint &point, const SweepConfig &cfg)
{
    const IsaFeatures &f = point.features;
    uint64_t feature_bits =
        (f.coalescing ? 1u : 0u) | (f.barrelShifter ? 2u : 0u) |
        (f.branchFlags ? 4u : 0u) | (f.multiplier ? 8u : 0u) |
        (f.exchange ? 16u : 0u) | (f.subroutines ? 32u : 0u) |
        (f.doubleMemory ? 64u : 0u);
    uint64_t h = coreStructureHash(point.operands);
    h = mixKey(h, static_cast<uint64_t>(point.operands));
    h = mixKey(h, static_cast<uint64_t>(point.uarch));
    h = mixKey(h, static_cast<uint64_t>(point.bus));
    h = mixKey(h, feature_bits);
    h = mixKey(h, cfg.workUnits);
    h = mixKey(h, cfg.seed);
    return h;
}

SweepResult
runSweep(const SweepConfig &cfg)
{
    SweepResult result;
    double base_area = baseCoreArea();

    // Sequential property gate, next to the static timing gate: the
    // base core netlist behind each operand model must satisfy
    // every configured property. The verdict depends only on the
    // operand model, so it is computed once, by one mcLint() call
    // (k-induction with a BMC fallback, both at propertyDepth), and
    // shared by every point that uses that core. The verdict is the
    // first error or sequential x-after-reset finding; empty = all
    // properties hold (or none configured).
    std::map<OperandModel, std::string> prop_verdicts;
    auto propertyFailure =
        [&](OperandModel om) -> const std::string & {
        auto it = prop_verdicts.find(om);
        if (it != prop_verdicts.end())
            return it->second;
        auto nl = om == OperandModel::LoadStore
                      ? buildLoadStore4Netlist()
                      : buildExtAcc4Netlist();
        McLintOptions lint;
        lint.bmcDepth = lint.inductDepth = cfg.propertyDepth;
        lint.props = cfg.properties;
        McLintOutcome out = mcLint(*nl, lint);
        std::string fail;
        for (const Diagnostic &d : out.report.diagnostics()) {
            if (d.severity == Severity::Error ||
                d.rule == "x-after-reset-seq") {
                fail = d.message;
                break;
            }
        }
        return prop_verdicts.emplace(om, std::move(fail))
            .first->second;
    };

    // Enumerate feasible points in a fixed order (the result order
    // and the per-point work are both independent of threading).
    std::vector<SweepCandidate> all;
    for (const IsaFeatures &f : candidateFeatureSets()) {
        for (OperandModel om :
             {OperandModel::Accumulator, OperandModel::LoadStore}) {
            for (MicroArch ua : {MicroArch::SingleCycle,
                                 MicroArch::Pipelined2,
                                 MicroArch::MultiCycle}) {
                SweepCandidate c;
                c.point = {om, ua, BusWidth::Wide, f};
                if (!c.point.feasible())
                    continue;
                // The load-store ISA is only implemented with the
                // full revised feature set.
                if (om == OperandModel::LoadStore &&
                    !(f == IsaFeatures::revised()))
                    continue;
                // Static timing gate: a point whose worst path
                // cannot close the clock at the operating voltage
                // is rejected before any simulation is spent on it.
                StaticTimingCheck timing = checkDesignPointTiming(
                    c.point, cfg.vddOperating);
                if (!timing.feasible) {
                    result.rejected.push_back(
                        {c.point, timing, {}});
                    continue;
                }
                // Property gate: a falsified sequential property on
                // the point's base core rejects it unsimulated,
                // exactly like a missed clock period.
                if (!cfg.properties.empty()) {
                    const std::string &pf = propertyFailure(om);
                    if (!pf.empty()) {
                        result.rejected.push_back(
                            {c.point, StaticTimingCheck{}, pf});
                        continue;
                    }
                }
                all.push_back(c);
            }
        }
    }

    // Cache lookup: points whose (structure, point, inputs) key is
    // already known skip evaluation entirely — including the
    // baseline-energy simulation when every point hits.
    std::vector<size_t> to_eval;
    to_eval.reserve(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
        if (cfg.cache) {
            uint64_t key = sweepPointKey(all[i].point, cfg);
            auto it = cfg.cache->entries.find(key);
            if (it != cfg.cache->entries.end()) {
                all[i].area = it->second.area;
                all[i].codeRel = it->second.codeRel;
                all[i].energyRel = it->second.energyRel;
                ++cfg.cache->hits;
                continue;
            }
            ++cfg.cache->misses;
        }
        to_eval.push_back(i);
    }

    // Suite-average baseline energy (the normalization denominator);
    // computed in parallel over kernels, and only when some point
    // actually needs evaluating.
    double base_energy = 0.0;
    if (!to_eval.empty()) {
        std::vector<double> base_by_kernel(kNumKernels, 0.0);
        auto kernels = allKernels();
        parallelFor(kernels.size(), cfg.threads, [&](size_t k) {
            base_by_kernel[k] = evalFlexiCore4Baseline(
                kernels[k], cfg.workUnits, cfg.seed).energyJ;
        });
        for (double e : base_by_kernel)
            base_energy += e;
    }

    parallelFor(to_eval.size(), cfg.threads, [&](size_t n) {
        SweepCandidate &c = all[to_eval[n]];
        const IsaFeatures &f = c.point.features;
        c.area = areaOf(c.point).total() / base_area;
        // Code size: measured for the revised sets, idiom estimate
        // otherwise.
        c.codeRel = relativeSuiteCodeSize(f);
        double e = 0.0;
        if (f == IsaFeatures::none() &&
            c.point.operands == OperandModel::Accumulator &&
            c.point.uarch == MicroArch::SingleCycle) {
            e = base_energy;
        } else if (f == IsaFeatures::revised()) {
            for (KernelId id : allKernels())
                e += evalDsePoint(id, c.point, cfg.workUnits,
                                  cfg.seed).energyJ;
        } else {
            // Feature subsets short of the revised set run the base
            // binaries (no custom codegen): energy scales with area
            // at unchanged cycle counts.
            e = base_energy * c.area *
                fmaxOf(DesignPoint{c.point.operands, c.point.uarch,
                                   BusWidth::Wide,
                                   IsaFeatures::none()}) /
                fmaxOf(c.point);
        }
        c.energyRel = e / base_energy;
    });

    if (cfg.cache)
        for (size_t i : to_eval)
            cfg.cache->entries[sweepPointKey(all[i].point, cfg)] = {
                all[i].area, all[i].codeRel, all[i].energyRel};

    for (auto &c : all) {
        c.pareto = true;
        for (const auto &other : all)
            if (other.dominates(c))
                c.pareto = false;
    }
    result.candidates = std::move(all);
    return result;
}

std::vector<SweepCandidate>
sweepDesignSpace(const SweepConfig &cfg)
{
    return runSweep(cfg).candidates;
}

} // namespace flexi
