/**
 * @file
 * Design-space sweep: enumerate the Section 6 candidate space
 * (ISA feature subsets x operand model x microarchitecture), run
 * the real kernel suite on every feasible point, and mark the
 * Pareto frontier over (area, code size, energy).
 *
 * This is the library form of what examples/dse_explorer.cc used to
 * do inline, with the evaluation fanned out over a thread pool.
 * Every design point is evaluated independently from deterministic
 * inputs, so the sweep is bit-identical for any thread count.
 */

#ifndef FLEXI_DSE_SWEEP_HH
#define FLEXI_DSE_SWEEP_HH

#include <cstdint>
#include <map>
#include <vector>

#include "dse/design_point.hh"
#include "dse/static_timing.hh"
#include "tech/technology.hh"

namespace flexi
{

/** One evaluated point of the design-space sweep. */
struct SweepCandidate
{
    DesignPoint point;
    /** Area / suite code size / suite energy vs FlexiCore4 (= 1). */
    double area = 0.0;
    double codeRel = 0.0;
    double energyRel = 0.0;
    /** On the Pareto frontier over (area, codeRel, energyRel)? */
    bool pareto = false;

    bool dominates(const SweepCandidate &other) const;
};

/**
 * Cross-sweep evaluation cache for incremental design-space
 * exploration. Entries are keyed by sweepPointKey(): a mix of the
 * *canonical structural hash* of the point's base core netlist (so
 * any change to the generated structure invalidates every entry,
 * no matter how the netlist was rebuilt), the design-point
 * descriptor, and the evaluation inputs (workUnits, seed). A
 * population-scale study re-running sweeps over unchanged
 * structures pays for each point once.
 *
 * The cache is passive data: share one across runSweep() calls to
 * reuse results, inspect hits/misses for reporting. Not
 * thread-safe against *concurrent sweeps* (a single sweep only
 * touches it from the coordinating thread).
 */
struct SweepCache
{
    struct Entry
    {
        double area = 0.0;
        double codeRel = 0.0;
        double energyRel = 0.0;
    };
    std::map<uint64_t, Entry> entries;
    uint64_t hits = 0;
    uint64_t misses = 0;
};

/** Configuration of one sweep. */
struct SweepConfig
{
    /** Kernel work units per evaluation. */
    size_t workUnits = 12;
    /** Kernel input-generation seed. */
    uint64_t seed = 3;
    /** Worker threads: 0 = auto, 1 = single-threaded. Results are
     *  bit-identical for any value. */
    unsigned threads = 0;
    /**
     * Supply voltage the candidates must close timing at. Points
     * whose worst path misses the clock period at this supply are
     * rejected statically (never simulated) and reported in
     * SweepResult::rejected. At the default nominal 4.5 V every
     * candidate fits; sweeping at kVddLow reproduces the paper's
     * low-voltage feasibility cliff.
     */
    double vddOperating = kVddNominal;
    /**
     * Optional evaluation cache (see SweepCache). vddOperating is
     * deliberately not part of the key: it only gates which points
     * are simulated, never their metrics.
     */
    SweepCache *cache = nullptr;
    /**
     * Sequential properties (the flexilint --prop grammar) every
     * point's base core netlist must satisfy, checked by one
     * mcLint() call per core (k-induction with a BMC fallback)
     * before any simulation. A falsified or inapplicable property
     * rejects the point next to the static timing gate. Like
     * vddOperating, the list is not part of the cache key: it gates
     * which points are simulated, never their metrics.
     */
    std::vector<std::string> properties;
    /** Induction k / BMC bound for the property gate. */
    unsigned propertyDepth = 4;
};

/** Cache key of one design point under one configuration. */
uint64_t sweepPointKey(const DesignPoint &point,
                       const SweepConfig &cfg);

/** A design point a pre-simulation gate refused to simulate. */
struct RejectedPoint
{
    DesignPoint point;
    StaticTimingCheck timing;
    /** Set when the property gate rejected the point: the message
     *  of the first failing spec's finding. Empty for static-timing
     *  rejections. */
    std::string property;
};

/** Evaluated candidates plus the statically rejected points. */
struct SweepResult
{
    std::vector<SweepCandidate> candidates;
    std::vector<RejectedPoint> rejected;
};

/**
 * Evaluate the paper's candidate feature sets across both operand
 * models and all three microarchitectures (wide bus). Candidates
 * that fail static timing at cfg.vddOperating are rejected without
 * simulation; the rest are evaluated and returned in a
 * deterministic enumeration order with the Pareto frontier marked.
 */
SweepResult runSweep(const SweepConfig &cfg);

/** runSweep() without the rejection report (legacy shape). */
std::vector<SweepCandidate> sweepDesignSpace(const SweepConfig &cfg);

} // namespace flexi

#endif // FLEXI_DSE_SWEEP_HH
