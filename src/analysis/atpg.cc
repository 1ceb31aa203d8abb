#include "atpg.hh"

#include <algorithm>
#include <memory>

#include "analysis/equiv.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/lockstep.hh"

namespace flexi
{

namespace
{

std::unique_ptr<Netlist>
atpgGolden(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      default:
        fatal("ATPG targets the fabricated cores, not %s",
              isaName(isa));
    }
}

} // namespace

double
AtpgReport::simCoverage() const
{
    return faults ? static_cast<double>(simDetected) / faults : 0.0;
}

double
AtpgReport::testableCoverage() const
{
    size_t denom = faults - redundant;
    return denom ? static_cast<double>(simDetected) / denom : 0.0;
}

AtpgReport
runAtpg(const AtpgConfig &config, const Program &prog,
        const std::vector<uint8_t> &inputs)
{
    std::unique_ptr<Netlist> golden = atpgGolden(config.isa);
    const std::vector<CellInst> &cells = golden->cells();

    // The fault universe: every cell output, stuck at 0 and at 1.
    // A cap samples evenly over the cell list so every module stays
    // represented (strided, deterministic — no RNG involved).
    size_t universe = cells.size() * 2;
    size_t count = config.maxFaults && config.maxFaults < universe
                       ? config.maxFaults : universe;
    std::vector<AtpgFault> verdicts(count);
    for (size_t i = 0; i < count; ++i) {
        size_t idx = i * universe / count;
        const CellInst &cell = cells[idx / 2];
        AtpgFault &v = verdicts[i];
        v.fault = StuckFault{cell.output, (idx & 1) != 0};
        v.net = golden->netName(cell.output);
        v.module = cell.module;
    }

    // Fault simulation: the faults in order, up to 512 to a lane
    // group, against one golden tape. Detection is all ATPG needs,
    // so a lane retires at its first mismatch and a group stops once
    // every lane has.
    GoldenTape tape(config.isa, prog, inputs, config.simCycles);
    size_t groups = (count + LaneGroup::kMaxLanes - 1) /
                    LaneGroup::kMaxLanes;
    parallelFor(groups, config.threads, [&](size_t g) {
        size_t begin = g * LaneGroup::kMaxLanes;
        unsigned n = static_cast<unsigned>(
            std::min<size_t>(LaneGroup::kMaxLanes, count - begin));
        LaneGroup group(*golden, n);
        for (unsigned lane = 0; lane < n; ++lane)
            group.injectFault(lane, verdicts[begin + lane].fault);
        LockstepGroupResult sim =
            runLockstepGroup(group, *golden, tape, /*early_exit=*/true);
        for (unsigned lane = 0; lane < n; ++lane)
            verdicts[begin + lane].simDetected = !sim.laneClean(lane);
    });

    std::vector<uint64_t> solves(count, 0), conflicts(count, 0);
    parallelFor(count, config.threads, [&](size_t i) {
        AtpgFault &v = verdicts[i];
        if (v.simDetected)
            return;

        // Simulation escape: ask the SAT miter whether *any* input
        // and state assignment distinguishes the faulty die.
        std::unique_ptr<Netlist> faulty = golden->clone();
        faulty->injectFault(v.fault);
        EquivResult eq = checkNetlistEquivalence(*golden, *faulty);
        solves[i] = eq.solves;
        conflicts[i] = eq.conflicts;
        if (eq.proven) {
            v.redundant = true;
        } else if (eq.hasCex) {
            v.testable = true;
            v.pattern = eq.cex.text();
        }
        // (Neither: encoder limitation — counted as neither testable
        // nor redundant, keeping the coverage claims conservative.)
    });

    AtpgReport report;
    report.faults = count;
    for (size_t i = 0; i < count; ++i)
        report.solves += solves[i], report.conflicts += conflicts[i];
    for (AtpgFault &v : verdicts) {
        if (v.simDetected) {
            ++report.simDetected;
            continue;
        }
        report.testable += v.testable;
        report.redundant += v.redundant;
        report.escapes.push_back(std::move(v));
    }
    return report;
}

} // namespace flexi
