/**
 * @file
 * Stuck-at fault coverage of the wafer-test vector suite.
 *
 * Section 4.1 claims the directed+random vectors "stimulate all
 * regions of the cores" — the property that makes the zero-error
 * criterion a sound yield test. This harness measures it directly:
 * for every net in the FlexiCore4 / FlexiCore8 netlists, inject
 * stuck-at-0 and stuck-at-1 and check whether the vector suite
 * produces at least one output mismatch. Undetected faults are
 * broken down by module (test escapes concentrate in redundant
 * logic).
 */

#include <cstdio>
#include <map>

#include "analysis/atpg.hh"
#include "bench_util.hh"
#include "netlist/flexicore_netlist.hh"
#include "yield/test_program.hh"

using namespace flexi;

namespace
{

void
coverageFor(IsaKind isa, uint64_t cycles)
{
    auto nl = isa == IsaKind::FlexiCore4 ? buildFlexiCore4Netlist()
                                         : buildFlexiCore8Netlist();
    Program prog = makeTestProgram(isa, 11);
    auto inputs = makeTestInputs(isa, 256, 11);

    // runAtpg() fault-simulates the whole universe — every cell
    // output, stuck at 0 and at 1 — and reports each escape with its
    // module, so the per-module table needs only the cell list.
    AtpgConfig atpg;
    atpg.isa = isa;
    atpg.simCycles = cycles;
    AtpgReport rep = runAtpg(atpg, prog, inputs);
    std::map<std::string, std::pair<unsigned, unsigned>> by_module;
    for (const CellInst &cell : nl->cells()) {
        by_module[cell.module].first += 2;
        by_module[cell.module].second += 2;
    }
    for (const AtpgFault &f : rep.escapes)
        --by_module[f.module].first;

    std::printf("\n%s: %zu cell-output stuck-at faults, %zu detected "
                "(%.1f%% coverage over %lu-cycle suite)\n",
                nl->name().c_str(), rep.faults, rep.simDetected,
                100.0 * rep.simDetected / rep.faults,
                static_cast<unsigned long>(cycles));
    TextTable t({"Module", "Detected", "Faults", "Coverage"});
    for (const auto &[module, counts] : by_module) {
        t.addRow({module, std::to_string(counts.first),
                  std::to_string(counts.second),
                  pct(static_cast<double>(counts.first) /
                      counts.second)});
    }
    std::printf("%s", t.str().c_str());

    // SAT-guided ATPG triage of the escapes: test holes (a pattern
    // exists) versus provably redundant faults (UNSAT miter), and
    // the resulting coverage over testable faults.
    std::printf("\nSAT-guided ATPG over the %zu escapes: %zu testable "
                "(pattern generated), %zu provably\nredundant; "
                "testable-fault coverage %.1f%% "
                "(%llu solver calls, %llu conflicts)\n",
                rep.escapes.size(), rep.testable, rep.redundant,
                100.0 * rep.testableCoverage(),
                static_cast<unsigned long long>(rep.solves),
                static_cast<unsigned long long>(rep.conflicts));
    for (const AtpgFault &f : rep.escapes) {
        if (f.testable)
            std::printf("  hole: %s stuck-at-%d [%s]  pattern: %s\n",
                        f.net.c_str(), f.fault.value ? 1 : 0,
                        f.module.c_str(), f.pattern.c_str());
    }
}

} // namespace

int
main()
{
    benchHeader("Fault coverage", "stuck-at detection by the "
                "Section 4.1 directed+random vector suite");

    coverageFor(IsaKind::FlexiCore4, 1500);
    coverageFor(IsaKind::FlexiCore8, 1500);

    std::printf("\nInterpretation: high coverage means a defective "
                "die almost always shows output\nerrors on the probe "
                "station, so the zero-error criterion measures true "
                "yield.\nResidual escapes sit in logic whose effect "
                "is masked (e.g. pad receivers whose\nfanout is not "
                "modeled, write-enable terms for the unwriteable "
                "input word).\n");
    return 0;
}
