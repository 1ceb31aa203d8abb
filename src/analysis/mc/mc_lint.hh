/**
 * @file
 * The sequential model checker as a lint pass.
 *
 * mcLint() runs a property catalog through BMC / k-induction /
 * sequential reset coverage and renders the outcomes as structured
 * diagnostics (rules documented in docs/LINT.md):
 *
 *   prop-proved     Note     k-induction closed (or every state bit
 *                            sequentially covered, for xfree)
 *   prop-bmc-clean  Note     no violation within the BMC bound
 *   prop-cex        Error    concrete multi-cycle counterexample,
 *                            confirmed by reference-interpreter
 *                            replay; the rendered trace is part of
 *                            the message
 *   prop-unknown    Warning  induction did not close within maxK
 *   prop-invalid    Error    malformed spec or inapplicable model
 *   x-after-reset-seq Warning state bits that stay power-on-
 *                            dependent past the xfree window even
 *                            under the sequential (two-copy) model
 *   prop-replay-diverged Error a solver counterexample the reference
 *                            interpreter refuses to reproduce (an
 *                            encoder bug — should never fire)
 */

#ifndef FLEXI_ANALYSIS_MC_MC_LINT_HH
#define FLEXI_ANALYSIS_MC_MC_LINT_HH

#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/mc/bmc.hh"

namespace flexi
{

struct McLintOptions
{
    /** BMC bound (used when induction is off, or as the
     *  falsification fallback when induction returns Unknown). */
    unsigned bmcDepth = 8;
    /** Maximum induction k; 0 disables the induction attempt. */
    unsigned inductDepth = 0;
    /**
     * Property specs (the --prop grammar). Empty runs the default
     * catalog for the model.
     */
    std::vector<std::string> props;
    McModel model;
};

struct McLintOutcome
{
    LintReport report;
    /** Confirmed counterexample traces, for VCD dumping. */
    std::vector<McTrace> traces;
    /** Solver effort summed over every property checked. */
    uint64_t solves = 0;
    uint64_t conflicts = 0;
};

McLintOutcome mcLint(const Netlist &nl, const McLintOptions &opts);

} // namespace flexi

#endif // FLEXI_ANALYSIS_MC_MC_LINT_HH
