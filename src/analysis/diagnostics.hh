/**
 * @file
 * Structured diagnostics shared by the static-analysis passes.
 *
 * Both lint passes (netlist and program) emit Diagnostic records
 * rather than printing: the flexilint CLI renders them as text or
 * JSON, the test suite asserts on individual rules, and the kernel
 * runner turns errors into hard failures in debug builds. Severity
 * determines the CI exit code: a report is "clean" iff it contains
 * no Error-severity findings (warnings document smells — e.g. code
 * that relies on the power-on register state — without failing the
 * build).
 */

#ifndef FLEXI_ANALYSIS_DIAGNOSTICS_HH
#define FLEXI_ANALYSIS_DIAGNOSTICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hh"

namespace flexi
{

/** How bad a finding is. */
enum class Severity : uint8_t
{
    Note,      ///< informational, never fails anything
    Warning,   ///< a smell; fails only under --werror
    Error,     ///< electrically or architecturally wrong
};

const char *severityName(Severity severity);

/** One lint finding. */
struct Diagnostic
{
    Severity severity = Severity::Warning;
    /** Stable kebab-case rule id, e.g. "comb-loop" (docs/LINT.md). */
    std::string rule;
    /** Netlist module tag, or "page<N>" for program findings. */
    std::string module;
    /** Nets involved (netlist findings only). */
    std::vector<NetId> nets;
    /** Program location; -1 when not applicable. */
    int page = -1;
    int addr = -1;
    std::string message;
    /**
     * Stable names for `nets`, resolved through the netlist name
     * table (LintReport::resolveNetNames()). JSON output renders
     * these instead of bare NetId integers, so reports stay
     * meaningful across netlist re-elaboration.
     */
    std::vector<std::string> netNames;
};

/** A netlist finding in @p module over @p nets (none: empty). */
Diagnostic netlistFinding(Severity severity, std::string rule,
                          std::string module, std::vector<NetId> nets,
                          std::string message);

/** A program finding at @p addr of @p page (module "page<N>"). */
Diagnostic programFinding(Severity severity, std::string rule,
                          unsigned page, unsigned addr,
                          std::string message);

/** The outcome of one lint pass (or several, concatenated). */
class LintReport
{
  public:
    void add(Diagnostic diag) { diags_.push_back(std::move(diag)); }
    void append(const LintReport &other);

    /**
     * Fill every diagnostic's netNames from its nets via the
     * netlist's name table. Passes call this once after emitting
     * their findings.
     */
    void resolveNetNames(const Netlist &nl);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diags_;
    }

    size_t count(Severity severity) const;
    size_t errors() const { return count(Severity::Error); }
    size_t warnings() const { return count(Severity::Warning); }

    /** No errors (warnings and notes allowed). */
    bool clean() const { return errors() == 0; }

    /**
     * Canonicalize for byte-stable rendering: stable sort by (rule,
     * module, page, addr, nets, message), then drop exact duplicate
     * findings. flexilint normalizes every report before rendering,
     * so --json output is independent of pass ordering, append()
     * order, and thread count.
     */
    void normalize();

    /** Findings for one rule id (test helper). */
    std::vector<Diagnostic> byRule(const std::string &rule) const;
    bool fires(const std::string &rule) const
    {
        return !byRule(rule).empty();
    }

    /**
     * Human-readable rendering, one finding per line:
     *   error[comb-loop] alu: NAND2 #5 ... -> ...
     * @p subject prefixes every line (netlist or program name).
     */
    std::string text(const std::string &subject) const;

    /** JSON array-of-objects rendering for tool consumption. */
    std::string json(const std::string &subject) const;

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace flexi

#endif // FLEXI_ANALYSIS_DIAGNOSTICS_HH
