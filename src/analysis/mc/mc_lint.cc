#include "mc_lint.hh"

#include "common/logging.hh"

namespace flexi
{

namespace
{

Diagnostic
mcDiag(Severity sev, const std::string &rule,
       const std::string &message)
{
    Diagnostic d;
    d.severity = sev;
    d.rule = rule;
    d.module = "mc";
    d.message = message;
    return d;
}

/** Check one frame property and append its diagnostics. */
void
checkProperty(const Netlist &nl, const McLintOptions &opts,
              const McProperty &p, McLintOutcome &out)
{
    McResult res;
    if (opts.inductDepth > 0) {
        res = checkInduction(nl, opts.model, p, opts.inductDepth);
        if (res.status == McStatus::Unknown && opts.bmcDepth > 0) {
            // Induction could not close the proof; fall back to a
            // bounded falsification attempt so the report still
            // says something concrete about reachable cycles.
            McResult bmc = checkBmc(nl, opts.model, p,
                                    opts.bmcDepth);
            out.report.add(mcDiag(Severity::Warning, "prop-unknown",
                                  res.detail));
            res = bmc;
        }
    } else {
        res = checkBmc(nl, opts.model, p, opts.bmcDepth);
    }

    switch (res.status) {
      case McStatus::Proved:
        out.report.add(
            mcDiag(Severity::Note, "prop-proved", res.detail));
        return;
      case McStatus::Clean:
        out.report.add(
            mcDiag(Severity::Note, "prop-bmc-clean", res.detail));
        return;
      case McStatus::Unknown:
        out.report.add(
            mcDiag(Severity::Warning, "prop-unknown", res.detail));
        return;
      case McStatus::Invalid:
        out.report.add(
            mcDiag(Severity::Error, "prop-invalid", res.detail));
        return;
      case McStatus::Falsified:
        break;
    }

    // Never report a solver trace the reference interpreter won't
    // reproduce.
    std::string why;
    if (!replayMcTrace(nl, p, res.trace, &why)) {
        out.report.add(mcDiag(
            Severity::Error, "prop-replay-diverged",
            strfmt("%s (reference replay: %s)", res.detail.c_str(),
                   why.c_str())));
        return;
    }
    out.report.add(mcDiag(
        Severity::Error, "prop-cex",
        strfmt("%s; confirmed by reference replay\n%s",
               res.detail.c_str(), res.trace.text().c_str())));
    out.traces.push_back(res.trace);
}

void
checkXFree(const Netlist &nl, const McLintOptions &opts,
           const McProperty &p, McLintOutcome &out)
{
    SeqResetCoverageResult res =
        seqResetCoverage(nl, opts.model, p.param);
    if (res.covered.empty() && !res.ok) {
        out.report.add(
            mcDiag(Severity::Error, "prop-invalid", res.detail));
        return;
    }
    if (res.ok) {
        out.report.add(mcDiag(
            Severity::Note, "prop-proved",
            strfmt("'%s': %s", p.spec.c_str(),
                   res.detail.c_str())));
        return;
    }
    Diagnostic d = mcDiag(
        Severity::Warning, "x-after-reset-seq",
        strfmt("'%s': %s", p.spec.c_str(), res.detail.c_str()));
    auto dffs = nl.dffs();
    for (size_t i = 0; i < dffs.size(); ++i)
        if (!res.covered[i])
            d.nets.push_back(dffs[i].q);
    out.report.add(std::move(d));
}

} // namespace

McLintOutcome
mcLint(const Netlist &nl, const McLintOptions &opts)
{
    McLintOutcome out;

    std::vector<McProperty> props;
    if (opts.props.empty()) {
        props = defaultProperties(opts.model);
    } else {
        for (const std::string &spec : opts.props) {
            McProperty p;
            std::string err;
            if (!parsePropertySpec(spec, p, &err)) {
                out.report.add(mcDiag(
                    Severity::Error, "prop-invalid",
                    strfmt("'%s': %s", spec.c_str(), err.c_str())));
                continue;
            }
            props.push_back(std::move(p));
        }
    }

    for (McProperty &p : props) {
        std::string err = validateProperty(nl, opts.model, p);
        if (!err.empty()) {
            out.report.add(mcDiag(
                Severity::Error, "prop-invalid",
                strfmt("'%s': %s", p.spec.c_str(), err.c_str())));
            continue;
        }
        if (p.kind == McProperty::Kind::XFree)
            checkXFree(nl, opts, p, out);
        else
            checkProperty(nl, opts, p, out);
    }

    out.report.resolveNetNames(nl);
    return out;
}

} // namespace flexi
