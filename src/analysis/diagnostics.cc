#include "diagnostics.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"

namespace flexi
{

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    panic("severityName: bad Severity");
}

Diagnostic
netlistFinding(Severity severity, std::string rule, std::string module,
               std::vector<NetId> nets, std::string message)
{
    Diagnostic d;
    d.severity = severity;
    d.rule = std::move(rule);
    d.module = std::move(module);
    d.nets = std::move(nets);
    d.message = std::move(message);
    return d;
}

Diagnostic
programFinding(Severity severity, std::string rule, unsigned page,
               unsigned addr, std::string message)
{
    Diagnostic d;
    d.severity = severity;
    d.rule = std::move(rule);
    d.module = strfmt("page%u", page);
    d.page = static_cast<int>(page);
    d.addr = static_cast<int>(addr);
    d.message = std::move(message);
    return d;
}

void
LintReport::append(const LintReport &other)
{
    diags_.insert(diags_.end(), other.diags_.begin(),
                  other.diags_.end());
}

void
LintReport::resolveNetNames(const Netlist &nl)
{
    for (auto &d : diags_) {
        if (!d.netNames.empty())
            continue;   // already resolved by the emitting pass
        d.netNames.reserve(d.nets.size());
        for (NetId net : d.nets)
            d.netNames.push_back(nl.netName(net));
    }
}

size_t
LintReport::count(Severity severity) const
{
    size_t n = 0;
    for (const auto &d : diags_)
        if (d.severity == severity)
            ++n;
    return n;
}

void
LintReport::normalize()
{
    auto key = [](const Diagnostic &d) {
        return std::tie(d.rule, d.module, d.page, d.addr, d.nets,
                        d.message);
    };
    std::stable_sort(diags_.begin(), diags_.end(),
                     [&](const Diagnostic &a, const Diagnostic &b) {
                         return key(a) < key(b);
                     });
    auto same = [&](const Diagnostic &a, const Diagnostic &b) {
        return a.severity == b.severity && key(a) == key(b) &&
               a.netNames == b.netNames;
    };
    diags_.erase(std::unique(diags_.begin(), diags_.end(), same),
                 diags_.end());
}

std::vector<Diagnostic>
LintReport::byRule(const std::string &rule) const
{
    std::vector<Diagnostic> out;
    for (const auto &d : diags_)
        if (d.rule == rule)
            out.push_back(d);
    return out;
}

std::string
LintReport::text(const std::string &subject) const
{
    std::string out;
    for (const auto &d : diags_) {
        out += subject + ": " + severityName(d.severity) + "[" +
               d.rule + "]";
        if (!d.module.empty())
            out += " " + d.module;
        if (d.page >= 0)
            out += strfmt(" page %d addr %d", d.page, d.addr);
        out += ": " + d.message + "\n";
    }
    return out;
}

namespace
{

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

std::string
LintReport::json(const std::string &subject) const
{
    std::string out = "[";
    for (size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic &d = diags_[i];
        if (i)
            out += ",";
        out += "\n  {";
        out += "\"subject\": \"" + jsonEscape(subject) + "\", ";
        out += strfmt("\"severity\": \"%s\", ",
                      severityName(d.severity));
        out += "\"rule\": \"" + jsonEscape(d.rule) + "\", ";
        out += "\"module\": \"" + jsonEscape(d.module) + "\", ";
        out += strfmt("\"page\": %d, \"addr\": %d, ", d.page, d.addr);
        out += "\"nets\": [";
        // Prefer the resolved stable names; fall back to "n<id>" for
        // diagnostics that were never resolved against a netlist.
        for (size_t k = 0; k < d.nets.size(); ++k) {
            std::string name = k < d.netNames.size()
                                   ? d.netNames[k]
                                   : strfmt("n%u", d.nets[k]);
            out += (k ? ", " : "");
            out += '"';
            out += jsonEscape(name);
            out += '"';
        }
        out += "], ";
        out += "\"message\": \"" + jsonEscape(d.message) + "\"}";
    }
    out += "\n]\n";
    return out;
}

} // namespace flexi
