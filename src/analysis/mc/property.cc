#include "property.hh"

#include <cctype>
#include <cstdint>

#include "common/logging.hh"

namespace flexi
{

namespace
{

/** Decimal digits only; a value past 2^64 - 1 is rejected, not
 *  clamped (strtoull would saturate it into a vacuous limit). */
bool
parseUnsigned(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
        unsigned d = static_cast<unsigned>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

bool
failParse(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

} // namespace

bool
parsePropertySpec(const std::string &spec, McProperty &out,
                  std::string *err)
{
    out = McProperty();
    out.spec = spec;

    if (spec.rfind("assert:", 0) == 0) {
        out.kind = McProperty::Kind::NetAssert;
        std::string body = spec.substr(7);
        size_t eq = body.rfind('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 2 != body.size())
            return failParse(err, "expected assert:<net>=<0|1>");
        char v = body[eq + 1];
        if (v != '0' && v != '1')
            return failParse(err, "expected assert:<net>=<0|1>");
        out.net = body.substr(0, eq);
        out.value = v == '1';
        return true;
    }
    if (spec.rfind("bound:", 0) == 0) {
        out.kind = McProperty::Kind::BusBound;
        std::string body = spec.substr(6);
        size_t s1 = body.find('/');
        size_t s2 = s1 == std::string::npos
                        ? std::string::npos
                        : body.find('/', s1 + 1);
        if (s1 == std::string::npos || s2 == std::string::npos)
            return failParse(err,
                             "expected bound:<bus>/<width>/<limit>");
        uint64_t width = 0, limit = 0;
        if (!parseUnsigned(body.substr(s1 + 1, s2 - s1 - 1), width) ||
            !parseUnsigned(body.substr(s2 + 1), limit) ||
            width == 0 || width > 64 || s1 == 0)
            return failParse(err,
                             "expected bound:<bus>/<width>/<limit>");
        out.bus = body.substr(0, s1);
        out.width = static_cast<unsigned>(width);
        out.limit = limit;
        return true;
    }
    auto withParam = [&](const char *head, McProperty::Kind kind,
                         unsigned dflt) {
        std::string h = head;
        if (spec == h) {
            out.kind = kind;
            out.param = dflt;
            return 1;
        }
        if (spec.rfind(h + ":", 0) == 0) {
            uint64_t p = 0;
            if (!parseUnsigned(spec.substr(h.size() + 1), p) ||
                p == 0 || p > 64)
                return -1;
            out.kind = kind;
            out.param = static_cast<unsigned>(p);
            return 1;
        }
        return 0;
    };
    switch (withParam("watchdog", McProperty::Kind::Watchdog, 1)) {
      case 1: return true;
      case -1:
        return failParse(err, "expected watchdog[:N], N in 1..64");
      default: break;
    }
    switch (withParam("xfree", McProperty::Kind::XFree, 4)) {
      case 1: return true;
      case -1:
        return failParse(err, "expected xfree[:K], K in 1..64");
      default: break;
    }
    if (spec == "mmu-page") {
        out.kind = McProperty::Kind::MmuPage;
        return true;
    }
    return failParse(
        err, "unknown property (assert:/bound:/watchdog/mmu-page/"
             "xfree)");
}

std::vector<McProperty>
defaultProperties(const McModel &model)
{
    std::vector<McProperty> props;
    McProperty p;
    if (model.program) {
        parsePropertySpec("watchdog", p);
        props.push_back(p);
        parsePropertySpec("mmu-page", p);
        props.push_back(p);
    }
    parsePropertySpec("xfree", p);
    props.push_back(p);
    return props;
}

std::string
validateProperty(const Netlist &nl, const McModel &model,
                 McProperty &p)
{
    switch (p.kind) {
      case McProperty::Kind::NetAssert:
        if (nl.findNet(p.net) == kNoNet)
            return strfmt("no net named '%s' in netlist '%s'",
                          p.net.c_str(), nl.name().c_str());
        return "";
      case McProperty::Kind::BusBound:
        if (resolvePadBus(nl, p.bus, p.width, false).empty())
            return strfmt(
                "no %u-bit output bus '%s' in netlist '%s'",
                p.width, p.bus.c_str(), nl.name().c_str());
        return "";
      case McProperty::Kind::Watchdog:
        if (!model.program)
            return "watchdog needs the ROM-closed model "
                   "(give a program)";
        if (resolvePadBus(nl, "pc", kPcBits, false).empty())
            return strfmt("netlist '%s' has no pc pad bus",
                          nl.name().c_str());
        return "";
      case McProperty::Kind::MmuPage: {
        if (!model.program)
            return "mmu-page needs the ROM-closed model "
                   "(give a program)";
        if (model.program->numPages() > 1)
            return "mmu-page supports single-page programs only";
        if (model.program->pageFill(0) == 0)
            return "mmu-page: the program image is empty";
        if (resolvePadBus(nl, "pc", kPcBits, false).empty())
            return strfmt("netlist '%s' has no pc pad bus",
                          nl.name().c_str());
        p.limit = model.program->pageFill(0);
        return "";
      }
      case McProperty::Kind::XFree:
        return "";
    }
    return "unreachable";
}

SatLit
propertyLit(CnfBuilder &cnf, const Unrolling &u, const McProperty &p,
            unsigned t)
{
    const Netlist &nl = u.netlist();
    switch (p.kind) {
      case McProperty::Kind::NetAssert: {
        NetId n = nl.findNet(p.net);
        if (n == kNoNet || !u.frame(t).hasLit(n))
            panic("propertyLit: unresolved net '%s'",
                  p.net.c_str());
        SatLit l = u.netLit(t, n);
        return p.value ? l : ~l;
      }
      case McProperty::Kind::BusBound: {
        auto nets = resolvePadBus(nl, p.bus, p.width, false);
        if (nets.empty())
            panic("propertyLit: unresolved bus '%s'",
                  p.bus.c_str());
        return cnf.lessThanConst(u.busLits(t, nets), p.limit);
      }
      case McProperty::Kind::MmuPage: {
        // limit resolved by validateProperty (page-0 fill).
        auto nets = resolvePadBus(nl, "pc", kPcBits, false);
        return cnf.lessThanConst(u.busLits(t, nets), p.limit);
      }
      case McProperty::Kind::Watchdog: {
        // Wedge stability: PC stuck from t to t+N implies it stays
        // stuck one more cycle. docs/FORMAL.md derives the
        // trips-within-N watchdog guarantee from this.
        auto nets = resolvePadBus(nl, "pc", kPcBits, false);
        std::vector<SatLit> stuck;
        for (unsigned i = 0; i < p.param; ++i)
            stuck.push_back(
                cnf.equalWords(u.busLits(t + i, nets),
                               u.busLits(t + i + 1, nets)));
        SatLit still =
            cnf.equalWords(u.busLits(t + p.param, nets),
                           u.busLits(t + p.param + 1, nets));
        return cnf.mkOr(~cnf.mkAndN(stuck), still);
      }
      case McProperty::Kind::XFree:
        panic("propertyLit: xfree is checked by seqResetCoverage()");
    }
    panic("propertyLit: bad kind");
}

bool
propertyHoldsConcrete(const McProperty &p,
                      const std::vector<unsigned> &pc,
                      const std::vector<unsigned> &bits, unsigned t)
{
    switch (p.kind) {
      case McProperty::Kind::NetAssert:
        return (bits.at(t) != 0) == p.value;
      case McProperty::Kind::BusBound:
        return bits.at(t) < p.limit;
      case McProperty::Kind::MmuPage:
        return pc.at(t) < p.limit;
      case McProperty::Kind::Watchdog: {
        for (unsigned i = 0; i < p.param; ++i)
            if (pc.at(t + i) != pc.at(t + i + 1))
                return true;   // premise fails: vacuously holds
        return pc.at(t + p.param) == pc.at(t + p.param + 1);
      }
      case McProperty::Kind::XFree:
        panic("propertyHoldsConcrete: xfree has no frame instance");
    }
    panic("propertyHoldsConcrete: bad kind");
}

} // namespace flexi
