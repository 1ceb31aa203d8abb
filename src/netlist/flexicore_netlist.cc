#include "flexicore_netlist.hh"

#include "common/logging.hh"

namespace flexi
{

std::unique_ptr<Netlist>
buildCoreNetlist(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
      case IsaKind::LoadStore4: return buildLoadStore4Netlist();
    }
    fatal("bad IsaKind %d", static_cast<int>(isa));
}

} // namespace flexi
