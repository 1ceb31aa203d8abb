/**
 * @file
 * Structural gate-level models of the fabricated FlexiCore chips.
 *
 * Pin interface (matches the die pads, Section 4): the 8-bit
 * instruction bus INSTR and the input bus IPORT are primary inputs;
 * the 7-bit program counter PC and the output bus OPORT are primary
 * outputs. Program memory is off-chip: a test bench (or the real NI
 * pattern instrument) observes PC and drives INSTR.
 *
 * Bus naming: "instr0".."instr7", "iport0"..,"pc0".."pc6",
 * "oport0"... — LSB first.
 */

#ifndef FLEXI_NETLIST_FLEXICORE_NETLIST_HH
#define FLEXI_NETLIST_FLEXICORE_NETLIST_HH

#include <memory>

#include "isa/isa.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/** Build the FlexiCore4 netlist (Figure 3). */
std::unique_ptr<Netlist> buildFlexiCore4Netlist();

/** Build the FlexiCore8 netlist (adds the LOAD BYTE flag). */
std::unique_ptr<Netlist> buildFlexiCore8Netlist();

/**
 * Build the single-cycle ExtAcc4 netlist (wide 16-bit instruction
 * bus) — the gate-level realization of the Section 6.1 revised op
 * set (the FlexiCore4+ die family of Figure 4c).
 */
std::unique_ptr<Netlist> buildExtAcc4Netlist();

/**
 * Build the single-cycle LoadStore4 netlist (wide 16-bit bus,
 * dual-read-port register file, word-indexed PC) — the two-address
 * DSE machine of Section 6.2.
 */
std::unique_ptr<Netlist> buildLoadStore4Netlist();

/** Build the netlist of the core that implements @p isa. */
std::unique_ptr<Netlist> buildCoreNetlist(IsaKind isa);

} // namespace flexi

#endif // FLEXI_NETLIST_FLEXICORE_NETLIST_HH
