/**
 * @file
 * Unit tests for the IGZO technology model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/timing.hh"
#include "common/logging.hh"
#include "netlist/flexicore_netlist.hh"
#include "tech/cell_library.hh"
#include "tech/technology.hh"

namespace flexi
{
namespace
{

TEST(CellLibrary, HasThirteenCells)
{
    // Figure 1: a thirteen-cell standard cell library.
    EXPECT_EQ(kNumCellTypes, 13u);
}

TEST(CellLibrary, LookupByName)
{
    EXPECT_EQ(cellTypeByName("NAND2"), CellType::NAND2);
    EXPECT_EQ(cellTypeByName("DFF_X2"), CellType::DFF_X2);
    EXPECT_THROW(cellTypeByName("AOI22"), FatalError);
}

TEST(CellLibrary, Nand2IsUnitArea)
{
    EXPECT_DOUBLE_EQ(cellInfo(CellType::NAND2).nand2Area, 1.0);
}

TEST(CellLibrary, SequentialClassification)
{
    EXPECT_TRUE(isSequential(CellType::DFF_X1));
    EXPECT_TRUE(isSequential(CellType::DFF_X2));
    EXPECT_FALSE(isSequential(CellType::MUX2));
    EXPECT_FALSE(isSequential(CellType::XOR2));
}

TEST(CellLibrary, AttributesAreSane)
{
    for (const auto &info : cellLibrary()) {
        EXPECT_GT(info.deviceCount, 0u) << info.name;
        EXPECT_GT(info.nand2Area, 0.0) << info.name;
        EXPECT_GT(info.staticCurrentUa, 0.0) << info.name;
        EXPECT_GT(info.delayUnits, 0.0) << info.name;
        EXPECT_GE(info.numInputs, 1u) << info.name;
        EXPECT_EQ(cellInfo(info.type).name, info.name);
    }
}

TEST(CellLibrary, DffIsLargestCell)
{
    // The master-slave flop dominates every combinational cell.
    double dff = cellInfo(CellType::DFF_X1).nand2Area;
    for (const auto &info : cellLibrary()) {
        if (!isSequential(info.type)) {
            EXPECT_LT(info.nand2Area, dff) << info.name;
        }
    }
}

TEST(Technology, AreaCalibration)
{
    // Our FlexiCore4 netlist's 570 NAND2-equivalents correspond to
    // the fabricated core's 5.56 mm^2.
    Technology tech;
    EXPECT_NEAR(tech.areaMm2(570), 5.56, 1e-9);
}

TEST(Technology, DelayIncreasesAtLowVoltage)
{
    Technology tech;
    EXPECT_GT(tech.unitDelay(kVddLow), tech.unitDelay(kVddNominal));
}

TEST(Technology, DelayIncreasesWithVth)
{
    Technology tech;
    EXPECT_GT(tech.unitDelay(4.5, 1.6), tech.unitDelay(4.5, 1.0));
}

TEST(Technology, DelayDefinedNearCutoff)
{
    // A die whose Vth approaches the supply must read as "very slow",
    // not NaN/inf.
    Technology tech;
    double d = tech.unitDelay(3.0, 2.99);
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GT(d, tech.unitDelay(3.0, kVthMean));
}

TEST(Technology, CurrentScalesWithVoltage)
{
    // Measured FC4: 1.1 mA @4.5 V vs 0.73 mA @3 V — ratio ~Vdd ratio.
    Technology tech;
    double i45 = tech.staticCurrent(1000.0, 4.5);
    double i30 = tech.staticCurrent(1000.0, 3.0);
    EXPECT_NEAR(i45 / i30, 4.5 / 3.0, 1e-9);
}

TEST(Technology, PullUpRefinementCutsCurrent)
{
    // Table 4: +50 % pull-up resistance => 2/3 the current.
    Technology before(false), after(true);
    double i_b = before.staticCurrent(1000.0, 4.5);
    double i_a = after.staticCurrent(1000.0, 4.5);
    EXPECT_NEAR(i_a / i_b, 2.0 / 3.0, 1e-9);
}

TEST(Technology, PowerIsCurrentTimesVoltage)
{
    Technology tech;
    EXPECT_NEAR(tech.staticPower(1000.0, 4.5),
                tech.staticCurrent(1000.0, 4.5) * 4.5, 1e-15);
}

TEST(Technology, EnergyIsPowerTimesTime)
{
    // 4.95 mW for 12500 cycles at 12.5 kHz = 4.95 mJ.
    double e = Technology::energy(4.95e-3, 12500, kClockHz);
    EXPECT_NEAR(e, 4.95e-3, 1e-12);
}

TEST(Technology, EnergyRejectsBadClock)
{
    EXPECT_THROW(Technology::energy(1.0, 1.0, 0.0), PanicError);
}

TEST(Technology, NegativeCurrentPanics)
{
    Technology tech;
    EXPECT_THROW(tech.staticCurrent(-1.0, 4.5), PanicError);
}

TEST(StaticTiming, WorstPathMatchesCriticalPathOnAllCores)
{
    // The path-level STA must agree *exactly* (same traversal, same
    // floating-point arithmetic) with the netlist's scalar critical
    // path on every shipped core.
    std::unique_ptr<Netlist> cores[] = {
        buildFlexiCore4Netlist(), buildFlexiCore8Netlist(),
        buildExtAcc4Netlist(), buildLoadStore4Netlist()};
    for (const auto &nl : cores)
        EXPECT_EQ(analyzeTiming(*nl, 1).worstDelayUnits(),
                  nl->criticalPathDelayUnits())
            << nl->name();
}

TEST(StaticTiming, Fc8IsSlowerThanFc4)
{
    // The structural root of the Section 4.1 yield cliff: the 8-bit
    // core's worst register-to-register path is strictly longer.
    auto fc4 = buildFlexiCore4Netlist();
    auto fc8 = buildFlexiCore8Netlist();
    EXPECT_GT(analyzeTiming(*fc8, 1).worstDelayUnits(),
              analyzeTiming(*fc4, 1).worstDelayUnits());
}

TEST(StaticTiming, SlackSignTracksSupplyVoltage)
{
    // FC8 meets the 80 us period at 4.5 V but not at 3 V.
    Technology tech(true);
    auto fc8 = buildFlexiCore8Netlist();
    double units = analyzeTiming(*fc8, 1).worstDelayUnits();
    double period = 1.0 / kClockHz;
    EXPECT_GT(period - units * tech.unitDelay(kVddNominal), 0.0);
    EXPECT_LT(period - units * tech.unitDelay(kVddLow), 0.0);
}

} // namespace
} // namespace flexi
