/** @file Unit tests for the PDU and metering chain. */

#include <gtest/gtest.h>

#include "power/pdu.hh"

namespace ecolo::power {
namespace {

TEST(PowerMeter, NoiselessIsExact)
{
    PowerMeter meter;
    EXPECT_DOUBLE_EQ(meter.read(Kilowatts(3.3)).value(), 3.3);
}

TEST(Pdu, CircuitAccounting)
{
    Pdu pdu(Kilowatts(8.0));
    const auto a = pdu.addCircuit(Kilowatts(0.8));
    const auto b = pdu.addCircuit(Kilowatts(2.4));
    EXPECT_EQ(pdu.numCircuits(), 2u);

    pdu.setCircuitDraw(a, Kilowatts(0.5));
    pdu.setCircuitDraw(b, Kilowatts(2.0));
    EXPECT_DOUBLE_EQ(pdu.circuitMeteredPower(a).value(), 0.5);
    EXPECT_DOUBLE_EQ(pdu.totalMeteredPower().value(), 2.5);
}

TEST(Pdu, SubscriptionViolationDetected)
{
    Pdu pdu(Kilowatts(8.0));
    const auto a = pdu.addCircuit(Kilowatts(0.8));
    pdu.setCircuitDraw(a, Kilowatts(0.8));
    EXPECT_FALSE(pdu.circuitOverSubscription(a));
    pdu.setCircuitDraw(a, Kilowatts(0.81));
    EXPECT_TRUE(pdu.circuitOverSubscription(a));
}

TEST(Pdu, CapacityViolationDetected)
{
    Pdu pdu(Kilowatts(3.0));
    const auto a = pdu.addCircuit(Kilowatts(2.0));
    const auto b = pdu.addCircuit(Kilowatts(2.0));
    pdu.setCircuitDraw(a, Kilowatts(1.5));
    pdu.setCircuitDraw(b, Kilowatts(1.4));
    EXPECT_FALSE(pdu.overCapacity());
    pdu.setCircuitDraw(b, Kilowatts(1.6));
    EXPECT_TRUE(pdu.overCapacity());
}

TEST(Pdu, DeEnergizedZeroesDraws)
{
    Pdu pdu(Kilowatts(8.0));
    const auto a = pdu.addCircuit(Kilowatts(2.0));
    pdu.setEnergized(false);
    pdu.setCircuitDraw(a, Kilowatts(1.5));
    EXPECT_DOUBLE_EQ(pdu.totalMeteredPower().value(), 0.0);
    EXPECT_FALSE(pdu.energized());
}

TEST(PduDeathTest, RejectsNegativeDraw)
{
    Pdu pdu(Kilowatts(8.0));
    const auto a = pdu.addCircuit(Kilowatts(2.0));
    EXPECT_DEATH(pdu.setCircuitDraw(a, Kilowatts(-0.5)), "negative");
}

} // namespace
} // namespace ecolo::power
