/** @file Tests for clock domains. */

#include <gtest/gtest.h>

#include "sim/clock.hh"

using namespace tdc;

TEST(Clock, Conversions)
{
    ClockDomain clk(2'000'000'000ULL); // 2 GHz -> 500 ps period
    EXPECT_EQ(clk.period(), 500u);
    EXPECT_EQ(clk.cyclesToTicks(4), 2000u);
    EXPECT_EQ(clk.ticksToCycles(2000), 4u);
    EXPECT_EQ(clk.ticksToCycles(2499), 4u); // floor
}

TEST(Clock, NextCycleEdge)
{
    ClockDomain clk(1'000'000'000ULL); // period 1000
    EXPECT_EQ(clk.nextCycleEdge(0), 0u);
    EXPECT_EQ(clk.nextCycleEdge(1), 1000u);
    EXPECT_EQ(clk.nextCycleEdge(1000), 1000u);
    EXPECT_EQ(clk.nextCycleEdge(1001), 2000u);
}

TEST(Clock, ThreeGHz)
{
    ClockDomain clk(3'000'000'000ULL);
    EXPECT_EQ(clk.period(), 333u); // truncated ps
    EXPECT_EQ(clk.cyclesToTicks(3), 999u);
}
