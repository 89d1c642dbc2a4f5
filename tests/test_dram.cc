/** @file Tests for the DRAM device timing and energy model. */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "dram/dram_device.hh"
#include "dram/dram_params.hh"

using namespace tdc;

namespace {

/** A small, easy-to-reason-about device: 1 channel, 1 rank, 2 banks. */
DramTimingParams
tinyTiming()
{
    DramTimingParams p;
    p.name = "tiny";
    p.capacityBytes = 1ULL << 20;
    p.busFreqHz = 1'000'000'000ULL; // 1 GHz DDR -> 16 B/ns at 64-bit
    p.busWidthBits = 64;
    p.channels = 1;
    p.ranksPerChannel = 1;
    p.banksPerRank = 2;
    p.rowBytes = 4096;
    p.tRCD = 10'000; // 10 ns
    p.tAA = 10'000;
    p.tRAS = 30'000;
    p.tRP = 10'000;
    return p;
}

DramEnergyParams
tinyEnergy()
{
    DramEnergyParams e;
    e.ioPjPerBit = 1.0;
    e.rdwrPjPerBit = 2.0;
    e.actPrePj = 1000.0;
    return e;
}

struct DramTest : public ::testing::Test
{
    DramDevice dev{"tiny", tinyTiming(), tinyEnergy()};

    // With 2 banks and 4 KiB rows, addresses 0 and 4096 are in banks 0
    // and 1; addresses 0 and 16384 share bank 0 with different rows.
    static constexpr Addr bank0row0 = 0;
    static constexpr Addr bank1row0 = 4096;
    static constexpr Addr bank0row1 = 16384;
};

} // namespace

TEST_F(DramTest, ClosedRowAccessLatency)
{
    // ACT at t=0, CAS at tRCD, data at +tAA, 64B burst = 4 ns.
    const auto r = dev.access(bank0row0, 64, false, 0);
    EXPECT_FALSE(r.rowHit);
    EXPECT_EQ(r.issueTick, 0u);
    EXPECT_EQ(r.firstDataTick, 10'000u + 10'000u);
    EXPECT_EQ(r.completionTick, 20'000u + 4'000u);
}

TEST_F(DramTest, RowHitLatency)
{
    dev.access(bank0row0, 64, false, 0);
    const Tick t = 100'000;
    const auto r = dev.access(bank0row0 + 64, 64, false, t);
    EXPECT_TRUE(r.rowHit);
    EXPECT_EQ(r.firstDataTick, t + 10'000u);
    EXPECT_EQ(r.completionTick, t + 14'000u);
}

TEST_F(DramTest, RowConflictPaysPrechargeAndActivate)
{
    dev.access(bank0row0, 64, false, 0);
    const Tick t = 100'000; // well past tRAS and the first burst
    const auto r = dev.access(bank0row1, 64, false, t);
    EXPECT_FALSE(r.rowHit);
    // PRE at t, ACT at t+tRP, CAS at +tRCD, data at +tAA.
    EXPECT_EQ(r.firstDataTick, t + 10'000u + 10'000u + 10'000u);
}

TEST_F(DramTest, ConflictRespectsTras)
{
    dev.access(bank0row0, 64, false, 0); // ACT at 0, so PRE >= tRAS
    const auto r = dev.access(bank0row1, 64, false, 0);
    // earliestPre = max(tRAS=30000, first access completion 24000).
    EXPECT_EQ(r.firstDataTick, 30'000u + 10'000u + 10'000u + 10'000u);
}

TEST_F(DramTest, BanksOperateInParallel)
{
    const auto a = dev.access(bank0row0, 64, false, 0);
    const auto b = dev.access(bank1row0, 64, false, 0);
    // Both activate immediately; only the data bus serializes them.
    EXPECT_EQ(a.firstDataTick, 20'000u);
    EXPECT_EQ(b.firstDataTick, 20'000u);
    EXPECT_EQ(a.completionTick, 24'000u);
    EXPECT_EQ(b.completionTick, 28'000u); // waits for the bus
}

TEST_F(DramTest, RowHitCasPipelining)
{
    dev.access(bank0row0, 64, false, 0);
    const Tick t = 100'000;
    const auto a = dev.access(bank0row0, 64, false, t);
    const auto b = dev.access(bank0row0 + 64, 64, false, t);
    // Burst length is 4 ns; the second CAS issues one burst later, not
    // a full access later.
    EXPECT_EQ(a.completionTick, t + 14'000u);
    EXPECT_EQ(b.completionTick, t + 18'000u);
}

TEST_F(DramTest, FullRowBurst)
{
    const auto r = dev.access(bank0row0, 4096, false, 0);
    // 4096 B at 16 B/ns = 256 ns after first data at 20 ns.
    EXPECT_EQ(r.completionTick, 20'000u + 256'000u);
}

TEST_F(DramTest, PostedWriteDoesNotDisturbRowState)
{
    dev.access(bank0row0, 64, false, 0);
    dev.postedWrite(bank0row1, 64, 50'000);
    const auto r = dev.access(bank0row0 + 128, 64, false, 100'000);
    EXPECT_TRUE(r.rowHit); // row 0 still open despite the posted write
}

TEST_F(DramTest, PostedWriteCountsTrafficAndEnergy)
{
    const double before = dev.energy().totalPj();
    dev.postedWrite(bank0row0, 64, 0);
    EXPECT_EQ(dev.writes(), 1u);
    EXPECT_EQ(dev.bytesTransferred(), 64u);
    // 64B * 8 * (2 + 1) pJ/bit + amortized activate 1000/64.
    EXPECT_NEAR(dev.energy().totalPj() - before,
                64 * 8 * 3.0 + 1000.0 * 64 / 4096.0, 1e-6);
}

TEST_F(DramTest, ReadEnergyAccounting)
{
    dev.access(bank0row0, 64, false, 0);
    // One activate + 64B transfer.
    EXPECT_NEAR(dev.energy().actPrePj(), 1000.0, 1e-9);
    EXPECT_NEAR(dev.energy().rdwrPj(), 64 * 8 * 2.0, 1e-9);
    EXPECT_NEAR(dev.energy().ioPj(), 64 * 8 * 1.0, 1e-9);
    EXPECT_EQ(dev.energy().activates(), 1u);
}

TEST_F(DramTest, RowHitCountsNoActivate)
{
    dev.access(bank0row0, 64, false, 0);
    dev.access(bank0row0 + 64, 64, false, 50'000);
    EXPECT_EQ(dev.energy().activates(), 1u);
    EXPECT_EQ(dev.rowHits(), 1u);
    EXPECT_EQ(dev.rowMisses(), 1u);
}

TEST_F(DramTest, StatsCounters)
{
    dev.access(bank0row0, 64, false, 0);
    dev.access(bank0row0, 64, true, 50'000);
    EXPECT_EQ(dev.reads(), 1u);
    EXPECT_EQ(dev.writes(), 1u);
    EXPECT_EQ(dev.bytesTransferred(), 128u);
}

TEST_F(DramTest, RequestBeforeBankReadyQueues)
{
    const auto a = dev.access(bank0row0, 4096, false, 0);
    // A second read of the same row issued mid-burst completes after.
    const auto b = dev.access(bank0row0, 64, false, 1'000);
    EXPECT_GT(b.completionTick, a.completionTick);
}

TEST(DramDeathTest, AccessSpanningRows)
{
    DramDevice dev("tiny", tinyTiming(), tinyEnergy());
    EXPECT_DEATH(dev.access(4000, 256, false, 0), "spans rows");
}

TEST(DramParams, TransferTicks)
{
    const auto p = tinyTiming();
    // DDR 1 GHz x 64-bit = 16 B/ns.
    EXPECT_EQ(p.transferTicks(64), 4'000u);
    EXPECT_EQ(p.transferTicks(4096), 256'000u);
    EXPECT_GE(p.transferTicks(1), 1u);
}

TEST(DramParams, PaperTable3And4Values)
{
    const auto in = inPackageTiming();
    EXPECT_EQ(in.busFreqHz, 1'600'000'000ULL);
    EXPECT_EQ(in.busWidthBits, 128u);
    EXPECT_EQ(in.ranksPerChannel, 2u);
    EXPECT_EQ(in.banksPerRank, 16u);
    EXPECT_EQ(in.tRCD, 8'000u);
    EXPECT_EQ(in.tAA, 10'000u);
    EXPECT_EQ(in.tRAS, 22'000u);
    EXPECT_EQ(in.tRP, 14'000u);

    const auto off = offPackageTiming();
    EXPECT_EQ(off.busFreqHz, 800'000'000ULL);
    EXPECT_EQ(off.busWidthBits, 64u);
    EXPECT_EQ(off.banksPerRank, 64u);
    EXPECT_EQ(off.tRCD, 14'000u);

    const auto ein = inPackageEnergy();
    EXPECT_DOUBLE_EQ(ein.ioPjPerBit, 2.4);
    EXPECT_DOUBLE_EQ(ein.rdwrPjPerBit, 4.0);
    EXPECT_DOUBLE_EQ(ein.actPrePj, 15'000.0);
    const auto eoff = offPackageEnergy();
    EXPECT_DOUBLE_EQ(eoff.ioPjPerBit, 20.0);
    EXPECT_DOUBLE_EQ(eoff.rdwrPjPerBit, 13.0);
}

TEST(DramParams, PeakBandwidth)
{
    // In-package: 2 * 1.6 GHz * 16 B = 51.2 GB/s.
    EXPECT_NEAR(inPackageTiming().peakBandwidthBytesPerSec(), 51.2e9,
                1e6);
    // Off-package: 2 * 0.8 GHz * 8 B = 12.8 GB/s (4x ratio, Section 4).
    EXPECT_NEAR(offPackageTiming().peakBandwidthBytesPerSec(), 12.8e9,
                1e6);
}

TEST(DramDevice, LatencyHelpers)
{
    DramDevice dev("d", inPackageTiming(), inPackageEnergy());
    EXPECT_EQ(dev.rowHitLatency(), 10'000u);
    EXPECT_EQ(dev.rowClosedLatency(), 18'000u);
}

// --------------------------------------------------- property tests

#include "common/random.hh"

/** Random access sequences keep basic timing sanity. */
class DramPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DramPropertyTest, TimingInvariantsUnderRandomTraffic)
{
    DramDevice dev("d", inPackageTiming(), inPackageEnergy());
    Pcg32 rng(GetParam());
    Tick t = 0;
    std::uint64_t row_events = 0;
    for (int i = 0; i < 5000; ++i) {
        const Addr addr =
            alignDown(rng.below64(1ULL << 30), cacheLineBytes);
        const bool write = rng.chance(0.3);
        const std::uint64_t bytes =
            rng.chance(0.05) ? pageBytes : cacheLineBytes;
        const Addr aligned =
            bytes == pageBytes ? alignDown(addr, pageBytes) : addr;
        const auto r = write && bytes == cacheLineBytes
                           ? dev.postedWrite(aligned, bytes, t)
                           : dev.access(aligned, bytes, write, t);
        // Completion is causal and contains the burst.
        ASSERT_GE(r.completionTick, t);
        ASSERT_GE(r.completionTick, r.firstDataTick);
        ASSERT_GE(r.firstDataTick, r.issueTick);
        ASSERT_GE(r.completionTick - r.firstDataTick,
                  inPackageTiming().transferTicks(bytes) - 1);
        row_events += r.rowHit;
        t += rng.below(60'000); // 0-60 ns between requests
    }
    // Counters are consistent.
    EXPECT_EQ(dev.reads() + dev.writes(), 5000u);
    EXPECT_EQ(dev.rowHits() + dev.rowMisses(), 5000u);
    EXPECT_GT(dev.energy().totalPj(), 0.0);
    (void)row_events;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));
