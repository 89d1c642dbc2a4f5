/**
 * @file
 * Tests for the per-core memory system: translation paths, address-
 * space selection (Figure 1 vs Figure 2), invalidation, shootdown.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/memory_system.hh"
#include "dramcache/no_l3.hh"
#include "dramcache/tagless_cache.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

namespace {

constexpr std::uint64_t allLines = ~std::uint64_t{0};

struct MemSysTest : public ::testing::Test
{
    Machine m;
    CoreParams params;
    std::unique_ptr<DramCacheOrg> org;
    std::unique_ptr<MemorySystem> ms;

    void
    buildTagless(std::uint64_t frames = 4096)
    {
        TaglessCacheParams p;
        p.cacheBytes = frames * pageBytes;
        org = std::make_unique<TaglessCache>(
            "ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
        finish();
    }

    void
    buildNoL3()
    {
        org = std::make_unique<NoL3>("nol3", m.inPkg, m.offPkg, m.phys,
                                     m.cpuClk);
        finish();
    }

    void
    finish()
    {
        ms = std::make_unique<MemorySystem>("mem", 0, params, m.cpuClk, m.pt,
                                            *org);
        org->setPageInvalidator(
            [this](Addr a, std::uint32_t, std::uint64_t lines) {
                return static_cast<unsigned>(
                    std::popcount(ms->invalidatePage(a, lines)));
            });
        org->setShootdownFn([this](AsidVpn k) { ms->shootdown(k); });
    }
};

} // namespace

TEST_F(MemSysTest, FirstAccessWalksAndFills)
{
    buildTagless();
    const auto res = ms->access(0x10000, AccessType::Load, 0);
    EXPECT_TRUE(res.tlbMiss);
    EXPECT_EQ(ms->tlbFullMisses(), 1u);
    EXPECT_EQ(org->pageFills(), 1u);
    EXPECT_GT(res.completionTick, 0u);
}

TEST_F(MemSysTest, SecondAccessHitsTlbAndL1)
{
    buildTagless();
    const auto first = ms->access(0x10000, AccessType::Load, 0);
    const auto second = ms->access(0x10000, AccessType::Load,
                                   first.completionTick);
    EXPECT_FALSE(second.tlbMiss);
    EXPECT_TRUE(second.l1Hit);
    // L1 hit: just the L1 latency.
    EXPECT_EQ(second.completionTick - first.completionTick,
              m.cpuClk.cyclesToTicks(params.l1d.hitLatency));
}

TEST_F(MemSysTest, TaglessTlbHitImpliesL3Hit)
{
    buildTagless();
    Tick t = 0;
    // Touch many pages, then revisit: any post-TLB-hit L3 access must
    // be serviced in-package (the paper's core guarantee).
    for (PageNum v = 0; v < 64; ++v)
        t = ms->access(pageBase(v) + 0x40000000, AccessType::Load, t)
                .completionTick;
    const auto hits_before = org->l3Hits();
    const auto misses_before = org->l3Misses();
    for (PageNum v = 0; v < 64; ++v)
        t = ms->access(pageBase(v) + 0x40000000 + 64, AccessType::Load,
                       t)
                .completionTick;
    EXPECT_GT(org->l3Hits(), hits_before);
    EXPECT_EQ(org->l3Misses(), misses_before);
}

TEST_F(MemSysTest, L2TlbCatchesL1TlbEvictions)
{
    buildTagless();
    Tick t = 0;
    // Touch more pages than the 32-entry L1 DTLB but fewer than the
    // 512-entry L2 TLB.
    for (PageNum v = 0; v < 64; ++v)
        t = ms->access(pageBase(v), AccessType::Load, t).completionTick;
    const auto walks_before = ms->tlbFullMisses();
    for (PageNum v = 0; v < 64; ++v)
        t = ms->access(pageBase(v), AccessType::Load, t).completionTick;
    EXPECT_EQ(ms->tlbFullMisses(), walks_before)
        << "revisits within L2 TLB reach must not walk";
}

TEST_F(MemSysTest, L2TlbHitSetsTlbMissWithoutWalk)
{
    // tlbMiss flags any translation past the L1 TLB; only a full miss
    // walks. Overflow the 32-entry L1 DTLB, then revisit a page the
    // 512-entry L2 TLB still holds.
    buildTagless();
    Tick t = 0;
    for (PageNum v = 0; v < 64; ++v)
        t = ms->access(pageBase(v), AccessType::Load, t).completionTick;
    const auto walks_before = ms->tlbFullMisses();
    const auto res = ms->access(pageBase(0), AccessType::Load, t);
    EXPECT_TRUE(res.tlbMiss);
    EXPECT_EQ(ms->tlbFullMisses(), walks_before);
}

TEST_F(MemSysTest, VictimHitAfterTlbEviction)
{
    buildTagless();
    Tick t = 0;
    // Touch enough pages to overflow even the L2 TLB (512 entries).
    for (PageNum v = 0; v < 600; ++v)
        t = ms->access(pageBase(v), AccessType::Load, t).completionTick;
    const auto victim_before = org->victimHits();
    t = ms->access(pageBase(0), AccessType::Load, t).completionTick;
    EXPECT_EQ(org->victimHits(), victim_before + 1)
        << "page fell out of TLB reach but stayed in the cache";
}

TEST_F(MemSysTest, InstructionPathUsesItlbAndL1i)
{
    buildTagless();
    ms->access(0x7000000, AccessType::InstFetch, 0);
    EXPECT_EQ(ms->itlb().misses(), 1u);
    EXPECT_EQ(ms->dtlb().misses(), 0u);
    EXPECT_EQ(ms->l1i().misses(), 1u);
    EXPECT_EQ(ms->l1d().misses(), 0u);
}

TEST_F(MemSysTest, ConventionalOrgUsesPhysicalAddresses)
{
    buildNoL3();
    const auto res = ms->access(0x10000, AccessType::Load, 0);
    (void)res;
    // The L1 caches the PA-space line; the same VA hits again.
    EXPECT_TRUE(ms->access(0x10000, AccessType::Load, 0).l1Hit);
    EXPECT_EQ(m.inPkg.reads() + m.inPkg.writes(), 0u);
}

TEST_F(MemSysTest, InvalidatePageReportsDirtyLines)
{
    buildTagless();
    const auto r1 = ms->access(0x10000, AccessType::Store, 0);
    ms->access(0x10040, AccessType::Store, r1.completionTick);
    // Find the frame-space address of the page via the page table.
    const Pte *pte = m.pt.find(pageOf(0x10000));
    ASSERT_NE(pte, nullptr);
    ASSERT_TRUE(pte->vc);
    const std::uint64_t dirty =
        ms->invalidatePage(caAddr(pte->frame, 0), allLines);
    EXPECT_EQ(std::popcount(dirty), 2) << "stores dirty the L1 copies only";
    EXPECT_EQ(dirty, 0b11u);
    // The lines are gone from L1 now.
    EXPECT_FALSE(
        ms->access(0x10000, AccessType::Load, r1.completionTick).l1Hit);
}

TEST_F(MemSysTest, InvalidatePageCountsLineDirtyAtTwoLevelsOnce)
{
    // Regression (found by tdc_fuzz): a line re-written in L1 over an
    // older dirty write-back still parked in L2 is dirty at both
    // levels, but it flushes to the frame exactly once. Summing
    // per-cache counts let a page flush claim more than the 64 lines
    // a page holds, and the eviction path then issued an in-package
    // write spanning DRAM rows.
    buildTagless();
    Tick t = ms->access(0x10000, AccessType::Store, 0).completionTick;
    const Pte *pte = m.pt.find(pageOf(0x10000));
    ASSERT_NE(pte, nullptr);
    ASSERT_TRUE(pte->vc);
    const std::uint64_t f = pte->frame;

    // Offset-0 lines of same-parity frames share one L1D set (128
    // sets, 64B lines: set = 64 * (frame % 2)). Touching eight fresh
    // pages allocates frames f+1..f+8; the four even-distance ones
    // overflow the 4-way set and evict frame f's dirty line into L2.
    for (unsigned i = 1; i <= 8; ++i)
        t = ms->access(0x40000 + i * pageBytes, AccessType::Store, t)
                .completionTick;
    for (unsigned i = 1; i <= 8; ++i) {
        const Pte *p = m.pt.find(pageOf(0x40000) + i);
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(p->frame, f + i) << "frames expected in fill order";
    }
    EXPECT_FALSE(ms->l1d().contains(caAddr(f, 0)))
        << "conflicting stores should have evicted the line from L1D";

    // Re-dirty the line in L1D; the stale dirty copy stays in L2.
    t = ms->access(0x10000, AccessType::Store, t).completionTick;
    ASSERT_TRUE(ms->l1d().contains(caAddr(f, 0)));

    const std::uint64_t dirty = ms->invalidatePage(caAddr(f, 0), allLines);
    EXPECT_EQ(std::popcount(dirty), 1)
        << "one distinct line, even though two levels held it dirty";
    EXPECT_FALSE(ms->l2().contains(caAddr(f, 0)))
        << "the L2 copy is dropped too, not only the L1 one";
}

TEST_F(MemSysTest, InvalidatePageDedupesSharedDirtyLinesAcrossCores)
{
    // Two threads of one process (shared page table) dirty the same
    // line in their private L1Ds; the page flush still streams that
    // line to the frame once.
    buildTagless();
    auto ms2 = std::make_unique<MemorySystem>("mem1", 1, params, m.cpuClk,
                                              m.pt, *org);
    const Tick t = ms->access(0x10000, AccessType::Store, 0)
                       .completionTick;
    ms2->access(0x10000, AccessType::Store, t);
    const Pte *pte = m.pt.find(pageOf(0x10000));
    ASSERT_NE(pte, nullptr);
    ASSERT_TRUE(pte->vc);

    const std::uint64_t dirty =
        ms->invalidatePage(caAddr(pte->frame, 0), allLines)
        | ms2->invalidatePage(caAddr(pte->frame, 0), allLines);
    EXPECT_EQ(std::popcount(dirty), 1)
        << "the same line dirty in two cores' caches flushes once";
}

TEST_F(MemSysTest, InvalidatePageFlushesOnlyMaskedLines)
{
    // Dirty lines 0, 1 and 2 of one page; a mask naming lines 0 and 2
    // drops and reports those two and leaves line 1 cached.
    buildTagless();
    Tick t = 0;
    for (Addr off : {0, 64, 128})
        t = ms->access(0x10000 + off, AccessType::Store, t)
                .completionTick;
    const Pte *pte = m.pt.find(pageOf(0x10000));
    ASSERT_NE(pte, nullptr);
    ASSERT_TRUE(pte->vc);
    const Addr page = caAddr(pte->frame, 0);

    EXPECT_EQ(ms->invalidatePage(page, 0b101), 0b101u);
    EXPECT_FALSE(ms->l1d().contains(page));
    EXPECT_TRUE(ms->l1d().contains(page + 64));
    EXPECT_FALSE(ms->l1d().contains(page + 128));
    EXPECT_EQ(ms->invalidatePage(page, 0), 0u);
    EXPECT_TRUE(ms->l1d().contains(page + 64));
}

TEST_F(MemSysTest, ShootdownDropsTranslations)
{
    buildTagless();
    ms->access(0x10000, AccessType::Load, 0);
    const AsidVpn key = makeAsidVpn(0, pageOf(0x10000));
    EXPECT_TRUE(ms->dtlb().contains(key));
    EXPECT_TRUE(ms->l2tlb().contains(key));
    ms->shootdown(key);
    EXPECT_FALSE(ms->dtlb().contains(key));
    EXPECT_FALSE(ms->l2tlb().contains(key));
}

TEST_F(MemSysTest, WritebacksReachTheOrg)
{
    buildTagless();
    // Dirty many distinct lines so L2 evictions occur: 2MB L2 / 64B =
    // 32K lines; stream 48K dirty lines.
    Tick t = 0;
    const auto wb_before = m.inPkg.writes();
    for (Addr a = 0; a < 48 * 1024 * 64; a += 64)
        t = ms->access(0x40000000 + a, AccessType::Store, t)
                .completionTick;
    EXPECT_GT(m.inPkg.writes(), wb_before)
        << "dirty L2 victims must be written to the DRAM cache";
}

TEST_F(MemSysTest, StatsAccessors)
{
    buildTagless();
    ms->access(0x10000, AccessType::Load, 0);
    ms->access(0x10000, AccessType::Load, 1'000'000);
    EXPECT_EQ(ms->tlbAccesses(), 2u);
    EXPECT_GE(ms->l1Accesses(), 2u);
    EXPECT_GE(ms->l2Accesses(), 1u);
    EXPECT_GT(ms->avgL3LatencyCycles(), 0.0);
}
