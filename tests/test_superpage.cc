/**
 * @file
 * Tests for 2 MiB superpage support (Section 6): page-table install/
 * split, TLB-reach amplification through the memory system, contiguous
 * frame reservation in the tagless cache, NC fallback and release.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/memory_system.hh"
#include "dramcache/tagless_cache.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

namespace {

constexpr PageNum spBase = 4096; // 512-aligned VPN

struct SuperpageTest : public ::testing::Test
{
    Machine m{64ULL << 20, 1ULL << 21};
    TaglessCacheParams params;
    std::unique_ptr<TaglessCache> cache;
    CoreParams coreParams;
    std::unique_ptr<MemorySystem> ms;

    void
    build(std::uint64_t frames = 2048)
    {
        params.cacheBytes = frames * pageBytes;
        cache = std::make_unique<TaglessCache>(
            "ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, params);
        ms = std::make_unique<MemorySystem>("mem", 0, coreParams, m.cpuClk,
                                            m.pt, *cache);
        cache->setPageInvalidator(
            [this](Addr a, std::uint32_t, std::uint64_t lines) {
                return static_cast<unsigned>(
                    std::popcount(ms->invalidatePage(a, lines)));
            });
        cache->setShootdownFn([this](AsidVpn k) { ms->shootdown(k); });
    }
};

} // namespace

// ------------------------------------------------------- page table

TEST(SuperpagePageTable, InstallCoversRange)
{
    Machine m;
    Pte &sp = m.pt.installSuperpage(spBase);
    EXPECT_EQ(sp.type, PageType::Page2M);
    EXPECT_EQ(sp.vpn, spBase);
    // Every VPN in the range walks to the same PTE.
    EXPECT_EQ(&m.pt.walk(spBase), &sp);
    EXPECT_EQ(&m.pt.walk(spBase + 13), &sp);
    EXPECT_EQ(&m.pt.walk(spBase + 511), &sp);
    // The neighbour outside the range gets its own 4K mapping.
    EXPECT_NE(&m.pt.walk(spBase + 512), &sp);
}

TEST(SuperpagePageTable, BackingIsContiguous)
{
    Machine m;
    const Pte &sp = m.pt.installSuperpage(spBase);
    // Frames are physically contiguous starting at sp.frame; the next
    // 4K allocation continues past the run.
    const Pte &next = m.pt.walk(0);
    EXPECT_GE(next.frame, sp.frame + pagesPerSuperpage);
}

TEST(SuperpagePageTable, SplitProducesFourKMappings)
{
    Machine m;
    const Pte sp = m.pt.installSuperpage(spBase); // copy before split
    m.pt.splitSuperpage(spBase);
    EXPECT_EQ(m.pt.findSuperpage(spBase), nullptr);
    for (unsigned i : {0u, 100u, 511u}) {
        Pte &pte = m.pt.walk(spBase + i);
        EXPECT_EQ(pte.type, PageType::Page4K);
        EXPECT_EQ(pte.frame, sp.frame + i) << "contiguity preserved";
    }
}

TEST(SuperpagePageTableDeath, MisalignedBase)
{
    Machine m;
    EXPECT_DEATH(m.pt.installSuperpage(spBase + 1), "aligned");
}

TEST(SuperpagePageTableDeath, OverlapWith4K)
{
    Machine m;
    m.pt.walk(spBase + 5);
    EXPECT_DEATH(m.pt.installSuperpage(spBase), "already mapped");
}

TEST(SuperpageKeys, SuperKeyDistinctFrom4K)
{
    const AsidVpn k4 = makeAsidVpn(1, spBase);
    const AsidVpn ks = makeSuperKey(1, spBase);
    EXPECT_NE(k4, ks);
    EXPECT_TRUE(isSuperKey(ks));
    EXPECT_FALSE(isSuperKey(k4));
    EXPECT_EQ(procOf(ks), 1u);
    EXPECT_EQ(vpnOf(ks), spBase / pagesPerSuperpage);
    // All VPNs of the region share one super key.
    EXPECT_EQ(makeSuperKey(1, spBase + 511), ks);
}

// ---------------------------------------------------- tagless cache

TEST_F(SuperpageTest, FillPinsContiguousRun)
{
    build();
    m.pt.installSuperpage(spBase);
    const auto res = cache->handleTlbMiss(m.pt, spBase + 7, 0, 0);
    EXPECT_TRUE(res.coldFill);
    EXPECT_FALSE(res.entry.nc);
    EXPECT_EQ(res.entry.type, PageType::Page2M);
    EXPECT_EQ(res.entry.frame % pagesPerSuperpage, 0u) << "aligned run";
    EXPECT_EQ(cache->pinnedFrames(), pagesPerSuperpage);
    // All 512 GIPT entries valid and consecutive.
    for (unsigned i = 0; i < pagesPerSuperpage; ++i)
        EXPECT_TRUE(cache->gipt().at(res.entry.frame + i).valid()) << i;
}

TEST_F(SuperpageTest, SecondMissIsResolvedWithoutRefill)
{
    build();
    m.pt.installSuperpage(spBase);
    const auto first = cache->handleTlbMiss(m.pt, spBase, 0, 0);
    const auto again =
        cache->handleTlbMiss(m.pt, spBase + 99, 0, first.readyTick);
    EXPECT_FALSE(again.coldFill);
    EXPECT_EQ(again.entry.frame, first.entry.frame);
    EXPECT_EQ(cache->pinnedFrames(), pagesPerSuperpage);
}

TEST_F(SuperpageTest, NcFallbackWhenNoContiguousRun)
{
    build(1024); // two superpage slots
    // Fragment the cache: fill a 4K page so no slot is fully free...
    cache->handleTlbMiss(m.pt, 1, 0, 0);  // occupies frame 0 (slot 0)
    // ... then occupy one frame in the second slot too.
    Pte &blocker = m.pt.walk(2);
    (void)blocker;
    // Force frame into the second slot by filling pages until one
    // lands there.
    Tick t = 0;
    while (!cache->gipt().at(pagesPerSuperpage).valid()) {
        static PageNum v = 10;
        t = cache->handleTlbMiss(m.pt, v++, 0, t).readyTick;
    }
    m.pt.installSuperpage(spBase);
    const auto res = cache->handleTlbMiss(m.pt, spBase, 0, t);
    EXPECT_TRUE(res.entry.nc) << "no aligned free run -> NC fallback";
    EXPECT_TRUE(m.pt.walk(spBase).nc);
    EXPECT_EQ(cache->pinnedFrames(), 0u);
}

TEST_F(SuperpageTest, PinnedFramesSurviveEvictionPressure)
{
    build(1024);
    m.pt.installSuperpage(spBase);
    const auto sp = cache->handleTlbMiss(m.pt, spBase, 0, 0);
    ASSERT_FALSE(sp.entry.nc);
    // Churn far more 4K pages than the remaining capacity.
    Tick t = sp.readyTick;
    for (PageNum v = 10'000; v < 12'000; ++v)
        t = cache->handleTlbMiss(m.pt, v, 0, t).readyTick;
    // The superpage is still fully cached.
    EXPECT_TRUE(m.pt.walk(spBase).vc);
    for (unsigned i = 0; i < pagesPerSuperpage; ++i)
        EXPECT_TRUE(cache->gipt().at(sp.entry.frame + i).valid());
}

TEST_F(SuperpageTest, AccessesWithinSuperpageHitInPackage)
{
    build();
    m.pt.installSuperpage(spBase);
    const auto r =
        ms->access(pageBase(spBase) + 0x1234, AccessType::Load, 0);
    EXPECT_GT(r.completionTick, 0u);
    const auto r2 = ms->access(pageBase(spBase + 300) + 64,
                               AccessType::Load, r.completionTick);
    (void)r2;
    EXPECT_DOUBLE_EQ(cache->l3HitRate(), 1.0);
    // One walk covered both accesses (single super translation).
    EXPECT_EQ(ms->tlbFullMisses(), 1u);
}

TEST_F(SuperpageTest, SuperpageAmplifiesTlbReach)
{
    build(2048);
    m.pt.installSuperpage(spBase);
    Tick t = 0;
    // Touch 512 pages through one superpage: exactly 1 walk.
    for (unsigned i = 0; i < pagesPerSuperpage; ++i)
        t = ms->access(pageBase(spBase + i), AccessType::Load, t)
                .completionTick;
    EXPECT_EQ(ms->tlbFullMisses(), 1u);

    // The same coverage via 4K pages needs hundreds of walks.
    for (unsigned i = 0; i < pagesPerSuperpage; ++i)
        t = ms->access(pageBase(20'000 + i), AccessType::Load, t)
                .completionTick;
    EXPECT_GT(ms->tlbFullMisses(), 500u);
}

TEST_F(SuperpageTest, ReleaseRestoresPhysicalMapping)
{
    build();
    Pte &sp = m.pt.installSuperpage(spBase);
    const PageNum orig_ppn = sp.frame;
    Tick t = cache->handleTlbMiss(m.pt, spBase, 0, 0).readyTick;
    // Dirty one page of it.
    cache->access(caAddr(sp.frame + 3, 0), AccessType::Store, 0, t);

    const Tick done = cache->releaseSuperpage(m.pt, spBase, t);
    EXPECT_GE(done, t);
    EXPECT_FALSE(sp.vc);
    EXPECT_EQ(sp.frame, orig_ppn);
    EXPECT_EQ(cache->pinnedFrames(), 0u);
    EXPECT_GE(cache->pageWritebacks(), 1u);
    // Frames are reusable again.
    m.pt.splitSuperpage(spBase);
    EXPECT_EQ(m.pt.walk(spBase + 3).frame, orig_ppn + 3);
}

TEST_F(SuperpageTest, ReleaseChargesOnDieDirtyLineFlush)
{
    // A store leaves one dirty line in the core's L1D. Releasing the
    // superpage flushes it into its frame before the copy-out: one
    // in-package write, as a 4 KiB eviction charges.
    build();
    const Pte &sp = m.pt.installSuperpage(spBase);
    const Tick t = ms->access(pageBase(spBase + 7) + 128,
                              AccessType::Store, 0)
                       .completionTick;
    const Addr line = caAddr(sp.frame + 7, 128);
    ASSERT_TRUE(ms->l1d().contains(line));
    const auto writes_before = m.inPkg.writes();
    cache->releaseSuperpage(m.pt, spBase, t);
    EXPECT_EQ(m.inPkg.writes() - writes_before, 1u);
    EXPECT_FALSE(ms->l1d().contains(line));
}

TEST_F(SuperpageTest, ReleaseShootsDownTranslations)
{
    build();
    m.pt.installSuperpage(spBase);
    ms->access(pageBase(spBase), AccessType::Load, 0);
    const AsidVpn skey = makeSuperKey(0, spBase);
    EXPECT_TRUE(ms->dtlb().contains(skey));
    cache->releaseSuperpage(m.pt, spBase, 1'000'000'000);
    EXPECT_FALSE(ms->dtlb().contains(skey));
    EXPECT_FALSE(ms->l2tlb().contains(skey));
}

TEST_F(SuperpageTest, OsDeclaredNcSuperpageBypasses)
{
    build();
    Pte &sp = m.pt.installSuperpage(spBase);
    sp.nc = true; // OS: insufficient locality, bypass (Section 3.5)
    const auto res = cache->handleTlbMiss(m.pt, spBase, 0, 0);
    EXPECT_TRUE(res.entry.nc);
    EXPECT_EQ(res.entry.type, PageType::Page2M);
    const auto acc = cache->access(
        paAddr(res.entry.frame + 5, 64), AccessType::Load, 0, 1'000);
    EXPECT_FALSE(acc.servicedInPackage);
}
