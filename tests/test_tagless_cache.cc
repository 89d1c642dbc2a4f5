/**
 * @file
 * Tests for the tagless (cTLB) DRAM cache: fill, victim hit, NC bypass,
 * PU serialization, FIFO/LRU eviction, GIPT consistency, residence
 * protection, shootdowns and the free-queue alpha invariant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <list>
#include <set>

#include "ckpt/serializer.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "dramcache/no_l3.hh"
#include "dramcache/tagless_cache.hh"
#include "obs/probe.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

namespace {

struct TaglessTest : public ::testing::Test
{
    Machine m;
    TaglessCacheParams params;
    std::unique_ptr<TaglessCache> cache;

    // Page flushes requested via the page-invalidator hook.
    struct Flush
    {
        Addr page;
        std::uint32_t cores;
        std::uint64_t lines;
    };
    std::vector<Flush> invalidated;
    // Keys shot down via the shootdown hook.
    std::vector<AsidVpn> shotDown;
    unsigned dirtyLinesToReport = 0;

    void
    recordFlushes(TaglessCache &c)
    {
        c.setPageInvalidator(
            [this](Addr a, std::uint32_t cores, std::uint64_t lines) {
                invalidated.push_back(Flush{a, cores, lines});
                return dirtyLinesToReport;
            });
    }

    /** The last flush of `frame`'s page; fails the test if none. */
    Flush
    lastFlushOf(std::uint64_t frame) const
    {
        for (auto it = invalidated.rbegin(); it != invalidated.rend();
             ++it) {
            if (it->page == caAddr(frame, 0))
                return *it;
        }
        ADD_FAILURE() << "frame " << frame << " was never flushed";
        return {};
    }

    /** The cache's own checkpoint section. */
    std::vector<std::uint8_t>
    orgBytes() const
    {
        ckpt::Serializer cs;
        cache->saveState(cs);
        return cs.bytes();
    }

    std::unique_ptr<TaglessCache>
    restoreInto(Machine &m2)
    {
        return restoreInto(m2, orgBytes());
    }

    /**
     * Restores `org` (a cache section) into a fresh cache on `m2`, in
     * the System's order: page table and DRAM-device timing state
     * first (bank/row state shapes fill latencies), then the org.
     */
    std::unique_ptr<TaglessCache>
    restoreInto(Machine &m2, const std::vector<std::uint8_t> &org)
    {
        ckpt::Serializer pts;
        m.phys.saveState(pts);
        m.pt.saveState(pts);
        ckpt::Serializer ds;
        m.inPkg.saveState(ds);
        m.offPkg.saveState(ds);

        ckpt::Deserializer ptd(pts.bytes());
        m2.phys.loadState(ptd);
        m2.pt.loadState(ptd);
        ckpt::Deserializer dd(ds.bytes());
        m2.inPkg.loadState(dd);
        m2.offPkg.loadState(dd);
        auto other = std::make_unique<TaglessCache>(
            "ctlb2", m2.inPkg, m2.offPkg, m2.phys, m2.cpuClk, params);
        other->setPteResolver(
            [&m2](ProcId proc, PageType type, PageNum vpn) -> Pte * {
                if (proc != 0)
                    return nullptr;
                return type == PageType::Page2M
                           ? m2.pt.findSuperpage(vpn)
                           : m2.pt.find(vpn);
            });
        ckpt::Deserializer cd(org);
        other->loadState(cd);
        return other;
    }

    /** Expects restoring `org` to fail with a fatal() naming `what`. */
    void
    expectRestoreFatal(const std::vector<std::uint8_t> &org,
                       const std::string &what)
    {
        Machine m2;
        ScopedFatalCapture capture;
        try {
            restoreInto(m2, org);
            ADD_FAILURE() << "restore accepted a section naming " << what;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    }

    void
    build(std::uint64_t frames = 16, ReplPolicy policy = ReplPolicy::FIFO,
          unsigned alpha = 1)
    {
        params.cacheBytes = frames * pageBytes;
        params.policy = policy;
        params.alphaFreeBlocks = alpha;
        cache = std::make_unique<TaglessCache>(
            "ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, params);
        recordFlushes(*cache);
        cache->setShootdownFn([this](AsidVpn k) {
            shotDown.push_back(k);
            // Emulate every core's TLBs dropping the translation. Only
            // cached pages have GIPT residence to drain; a filter
            // promotion shoots down a page that still holds its
            // physical (NC) mapping, where frame is a PPN.
            const Pte *pte = m.pt.find(vpnOf(k));
            ASSERT_NE(pte, nullptr);
            if (!pte->vc)
                return;
            for (CoreId c = 0; c < Gipt::maxCores; ++c) {
                while (cache->gipt().at(pte->frame).residence[c] > 0)
                    cache->onTlbResidence(
                        TlbEntry{k, pte->frame, false}, c, false);
            }
        });
    }

    TlbMissResult
    miss(PageNum vpn, Tick when = 0)
    {
        return cache->handleTlbMiss(m.pt, vpn, 0, when);
    }
};

} // namespace

TEST_F(TaglessTest, ColdFillAllocatesFrameAndRewritesPte)
{
    build();
    const auto res = miss(100);
    EXPECT_TRUE(res.coldFill);
    EXPECT_FALSE(res.victimHit);
    EXPECT_FALSE(res.entry.nc);
    EXPECT_GT(res.readyTick, 0u); // GIPT update + page copy took time

    const Pte *pte = m.pt.find(100);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->vc);
    EXPECT_FALSE(pte->pu);
    EXPECT_EQ(pte->frame, res.entry.frame);

    const auto &g = cache->gipt().at(res.entry.frame);
    EXPECT_TRUE(g.valid());
    EXPECT_EQ(g.ptep, pte);
}

TEST_F(TaglessTest, GiptBacksUpOriginalPpn)
{
    build();
    // Touch the page first through a conventional walk to learn its PPN.
    const PageNum original_ppn = m.pt.walk(100).frame;
    const auto res = miss(100);
    EXPECT_EQ(cache->gipt().at(res.entry.frame).ppn, original_ppn);
}

TEST_F(TaglessTest, HeaderPointerWalksFramesInOrder)
{
    build();
    EXPECT_EQ(miss(1).entry.frame, 0u);
    EXPECT_EQ(miss(2).entry.frame, 1u);
    EXPECT_EQ(miss(3).entry.frame, 2u);
}

TEST_F(TaglessTest, VictimHitReturnsCachedFrameWithNoPenalty)
{
    build();
    const auto fill = miss(100);
    const Tick t = fill.readyTick + 1'000'000;
    const auto victim = miss(100, t);
    EXPECT_TRUE(victim.victimHit);
    EXPECT_FALSE(victim.coldFill);
    EXPECT_EQ(victim.entry.frame, fill.entry.frame);
    EXPECT_EQ(victim.readyTick, t); // Table 1: zero extra latency
    EXPECT_EQ(cache->victimHits(), 1u);
}

TEST_F(TaglessTest, NonCacheablePageBypasses)
{
    build();
    m.pt.setNonCacheableHint(55);
    const auto res = miss(55);
    EXPECT_TRUE(res.entry.nc);
    EXPECT_FALSE(res.coldFill);
    EXPECT_EQ(cache->coldFills(), 0u);

    // Accesses go off-package and count as bypasses.
    const auto acc = cache->access(paAddr(res.entry.frame, 64),
                                   AccessType::Load, 0, res.readyTick);
    EXPECT_FALSE(acc.servicedInPackage);
    EXPECT_EQ(cache->ncBypasses(), 1u);
}

TEST_F(TaglessTest, CaAccessAlwaysHitsInPackage)
{
    build();
    const auto fill = miss(7);
    const auto acc = cache->access(caAddr(fill.entry.frame, 128),
                                   AccessType::Load, 0, fill.readyTick);
    EXPECT_TRUE(acc.servicedInPackage);
    EXPECT_TRUE(acc.l3Hit);
    EXPECT_DOUBLE_EQ(cache->l3HitRate(), 1.0);
}

TEST_F(TaglessTest, CaAccessToUnoccupiedFramePanics)
{
    build();
    EXPECT_DEATH(cache->access(caAddr(5, 0), AccessType::Load, 0, 0),
                 "unoccupied");
}

TEST_F(TaglessTest, PendingUpdateSerializesConcurrentFills)
{
    build();
    // Core 0 starts a fill; functionally the PTE is updated at once but
    // the fill completes at fill.readyTick.
    Pte &pte = m.pt.walk(100);
    pte.pu = true; // simulate a fill in flight from another thread
    pte.vc = true;
    pte.frame = 3;
    const auto res = miss(100, 10);
    EXPECT_EQ(res.entry.frame, 3u);
    EXPECT_EQ(cache->puWaits(), 1u);
    EXPECT_FALSE(res.coldFill);
}

TEST_F(TaglessTest, PuWaitEndsWhenTheFillCompletes)
{
    build();
    const auto fill = miss(100);
    ASSERT_GT(fill.readyTick, 10u);
    // The page's fill is still in flight for another thread's miss.
    m.pt.find(100)->pu = true;
    const auto early = miss(100, 10);
    EXPECT_EQ(early.readyTick, fill.readyTick)
        << "the wait ends when the frame's fill completes";
    EXPECT_EQ(early.entry.frame, fill.entry.frame);
    EXPECT_FALSE(early.coldFill);
    EXPECT_FALSE(early.victimHit);
    const auto late = miss(100, fill.readyTick + 5);
    EXPECT_EQ(late.readyTick, fill.readyTick + 5);
    EXPECT_EQ(cache->puWaits(), 2u);
}

TEST_F(TaglessTest, RestoreRejectsASectionThatContradictsTheGipt)
{
    build(); // 16 frames
    miss(1);
    miss(2);
    m.pt.walk(7); // a page that exists but was never cached
    const std::vector<std::uint8_t> good = orgBytes();
    {
        Machine m2;
        ScopedFatalCapture capture;
        EXPECT_NE(restoreInto(m2, good), nullptr);
    }

    // The section opens with the shared stats (the whole section of a
    // stateless org) and the frame count. Then come the mapped frames,
    // each a u64 index and a 47-byte record (PPN, residence, PTE id,
    // fill tick, dirty, pinned), then the free-queue runs.
    ckpt::Serializer shared;
    NoL3("nol3", m.inPkg, m.offPkg, m.phys, m.cpuClk).saveState(shared);
    const std::size_t frames_at = shared.bytes().size() + 8;
    const std::size_t record = 8 + 47;
    const std::size_t runs_at = frames_at + 8 + 2 * record;
    auto u64At = [](const std::vector<std::uint8_t> &b, std::size_t at) {
        std::uint64_t v;
        std::memcpy(&v, b.data() + at, sizeof(v));
        return v;
    };
    auto with = [](std::vector<std::uint8_t> b, std::size_t at,
                   std::uint64_t v) {
        std::memcpy(b.data() + at, &v, sizeof(v));
        return b;
    };
    ASSERT_EQ(u64At(good, frames_at), 2u);
    ASSERT_EQ(u64At(good, frames_at + 8), 0u);
    ASSERT_EQ(u64At(good, frames_at + 8 + record), 1u);
    ASSERT_EQ(u64At(good, runs_at), 1u) << "one free run";
    ASSERT_EQ(u64At(good, runs_at + 8), 2u);
    ASSERT_EQ(u64At(good, runs_at + 16), 14u);

    // Frame indices: in range, listed once, ascending.
    const std::size_t second = frames_at + 8 + record;
    expectRestoreFatal(with(good, second, 16),
                       "tagless frame 16 out of range");
    expectRestoreFatal(with(good, second, 0),
                       "tagless frame 0 listed twice");
    std::vector<std::uint8_t> swapped = good;
    std::swap_ranges(swapped.begin() + frames_at + 8,
                     swapped.begin() + second, swapped.begin() + second);
    expectRestoreFatal(swapped,
                       "tagless frame 0 listed after tagless frame 1");

    // Frame 1 (page 2) pointed at page 7, which is not cached.
    const std::size_t vpn_at = second + 8 + 8 + 16 + 4 + 1;
    ASSERT_EQ(u64At(good, vpn_at), 2u);
    expectRestoreFatal(with(good, vpn_at, 7),
                       "vpn 7), which does not map back to it");

    // Free runs: disjoint from the mapped frames and from each other,
    // and with them covering the cache.
    expectRestoreFatal(with(with(good, runs_at + 8, 1), runs_at + 16, 15),
                       "run [1, 16) overlaps mapped frame 1");
    expectRestoreFatal(with(good, runs_at + 16, 15),
                       "run [2, +15) is empty or out of range");
    expectRestoreFatal(with(good, runs_at + 16, 13),
                       "2 mapped and 13 free of 16 frames");
    ckpt::Serializer two_runs;
    two_runs.putU64(2);
    for (std::uint64_t v : {2, 8, 0, 9, 7, 0})
        two_runs.putU64(v);
    std::vector<std::uint8_t> bad(good.begin(), good.begin() + runs_at);
    bad.insert(bad.end(), two_runs.bytes().begin(),
               two_runs.bytes().end());
    bad.insert(bad.end(), good.begin() + runs_at + 32, good.end());
    expectRestoreFatal(bad, "runs [2, 10) and [9, 16) overlap");
}

TEST_F(TaglessTest, RestoreRejectsACorruptVictimOrder)
{
    // A cached superpage pins frames [0, 512); pages 1 and 2 fill
    // frames 512 and 513, which make up the victim order.
    build(1024);
    constexpr PageNum sp = 4096;
    m.pt.installSuperpage(sp);
    ASSERT_FALSE(miss(sp).entry.nc);
    ASSERT_EQ(miss(1).entry.frame, 512u);
    ASSERT_EQ(miss(2).entry.frame, 513u);
    const std::vector<std::uint8_t> good = orgBytes();
    {
        Machine m2;
        ScopedFatalCapture capture;
        EXPECT_NE(restoreInto(m2, good), nullptr);
    }

    // After the shared stats and the frame count: the mapped frames
    // (u64 count, then a u64 index and a 47-byte record each), the
    // free-queue runs (u64 count, 24 bytes each), then the victim
    // order (u64 count, a u64 frame each).
    ckpt::Serializer shared;
    NoL3("nol3", m.inPkg, m.offPkg, m.phys, m.cpuClk).saveState(shared);
    const std::size_t frames_at = shared.bytes().size() + 8;
    auto u64At = [&](std::size_t at) {
        std::uint64_t v;
        std::memcpy(&v, good.data() + at, sizeof(v));
        return v;
    };
    ASSERT_EQ(u64At(frames_at), 514u);
    const std::size_t runs_at = frames_at + 8 + 514 * (8 + 47);
    const std::size_t order_at = runs_at + 8 + u64At(runs_at) * 24;
    ASSERT_EQ(u64At(order_at), 2u);
    ASSERT_EQ(u64At(order_at + 8), 512u);
    ASSERT_EQ(u64At(order_at + 16), 513u);

    auto withOrder = [&](std::vector<std::uint64_t> order) {
        ckpt::Serializer s;
        s.putBytes(good.data(), order_at);
        s.putU64(order.size());
        for (std::uint64_t f : order)
            s.putU64(f);
        s.putBytes(good.data() + order_at + 24,
                   good.size() - order_at - 24);
        return s.bytes();
    };
    {
        // Any order of the right frames restores as written.
        Machine m2;
        const auto other = restoreInto(m2, withOrder({513, 512}));
        EXPECT_EQ(other->orderFront(), 513u);
        EXPECT_EQ(other->orderNext(513), 512u);
        EXPECT_EQ(other->orderNext(512), invalidPage);
    }
    expectRestoreFatal(withOrder({512, 512}),
                       "victim-order frame 512 listed twice");
    expectRestoreFatal(withOrder({512, 600}),
                       "victim-order frame 600 is unmapped");
    expectRestoreFatal(withOrder({512, 7}),
                       "victim-order frame 7 is pinned");
    expectRestoreFatal(withOrder({512, 1024}),
                       "victim-order frame 1024 out of range");
    expectRestoreFatal(withOrder({513}),
                       "victim order lists 1 of the 2 mapped unpinned "
                       "frames");
}

TEST_F(TaglessTest, FifoEvictionRecyclesOldestFrame)
{
    build(4);
    // Fill all 4 frames; alpha=1 forces an eviction on the 4th fill.
    miss(1);
    miss(2);
    miss(3);
    miss(4);
    // Frame 0 (page 1) must have been evicted to keep a free block.
    const Pte *pte1 = m.pt.find(1);
    EXPECT_FALSE(pte1->vc);
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_GE(cache->freeBlocks(), 1u);
}

TEST_F(TaglessTest, EvictionRestoresOriginalPpn)
{
    build(2);
    const PageNum ppn1 = m.pt.walk(1).frame;
    miss(1);
    miss(2); // evicts page 1 (alpha = 1)
    miss(3);
    const Pte *pte1 = m.pt.find(1);
    EXPECT_FALSE(pte1->vc);
    EXPECT_EQ(pte1->frame, ppn1);
}

TEST_F(TaglessTest, AlphaFreeBlocksMaintained)
{
    build(8, ReplPolicy::FIFO, 3);
    for (PageNum v = 1; v <= 20; ++v) {
        miss(v);
        EXPECT_GE(cache->freeBlocks(), 3u) << "after filling page " << v;
    }
}

TEST_F(TaglessTest, DirtyPageWrittenBackOnEviction)
{
    build(2);
    const auto f1 = miss(1);
    cache->access(caAddr(f1.entry.frame, 0), AccessType::Store, 0,
                  f1.readyTick);
    const auto wb_before = cache->pageWritebacks();
    miss(2);
    miss(3); // evicts dirty page 1
    EXPECT_EQ(cache->pageWritebacks(), wb_before + 1);
}

TEST_F(TaglessTest, CleanPageNotWrittenBack)
{
    build(2);
    const auto f1 = miss(1);
    cache->access(caAddr(f1.entry.frame, 0), AccessType::Load, 0,
                  f1.readyTick);
    miss(2);
    miss(3);
    EXPECT_EQ(cache->pageWritebacks(), 0u);
}

TEST_F(TaglessTest, WritebackLineMarksPageDirty)
{
    build(2);
    const auto f1 = miss(1);
    cache->writebackLine(caAddr(f1.entry.frame, 192), 0, f1.readyTick);
    miss(2);
    miss(3); // evicts page 1
    EXPECT_EQ(cache->pageWritebacks(), 1u);
}

TEST_F(TaglessTest, EvictionFlushesOnDieCaches)
{
    build(2);
    const auto f1 = miss(1);
    miss(2);
    miss(3); // evicts frame of page 1
    ASSERT_FALSE(invalidated.empty());
    EXPECT_EQ(invalidated.front().page, caAddr(f1.entry.frame, 0));
}

TEST_F(TaglessTest, FlushNamesExactlyTheCoresAndLinesAccessSaw)
{
    build(2);
    const auto f1 = miss(1);
    const std::uint64_t frame = f1.entry.frame;
    cache->access(caAddr(frame, 0), AccessType::Load, 2, f1.readyTick);
    cache->access(caAddr(frame, 5 * cacheLineBytes), AccessType::Store,
                  2, f1.readyTick);
    miss(2); // evicts page 1 (alpha = 1)
    ASSERT_FALSE(m.pt.find(1)->vc);
    const Flush fl = lastFlushOf(frame);
    EXPECT_EQ(fl.cores, 1u << 2);
    EXPECT_EQ(fl.lines, 0x21u);
}

TEST_F(TaglessTest, FrameMasksAreEmptyAgainAfterRefill)
{
    build(2);
    const auto f1 = miss(1);
    const std::uint64_t frame = f1.entry.frame;
    cache->access(caAddr(frame, 3 * cacheLineBytes), AccessType::Load,
                  1, f1.readyTick);
    miss(2); // evicts page 1 from `frame`
    ASSERT_EQ(lastFlushOf(frame).lines, 1u << 3);
    // Page 3 refills the frame (and evicts page 2); page 4 evicts
    // page 3, which nothing accessed since the refill.
    ASSERT_EQ(miss(3).entry.frame, frame);
    miss(4);
    ASSERT_FALSE(m.pt.find(3)->vc);
    const Flush fl = lastFlushOf(frame);
    EXPECT_EQ(fl.cores, 0u);
    EXPECT_EQ(fl.lines, 0u);
}

TEST_F(TaglessTest, RestoredFrameFlushesEveryCoreAndLine)
{
    // The masks are not checkpointed: a restored occupied frame must
    // assume any core and line may hold a copy.
    build(2);
    const auto f1 = miss(1);
    cache->access(caAddr(f1.entry.frame, 0), AccessType::Load, 0,
                  f1.readyTick);
    Machine m2;
    auto other = restoreInto(m2);
    recordFlushes(*other);
    other->handleTlbMiss(m2.pt, 2, 0, f1.readyTick); // evicts page 1
    ASSERT_FALSE(m2.pt.find(1)->vc);
    const Flush fl = lastFlushOf(f1.entry.frame);
    EXPECT_EQ(fl.cores, 0xffu);
    EXPECT_EQ(fl.lines, ~std::uint64_t{0});
}

TEST_F(TaglessTest, DirtyOnDieLinesForceWriteback)
{
    build(2);
    miss(1);
    dirtyLinesToReport = 4; // on-die caches hold dirty lines
    miss(2);
    miss(3);
    // Every eviction flushed dirty on-die lines, so every evicted page
    // had to be written back.
    EXPECT_EQ(cache->pageWritebacks(), cache->evictions());
    EXPECT_GE(cache->pageWritebacks(), 1u);
}

TEST_F(TaglessTest, TlbResidentFramesAreNotEvicted)
{
    build(4);
    const auto f1 = miss(1);
    // Page 1 is TLB-resident on core 0.
    cache->onTlbResidence(f1.entry, 0, true);
    miss(2);
    miss(3);
    miss(4);
    miss(5);
    miss(6);
    // Page 1 must still be cached; others were recycled around it.
    EXPECT_TRUE(m.pt.find(1)->vc);
    EXPECT_GT(cache->gipt().at(f1.entry.frame).residence[0], 0u);
    EXPECT_GT(cache->statGroup().name().size(), 0u); // sanity
}

TEST_F(TaglessTest, ShootdownWhenEverythingResident)
{
    build(2);
    const auto f1 = miss(1);
    cache->onTlbResidence(f1.entry, 0, true);
    const auto f2 = miss(2);
    cache->onTlbResidence(f2.entry, 1, true);
    // Both frames resident; the next fill must force a shootdown.
    miss(3);
    // Each replenish eviction found only resident frames.
    EXPECT_GE(cache->shootdowns(), 1u);
    ASSERT_GE(shotDown.size(), 1u);
    EXPECT_EQ(vpnOf(shotDown[0]), 1u); // oldest first
}

TEST_F(TaglessTest, LruEvictsLeastRecentlyTouched)
{
    build(3, ReplPolicy::LRU);
    const auto f1 = miss(1);
    const auto f2 = miss(2);
    (void)f2;
    // Touch page 1 again (victim hit path refreshes recency).
    miss(1, f1.readyTick + 10);
    miss(3); // fills the last free frame and evicts page 2 (LRU)
    EXPECT_TRUE(m.pt.find(1)->vc);
    EXPECT_FALSE(m.pt.find(2)->vc);
    EXPECT_TRUE(m.pt.find(3)->vc);
}

TEST_F(TaglessTest, LruFallbackEvictsTheLeastRecentlyUsedFrame)
{
    // When every frame is blocked, LRU evicts its least recently used
    // frame that is not mid-fill, after a shootdown.
    build(3, ReplPolicy::LRU);
    miss(1);                              // frame 0
    const auto f2 = miss(2);              // frame 1
    cache->access(caAddr(f2.entry.frame, 0), AccessType::Load, 0,
                  f2.readyTick);
    miss(3);                              // frame 2; evicts page 1
    ASSERT_FALSE(m.pt.find(1)->vc);
    EXPECT_EQ(miss(4).entry.frame, 0u);   // refills frame 0; evicts 2
    ASSERT_FALSE(m.pt.find(2)->vc);

    // Pages 3 and 4 stay TLB-resident and page 5's fill is mid-flight:
    // page 3, the least recently used, goes.
    for (PageNum vpn : {3, 4})
        cache->onTlbResidence(TlbEntry{makeAsidVpn(0, vpn),
                                       m.pt.find(vpn)->frame},
                              0, true);
    const std::uint64_t forced = cache->shootdowns();
    miss(5);
    EXPECT_EQ(cache->shootdowns(), forced + 1);
    ASSERT_FALSE(shotDown.empty());
    EXPECT_EQ(vpnOf(shotDown.back()), 3u);
    EXPECT_FALSE(m.pt.find(3)->vc);
    EXPECT_TRUE(m.pt.find(4)->vc);
    EXPECT_TRUE(m.pt.find(5)->vc);
}

TEST_F(TaglessTest, LruEvictsLikeAnLruList)
{
    // Victims must follow a plain LRU list in which a TLB-resident
    // page gets a second chance (moves to the most recent end) instead
    // of being evicted, and the cache's victim order must be that list.
    constexpr std::uint64_t frames = 8;
    constexpr PageNum pages = 20;
    build(frames, ReplPolicy::LRU);
    std::list<PageNum> lru; // front: least recently used
    std::set<PageNum> resident;
    auto use = [&](PageNum vpn) {
        lru.remove(vpn);
        lru.push_back(vpn);
    };
    auto setResident = [&](PageNum vpn, bool r) {
        const Pte *pte = m.pt.find(vpn);
        cache->onTlbResidence(TlbEntry{makeAsidVpn(0, vpn), pte->frame},
                              0, r);
        if (r)
            resident.insert(vpn);
        else
            resident.erase(vpn);
    };

    Pcg32 rng(11);
    Tick t = 0;
    std::uint64_t second_chances = 0;
    for (int i = 0; i < 5000; ++i) {
        const PageNum vpn = rng.below(pages);
        const Pte *pte = m.pt.find(vpn);
        const bool cached = pte != nullptr && pte->vc;
        if (cached && rng.chance(0.1)) {
            if (resident.count(vpn))
                setResident(vpn, false);
            else if (resident.size() < 2)
                setResident(vpn, true);
        } else if (cached && rng.chance(0.7)) {
            cache->access(caAddr(pte->frame, 0), AccessType::Load, 0, t);
            use(vpn);
        } else {
            t = miss(vpn, t).readyTick;
            use(vpn);
            // One frame stays free (alpha = 1): evict down to 7 pages.
            while (lru.size() > frames - 1) {
                const PageNum front = lru.front();
                if (resident.count(front) || front == vpn) {
                    use(front); // second chance
                    ++second_chances;
                    continue;
                }
                lru.pop_front();
            }
        }
        for (PageNum v = 0; v < pages; ++v) {
            const Pte *p = m.pt.find(v);
            const bool in_cache = p != nullptr && p->vc;
            const bool in_list =
                std::find(lru.begin(), lru.end(), v) != lru.end();
            ASSERT_EQ(in_cache, in_list) << "step " << i << " vpn " << v;
        }
        std::list<PageNum> order;
        for (std::uint64_t f = cache->orderFront(); f != invalidPage;
             f = cache->orderNext(f)) {
            ASSERT_TRUE(cache->gipt().at(f).valid()) << "step " << i;
            order.push_back(cache->gipt().at(f).ptep->vpn);
        }
        ASSERT_EQ(order, lru) << "step " << i;
        ASSERT_EQ(cache->orderSize(), frames - cache->freeBlocks())
            << "step " << i;
    }
    EXPECT_GT(second_chances, 0u);
}

TEST_F(TaglessTest, FreeStallWhenEvictionTrafficPending)
{
    build(2);
    miss(1);
    miss(2);
    // The eviction of page 1 was triggered at the same tick as this
    // fill; its background traffic finishes later, so the next fill
    // must wait for the free block.
    const auto res = miss(3);
    (void)res;
    EXPECT_GE(cache->freeStalls(), 1u);
}

TEST_F(TaglessTest, FreeStallChargesExactReadyTickDifference)
{
    build(2);
    miss(1);
    miss(2); // evicts page 1; its frame re-queues with a future readyTick
    ASSERT_FALSE(cache->freeQueue().empty());
    const Tick ready = cache->freeQueue().front().readyTick;
    ASSERT_GT(ready, 0u) << "eviction traffic must still be draining";

    obs::PageFillEvent got{};
    obs::FnListener<obs::PageFillEvent,
                    std::function<void(const obs::PageFillEvent &)>>
        listener([&](const obs::PageFillEvent &ev) { got = ev; });
    cache->fillProbe.attach(&listener);
    const auto res = miss(3, 0);
    cache->fillProbe.detach(&listener);

    EXPECT_TRUE(got.freeStall);
    EXPECT_EQ(got.start, ready)
        << "the fill starts exactly when the free block drains -- no "
           "more, no less";
    EXPECT_EQ(cache->freeStalls(), 1u);
    EXPECT_GE(res.readyTick, ready);
}

TEST_F(TaglessTest, FreeStallSurvivesCheckpointRestore)
{
    // A frame whose eviction traffic is still draining keeps its
    // readyTick across save/restore; the first post-restore fill
    // charges the identical stall.
    build(2);
    miss(1);
    miss(2);
    const Tick ready = cache->freeQueue().front().readyTick;
    ASSERT_GT(ready, 0u);

    Machine m2;
    auto other = restoreInto(m2);

    ASSERT_FALSE(other->freeQueue().empty());
    EXPECT_EQ(other->freeQueue().front().readyTick, ready)
        << "pending eviction traffic must survive restore";

    const auto a = miss(3, 0);
    const auto b = other->handleTlbMiss(m2.pt, 3, 0, 0);
    EXPECT_EQ(b.readyTick, a.readyTick)
        << "restored fill must stall exactly like the straight one";
    EXPECT_EQ(other->freeStalls(), cache->freeStalls());
}

TEST_F(TaglessTest, StatsAndStorageAccounting)
{
    build(16);
    EXPECT_EQ(cache->totalFrames(), 16u);
    EXPECT_EQ(cache->onDieTagBits(), 0u) << "tagless must need no SRAM";
    EXPECT_EQ(cache->tagProbeCount(), 0u);
    EXPECT_EQ(cache->gipt().storageBits(), 16u * 82);
    EXPECT_EQ(cache->kind(), "cTLB");
    EXPECT_TRUE(cache->usesCacheAddressSpace());
}

TEST_F(TaglessTest, GiptChargedTwoOffPackageWrites)
{
    build();
    const auto reads_before = m.offPkg.reads();
    const auto writes_before = m.offPkg.writes();
    miss(1);
    // 2 GIPT writes + 1 page read off-package.
    EXPECT_EQ(m.offPkg.writes() - writes_before, 2u);
    EXPECT_EQ(m.offPkg.reads() - reads_before, 1u);
}

TEST_F(TaglessTest, FillCopiesPageIntoPackage)
{
    build();
    const auto bytes_before = m.inPkg.bytesTransferred();
    miss(1);
    EXPECT_EQ(m.inPkg.bytesTransferred() - bytes_before, pageBytes);
}

// Property test: run a random workload over a small cache and check
// global invariants for both replacement policies.
class TaglessInvariants
    : public ::testing::TestWithParam<std::tuple<ReplPolicy, unsigned>>
{};

TEST_P(TaglessInvariants, HoldAfterRandomWorkload)
{
    const auto [policy, frames] = GetParam();
    Machine m;
    TaglessCacheParams params;
    params.cacheBytes = frames * pageBytes;
    params.policy = policy;
    TaglessCache cache("ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, params);
    cache.setPageInvalidator(
        [](Addr, std::uint32_t, std::uint64_t) { return 0u; });

    Pcg32 rng(1234);
    Tick t = 0;
    for (int i = 0; i < 2000; ++i) {
        const PageNum vpn = rng.below(3 * frames);
        const auto res = cache.handleTlbMiss(m.pt, vpn, 0, t);
        t = res.readyTick + rng.below(100'000);
        if (!res.entry.nc) {
            cache.access(caAddr(res.entry.frame,
                                rng.below(64) * cacheLineBytes),
                         rng.chance(0.3) ? AccessType::Store
                                         : AccessType::Load,
                         0, t);
        }
    }

    // Invariant 1: every VC page's PTE agrees with the GIPT.
    std::set<std::uint64_t> occupied;
    unsigned cached_pages = 0;
    for (PageNum vpn = 0; vpn < 3 * frames; ++vpn) {
        const Pte *pte = m.pt.find(vpn);
        if (pte == nullptr || !pte->vc)
            continue;
        ++cached_pages;
        const auto &g = cache.gipt().at(pte->frame);
        EXPECT_TRUE(g.valid());
        EXPECT_EQ(g.ptep, pte);
        EXPECT_TRUE(occupied.insert(pte->frame).second)
            << "two pages share frame " << pte->frame;
    }

    // Invariant 2: every valid GIPT entry is owned by a VC page.
    unsigned valid_gipt = 0;
    for (std::uint64_t f = 0; f < frames; ++f) {
        const auto &g = cache.gipt().at(f);
        if (!g.valid())
            continue;
        ++valid_gipt;
        EXPECT_TRUE(g.ptep->vc);
        EXPECT_EQ(g.ptep->frame, f);
    }
    EXPECT_EQ(valid_gipt, cached_pages);

    // Invariant 3: free + occupied == total frames.
    EXPECT_EQ(cache.freeBlocks() + valid_gipt, frames);

    // Invariant 4: alpha free blocks available at quiescence.
    EXPECT_GE(cache.freeBlocks(), params.alphaFreeBlocks);

    // Invariant 5: no PU bit left set at quiescence.
    for (PageNum vpn = 0; vpn < 3 * frames; ++vpn) {
        if (const Pte *pte = m.pt.find(vpn)) {
            EXPECT_FALSE(pte->pu) << "vpn " << vpn;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndSize, TaglessInvariants,
    ::testing::Combine(::testing::Values(ReplPolicy::FIFO,
                                         ReplPolicy::LRU),
                       ::testing::Values(4u, 16u, 64u, 256u)));

// ----------------------------------------------- online page filter

TEST_F(TaglessTest, FilterDefersFillUntilThreshold)
{
    params.filterEnabled = true;
    params.filterThreshold = 3;
    build(16);
    // Misses 1 and 2: page under probation, served off-package.
    const auto m1 = miss(7);
    EXPECT_TRUE(m1.entry.nc);
    EXPECT_FALSE(m1.coldFill);
    const auto m2 = miss(7, 1'000'000);
    EXPECT_TRUE(m2.entry.nc);
    EXPECT_EQ(cache->filterRejects(), 2u);
    EXPECT_EQ(cache->coldFills(), 0u);
    // Third miss crosses the threshold: the page is cached.
    const auto m3 = miss(7, 2'000'000);
    EXPECT_FALSE(m3.entry.nc);
    EXPECT_TRUE(m3.coldFill);
    EXPECT_TRUE(m.pt.find(7)->vc);
}

TEST_F(TaglessTest, FilterPromotionShootsDownStaleNcMapping)
{
    // Regression (found by the armed auditor): while a page sits under
    // filter probation its misses install conventional NC mappings.
    // Crossing the threshold moves the page in-package; any NC entry
    // still resident in another TLB would keep routing its accesses
    // off-package, so the promotion must shoot the translation down
    // before filling.
    params.filterEnabled = true;
    params.filterThreshold = 2;
    build(16);
    const auto m1 = miss(100);
    EXPECT_TRUE(m1.entry.nc);
    EXPECT_TRUE(shotDown.empty());

    const auto m2 = miss(100, 1'000'000);
    EXPECT_TRUE(m2.coldFill);
    EXPECT_FALSE(m2.entry.nc);
    ASSERT_EQ(shotDown.size(), 1u);
    EXPECT_EQ(shotDown[0], makeAsidVpn(0, 100));
}

TEST_F(TaglessTest, FilterDoesNotMarkPtePermanentlyNc)
{
    params.filterEnabled = true;
    params.filterThreshold = 2;
    build(16);
    miss(7);
    EXPECT_FALSE(m.pt.find(7)->nc)
        << "probation must not set the NC bit";
}

TEST_F(TaglessTest, FilterSingletonsNeverFill)
{
    params.filterEnabled = true;
    params.filterThreshold = 2;
    build(16);
    // 100 distinct pages, one miss each: none should be cached.
    Tick t = 0;
    for (PageNum v = 100; v < 200; ++v) {
        const auto r = miss(v, t);
        EXPECT_TRUE(r.entry.nc);
        t += 1'000'000;
    }
    EXPECT_EQ(cache->coldFills(), 0u);
    EXPECT_EQ(cache->filterRejects(), 100u);
}

TEST_F(TaglessTest, FilterTableDecays)
{
    params.filterEnabled = true;
    params.filterThreshold = 4;
    params.filterTableSize = 64;
    build(16);
    // Overflow the table many times; must stay bounded and functional.
    Tick t = 0;
    for (PageNum v = 0; v < 1000; ++v) {
        miss(v, t);
        t += 1'000;
    }
    // A genuinely hot page still gets promoted.
    for (int i = 0; i < 4; ++i) {
        miss(5000, t);
        t += 1'000'000;
    }
    EXPECT_TRUE(m.pt.find(5000)->vc);
}

TEST_F(TaglessTest, FilterDisabledFillsImmediately)
{
    build(16);
    const auto r = miss(7);
    EXPECT_TRUE(r.coldFill);
    EXPECT_EQ(cache->filterRejects(), 0u);
}
