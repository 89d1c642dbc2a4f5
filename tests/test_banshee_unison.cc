/**
 * @file
 * Tests for the Banshee (frequency-sampled, TLB-resident tags) and
 * Unison (footprint-predicting) page-cache organizations.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/units.hh"
#include "dramcache/banshee_cache.hh"
#include "dramcache/unison_cache.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

namespace {

struct BansheeTest : public ::testing::Test
{
    Machine m;
    BansheeCacheParams params;
    std::unique_ptr<BansheeCache> cache;

    void
    build(std::uint64_t frames = 4, unsigned assoc = 4,
          unsigned sample_rate = 1, unsigned threshold = 0,
          unsigned tag_buffer = 1024)
    {
        params.cacheBytes = frames * pageBytes;
        params.associativity = assoc;
        params.sampleRate = sample_rate;
        params.threshold = threshold;
        params.tagBufferEntries = tag_buffer;
        cache = std::make_unique<BansheeCache>(
            "banshee", m.inPkg, m.offPkg, m.phys, m.cpuClk, params);
    }

    Addr
    pa(PageNum vpn, Addr offset = 0)
    {
        return paAddr(m.pt.walk(vpn).frame, offset);
    }
};

struct UnisonTest : public ::testing::Test
{
    Machine m;
    UnisonCacheParams params;
    std::unique_ptr<UnisonCache> cache;

    void
    build(std::uint64_t frames = 16, unsigned assoc = 4,
          unsigned predictor_entries = 64)
    {
        params.cacheBytes = frames * pageBytes;
        params.associativity = assoc;
        params.predictorEntries = predictor_entries;
        cache = std::make_unique<UnisonCache>(
            "unison", m.inPkg, m.offPkg, m.phys, m.cpuClk, params);
    }

    Addr
    pa(PageNum vpn, Addr offset = 0)
    {
        return paAddr(m.pt.walk(vpn).frame, offset);
    }
};

} // namespace

// ---------------------------------------------------------------------
// Banshee
// ---------------------------------------------------------------------

TEST_F(BansheeTest, FreeWayFillsOnFirstTouch)
{
    build();
    const auto miss = cache->access(pa(1), AccessType::Load, 0, 0);
    EXPECT_FALSE(miss.l3Hit);
    EXPECT_FALSE(miss.servicedInPackage)
        << "the demanded block is served off-package; the fill is "
           "background";
    EXPECT_TRUE(cache->containsPage(pageOf(pa(1))));
    EXPECT_EQ(cache->pageFills(), 1u);

    const auto hit = cache->access(pa(1, 128), AccessType::Load, 0,
                                   miss.completionTick);
    EXPECT_TRUE(hit.l3Hit);
    EXPECT_TRUE(hit.servicedInPackage);
}

TEST_F(BansheeTest, ColdMissesBypassAFullSet)
{
    build(4, 4, /*sample_rate=*/1, /*threshold=*/0);
    Tick t = 0;
    for (PageNum v = 0; v < 4; ++v)
        t = cache->access(pa(v), AccessType::Load, 0, t).completionTick;
    ASSERT_EQ(cache->pageFills(), 4u);

    // One touch of a fifth page must not displace anyone.
    const auto res = cache->access(pa(10), AccessType::Load, 0, t);
    EXPECT_FALSE(res.servicedInPackage);
    EXPECT_FALSE(cache->containsPage(pageOf(pa(10))));
    EXPECT_EQ(cache->pageFills(), 4u);
    EXPECT_GE(cache->bypassedMisses(), 1u);
}

TEST_F(BansheeTest, RepeatedMissesEarnReplacement)
{
    build(4, 4, /*sample_rate=*/1, /*threshold=*/0);
    Tick t = 0;
    for (PageNum v = 0; v < 4; ++v)
        t = cache->access(pa(v), AccessType::Load, 0, t).completionTick;

    // Every resident way has sampled count 1 (the fill); the second
    // sampled miss raises the challenger's count to 2 > 1 + threshold.
    t = cache->access(pa(10), AccessType::Load, 0, t).completionTick;
    ASSERT_FALSE(cache->containsPage(pageOf(pa(10))));
    cache->access(pa(10), AccessType::Load, 0, t);
    EXPECT_TRUE(cache->containsPage(pageOf(pa(10))));
    EXPECT_EQ(cache->pageFills(), 5u);
}

TEST_F(BansheeTest, DirtyVictimStreamsBack)
{
    build(4, 4, 1, 0);
    Tick t = 0;
    // Way 0 (first fill, lowest index on a count tie) becomes dirty.
    t = cache->access(pa(0), AccessType::Store, 0, t).completionTick;
    for (PageNum v = 1; v < 4; ++v)
        t = cache->access(pa(v), AccessType::Load, 0, t).completionTick;
    const auto writes_before = m.offPkg.writes();
    t = cache->access(pa(10), AccessType::Load, 0, t).completionTick;
    cache->access(pa(10), AccessType::Load, 0, t);
    EXPECT_FALSE(cache->containsPage(pageOf(pa(0))));
    EXPECT_EQ(cache->pageWritebacks(), 1u);
    EXPECT_GT(m.offPkg.writes(), writes_before);
}

TEST_F(BansheeTest, LazyTagWritebackFlushesWhenBufferFills)
{
    build(4, 4, 1, 0, /*tag_buffer=*/2);
    Tick t = 0;
    // Four free-way fills = four pending remaps = two full buffers.
    for (PageNum v = 0; v < 4; ++v)
        t = cache->access(pa(v), AccessType::Load, 0, t).completionTick;
    EXPECT_EQ(cache->tagBufferFlushes(), 2u);
    EXPECT_GT(cache->tagProbeCount(), 0u);
}

TEST_F(BansheeTest, WritebackPaths)
{
    build();
    const auto first = cache->access(pa(3), AccessType::Load, 0, 0);
    const auto writes_before = m.offPkg.writes();
    // Hit: stays in-package and dirties the page.
    cache->writebackLine(pa(3, 256), 0, first.completionTick);
    EXPECT_EQ(m.offPkg.writes(), writes_before);
    // Miss: straight off-package, no allocate.
    cache->writebackLine(pa(9), 0, first.completionTick);
    EXPECT_EQ(m.offPkg.writes(), writes_before + 1);
    EXPECT_FALSE(cache->containsPage(pageOf(pa(9))));
}

TEST_F(BansheeTest, HitPaysNoTagLatency)
{
    build();
    const auto miss = cache->access(pa(1), AccessType::Load, 0, 0);
    const Tick t = miss.completionTick + 1'000'000;
    const auto hit = cache->access(pa(1), AccessType::Load, 0, t);
    // The tag rides the TLB: a hit is one in-package row access, with
    // no SRAM-tag or DRAM-tag probe ahead of it.
    EXPECT_LE(hit.completionTick,
              t + m.inPkg.rowClosedLatency()
                  + m.inPkg.timing().transferTicks(cacheLineBytes));
}

TEST_F(BansheeTest, CheckpointRoundTrip)
{
    build(4, 4, /*sample_rate=*/2, /*threshold=*/1, /*tag_buffer=*/3);
    Tick t = 0;
    for (PageNum v = 0; v < 6; ++v)
        t = cache->access(pa(v % 5), AccessType::Store, 0, t)
                .completionTick;

    ckpt::Serializer s;
    cache->saveState(s);

    Machine m2;
    BansheeCache other("banshee2", m2.inPkg, m2.offPkg, m2.phys, m2.cpuClk,
                       params);
    ckpt::Deserializer d(s.bytes());
    other.loadState(d);
    EXPECT_TRUE(d.done());

    for (PageNum v = 0; v < 5; ++v)
        EXPECT_EQ(other.containsPage(pageOf(pa(v))),
                  cache->containsPage(pageOf(pa(v))))
            << "page " << v;
    EXPECT_EQ(other.l3Accesses(), cache->l3Accesses());
    EXPECT_EQ(other.pageFills(), cache->pageFills());
    EXPECT_EQ(other.tagBufferFlushes(), cache->tagBufferFlushes());
    EXPECT_EQ(other.bypassedMisses(), cache->bypassedMisses());

    // Both instances must agree on all future hit/miss decisions.
    Tick ta = t, tb = t;
    for (PageNum v = 0; v < 8; ++v) {
        const auto ra = cache->access(pa(v), AccessType::Load, 0, ta);
        const auto rb = other.access(pa(v), AccessType::Load, 0, tb);
        EXPECT_EQ(ra.l3Hit, rb.l3Hit) << "page " << v;
        ta = ra.completionTick;
        tb = rb.completionTick;
    }
}

TEST_F(BansheeTest, KindAndMetadata)
{
    build();
    EXPECT_EQ(cache->kind(), "Banshee");
    EXPECT_FALSE(cache->usesCacheAddressSpace());
    EXPECT_EQ(cache->onDieTagBits(), params.tagBufferEntries * 64u)
        << "only the tag buffer lives on-die";
}

// ---------------------------------------------------------------------
// Unison
// ---------------------------------------------------------------------

TEST_F(UnisonTest, ColdMissFillsFullPage)
{
    build();
    const auto miss = cache->access(pa(1), AccessType::Load, 0, 0);
    EXPECT_FALSE(miss.l3Hit);
    EXPECT_TRUE(cache->containsPage(pageOf(pa(1))));
    // Cold predictor: no footprint knowledge, the whole page comes in.
    EXPECT_EQ(cache->validBitsOf(pageOf(pa(1))), ~0ULL);
    EXPECT_EQ(cache->partialFillLines(), 64u);
    EXPECT_EQ(cache->predictorHits(), 0u);
}

TEST_F(UnisonTest, EveryAccessPaysDramTagBurst)
{
    build();
    const auto miss = cache->access(pa(1), AccessType::Load, 0, 0);
    cache->access(pa(1), AccessType::Load, 0, miss.completionTick);
    EXPECT_EQ(cache->l3Accesses(), 2u);
    EXPECT_GE(m.inPkg.reads(), 2u) << "tag burst on hit and miss";
}

TEST_F(UnisonTest, EvictionTrainsFootprintAndRefillIsPartial)
{
    build(16, 4); // 4 sets
    // Touch exactly two lines of page 0's frame group: line 0 (the
    // first-touch context that forms the predictor key) and line 5.
    const Addr a = pa(0);
    const PageNum target = pageOf(a);
    Tick t = 0;
    t = cache->access(a, AccessType::Load, 0, t).completionTick;
    t = cache->access(a + 5 * cacheLineBytes, AccessType::Load, 0, t)
            .completionTick;

    // Evict it: fill four more pages of the same set (ppn + 4k).
    std::vector<PageNum> conflicts;
    for (PageNum v = 1; conflicts.size() < 4 && v < 64; ++v) {
        const Addr c = pa(v);
        if ((pageOf(c) & 3) == (target & 3)) {
            conflicts.push_back(pageOf(c));
            t = cache->access(c, AccessType::Load, 0, t).completionTick;
        }
    }
    ASSERT_EQ(conflicts.size(), 4u);
    ASSERT_FALSE(cache->containsPage(target));

    // Re-access with the same context (core 0, first touch at line 0):
    // only the trained footprint {0, 5} comes in.
    const auto fills_before = cache->partialFillLines();
    cache->access(a, AccessType::Load, 0, t);
    EXPECT_TRUE(cache->containsPage(target));
    EXPECT_EQ(cache->validBitsOf(target), (1ULL << 0) | (1ULL << 5));
    EXPECT_EQ(cache->partialFillLines() - fills_before, 2u);
    EXPECT_GE(cache->predictorHits(), 1u);
}

TEST_F(UnisonTest, UnderpredictedLineRepairsWithSingleFill)
{
    build(16, 4);
    const Addr a = pa(0);
    const PageNum target = pageOf(a);
    Tick t = 0;
    t = cache->access(a, AccessType::Load, 0, t).completionTick;
    std::vector<PageNum> conflicts;
    for (PageNum v = 1; conflicts.size() < 4 && v < 64; ++v) {
        const Addr c = pa(v);
        if ((pageOf(c) & 3) == (target & 3)) {
            conflicts.push_back(pageOf(c));
            t = cache->access(c, AccessType::Load, 0, t).completionTick;
        }
    }
    ASSERT_EQ(conflicts.size(), 4u);
    // Refill with the trained single-line footprint {0}.
    t = cache->access(a, AccessType::Load, 0, t).completionTick;
    ASSERT_EQ(cache->validBitsOf(target), 1ULL);

    // Line 9 was not predicted: the page hits but the line must come
    // from off-package as a single-line repair.
    const auto res = cache->access(a + 9 * cacheLineBytes,
                                   AccessType::Load, 0, t);
    EXPECT_FALSE(res.servicedInPackage);
    EXPECT_EQ(cache->lineFills(), 1u);
    EXPECT_EQ(cache->validBitsOf(target), (1ULL << 0) | (1ULL << 9));
    // And now it is resident.
    const auto hit = cache->access(a + 9 * cacheLineBytes,
                                   AccessType::Load, 0,
                                   res.completionTick);
    EXPECT_TRUE(hit.servicedInPackage);
}

TEST_F(UnisonTest, PartialWritebackMovesOnlyDirtyLines)
{
    build(16, 4);
    const Addr a = pa(0);
    const PageNum target = pageOf(a);
    Tick t = 0;
    // Dirty exactly two lines of the full-page-filled target.
    t = cache->access(a, AccessType::Store, 0, t).completionTick;
    t = cache->access(a + 7 * cacheLineBytes, AccessType::Store, 0, t)
            .completionTick;

    std::vector<PageNum> conflicts;
    for (PageNum v = 1; conflicts.size() < 4 && v < 64; ++v) {
        const Addr c = pa(v);
        if ((pageOf(c) & 3) == (target & 3)) {
            conflicts.push_back(pageOf(c));
            t = cache->access(c, AccessType::Load, 0, t).completionTick;
        }
    }
    ASSERT_EQ(conflicts.size(), 4u);
    ASSERT_FALSE(cache->containsPage(target));
    EXPECT_EQ(cache->partialWbLines(), 2u)
        << "only the two dirtied lines go back off-package";
    EXPECT_EQ(cache->pageWritebacks(), 1u);
}

TEST_F(UnisonTest, CleanEvictionWritesNothingBack)
{
    build(16, 4);
    const Addr a = pa(0);
    const PageNum target = pageOf(a);
    Tick t = 0;
    t = cache->access(a, AccessType::Load, 0, t).completionTick;
    std::vector<PageNum> conflicts;
    for (PageNum v = 1; conflicts.size() < 4 && v < 64; ++v) {
        const Addr c = pa(v);
        if ((pageOf(c) & 3) == (target & 3)) {
            conflicts.push_back(pageOf(c));
            t = cache->access(c, AccessType::Load, 0, t).completionTick;
        }
    }
    ASSERT_FALSE(cache->containsPage(target));
    EXPECT_EQ(cache->partialWbLines(), 0u);
    EXPECT_EQ(cache->pageWritebacks(), 0u);
}

TEST_F(UnisonTest, WritebackAllocatesLineIntoPresentPage)
{
    build(16, 4);
    const Addr a = pa(0);
    const PageNum target = pageOf(a);
    Tick t = 0;
    t = cache->access(a, AccessType::Load, 0, t).completionTick;
    std::vector<PageNum> conflicts;
    for (PageNum v = 1; conflicts.size() < 4 && v < 64; ++v) {
        const Addr c = pa(v);
        if ((pageOf(c) & 3) == (target & 3)) {
            conflicts.push_back(pageOf(c));
            t = cache->access(c, AccessType::Load, 0, t).completionTick;
        }
    }
    t = cache->access(a, AccessType::Load, 0, t).completionTick;
    ASSERT_EQ(cache->validBitsOf(target), 1ULL);

    // An L2 victim carries the full line: it becomes valid + dirty in
    // the cached page even though the footprint fill skipped it.
    cache->writebackLine(a + 3 * cacheLineBytes, 0, t);
    EXPECT_EQ(cache->validBitsOf(target), (1ULL << 0) | (1ULL << 3));

    // Miss path: no page allocation for victims of uncached pages.
    const auto writes_before = m.offPkg.writes();
    cache->writebackLine(pa(40), 0, t);
    EXPECT_FALSE(cache->containsPage(pageOf(pa(40))));
    EXPECT_GT(m.offPkg.writes(), writes_before);
}

TEST_F(UnisonTest, CheckpointRoundTrip)
{
    build(16, 4, /*predictor_entries=*/16);
    Tick t = 0;
    for (PageNum v = 0; v < 12; ++v)
        t = cache->access(pa(v), v % 3 ? AccessType::Load
                                       : AccessType::Store,
                          0, t)
                .completionTick;

    ckpt::Serializer s;
    cache->saveState(s);

    Machine m2;
    UnisonCache other("unison2", m2.inPkg, m2.offPkg, m2.phys, m2.cpuClk,
                      params);
    ckpt::Deserializer d(s.bytes());
    other.loadState(d);
    EXPECT_TRUE(d.done());

    for (PageNum v = 0; v < 12; ++v) {
        EXPECT_EQ(other.containsPage(pageOf(pa(v))),
                  cache->containsPage(pageOf(pa(v))))
            << "page " << v;
        EXPECT_EQ(other.validBitsOf(pageOf(pa(v))),
                  cache->validBitsOf(pageOf(pa(v))))
            << "page " << v;
    }
    EXPECT_EQ(other.partialFillLines(), cache->partialFillLines());
    EXPECT_EQ(other.partialWbLines(), cache->partialWbLines());
    EXPECT_EQ(other.predictorHits(), cache->predictorHits());

    Tick ta = t, tb = t;
    for (PageNum v = 0; v < 16; ++v) {
        const auto ra = cache->access(pa(v), AccessType::Load, 0, ta);
        const auto rb = other.access(pa(v), AccessType::Load, 0, tb);
        EXPECT_EQ(ra.l3Hit, rb.l3Hit) << "page " << v;
        EXPECT_EQ(ra.servicedInPackage, rb.servicedInPackage)
            << "page " << v;
        ta = ra.completionTick;
        tb = rb.completionTick;
    }
}

TEST_F(UnisonTest, KindAndMetadata)
{
    build();
    EXPECT_EQ(cache->kind(), "Unison");
    EXPECT_FALSE(cache->usesCacheAddressSpace());
    EXPECT_EQ(cache->onDieTagBits(), 0u) << "tags live in DRAM";
}
