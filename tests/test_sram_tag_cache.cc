/**
 * @file
 * Tests for the SRAM-tag page cache, Table 6 parameters and the
 * set-associative page array the tagged page caches share.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "dramcache/page_sets.hh"
#include "dramcache/sram_tag_cache.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

namespace {

struct SramTagTest : public ::testing::Test
{
    Machine m;
    SramTagCacheParams params;
    std::unique_ptr<SramTagCache> cache;

    void
    build(std::uint64_t frames = 32, unsigned assoc = 16)
    {
        params.cacheBytes = frames * pageBytes;
        params.associativity = assoc;
        params.tagLatency = 11;
        cache = std::make_unique<SramTagCache>(
            "sram", m.inPkg, m.offPkg, m.phys, m.cpuClk, params);
    }

    Addr
    pa(PageNum vpn, Addr offset = 0)
    {
        return paAddr(m.pt.walk(vpn).frame, offset);
    }
};

} // namespace

TEST_F(SramTagTest, MissFillsPage)
{
    build();
    const auto res = cache->access(pa(1), AccessType::Load, 0, 0);
    EXPECT_FALSE(res.l3Hit);
    EXPECT_FALSE(res.servicedInPackage);
    EXPECT_TRUE(cache->containsPage(pageOf(pa(1))));
    EXPECT_EQ(cache->pageFills(), 1u);
}

TEST_F(SramTagTest, SecondAccessHitsInPackage)
{
    build();
    const auto first = cache->access(pa(1), AccessType::Load, 0, 0);
    const auto hit = cache->access(pa(1, 128), AccessType::Load, 0,
                                   first.completionTick);
    EXPECT_TRUE(hit.l3Hit);
    EXPECT_TRUE(hit.servicedInPackage);
    EXPECT_LT(hit.completionTick - first.completionTick,
              first.completionTick); // hit far cheaper than the miss
}

TEST_F(SramTagTest, TagLatencyOnCriticalPathEvenOnHit)
{
    build();
    const auto first = cache->access(pa(1), AccessType::Load, 0, 0);
    const Tick t = first.completionTick + 1'000'000;
    const auto hit = cache->access(pa(1), AccessType::Load, 0, t);
    const Tick tag_ticks = m.cpuClk.cyclesToTicks(params.tagLatency);
    // Completion >= when + tag latency + in-package row access.
    EXPECT_GE(hit.completionTick, t + tag_ticks + m.inPkg.rowHitLatency());
    EXPECT_EQ(cache->tagProbes(), 2u);
}

TEST_F(SramTagTest, LruEvictionWithinSet)
{
    build(32, 16); // 2 sets
    // 17 pages mapping to set 0 (even page numbers with 2 sets).
    std::vector<Addr> pages;
    for (PageNum v = 0; v < 40; ++v) {
        const Addr a = pa(v);
        if (pageOf(a) % 2 == 0)
            pages.push_back(a);
        if (pages.size() == 17)
            break;
    }
    ASSERT_EQ(pages.size(), 17u);
    Tick t = 0;
    for (std::size_t i = 0; i + 1 < pages.size(); ++i)
        t = cache->access(pages[i], AccessType::Load, 0, t)
                .completionTick;
    // Re-touch the first page so the second is LRU.
    t = cache->access(pages[0], AccessType::Load, 0, t).completionTick;
    cache->access(pages[16], AccessType::Load, 0, t);
    EXPECT_TRUE(cache->containsPage(pageOf(pages[0])));
    EXPECT_FALSE(cache->containsPage(pageOf(pages[1])));
}

TEST_F(SramTagTest, DirtyVictimStreamsBack)
{
    build(16, 16); // 1 set: easy conflicts
    Tick t = 0;
    t = cache->access(pa(0), AccessType::Store, 0, t).completionTick;
    for (PageNum v = 1; v <= 16; ++v)
        t = cache->access(pa(v), AccessType::Load, 0, t).completionTick;
    EXPECT_FALSE(cache->containsPage(pageOf(pa(0))));
    EXPECT_EQ(cache->pageWritebacks(), 1u);
}

TEST_F(SramTagTest, WritebackHitStaysInPackage)
{
    build();
    const auto first = cache->access(pa(3), AccessType::Load, 0, 0);
    const auto writes_before = m.offPkg.writes();
    cache->writebackLine(pa(3, 256), 0, first.completionTick);
    EXPECT_EQ(m.offPkg.writes(), writes_before);
    // The page is now dirty: evicting it must write it back.
    Tick t = first.completionTick;
    for (PageNum v = 100; v < 100 + 32; ++v)
        t = cache->access(pa(v), AccessType::Load, 0, t).completionTick;
    EXPECT_EQ(cache->pageWritebacks(), 1u);
}

TEST_F(SramTagTest, WritebackMissGoesOffPackage)
{
    build();
    const auto writes_before = m.offPkg.writes();
    cache->writebackLine(pa(9, 0), 0, 0);
    EXPECT_EQ(m.offPkg.writes(), writes_before + 1);
    EXPECT_FALSE(cache->containsPage(pageOf(pa(9))));
    EXPECT_EQ(cache->pageFills(), 0u) << "no write-allocate";
}

TEST_F(SramTagTest, OnDieTagStorageMatchesTable6)
{
    EXPECT_EQ(sramTagBytesForSize(128 * MiB), MiB / 2);
    EXPECT_EQ(sramTagBytesForSize(256 * MiB), 1 * MiB);
    EXPECT_EQ(sramTagBytesForSize(512 * MiB), 2 * MiB);
    EXPECT_EQ(sramTagBytesForSize(1024 * MiB), 4 * MiB);
}

TEST_F(SramTagTest, TagLatencyMatchesTable6)
{
    EXPECT_EQ(sramTagLatencyForSize(128 * MiB), 5u);
    EXPECT_EQ(sramTagLatencyForSize(256 * MiB), 6u);
    EXPECT_EQ(sramTagLatencyForSize(512 * MiB), 9u);
    EXPECT_EQ(sramTagLatencyForSize(1024 * MiB), 11u);
}

TEST_F(SramTagTest, Kind)
{
    build();
    EXPECT_EQ(cache->kind(), "SRAM");
    EXPECT_FALSE(cache->usesCacheAddressSpace());
    EXPECT_GT(cache->onDieTagBits(), 0u);
}

TEST_F(SramTagTest, MissRateTracked)
{
    build();
    Tick t = 0;
    t = cache->access(pa(1), AccessType::Load, 0, t).completionTick;
    t = cache->access(pa(1), AccessType::Load, 0, t).completionTick;
    t = cache->access(pa(2), AccessType::Load, 0, t).completionTick;
    EXPECT_EQ(cache->l3Accesses(), 3u);
    EXPECT_EQ(cache->l3Hits(), 1u);
    EXPECT_EQ(cache->l3Misses(), 2u);
}

// ------------------------------------------------------------ PageSets

namespace {

struct TestWay
{
    PageNum ppn = 0;
    bool valid = false;
    std::uint64_t key = 0;
};

} // namespace

TEST(PageSets, FramesAreWayMajor)
{
    PageSets<TestWay> s(16, 4);
    EXPECT_EQ(s.numSets(), 4u);
    EXPECT_EQ(s.setOf(13), 1u);
    EXPECT_EQ(s.frameOf(1, 0), 1u);
    EXPECT_EQ(s.frameOf(1, 2), 9u) << "way * sets + set";
    EXPECT_EQ(s.frameOf(3, 3), 15u);
}

TEST(PageSets, FindIgnoresAnInvalidWayWithAMatchingPpn)
{
    PageSets<TestWay> s(16, 4);
    s.at(1, 0) = TestWay{.ppn = 5, .valid = false};
    EXPECT_EQ(s.find(1, 5), -1);
    EXPECT_FALSE(s.contains(5));
    s.at(1, 2) = TestWay{.ppn = 5, .valid = true};
    EXPECT_EQ(s.find(1, 5), 2);
    EXPECT_TRUE(s.contains(5));
    EXPECT_EQ(s.find(2, 5), -1) << "only the named set is searched";
}

TEST(PageSets, VictimIsTheFirstInvalidWayElseTheSmallestKey)
{
    PageSets<TestWay> s(16, 4);
    auto key = [](const TestWay &w) { return w.key; };
    EXPECT_EQ(s.victim(0, key), 0u);
    s.at(0, 0) = TestWay{.ppn = 0, .valid = true, .key = 1};
    s.at(0, 2) = TestWay{.ppn = 8, .valid = true, .key = 0};
    EXPECT_EQ(s.victim(0, key), 1u) << "first invalid way";
    s.at(0, 1) = TestWay{.ppn = 4, .valid = true, .key = 7};
    EXPECT_EQ(s.victim(0, key), 3u);
    s.at(0, 3) = TestWay{.ppn = 12, .valid = true, .key = 0};
    EXPECT_EQ(s.victim(0, key), 2u) << "smallest key, lowest index";
    s.at(0, 2).key = 9;
    EXPECT_EQ(s.victim(0, key), 3u);
}

TEST(PageSets, StorageIsFrameIndexed)
{
    PageSets<TestWay> s(16, 4);
    for (std::uint64_t set = 0; set < s.numSets(); ++set) {
        for (unsigned w = 0; w < 4; ++w) {
            EXPECT_EQ(&s.at(set, w) - &s.at(0, 0),
                      static_cast<std::ptrdiff_t>(s.frameOf(set, w)))
                << "set " << set << " way " << w;
        }
    }
}

TEST(PageSets, OnePagePerSetPaysForOneWayStripe)
{
    // A 1 GiB, 16-way cache holding one page in every set: the pages
    // share way 0's stripe, a sixteenth of the array. Stored set-major,
    // the same pages wrote every page of it (6 MiB).
    const long before = test::residentKib();
    auto s = std::make_unique<PageSets<TestWay>>((1ULL << 30) / pageBytes,
                                                 16);
    auto key = [](const TestWay &w) { return w.key; };
    for (std::uint64_t set = 0; set < s->numSets(); ++set)
        s->at(set, s->victim(set, key)) = TestWay{.ppn = set, .valid = true};
    EXPECT_LT(test::residentKib() - before, 1024);
    EXPECT_TRUE(s->contains(s->numSets() - 1));
}

TEST(PageSets, CheckpointListsWaysInSetMajorOrder)
{
    // Index set * assoc + way, whatever the storage order.
    PageSets<TestWay> s(16, 4);
    s.at(3, 0) = TestWay{.ppn = 3, .valid = true, .key = 30};
    s.at(0, 2) = TestWay{.ppn = 4, .valid = true, .key = 2};
    s.at(1, 1) = TestWay{.ppn = 5, .valid = true, .key = 11};
    s.at(1, 3) = TestWay{.ppn = 9, .valid = false, .key = 13};
    ckpt::Serializer out;
    s.save(out, [&](const TestWay &w) { out.putU64(w.key); });

    ckpt::Deserializer in(out.bytes());
    EXPECT_EQ(in.getU64(), 16u);
    EXPECT_EQ(in.getU64(), 3u) << "valid ways only";
    for (const auto &[index, key] :
         {std::pair{2u, 2u}, std::pair{5u, 11u}, std::pair{12u, 30u}}) {
        EXPECT_EQ(in.getU64(), index);
        EXPECT_EQ(in.getU64(), key);
    }
    EXPECT_TRUE(in.done());

    // restore() puts each record back at its (set, way).
    PageSets<TestWay> back(16, 4);
    ckpt::Deserializer again(out.bytes());
    back.restore(again, "test way", [&](TestWay &w) {
        w.key = again.getU64();
        w.ppn = w.key / 10;
    });
    EXPECT_TRUE(again.done());
    EXPECT_TRUE(back.at(3, 0).valid);
    EXPECT_EQ(back.at(3, 0).key, 30u);
    EXPECT_EQ(back.at(0, 2).key, 2u);
    EXPECT_EQ(back.at(1, 1).key, 11u);
    EXPECT_FALSE(back.at(1, 3).valid);
}
