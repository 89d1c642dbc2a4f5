/** @file Tests for the set-associative SRAM cache. */

#include <gtest/gtest.h>

#include "cache/sram_cache.hh"

using namespace tdc;

namespace {

SramCacheParams
smallParams(unsigned assoc = 2)
{
    SramCacheParams p;
    p.sizeBytes = 1024; // 16 lines
    p.associativity = assoc;
    p.lineBytes = 64;
    p.hitLatency = 2;
    return p;
}

/** Two addresses mapping to the same set differ by sets*line bytes. */
constexpr Addr setStride = 1024 / 2; // 8 sets * 64 B

} // namespace

TEST(SramCache, MissThenHit)
{
    SramCache c("c", smallParams());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit); // same line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(SramCache, LruEvictsLeastRecentlyUsed)
{
    SramCache c("c", smallParams());
    const Addr a = 0, b = a + setStride, x = a + 2 * setStride;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // a is now MRU
    c.access(x, false); // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(x));
}

TEST(SramCache, DirtyEvictionReportsWriteback)
{
    SramCache c("c", smallParams());
    const Addr a = 0, b = a + setStride, x = a + 2 * setStride;
    c.access(a, true); // dirty
    c.access(b, false);
    c.access(b, false);
    const auto out = c.access(x, false); // evicts dirty a
    EXPECT_EQ(out.writebackAddr, a);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(SramCache, CleanEvictionNoWriteback)
{
    SramCache c("c", smallParams());
    const Addr a = 0, b = a + setStride, x = a + 2 * setStride;
    c.access(a, false);
    c.access(b, false);
    const auto out = c.access(x, false);
    EXPECT_EQ(out.writebackAddr, invalidAddr);
}

TEST(SramCache, WriteMarksDirtyOnHit)
{
    SramCache c("c", smallParams());
    const Addr a = 0, b = a + setStride, x = a + 2 * setStride;
    c.access(a, false); // clean fill
    c.access(a, true);  // dirtied by a later store
    c.access(b, false);
    c.access(b, false);
    EXPECT_EQ(c.access(x, false).writebackAddr, a);
}

TEST(SramCache, InvalidatePageFlushesAllLines)
{
    SramCacheParams p;
    p.sizeBytes = 64 * 1024;
    p.associativity = 4;
    SramCache c("c", p);
    for (Addr a = 0x4000; a < 0x5000; a += 64)
        c.access(a, (a & 64) != 0); // alternate dirty lines
    unsigned dirty = 0;
    for (Addr a = 0x4000; a < 0x5000; a += 64)
        dirty += c.invalidateLine(a) ? 1 : 0;
    EXPECT_EQ(dirty, 32u);
    for (Addr a = 0x4000; a < 0x5000; a += 64)
        EXPECT_FALSE(c.contains(a));
}

TEST(SramCache, InvalidatePageLeavesOtherPages)
{
    SramCacheParams p;
    p.sizeBytes = 64 * 1024;
    p.associativity = 4;
    SramCache c("c", p);
    c.access(0x4000, false);
    c.access(0x8000, false);
    for (Addr a = 0x4000; a < 0x5000; a += 64)
        c.invalidateLine(a);
    EXPECT_FALSE(c.contains(0x4000));
    EXPECT_TRUE(c.contains(0x8000));
}

TEST(SramCache, HighAddressBitsDistinguishTags)
{
    SramCache c("c", smallParams());
    const Addr ca_space = 1ULL << 46;
    c.access(0x1000, false);
    EXPECT_FALSE(c.access(ca_space | 0x1000, false).hit);
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(ca_space | 0x1000));
}

TEST(SramCache, MissRate)
{
    SramCache c("c", smallParams());
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 0.25);
}

/** Associativity sweep: a set never holds more lines than ways. */
class SramCacheAssoc : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SramCacheAssoc, SetCapacityRespected)
{
    const unsigned assoc = GetParam();
    SramCache c("c", smallParams(assoc));
    const unsigned sets = 16 / assoc;
    const Addr stride = Addr{sets} * 64;
    // Fill the set with exactly `assoc` lines: all must be resident.
    for (unsigned i = 0; i < assoc; ++i)
        c.access(i * stride, false);
    for (unsigned i = 0; i < assoc; ++i)
        EXPECT_TRUE(c.contains(i * stride)) << i;
    // One more line evicts exactly one.
    c.access(Addr{assoc} * stride, false);
    unsigned resident = 0;
    for (unsigned i = 0; i <= assoc; ++i)
        resident += c.contains(i * stride);
    EXPECT_EQ(resident, assoc);
}

INSTANTIATE_TEST_SUITE_P(Assocs, SramCacheAssoc,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

TEST(SramCache, HitsAfterFill)
{
    SramCache c("c", smallParams(4));
    for (Addr a = 0; a < 1024; a += 64)
        c.access(a, false);
    // Cache is exactly full: everything must still be resident.
    for (Addr a = 0; a < 1024; a += 64)
        EXPECT_TRUE(c.contains(a)) << a;
}
