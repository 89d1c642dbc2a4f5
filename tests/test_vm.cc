/** @file Tests for physical memory, page tables and TLBs. */

#include <gtest/gtest.h>

#include <set>

#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/pte.hh"
#include "vm/tlb.hh"

using namespace tdc;

// ------------------------------------------------------------- AsidVpn

TEST(AsidVpn, RoundTrip)
{
    const AsidVpn k = makeAsidVpn(3, 0x12345);
    EXPECT_EQ(procOf(k), 3u);
    EXPECT_EQ(vpnOf(k), 0x12345u);
}

TEST(AsidVpn, ProcessesDoNotAlias)
{
    EXPECT_NE(makeAsidVpn(0, 100), makeAsidVpn(1, 100));
    EXPECT_NE(makeAsidVpn(2, 100), makeAsidVpn(2, 101));
}

// ------------------------------------------------------------- PhysMem

TEST(PhysMem, BumpAllocation)
{
    PhysMem pm("pm", 100);
    EXPECT_EQ(pm.allocPage(), 0u);
    EXPECT_EQ(pm.allocPage(), 1u);
    EXPECT_EQ(pm.allocatedPages(), 2u);
}

TEST(PhysMem, AllOffPackageWithoutInterleave)
{
    PhysMem pm("pm", 100);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(pm.regionOf(pm.allocPage()), MemRegion::OffPackage);
}

TEST(PhysMem, CapacityProportionalInterleave)
{
    // 1:8 in:off ratio, like 1GB in-package / 8GB off-package.
    PhysMem pm("pm", 800, 100);
    unsigned in_pkg = 0;
    for (int i = 0; i < 450; ++i)
        in_pkg += pm.regionOf(pm.allocPage()) == MemRegion::InPackage;
    // Expect roughly 1/9 of pages in-package.
    EXPECT_NEAR(in_pkg, 50, 10);
}

TEST(PhysMem, DeviceAddrPerRegion)
{
    PhysMem pm("pm", 100, 10);
    // Off-package pages use their own page number; in-package pages are
    // rebased to the in-package device.
    EXPECT_EQ(pm.deviceAddr(5), pageBase(5));
    EXPECT_EQ(pm.regionOf(100), MemRegion::InPackage);
    EXPECT_EQ(pm.deviceAddr(100), pageBase(0));
    EXPECT_EQ(pm.deviceAddr(103), pageBase(3));
}

TEST(PhysMemDeath, OutOfMemory)
{
    PhysMem pm("pm", 3);
    pm.allocPage();
    pm.allocPage();
    pm.allocPage();
    EXPECT_EXIT(pm.allocPage(), ::testing::ExitedWithCode(1),
                "out of physical memory");
}

// ----------------------------------------------------------- PageTable

TEST(PageTable, DemandAllocation)
{
    PhysMem pm("pm", 100);
    PageTable pt("pt", 0, pm);
    EXPECT_EQ(pt.find(10), nullptr);
    Pte &pte = pt.walk(10);
    EXPECT_TRUE(pte.valid);
    EXPECT_FALSE(pte.vc);
    EXPECT_FALSE(pte.nc);
    EXPECT_FALSE(pte.pu);
    EXPECT_EQ(pte.vpn, 10u);
    EXPECT_EQ(pt.find(10), &pte);
    EXPECT_EQ(pt.demandAllocs(), 1u);
}

TEST(PageTable, WalkIsIdempotent)
{
    PhysMem pm("pm", 100);
    PageTable pt("pt", 0, pm);
    Pte &a = pt.walk(5);
    Pte &b = pt.walk(5);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(pt.demandAllocs(), 1u);
}

TEST(PageTable, PointerStability)
{
    PhysMem pm("pm", 100'000);
    PageTable pt("pt", 0, pm);
    Pte *first = &pt.walk(0);
    for (PageNum v = 1; v < 10'000; ++v)
        pt.walk(v);
    // The GIPT stores Pte*; growing the table must not move entries.
    EXPECT_EQ(pt.find(0), first);
}

TEST(PageTable, DistinctFrames)
{
    PhysMem pm("pm", 1000);
    PageTable pt("pt", 0, pm);
    std::set<Addr> frames;
    for (PageNum v = 0; v < 100; ++v)
        frames.insert(pt.walk(v).frame);
    EXPECT_EQ(frames.size(), 100u);
}

TEST(PageTable, NonCacheableHintBeforeTouch)
{
    PhysMem pm("pm", 100);
    PageTable pt("pt", 0, pm);
    pt.setNonCacheableHint(42);
    EXPECT_TRUE(pt.walk(42).nc);
    EXPECT_FALSE(pt.walk(43).nc);
}

TEST(PageTable, NonCacheableHintAfterTouch)
{
    PhysMem pm("pm", 100);
    PageTable pt("pt", 0, pm);
    pt.walk(42);
    pt.setNonCacheableHint(42);
    EXPECT_TRUE(pt.walk(42).nc);
}

// ----------------------------------------------------------------- TLB

namespace {

TlbEntry
entry(PageNum vpn, Addr frame, bool nc = false)
{
    return TlbEntry{makeAsidVpn(0, vpn), frame, nc};
}

/** Records every residence notification a TLB sends. */
struct RecordingListener final : TlbResidenceListener
{
    int resident = 0;
    std::vector<Addr> evicted;

    void
    onTlbResidence(const TlbEntry &e, CoreId, bool r) override
    {
        resident += r ? 1 : -1;
        if (!r)
            evicted.push_back(e.frame);
    }
};

} // namespace

TEST(Tlb, MissThenHit)
{
    Tlb tlb("tlb", 4);
    EXPECT_FALSE(tlb.lookup(makeAsidVpn(0, 1)).has_value());
    tlb.insert(entry(1, 100));
    const auto hit = tlb.lookup(makeAsidVpn(0, 1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->frame, 100u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    Tlb tlb("tlb", 2);
    tlb.insert(entry(1, 1));
    tlb.insert(entry(2, 2));
    tlb.lookup(makeAsidVpn(0, 1)); // 1 becomes MRU
    const auto victim = tlb.insert(entry(3, 3));
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(vpnOf(victim->key), 2u);
    EXPECT_TRUE(tlb.contains(makeAsidVpn(0, 1)));
    EXPECT_FALSE(tlb.contains(makeAsidVpn(0, 2)));
}

TEST(Tlb, RefreshUpdatesInPlace)
{
    Tlb tlb("tlb", 2);
    tlb.insert(entry(1, 100));
    const auto victim = tlb.insert(entry(1, 100));
    EXPECT_FALSE(victim.has_value());
    EXPECT_EQ(tlb.size(), 1u);
}

TEST(Tlb, Invalidate)
{
    Tlb tlb("tlb", 4);
    tlb.insert(entry(1, 1));
    EXPECT_TRUE(tlb.invalidate(makeAsidVpn(0, 1)));
    EXPECT_FALSE(tlb.contains(makeAsidVpn(0, 1)));
    EXPECT_FALSE(tlb.invalidate(makeAsidVpn(0, 1)));
}

TEST(Tlb, ResidenceHookTracksInsertAndEvict)
{
    Tlb tlb("tlb", 2);
    RecordingListener rec;
    tlb.setResidenceListener(&rec, 0);
    tlb.insert(entry(1, 1));
    tlb.insert(entry(2, 2));
    EXPECT_EQ(rec.resident, 2);
    tlb.insert(entry(3, 3)); // evicts one
    EXPECT_EQ(rec.resident, 2);
    tlb.invalidate(makeAsidVpn(0, 3));
    EXPECT_EQ(rec.resident, 1);
    tlb.invalidate(makeAsidVpn(0, 2));
    EXPECT_EQ(rec.resident, 0);
}

TEST(Tlb, HookReceivesEvictedEntry)
{
    Tlb tlb("tlb", 1);
    RecordingListener rec;
    tlb.setResidenceListener(&rec, 0);
    tlb.insert(entry(1, 111));
    tlb.insert(entry(2, 222));
    ASSERT_EQ(rec.evicted.size(), 1u);
    EXPECT_EQ(rec.evicted[0], 111u);
}

TEST(Tlb, DistinguishesProcesses)
{
    Tlb tlb("tlb", 4);
    tlb.insert(TlbEntry{makeAsidVpn(0, 9), 100, false});
    EXPECT_FALSE(tlb.lookup(makeAsidVpn(1, 9)).has_value());
    EXPECT_TRUE(tlb.lookup(makeAsidVpn(0, 9)).has_value());
}

TEST(Tlb, CapacityHonored)
{
    Tlb tlb("tlb", 32);
    for (PageNum v = 0; v < 100; ++v)
        tlb.insert(entry(v, v));
    EXPECT_EQ(tlb.size(), 32u);
    // The 32 most recent survive.
    for (PageNum v = 68; v < 100; ++v)
        EXPECT_TRUE(tlb.contains(makeAsidVpn(0, v)));
}

TEST(Tlb, NcEntryPreserved)
{
    Tlb tlb("tlb", 4);
    tlb.insert(entry(1, 100, true));
    const auto hit = tlb.lookup(makeAsidVpn(0, 1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->nc);
}
