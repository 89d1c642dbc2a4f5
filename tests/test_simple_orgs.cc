/** @file Tests for NoL3, BankInterleave, Ideal and Alloy organizations. */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "dramcache/alloy_cache.hh"
#include "dramcache/bank_interleave.hh"
#include "dramcache/ideal_cache.hh"
#include "dramcache/no_l3.hh"
#include "dramcache/org_factory.hh"
#include "dramcache/tagless_cache.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

TEST(NoL3, AlwaysOffPackage)
{
    Machine m;
    NoL3 org("nol3", m.inPkg, m.offPkg, m.phys, m.cpuClk);
    const auto res = org.access(paAddr(5, 0), AccessType::Load, 0, 0);
    EXPECT_FALSE(res.servicedInPackage);
    EXPECT_EQ(m.offPkg.reads(), 1u);
    EXPECT_EQ(m.inPkg.reads(), 0u);
    EXPECT_EQ(org.kind(), "NoL3");
}

TEST(NoL3, TlbMissIsConventional)
{
    Machine m;
    NoL3 org("nol3", m.inPkg, m.offPkg, m.phys, m.cpuClk);
    const auto res = org.handleTlbMiss(m.pt, 7, 0, 1234);
    EXPECT_TRUE(res.entry.nc) << "conventional orgs keep PA mappings";
    EXPECT_EQ(res.readyTick, 1234u) << "no cache management cost";
    EXPECT_FALSE(res.coldFill);
}

TEST(BankInterleave, RoutesByRegion)
{
    // 7 off-package pages to 1 in-package page.
    Machine m(64ULL << 20, 700, 100);
    BankInterleave org("bi", m.inPkg, m.offPkg, m.phys, m.cpuClk);
    unsigned in_pkg_hits = 0;
    Tick t = 0;
    for (PageNum v = 0; v < 80; ++v) {
        const Pte &pte = m.pt.walk(v);
        const auto res = org.access(paAddr(pte.frame, 0),
                                    AccessType::Load, 0, t);
        t = res.completionTick;
        in_pkg_hits += res.servicedInPackage;
    }
    EXPECT_GT(in_pkg_hits, 0u);
    EXPECT_LT(in_pkg_hits, 40u); // minority in-package
    EXPECT_EQ(org.kind(), "BI");
}

TEST(Ideal, AlwaysInPackage)
{
    Machine m;
    IdealCache org("ideal", m.inPkg, m.offPkg, m.phys, m.cpuClk);
    Tick t = 0;
    for (PageNum p = 0; p < 100; ++p) {
        const auto res =
            org.access(paAddr(p * 1000, 0), AccessType::Load, 0, t);
        t = res.completionTick;
        EXPECT_TRUE(res.servicedInPackage);
    }
    EXPECT_EQ(m.offPkg.reads(), 0u);
    EXPECT_DOUBLE_EQ(org.l3HitRate(), 1.0);
}

TEST(Alloy, DirectMappedHitAndMiss)
{
    Machine m;
    AlloyCacheParams p;
    p.cacheBytes = 1ULL << 20;
    AlloyCache org("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);

    const Addr a = paAddr(3, 64);
    const auto miss = org.access(a, AccessType::Load, 0, 0);
    EXPECT_FALSE(miss.l3Hit);
    const auto hit = org.access(a, AccessType::Load, 0,
                                miss.completionTick);
    EXPECT_TRUE(hit.l3Hit);
    EXPECT_TRUE(hit.servicedInPackage);
}

TEST(Alloy, ConflictEvicts)
{
    Machine m;
    AlloyCacheParams p;
    p.cacheBytes = 1ULL << 20; // 14563 TAD slots
    AlloyCache org("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
    const std::uint64_t slots = org.dataBlocks();

    const Addr a = 0;
    const Addr b = slots * cacheLineBytes; // same slot, different line
    Tick t = org.access(a, AccessType::Load, 0, 0).completionTick;
    t = org.access(b, AccessType::Load, 0, t).completionTick;
    const auto res = org.access(a, AccessType::Load, 0, t);
    EXPECT_FALSE(res.l3Hit) << "direct-mapped conflict";
}

TEST(Alloy, DirtyEvictionWritesBack)
{
    Machine m;
    AlloyCacheParams p;
    p.cacheBytes = 1ULL << 20;
    AlloyCache org("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
    const std::uint64_t slots = org.dataBlocks();
    const auto writes_before = m.offPkg.writes();
    Tick t = org.access(0, AccessType::Store, 0, 0).completionTick;
    org.access(slots * cacheLineBytes, AccessType::Load, 0, t);
    EXPECT_GT(m.offPkg.writes(), writes_before);
}

TEST(Alloy, CapacityLostToTags)
{
    Machine m;
    AlloyCacheParams p;
    p.cacheBytes = 1ULL << 30;
    AlloyCache org("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
    // 72B TAD per 64B of data: ~11% of capacity goes to tags.
    EXPECT_LT(org.dataBlocks(), (1ULL << 30) / 64);
    EXPECT_EQ(org.dataBlocks(), (1ULL << 30) / 72);
}

TEST(Alloy, SlotWordMustHoldTheLargestTag)
{
    // 8 GiB of physical memory is 2^27 lines; 15-bit tags cover them
    // with 4,097 slots (295 KB of TAD) or more.
    Machine m(64ULL << 20, 1ULL << 21);
    AlloyCacheParams p;
    p.cacheBytes = 4097 * 72;
    EXPECT_EQ(
        AlloyCache("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p)
            .dataBlocks(),
        4097u);
    p.cacheBytes = 4096 * 72;
    ScopedFatalCapture capture;
    EXPECT_THROW(
        AlloyCache("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p),
        FatalError);
}

TEST(Alloy, TagStorePaysTwoBytesPerFilledSlot)
{
    // 1.3M consecutive lines fill 1.3M consecutive slots of a 1 GiB
    // cache: 2.5 MiB of 16-bit slot words, where a u64 line and a u8
    // state per slot took 11.2 MiB.
    Machine m(1ULL << 30);
    AlloyCacheParams p;
    AlloyCache org("alloy", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
    constexpr std::uint64_t lines = 1'300'000;
    const long before = test::residentKib();
    Tick t = 0;
    for (std::uint64_t line = 0; line < lines; ++line)
        t = org.access(line * cacheLineBytes, AccessType::Load, 0, t)
                .completionTick;
    EXPECT_LT(test::residentKib() - before, 3 * 1024);
    EXPECT_TRUE(org.access(0, AccessType::Load, 0, t).l3Hit);
    EXPECT_TRUE(
        org.access((lines - 1) * cacheLineBytes, AccessType::Load, 0, t)
            .l3Hit);
}

TEST(OrgFactory, ParsesAllKinds)
{
    EXPECT_EQ(orgKindFromString("nol3"), OrgKind::NoL3);
    EXPECT_EQ(orgKindFromString("bi"), OrgKind::BankInterleave);
    EXPECT_EQ(orgKindFromString("sram"), OrgKind::SramTag);
    EXPECT_EQ(orgKindFromString("ctlb"), OrgKind::Tagless);
    EXPECT_EQ(orgKindFromString("tagless"), OrgKind::Tagless);
    EXPECT_EQ(orgKindFromString("ideal"), OrgKind::Ideal);
    EXPECT_EQ(orgKindFromString("alloy"), OrgKind::Alloy);
    EXPECT_EQ(orgKindFromString("banshee"), OrgKind::Banshee);
    EXPECT_EQ(orgKindFromString("unison"), OrgKind::Unison);
}

TEST(OrgFactory, NameRoundTripsForEveryKind)
{
    // Property: both the CLI token and the report spelling parse back
    // to the same kind, for every organization in the golden matrix.
    for (OrgKind k : allOrgKinds()) {
        EXPECT_EQ(orgKindFromString(cliName(k)), k)
            << "cliName " << cliName(k);
        EXPECT_EQ(orgKindFromString(toString(k)), k)
            << "toString " << toString(k);
    }
}

TEST(OrgFactoryDeath, UnknownKind)
{
    EXPECT_EXIT(orgKindFromString("bogus"),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(OrgFactoryDeath, UnknownKindListsValidNames)
{
    // The error has to tell the user what the valid spellings are.
    EXPECT_EXIT(orgKindFromString("bogus"),
                ::testing::ExitedWithCode(1),
                "nol3.*bi.*sram.*ctlb.*ideal.*alloy.*banshee.*unison");
}

TEST(OrgFactory, BuildsEveryOrg)
{
    Machine m;
    Config cfg;
    cfg.set("l3.size_bytes", std::uint64_t{64} << 20);
    for (OrgKind k : allOrgKinds()) {
        auto org = makeDramCacheOrg(k, cfg, m.inPkg, m.offPkg, m.phys,
                                    m.cpuClk);
        ASSERT_NE(org, nullptr);
        EXPECT_EQ(toString(k), org->kind());
    }
}

TEST(OrgFactory, HonorsPolicyOverride)
{
    Machine m;
    Config cfg;
    cfg.set("l3.size_bytes", std::uint64_t{64} << 20);
    cfg.set("l3.policy", std::string("lru"));
    auto org = makeDramCacheOrg(OrgKind::Tagless, cfg, m.inPkg, m.offPkg,
                                m.phys, m.cpuClk);
    auto *tagless = dynamic_cast<TaglessCache *>(org.get());
    ASSERT_NE(tagless, nullptr);
    EXPECT_EQ(tagless->params().policy, ReplPolicy::LRU);
}
