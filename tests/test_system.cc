/**
 * @file
 * Integration tests: full-system runs across organizations and workload
 * classes, checking the paper's qualitative properties end to end.
 *
 * Runs use small instruction budgets to stay fast; shapes (ordering of
 * configurations) are stable at this scale even though magnitudes are
 * noisier than the bench harness's defaults.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "dramcache/tagless_cache.hh"
#include "sys/system.hh"

using namespace tdc;

namespace {

SystemConfig
quickConfig(OrgKind org, const std::vector<std::string> &w,
            std::uint64_t insts = 300'000)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = w;
    cfg.instsPerCore = insts;
    cfg.warmupInsts = insts;
    return cfg;
}

} // namespace

TEST(SystemIntegration, SingleProgramRunsOnOneCore)
{
    System sys(quickConfig(OrgKind::Tagless, {"libquantum"}));
    EXPECT_EQ(sys.activeCores(), 1u);
    const auto r = sys.run();
    EXPECT_GT(r.sumIpc, 0.0);
    EXPECT_GE(r.totalInsts, 300'000u);
}

TEST(SystemIntegration, MixRunsOnFourCores)
{
    System sys(quickConfig(OrgKind::Tagless,
                           {"milc", "leslie3d", "omnetpp", "sphinx3"},
                           120'000));
    EXPECT_EQ(sys.activeCores(), 4u);
    const auto r = sys.run();
    EXPECT_EQ(r.coreIpc.size(), 4u);
    for (double ipc : r.coreIpc)
        EXPECT_GT(ipc, 0.0);
}

TEST(SystemIntegration, MultithreadedSharesOnePageTable)
{
    System sys(quickConfig(OrgKind::Tagless, {"streamcluster"},
                           120'000));
    EXPECT_EQ(sys.activeCores(), 4u);
    EXPECT_EQ(&sys.pageTable(0), &sys.pageTable(0));
    const auto r = sys.run();
    EXPECT_GT(r.sumIpc, 0.0);
    // All threads map the same footprint: one process, no aliasing.
    EXPECT_EQ(sys.memSystem(0).pageTable().proc(),
              sys.memSystem(3).pageTable().proc());
}

TEST(SystemIntegration, TaglessGuaranteesInPackageHits)
{
    System sys(quickConfig(OrgKind::Tagless, {"libquantum"}));
    const auto r = sys.run();
    // Cacheable pages only: every post-L2 access serviced in-package.
    EXPECT_DOUBLE_EQ(r.l3HitRate, 1.0);
}

TEST(SystemIntegration, ConfigOrderingOnReuseHeavyWorkload)
{
    // The paper's headline ordering: NoL3 < SRAM-tag < cTLB <= Ideal.
    auto ipc = [](OrgKind k) {
        SystemConfig cfg =
            quickConfig(k, {"libquantum"}, 1'000'000);
        cfg.warmupInsts = 3'500'000; // one full footprint sweep
        System sys(cfg);
        return sys.run().sumIpc;
    };
    const double nol3 = ipc(OrgKind::NoL3);
    const double sram = ipc(OrgKind::SramTag);
    const double ctlb = ipc(OrgKind::Tagless);
    const double ideal = ipc(OrgKind::Ideal);
    EXPECT_GT(sram, nol3);
    EXPECT_GT(ctlb, sram);
    EXPECT_LE(ctlb, ideal * 1.001);
}

TEST(SystemIntegration, TaglessLatencyBelowSramTag)
{
    auto lat = [](OrgKind k) {
        SystemConfig cfg =
            quickConfig(k, {"libquantum"}, 1'000'000);
        cfg.warmupInsts = 3'500'000;
        System sys(cfg);
        return sys.run().avgL3LatencyCycles;
    };
    EXPECT_LT(lat(OrgKind::Tagless), lat(OrgKind::SramTag));
}

TEST(SystemIntegration, TaglessEdpBelowSramTag)
{
    auto edp = [](OrgKind k) {
        SystemConfig cfg =
            quickConfig(k, {"libquantum"}, 1'000'000);
        cfg.warmupInsts = 3'500'000;
        System sys(cfg);
        return sys.run().edp;
    };
    EXPECT_LT(edp(OrgKind::Tagless), edp(OrgKind::SramTag));
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const auto run = [] {
        System sys(quickConfig(OrgKind::Tagless, {"soplex"}, 200'000));
        return sys.run();
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.l3Accesses, b.l3Accesses);
    EXPECT_DOUBLE_EQ(a.sumIpc, b.sumIpc);
}

TEST(SystemIntegration, VictimHitsAppearBeyondTlbReach)
{
    // mcf's chase footprint (80MB) is far beyond the 2MB TLB reach but
    // fits in the cache: revisits must be in-package victim hits.
    System sys(quickConfig(OrgKind::Tagless, {"mcf"}, 400'000));
    const auto r = sys.run();
    EXPECT_GT(r.victimHits, 0u);
    EXPECT_DOUBLE_EQ(r.l3HitRate, 1.0);
}

TEST(SystemIntegration, BankInterleaveServicesMinorityInPackage)
{
    System sys(quickConfig(OrgKind::BankInterleave, {"milc"}, 200'000));
    const auto r = sys.run();
    EXPECT_GT(r.l3HitRate, 0.0);
    EXPECT_LT(r.l3HitRate, 0.5);
}

TEST(SystemIntegration, SmallerCacheNeverFaster)
{
    auto ipc = [](std::uint64_t mb) {
        SystemConfig cfg = quickConfig(
            OrgKind::Tagless, {"milc", "soplex", "lbm", "sphinx3"},
            150'000);
        cfg.l3SizeBytes = mb << 20;
        System sys(cfg);
        return sys.run().sumIpc;
    };
    // Footprints here exceed 32MB: a 512MB cache must not lose to it.
    EXPECT_GT(ipc(512), ipc(32) * 0.95);
}

TEST(SystemIntegration, StatsDumpContainsComponents)
{
    System sys(quickConfig(OrgKind::Tagless, {"zeusmp"}, 100'000));
    sys.run();
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("in_pkg"), std::string::npos);
    EXPECT_NE(out.find("l3_ctlb"), std::string::npos);
    EXPECT_NE(out.find("core0"), std::string::npos);
}

TEST(SystemIntegration, EnergyBreakdownPopulated)
{
    System sys(quickConfig(OrgKind::SramTag, {"sphinx3"}, 200'000));
    const auto r = sys.run();
    EXPECT_GT(r.energy.corePj, 0.0);
    EXPECT_GT(r.energy.onDiePj, 0.0);
    EXPECT_GT(r.energy.tagPj, 0.0) << "SRAM-tag must burn tag energy";
    EXPECT_GT(r.energy.inPkgPj, 0.0);
    EXPECT_GT(r.edp, 0.0);
}

TEST(SystemIntegration, TaglessSpendsNoTagEnergy)
{
    System sys(quickConfig(OrgKind::Tagless, {"sphinx3"}, 200'000));
    const auto r = sys.run();
    EXPECT_DOUBLE_EQ(r.energy.tagPj, 0.0);
}

TEST(SystemIntegration, NonCacheableHintsBypassTheCache)
{
    SystemConfig cfg = quickConfig(OrgKind::Tagless, {"GemsFDTD"},
                                   200'000);
    System sys(cfg);
    // Mark the whole singleton region non-cacheable via the generator's
    // oracle, as the Fig. 13 case study does.
    auto probe = makeGenerator(getWorkload("GemsFDTD"), 0);
    for (PageNum v = probe->singletonFirstVpn();
         v < probe->singletonFirstVpn() + 100'000; ++v)
        sys.pageTable(0).setNonCacheableHint(v);
    const auto r = sys.run();
    auto &tagless = dynamic_cast<TaglessCache &>(sys.org());
    EXPECT_GT(tagless.ncBypasses(), 0u);
    EXPECT_LT(r.l3HitRate, 1.0) << "NC accesses count as off-package";
}

namespace tdc {

// ctest names carry the printed parameters. Without this gtest prints
// an OrgKind as raw bytes; a const char * workload would print as its
// address, which ASLR changes on every test discovery.
void
PrintTo(OrgKind k, std::ostream *os)
{
    *os << toString(k);
}

} // namespace tdc

/** Every organization must complete every workload class. */
class SystemMatrix
    : public ::testing::TestWithParam<std::tuple<OrgKind, std::string>>
{};

TEST_P(SystemMatrix, RunsToCompletion)
{
    const auto [org, workload] = GetParam();
    System sys(quickConfig(org, {workload}, 60'000));
    const auto r = sys.run();
    EXPECT_GT(r.sumIpc, 0.0);
    EXPECT_GT(r.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OrgsTimesWorkloads, SystemMatrix,
    ::testing::Combine(
        ::testing::Values(OrgKind::NoL3, OrgKind::BankInterleave,
                          OrgKind::SramTag, OrgKind::Tagless,
                          OrgKind::Ideal, OrgKind::Alloy),
        ::testing::Values("libquantum", "mcf", "GemsFDTD",
                          "streamcluster", "swaptions")));
