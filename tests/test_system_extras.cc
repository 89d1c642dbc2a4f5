/**
 * @file
 * Additional end-to-end checks: the online filter and superpages
 * through the full System, cross-config conservation properties, and
 * the tagless eviction flush's core/line filter against a full flush.
 */

#include <gtest/gtest.h>

#include <bit>

#include "ckpt/checkpoint.hh"
#include "dramcache/tagless_cache.hh"
#include "sys/report.hh"
#include "sys/system.hh"
#include "trace/workloads.hh"

using namespace tdc;

namespace {

SystemConfig
quick(OrgKind org, const std::vector<std::string> &w,
      std::uint64_t insts = 200'000)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = w;
    cfg.instsPerCore = insts;
    cfg.warmupInsts = insts;
    return cfg;
}

/** Replaces the System's page invalidator with one that ignores the
 *  frame's masks: every core, all 64 lines. */
void
installFullFlush(System &sys)
{
    sys.org().setPageInvalidator(
        [&sys](Addr page, std::uint32_t, std::uint64_t) {
            std::uint64_t dirty = 0;
            for (unsigned i = 0; i < sys.activeCores(); ++i)
                dirty |= sys.memSystem(i).invalidatePage(
                    page, ~std::uint64_t{0});
            return static_cast<unsigned>(std::popcount(dirty));
        });
}

std::uint64_t
evictions(System &sys)
{
    return dynamic_cast<TaglessCache &>(sys.org()).evictions();
}

/** One measure leg's RunResult and stats tree, as JSON text. */
std::string
measured(System &sys)
{
    const RunResult r = sys.measure();
    return toJson(r).dump() + "\n" + sys.statsJson().dump();
}

/**
 * The masked flush must be invisible: straight and restored-from-warm
 * runs equal, byte for byte, the same runs with a full flush, and the
 * warm checkpoints are identical. The 4 MiB L3 turns its 1024 frames
 * over within each leg, so restored frames turn over too.
 */
void
expectMaskedFlushMatchesFullFlush(const std::vector<std::string> &w)
{
    SystemConfig cfg = quick(OrgKind::Tagless, w, 100'000);
    cfg.l3SizeBytes = 4ULL << 20;
    const std::uint64_t frames = cfg.l3SizeBytes / pageBytes;

    System masked(cfg);
    System full(cfg);
    installFullFlush(full);
    masked.warmup();
    full.warmup();
    ASSERT_GT(evictions(masked), frames);
    const ckpt::Checkpoint ck = masked.makeCheckpoint();
    EXPECT_EQ(ck.encode(), full.makeCheckpoint().encode());
    const std::uint64_t warm_evictions = evictions(masked);
    EXPECT_EQ(measured(masked), measured(full));
    EXPECT_GT(evictions(masked) - warm_evictions, frames);

    System rmasked(cfg);
    System rfull(cfg);
    installFullFlush(rfull);
    rmasked.restoreCheckpoint(ck);
    rfull.restoreCheckpoint(ck);
    EXPECT_EQ(measured(rmasked), measured(rfull));
}

} // namespace

TEST(SystemExtras, MaskedFlushMatchesFullFlushOnMix5)
{
    expectMaskedFlushMatchesFullFlush(
        {"mcf", "soplex", "GemsFDTD", "lbm"});
}

TEST(SystemExtras, MaskedFlushMatchesFullFlushOnSharedPageTable)
{
    // 4 threads on one page table: a frame's lines sit in several
    // cores' caches at once.
    expectMaskedFlushMatchesFullFlush({"streamcluster"});
}

TEST(SystemExtras, FilterReducesFillsOnSingletonHeavyWorkload)
{
    SystemConfig plain = quick(OrgKind::Tagless, {"GemsFDTD"});
    System sys_plain(plain);
    const RunResult r_plain = sys_plain.run();

    SystemConfig filtered = quick(OrgKind::Tagless, {"GemsFDTD"});
    filtered.raw.set("l3.filter", true);
    filtered.raw.set("l3.filter_threshold", std::uint64_t{2});
    System sys_filt(filtered);
    const RunResult r_filt = sys_filt.run();

    EXPECT_LT(r_filt.pageFills, r_plain.pageFills)
        << "the filter must screen out one-touch pages";
    auto &tagless = dynamic_cast<TaglessCache &>(sys_filt.org());
    EXPECT_GT(tagless.filterRejects(), 0u);
}

TEST(SystemExtras, FilterNeutralOnReuseHeavyWorkload)
{
    // With real reuse, every page crosses the threshold eventually:
    // the steady-state hit rate must stay at 100%.
    SystemConfig cfg = quick(OrgKind::Tagless, {"libquantum"}, 500'000);
    cfg.warmupInsts = 3'500'000;
    cfg.raw.set("l3.filter", true);
    System sys(cfg);
    const RunResult r = sys.run();
    EXPECT_GT(r.l3HitRate, 0.99);
}

TEST(SystemExtras, SuperpagesThroughFullSystem)
{
    SystemConfig cfg = quick(OrgKind::Tagless, {"libquantum"}, 400'000);
    System sys(cfg);
    auto probe = makeGenerator(getWorkload("libquantum"), 0);
    const PageNum first =
        alignUp(probe->footprintFirstVpn(), pagesPerSuperpage);
    sys.pageTable(0).installSuperpage(first);
    const RunResult r = sys.run();
    EXPECT_GT(r.sumIpc, 0.0);
    auto &tagless = dynamic_cast<TaglessCache &>(sys.org());
    EXPECT_EQ(tagless.pinnedFrames() % pagesPerSuperpage, 0u);
}

TEST(SystemExtras, TrafficConservation)
{
    // Under NoL3, off-package read traffic equals 64B per L3 read
    // access (posted stores add write traffic on top).
    SystemConfig cfg = quick(OrgKind::NoL3, {"sphinx3"});
    System sys(cfg);
    const RunResult r = sys.run();
    EXPECT_GE(r.offPkgBytes, r.l3Accesses * 0.5 * cacheLineBytes);
    EXPECT_EQ(r.inPkgBytes, 0u);
}

TEST(SystemExtras, IdealNeverTouchesOffPackageAfterWarmup)
{
    SystemConfig cfg = quick(OrgKind::Ideal, {"sphinx3"});
    System sys(cfg);
    const RunResult r = sys.run();
    EXPECT_EQ(r.offPkgBytes, 0u);
}

TEST(SystemExtras, EnergyScalesWithRuntime)
{
    // Double the measured window: energy roughly doubles (same phase).
    SystemConfig small = quick(OrgKind::Tagless, {"zeusmp"}, 200'000);
    small.warmupInsts = 400'000;
    SystemConfig big = quick(OrgKind::Tagless, {"zeusmp"}, 400'000);
    big.warmupInsts = 400'000;
    System a(small), b(big);
    const double ea = a.run().energy.totalPj();
    const double eb = b.run().energy.totalPj();
    // The windows are not phase-identical (cold-fill share differs),
    // so allow a generous band around the 2x ideal.
    EXPECT_GT(eb / ea, 1.4);
    EXPECT_LT(eb / ea, 2.6);
}

TEST(SystemExtras, MixesAllocateDisjointPhysicalPages)
{
    SystemConfig cfg = quick(OrgKind::Tagless,
                             {"milc", "leslie3d", "omnetpp", "sphinx3"},
                             100'000);
    System sys(cfg);
    sys.run();
    // Distinct processes must never share physical frames: the bump
    // allocator guarantees it; verify via region accounting.
    std::uint64_t mapped = 0;
    for (unsigned p = 0; p < 4; ++p)
        mapped += sys.pageTable(p).size();
    EXPECT_GT(mapped, 0u);
    // Every allocation is unique by construction; allocated >= mapped
    // (superpages or GIPT reservations could add more).
    EXPECT_GE(sys.config().offPkgBytes / pageBytes, mapped);
}
