/**
 * @file
 * Tests for the invariant auditor (DESIGN.md 9): arming, per-event
 * timing checks, the full structural sweep over hand-built state, the
 * armed-equals-detached guarantee at system level, and re-validation
 * after a checkpoint restore.
 */

#include <gtest/gtest.h>

#include "check/invariant_auditor.hh"
#include "common/logging.hh"
#include "dramcache/tagless_cache.hh"
#include "sys/system.hh"
#include "test_util.hh"
#include "vm/tlb.hh"

using namespace tdc;
using check::AuditConfig;
using check::InvariantAuditor;
using tdc::test::Machine;

namespace {

/** Runs `fn` expecting it to report an invariant violation. */
template <typename Fn>
std::string
captureViolation(Fn fn)
{
    ScopedFatalCapture capture;
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return {};
}

/**
 * A miniature single-core tagless machine: the cache, one cTLB wired
 * to it as residence listener exactly as MemorySystem wires it, and an
 * auditor pointed at all of it.
 */
struct CheckTest : public ::testing::Test
{
    Machine m;
    std::unique_ptr<TaglessCache> cache;
    std::unique_ptr<Tlb> tlb;
    std::unique_ptr<InvariantAuditor> auditor;

    void
    build(std::uint64_t frames = 64, std::uint64_t interval = 1)
    {
        TaglessCacheParams p;
        p.cacheBytes = frames * pageBytes;
        cache = std::make_unique<TaglessCache>(
            "ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
        tlb = std::make_unique<Tlb>("tlb", 32);
        tlb->setResidenceListener(cache.get(), 0);

        AuditConfig cfg;
        cfg.enabled = true;
        cfg.sweepInterval = interval;
        auditor = std::make_unique<InvariantAuditor>(cfg);
        auditor->setTagless(cache.get());
        auditor->addTlb(tlb.get(), 0, &m.pt);
        auditor->addPageTable(&m.pt);
        auditor->observePageFill(cache->fillProbe);
        auditor->observeEviction(cache->evictProbe);
        auditor->observeVictimHit(cache->victimHitProbe);
        auditor->observeFreeQueue(cache->freeQueueProbe);
        auditor->observeGipt(cache->giptProbe);
    }

    /** One full TLB miss: handler runs, translation installed. */
    TlbMissResult
    miss(PageNum vpn, Tick when)
    {
        const TlbMissResult r =
            cache->handleTlbMiss(m.pt, vpn, 0, when);
        tlb->insert(r.entry);
        return r;
    }
};

} // namespace

TEST(AuditConfigTest, DefaultsOffAndClampsInterval)
{
    Config cfg;
    EXPECT_FALSE(AuditConfig::fromConfig(cfg).enabled);

    cfg.set("check.audit", true);
    cfg.set("check.interval", std::uint64_t{0});
    const AuditConfig ac = AuditConfig::fromConfig(cfg);
    EXPECT_TRUE(ac.enabled);
    EXPECT_EQ(ac.sweepInterval, 1u) << "interval 0 clamps to 1";
}

TEST(AuditorTimingTest, AcceptsMonotonicAndRejectsBackwardPhases)
{
    obs::ProbePoint<obs::TlbMissEvent> probe{"tlb_miss"};
    InvariantAuditor aud(AuditConfig{.enabled = true});
    aud.observeTlbMiss(probe);
    ASSERT_TRUE(probe.attached());

    probe.fire(obs::TlbMissEvent{
        .start = 100, .walkDone = 200, .end = 300});
    EXPECT_GT(aud.eventChecks(), 0u);

    const std::string err = captureViolation([&] {
        probe.fire(obs::TlbMissEvent{
            .start = 300, .walkDone = 200, .end = 400});
    });
    EXPECT_NE(err.find("invariant violation"), std::string::npos)
        << err;
}

TEST(AuditorTimingTest, RejectsVictimHitMarkedAsColdFill)
{
    obs::ProbePoint<obs::TlbMissEvent> probe{"tlb_miss"};
    InvariantAuditor aud(AuditConfig{.enabled = true});
    aud.observeTlbMiss(probe);

    const std::string err = captureViolation([&] {
        probe.fire(obs::TlbMissEvent{.start = 0, .walkDone = 1,
                                     .end = 2, .victimHit = true,
                                     .coldFill = true});
    });
    EXPECT_NE(err.find("invariant violation"), std::string::npos)
        << err;
}

TEST(AuditorTimingTest, RejectsDramCompletionBeforeIssue)
{
    obs::ProbePoint<obs::DramAccessEvent> probe{"dram"};
    InvariantAuditor aud(AuditConfig{.enabled = true});
    aud.observeDram(probe);

    const std::string err = captureViolation([&] {
        probe.fire(obs::DramAccessEvent{.bytes = 64, .start = 500,
                                        .completion = 400});
    });
    EXPECT_NE(err.find("invariant violation"), std::string::npos)
        << err;
}

TEST(AuditorTimingTest, DetachesFromProbesOnDestruction)
{
    obs::ProbePoint<obs::TlbMissEvent> probe{"tlb_miss"};
    {
        InvariantAuditor aud(AuditConfig{.enabled = true});
        aud.observeTlbMiss(probe);
        EXPECT_TRUE(probe.attached());
    }
    EXPECT_FALSE(probe.attached());
}

TEST_F(CheckTest, CleanMachineSweepsClean)
{
    build();
    Tick t = 0;
    for (PageNum v = 0; v < 16; ++v)
        t = miss(v, t).readyTick;
    auditor->verifyAll();
    EXPECT_GT(auditor->sweeps(), 0u);
    EXPECT_GT(auditor->eventChecks(), 0u);
}

TEST_F(CheckTest, SweepsSurviveEvictionsAndTlbTurnover)
{
    // Overflow both the 32-entry TLB and the 48-usable-frame cache
    // (interval 1: every fill/eviction firing runs a full sweep), so
    // residence tracking and free-queue coherence are checked under
    // turnover, not just in the steady state.
    build(/*frames=*/64, /*interval=*/1);
    Tick t = 0;
    for (PageNum v = 0; v < 200; ++v)
        t = miss(v, t).readyTick;
    auditor->verifyAll();
    EXPECT_GT(auditor->sweeps(), 200u);
}

TEST_F(CheckTest, DetectsTlbEntryForUnmappedFrame)
{
    build();
    miss(0, 0);
    // Hand-install a translation naming a frame the GIPT never mapped.
    // Bypass the residence listener: this models a stale TLB entry,
    // not a tracked insert.
    tlb->setResidenceListener(nullptr, 0);
    tlb->insert(TlbEntry{.key = makeAsidVpn(0, 99), .frame = 7});

    const std::string err =
        captureViolation([&] { auditor->verifyAll(); });
    EXPECT_NE(err.find("invariant violation"), std::string::npos)
        << err;
}

TEST_F(CheckTest, DetectsResidenceUndercount)
{
    build();
    const TlbMissResult r = miss(0, 0);
    // Drop the entry behind the residence listener's back: the GIPT
    // still counts it resident, the TLB no longer holds it.
    tlb->setResidenceListener(nullptr, 0);
    tlb->invalidate(r.entry.key);

    const std::string err =
        captureViolation([&] { auditor->verifyAll(); });
    EXPECT_NE(err.find("invariant violation"), std::string::npos)
        << err;
}

TEST_F(CheckTest, DetectsStaleNcEntryForCachedPage)
{
    build();
    const TlbMissResult r = miss(0, 0);
    ASSERT_FALSE(r.entry.nc);
    // A physical-mapping entry for a page that is in-package routes
    // its accesses off-package: exactly the staleness the filter
    // promotion path must shoot down.
    tlb->setResidenceListener(nullptr, 0);
    const Pte *pte = m.pt.find(0);
    ASSERT_NE(pte, nullptr);
    tlb->insert(TlbEntry{.key = makeAsidVpn(0, 0),
                         .frame = cache->gipt().at(pte->frame).ppn,
                         .nc = true});

    const std::string err =
        captureViolation([&] { auditor->verifyAll(); });
    EXPECT_NE(err.find("invariant violation"), std::string::npos)
        << err;
}

TEST(CheckSystemTest, ArmedRunMatchesDetachedRun)
{
    SystemConfig cfg = makeSystemConfig(
        OrgKind::Tagless, {"libquantum"}, /*l3_size=*/8ULL << 20);
    cfg.instsPerCore = 30'000;
    cfg.warmupInsts = 10'000;

    // Explicitly off: the key's presence makes the run detached even
    // under TDC_AUDIT=1 in the environment (armed CI re-runs).
    cfg.raw.set("check.audit", false);
    System detached(cfg);
    const RunResult a = detached.run();
    EXPECT_EQ(detached.auditor(), nullptr);

    cfg.raw.set("check.audit", true);
    cfg.raw.set("check.interval", std::uint64_t{16});
    System armed(cfg);
    const RunResult b = armed.run();
    ASSERT_NE(armed.auditor(), nullptr);
    EXPECT_GT(armed.auditor()->eventChecks(), 0u);
    EXPECT_GT(armed.auditor()->sweeps(), 0u);

    // The auditor observes; it must not perturb the simulation.
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l3Accesses, b.l3Accesses);
    EXPECT_EQ(a.victimHits, b.victimHits);
    EXPECT_EQ(a.coldFills, b.coldFills);
    EXPECT_EQ(a.pageWritebacks, b.pageWritebacks);
    EXPECT_EQ(a.inPkgBytes, b.inPkgBytes);
    EXPECT_EQ(a.offPkgBytes, b.offPkgBytes);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
}

TEST(CheckSystemTest, FlushThatLeavesACopyBehindIsReported)
{
    // Test the test: the same armed run passes with the System's own
    // page invalidator, and fails once the hook flushes nothing.
    SystemConfig cfg = makeSystemConfig(OrgKind::Tagless, {"mcf"},
                                        /*l3_size=*/1ULL << 20);
    cfg.instsPerCore = 30'000;
    cfg.warmupInsts = 10'000;
    cfg.raw.set("check.audit", true);

    {
        System sys(cfg);
        EXPECT_EQ(captureViolation([&] { sys.run(); }), "");
        EXPECT_GT(dynamic_cast<TaglessCache &>(sys.org()).evictions(),
                  0u);
    }

    System sys(cfg);
    sys.org().setPageInvalidator(
        [](Addr, std::uint32_t, std::uint64_t) { return 0u; });
    const std::string msg = captureViolation([&] { sys.run(); });
    EXPECT_NE(msg.find("[flush completeness]"), std::string::npos)
        << msg;
}

TEST(CheckSystemTest, ArmedRestoreRevalidatesAndMatchesStraightRun)
{
    SystemConfig cfg = makeSystemConfig(
        OrgKind::Tagless, {"libquantum"}, /*l3_size=*/8ULL << 20);
    cfg.instsPerCore = 30'000;
    cfg.warmupInsts = 10'000;
    cfg.raw.set("check.audit", true);

    System straight(cfg);
    straight.warmup();
    const ckpt::Checkpoint ck = straight.makeCheckpoint();
    const RunResult a = straight.measure();

    System restored(cfg);
    restored.restoreCheckpoint(ck);
    ASSERT_NE(restored.auditor(), nullptr);
    EXPECT_GT(restored.auditor()->sweeps(), 0u)
        << "restore must run a full validation sweep";
    const RunResult b = restored.measure();

    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l3Accesses, b.l3Accesses);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
}
