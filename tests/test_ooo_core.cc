/** @file Tests for the trace-driven OoO core model. */

#include <gtest/gtest.h>

#include <deque>

#include "core/ooo_core.hh"
#include "dramcache/no_l3.hh"
#include "dramcache/tagless_cache.hh"
#include "test_util.hh"

using namespace tdc;
using tdc::test::Machine;

namespace {

/** Replays a fixed list of records, then loops it forever. */
class FixedTrace : public TraceSource
{
  public:
    explicit FixedTrace(std::vector<TraceRecord> recs)
        : recs_(std::move(recs))
    {}

    TraceRecord
    next() override
    {
        const TraceRecord r = recs_[pos_ % recs_.size()];
        ++pos_;
        return r;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<TraceRecord> recs_;
    std::size_t pos_ = 0;
};

struct CoreHarness
{
    Machine m{1ULL << 30};
    CoreParams params;
    std::unique_ptr<DramCacheOrg> org;
    std::unique_ptr<MemorySystem> ms;
    std::unique_ptr<FixedTrace> trace;
    std::unique_ptr<OooCore> core;

    void
    build(std::vector<TraceRecord> recs)
    {
        TaglessCacheParams p;
        p.cacheBytes = 1ULL << 30;
        org = std::make_unique<TaglessCache>(
            "ctlb", m.inPkg, m.offPkg, m.phys, m.cpuClk, p);
        org->setPageInvalidator(
            [](Addr, std::uint32_t, std::uint64_t) { return 0u; });
        ms = std::make_unique<MemorySystem>("mem", 0, params, m.cpuClk, m.pt,
                                            *org);
        trace = std::make_unique<FixedTrace>(std::move(recs));
        core = std::make_unique<OooCore>("core", 0, params, m.cpuClk, *trace,
                                         *ms);
    }

    TraceRecord
    rec(Addr va, std::uint32_t gap, bool dep = false, bool store = false)
    {
        TraceRecord r;
        r.vaddr = va;
        r.nonMemInsts = gap;
        r.dependent = dep;
        r.type = store ? AccessType::Store : AccessType::Load;
        return r;
    }
};

struct CoreTest : public ::testing::Test, public CoreHarness
{};

} // namespace

TEST_F(CoreTest, L1HitsRunAtIssueWidth)
{
    // One page, one line, big non-memory gaps: after the first touch
    // everything is an L1 hit and IPC approaches the issue width.
    build({rec(0x1000, 29)});
    core->runUntil(maxTick, 300'000);
    core->drain();
    EXPECT_NEAR(core->ipc(), params.issueWidth, 0.2);
}

TEST_F(CoreTest, InstsRetiredCountsGapPlusMemOp)
{
    build({rec(0x1000, 9)});
    core->runUntil(maxTick, 100);
    EXPECT_GE(core->instsRetired(), 100u);
    EXPECT_EQ(core->instsRetired() % 10, 0u);
    EXPECT_EQ(core->memRefs(), core->instsRetired() / 10);
}

TEST_F(CoreTest, DependentLoadsSerialize)
{
    // Same access pattern, once independent and once dependent.
    std::vector<TraceRecord> indep, dep;
    for (int i = 0; i < 64; ++i) {
        indep.push_back(rec(0x100000 + i * 4096, 3, false));
        dep.push_back(rec(0x100000 + i * 4096, 3, true));
    }
    build(indep);
    core->runUntil(maxTick, 50'000);
    core->drain();
    const double ipc_indep = core->ipc();

    CoreHarness other;
    other.build(dep);
    other.core->runUntil(maxTick, 50'000);
    other.core->drain();
    EXPECT_GT(ipc_indep, other.core->ipc() * 1.5)
        << "MLP must help independent misses";
}

TEST_F(CoreTest, MshrLimitBoundsOverlap)
{
    params.maxOutstanding = 1;
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 64; ++i)
        recs.push_back(rec(0x100000 + i * 4096, 3, false));
    build(recs);
    core->runUntil(maxTick, 50'000);
    core->drain();
    const double ipc_mshr1 = core->ipc();

    CoreHarness wide;
    wide.params.maxOutstanding = 16;
    std::vector<TraceRecord> recs2;
    for (int i = 0; i < 64; ++i)
        recs2.push_back(wide.rec(0x100000 + i * 4096, 3, false));
    wide.build(recs2);
    wide.core->runUntil(maxTick, 50'000);
    wide.core->drain();
    EXPECT_GT(wide.core->ipc(), ipc_mshr1 * 1.5);
}

TEST_F(CoreTest, RunUntilHorizonStops)
{
    build({rec(0x1000, 10)});
    core->runUntil(1'000'000, maxTick); // 1 us horizon
    EXPECT_GE(core->now(), 1'000'000u);
    EXPECT_LT(core->now(), 2'000'000u);
}

TEST_F(CoreTest, RunUntilInstLimitStops)
{
    build({rec(0x1000, 10)});
    core->runUntil(maxTick, 1000);
    EXPECT_GE(core->instsRetired(), 1000u);
    EXPECT_LE(core->instsRetired(), 1011u);
    EXPECT_TRUE(core->done(1000));
}

TEST_F(CoreTest, DrainWaitsForOutstanding)
{
    build({rec(0x100000, 0), rec(0x200000, 0)});
    core->runUntil(maxTick, 2);
    const Tick before = core->now();
    core->drain();
    EXPECT_GE(core->now(), before);
    core->drain(); // idempotent
}

TEST_F(CoreTest, CyclesAndIpcConsistent)
{
    build({rec(0x1000, 5)});
    core->runUntil(maxTick, 10'000);
    core->drain();
    EXPECT_NEAR(core->ipc(),
                static_cast<double>(core->instsRetired())
                    / core->cycles(),
                1e-9);
}
