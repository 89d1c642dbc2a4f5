/**
 * @file
 * Tests for the observability subsystem: probe attach/detach semantics,
 * stat snapshots/deltas and the opt-in JSON extras, the Chrome-trace
 * writer (filtering, ring bound, byte-determinism), the interval
 * sampler (row exactness, bounded summary), end-to-end System runs
 * whose trace/time-series files must be byte-identical across repeated
 * runs and across sweep worker counts, and the strict CLI option
 * vocabulary (Config::checkKnown).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/events.hh"
#include "obs/interval_sampler.hh"
#include "obs/probe.hh"
#include "obs/trace_writer.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "sys/report.hh"
#include "sys/system.hh"

using namespace tdc;

namespace {

std::string
tmpPath(const std::string &leaf)
{
    return testing::TempDir() + "tdc_obs_" + leaf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

// ---------------------------------------------------------------------
// ProbePoint / ProbeListener
// ---------------------------------------------------------------------

namespace {

struct CountingListener : obs::ProbeListener<obs::FreeQueueEvent>
{
    unsigned calls = 0;
    obs::FreeQueueEvent last{};

    void
    notify(const obs::FreeQueueEvent &event) override
    {
        ++calls;
        last = event;
    }
};

} // namespace

TEST(Probe, UnattachedFireIsANoOp)
{
    obs::ProbePoint<obs::FreeQueueEvent> p("freeq");
    EXPECT_FALSE(p.attached());
    EXPECT_EQ(p.listenerCount(), 0u);
    p.fire(obs::FreeQueueEvent{});        // must not crash
    EXPECT_EQ(p.name(), "freeq");
}

TEST(Probe, AttachedListenerReceivesPayload)
{
    obs::ProbePoint<obs::FreeQueueEvent> p("freeq");
    CountingListener l;
    p.attach(&l);
    EXPECT_TRUE(p.attached());
    EXPECT_EQ(p.listenerCount(), 1u);

    obs::FreeQueueEvent e;
    e.tick = 42;
    e.depth = 7;
    e.push = true;
    p.fire(e);
    EXPECT_EQ(l.calls, 1u);
    EXPECT_EQ(l.last.tick, 42u);
    EXPECT_EQ(l.last.depth, 7u);
    EXPECT_TRUE(l.last.push);
}

TEST(Probe, DetachStopsDeliveryAndIsIdempotent)
{
    obs::ProbePoint<obs::FreeQueueEvent> p;
    CountingListener a, b;
    p.attach(&a);
    p.attach(&b);
    p.fire(obs::FreeQueueEvent{});
    p.detach(&a);
    p.detach(&a);                         // second detach: no-op
    p.fire(obs::FreeQueueEvent{});
    EXPECT_EQ(a.calls, 1u);
    EXPECT_EQ(b.calls, 2u);
    EXPECT_EQ(p.listenerCount(), 1u);
}

TEST(Probe, FnListenerAdapts)
{
    obs::ProbePoint<obs::GiptEvent> p;
    unsigned installs = 0;
    auto fn = [&installs](const obs::GiptEvent &e) {
        if (e.kind == obs::GiptEvent::Kind::Install)
            ++installs;
    };
    obs::FnListener<obs::GiptEvent, decltype(fn)> l(fn);
    p.attach(&l);
    p.fire(obs::GiptEvent{obs::GiptEvent::Kind::Install, 1, 2, 3});
    p.fire(obs::GiptEvent{obs::GiptEvent::Kind::Invalidate, 1, 2, 4});
    EXPECT_EQ(installs, 1u);
}

TEST(Probe, AttachmentsDetachEverythingOnDestruction)
{
    obs::ProbePoint<obs::FreeQueueEvent> freeq;
    obs::ProbePoint<obs::GiptEvent> gipt;
    CountingListener borrowed;
    unsigned bridged = 0;
    {
        obs::ProbeAttachments owner;
        owner.attach(freeq, &borrowed);
        owner.bridge(freeq, [&bridged](const obs::FreeQueueEvent &) {
            ++bridged;
        });
        owner.bridge(gipt, [&bridged](const obs::GiptEvent &) {
            ++bridged;
        });
        EXPECT_EQ(freeq.listenerCount(), 2u);
        freeq.fire(obs::FreeQueueEvent{});
        gipt.fire(obs::GiptEvent{});
    }
    EXPECT_FALSE(freeq.attached());
    EXPECT_FALSE(gipt.attached());
    freeq.fire(obs::FreeQueueEvent{});
    gipt.fire(obs::GiptEvent{});
    EXPECT_EQ(borrowed.calls, 1u);
    EXPECT_EQ(bridged, 2u);
}

// ---------------------------------------------------------------------
// StatSnapshot / delta, Histogram percentiles, Average extremes
// ---------------------------------------------------------------------

TEST(StatSnapshot, DeltaSubtractsPerCounterInPreorder)
{
    stats::Scalar a, b, c;
    stats::StatGroup root("root");
    stats::StatGroup child("child");
    root.addScalar("a", &a);
    root.addChild(&child);
    child.addScalar("b", &b);
    child.addScalar("c", &c);

    std::vector<std::string> paths;
    root.scalarPaths(paths, "x.");
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0], "x.a");
    EXPECT_EQ(paths[1], "x.child.b");
    EXPECT_EQ(paths[2], "x.child.c");

    const auto base = root.snapshot();
    a += 5;
    b += 2;
    ++c;
    const auto now = root.snapshot();
    const auto d = stats::StatSnapshot::delta(now, base);
    ASSERT_EQ(d.size(), 3u);
    EXPECT_EQ(d[0], 5u);
    EXPECT_EQ(d[1], 2u);
    EXPECT_EQ(d[2], 1u);
}

TEST(Average, TracksExtremes)
{
    stats::Average avg;
    EXPECT_EQ(avg.minimum(), 0.0);        // defined pre-sample value
    EXPECT_EQ(avg.maximum(), 0.0);
    avg.sample(3.0);
    avg.sample(-1.0);
    avg.sample(10.0);
    EXPECT_DOUBLE_EQ(avg.minimum(), -1.0);
    EXPECT_DOUBLE_EQ(avg.maximum(), 10.0);
    avg.reset();
    EXPECT_EQ(avg.minimum(), 0.0);
    EXPECT_EQ(avg.maximum(), 0.0);
}

TEST(Histogram, PercentileFromBuckets)
{
    stats::Histogram h(10.0, 10);         // buckets [0,10), [10,20), ...
    EXPECT_EQ(h.percentile(50.0), 0.0);   // no samples yet
    for (int i = 0; i < 90; ++i)
        h.sample(5.0);                    // bucket 0
    for (int i = 0; i < 10; ++i)
        h.sample(95.0);                   // bucket 9
    // p50 falls in the first bucket; the estimate is its upper edge,
    // clamped below by nothing but above by the observed max.
    EXPECT_LE(h.percentile(50.0), 10.0);
    EXPECT_GT(h.percentile(50.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 95.0); // clamped to max
    // p=0 resolves to the first non-empty bucket's upper edge,
    // bounded by the observed extremes.
    EXPECT_GE(h.percentile(0.0), h.minimum());
    EXPECT_LE(h.percentile(0.0), 10.0);
}

TEST(Histogram, PercentileResolvesOverflowToMax)
{
    stats::Histogram h(1.0, 4);           // overflow catches >= 4
    h.sample(1000.0);
    h.sample(2000.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.0), 2000.0);
}

TEST(StatsJson, DefaultOptionsPreserveHistoricalBytes)
{
    stats::Scalar s;
    s += 3;
    stats::Average avg;
    avg.sample(2.0);
    stats::Histogram h(1.0, 4);
    h.sample(1.5);
    stats::StatGroup g("g");
    g.addScalar("s", &s, "a described scalar");
    g.addAverage("avg", &avg, "a described average");
    g.addHistogram("h", &h);

    const std::string plain = g.toJson().dump();
    EXPECT_EQ(plain, g.toJson(stats::JsonOptions{}).dump());
    EXPECT_EQ(plain.find("desc"), std::string::npos);
    EXPECT_EQ(plain.find("p95"), std::string::npos);
    EXPECT_EQ(plain.find("min"), std::string::npos);

    stats::JsonOptions full;
    full.desc = true;
    full.extremes = true;
    const std::string rich = g.toJson(full).dump();
    EXPECT_NE(rich.find("a described scalar"), std::string::npos);
    EXPECT_NE(rich.find("p95"), std::string::npos);
    EXPECT_NE(rich.find("min"), std::string::npos);
}

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

TEST(TraceWriter, FiltersCategoriesAtEmission)
{
    obs::TraceWriterConfig cfg;
    cfg.path = tmpPath("filter.json");
    cfg.categories = "ctlb,dram";
    obs::TraceWriter w(std::move(cfg));
    EXPECT_TRUE(w.enabled("ctlb"));
    EXPECT_TRUE(w.enabled("dram"));
    EXPECT_FALSE(w.enabled("cache"));

    w.complete("ctlb", "tlb_miss", 0, 100, 200);
    EXPECT_EQ(w.eventCount(), 1u);
    w.finish();
    std::remove(w.path().c_str());
}

TEST(TraceWriter, RingDropsOldestAndCountsThem)
{
    obs::TraceWriterConfig cfg;
    cfg.path = tmpPath("ring.json");
    cfg.ringCapacity = 4;
    obs::TraceWriter w(std::move(cfg));
    for (Tick t = 0; t < 10; ++t)
        w.instant("core", "e", 0, t * 1000);
    EXPECT_EQ(w.eventCount(), 4u);
    EXPECT_EQ(w.droppedEvents(), 6u);
    w.finish();

    const auto doc = json::Value::parse(slurp(w.path()));
    ASSERT_TRUE(doc.has_value());
    const json::Value *dropped =
        doc->findPath("otherData.dropped_events");
    ASSERT_NE(dropped, nullptr);
    EXPECT_EQ(dropped->asUint(), 6u);
    std::remove(w.path().c_str());
}

TEST(TraceWriter, WritesParseableChromeTraceWithExactTimestamps)
{
    obs::TraceWriterConfig cfg;
    cfg.path = tmpPath("chrome.json");
    obs::TraceWriter w(std::move(cfg));
    w.setTrackName(0, "core0");
    // 1234567 ps = 1.234567 us; 1000000 ps = exactly 1 us.
    w.complete("ctlb", "tlb_miss", 0, 1'000'000, 2'000'000,
               {{"vpn", 77}});
    w.instant("gipt", "gipt_install", 201, 1'234'567);
    w.counter("freeq", "free_queue_depth", 3'000'000, 12);
    w.finish();

    const std::string text = slurp(w.path());
    const auto doc = json::Value::parse(text);
    ASSERT_TRUE(doc.has_value());
    const json::Value *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // 1 metadata (track name) + 3 events.
    EXPECT_EQ(events->items().size(), 4u);
    EXPECT_NE(text.find("\"ts\":1.234567"), std::string::npos);
    EXPECT_NE(text.find("\"ts\":1,"), std::string::npos);
    EXPECT_NE(text.find("\"vpn\":77"), std::string::npos);
    EXPECT_NE(text.find("core0"), std::string::npos);
    std::remove(w.path().c_str());
}

// ---------------------------------------------------------------------
// IntervalSampler
// ---------------------------------------------------------------------

TEST(IntervalSampler, EmitsOneRowPerIntervalAndNoPartialTail)
{
    stats::Scalar hits;
    stats::StatGroup g("g");
    g.addScalar("hits", &hits);

    obs::IntervalSamplerConfig cfg;
    cfg.intervalInsts = 100;
    cfg.path = tmpPath("rows.jsonl");
    obs::IntervalSampler s(std::move(cfg));
    s.addGroup("g.", &g);
    s.addGauge("depth", [] { return std::uint64_t{9}; });
    s.start();

    hits += 3;
    s.notify(obs::RetireEvent{0, 100, 1000});   // row 0
    hits += 4;
    s.notify(obs::RetireEvent{0, 250, 2000});   // row 1 (crosses 200)
    hits += 5;
    s.notify(obs::RetireEvent{0, 299, 3000});   // no boundary crossed
    s.finish();
    EXPECT_EQ(s.rowsWritten(), 2u);

    std::ifstream in(tmpPath("rows.jsonl"));
    std::string header, row0, row1, extra;
    EXPECT_TRUE(std::getline(in, header));
    EXPECT_TRUE(std::getline(in, row0));
    EXPECT_TRUE(std::getline(in, row1));
    EXPECT_FALSE(std::getline(in, extra)); // no partial tail row

    EXPECT_NE(header.find("tdc-timeseries-v1"), std::string::npos);
    EXPECT_NE(header.find("\"g.hits\""), std::string::npos);
    EXPECT_NE(header.find("\"depth\""), std::string::npos);
    EXPECT_EQ(row0,
              "{\"n\":0,\"insts\":100,\"tick\":1000,"
              "\"delta\":[3],\"gauge\":[9]}");
    EXPECT_EQ(row1,
              "{\"n\":1,\"insts\":250,\"tick\":2000,"
              "\"delta\":[4],\"gauge\":[9]}");
    std::remove(tmpPath("rows.jsonl").c_str());
}

TEST(IntervalSampler, SummaryStaysBoundedByDecimation)
{
    stats::Scalar ctr;
    stats::StatGroup g("g");
    g.addScalar("ctr", &ctr);

    obs::IntervalSamplerConfig cfg;
    cfg.intervalInsts = 10;
    cfg.summaryMax = 8;                   // no file: summary-only mode
    obs::IntervalSampler s(std::move(cfg));
    s.addGroup("g.", &g);
    s.start();
    for (std::uint64_t n = 1; n <= 1000; ++n) {
        ++ctr;
        s.notify(obs::RetireEvent{0, n * 10, n * 100});
    }
    s.finish();
    EXPECT_EQ(s.rowsWritten(), 1000u);

    const auto summary = s.summaryJson();
    const json::Value *samples = summary.find("samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_LE(samples->items().size(), 8u);
    EXPECT_GE(samples->items().size(), 4u);
    // Rows kept are evenly strided, starting at row 0.
    EXPECT_EQ(samples->items()[0].find("n")->asUint(), 0u);
}

// ---------------------------------------------------------------------
// Config::checkKnown (the strict CLI vocabulary)
// ---------------------------------------------------------------------

TEST(ConfigCheckKnown, AcceptsKnownAndDottedRejectsTypos)
{
    ScopedFatalCapture capture;
    Config c;
    c.set("warmup", std::uint64_t{5});
    c.set("l3.alpha", std::uint64_t{2}); // registered dotted key
    c.set("obs.trace_out", "t.json");    // registered dotted key
    c.set("check.audit", true);          // registered dotted key
    EXPECT_NO_THROW(c.checkKnown({"warmup", "insts"}, "test"));

    c.set("wramup", std::uint64_t{5});
    try {
        c.checkKnown({"warmup", "insts"}, "test");
        FAIL() << "typo key must be fatal";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("wramup"), std::string::npos);
        EXPECT_NE(msg.find("warmup, insts"), std::string::npos);
    }
}

// Regression: dotted keys used to bypass checkKnown entirely, so a
// typo'd component override ("obs.trce_out" for "obs.trace_out") was
// silently ignored and the run proceeded without the requested trace.
TEST(ConfigCheckKnown, RejectsTypodDottedKeys)
{
    ScopedFatalCapture capture;
    Config c;
    c.set("obs.trce_out", "t.json");
    try {
        c.checkKnown({"warmup", "insts"}, "test");
        FAIL() << "typo'd dotted key must be fatal";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("obs.trce_out"), std::string::npos);
        // The message lists the registered vocabulary.
        EXPECT_NE(msg.find("obs.trace_out"), std::string::npos);
    }

    EXPECT_TRUE(isKnownDottedKey("l3.policy"));
    EXPECT_TRUE(isKnownDottedKey("check.interval"));
    EXPECT_FALSE(isKnownDottedKey("l3.sixe_mb"));
    EXPECT_FALSE(isKnownDottedKey("l3."));
    EXPECT_FALSE(isKnownDottedKey(""));
}

// ---------------------------------------------------------------------
// End-to-end: a System run with observability on
// ---------------------------------------------------------------------

namespace {

SystemConfig
obsSystemConfig(const std::string &trace, const std::string &series)
{
    SystemConfig cfg = makeSystemConfig(OrgKind::Tagless,
                                        {"libquantum"}, 64ULL << 20);
    cfg.instsPerCore = 60'000;
    cfg.warmupInsts = 10'000;
    cfg.raw.set("obs.trace_out", trace);
    cfg.raw.set("obs.stats_interval", std::uint64_t{10'000});
    cfg.raw.set("obs.timeseries", series);
    return cfg;
}

} // namespace

TEST(ObservabilityE2E, TraceGoldenSmoke)
{
    const std::string t1 = tmpPath("e2e1.trace.json");
    const std::string t2 = tmpPath("e2e2.trace.json");
    const std::string s1 = tmpPath("e2e1.jsonl");
    const std::string s2 = tmpPath("e2e2.jsonl");

    std::uint64_t events1 = 0, events2 = 0;
    {
        System sys(obsSystemConfig(t1, s1));
        ASSERT_NE(sys.observability(), nullptr);
        sys.run();
        events1 = sys.observability()->traceEventCount();
    }
    {
        System sys(obsSystemConfig(t2, s2));
        sys.run();
        events2 = sys.observability()->traceEventCount();
    }
    EXPECT_GT(events1, 0u);
    EXPECT_EQ(events1, events2);

    // Identical configuration => byte-identical artifacts.
    const std::string trace = slurp(t1);
    EXPECT_EQ(trace, slurp(t2));
    EXPECT_EQ(slurp(s1), slurp(s2));

    // The trace parses and decomposes the cTLB miss path.
    const auto doc = json::Value::parse(trace);
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("traceEvents"), nullptr);
    EXPECT_NE(trace.find("\"page_walk\""), std::string::npos);
    EXPECT_NE(trace.find("\"page_copy\""), std::string::npos);
    EXPECT_NE(trace.find("\"pte_update\""), std::string::npos);
    EXPECT_NE(trace.find("\"free_queue_depth\""), std::string::npos);

    for (const auto &p : {t1, t2, s1, s2})
        std::remove(p.c_str());
}

TEST(ObservabilityE2E, ReportEmbedsTimeseriesSummary)
{
    const std::string series = tmpPath("report.jsonl");
    SystemConfig cfg = obsSystemConfig("", series);
    System sys(cfg);
    const RunResult r = sys.run();
    const auto report = makeRunReport(cfg, r, &sys);
    const json::Value *ts = report.find("timeseries");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->findPath("schema")->asString(), "tdc-timeseries-v1");
    EXPECT_GT(ts->findPath("rows")->asUint(), 0u);
    EXPECT_GT(ts->findPath("samples")->items().size(), 0u);
    std::remove(series.c_str());
}

TEST(ObservabilityE2E, ObservabilityOffLeavesReportUntouched)
{
    SystemConfig cfg = makeSystemConfig(OrgKind::Tagless,
                                        {"libquantum"}, 64ULL << 20);
    cfg.instsPerCore = 30'000;
    cfg.warmupInsts = 5'000;
    System sys(cfg);
    EXPECT_EQ(sys.observability(), nullptr);
    const RunResult r = sys.run();
    const auto report = makeRunReport(cfg, r, &sys);
    EXPECT_EQ(report.find("timeseries"), nullptr);
}

// ---------------------------------------------------------------------
// Sweep integration: per-job artifacts, identical at any worker count
// ---------------------------------------------------------------------

TEST(ObservabilitySweep, TimeseriesIdenticalAcrossWorkerCounts)
{
    using namespace tdc::runner;

    auto makeManifest = [](const std::string &dir) {
        SweepManifest m;
        m.name = "obs";
        for (const char *wl : {"libquantum", "milc"}) {
            JobSpec job;
            job.org = OrgKind::Tagless;
            job.workloads = {wl};
            job.label = std::string("ctlb/") + wl;
            job.l3SizeBytes = 64ULL << 20;
            job.instsPerCore = 40'000;
            job.warmupInsts = 10'000;
            job.raw.set("obs.stats_interval", std::uint64_t{10'000});
            job.raw.set("obs.timeseries", dir + "{label}.jsonl");
            m.jobs.push_back(std::move(job));
        }
        return m;
    };

    const std::string d1 = tmpPath("j1_");
    const std::string d8 = tmpPath("j8_");
    SweepOptions o1;
    o1.jobs = 1;
    o1.progress = false;
    SweepOptions o8;
    o8.jobs = 8;
    o8.progress = false;
    const auto r1 = SweepRunner(o1).run(makeManifest(d1));
    const auto r8 = SweepRunner(o8).run(makeManifest(d8));
    for (const auto &r : r1)
        ASSERT_EQ(r.status, JobResult::Status::Ok) << r.error;
    for (const auto &r : r8)
        ASSERT_EQ(r.status, JobResult::Status::Ok) << r.error;

    // The "{label}" placeholder expanded with '/' sanitized to '_',
    // and each job's JSONL is byte-identical at -j1 and -j8.
    for (const char *leaf : {"ctlb_libquantum.jsonl", "ctlb_milc.jsonl"}) {
        const std::string serial = slurp(d1 + leaf);
        EXPECT_FALSE(serial.empty());
        EXPECT_EQ(serial, slurp(d8 + leaf));
        std::remove((d1 + leaf).c_str());
        std::remove((d8 + leaf).c_str());
    }
}
