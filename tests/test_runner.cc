/**
 * @file
 * Tests for the parallel sweep-runner subsystem: the ThreadPool
 * (completion, return values, exception capture, wait_for timeouts),
 * the thread-safe logging additions (per-thread labels, fatal()
 * capture), manifest parsing / expansion / round-trip, and the
 * SweepRunner contract the golden gate depends on -- results in
 * manifest order with aggregated JSON byte-identical at -j1 and -j8.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "runner/thread_pool.hh"

using namespace tdc;
using namespace tdc::runner;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        std::vector<std::future<void>> futs;
        for (int i = 0; i < 100; ++i)
            futs.push_back(pool.submit([&count] { ++count; }));
        for (auto &f : futs)
            f.get();
        EXPECT_EQ(count.load(), 100);
        EXPECT_EQ(pool.threadCount(), 4u);
    }
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    // More tasks than workers: the destructor must finish them all.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReturnsValues)
{
    ThreadPool pool(2);
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, CapturesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);

    // The worker that ran the throwing task must still be alive.
    auto g = pool.submit([] { return 1; });
    EXPECT_EQ(g.get(), 1);
}

TEST(ThreadPool, WaitForTimesOutOnSlowTask)
{
    ThreadPool pool(1);
    auto slow = pool.submit([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return 7;
    });
    EXPECT_EQ(slow.wait_for(std::chrono::milliseconds(1)),
              std::future_status::timeout);
    EXPECT_EQ(slow.get(), 7); // still completes after the timeout
}

TEST(ThreadPool, DefaultConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

// ---------------------------------------------------------------------
// Logging: fatal() capture and labels on worker threads
// ---------------------------------------------------------------------

TEST(Logging, ScopedFatalCaptureThrows)
{
    ScopedFatalCapture capture;
    EXPECT_THROW(fatal("synthetic failure {}", 1), FatalError);
    try {
        fatal("synthetic failure {}", 2);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "synthetic failure 2");
    }
}

TEST(Logging, FatalCaptureIsPerThread)
{
    // Capture installed on a pool worker must not leak to the main
    // thread or to other tasks after the scope ends.
    ThreadPool pool(1);
    auto f = pool.submit([]() -> std::string {
        ScopedFatalCapture capture;
        ScopedLogLabel label("job-a");
        try {
            fatal("bad workload");
        } catch (const FatalError &e) {
            return e.what();
        }
        return "not thrown";
    });
    EXPECT_EQ(f.get(), "bad workload");
}

// ---------------------------------------------------------------------
// Manifest parsing and round-trip
// ---------------------------------------------------------------------

namespace {

json::Value
parseDoc(const std::string &text)
{
    auto v = json::Value::parse(text);
    EXPECT_TRUE(v.has_value());
    return *v;
}

} // namespace

TEST(SweepManifest, AxesExpandInDeterministicOrder)
{
    const auto m = SweepManifest::fromJson(parseDoc(R"({
        "schema": "tdc-sweep-manifest-v1",
        "name": "axes",
        "base": { "insts_per_core": 1000, "warmup_insts": 500 },
        "axes": { "org": ["ctlb", "sram"],
                  "workload": ["libquantum", "mcf"] }
    })"));
    ASSERT_EQ(m.jobs.size(), 4u);
    EXPECT_EQ(m.jobs[0].label, "ctlb/libquantum");
    EXPECT_EQ(m.jobs[1].label, "ctlb/mcf");
    EXPECT_EQ(m.jobs[2].label, "sram/libquantum");
    EXPECT_EQ(m.jobs[3].label, "sram/mcf");
    EXPECT_EQ(m.jobs[0].org, OrgKind::Tagless);
    EXPECT_EQ(m.jobs[2].org, OrgKind::SramTag);
    EXPECT_EQ(m.jobs[0].instsPerCore, 1000u);
    EXPECT_EQ(m.jobs[0].warmupInsts, 500u);
}

TEST(SweepManifest, SizeAxisSuffixesLabels)
{
    const auto m = SweepManifest::fromJson(parseDoc(R"({
        "name": "sizes",
        "axes": { "org": ["bi"], "workload": ["milc"],
                  "l3_size_mb": [256, 1024] }
    })"));
    ASSERT_EQ(m.jobs.size(), 2u);
    EXPECT_EQ(m.jobs[0].label, "bi/milc@256MB");
    EXPECT_EQ(m.jobs[0].l3SizeBytes, 256ULL << 20);
    EXPECT_EQ(m.jobs[1].label, "bi/milc@1024MB");
    EXPECT_EQ(m.jobs[1].l3SizeBytes, 1024ULL << 20);
}

TEST(SweepManifest, ExplicitJobsInheritBaseAndRaw)
{
    const auto m = SweepManifest::fromJson(parseDoc(R"({
        "name": "jobs",
        "base": { "insts_per_core": 2000,
                  "raw": { "l3.policy": "lru" } },
        "jobs": [
            { "org": "ctlb", "workload": "mcf" },
            { "label": "mix", "org": "sram",
              "workloads": ["mcf", "milc", "mcf", "milc"],
              "insts_per_core": 3000,
              "raw": { "l3.alpha": 2 } }
        ]
    })"));
    ASSERT_EQ(m.jobs.size(), 2u);
    EXPECT_EQ(m.jobs[0].label, "ctlb/mcf");
    EXPECT_EQ(m.jobs[0].instsPerCore, 2000u);
    EXPECT_EQ(m.jobs[0].raw.getString("l3.policy", ""), "lru");
    EXPECT_EQ(m.jobs[1].label, "mix");
    EXPECT_EQ(m.jobs[1].workloads.size(), 4u);
    EXPECT_EQ(m.jobs[1].instsPerCore, 3000u);
    EXPECT_EQ(m.jobs[1].raw.getString("l3.policy", ""), "lru");
    EXPECT_EQ(m.jobs[1].raw.getU64("l3.alpha", 0), 2u);
}

TEST(SweepManifest, RoundTripsThroughJson)
{
    const auto m = SweepManifest::fromJson(parseDoc(R"({
        "name": "rt", "timeout_seconds": 12.5,
        "base": { "insts_per_core": 1000, "warmup_insts": 100,
                  "raw": { "l3.policy": "lru" } },
        "axes": { "org": ["ctlb", "alloy"],
                  "workload": ["mcf"], "l3_size_mb": [64, 128] }
    })"));
    const auto reparsed = SweepManifest::fromJson(m.toJson());
    EXPECT_EQ(m.toJson().dump(), reparsed.toJson().dump());
    EXPECT_EQ(reparsed.name, "rt");
    EXPECT_DOUBLE_EQ(reparsed.timeoutSeconds, 12.5);
    ASSERT_EQ(reparsed.jobs.size(), 4u);
    EXPECT_EQ(reparsed.jobs[3].label, "alloy/mcf@128MB");
    EXPECT_EQ(reparsed.jobs[3].raw.getString("l3.policy", ""), "lru");
}

TEST(SweepManifest, RejectsMalformedInput)
{
    EXPECT_THROW(SweepManifest::fromJson(parseDoc("[1, 2]")),
                 ManifestError);
    // Unknown schema tag.
    EXPECT_THROW(SweepManifest::fromJson(
                     parseDoc(R"({"schema": "nope", "jobs": []})")),
                 ManifestError);
    // No jobs at all.
    EXPECT_THROW(SweepManifest::fromJson(parseDoc(R"({"name": "x"})")),
                 ManifestError);
    // Unknown organization (fatal() captured into ManifestError).
    EXPECT_THROW(SweepManifest::fromJson(parseDoc(R"({
        "axes": { "org": ["warp-drive"], "workload": ["mcf"] }
    })")),
                 ManifestError);
    // Unknown workload.
    EXPECT_THROW(SweepManifest::fromJson(parseDoc(R"({
        "axes": { "org": ["ctlb"], "workload": ["quake3"] }
    })")),
                 ManifestError);
    // Duplicate labels.
    EXPECT_THROW(SweepManifest::fromJson(parseDoc(R"({
        "jobs": [ { "org": "ctlb", "workload": "mcf" },
                  { "org": "ctlb", "workload": "mcf" } ]
    })")),
                 ManifestError);
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

namespace {

/** A tiny but real sweep: 2 orgs x 2 workloads at a 20k budget. */
SweepManifest
tinyManifest()
{
    return SweepManifest::fromJson(*json::Value::parse(R"({
        "name": "tiny",
        "base": { "insts_per_core": 20000, "warmup_insts": 5000,
                  "l3_size_bytes": 67108864 },
        "axes": { "org": ["ctlb", "bi"],
                  "workload": ["libquantum", "milc"] }
    })"));
}

std::vector<JobResult>
runTiny(unsigned jobs, unsigned repeat = 1)
{
    SweepOptions opt;
    opt.jobs = jobs;
    opt.progress = false;
    opt.repeat = repeat;
    return SweepRunner(opt).run(tinyManifest());
}

} // namespace

TEST(SweepRunner, RunsJobsAndReportsInManifestOrder)
{
    const auto m = tinyManifest();
    const auto results = runTiny(2);
    ASSERT_EQ(results.size(), m.jobs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].label, m.jobs[i].label);
        EXPECT_EQ(results[i].status, JobResult::Status::Ok);
        EXPECT_EQ(results[i].attempts, 1u);
        EXPECT_GT(results[i].result.totalInsts, 0u);
        EXPECT_TRUE(results[i].report.isObject());
    }
}

TEST(SweepRunner, AggregateIsByteIdenticalAcrossWorkerCounts)
{
    // The contract the golden gate depends on: the aggregated JSON
    // (manifest order, no timing) must not depend on -j.
    const auto m = tinyManifest();
    const auto serial =
        SweepRunner::aggregateReport(m, runTiny(1)).dump();
    const auto parallel =
        SweepRunner::aggregateReport(m, runTiny(8)).dump();
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("tdc-sweep-report-v1"), std::string::npos);
}

TEST(SweepRunner, TimedSweepStaysByteIdenticalAcrossWorkerCounts)
{
    // Re-check of the -j contract on the *timed* path: with
    // median-of-N repetitions enabled, the simulated results (and so
    // the timing-stripped aggregate) must still not depend on -j.
    // Only wall-clock numbers may differ between the two runs.
    const auto m = tinyManifest();
    const auto serial = runTiny(1, 2);
    const auto parallel = runTiny(8, 2);
    EXPECT_EQ(SweepRunner::aggregateReport(m, serial).dump(),
              SweepRunner::aggregateReport(m, parallel).dump());
    for (const auto &r : serial) {
        EXPECT_EQ(r.status, JobResult::Status::Ok);
        EXPECT_GT(r.wallSeconds, 0.0);
        EXPECT_GT(r.kips, 0.0);
    }
}

TEST(SweepRunner, CapturesPerJobFailureWithoutKillingTheSweep)
{
    // Bypass manifest validation to force a runtime fatal() inside a
    // worker: the job must fail in its slot, with one retry, while
    // the healthy job still completes.
    SweepManifest m;
    m.name = "mixed";
    JobSpec bad;
    bad.label = "bad";
    bad.workloads = {"no-such-workload"};
    bad.instsPerCore = 1000;
    bad.warmupInsts = 0;
    JobSpec good;
    good.label = "good";
    good.workloads = {"milc"};
    good.instsPerCore = 20000;
    good.warmupInsts = 5000;
    good.l3SizeBytes = 64ULL << 20;
    m.jobs = {bad, good};

    SweepOptions opt;
    opt.jobs = 2;
    opt.progress = false;
    const auto results = SweepRunner(opt).run(m);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobResult::Status::Failed);
    EXPECT_EQ(results[0].attempts, 2u); // one automatic retry
    EXPECT_NE(results[0].error.find("no-such-workload"),
              std::string::npos);
    EXPECT_EQ(results[1].status, JobResult::Status::Ok);
}

TEST(SweepRunner, ReportsTimedOutJobs)
{
    auto m = tinyManifest();
    m.jobs.resize(1);
    m.timeoutSeconds = 1e-9; // any real simulation exceeds this
    SweepOptions opt;
    opt.jobs = 1;
    opt.progress = false;
    const auto results = SweepRunner(opt).run(m);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobResult::Status::TimedOut);
    EXPECT_EQ(results[0].attempts, 1u); // timeouts are not retried
    EXPECT_NE(results[0].error.find("timeout"), std::string::npos);
}

TEST(SweepRunner, CountsJobsIntoTheSharedJobMetrics)
{
    // Direct and served jobs share one metric family: runJob() counts
    // every job it runs, whichever runner called it.
    const auto m = tinyManifest();
    const auto before = metrics::registry().toJson(0);
    runTiny(2);
    const auto after = metrics::registry().toJson(0);

    // Lazily registered metrics are absent from the baseline: zero.
    auto value = [](const json::Value &snap, const char *kind,
                    const char *name, const char *field) {
        const json::Value *v = snap.find(kind)->find(name);
        if (v != nullptr && field != nullptr)
            v = v->find(field);
        return v != nullptr ? v->asUint() : 0;
    };
    auto delta = [&](const char *kind, const char *name,
                     const char *field = nullptr) {
        return value(after, kind, name, field)
               - value(before, kind, name, field);
    };
    EXPECT_EQ(delta("counters", "tdc_jobs_ok_total"), m.jobs.size());
    EXPECT_EQ(delta("histograms", "tdc_job_wall_seconds", "count"),
              m.jobs.size());
    EXPECT_EQ(after.find("counters")->find("tdc_runner_jobs_total"),
              nullptr);
}

TEST(SweepRunner, EffectiveWorkersClampsToJobCount)
{
    SweepOptions opt;
    opt.jobs = 64;
    SweepRunner r(opt);
    EXPECT_EQ(r.effectiveWorkers(3), 3u);
    SweepOptions def;
    EXPECT_GE(SweepRunner(def).effectiveWorkers(1000), 1u);
}
