/**
 * @file
 * Tests for the parallel sweep-runner subsystem: the thread-safe
 * logging additions (per-thread labels, fatal() capture), manifest
 * parsing / expansion / round-trip, the warm->measure scheduler
 * (runPipeline), the per-job retry rule, and the SweepRunner contract
 * the golden gate depends on -- results in manifest order with
 * aggregated JSON byte-identical at -j1 and -j8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "metrics/registry.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"

using namespace tdc;
using namespace tdc::runner;

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
    // Capture installed on a worker thread must not leak to the main
    // thread or to other tasks after the scope ends.
    std::string what = "not thrown";
    std::thread worker([&what] {
        ScopedFatalCapture capture;
        ScopedLogLabel label("job-a");
        try {
            fatal("bad workload");
        } catch (const FatalError &e) {
            what = e.what();
        }
    });
    worker.join();
    EXPECT_EQ(what, "bad workload");
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
    // worker: the job must fail in its slot while the healthy job
    // still completes.
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
    // Not retried: the attempt restored no checkpoint, and a full run
    // is deterministic, so a retry would fail the same way.
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_NE(results[0].error.find("no-such-workload"),
              std::string::npos);
    EXPECT_EQ(results[1].status, JobResult::Status::Ok);
}

TEST(SweepRunner, RawL3SizeMayOnlyRepeatTheJobsL3Size)
{
    // The org, the in-package device and the report take the L3 size
    // from one field: a raw key that repeats it runs and reports that
    // size, and one that contradicts it fails the job naming both.
    SweepManifest m;
    m.name = "l3-size";
    JobSpec same;
    same.label = "same";
    same.workloads = {"mcf"};
    same.instsPerCore = 20000;
    same.warmupInsts = 5000;
    same.l3SizeBytes = 8ULL << 20;
    same.raw.set("l3.size_bytes", std::uint64_t{8} << 20);
    JobSpec other = same;
    other.label = "other";
    other.raw.set("l3.size_bytes", std::uint64_t{1} << 30);
    m.jobs = {same, other};

    SweepOptions opt;
    opt.jobs = 2;
    opt.progress = false;
    const auto results = SweepRunner(opt).run(m);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(results[0].status, JobResult::Status::Ok)
        << results[0].error;
    EXPECT_EQ(results[0].report.find("meta")->find("l3_size_bytes")
                  ->asUint(),
              8ULL << 20);
    EXPECT_EQ(results[1].status, JobResult::Status::Failed);
    EXPECT_NE(results[1].error.find("l3.size_bytes=1073741824 disagrees "
                                    "with the configured L3 size "
                                    "8388608"),
              std::string::npos)
        << results[1].error;
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

TEST(SweepRunner, RetriesOnlyAFailedWarmRestoreInFull)
{
    // The retry exists for a corrupt shared warm state. Restoring
    // another warm group's checkpoint fatal()s on the fingerprint, so
    // attempt 1 fails and attempt 2 runs warmup + measure in full.
    const auto m = tinyManifest();
    const JobSpec &job = m.jobs[0];
    const JobSpec &other = m.jobs[1];
    const std::uint64_t other_fp =
        warmFingerprint(other.toSystemConfig());
    ASSERT_NE(warmFingerprint(job.toSystemConfig()), other_fp);
    const auto foreign =
        warmCheckpoint(WarmGroup{other, other_fp, 1}, "[test]", false);
    ASSERT_NE(foreign.ckpt, nullptr);

    auto retries = [] {
        const json::Value snap = metrics::registry().toJson(0);
        const json::Value *c =
            snap.find("counters")->find("tdc_job_retries_total");
        return c != nullptr ? c->asUint() : 0;
    };
    const std::uint64_t before = retries();
    const JobResult r = runJob(job, 0.0, foreign.ckpt.get());
    EXPECT_EQ(r.status, JobResult::Status::Ok) << r.error;
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_EQ(retries() - before, 1u);
    EXPECT_GT(r.warmupInsts, 0u); // the retry warmed up itself
    EXPECT_EQ(r.report.dump(), runJob(job, 0.0).report.dump());
}

// ---------------------------------------------------------------------
// runPipeline: the warm->measure scheduler
// ---------------------------------------------------------------------

namespace {

constexpr std::size_t kGroups = 8;
constexpr std::size_t kPerGroup = 3;

/**
 * 8 warm groups x 3 jobs, interleaved: job i is member i / 8 of group
 * i % 8. Groups differ in warmup budget, which the warm fingerprint
 * covers; members differ only in measure budget.
 */
std::vector<JobSpec>
groupedJobs()
{
    std::vector<JobSpec> jobs;
    for (std::size_t i = 0; i < kGroups * kPerGroup; ++i) {
        JobSpec j;
        j.label = format("g{}/m{}", i % kGroups, i / kGroups);
        j.workloads = {"mcf"};
        j.warmupInsts = 1000 * (i % kGroups + 1);
        j.instsPerCore = 1000 * (i / kGroups + 1);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

/**
 * A warm() that simulates nothing: it returns an empty checkpoint
 * stamped with the group's fingerprint, whose deleter keeps a count
 * of the checkpoints alive at once.
 */
struct FakeWarm
{
    std::atomic<int> live{0};
    std::atomic<int> calls{0};
    std::mutex peak_mutex;
    int peak = 0; //!< most checkpoints alive at once

    std::shared_ptr<const ckpt::Checkpoint>
    operator()(const WarmGroup &g)
    {
        ++calls;
        auto ck = std::make_unique<ckpt::Checkpoint>();
        ck->setFingerprint(g.fingerprint);
        const auto release = [this](const ckpt::Checkpoint *p) {
            --live;
            delete p;
        };
        const int now = ++live;
        {
            std::lock_guard<std::mutex> lock(peak_mutex);
            peak = std::max(peak, now);
        }
        return {ck.release(), release};
    }
};

std::vector<std::uint64_t>
fingerprintsOf(const std::vector<JobSpec> &jobs)
{
    std::vector<std::uint64_t> fps;
    for (const auto &j : jobs)
        fps.push_back(warmFingerprint(j.toSystemConfig()));
    return fps;
}

} // namespace

TEST(RunPipeline, AtMostOneLiveCheckpointPerWorker)
{
    const auto jobs = groupedJobs();
    const auto fps = fingerprintsOf(jobs);
    auto distinct = fps;
    std::sort(distinct.begin(), distinct.end());
    ASSERT_EQ(std::unique(distinct.begin(), distinct.end())
                  - distinct.begin(),
              static_cast<std::ptrdiff_t>(kGroups));

    for (unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(format("{} worker(s)", workers));
        FakeWarm fake;
        std::vector<std::atomic<int>> runs(jobs.size());
        std::atomic<int> wrong_ckpt{0};
        std::atomic<int> over_bound{0};
        const WarmFn warm = [&](const WarmGroup &g) { return fake(g); };
        const JobFn run = [&](std::size_t i, const ckpt::Checkpoint *ck) {
            ++runs[i];
            if (ck == nullptr || ck->fingerprint() != fps[i])
                ++wrong_ckpt;
            if (fake.live.load() > static_cast<int>(workers))
                ++over_bound;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        };
        runPipeline(jobs, workers, warm, run);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1) << jobs[i].label;
        EXPECT_EQ(wrong_ckpt.load(), 0);
        EXPECT_EQ(fake.calls.load(), static_cast<int>(kGroups));
        EXPECT_EQ(over_bound.load(), 0);
        EXPECT_LE(fake.peak, static_cast<int>(workers));
        EXPECT_EQ(fake.live.load(), 0); // every hold ended with its job
    }
}

TEST(RunPipeline, IdleWorkersWaitForTheWarmInFlight)
{
    // One group of three jobs on three workers: two workers find both
    // queues empty while the only warm runs. They must wait for it,
    // not exit, so the group's jobs run side by side.
    const auto all = groupedJobs();
    const std::vector<JobSpec> jobs{all[0], all[kGroups],
                                    all[2 * kGroups]};
    FakeWarm fake;
    std::mutex mutex;
    std::condition_variable cv;
    int running = 0;
    int most = 0;
    const WarmFn warm = [&](const WarmGroup &g) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return fake(g);
    };
    const JobFn run = [&](std::size_t, const ckpt::Checkpoint *) {
        std::unique_lock<std::mutex> lock(mutex);
        most = std::max(most, ++running);
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return most > 1; });
        --running;
    };
    runPipeline(jobs, 3, warm, run);
    EXPECT_GE(most, 2);
}

TEST(RunPipeline, NullCheckpointRunsItsGroupUnshared)
{
    const auto jobs = groupedJobs();
    const auto fps = fingerprintsOf(jobs);
    FakeWarm fake;
    std::vector<std::atomic<int>> runs(jobs.size());
    std::vector<const ckpt::Checkpoint *> got(jobs.size());
    std::vector<std::uint64_t> got_fp(jobs.size());
    const WarmFn warm = [&](const WarmGroup &g) {
        // Group 0's warm run fails.
        return g.first.label == "g0/m0" ? nullptr : fake(g);
    };
    const JobFn run = [&](std::size_t i, const ckpt::Checkpoint *ck) {
        ++runs[i];
        got[i] = ck;
        got_fp[i] = ck != nullptr ? ck->fingerprint() : 0;
    };
    runPipeline(jobs, 2, warm, run);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(runs[i].load(), 1) << jobs[i].label;
        if (i % kGroups == 0)
            EXPECT_EQ(got[i], nullptr) << jobs[i].label;
        else
            EXPECT_EQ(got_fp[i], fps[i]) << jobs[i].label;
    }

    // Without warm(), every job is ready at once, with no checkpoint.
    std::vector<std::atomic<int>> plain(jobs.size());
    std::atomic<int> with_ckpt{0};
    const JobFn count = [&](std::size_t i, const ckpt::Checkpoint *ck) {
        ++plain[i];
        if (ck != nullptr)
            ++with_ckpt;
    };
    runPipeline(jobs, 4, nullptr, count);
    for (auto &n : plain)
        EXPECT_EQ(n.load(), 1);
    EXPECT_EQ(with_ckpt.load(), 0);
}

TEST(RunPipeline, RethrowsTheFirstFailureByJobIndexAfterTheRest)
{
    const auto jobs = groupedJobs();
    FakeWarm fake;
    const WarmFn warm = [&](const WarmGroup &g) { return fake(g); };

    // Two throwing jobs: the lower index wins, and every job ran.
    std::vector<std::atomic<int>> runs(jobs.size());
    const JobFn run = [&](std::size_t i, const ckpt::Checkpoint *) {
        ++runs[i];
        if (i == 9 || i == 2)
            throw std::runtime_error(format("job {}", i));
    };
    try {
        runPipeline(jobs, 2, warm, run);
        FAIL() << "no exception escaped runPipeline";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 2");
    }
    for (auto &n : runs)
        EXPECT_EQ(n.load(), 1);

    // A throwing warm counts at its group's first member (job 1, before
    // job 4) and its group's jobs never run; every other job does.
    std::vector<std::atomic<int>> runs2(jobs.size());
    const WarmFn failing_warm = [&](const WarmGroup &g) {
        if (g.first.label == "g1/m0")
            throw std::runtime_error("warm g1");
        return fake(g);
    };
    const JobFn run2 = [&](std::size_t i, const ckpt::Checkpoint *) {
        ++runs2[i];
        if (i == 4)
            throw std::runtime_error("job 4");
    };
    try {
        runPipeline(jobs, 2, failing_warm, run2);
        FAIL() << "no exception escaped runPipeline";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "warm g1");
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(runs2[i].load(), i % kGroups == 1 ? 0 : 1)
            << jobs[i].label;
    EXPECT_EQ(fake.live.load(), 0);
}
