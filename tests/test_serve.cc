/**
 * @file
 * Tests for the resident sweep service (src/serve): content-addressed
 * cache keys, the persistent job queue's atomic state machine and
 * crash recovery, the cross-invocation warm-checkpoint cache
 * (integrity checks, LRU eviction), the incremental result cache, and
 * the service-level contracts -- a drained queue's reassembled report
 * is byte-identical to a direct tdc_sweep run, a second invocation
 * restores persisted warm state instead of re-warming, and sharded
 * drains merge back into the exact single-machine document.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/format.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "metrics/registry.hh"
#include "runner/sweep.hh"
#include "runner/sweep_runner.hh"
#include "serve/cache_key.hh"
#include "serve/job_queue.hh"
#include "serve/result_cache.hh"
#include "serve/service.hh"
#include "serve/warm_cache.hh"
#include "sys/system.hh"
#include "trace/mtrace.hh"

namespace fs = std::filesystem;

using namespace tdc;
using namespace tdc::serve;
using runner::JobSpec;
using runner::SweepManifest;
using runner::SweepRunner;

namespace {

/** A clean per-test service root under the gtest temp dir. */
std::string
freshRoot(const std::string &leaf)
{
    const fs::path p =
        fs::path(::testing::TempDir()) / ("tdc_serve_" + leaf);
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

/** 2 orgs x 2 workloads at a small budget: four distinct cells. */
SweepManifest
tinyManifest()
{
    return SweepManifest::fromJson(*json::Value::parse(R"({
        "name": "serve-tiny",
        "base": { "insts_per_core": 12000, "warmup_insts": 3000,
                  "l3_size_bytes": 67108864 },
        "axes": { "org": ["ctlb", "bi"],
                  "workload": ["libquantum", "milc"] }
    })"));
}

/**
 * Two jobs differing only in measurement budget: one warm group
 * (instsPerCore is excluded from the warm fingerprint), two cells.
 */
SweepManifest
warmPairManifest()
{
    return SweepManifest::fromJson(*json::Value::parse(R"({
        "name": "serve-warm-pair",
        "jobs": [
            { "label": "short", "org": "ctlb",
              "workload": "libquantum", "l3_size_bytes": 67108864,
              "insts_per_core": 12000, "warmup_insts": 6000 },
            { "label": "long", "org": "ctlb",
              "workload": "libquantum", "l3_size_bytes": 67108864,
              "insts_per_core": 20000, "warmup_insts": 6000 }
        ]
    })"));
}

/** The report a direct single-machine tdc_sweep run would emit. */
std::string
directReportDump(const SweepManifest &m, unsigned jobs)
{
    runner::SweepOptions opt;
    opt.jobs = jobs;
    opt.progress = false;
    return SweepRunner::aggregateReport(m, SweepRunner(opt).run(m))
        .dump();
}

ServeConfig
quietConfig(const std::string &root)
{
    ServeConfig sc;
    sc.root = root;
    sc.jobs = 2;
    sc.progress = false;
    return sc;
}

/** A small but structurally real checkpoint with a chosen key. */
ckpt::Checkpoint
fakeCheckpoint(std::uint64_t fp, std::size_t pad_bytes = 64)
{
    ckpt::Checkpoint ck;
    ck.setFingerprint(fp);
    ckpt::Serializer meta;
    meta.putString("{\"fake\":true}");
    ck.addSection("meta", std::move(meta));
    ckpt::Serializer body;
    for (std::size_t i = 0; i < pad_bytes; ++i)
        body.putU64(fp + i);
    ck.addSection("body", std::move(body));
    return ck;
}

/**
 * Reads a counter out of a tdc-metrics-v1 snapshot, treating a metric
 * that is not registered yet as zero (registration is lazy per
 * subsystem, so a baseline snapshot may predate it).
 */
std::uint64_t
counterValue(const json::Value &snap, const std::string &name)
{
    const json::Value *c = snap.find("counters")->find(name);
    return c ? c->asUint() : 0;
}

/** How far registry counters moved since this object was made. */
class CounterDelta
{
  public:
    std::uint64_t
    operator()(const std::string &name) const
    {
        return counterValue(metrics::registry().toJson(0), name)
               - counterValue(before_, name);
    }

  private:
    json::Value before_ = metrics::registry().toJson(0);
};

/** The result-cache file of `config_hash` under this binary. */
fs::path
resultEntryPath(const ResultCache &cache, std::uint64_t config_hash)
{
    return fs::path(cache.dir())
           / ("rc-" + ckpt::hex16(config_hash) + "-"
              + ckpt::hex16(binaryHash()) + ".json");
}

} // namespace

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

TEST(CacheKey, JobConfigHashSeparatesCells)
{
    const auto m = tinyManifest();
    JobSpec a = m.jobs[0];
    EXPECT_EQ(jobConfigHash(a), jobConfigHash(m.jobs[0]));

    std::vector<std::uint64_t> hashes;
    for (const auto &job : m.jobs)
        hashes.push_back(jobConfigHash(job));
    std::sort(hashes.begin(), hashes.end());
    EXPECT_EQ(std::unique(hashes.begin(), hashes.end()),
              hashes.end());

    // Every field participates, including the label (labels can leak
    // into per-job obs paths embedded in reports).
    JobSpec renamed = m.jobs[0];
    renamed.label = "renamed";
    EXPECT_NE(jobConfigHash(renamed), jobConfigHash(m.jobs[0]));
    JobSpec longer = m.jobs[0];
    longer.instsPerCore += 1;
    EXPECT_NE(jobConfigHash(longer), jobConfigHash(m.jobs[0]));
}

TEST(CacheKey, BinaryHashIsStableAndNonZero)
{
    EXPECT_NE(binaryHash(), 0u);
    EXPECT_EQ(binaryHash(), binaryHash());
}

TEST(CacheKey, TraceWorkloadKeysOnContentNotPath)
{
    // Regression: the spec only names a trace *path*, but the report
    // depends on the file's bytes. Rewriting the trace in place must
    // change the result-cache key, or a stale report satisfies the
    // next lookup.
    const std::string path = freshRoot("trace_key") + "/w.mtrace";
    auto write = [&](Addr base) {
        mtrace::MtraceWriter w(path, 1, false, "test:key");
        for (int i = 0; i < 8; ++i) {
            TraceRecord r;
            r.type = AccessType::Load;
            r.vaddr = base + 64u * i;
            w.append(0, r);
        }
        w.close();
    };
    write(0x4000);

    JobSpec job = tinyManifest().jobs[0];
    job.workloads = {"trace:" + path};
    const std::uint64_t before = jobConfigHash(job);
    EXPECT_EQ(before, jobConfigHash(job)); // stable while unchanged

    write(0x8000);
    EXPECT_NE(jobConfigHash(job), before);
}

// ---------------------------------------------------------------------
// Job queue
// ---------------------------------------------------------------------

TEST(JobQueue, LifecycleWalksTheSpoolStates)
{
    const auto root = freshRoot("queue_lifecycle");
    const auto m = tinyManifest();
    JobQueue q(root);

    EXPECT_EQ(q.enqueue(m), m.jobs.size());
    EXPECT_EQ(q.pendingCount(), m.jobs.size());
    // Re-enqueueing in-flight jobs is a no-op.
    EXPECT_EQ(q.enqueue(m), 0u);
    EXPECT_EQ(q.pendingCount(), m.jobs.size());

    auto job = q.claim();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(q.pendingCount(), m.jobs.size() - 1);
    EXPECT_EQ(q.claimedCount(), 1u);
    EXPECT_EQ(job->configHash, jobConfigHash(job->spec));
    EXPECT_EQ(job->manifestName, "serve-tiny");

    auto outcome = json::Value::object();
    outcome.set("status", "ok");
    outcome.set("attempts", std::uint64_t{1});
    q.complete(*job, outcome);
    EXPECT_EQ(q.claimedCount(), 0u);
    EXPECT_EQ(q.doneCount(), 1u);

    const auto stored = q.outcomeOf(job->id);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->find("status")->asString(), "ok");

    // A finished job re-enqueues (superseding the outcome record).
    EXPECT_EQ(q.enqueue(m), 1u);
    EXPECT_EQ(q.doneCount(), 0u);
    EXPECT_EQ(q.pendingCount(), m.jobs.size());
}

TEST(JobQueue, RecoverRequeuesOrphanedClaims)
{
    const auto root = freshRoot("queue_recover");
    const auto m = tinyManifest();
    {
        JobQueue q(root);
        q.enqueue(m);
        ASSERT_TRUE(q.claim().has_value());
        ASSERT_TRUE(q.claim().has_value());
        // "Crash": the queue object goes away with claims held.
    }
    JobQueue q(root);
    EXPECT_EQ(q.claimedCount(), 2u);
    EXPECT_EQ(q.recover(), 2u);
    EXPECT_EQ(q.claimedCount(), 0u);
    EXPECT_EQ(q.pendingCount(), m.jobs.size());
}

TEST(JobQueue, RecoverDropsClaimWhoseOutcomeWasPublished)
{
    const auto root = freshRoot("queue_recover_done");
    const auto m = tinyManifest();
    JobQueue q(root);
    q.enqueue(m);
    auto job = q.claim();
    ASSERT_TRUE(job.has_value());

    // Simulate a crash in the window between publishing the outcome
    // and unlinking the claim: complete normally, then resurrect the
    // claim file.
    const fs::path claimed =
        fs::path(q.dir()) / "claimed" / (job->id + ".json");
    const fs::path done =
        fs::path(q.dir()) / "done" / (job->id + ".json");
    auto outcome = json::Value::object();
    outcome.set("status", "ok");
    q.complete(*job, outcome);
    fs::copy_file(done, claimed);

    EXPECT_EQ(q.recover(), 0u); // dropped, not requeued
    EXPECT_EQ(q.claimedCount(), 0u);
    EXPECT_EQ(q.doneCount(), 1u);
    EXPECT_EQ(q.pendingCount(), m.jobs.size() - 1);
}

TEST(JobQueue, CorruptJobFileFailsWithReasonAndDrainContinues)
{
    const auto root = freshRoot("queue_corrupt");
    JobQueue q(root);
    {
        std::ofstream bad(fs::path(q.dir()) / "pending"
                          / "aaa-bogus.json");
        bad << "this is not json";
    }
    const auto m = warmPairManifest();
    q.enqueue(m);
    // A well-formed job file whose timeout is mistyped is corrupt too.
    const fs::path pending = fs::path(q.dir()) / "pending";
    auto mistyped = json::readFile(
        (pending / (JobQueue::jobId(m.jobs[1]) + ".json")).string());
    mistyped.set("timeout_seconds", "soon");
    json::writeFile(mistyped, (pending / "aab-soon.json").string());

    // The corrupt files sort first; claim() must fail them and hand
    // out the first real job instead of getting stuck.
    auto job = q.claim();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->spec.label, "long"); // sorted spool order
    EXPECT_EQ(q.failedCount(), 2u);
    EXPECT_EQ(q.claimedCount(), 1u);
    for (const char *id : {"aaa-bogus", "aab-soon"}) {
        const auto outcome = q.outcomeOf(id);
        ASSERT_TRUE(outcome.has_value()) << id;
        EXPECT_NE(outcome->find("error")->asString().find(
                      "corrupt job file"),
                  std::string::npos)
            << id;
    }
    EXPECT_NE(q.outcomeOf("aab-soon")->find("error")->asString().find(
                  "timeout_seconds"),
              std::string::npos);
}

TEST(JobQueue, GcKeepsTheNewestRecordsPerState)
{
    const auto root = freshRoot("queue_gc");
    const auto m = tinyManifest();
    JobQueue q(root);
    q.enqueue(m);

    std::vector<std::string> done_ids;
    while (auto job = q.claim()) {
        auto outcome = json::Value::object();
        outcome.set("status", "ok");
        q.complete(*job, outcome);
        done_ids.push_back(job->id);
    }
    ASSERT_EQ(done_ids.size(), m.jobs.size());
    // Age everything except the last-completed record so the mtime
    // ranking is unambiguous even on coarse-grained filesystems.
    for (std::size_t i = 0; i + 1 < done_ids.size(); ++i)
        fs::last_write_time(fs::path(q.dir()) / "done"
                                / (done_ids[i] + ".json"),
                            fs::file_time_type::clock::now()
                                - std::chrono::hours(i + 1));

    // Two corrupt spool files become failed records when claimed.
    for (const char *name : {"aaa-bad1.json", "aaa-bad2.json"}) {
        std::ofstream bad(fs::path(q.dir()) / "pending" / name);
        bad << "not json";
    }
    EXPECT_FALSE(q.claim().has_value());
    ASSERT_EQ(q.failedCount(), 2u);
    fs::last_write_time(fs::path(q.dir()) / "failed" / "aaa-bad1.json",
                        fs::file_time_type::clock::now()
                            - std::chrono::hours(1));

    const auto before = metrics::registry().toJson(0);
    EXPECT_EQ(q.gc(1), done_ids.size() - 1 + 1);
    EXPECT_EQ(q.doneCount(), 1u);
    EXPECT_EQ(q.failedCount(), 1u);

    // The newest record in each state survives, the rest are gone.
    EXPECT_TRUE(q.outcomeOf(done_ids.back()).has_value());
    EXPECT_FALSE(q.outcomeOf(done_ids.front()).has_value());
    EXPECT_TRUE(
        fs::exists(fs::path(q.dir()) / "failed" / "aaa-bad2.json"));
    EXPECT_FALSE(
        fs::exists(fs::path(q.dir()) / "failed" / "aaa-bad1.json"));

    const auto after = metrics::registry().toJson(0);
    EXPECT_EQ(counterValue(after, "tdc_gc_passes_total")
                  - counterValue(before, "tdc_gc_passes_total"),
              1u);
    EXPECT_EQ(counterValue(after, "tdc_gc_removed_total")
                  - counterValue(before, "tdc_gc_removed_total"),
              done_ids.size());
}

// ---------------------------------------------------------------------
// Warm cache
// ---------------------------------------------------------------------

TEST(WarmCache, StoreLookupRoundTripAndLruTouch)
{
    const auto root = freshRoot("warm_roundtrip");
    WarmCache cache(root, 64ULL << 20);
    const CounterDelta delta;

    EXPECT_EQ(cache.lookup(0x1234), nullptr);
    EXPECT_EQ(delta("tdc_warm_cache_misses_total"), 1u);

    const auto ck = fakeCheckpoint(0x1234);
    cache.store(ck, 0x1234);
    const auto hit = cache.lookup(0x1234);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->fingerprint(), 0x1234u);
    EXPECT_EQ(hit->require("body").payload,
              ck.require("body").payload);
    EXPECT_EQ(delta("tdc_warm_cache_hits_total"), 1u);
    EXPECT_EQ(delta("tdc_warm_cache_stores_total"), 1u);
}

TEST(WarmCache, CorruptEntryIsDeletedAndMisses)
{
    const auto root = freshRoot("warm_corrupt");
    WarmCache cache(root, 64ULL << 20);
    cache.store(fakeCheckpoint(0xbeef), 0xbeef);

    // Flip a payload byte: the per-section checksum must catch it.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(cache.dir()))
        entry = e.path();
    ASSERT_FALSE(entry.empty());
    {
        std::fstream f(entry, std::ios::in | std::ios::out
                                  | std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put('\xff');
    }

    const CounterDelta delta;
    EXPECT_EQ(cache.lookup(0xbeef), nullptr);
    EXPECT_EQ(delta("tdc_warm_cache_verify_failures_total"), 1u);
    EXPECT_EQ(delta("tdc_warm_cache_misses_total"), 1u);
    EXPECT_FALSE(fs::exists(entry));
}

TEST(WarmCache, MismatchedFingerprintNeverHits)
{
    const auto root = freshRoot("warm_fp_mismatch");
    WarmCache cache(root, 64ULL << 20);
    cache.store(fakeCheckpoint(0xa), 0xa);

    // Rename the entry so its content address claims fingerprint 0xb:
    // the embedded fingerprint check must reject it.
    fs::path entry;
    for (const auto &e : fs::directory_iterator(cache.dir()))
        entry = e.path();
    const std::string renamed = entry.string();
    const std::string from = ckpt::hex16(0xa), to = ckpt::hex16(0xb);
    std::string target = renamed;
    target.replace(target.find(from), from.size(), to);
    fs::rename(entry, target);

    const CounterDelta delta;
    EXPECT_EQ(cache.lookup(0xb), nullptr);
    EXPECT_EQ(delta("tdc_warm_cache_verify_failures_total"), 1u);
    EXPECT_FALSE(fs::exists(target));
}

TEST(WarmCache, EvictsLeastRecentlyUsedPastByteBudget)
{
    const auto root = freshRoot("warm_lru");
    // Budget fits roughly two of the three entries.
    const auto probe = fakeCheckpoint(1).encode().size();
    WarmCache cache(root, probe * 5 / 2);

    cache.store(fakeCheckpoint(1), 1);
    cache.store(fakeCheckpoint(2), 2);
    // Make entry 1 the most recently used, then overflow the budget.
    ASSERT_NE(cache.lookup(1), nullptr);
    // Push entry 2's clock firmly into the past so the LRU order is
    // unambiguous even on coarse-mtime filesystems.
    for (const auto &e : fs::directory_iterator(cache.dir())) {
        if (e.path().string().find(ckpt::hex16(2))
            != std::string::npos)
            fs::last_write_time(
                e.path(), fs::file_time_type::clock::now()
                              - std::chrono::hours(1));
    }
    const CounterDelta delta;
    cache.store(fakeCheckpoint(3), 3);

    EXPECT_EQ(delta("tdc_warm_cache_evictions_total"), 1u);
    EXPECT_NE(cache.lookup(1), nullptr); // recently used: kept
    EXPECT_NE(cache.lookup(3), nullptr); // just stored: kept
    EXPECT_EQ(cache.lookup(2), nullptr); // LRU victim
}

TEST(WarmCache, ConcurrentStoresKeepTheByteBudget)
{
    // Two drain workers storing at once: each store's eviction scan
    // races the other's publish and removals. No store may fail, and
    // once both finish the directory fits the budget.
    const auto root = freshRoot("warm_concurrent");
    const std::uint64_t budget = fakeCheckpoint(1).encode().size() * 5 / 2;
    WarmCache cache(root, budget);
    auto worker = [&](std::uint64_t first) {
        ScopedFatalCapture capture;
        for (std::uint64_t fp = first; fp < first + 32; ++fp) {
            try {
                cache.store(fakeCheckpoint(fp), fp);
            } catch (const std::exception &e) {
                ADD_FAILURE() << "store " << fp << ": " << e.what();
            }
        }
    };
    {
        std::jthread a(worker, 1), b(worker, 1001);
    }

    std::uint64_t bytes = 0;
    for (const auto &e : fs::directory_iterator(cache.dir()))
        bytes += e.file_size();
    EXPECT_LE(bytes, budget);
    EXPECT_EQ(cache.statusJson().find("bytes")->asUint(), bytes);
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

TEST(ResultCache, RoundTripAndCorruptDrop)
{
    const auto root = freshRoot("result_cache");
    ResultCache cache(root);
    const CounterDelta counted;

    EXPECT_FALSE(cache.lookup(7).has_value());

    CachedResult entry;
    entry.label = "cell-a";
    entry.attempts = 2;
    entry.report = *json::Value::parse(
        R"({"schema":"tdc-run-report-v1","result":{"sum_ipc":1.5}})");
    cache.store(7, entry);

    auto hit = cache.lookup(7);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->label, "cell-a");
    EXPECT_EQ(hit->attempts, 2u);
    EXPECT_EQ(hit->report.dump(), entry.report.dump());
    EXPECT_EQ(counted("tdc_result_cache_replays_total"), 1u);
    EXPECT_EQ(counted("tdc_result_cache_misses_total"), 1u);
    EXPECT_EQ(counted("tdc_result_cache_stores_total"), 1u);

    // A different config hash is a different cell.
    EXPECT_FALSE(cache.lookup(8).has_value());

    // Corrupt the stored entry: dropped, not replayed. An attempt
    // count that is not an unsigned integer fitting `unsigned` is a
    // defect too; converting it would be undefined behaviour.
    const fs::path file = resultEntryPath(cache, 7);
    ASSERT_TRUE(fs::exists(file));
    const json::Value good = json::readFile(file.string());
    auto withAttempts = [&](const char *attempts) {
        std::string text = good.dump(-1);
        const std::string from = "\"attempts\":2";
        text.replace(text.find(from), from.size(),
                     std::string("\"attempts\":") + attempts);
        return text;
    };
    for (const std::string &bad :
         {std::string("{\"schema\":\"wrong\"}"), withAttempts("-1"),
          withAttempts("1e30"), withAttempts("4294967296"),
          withAttempts("\"2\"")}) {
        {
            std::ofstream f(file, std::ios::trunc);
            f << bad;
        }
        const CounterDelta delta;
        EXPECT_FALSE(cache.lookup(7).has_value()) << bad;
        EXPECT_EQ(delta("tdc_result_cache_corrupt_total"), 1u) << bad;
        EXPECT_EQ(delta("tdc_result_cache_misses_total"), 1u) << bad;
        EXPECT_FALSE(fs::exists(file)) << bad;
    }
}

TEST(ResultCache, FailedPublishIsFatalAndLeavesNoStagingFile)
{
    // The entry is the only copy of a finished cell, so a publish that
    // cannot land must not be reported as stored.
    const auto root = freshRoot("result_publish_fails");
    ResultCache cache(root);
    const fs::path blocker = resultEntryPath(cache, 7);
    fs::create_directories(blocker / "occupied");

    CachedResult entry;
    entry.label = "cell-a";
    entry.report = *json::Value::parse(R"({"schema":"x"})");
    const CounterDelta delta;
    {
        ScopedFatalCapture capture;
        EXPECT_THROW(cache.store(7, entry), FatalError);
    }
    EXPECT_EQ(delta("tdc_result_cache_stores_total"), 0u);
    for (const auto &e : fs::directory_iterator(cache.dir()))
        EXPECT_FALSE(e.path().string().ends_with(".tmp")) << e.path();
}

TEST(ResultCache, PeekDecodesWithoutCountingAReplay)
{
    const auto root = freshRoot("result_peek");
    ResultCache cache(root);

    CachedResult entry;
    entry.label = "cell-a";
    entry.attempts = 1;
    entry.report = *json::Value::parse(
        R"({"schema":"tdc-run-report-v1","result":{"sum_ipc":1.0}})");
    cache.store(9, entry);

    const auto before = metrics::registry().toJson(0);
    auto hit = cache.peek(9);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->label, "cell-a");
    EXPECT_FALSE(cache.peek(12345).has_value());

    // peek() feeds report reassembly, not the hit-rate telemetry: the
    // drain's replay/simulate split stays the only thing the counters
    // measure.
    const auto after = metrics::registry().toJson(0);
    EXPECT_EQ(counterValue(after, "tdc_result_cache_replays_total"),
              counterValue(before, "tdc_result_cache_replays_total"));
    EXPECT_EQ(counterValue(after, "tdc_result_cache_misses_total"),
              counterValue(before, "tdc_result_cache_misses_total"));
}

// ---------------------------------------------------------------------
// Cache store
// ---------------------------------------------------------------------

TEST(CacheStore, StagingFilesAreNotEntries)
{
    // A crash mid-store leaves `<entry>.tmp` behind; it is no entry of
    // either cache in --status, in the gauges or to eviction.
    const auto root = freshRoot("store_staging");
    WarmCache warm(root, 64ULL << 20);
    ResultCache results(root);
    warm.store(fakeCheckpoint(0x5), 0x5);
    CachedResult entry;
    entry.label = "cell-a";
    entry.report = *json::Value::parse(R"({"schema":"x"})");
    results.store(5, entry);

    for (const std::string &dir : {warm.dir(), results.dir()}) {
        const fs::path only = fs::directory_iterator(dir)->path();
        fs::copy_file(only, only.string() + ".tmp");
    }
    warm.updateGauges();
    results.updateGauges();
    const auto gauges = *metrics::registry().toJson(0).find("gauges");
    for (const auto &[status, family] :
         {std::pair{warm.statusJson(), "warm"},
          std::pair{results.statusJson(), "result"}}) {
        const auto &entries = *status.find("entries");
        ASSERT_EQ(entries.size(), 1u) << family;
        const std::uint64_t bytes = entries.at(0).find("bytes")->asUint();
        EXPECT_FALSE(entries.at(0).find("file")->asString().ends_with(
            ".tmp"));
        EXPECT_EQ(status.find("bytes")->asUint(), bytes) << family;
        const std::string prefix = format("tdc_{}_cache_", family);
        EXPECT_EQ(gauges.find(prefix + "entries")->asUint(), 1u)
            << family;
        EXPECT_EQ(gauges.find(prefix + "resident_bytes")->asUint(),
                  bytes)
            << family;
    }
}

TEST(CacheStore, NonRegularEntryIsAMissAndIsLeftInPlace)
{
    // Only a regular file at an entry path is an entry, as in
    // listFiles(). Anything else cannot be decoded or dropped, so it
    // is a plain miss every time and nothing counts it as dropped.
    const auto root = freshRoot("store_non_regular");
    WarmCache warm(root, 64ULL << 20);
    ResultCache results(root);
    const fs::path warm_path =
        fs::path(warm.dir())
        / ("wc-" + ckpt::hex16(0x5) + "-" + ckpt::hex16(binaryHash())
           + ".ckpt");
    const fs::path result_path = resultEntryPath(results, 5);
    for (const fs::path &p : {warm_path, result_path})
        fs::create_directories(p / "occupied");

    const CounterDelta delta;
    EXPECT_EQ(warm.lookup(0x5), nullptr);
    EXPECT_FALSE(results.lookup(5).has_value());
    EXPECT_EQ(delta("tdc_warm_cache_misses_total"), 1u);
    EXPECT_EQ(delta("tdc_result_cache_misses_total"), 1u);
    EXPECT_EQ(delta("tdc_warm_cache_verify_failures_total"), 0u);
    EXPECT_EQ(delta("tdc_result_cache_corrupt_total"), 0u);
    EXPECT_TRUE(fs::is_directory(warm_path / "occupied"));
    EXPECT_TRUE(fs::is_directory(result_path / "occupied"));

    // A corrupt regular entry is still dropped, and counted once.
    fs::remove_all(result_path);
    std::ofstream(result_path) << "{\"schema\":\"wrong\"}";
    EXPECT_FALSE(results.lookup(5).has_value());
    EXPECT_FALSE(results.lookup(5).has_value());
    EXPECT_EQ(delta("tdc_result_cache_corrupt_total"), 1u);
    EXPECT_EQ(delta("tdc_result_cache_misses_total"), 3u);
    EXPECT_FALSE(fs::exists(result_path));
}

// ---------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------

TEST(SweepService, DrainedReportIsByteIdenticalToDirectSweep)
{
    const auto root = freshRoot("svc_direct_equiv");
    const auto m = tinyManifest();
    const auto direct = directReportDump(m, 1);

    SweepService svc(quietConfig(root));
    EXPECT_EQ(svc.enqueue(m), m.jobs.size());
    const auto st = svc.drainOnce();
    EXPECT_EQ(st.jobs, m.jobs.size());
    EXPECT_EQ(st.ok, m.jobs.size());
    EXPECT_EQ(st.failed + st.timedOut, 0u);
    EXPECT_EQ(st.resultCacheHits, 0u);
    EXPECT_GT(st.warmupInstsSimulated, 0u);
    EXPECT_GT(st.measureInstsSimulated, 0u);

    EXPECT_EQ(svc.reportFor(m).dump(), direct);
    EXPECT_TRUE(
        fs::exists(fs::path(root) / "last-drain.json"));
}

TEST(SweepService, SecondDrainReplaysEveryCellFromTheResultCache)
{
    const auto root = freshRoot("svc_result_replay");
    const auto m = tinyManifest();

    SweepService svc(quietConfig(root));
    svc.enqueue(m);
    svc.drainOnce();
    const auto first = svc.reportFor(m).dump();

    svc.enqueue(m);
    const auto st = svc.drainOnce();
    EXPECT_EQ(st.jobs, m.jobs.size());
    EXPECT_EQ(st.resultCacheHits, m.jobs.size());
    EXPECT_EQ(st.ok, m.jobs.size());
    EXPECT_EQ(st.warmupInstsSimulated, 0u);
    EXPECT_EQ(st.measureInstsSimulated, 0u);
    EXPECT_EQ(svc.reportFor(m).dump(), first);
}

TEST(SweepService, WarmCheckpointIsReusedAcrossInvocations)
{
    const auto root = freshRoot("svc_warm_reuse");
    const auto m = warmPairManifest();
    const auto direct = directReportDump(m, 2);

    // Invocation 1: cold caches -- one warm run for the shared group.
    {
        SweepService svc(quietConfig(root));
        svc.enqueue(m);
        const auto st = svc.drainOnce();
        EXPECT_EQ(st.ok, 2u);
        EXPECT_EQ(st.warmCacheHits, 0u);
        EXPECT_EQ(st.warmCacheMisses, 1u);
        EXPECT_GT(st.warmupInstsSimulated, 0u);
        EXPECT_EQ(svc.reportFor(m).dump(), direct);
    }

    // Invocation 2 (fresh process state simulated by a fresh service
    // over the same root), result replay disabled: both cells
    // re-measure from the persisted checkpoint and simulate zero
    // warmup instructions.
    {
        auto cfg = quietConfig(root);
        cfg.useResultCache = false;
        SweepService svc(cfg);
        svc.enqueue(m);
        const auto st = svc.drainOnce();
        EXPECT_EQ(st.ok, 2u);
        EXPECT_EQ(st.resultCacheHits, 0u);
        EXPECT_EQ(st.warmCacheHits, 1u);
        EXPECT_EQ(st.warmCacheMisses, 0u);
        EXPECT_EQ(st.warmupInstsSimulated, 0u);
        EXPECT_GT(st.measureInstsSimulated, 0u);
        // Restored measurement is byte-identical to the direct run.
        EXPECT_EQ(svc.reportFor(m).dump(), direct);
    }
}

TEST(SweepService, FailedJobIsReportedInItsSlotAndNotCached)
{
    const auto root = freshRoot("svc_failure");
    // A spec that parses cleanly (so it spools and claims) but
    // fatal()s inside System construction: a bogus override value.
    auto m = warmPairManifest();
    m.jobs[0].raw.set("l3.policy", "no-such-policy");

    SweepService svc(quietConfig(root));
    svc.enqueue(m);
    const auto st = svc.drainOnce();
    EXPECT_EQ(st.ok, 1u);
    EXPECT_EQ(st.failed, 1u);

    const auto report = svc.reportFor(m);
    const auto &jobs = *report.find("jobs");
    EXPECT_EQ(jobs.at(0).find("status")->asString(), "failed");
    // Its warm run failed too, so the job ran in full with no
    // checkpoint: a deterministic full run is not retried.
    EXPECT_EQ(jobs.at(0).find("attempts")->asUint(), 1u);
    EXPECT_EQ(jobs.at(1).find("status")->asString(), "ok");

    // Failures are not cached: re-enqueueing re-runs only the broken
    // cell.
    svc.enqueue(m);
    const auto st2 = svc.drainOnce();
    EXPECT_EQ(st2.resultCacheHits, 1u);
    EXPECT_EQ(st2.failed, 1u);
}

TEST(SweepService, FailedJobReportMatchesTheDirectSweep)
{
    // Served and direct jobs run through the same runner::runJob(), so
    // a failing cell reports the same status, attempts and error.
    const auto root = freshRoot("svc_failure_direct");
    auto m = warmPairManifest();
    m.jobs[0].raw.set("l3.policy", "no-such-policy");
    const auto direct = directReportDump(m, 2);

    SweepService svc(quietConfig(root));
    svc.enqueue(m);
    EXPECT_EQ(svc.drainOnce().failed, 1u);
    const auto report = svc.reportFor(m);
    EXPECT_EQ(report.dump(), direct);
    // Neither side restores a checkpoint for the broken cell (its
    // served warm run fails; the direct sweep does not share warmups),
    // so neither retries its deterministic full run.
    EXPECT_EQ(report.find("jobs")->at(0).find("attempts")->asUint(), 1u);
}

TEST(SweepService, TimedOutJobIsFinalAndCountsItsInstructions)
{
    const auto root = freshRoot("svc_timeout");
    auto m = tinyManifest();
    m.timeoutSeconds = 1e-9; // any real simulation exceeds this

    SweepService svc(quietConfig(root));
    svc.enqueue(m);
    const auto st = svc.drainOnce();
    EXPECT_EQ(st.timedOut, m.jobs.size());
    EXPECT_EQ(st.ok + st.failed, 0u);
    // The timeout is judged after the run, so the run's instructions
    // were simulated and are accounted.
    EXPECT_GT(st.measureInstsSimulated, 0u);

    const auto report = svc.reportFor(m);
    for (const auto &job : report.find("jobs")->items()) {
        EXPECT_EQ(job.find("status")->asString(), "timeout");
        EXPECT_EQ(job.find("attempts")->asUint(), 1u); // never retried
    }
}

TEST(SweepService, PublishedSnapshotMatchesTheReplaySimulateSplit)
{
    const auto root = freshRoot("svc_metrics");
    const auto m = tinyManifest();
    const std::string snap_path =
        (fs::path(root) / "metrics.json").string();
    auto drain = [&](bool useResultCache) {
        auto cfg = quietConfig(root);
        cfg.useResultCache = useResultCache;
        SweepService svc(cfg);
        svc.enqueue(m);
        return svc.drainOnce();
    };
    // The registry is the only count of cache events. Counters are
    // process-global; between two published snapshots they must move
    // by exactly the drain's own replay/simulate split.
    auto expectSplit = [](const json::Value &from, const json::Value &to,
                          const DrainStats &st,
                          std::uint64_t resultLookups) {
        auto delta = [&](const char *name) {
            return counterValue(to, name) - counterValue(from, name);
        };
        EXPECT_EQ(delta("tdc_drain_passes_total"), 1u);
        EXPECT_EQ(delta("tdc_jobs_ok_total"), st.ok);
        EXPECT_EQ(delta("tdc_jobs_failed_total"), st.failed);
        EXPECT_EQ(delta("tdc_result_cache_replays_total"),
                  st.resultCacheHits);
        EXPECT_EQ(delta("tdc_result_cache_misses_total"),
                  resultLookups - st.resultCacheHits);
        EXPECT_EQ(delta("tdc_result_cache_stores_total"),
                  st.ok - st.resultCacheHits);
        EXPECT_EQ(delta("tdc_warm_cache_hits_total"), st.warmCacheHits);
        EXPECT_EQ(delta("tdc_warm_cache_misses_total"),
                  st.warmCacheMisses);
        EXPECT_EQ(delta("tdc_warm_cache_stores_total"),
                  st.warmCacheMisses);
        EXPECT_EQ(delta("tdc_warmup_insts_simulated_total"),
                  st.warmupInstsSimulated);
        EXPECT_EQ(delta("tdc_measure_insts_simulated_total"),
                  st.measureInstsSimulated);
    };

    // Cold drain: every cell warms and simulates.
    const auto before = metrics::registry().toJson(0);
    const auto cold = drain(true);
    ASSERT_EQ(cold.ok, m.jobs.size());
    EXPECT_EQ(cold.resultCacheHits, 0u);
    EXPECT_EQ(cold.warmCacheHits, 0u);

    // The drain publishes a tdc-metrics-v1 snapshot in the service
    // root through publishFile().
    std::string err;
    const auto snap = json::tryReadFile(snap_path, &err);
    ASSERT_TRUE(snap.has_value()) << err;
    EXPECT_EQ(snap->find("schema")->asString(),
              metrics::metricsSchema);
    expectSplit(before, *snap, cold, m.jobs.size());

    // Gauges reflect the spool state at publish time.
    EXPECT_EQ(snap->find("gauges")->find("tdc_queue_done")->asUint(),
              m.jobs.size());
    EXPECT_EQ(
        snap->find("gauges")->find("tdc_queue_pending")->asUint(),
        0u);
    EXPECT_EQ(snap->find("gauges")
                  ->find("tdc_result_cache_entries")
                  ->asUint(),
              m.jobs.size());

    // Warm-hit drain, result replay off: every group restores its
    // persisted checkpoint and each cell re-measures.
    const auto warm = drain(false);
    EXPECT_EQ(warm.ok, m.jobs.size());
    EXPECT_EQ(warm.warmCacheHits, cold.warmCacheMisses);
    EXPECT_EQ(warm.warmCacheMisses, 0u);
    EXPECT_EQ(warm.warmupInstsSimulated, 0u);
    const auto snap2 = json::tryReadFile(snap_path, &err);
    ASSERT_TRUE(snap2.has_value()) << err;
    expectSplit(*snap, *snap2, warm, 0);

    // Full-replay drain: every cell replays and nothing is simulated.
    const auto replay = drain(true);
    EXPECT_EQ(replay.resultCacheHits, m.jobs.size());
    EXPECT_EQ(replay.ok, m.jobs.size());
    EXPECT_EQ(replay.warmupInstsSimulated, 0u);
    EXPECT_EQ(replay.measureInstsSimulated, 0u);
    const auto snap3 = json::tryReadFile(snap_path, &err);
    ASSERT_TRUE(snap3.has_value()) << err;
    expectSplit(*snap2, *snap3, replay, m.jobs.size());
}

TEST(SweepServiceDeathTest, UnstorableResultLeavesTheJobClaimed)
{
    // A finished result that cannot be published must not be reported
    // ok: the drain ends through fatal() with the job still claimed,
    // and the next pass's recover() requeues it.
    const auto root = freshRoot("svc_unstorable");
    auto m = warmPairManifest();
    m.jobs.pop_back();
    fs::create_directories(
        resultEntryPath(ResultCache(root), jobConfigHash(m.jobs[0]))
        / "occupied");
    auto cfg = quietConfig(root);
    cfg.jobs = 1;
    EXPECT_EXIT(
        {
            SweepService svc(cfg);
            svc.enqueue(m);
            svc.drainOnce();
        },
        ::testing::ExitedWithCode(1), "cannot publish");

    JobQueue q(root);
    EXPECT_EQ(q.claimedCount(), 1u);
    EXPECT_EQ(q.doneCount(), 0u);
    EXPECT_EQ(q.recover(), 1u);
}

TEST(SweepService, FailedPublishLetsTheOtherCellsFinish)
{
    // A result that cannot be published ends the drain through fatal(),
    // but only once the pass is over: the other workers' cells are
    // stored and done, and the failed job stays claimed.
    const auto root = freshRoot("svc_publish_fails");
    const auto m = SweepManifest::load(std::string(TDC_SOURCE_DIR)
                                       + "/bench/manifests/smoke.json");
    ASSERT_EQ(m.jobs.size(), 4u);
    fs::create_directories(
        resultEntryPath(ResultCache(root), jobConfigHash(m.jobs[0]))
        / "occupied");
    EXPECT_EXIT(
        {
            SweepService svc(quietConfig(root));
            svc.enqueue(m);
            svc.drainOnce();
        },
        ::testing::ExitedWithCode(1), "cannot publish");

    JobQueue q(root);
    EXPECT_EQ(q.claimedCount(), 1u);
    EXPECT_EQ(q.doneCount(), 3u);
    ResultCache results(root);
    for (std::size_t i = 1; i < m.jobs.size(); ++i)
        EXPECT_TRUE(results.peek(jobConfigHash(m.jobs[i])).has_value())
            << m.jobs[i].label;
}

// ---------------------------------------------------------------------
// Shard / merge
// ---------------------------------------------------------------------

TEST(ShardSlice, PartitionsDeterministicallyAndValidates)
{
    const auto m = tinyManifest();
    std::vector<std::string> seen;
    for (unsigned i = 0; i < 3; ++i) {
        const auto s = runner::shardSlice(m, i, 3);
        EXPECT_EQ(s.name, m.name);
        for (const auto &job : s.jobs)
            seen.push_back(job.label);
    }
    std::vector<std::string> all;
    for (const auto &job : m.jobs)
        all.push_back(job.label);
    std::sort(seen.begin(), seen.end());
    std::sort(all.begin(), all.end());
    EXPECT_EQ(seen, all);

    EXPECT_THROW(runner::shardSlice(m, 0, 0), runner::ManifestError);
    EXPECT_THROW(runner::shardSlice(m, 3, 3), runner::ManifestError);
    // More shards than jobs: the tail shard would be empty.
    EXPECT_THROW(runner::shardSlice(m, 4, 5), runner::ManifestError);
}

TEST(ShardMerge, ShardedDrainsMergeByteIdenticalToDirectRun)
{
    const auto m = tinyManifest();
    const auto direct = directReportDump(m, 1);
    EXPECT_EQ(directReportDump(m, 8), direct); // -j invariance

    for (unsigned shards : {1u, 2u, 3u}) {
        std::vector<json::Value> shardReports;
        for (unsigned i = 0; i < shards; ++i) {
            const auto slice = runner::shardSlice(m, i, shards);
            SweepService svc(quietConfig(freshRoot(
                format("shard_{}_{}", shards, i))));
            svc.enqueue(slice);
            const auto st = svc.drainOnce();
            EXPECT_EQ(st.ok, slice.jobs.size());
            shardReports.push_back(svc.reportFor(slice));
        }
        EXPECT_EQ(mergeShardReports(m, shardReports).dump(), direct)
            << shards << " shard(s)";
    }
}

TEST(ShardMerge, RejectsDuplicateAndMissingJobs)
{
    const auto m = warmPairManifest();
    auto entry = json::Value::object();
    entry.set("label", "short");
    entry.set("status", "ok");
    auto shard = json::Value::object();
    shard.set("schema", runner::sweepReportSchema);
    shard.set("name", m.name);
    auto jobs = json::Value::array();
    jobs.push(std::move(entry));
    shard.set("jobs", std::move(jobs));

    ScopedFatalCapture capture;
    // "long" appears in no shard.
    EXPECT_THROW(mergeShardReports(m, {shard}), FatalError);
    // "short" appears in two shards.
    EXPECT_THROW(mergeShardReports(m, {shard, shard}), FatalError);
}

// ---------------------------------------------------------------------
// ServeConfig
// ---------------------------------------------------------------------

TEST(ServeConfig, ReadsDottedOverrides)
{
    Config cfg;
    ASSERT_TRUE(cfg.parseAssignment("serve.root=/tmp/elsewhere"));
    ASSERT_TRUE(cfg.parseAssignment("serve.jobs=3"));
    ASSERT_TRUE(cfg.parseAssignment("serve.warm_cache=false"));
    ASSERT_TRUE(cfg.parseAssignment("serve.result_cache=false"));
    ASSERT_TRUE(cfg.parseAssignment("serve.warm_cache_bytes=1024"));
    ASSERT_TRUE(cfg.parseAssignment("serve.poll_ms=7"));
    cfg.checkKnown({}, "test"); // all serve.* keys are registered

    const auto sc = ServeConfig::fromConfig(cfg);
    EXPECT_EQ(sc.root, "/tmp/elsewhere");
    EXPECT_EQ(sc.jobs, 3u);
    EXPECT_FALSE(sc.useWarmCache);
    EXPECT_FALSE(sc.useResultCache);
    EXPECT_EQ(sc.warmCacheBytes, 1024u);
    EXPECT_EQ(sc.pollMs, 7u);
}
