#include "serve/service.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

#include "common/event_log.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "common/publish.hh"
#include "metrics/registry.hh"
#include "runner/sweep_runner.hh"
#include "serve/cache_key.hh"

namespace fs = std::filesystem;

namespace tdc {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Serializes the stdout summary line against stderr progress. */
std::mutex &
progressMutex()
{
    static std::mutex m;
    return m;
}

/**
 * Per-completion progress, routed through the leveled sink so every
 * line carries a timestamp and severity and mirrors into the JSONL
 * event log when one is attached. `enabled` is the --progress knob;
 * TDC_LOG_LEVEL / log.level gates it a second time inside inform().
 */
void
progressLine(const std::string &line, bool enabled)
{
    if (!enabled)
        return;
    inform("{}", line);
}

/** Publishes a telemetry file; telemetry never perturbs what it
 *  measures (DESIGN.md 11), so a failure warns and the service goes
 *  on. */
void
publishTelemetry(const std::string &path,
                 const std::function<void(const std::string &)> &write)
{
    try {
        ScopedFatalCapture capture;
        publishFile(path, write);
    } catch (const FatalError &e) {
        warn("{}", e.what());
    }
}

/** Drain-loop metrics (DESIGN.md 11 catalog); per-job counts live
 *  in runner::jobMetrics(). */
struct DrainMetrics
{
    metrics::Counter &passes;
    metrics::Counter &warmupInsts;
    metrics::Counter &measureInsts;
};

DrainMetrics &
drainMetrics()
{
    auto &r = metrics::registry();
    static DrainMetrics m{
        r.counter("tdc_drain_passes_total",
                  "Drain passes over the job spool"),
        r.counter("tdc_warmup_insts_simulated_total",
                  "Warmup instructions actually simulated"),
        r.counter("tdc_measure_insts_simulated_total",
                  "Measurement instructions actually simulated"),
    };
    return m;
}

} // namespace

ServeConfig
ServeConfig::fromConfig(const Config &cfg)
{
    ServeConfig sc;
    sc.root = cfg.getString("serve.root", sc.root);
    sc.jobs = static_cast<unsigned>(cfg.getU64("serve.jobs", sc.jobs));
    sc.useWarmCache = cfg.getBool("serve.warm_cache", sc.useWarmCache);
    sc.useResultCache =
        cfg.getBool("serve.result_cache", sc.useResultCache);
    sc.warmCacheBytes =
        cfg.getU64("serve.warm_cache_bytes", sc.warmCacheBytes);
    sc.pollMs =
        static_cast<unsigned>(cfg.getU64("serve.poll_ms", sc.pollMs));
    sc.metricsOut = cfg.getString("serve.metrics_out", sc.metricsOut);
    return sc;
}

json::Value
DrainStats::toJson() const
{
    auto v = json::Value::object();
    v.set("schema", "tdc-drain-v1");
    v.set("jobs", jobs);
    v.set("ok", ok);
    v.set("failed", failed);
    v.set("timed_out", timedOut);
    v.set("result_cache_hits", resultCacheHits);
    v.set("warm_cache_hits", warmCacheHits);
    v.set("warm_cache_misses", warmCacheMisses);
    v.set("warmup_insts_simulated", warmupInstsSimulated);
    v.set("measure_insts_simulated", measureInstsSimulated);
    v.set("wall_seconds", wallSeconds);
    return v;
}

std::string
DrainStats::summaryLine() const
{
    return format(
        "[served] drained {} job(s): {} ok, {} failed, {} timeout; "
        "result-cache hits {}, warm hits {}, warm misses {}; "
        "warmup insts simulated {}, measure insts simulated {}",
        jobs, ok, failed, timedOut, resultCacheHits, warmCacheHits,
        warmCacheMisses, warmupInstsSimulated, measureInstsSimulated);
}

SweepService::SweepService(const ServeConfig &cfg)
    : cfg_(cfg), queue_(cfg.root), warm_(cfg.root, cfg.warmCacheBytes),
      results_(cfg.root)
{
}

unsigned
SweepService::enqueue(const runner::SweepManifest &m)
{
    const unsigned spooled = queue_.enqueue(m);
    auto fields = json::Value::object();
    fields.set("manifest", m.name);
    fields.set("jobs", std::uint64_t{m.jobs.size()});
    fields.set("spooled", std::uint64_t{spooled});
    logEvent(LogLevel::Info, "enqueue", std::move(fields));
    publishMetrics();
    return spooled;
}

DrainStats
SweepService::drainOnce()
{
    const auto t0 = Clock::now();
    DrainStats st;
    std::mutex stats_mutex;

    queue_.recover();
    std::vector<QueueJob> claimed;
    while (auto job = queue_.claim())
        claimed.push_back(std::move(*job));
    st.jobs = claimed.size();

    drainMetrics().passes.inc();
    // Registers the job family before the first snapshot, so scrapers
    // see tdc_jobs_* from drain start on.
    runner::JobMetrics &job_metrics = runner::jobMetrics();
    {
        auto fields = json::Value::object();
        fields.set("jobs", st.jobs);
        logEvent(LogLevel::Info, "drain_start", std::move(fields));
    }
    publishMetrics();

    // Phase 1: result-cache replay. A cell whose (config hash, binary
    // hash) already has a stored run report completes without
    // simulating anything.
    std::vector<QueueJob> toRun;
    for (auto &job : claimed) {
        if (cfg_.useResultCache) {
            if (auto hit = results_.lookup(job.configHash)) {
                ++st.resultCacheHits;
                ++st.ok;
                auto outcome = json::Value::object();
                outcome.set("status", "ok");
                outcome.set("attempts",
                            std::uint64_t{hit->attempts});
                outcome.set("cached", true);
                queue_.complete(job, outcome);
                job_metrics.ok.inc();
                auto fields = json::Value::object();
                fields.set("id", job.id);
                fields.set("label", job.spec.label);
                logEvent(LogLevel::Debug, "job_replayed",
                         std::move(fields));
                progressLine(format("[served] cached  {:<28}",
                                    job.spec.label),
                             cfg_.progress);
                continue;
            }
        }
        toRun.push_back(std::move(job));
    }

    // Phases 2 and 3: one warm->measure pipeline, grouped by warm
    // fingerprint. Each group restores its persisted checkpoint (zero
    // warmup instructions) or warms once, publishes the checkpoint to
    // the cache and shares it across the group, exactly like
    // --warm-once within a pass. As soon as a group is warm, its jobs
    // run the measurement leg through runner::runJob, the contract
    // SweepRunner runs too. Fresh results always go to the result
    // cache (disabling the cache only disables replay, not capture).
    // Job failures live in outcomes. A result or outcome the service
    // cannot publish is a fatal() captured on its worker: runPipeline
    // lets every other job finish, so their cells are stored and done,
    // and rethrows it here, where it ends the drain with that job
    // still claimed. Any other throw out of runPipeline is a service
    // bug.
    std::vector<runner::JobSpec> specs;
    specs.reserve(toRun.size());
    for (const QueueJob &job : toRun)
        specs.push_back(job.spec);
    const auto warm = [&](const runner::WarmGroup &g) {
        if (cfg_.useWarmCache) {
            if (auto hit = warm_.lookup(g.fingerprint)) {
                {
                    std::lock_guard<std::mutex> lock(stats_mutex);
                    ++st.warmCacheHits;
                }
                progressLine(format("[served] warm hit {:<28} "
                                    "shared by {} job(s)",
                                    g.first.label, g.size),
                             cfg_.progress);
                return hit;
            }
        }
        runner::WarmState ws =
            runner::warmCheckpoint(g, "[served]", cfg_.progress);
        if (ws.ckpt != nullptr && cfg_.useWarmCache) {
            // A failed store costs a later pass a re-warm; this pass
            // still shares the checkpoint in memory.
            try {
                ScopedFatalCapture capture;
                warm_.store(*ws.ckpt, g.fingerprint);
            } catch (const std::exception &e) {
                warn("warm cache: cannot store '{}': {}", g.first.label,
                     e.what());
            }
        }
        {
            std::lock_guard<std::mutex> lock(stats_mutex);
            ++st.warmCacheMisses;
            st.warmupInstsSimulated += ws.insts;
        }
        drainMetrics().warmupInsts.inc(ws.insts);
        return std::move(ws.ckpt);
    };
    const auto measure = [&](std::size_t i, const ckpt::Checkpoint *ck) {
        ScopedFatalCapture capture;
        const QueueJob &job = toRun[i];
        const runner::JobResult r =
            runner::runJob(job.spec, job.timeoutSeconds, ck);
        {
            std::lock_guard<std::mutex> lock(stats_mutex);
            st.warmupInstsSimulated += r.warmupInsts;
            st.measureInstsSimulated += r.measureInsts;
            if (r.ok())
                ++st.ok;
            else if (r.status == runner::JobResult::Status::TimedOut)
                ++st.timedOut;
            else
                ++st.failed;
        }
        drainMetrics().warmupInsts.inc(r.warmupInsts);
        drainMetrics().measureInsts.inc(r.measureInsts);
        auto outcome = json::Value::object();
        outcome.set("status", std::string(statusName(r.status)));
        outcome.set("attempts", std::uint64_t{r.attempts});
        if (r.ok()) {
            CachedResult entry;
            entry.label = r.label;
            entry.attempts = r.attempts;
            entry.report = r.report;
            results_.store(job.configHash, entry);
            outcome.set("cached", false);
            queue_.complete(job, outcome);
        } else {
            outcome.set("error", r.error);
            queue_.fail(job, outcome);
        }
        std::string line = format("[served] {:<7} {:<28} {:.2f}s",
                                  statusName(r.status), r.label,
                                  r.wallSeconds);
        if (!r.ok())
            line += format("  {}", r.error);
        progressLine(line, cfg_.progress);
    };
    try {
        runner::runPipeline(specs, cfg_.jobs, warm, measure);
    } catch (const FatalError &e) {
        fatal("{}", e.what());
    }

    st.wallSeconds = secondsSince(t0);
    publishTelemetry((fs::path(cfg_.root) / "last-drain.json").string(),
                     [&](const std::string &staging) {
                         json::writeFile(st.toJson(), staging);
                     });
    publishMetrics();
    {
        auto fields = json::Value::object();
        fields.set("jobs", st.jobs);
        fields.set("ok", st.ok);
        fields.set("failed", st.failed);
        fields.set("timed_out", st.timedOut);
        fields.set("result_cache_hits", st.resultCacheHits);
        fields.set("warm_cache_hits", st.warmCacheHits);
        fields.set("warm_cache_misses", st.warmCacheMisses);
        fields.set("wall_seconds", st.wallSeconds);
        logEvent(LogLevel::Info, "drain_end", std::move(fields));
    }
    {
        std::lock_guard<std::mutex> lock(progressMutex());
        std::cout << st.summaryLine() << "\n";
    }
    return st;
}

void
SweepService::watch(unsigned max_passes)
{
    const fs::path stop = fs::path(cfg_.root) / "stop";
    unsigned passes = 0;
    for (;;) {
        std::error_code ec;
        if (fs::exists(stop, ec)) {
            fs::remove(stop, ec);
            inform("stop requested; leaving watch mode");
            return;
        }
        if (queue_.pendingCount() > 0 || queue_.claimedCount() > 0) {
            drainOnce();
            if (max_passes != 0 && ++passes >= max_passes)
                return;
            continue;
        }
        publishMetrics();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.pollMs));
    }
}

json::Value
SweepService::reportFor(const runner::SweepManifest &m)
{
    m.validate();
    std::vector<runner::JobResult> results;
    results.reserve(m.jobs.size());
    for (const auto &spec : m.jobs) {
        runner::JobResult r;
        r.label = spec.label;
        // peek(): report assembly must not move the replay counters
        // the drain split is measured by.
        if (auto hit = results_.peek(jobConfigHash(spec))) {
            r.status = runner::JobResult::Status::Ok;
            r.attempts = hit->attempts;
            r.report = std::move(hit->report);
            results.push_back(std::move(r));
            continue;
        }
        r.status = runner::JobResult::Status::Failed;
        r.attempts = 0;
        r.error = "no stored result for this job";
        if (auto outcome = queue_.outcomeOf(JobQueue::jobId(spec));
            outcome && outcome->isObject()) {
            if (const auto attempts = attemptsOf(*outcome))
                r.attempts = *attempts;
            if (const json::Value *e = outcome->find("error");
                e != nullptr && e->isString())
                r.error = e->asString();
            if (const json::Value *s = outcome->find("status");
                s != nullptr && s->isString()
                && s->asString() == "timeout")
                r.status = runner::JobResult::Status::TimedOut;
        }
        results.push_back(std::move(r));
    }
    return runner::SweepRunner::aggregateReport(m, results);
}

void
SweepService::publishMetrics() const
{
    queue_.updateGauges();
    warm_.updateGauges();
    results_.updateGauges();

    const std::uint64_t unix_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    const auto doc = metrics::registry().toJson(unix_ms);

    // A scraper polling metrics.json never reads a torn snapshot.
    publishTelemetry((fs::path(cfg_.root) / "metrics.json").string(),
                     [&](const std::string &staging) {
                         json::writeFile(doc, staging);
                     });
    if (cfg_.metricsOut.empty())
        return;
    publishTelemetry(cfg_.metricsOut, [](const std::string &staging) {
        std::ofstream out(staging, std::ios::trunc);
        out << metrics::registry().prometheusText();
        out.flush();
        if (!out)
            fatal("cannot write metrics text to '{}'", staging);
    });
}

json::Value
SweepService::statusJson() const
{
    auto v = json::Value::object();
    v.set("schema", "tdc-serve-status-v1");
    v.set("root", cfg_.root);
    v.set("queue", queue_.statusJson());
    v.set("warm_cache", warm_.statusJson());
    v.set("result_cache", results_.statusJson());
    return v;
}

json::Value
mergeShardReports(const runner::SweepManifest &m,
                  const std::vector<json::Value> &shardReports)
{
    m.validate();
    // Index every shard entry by label; a design point must come from
    // exactly one shard.
    std::map<std::string, const json::Value *> byLabel;
    for (const auto &shard : shardReports) {
        const json::Value *schema = shard.find("schema");
        if (schema == nullptr || !schema->isString()
            || schema->asString() != runner::sweepReportSchema)
            fatal("shard report is not a {} document",
                  runner::sweepReportSchema);
        const json::Value *jobs = shard.find("jobs");
        if (jobs == nullptr || !jobs->isArray())
            fatal("shard report has no 'jobs' array");
        for (const json::Value &entry : jobs->items()) {
            const json::Value *label = entry.find("label");
            if (label == nullptr || !label->isString())
                fatal("shard report entry has no label");
            if (!byLabel.emplace(label->asString(), &entry).second)
                fatal("job '{}' appears in more than one shard "
                      "report",
                      label->asString());
        }
    }

    auto doc = json::Value::object();
    doc.set("schema", runner::sweepReportSchema);
    doc.set("name", m.name);
    auto jobs = json::Value::array();
    for (const auto &spec : m.jobs) {
        auto it = byLabel.find(spec.label);
        if (it == byLabel.end())
            fatal("job '{}' is missing from every shard report",
                  spec.label);
        jobs.push(*it->second);
    }
    doc.set("jobs", std::move(jobs));
    return doc;
}

} // namespace serve
} // namespace tdc
