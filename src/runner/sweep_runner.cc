#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/event_log.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "metrics/registry.hh"
#include "sys/report.hh"

namespace tdc {
namespace runner {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Per-completion progress, via the timestamped leveled sink (and
 *  the JSONL mirror when a sink is attached). */
void
progressLine(const JobResult &r, unsigned done, unsigned total)
{
    std::string line =
        format("[sweep] ({}/{}) {:<7} {:<28} {:.2f}s", done, total,
               statusName(r.status), r.label, r.wallSeconds);
    if (r.ok() && r.kips > 0.0)
        line += format("  {:.0f} KIPS", r.kips);
    if (r.attempts > 1)
        line += format(" (attempt {})", r.attempts);
    if (!r.ok())
        line += format("  {}", r.error);
    inform("{}", line);
}

/** Median of a non-empty sample set (midpoint average for even n). */
double
medianOf(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

/**
 * Worker threads for n tasks: `requested`, or hardware_concurrency()
 * when it is 0, clamped to [1, n].
 */
unsigned
workerCount(unsigned requested, std::size_t n)
{
    unsigned workers =
        requested != 0 ? requested : std::thread::hardware_concurrency();
    if (n > 0 && workers > n)
        workers = static_cast<unsigned>(n);
    return std::max(workers, 1u);
}

/**
 * One simulation of cfg: the measurement leg from `warm` when given,
 * else warmup + measure in full. Sets `warmed` to the warmup
 * instructions it simulated.
 */
RunResult
simulate(const SystemConfig &cfg, const ckpt::Checkpoint *warm,
         std::uint64_t &warmed)
{
    System sys(cfg);
    if (warm != nullptr) {
        warmed = 0;
        sys.restoreCheckpoint(*warm);
        return sys.measure();
    }
    warmed = std::uint64_t{sys.activeCores()} * cfg.warmupInsts;
    return sys.run();
}

/** Counts a finished job into jobMetrics() and logs `job_done`. */
void
recordJob(const JobResult &r)
{
    JobMetrics &m = jobMetrics();
    if (r.ok()) {
        m.ok.inc();
        m.kips.observe(r.kips);
    } else if (r.status == JobResult::Status::TimedOut) {
        m.timeout.inc();
    } else {
        m.failed.inc();
    }
    if (r.attempts > 1)
        m.retries.inc(r.attempts - 1);
    m.wall.observe(r.wallSeconds);

    auto fields = json::Value::object();
    fields.set("label", r.label);
    fields.set("status", std::string(statusName(r.status)));
    fields.set("attempts", std::uint64_t{r.attempts});
    fields.set("wall_seconds", r.wallSeconds);
    if (r.ok())
        fields.set("kips", r.kips);
    else
        fields.set("error", r.error);
    logEvent(r.ok() ? LogLevel::Info : LogLevel::Warn, "job_done",
             std::move(fields));
}

} // namespace

std::string_view
statusName(JobResult::Status s)
{
    switch (s) {
      case JobResult::Status::Ok: return "ok";
      case JobResult::Status::Failed: return "failed";
      case JobResult::Status::TimedOut: return "timeout";
    }
    return "?";
}

JobMetrics &
jobMetrics()
{
    auto &r = metrics::registry();
    static JobMetrics m{
        r.counter("tdc_jobs_ok_total",
                  "Jobs completed ok (replayed or simulated)"),
        r.counter("tdc_jobs_failed_total", "Jobs that failed"),
        r.counter("tdc_jobs_timeout_total",
                  "Jobs that exceeded their wall-time budget"),
        r.counter("tdc_job_retries_total",
                  "Extra attempts beyond each job's first"),
        r.histogram("tdc_job_wall_seconds",
                    "Per-job wall time of simulated (non-replayed) "
                    "jobs",
                    {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                     10.0, 30.0, 60.0, 120.0, 300.0}),
        r.histogram("tdc_job_kips",
                    "Per-job simulation throughput (kilo-insts/s)",
                    {50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0,
                     6400.0, 12800.0, 25600.0}),
    };
    return m;
}

JobResult
runJob(const JobSpec &job, double timeout_s,
       const ckpt::Checkpoint *warm, unsigned repeat)
{
    ScopedLogLabel log_label(job.label);
    JobResult r;
    r.label = job.label;
    // Only a restored attempt is retried, in full, so a corrupt shared
    // warm state can never fail a job permanently. A full run is
    // deterministic: its retry would repeat the failure.
    const unsigned max_attempts = warm != nullptr ? 2 : 1;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        r.attempts = attempt;
        const ckpt::Checkpoint *restore = attempt == 1 ? warm : nullptr;
        const auto t0 = Clock::now();
        try {
            // fatal() inside System construction or the run (bad
            // workload, bad override) throws FatalError here instead
            // of exiting the process.
            ScopedFatalCapture capture;
            const SystemConfig cfg = job.toSystemConfig();
            std::uint64_t warmed = 0;
            RunResult rr = simulate(cfg, restore, warmed);
            r.wallSeconds = secondsSince(t0);
            if (timeout_s > 0.0 && r.wallSeconds > timeout_s) {
                r.status = JobResult::Status::TimedOut;
                r.error = format(
                    "wall time {:.2f}s exceeded timeout {:.2f}s",
                    r.wallSeconds, timeout_s);
                r.warmupInsts = warmed;
                r.measureInsts = rr.totalInsts;
                break; // retrying would blow the budget again
            }
            if (repeat > 1) {
                // Median-of-N timing: the simulation is deterministic,
                // so extra repetitions only firm up the host timing.
                std::vector<double> walls{r.wallSeconds};
                for (unsigned rep = 1; rep < repeat; ++rep) {
                    const auto rt0 = Clock::now();
                    std::uint64_t ignored = 0;
                    simulate(cfg, restore, ignored);
                    walls.push_back(secondsSince(rt0));
                }
                r.wallSeconds = medianOf(std::move(walls));
            }
            r.kips = r.wallSeconds > 0.0
                         ? static_cast<double>(rr.totalInsts)
                               / r.wallSeconds / 1000.0
                         : 0.0;
            r.report = makeRunReport(cfg, rr);
            r.result = std::move(rr);
            r.status = JobResult::Status::Ok;
            r.error.clear();
            r.warmupInsts = warmed;
            r.measureInsts = r.result.totalInsts;
            break;
        } catch (const std::exception &e) {
            r.wallSeconds = secondsSince(t0);
            r.status = JobResult::Status::Failed;
            r.error = e.what();
        } catch (...) {
            r.wallSeconds = secondsSince(t0);
            r.status = JobResult::Status::Failed;
            r.error = "unknown exception";
        }
    }
    recordJob(r);
    return r;
}

void
runPipeline(const std::vector<JobSpec> &jobs, unsigned requested,
            const WarmFn &warm, const JobFn &run)
{
    if (jobs.empty())
        return;
    using CkptRef = std::shared_ptr<const ckpt::Checkpoint>;
    struct Group
    {
        std::uint64_t fingerprint;
        std::vector<std::size_t> members; //!< job order
    };
    struct ReadyJob
    {
        std::size_t job;
        CkptRef ckpt;
    };

    // Groups in order of first appearance, so a group's first member
    // is always the earliest job of its fingerprint.
    std::vector<Group> groups;
    std::deque<ReadyJob> ready;
    if (warm) {
        std::map<std::uint64_t, std::size_t> index;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::uint64_t fp =
                warmFingerprint(jobs[i].toSystemConfig());
            auto [it, fresh] = index.emplace(fp, groups.size());
            if (fresh)
                groups.push_back({fp, {}});
            groups[it->second].members.push_back(i);
        }
    } else {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            ready.push_back({i, nullptr});
    }

    std::mutex mutex; // guards ready, next_warm and warming
    std::condition_variable cv;
    std::size_t next_warm = 0;
    unsigned warming = 0; // warms in flight
    // One slot per job, each written by at most one worker.
    std::vector<std::exception_ptr> errors(jobs.size());

    auto worker = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            if (!ready.empty()) {
                ReadyJob r = std::move(ready.front());
                ready.pop_front();
                lock.unlock();
                try {
                    run(r.job, r.ckpt.get());
                } catch (...) {
                    errors[r.job] = std::current_exception();
                }
                r.ckpt.reset(); // the job's hold ends with run()
                lock.lock();
            } else if (next_warm < groups.size()) {
                // No job is waiting, so every live checkpoint but the
                // one this warm makes has a job running elsewhere.
                const Group &g = groups[next_warm++];
                ++warming;
                lock.unlock();
                const JobSpec &first = jobs[g.members.front()];
                const WarmGroup wg{first, g.fingerprint, g.members.size()};
                CkptRef ck;
                std::exception_ptr err;
                try {
                    ScopedLogLabel log_label("warm " + first.label);
                    ck = warm(wg);
                } catch (...) {
                    err = std::current_exception();
                }
                lock.lock();
                --warming;
                if (err != nullptr)
                    errors[g.members.front()] = err;
                else
                    for (std::size_t i : g.members)
                        ready.push_back({i, ck});
                cv.notify_all();
            } else if (warming == 0) {
                return;
            } else {
                cv.wait(lock, [&] { return !ready.empty() || warming == 0; });
            }
        }
    };
    {
        // jthread joins on destruction, on the exception path too.
        std::vector<std::jthread> workers;
        const unsigned n = workerCount(requested, jobs.size());
        for (unsigned t = 0; t < n; ++t)
            workers.emplace_back(worker);
    }
    for (const auto &e : errors)
        if (e != nullptr)
            std::rethrow_exception(e);
}

WarmState
warmCheckpoint(const WarmGroup &g, std::string_view tag, bool progress)
{
    const auto t0 = Clock::now();
    try {
        ScopedFatalCapture capture;
        System sys(warmSystemConfig(g.first));
        sys.warmup();
        WarmState ws;
        ws.insts =
            std::uint64_t{sys.activeCores()} * sys.config().warmupInsts;
        ws.ckpt = std::make_shared<const ckpt::Checkpoint>(
            sys.makeCheckpoint());
        if (progress) {
            inform("{} warm    {:<28} {:.2f}s  shared by {} job(s)", tag,
                   g.first.label, secondsSince(t0), g.size);
        }
        return ws;
    } catch (const std::exception &e) {
        warn("warm run for '{}' failed ({}); its {} job(s) run unshared",
             g.first.label, e.what(), g.size);
        return {};
    }
}

unsigned
SweepRunner::envJobs(unsigned def)
{
    const char *env = std::getenv("TDC_JOBS");
    if (env == nullptr || *env == '\0')
        return def;
    char *end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || v == 0) {
        warn("ignoring malformed TDC_JOBS='{}'", env);
        return def;
    }
    return static_cast<unsigned>(v);
}

unsigned
SweepRunner::effectiveWorkers(std::size_t n) const
{
    return workerCount(opt_.jobs, n);
}

std::vector<JobResult>
SweepRunner::run(const SweepManifest &manifest) const
{
    manifest.validate();
    const std::size_t n = manifest.jobs.size();
    WarmFn warm;
    if (opt_.shareWarmups) {
        warm = [this](const WarmGroup &g) {
            return warmCheckpoint(g, "[sweep]", opt_.progress).ckpt;
        };
    }

    std::vector<JobResult> results(n);
    std::atomic<unsigned> done{0};
    const unsigned repeat = std::max(opt_.repeat, 1u);
    const auto measure = [&](std::size_t i, const ckpt::Checkpoint *ck) {
        JobResult &r = results[i];
        r = runJob(manifest.jobs[i], manifest.timeoutSeconds, ck, repeat);
        const unsigned d = ++done;
        if (opt_.progress)
            progressLine(r, d, static_cast<unsigned>(n));
    };
    // A throw out of runPipeline is a runner bug; job failures live
    // in results.
    runPipeline(manifest.jobs, opt_.jobs, warm, measure);
    return results;
}

json::Value
SweepRunner::aggregateReport(const SweepManifest &manifest,
                             const std::vector<JobResult> &results,
                             bool include_timing)
{
    tdc_assert(manifest.jobs.size() == results.size(),
               "result count does not match manifest");
    auto doc = json::Value::object();
    doc.set("schema", sweepReportSchema);
    doc.set("name", manifest.name);
    auto jobs = json::Value::array();
    for (const auto &r : results) {
        auto entry = json::Value::object();
        entry.set("label", r.label);
        entry.set("status", statusName(r.status));
        entry.set("attempts", std::uint64_t{r.attempts});
        if (r.ok())
            entry.set("report", r.report);
        else
            entry.set("error", r.error);
        if (include_timing) {
            auto timing = json::Value::object();
            timing.set("wall_seconds", r.wallSeconds);
            timing.set("kips", r.kips);
            entry.set("timing", std::move(timing));
        }
        jobs.push(std::move(entry));
    }
    doc.set("jobs", std::move(jobs));
    return doc;
}

} // namespace runner
} // namespace tdc
