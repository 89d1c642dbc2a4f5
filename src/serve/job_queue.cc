#include "serve/job_queue.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "ckpt/checkpoint.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "common/publish.hh"
#include "metrics/registry.hh"
#include "serve/cache_key.hh"

namespace fs = std::filesystem;

namespace tdc {
namespace serve {

namespace {

constexpr const char *states[] = {"pending", "claimed", "done",
                                  "failed"};

/** Queue metrics (DESIGN.md 11 catalog). */
struct QueueMetrics
{
    metrics::Counter &enqueued;
    metrics::Counter &recovered;
    metrics::Counter &corrupt;
    metrics::Counter &gcPasses;
    metrics::Counter &gcRemoved;
    metrics::Gauge &pending;
    metrics::Gauge &claimed;
    metrics::Gauge &done;
    metrics::Gauge &failed;
};

QueueMetrics &
queueMetrics()
{
    auto &r = metrics::registry();
    static QueueMetrics m{
        r.counter("tdc_queue_enqueued_total",
                  "Job files newly spooled into pending/"),
        r.counter("tdc_queue_recovered_total",
                  "Orphaned claims requeued by recover()"),
        r.counter("tdc_queue_corrupt_jobs_total",
                  "Unparseable job files moved to failed/"),
        r.counter("tdc_gc_passes_total",
                  "Retention sweeps over done/ and failed/"),
        r.counter("tdc_gc_removed_total",
                  "Spool records removed by retention sweeps"),
        r.gauge("tdc_queue_pending", "Jobs waiting in pending/"),
        r.gauge("tdc_queue_claimed", "Jobs owned by a running drain"),
        r.gauge("tdc_queue_done", "Completed job records in done/"),
        r.gauge("tdc_queue_failed",
                "Failed or timed-out job records in failed/"),
    };
    return m;
}

fs::path
stateDir(const std::string &dir, const std::string &state)
{
    return fs::path(dir) / state;
}

/** Publishes a spool record into `state`, staged in tmp/ so no
 *  state directory ever lists a half-written job file. */
void
publishRecord(const std::string &dir, const std::string &file,
              const json::Value &doc, const std::string &state)
{
    publishFile((stateDir(dir, state) / file).string(),
                [&](const std::string &staging) {
                    json::writeFile(doc, staging);
                },
                (fs::path(dir) / "tmp").string());
}

/** Sorted file names (not paths) in one state directory. */
std::vector<std::string>
listState(const std::string &dir, const std::string &state)
{
    std::vector<std::string> names;
    for (FileEntry &f : listFiles(stateDir(dir, state).string()))
        names.push_back(std::move(f.name));
    return names;
}

} // namespace

JobQueue::JobQueue(const std::string &root)
    : dir_((fs::path(root) / "queue").string())
{
    std::error_code ec;
    for (const char *state : states)
        fs::create_directories(stateDir(dir_, state), ec);
    fs::create_directories(fs::path(dir_) / "tmp", ec);
    if (ec)
        fatal("job queue: cannot create spool under '{}': {}", dir_,
              ec.message());
}

std::string
JobQueue::jobId(const runner::JobSpec &spec)
{
    return format("{}-{}", runner::sanitizeJobLabel(spec.label),
                  ckpt::hex16(jobConfigHash(spec)));
}

unsigned
JobQueue::enqueue(const runner::SweepManifest &m)
{
    m.validate();
    unsigned spooled = 0;
    for (const auto &spec : m.jobs) {
        const std::string id = jobId(spec);
        const std::string file = id + ".json";
        std::error_code ec;
        if (fs::exists(stateDir(dir_, "pending") / file, ec)
            || fs::exists(stateDir(dir_, "claimed") / file, ec))
            continue; // already in flight
        // A finished record is superseded: this enqueue asks for the
        // cell to be produced again (cheaply, via the result cache).
        fs::remove(stateDir(dir_, "done") / file, ec);
        fs::remove(stateDir(dir_, "failed") / file, ec);

        auto doc = json::Value::object();
        doc.set("schema", jobQueueSchema);
        doc.set("id", id);
        doc.set("label", spec.label);
        doc.set("config_hash",
                ckpt::hex16(jobConfigHash(spec)));
        doc.set("binary_hash", ckpt::hex16(binaryHash()));
        doc.set("manifest", m.name);
        doc.set("timeout_seconds", m.timeoutSeconds);
        doc.set("spec", spec.toJson());
        publishRecord(dir_, file, doc, "pending");
        ++spooled;
    }
    queueMetrics().enqueued.inc(spooled);
    return spooled;
}

unsigned
JobQueue::recover()
{
    unsigned requeued = 0;
    for (const std::string &file : listState(dir_, "claimed")) {
        std::error_code ec;
        const bool finished =
            fs::exists(stateDir(dir_, "done") / file, ec)
            || fs::exists(stateDir(dir_, "failed") / file, ec);
        if (finished) {
            // Crash between publishing the outcome and unlinking the
            // claim: the work is done, drop the stale claim.
            fs::remove(stateDir(dir_, "claimed") / file, ec);
            continue;
        }
        fs::rename(stateDir(dir_, "claimed") / file,
                   stateDir(dir_, "pending") / file, ec);
        if (ec) {
            warn("job queue: cannot requeue '{}': {}", file,
                 ec.message());
            continue;
        }
        ++requeued;
    }
    queueMetrics().recovered.inc(requeued);
    return requeued;
}

std::optional<QueueJob>
JobQueue::claim()
{
    for (;;) {
        const auto names = listState(dir_, "pending");
        if (names.empty())
            return std::nullopt;
        const std::string &file = names.front();
        const fs::path claimed = stateDir(dir_, "claimed") / file;
        std::error_code ec;
        fs::rename(stateDir(dir_, "pending") / file, claimed, ec);
        if (ec)
            continue; // raced with another claimer; rescan

        std::string err;
        const auto doc = json::tryReadFile(claimed.string(), &err);
        QueueJob job;
        job.id = file.substr(0, file.size() - 5); // strip ".json"
        if (doc && doc->isObject()) {
            try {
                const json::Value *spec = doc->find("spec");
                if (spec == nullptr)
                    throw runner::ManifestError(
                        "job file has no 'spec'");
                // Reuse the manifest parser for one explicit job.
                // Its timeout goes through the same parser, which
                // rejects a mistyped one with ManifestError.
                auto wrapper = json::Value::object();
                wrapper.set("schema", runner::sweepManifestSchema);
                if (const json::Value *t =
                        doc->find("timeout_seconds"))
                    wrapper.set("timeout_seconds", *t);
                auto jobs = json::Value::array();
                jobs.push(*spec);
                wrapper.set("jobs", std::move(jobs));
                auto mini = runner::SweepManifest::fromJson(wrapper);
                job.spec = mini.jobs.at(0);
                job.timeoutSeconds = mini.timeoutSeconds;
                if (const json::Value *mn = doc->find("manifest");
                    mn != nullptr && mn->isString())
                    job.manifestName = mn->asString();
                job.configHash = jobConfigHash(job.spec);
                return job;
            } catch (const std::exception &e) {
                err = e.what();
            }
        }
        // Unparseable job file: fail it (with the reason recorded)
        // and keep draining the rest of the spool.
        warn("job queue: corrupt job file '{}': {}", file, err);
        queueMetrics().corrupt.inc();
        auto outcome = json::Value::object();
        outcome.set("status", "failed");
        outcome.set("attempts", 0);
        outcome.set("error", format("corrupt job file: {}", err));
        fail(job, outcome);
    }
}

void
JobQueue::finish(const QueueJob &job, const json::Value &outcome,
                 const std::string &state)
{
    const std::string file = job.id + ".json";
    const fs::path claimed = stateDir(dir_, "claimed") / file;

    // Re-publish the claimed document with the outcome embedded; a
    // missing/corrupt claim (failed parse path) degrades to a stub.
    json::Value doc;
    if (auto read = json::tryReadFile(claimed.string());
        read && read->isObject()) {
        doc = std::move(*read);
    } else {
        doc = json::Value::object();
        doc.set("schema", jobQueueSchema);
        doc.set("id", job.id);
        doc.set("label", job.spec.label);
    }
    doc.set("outcome", outcome);
    publishRecord(dir_, file, doc, state);
    std::error_code ec;
    fs::remove(claimed, ec);
}

void
JobQueue::complete(const QueueJob &job, const json::Value &outcome)
{
    finish(job, outcome, "done");
}

void
JobQueue::fail(const QueueJob &job, const json::Value &outcome)
{
    finish(job, outcome, "failed");
}

std::optional<json::Value>
JobQueue::outcomeOf(const std::string &id) const
{
    for (const char *state : {"done", "failed"}) {
        const fs::path p = stateDir(dir_, state) / (id + ".json");
        std::error_code ec;
        if (!fs::exists(p, ec))
            continue;
        if (auto doc = json::tryReadFile(p.string());
            doc && doc->isObject()) {
            if (const json::Value *outcome = doc->find("outcome"))
                return *outcome;
        }
    }
    return std::nullopt;
}

unsigned
JobQueue::gc(std::size_t keep)
{
    unsigned removed = 0;
    for (const char *state : {"done", "failed"}) {
        auto records = listFiles(stateDir(dir_, state).string());
        // Newest first; listFiles()' name order breaks mtime ties, so
        // same-mtime records (coarse filesystems) prune reproducibly.
        std::ranges::stable_sort(records, std::ranges::greater{},
                                 &FileEntry::mtime);
        for (std::size_t i = keep; i < records.size(); ++i) {
            std::error_code ec;
            fs::remove(stateDir(dir_, state) / records[i].name, ec);
            if (ec) {
                warn("job queue: gc cannot remove '{}': {}",
                     records[i].name, ec.message());
                continue;
            }
            ++removed;
        }
    }
    queueMetrics().gcPasses.inc();
    queueMetrics().gcRemoved.inc(removed);
    return removed;
}

std::size_t
JobQueue::pendingCount() const
{
    return listState(dir_, "pending").size();
}

std::size_t
JobQueue::claimedCount() const
{
    return listState(dir_, "claimed").size();
}

std::size_t
JobQueue::doneCount() const
{
    return listState(dir_, "done").size();
}

std::size_t
JobQueue::failedCount() const
{
    return listState(dir_, "failed").size();
}

json::Value
JobQueue::statusJson() const
{
    auto v = json::Value::object();
    v.set("schema", jobQueueSchema);
    v.set("dir", dir_);
    v.set("pending", std::uint64_t{pendingCount()});
    v.set("claimed", std::uint64_t{claimedCount()});
    v.set("done", std::uint64_t{doneCount()});
    v.set("failed", std::uint64_t{failedCount()});
    return v;
}

void
JobQueue::updateGauges() const
{
    QueueMetrics &m = queueMetrics();
    m.pending.set(static_cast<std::int64_t>(pendingCount()));
    m.claimed.set(static_cast<std::int64_t>(claimedCount()));
    m.done.set(static_cast<std::int64_t>(doneCount()));
    m.failed.set(static_cast<std::int64_t>(failedCount()));
}

} // namespace serve
} // namespace tdc
