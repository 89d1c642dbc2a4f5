/**
 * @file
 * Persistent on-disk job queue for the resident sweep service
 * (`tdc-jobqueue-v1`).
 *
 * The queue is a spool directory with one JSON job file per design
 * point and a four-state lifecycle encoded purely in the file's
 * directory:
 *
 *     <queue>/pending/<id>.json    enqueued, waiting for a worker
 *     <queue>/claimed/<id>.json    owned by a running drain
 *     <queue>/done/<id>.json       completed (outcome embedded)
 *     <queue>/failed/<id>.json     failed or timed out (outcome
 *                                  embedded)
 *     <queue>/tmp/                 staging for atomic publication
 *
 * Every transition is atomic on one filesystem: enqueue publishes
 * into pending/ through publishFile(), staged in tmp/; claim renames
 * pending -> claimed; complete/fail publish the outcome file into
 * done|failed/ the same way, then unlink the claimed entry. A crash
 * at any point leaves the spool recoverable: recover() moves orphaned
 * claimed/ entries back to pending/ (or drops them when their outcome
 * file already exists -- the crash happened between publishing the
 * outcome and unlinking the claim), so a killed daemon resumes
 * cleanly and never loses or duplicates a job.
 *
 * Job ids are deterministic -- "<sanitized-label>-<config-hash>" --
 * so re-enqueueing a manifest is idempotent for jobs already pending
 * or claimed, and re-enqueueing a finished job supersedes its old
 * outcome and runs it again (the result cache, not the queue, is what
 * makes re-runs cheap).
 */

#ifndef TDC_SERVE_JOB_QUEUE_HH
#define TDC_SERVE_JOB_QUEUE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "runner/sweep.hh"

namespace tdc {
namespace serve {

/** Schema tag stamped into every spooled job file. */
inline constexpr const char *jobQueueSchema = "tdc-jobqueue-v1";

/** One claimed unit of work. */
struct QueueJob
{
    std::string id;
    runner::JobSpec spec;
    std::string manifestName;
    double timeoutSeconds = 0.0;
    std::uint64_t configHash = 0;
};

class JobQueue
{
  public:
    /** Opens (creating if needed) the spool under <root>/queue. */
    explicit JobQueue(const std::string &root);

    /** The deterministic spool id of a design point. */
    static std::string jobId(const runner::JobSpec &spec);

    /**
     * Spools one job file per manifest job. Jobs already pending or
     * claimed are left untouched; done/failed records with the same
     * id are superseded (the job runs again). Returns the number of
     * files newly placed in pending/.
     */
    unsigned enqueue(const runner::SweepManifest &m);

    /**
     * Crash recovery: every orphaned claimed/ entry goes back to
     * pending/, except entries whose done/failed outcome already
     * exists (those are dropped -- the previous daemon died between
     * publishing the outcome and unlinking the claim). Returns the
     * number of jobs requeued.
     */
    unsigned recover();

    /**
     * Claims the lexicographically first pending job (pending ->
     * claimed) and parses it; std::nullopt when the spool is empty.
     * A job file that fails to parse is moved to failed/ with the
     * parse error as its outcome, and claiming continues.
     */
    std::optional<QueueJob> claim();

    /** claimed -> done, embedding `outcome` under "outcome". */
    void complete(const QueueJob &job, const json::Value &outcome);

    /** claimed -> failed, embedding `outcome` under "outcome". */
    void fail(const QueueJob &job, const json::Value &outcome);

    /** The stored outcome of a finished job ("outcome" member of the
     *  done/failed record), or nullopt when the job has neither. */
    std::optional<json::Value> outcomeOf(const std::string &id) const;

    /**
     * Retention sweep: keeps the `keep` most recent records (by
     * mtime, newest first, ties by name) in each of done/ and
     * failed/ and removes the rest. Returns the number of spool
     * files removed. Bumps the tdc_gc_* metrics.
     */
    unsigned gc(std::size_t keep);

    std::size_t pendingCount() const;
    std::size_t claimedCount() const;
    std::size_t doneCount() const;
    std::size_t failedCount() const;

    /** {pending, claimed, done, failed} counts for --status. */
    json::Value statusJson() const;

    /** Refreshes the tdc_queue_* depth gauges from the spool. */
    void updateGauges() const;

    const std::string &dir() const { return dir_; }

  private:
    void finish(const QueueJob &job, const json::Value &outcome,
                const std::string &state);

    std::string dir_;
};

} // namespace serve
} // namespace tdc

#endif // TDC_SERVE_JOB_QUEUE_HH
