/**
 * @file
 * Executes a SweepManifest's design points on worker threads, and the
 * per-job core (runJob, runPipeline) that the sweep service runs its
 * design points through as well.
 *
 * Each job builds, runs and tears down its own System, so jobs share
 * nothing but the logging sink (which is mutex-serialized and prefixes
 * each worker's job label). The contract the golden gate depends on:
 * results come back indexed in manifest order, and aggregateReport()
 * contains no wall-clock data, so aggregated output is byte-identical
 * at any worker count.
 *
 * Failure handling per job (runJob):
 *  - an exception (including fatal(), which workers capture as
 *    FatalError) marks the job Failed. If that attempt restored a
 *    warm checkpoint, one automatic retry runs warmup + measure in
 *    full, so a corrupt shared state cannot fail a job permanently;
 *    a failed full run is final, since a deterministic re-run would
 *    fail the same way. The last failure is reported with its message;
 *  - a job whose wall time exceeds the manifest's timeout_seconds is
 *    reported TimedOut (checked after the run completes -- a System
 *    cannot be interrupted mid-simulation) and is not retried;
 *  - panic() / tdc_assert still abort the process: an internal
 *    invariant violation is never a per-job condition.
 */

#ifndef TDC_RUNNER_SWEEP_RUNNER_HH
#define TDC_RUNNER_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/json.hh"
#include "metrics/registry.hh"
#include "runner/sweep.hh"
#include "sys/system.hh"

namespace tdc {
namespace runner {

struct JobResult
{
    enum class Status { Ok, Failed, TimedOut };

    Status status = Status::Failed;
    std::string label;
    std::string error;      //!< last failure message (Failed/TimedOut)
    unsigned attempts = 0;
    double wallSeconds = 0.0; //!< last attempt's simulation wall time
    double kips = 0.0;        //!< host throughput: insts / wall / 1000

    /** Instructions the final attempt simulated, by leg (Ok and
     *  TimedOut only; a restored warm state simulates no warmup). */
    std::uint64_t warmupInsts = 0;
    std::uint64_t measureInsts = 0;

    RunResult result;       //!< valid when status == Ok
    json::Value report;     //!< tdc-run-report-v1 (meta + result)

    bool ok() const { return status == Status::Ok; }
};

/** Stable lower-case token for reports ("ok", "failed", "timeout"). */
std::string_view statusName(JobResult::Status s);

struct SweepOptions
{
    /** Worker threads; 0 means min(#jobs, hardware_concurrency). */
    unsigned jobs = 0;

    /** Per-completion progress lines on stderr. */
    bool progress = true;

    /**
     * Timing repetitions per job (median-of-N wall clock / KIPS).
     * Results are deterministic, so only the first repetition's
     * simulation output is kept; extra repetitions re-run the same
     * design point purely to stabilize the host-timing estimate.
     */
    unsigned repeat = 1;

    /**
     * "Warm once, restore many": jobs whose warm-relevant
     * configuration hashes (warmFingerprint) match are grouped; one
     * System per group runs the warmup and is checkpointed in memory,
     * and every job in the group measures from the restored state
     * (runPipeline).
     * Aggregated output is byte-identical to the non-shared path at
     * any worker count; a group whose warm run fails falls back to
     * full per-job runs.
     */
    bool shareWarmups = false;
};

class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opt = {}) : opt_(opt) {}

    /**
     * Runs every job and returns results in manifest order. Blocks
     * until all jobs finish; a failed point is reported in its slot
     * rather than aborting the sweep.
     */
    std::vector<JobResult> run(const SweepManifest &manifest) const;

    /**
     * Aggregates into a tdc-sweep-report-v1 document: one entry per
     * job, manifest order. By default no timing is included, so the
     * document is byte-deterministic at any -j; include_timing adds a
     * per-job "timing" block (wall seconds, KIPS) for profiling runs
     * that accept host-dependent output.
     */
    static json::Value
    aggregateReport(const SweepManifest &manifest,
                    const std::vector<JobResult> &results,
                    bool include_timing = false);

    /** TDC_JOBS from the environment, or def when unset/invalid. */
    static unsigned envJobs(unsigned def = 0);

    /** The worker count run() would use for n jobs. */
    unsigned effectiveWorkers(std::size_t n) const;

  private:
    SweepOptions opt_;
};

/**
 * Runs one design point under the per-job contract above. Each
 * attempt runs under ScopedFatalCapture; with `warm`, attempt 1
 * restores it and runs only the measurement leg, and attempt 2 (only
 * after a failed attempt 1) runs in full. `repeat` > 1 re-runs
 * an ok job for a median-of-N wall time. Counts the job into
 * jobMetrics() and logs one `job_done` event.
 */
JobResult runJob(const JobSpec &job, double timeout_s,
                 const ckpt::Checkpoint *warm = nullptr,
                 unsigned repeat = 1);

/** The job-metric family (DESIGN.md 11) runJob() counts into; the
 *  sweep service also counts result-cache replays into `ok`. */
struct JobMetrics
{
    metrics::Counter &ok;
    metrics::Counter &failed;
    metrics::Counter &timeout;
    metrics::Counter &retries;
    metrics::Histogram &wall;
    metrics::Histogram &kips;
};

JobMetrics &jobMetrics();

/** One warm group, as runPipeline() hands it to its warm callback. */
struct WarmGroup
{
    const JobSpec &first;      //!< first member in job order
    std::uint64_t fingerprint; //!< the members' warmFingerprint()
    std::size_t size;          //!< member count
};

using WarmFn = std::function<std::shared_ptr<const ckpt::Checkpoint>(
    const WarmGroup &)>;

/** Runs job i; `warm` is its group's checkpoint, or null. */
using JobFn =
    std::function<void(std::size_t i, const ckpt::Checkpoint *warm)>;

/**
 * The warm->measure pipeline: calls run(i, ck) once for every job i
 * on `requested` threads (0: one per hardware thread; never more
 * than #jobs), and returns when every call has finished.
 *
 * With `warm` ("warm once, restore many"), jobs are grouped by
 * warmFingerprint() and warm() runs once per group under the log
 * label "warm <first label>"; the group's jobs then measure from the
 * checkpoint it returned. Members differ only in measure-phase
 * configuration, so that checkpoint is exactly the state each
 * member's own warmup would produce. Without `warm`, every job is
 * ready at once and runs with a null checkpoint.
 *
 * Scheduling: a free worker takes a ready job first (groups in the
 * order their warm finished, job order within a group), else starts
 * the next warm (groups ordered by first member). A job holds its
 * group's checkpoint only until run() returns. Invariant: when a warm
 * starts no job is waiting, so every other live checkpoint belongs to
 * a job running on another worker; at most one checkpoint per worker
 * is alive, whatever the number of groups. A worker with nothing to
 * take waits while any warm is in flight, since that warm will queue
 * jobs.
 *
 * Failures: a null checkpoint from warm() runs its group's jobs in
 * full (run() gets null); a group whose warm() threw runs no jobs; an
 * exception escaping run() or warm() is rethrown here after every
 * other task has finished, the first by job index (a warm counts at
 * its group's first member).
 */
void runPipeline(const std::vector<JobSpec> &jobs, unsigned requested,
                 const WarmFn &warm, const JobFn &run);

/** A warm group's shared state: what warmCheckpoint() produced. */
struct WarmState
{
    std::shared_ptr<const ckpt::Checkpoint> ckpt; //!< null on failure
    std::uint64_t insts = 0; //!< warmup instructions simulated
};

/**
 * Runs the warmup leg of g.first (warmSystemConfig) and checkpoints
 * it in memory. A failed warm run warns and returns a null state; the
 * group's jobs then run in full. With `progress`, logs one
 * "<tag> warm" line.
 */
WarmState warmCheckpoint(const WarmGroup &g, std::string_view tag,
                         bool progress);

/** Schema tag of aggregated sweep reports. */
inline constexpr const char *sweepReportSchema = "tdc-sweep-report-v1";

} // namespace runner
} // namespace tdc

#endif // TDC_RUNNER_SWEEP_RUNNER_HH
