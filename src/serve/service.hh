/**
 * @file
 * Resident sweep service: ties the persistent job queue, the
 * cross-invocation warm-checkpoint cache and the incremental result
 * cache together into a drainable daemon (DESIGN.md 10).
 *
 * A drain pass is two phases:
 *
 *  1. result-cache replay -- any claimed job whose (config hash,
 *     binary hash) already has a stored run report completes
 *     immediately, simulating nothing;
 *  2. warm->measure pipeline (runner::runPipeline) -- the remaining
 *     jobs are grouped by warmFingerprint(); each group either
 *     restores its persisted warm checkpoint from the cache
 *     (simulating zero warmup instructions) or runs one warmup,
 *     checkpoints it, and publishes the checkpoint for every later
 *     invocation. Once its group is warm, each job runs through
 *     runner::runJob(), the job core SweepRunner uses: it restores
 *     the group's checkpoint and runs the measurement leg (restored
 *     measure() is byte-identical to a straight run, so reports match
 *     tdc_sweep exactly). At most one checkpoint per worker is alive.
 *
 * reportFor() reassembles a tdc-sweep-report-v1 document for a
 * manifest purely from stored state, and mergeShardReports()
 * recombines per-shard reports into the document a single direct run
 * would have produced, byte for byte.
 */

#ifndef TDC_SERVE_SERVICE_HH
#define TDC_SERVE_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "runner/sweep.hh"
#include "serve/job_queue.hh"
#include "serve/result_cache.hh"
#include "serve/warm_cache.hh"

namespace tdc {
namespace serve {

struct ServeConfig
{
    /** Service state root: queue/, warm/, results/ live underneath. */
    std::string root = ".tdc-serve";

    /** Worker threads; 0 means min(#jobs, hardware_concurrency). */
    unsigned jobs = 0;

    /** Per-completion progress lines on stderr. */
    bool progress = true;

    /** Restore persisted warm checkpoints instead of re-warming. */
    bool useWarmCache = true;

    /** Replay stored run reports instead of re-simulating. */
    bool useResultCache = true;

    /** Warm-cache byte budget (LRU-evicted past this). */
    std::uint64_t warmCacheBytes = 4ULL << 30;

    /** Watch-mode poll interval. */
    unsigned pollMs = 500;

    /** Optional Prometheus text exposition file; empty disables. */
    std::string metricsOut;

    /** Applies serve.* dotted overrides from a parsed Config. */
    static ServeConfig fromConfig(const Config &cfg);
};

/** What one drain pass did; embedded in <root>/last-drain.json. */
struct DrainStats
{
    std::uint64_t jobs = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;

    std::uint64_t resultCacheHits = 0;
    std::uint64_t warmCacheHits = 0;
    std::uint64_t warmCacheMisses = 0;

    /** Instructions actually simulated this pass, split by leg. A
     *  warm-cache hit contributes zero warmup instructions; a
     *  result-cache hit contributes zero of either. */
    std::uint64_t warmupInstsSimulated = 0;
    std::uint64_t measureInstsSimulated = 0;

    double wallSeconds = 0.0;

    json::Value toJson() const;

    /** The deterministic one-line drain summary tests grep for. */
    std::string summaryLine() const;
};

class SweepService
{
  public:
    explicit SweepService(const ServeConfig &cfg);

    /** Spools a manifest's jobs; returns the count newly enqueued. */
    unsigned enqueue(const runner::SweepManifest &m);

    /**
     * Recovers orphaned claims, then drains the queue to empty:
     * result-cache replay, then the warm->measure pipeline on worker
     * threads. Publishes <root>/last-drain.json and returns the
     * pass's statistics. Safe to call with an empty queue.
     */
    DrainStats drainOnce();

    /**
     * Long-running mode: drain whenever jobs are pending, poll
     * otherwise. Returns when <root>/stop exists (the file is
     * consumed) or, if `max_passes` is nonzero, after that many
     * drain passes (test hook).
     */
    void watch(unsigned max_passes = 0);

    /**
     * Reassembles the tdc-sweep-report-v1 document for a manifest
     * from stored state only: successful jobs come from the result
     * cache, failures from their queue outcome. Byte-identical to a
     * direct SweepRunner::aggregateReport over the same runs.
     */
    json::Value reportFor(const runner::SweepManifest &m);

    /** {queue, warm cache, result cache} state for --status. */
    json::Value statusJson() const;

    /**
     * Publishes one tdc-metrics-v1 snapshot: refreshes every gauge,
     * publishes <root>/metrics.json through publishFile() (a
     * concurrent reader never sees a torn file), and -- when
     * ServeConfig::metricsOut is set -- mirrors the registry as
     * Prometheus text exposition to that path. A failed publish
     * warns and the service goes on. Called at drain start/end,
     * after every enqueue and on each watch poll tick.
     */
    void publishMetrics() const;

    JobQueue &queue() { return queue_; }

  private:
    ServeConfig cfg_;
    JobQueue queue_;
    WarmCache warm_;
    ResultCache results_;
};

/**
 * Recombines per-shard sweep reports (produced from shardSlice()
 * partitions of `m`) into the report a direct single-machine run of
 * the whole manifest would emit. Every manifest job must appear in
 * exactly one shard report; duplicates and gaps are fatal.
 */
json::Value
mergeShardReports(const runner::SweepManifest &m,
                  const std::vector<json::Value> &shardReports);

} // namespace serve
} // namespace tdc

#endif // TDC_SERVE_SERVICE_HH
