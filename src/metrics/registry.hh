/**
 * @file
 * Process-level telemetry registry (DESIGN.md 11).
 *
 * PR 3's `src/obs/` probes observe the *simulated* machine; this
 * registry observes the *serving* machine: queue depth, cache hit
 * rates, per-job latency -- the counters a resident sweep service
 * needs to be operable. Three metric kinds, Prometheus-flavoured:
 *
 *   Counter   -- monotonically increasing u64. Increments land in one
 *                of a fixed set of cache-line-padded per-thread cells
 *                (relaxed atomics, no contention between pool
 *                workers); value() merges the cells.
 *   Gauge     -- a settable signed level (queue depth, resident
 *                bytes). set()/add() semantics.
 *   Histogram -- fixed, strictly-increasing bucket upper edges chosen
 *                at registration. observe(v) counts v into the first
 *                bucket with v <= edge (overflow into +Inf), and
 *                accumulates count and sum.
 *
 * The registry snapshots to two formats, both deterministic for fixed
 * metric values (names emitted in sorted order, so two registries
 * holding the same values -- however concurrently they were fed --
 * produce byte-identical documents):
 *
 *   toJson(unix_ms)  -- a versioned `tdc-metrics-v1` document; the
 *                       sweep service atomically publishes one into
 *                       its spool root every drain tick, and `tdc_top` /
 *                       `tdc_obs_check --metrics` consume it.
 *   prometheusText() -- text exposition (HELP/TYPE lines, cumulative
 *                       histogram buckets) for scrape-based setups.
 *
 * Overhead discipline: metrics are bumped only in service-layer code
 * (per job, per drain pass, per checkpoint file) -- never per
 * simulated event -- and a bump is one relaxed atomic add. Nothing in
 * this registry ever enters a run report, so golden bytes are
 * unchanged whether or not an exporter is attached.
 */

#ifndef TDC_METRICS_REGISTRY_HH
#define TDC_METRICS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"

namespace tdc {
namespace metrics {

/** Schema tag stamped into every snapshot document. */
inline constexpr const char *metricsSchema = "tdc-metrics-v1";

namespace detail {

/** Number of striped counter cells; a power of two. */
inline constexpr unsigned kCells = 16;

/** This thread's fixed cell index (round-robin at first use). */
unsigned threadSlot();

} // namespace detail

/** Monotonic event count; inc() is wait-free and contention-striped. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        cells_[detail::threadSlot()].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    /** Merged total across all cells. */
    std::uint64_t
    value() const
    {
        std::uint64_t sum = 0;
        for (const Cell &c : cells_)
            sum += c.v.load(std::memory_order_relaxed);
        return sum;
    }

  private:
    struct alignas(64) Cell
    {
        std::atomic<std::uint64_t> v{0};
    };
    Cell cells_[detail::kCells];
};

/** A settable level; may go down (and below zero). */
class Gauge
{
  public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void
    add(std::int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }
    std::int64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/** Fixed-bucket latency/size distribution. */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> edges);

    /** Counts v into the first bucket with v <= edge (else +Inf). */
    void observe(double v);

    const std::vector<double> &edges() const { return edges_; }
    /** Per-bucket (non-cumulative) counts, aligned with edges(). */
    std::vector<std::uint64_t> bucketCounts() const;
    std::uint64_t infCount() const
    {
        return inf_.load(std::memory_order_relaxed);
    }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }

  private:
    std::vector<double> edges_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> inf_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Named metric store. Metric objects are created on first lookup and
 * live for the registry's lifetime, so instrumentation sites cache
 * the returned reference in a function-local static. Lookup takes a
 * mutex; updates through the returned references are lock-free.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Looks up (creating on first use) a metric. The name must be
     *  Prometheus-shaped ([a-zA-Z_:][a-zA-Z0-9_:]*) and unique across
     *  metric kinds; a histogram's edges must match on re-lookup. */
    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         const std::vector<double> &edges);

    /**
     * The versioned tdc-metrics-v1 snapshot: counters, gauges and
     * histograms as name-sorted objects, plus the caller-supplied
     * snapshot timestamp (kept out of the registry so tests can pin
     * it and byte-compare snapshots).
     */
    json::Value toJson(std::uint64_t unix_ms) const;

    /** Prometheus text exposition (HELP/TYPE, cumulative buckets). */
    std::string prometheusText() const;

  private:
    struct HistogramEntry
    {
        std::string help;
        std::unique_ptr<Histogram> h;
    };
    struct NamedEntry
    {
        std::string help;
        std::unique_ptr<Counter> c;
        std::unique_ptr<Gauge> g;
    };

    void checkName(const std::string &name) const;

    mutable std::mutex mutex_;
    std::map<std::string, NamedEntry> counters_;
    std::map<std::string, NamedEntry> gauges_;
    std::map<std::string, HistogramEntry> histograms_;
};

/** The process-wide registry every instrumentation site uses. */
Registry &registry();

} // namespace metrics
} // namespace tdc

#endif // TDC_METRICS_REGISTRY_HH
