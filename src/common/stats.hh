/**
 * @file
 * Lightweight statistics package.
 *
 * Components own Scalar / Average / Histogram instances and register them
 * with a StatGroup so that a whole system's statistics can be dumped
 * uniformly at the end of a run. Stats are plain accumulators; *dynamics*
 * are observed by snapshotting: StatGroup::snapshot() captures every
 * counter in the subtree, and deltas between successive snapshots drive
 * the interval time-series sampler in src/obs/ (probe points provide the
 * complementary per-event view).
 */

#ifndef TDC_COMMON_STATS_HH
#define TDC_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace tdc {
namespace stats {

/**
 * Serialization options for toJson(). The defaults keep output
 * byte-identical with historical reports (golden files depend on it);
 * both extras are strictly opt-in.
 */
struct JsonOptions
{
    /** Include registered description strings alongside values. */
    bool desc = false;
    /** Include min/max (Average) and percentiles (Histogram). */
    bool extremes = false;
};

/** A monotonically accumulating counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void reset() { value_ = 0; }

    /** Checkpoint restore: overwrites the accumulated count. */
    void restore(std::uint64_t v) { value_ = v; }

    std::uint64_t value() const { return value_; }

    json::Value toJson() const { return json::Value(value_); }

  private:
    std::uint64_t value_ = 0;
};

/** Mean over an accumulated set of samples, with min/max tracking. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * Checkpoint restore. min/max are the values minimum()/maximum()
     * reported at save time; they are ignored when count is zero so
     * the no-sample sentinels (+/-inf) round-trip correctly.
     */
    void
    restore(double sum, std::uint64_t count, double min, double max)
    {
        reset();
        if (count == 0)
            return;
        sum_ = sum;
        count_ = count;
        min_ = min;
        max_ = max;
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Smallest / largest sample; 0.0 before any sample arrives. */
    double minimum() const { return count_ ? min_ : 0.0; }
    double maximum() const { return count_ ? max_ : 0.0; }

    json::Value
    toJson(const JsonOptions &opt = {}) const
    {
        auto v = json::Value::object();
        v.set("sum", sum_);
        v.set("count", count_);
        v.set("mean", mean());
        // Extremes are opt-in and only meaningful once non-default
        // (at least one sample), keeping default output stable.
        if (opt.extremes && count_ > 0) {
            v.set("min", min_);
            v.set("max", max_);
        }
        return v;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Fixed-width-bucket histogram with overflow bucket. */
class Histogram
{
  public:
    Histogram(double bucket_width = 1.0, std::size_t buckets = 32)
        : width_(bucket_width), counts_(buckets + 1, 0)
    {
        tdc_assert(bucket_width > 0.0, "non-positive bucket width");
        tdc_assert(buckets > 0, "histogram needs at least one bucket");
    }

    void
    sample(double v)
    {
        stat_.sample(v);
        // Clamp negatives (and NaN) into bucket 0: the unchecked cast
        // of a negative quotient to size_t would index far out of
        // range.
        std::size_t idx = 0;
        if (v > 0.0) {
            const double q = v / width_;
            const auto last =
                static_cast<double>(counts_.size() - 1);
            idx = q >= last ? counts_.size() - 1 // overflow bucket
                            : static_cast<std::size_t>(q);
        }
        ++counts_[idx];
    }

    void
    reset()
    {
        stat_.reset();
        for (auto &c : counts_)
            c = 0;
    }

    double mean() const { return stat_.mean(); }
    double sum() const { return stat_.sum(); }
    std::uint64_t count() const { return stat_.count(); }
    double minimum() const { return stat_.minimum(); }
    double maximum() const { return stat_.maximum(); }
    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::size_t buckets() const { return counts_.size() - 1; }
    double bucketWidth() const { return width_; }
    std::uint64_t overflow() const { return counts_.back(); }

    /**
     * The p-th percentile (p in [0, 100]) estimated from the buckets:
     * the upper edge of the first bucket whose cumulative count reaches
     * ceil(p/100 * n), clamped to the observed extremes. Samples that
     * landed in the overflow bucket resolve to the observed maximum.
     * Returns 0.0 before any sample arrives.
     */
    double percentile(double p) const;

    json::Value
    toJson(const JsonOptions &opt = {}) const
    {
        auto v = json::Value::object();
        v.set("mean", mean());
        v.set("count", stat_.count());
        v.set("bucket_width", width_);
        auto buckets = json::Value::array();
        for (std::size_t i = 0; i + 1 < counts_.size(); ++i)
            buckets.push(counts_[i]);
        v.set("buckets", std::move(buckets));
        v.set("overflow", counts_.back());
        if (opt.extremes && stat_.count() > 0) {
            v.set("min", stat_.minimum());
            v.set("max", stat_.maximum());
            v.set("p50", percentile(50.0));
            v.set("p95", percentile(95.0));
            v.set("p99", percentile(99.0));
        }
        return v;
    }

  private:
    Average stat_;
    double width_;
    std::vector<std::uint64_t> counts_;
};

/**
 * A point-in-time capture of every Scalar in a StatGroup subtree, in
 * deterministic preorder (own scalars first, then each child group).
 * Two snapshots of the same group subtract into interval deltas; the
 * obs::IntervalSampler builds its time-series rows from exactly this.
 */
struct StatSnapshot
{
    std::vector<std::uint64_t> values;

    /**
     * Per-counter difference (now - base). Both snapshots must come
     * from the same group with an unchanged registration set.
     */
    static std::vector<std::uint64_t> delta(const StatSnapshot &now,
                                            const StatSnapshot &base);
};

/**
 * A named, hierarchical collection of statistics.
 *
 * Ownership: the group stores non-owning pointers; registered stats must
 * outlive the group (they are members of the same component in practice).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    void
    addScalar(const std::string &name, const Scalar *s,
              const std::string &desc = "")
    {
        scalars_.emplace_back(Entry<Scalar>{name, desc, s});
    }

    void
    addAverage(const std::string &name, const Average *a,
               const std::string &desc = "")
    {
        averages_.emplace_back(Entry<Average>{name, desc, a});
    }

    void
    addHistogram(const std::string &name, const Histogram *h,
                 const std::string &desc = "")
    {
        histograms_.emplace_back(Entry<Histogram>{name, desc, h});
    }

    void addChild(const StatGroup *child) { children_.push_back(child); }

    const std::string &name() const { return name_; }

    /** Dumps every statistic, one per line, prefixed with the path. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Serializes the subtree as one JSON object: statistics keyed by
     * name, child groups nested under their names. Registration order
     * is preserved so successive dumps diff cleanly. The default
     * options reproduce historical byte-exact output; opt.desc wraps
     * described stats as {"value":…,"desc":…} and opt.extremes adds
     * min/max/percentiles.
     */
    json::Value toJson(const JsonOptions &opt = {}) const;

    /**
     * Dotted paths of every Scalar in the subtree ("<prefix><name>" or
     * "<prefix><child>.<name>"), in snapshot order.
     */
    void scalarPaths(std::vector<std::string> &out,
                     const std::string &prefix = "") const;

    /** Captures every Scalar's current value (scalarPaths order). */
    void snapshot(StatSnapshot &out) const;

    StatSnapshot
    snapshot() const
    {
        StatSnapshot s;
        snapshot(s);
        return s;
    }

  private:
    template <typename T>
    struct Entry
    {
        std::string name;
        std::string desc;
        const T *stat;
    };

    std::string name_;
    std::vector<Entry<Scalar>> scalars_;
    std::vector<Entry<Average>> averages_;
    std::vector<Entry<Histogram>> histograms_;
    std::vector<const StatGroup *> children_;
};

} // namespace stats
} // namespace tdc

#endif // TDC_COMMON_STATS_HH
