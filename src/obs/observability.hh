/**
 * @file
 * The System-level observability hub.
 *
 * Observability owns the run's TraceWriter and IntervalSampler and
 * bridges component probe points to them: the System passes each
 * component's probes to the matching observeXxx() method, and the hub
 * attaches listeners that translate event payloads into trace slices,
 * counter tracks and sampler updates. Components depend only on the
 * header-only probe/event types; nothing here is global, so parallel
 * sweep jobs each build an independent hub (DESIGN.md 7).
 *
 * Trace categories: "ctlb" (TLB-miss handler decomposition), "cache"
 * (fills, evictions, victim hits), "freeq" (free-queue depth counter),
 * "gipt" (metadata updates), "dram" (per-bank row-buffer outcomes),
 * "core" (retire milestones).
 */

#ifndef TDC_OBS_OBSERVABILITY_HH
#define TDC_OBS_OBSERVABILITY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "obs/events.hh"
#include "obs/interval_sampler.hh"
#include "obs/probe.hh"
#include "obs/trace_writer.hh"

namespace tdc {
namespace obs {

/**
 * Observability knobs, populated from "obs.*" config keys so that both
 * CLIs and sweep manifests configure the same way:
 *
 *   obs.trace_out          trace file path (empty: tracing off)
 *   obs.trace_categories   comma-separated filter (empty: all)
 *   obs.trace_ring         ring-buffer capacity in events
 *   obs.stats_interval     sample every N retired insts (0: off)
 *   obs.timeseries         JSONL path (default: derived row-only mode)
 *   obs.summary_max        rows retained for the report summary
 */
struct ObsConfig
{
    std::string traceOut;
    std::string traceCategories;
    std::size_t traceRing = 1 << 18;
    std::uint64_t statsInterval = 0;
    std::string timeseriesOut;
    std::size_t summaryMax = 64;

    bool tracing() const { return !traceOut.empty(); }
    bool sampling() const { return statsInterval != 0; }
    bool enabled() const { return tracing() || sampling(); }

    /** Overlays "obs.*" keys from cfg onto base (defaults if omitted). */
    static ObsConfig fromConfig(const Config &cfg, ObsConfig base);
    static ObsConfig fromConfig(const Config &cfg);
};

class Observability
{
  public:
    explicit Observability(const ObsConfig &cfg);

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    bool tracing() const { return tracer_ != nullptr; }
    bool sampling() const { return sampler_ != nullptr; }

    TraceWriter *tracer() { return tracer_.get(); }
    IntervalSampler *sampler() { return sampler_.get(); }

    /** Labels core `core`'s trace track (and those of helper tracks). */
    void nameCoreTrack(CoreId core, const std::string &name);

    // Wiring: the System hands over each component's probe points.
    void observeTlbMiss(ProbePoint<TlbMissEvent> &p);
    void observePageFill(ProbePoint<PageFillEvent> &p);
    void observeEviction(ProbePoint<EvictionEvent> &p);
    void observeVictimHit(ProbePoint<VictimHitEvent> &p);
    void observeFreeQueue(ProbePoint<FreeQueueEvent> &p);
    void observeGipt(ProbePoint<GiptEvent> &p);
    void observeDram(ProbePoint<DramAccessEvent> &p);
    void observeRetire(ProbePoint<RetireEvent> &p);

    /** Freezes sampler registration and writes file headers. */
    void start();

    /** Flushes both sinks; safe to call once at end of run. */
    void finish();

    /** Bounded time-series summary for the run report (Null if off). */
    json::Value timeseriesSummary() const;

    /** Trace-side odometer, exposed for tests and the report. */
    std::uint64_t traceEventCount() const;

  private:
    // Track ids: cores use their CoreId; helpers sit above any
    // plausible core count.
    static constexpr std::uint32_t evictTid = 200;
    static constexpr std::uint32_t giptTid = 201;
    static constexpr std::uint32_t dramTidBase = 300;

    std::uint32_t dramTid(std::string_view device);

    ObsConfig cfg_;
    std::unique_ptr<TraceWriter> tracer_;
    std::unique_ptr<IntervalSampler> sampler_;
    // Declared after the sinks: members are destroyed in reverse
    // order, so every probe is detached before the tracer and sampler
    // its listeners use go away.
    ProbeAttachments probes_;
    std::vector<std::pair<std::string, std::uint32_t>> dramTids_;
};

} // namespace obs
} // namespace tdc

#endif // TDC_OBS_OBSERVABILITY_HH
