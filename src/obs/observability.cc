#include "obs/observability.hh"

#include "common/logging.hh"

namespace tdc {
namespace obs {

ObsConfig
ObsConfig::fromConfig(const Config &cfg, ObsConfig base)
{
    base.traceOut = cfg.getString("obs.trace_out", base.traceOut);
    base.traceCategories =
        cfg.getString("obs.trace_categories", base.traceCategories);
    base.traceRing = cfg.getU64("obs.trace_ring", base.traceRing);
    base.statsInterval =
        cfg.getU64("obs.stats_interval", base.statsInterval);
    base.timeseriesOut = cfg.getString("obs.timeseries", base.timeseriesOut);
    base.summaryMax = cfg.getU64("obs.summary_max", base.summaryMax);
    return base;
}

ObsConfig
ObsConfig::fromConfig(const Config &cfg)
{
    return fromConfig(cfg, ObsConfig{});
}

Observability::Observability(const ObsConfig &cfg) : cfg_(cfg)
{
    if (cfg_.tracing()) {
        TraceWriterConfig tc;
        tc.path = cfg_.traceOut;
        tc.categories = cfg_.traceCategories;
        tc.ringCapacity = cfg_.traceRing;
        tracer_ = std::make_unique<TraceWriter>(std::move(tc));
        tracer_->setTrackName(evictTid, "evictions");
        tracer_->setTrackName(giptTid, "gipt");
    }
    if (cfg_.sampling()) {
        IntervalSamplerConfig sc;
        sc.intervalInsts = cfg_.statsInterval;
        sc.path = cfg_.timeseriesOut;
        sc.summaryMax = cfg_.summaryMax;
        sampler_ = std::make_unique<IntervalSampler>(std::move(sc));
    }
}

void
Observability::nameCoreTrack(CoreId core, const std::string &name)
{
    tdc_assert(core < evictTid, "core id collides with helper tracks");
    if (tracer_)
        tracer_->setTrackName(core, name);
}

std::uint32_t
Observability::dramTid(std::string_view device)
{
    for (const auto &[name, tid] : dramTids_)
        if (name == device)
            return tid;
    const auto tid =
        static_cast<std::uint32_t>(dramTidBase + dramTids_.size());
    dramTids_.emplace_back(std::string(device), tid);
    if (tracer_)
        tracer_->setTrackName(tid, "dram:" + std::string(device));
    return tid;
}

void
Observability::observeTlbMiss(ProbePoint<TlbMissEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("ctlb"))
        return;
    probes_.bridge(p, [t = tracer_.get()](const TlbMissEvent &e) {
        const char *kind = e.bypass     ? "tlb_miss_bypass"
                           : e.victimHit ? "tlb_miss_victim_hit"
                           : e.coldFill  ? "tlb_miss_cold_fill"
                                         : "tlb_miss";
        t->complete("ctlb", kind, e.core, e.start, e.end,
                    {{"vpn", e.vpn}});
        // The walk is common to every organization; what follows it is
        // decomposed by the cache's own fill/eviction probes.
        t->complete("ctlb", "page_walk", e.core, e.start, e.walkDone);
    });
}

void
Observability::observePageFill(ProbePoint<PageFillEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("cache"))
        return;
    probes_.bridge(p, [t = tracer_.get()](const PageFillEvent &e) {
        t->complete("cache", e.superpage ? "superpage_fill" : "page_fill",
                    e.core, e.start, e.copyDone,
                    {{"vpn", e.vpn},
                     {"frame", e.frame},
                     {"free_stall", e.freeStall ? 1u : 0u}});
        t->complete("cache", "pte_update", e.core, e.start, e.pteDone);
        t->complete("cache", "page_copy", e.core, e.pteDone, e.copyDone);
    });
}

void
Observability::observeEviction(ProbePoint<EvictionEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("cache"))
        return;
    probes_.bridge(p, [t = tracer_.get()](const EvictionEvent &e) {
        t->complete("cache", e.dirty ? "evict_dirty" : "evict_clean",
                    evictTid, e.start, e.end,
                    {{"frame", e.frame},
                     {"ppn", e.ppn},
                     {"shootdown", e.shootdown ? 1u : 0u},
                     {"free_depth", e.freeDepth}});
    });
}

void
Observability::observeVictimHit(ProbePoint<VictimHitEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("cache"))
        return;
    probes_.bridge(p, [t = tracer_.get()](const VictimHitEvent &e) {
        t->instant("cache", "victim_hit", e.core, e.tick,
                   {{"vpn", e.vpn}, {"frame", e.frame}});
    });
}

void
Observability::observeFreeQueue(ProbePoint<FreeQueueEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("freeq"))
        return;
    probes_.bridge(p, [t = tracer_.get()](const FreeQueueEvent &e) {
        t->counter("freeq", "free_queue_depth", e.tick, e.depth);
        if (e.belowAlpha && !e.push)
            t->instant("freeq", "below_low_water", evictTid, e.tick,
                       {{"depth", e.depth}});
    });
}

void
Observability::observeGipt(ProbePoint<GiptEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("gipt"))
        return;
    probes_.bridge(p, [t = tracer_.get()](const GiptEvent &e) {
        t->instant("gipt",
                   e.kind == GiptEvent::Kind::Install ? "gipt_install"
                                                      : "gipt_invalidate",
                   giptTid, e.tick, {{"frame", e.frame}, {"ppn", e.ppn}});
    });
}

void
Observability::observeDram(ProbePoint<DramAccessEvent> &p)
{
    if (!tracer_ || !tracer_->enabled("dram"))
        return;
    probes_.bridge(p, [this](const DramAccessEvent &e) {
        const char *name = nullptr;
        switch (e.outcome) {
          case DramAccessEvent::Outcome::RowHit:
            name = "row_hit";
            break;
          case DramAccessEvent::Outcome::RowMiss:
            name = "row_miss";
            break;
          case DramAccessEvent::Outcome::RowConflict:
            name = "row_conflict";
            break;
        }
        tracer_->complete("dram", name, dramTid(e.device), e.start,
                          e.completion,
                          {{"channel", e.channel},
                           {"bank", e.bank},
                           {"row", e.row},
                           {"bytes", e.bytes},
                           {"write", e.write ? 1u : 0u}});
    });
}

void
Observability::observeRetire(ProbePoint<RetireEvent> &p)
{
    if (sampler_)
        probes_.attach(p, sampler_.get());
    if (tracer_ && tracer_->enabled("core")) {
        probes_.bridge(p, [t = tracer_.get()](const RetireEvent &e) {
            t->instant("core", "retire_milestone", e.core, e.tick,
                       {{"insts", e.insts}});
        });
    }
}

void
Observability::start()
{
    if (sampler_)
        sampler_->start();
}

void
Observability::finish()
{
    if (sampler_)
        sampler_->finish();
    if (tracer_)
        tracer_->finish();
}

json::Value
Observability::timeseriesSummary() const
{
    return sampler_ ? sampler_->summaryJson() : json::Value();
}

std::uint64_t
Observability::traceEventCount() const
{
    return tracer_ ? tracer_->eventCount() + tracer_->droppedEvents() : 0;
}

} // namespace obs
} // namespace tdc
