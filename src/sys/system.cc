#include "sys/system.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>

#include "common/units.hh"
#include "dram/dram_params.hh"
#include "dramcache/tagless_cache.hh"
#include "trace/record.hh"
#include "trace/replay.hh"

namespace tdc {

namespace {

bool
readEnvU64(const char *name, std::uint64_t &out)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return false;
    char *end = nullptr;
    const auto v = std::strtoull(env, &end, 10);
    if (end == nullptr || *end != '\0') {
        warn("ignoring malformed {}='{}'", name, env);
        return false;
    }
    out = v;
    return true;
}

} // namespace

void
SystemConfig::applyEnvironment()
{
    std::uint64_t v = 0;
    if (readEnvU64("TDC_INSTS", v) && v > 0) {
        instsPerCore = v;
        warmupInsts = v / 2;
    }
    if (readEnvU64("TDC_WARMUP", v))
        warmupInsts = v;
}

SystemConfig
makeSystemConfig(OrgKind org, const std::vector<std::string> &workloads,
                 std::uint64_t l3_size)
{
    SystemConfig cfg;
    cfg.org = org;
    cfg.workloads = workloads;
    cfg.l3SizeBytes = l3_size;
    cfg.applyEnvironment();
    return cfg;
}

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    tdc_assert(!cfg_.workloads.empty(), "no workloads configured");

    cpuClk_ = std::make_unique<ClockDomain>(cfg_.coreParams.freqHz);

    inPkg_ = std::make_unique<DramDevice>(
        "in_pkg", inPackageTiming(cfg_.l3SizeBytes), inPackageEnergy());
    offPkg_ = std::make_unique<DramDevice>(
        "off_pkg", offPackageTiming(cfg_.offPkgBytes), offPackageEnergy());

    const std::uint64_t off_pages = cfg_.offPkgBytes / pageBytes;
    const std::uint64_t in_pages =
        cfg_.org == OrgKind::BankInterleave ? cfg_.l3SizeBytes / pageBytes
                                            : 0;
    phys_ = std::make_unique<PhysMem>("phys", off_pages, in_pages);

    // The org, the in-package device and the report all take the L3
    // size from one field; a raw key may only repeat it.
    Config raw = cfg_.raw;
    if (!raw.has("l3.size_bytes"))
        raw.set("l3.size_bytes", cfg_.l3SizeBytes);
    else if (const std::uint64_t b = raw.getU64("l3.size_bytes", 0);
             b != cfg_.l3SizeBytes)
        fatal("l3.size_bytes={} disagrees with the configured L3 size "
              "{} (l3_size_bytes)", b, cfg_.l3SizeBytes);
    org_ = makeDramCacheOrg(cfg_.org, raw, *inPkg_, *offPkg_, *phys_,
                            *cpuClk_);

    energyModel_ = std::make_unique<EnergyModel>(cfg_.energyParams);

    buildWorkloads();

    // Cross-component wiring: page invalidation flushes the on-die
    // caches of the cores the org names; shootdowns hit every core's
    // TLBs.
    org_->setPageInvalidator(
        [this](Addr page_addr, std::uint32_t cores, std::uint64_t lines) {
            // One mask across levels and cores: the same line can be
            // dirty in L1 over a parked L2 write-back, and thread-shared
            // pages sit dirty in several cores' private caches. Each
            // distinct line streams to the frame once, so the flush
            // never exceeds the page (one DRAM row).
            std::uint64_t dirty = 0;
            for (auto &ms : memSystems_)
                if ((cores >> ms->coreId()) & 1)
                    dirty |= ms->invalidatePage(page_addr, lines);
            return static_cast<unsigned>(std::popcount(dirty));
        });
    org_->setShootdownFn([this](AsidVpn key) {
        for (auto &ms : memSystems_)
            ms->shootdown(key);
    });

    buildObservability();
    buildAuditor();
}

void
System::buildObservability()
{
    const obs::ObsConfig ocfg =
        obs::ObsConfig::fromConfig(cfg_.raw, cfg_.obs);
    if (!ocfg.enabled())
        return; // probes stay unattached; firing sites cost one test
    obs_ = std::make_unique<obs::Observability>(ocfg);

    obs_->observePageFill(org_->fillProbe);
    obs_->observeEviction(org_->evictProbe);
    obs_->observeVictimHit(org_->victimHitProbe);
    obs_->observeFreeQueue(org_->freeQueueProbe);
    obs_->observeGipt(org_->giptProbe);
    obs_->observeDram(inPkg_->accessProbe);
    obs_->observeDram(offPkg_->accessProbe);
    for (auto &ms : memSystems_)
        obs_->observeTlbMiss(ms->tlbMissProbe);
    for (auto &c : cores_) {
        obs_->nameCoreTrack(c->coreId(), c->name());
        if (ocfg.sampling())
            c->setRetireMilestone(ocfg.statsInterval);
        obs_->observeRetire(c->retireProbe);
    }

    if (auto *sampler = obs_->sampler()) {
        sampler->addGroup(inPkg_->name() + ".", &inPkg_->statGroup());
        sampler->addGroup(offPkg_->name() + ".", &offPkg_->statGroup());
        sampler->addGroup(org_->name() + ".", &org_->statGroup());
        for (const auto &c : cores_)
            sampler->addGroup(c->name() + ".", &c->statGroup());
        if (auto *tc = dynamic_cast<TaglessCache *>(org_.get())) {
            sampler->addGauge("free_queue_depth", [tc] {
                return static_cast<std::uint64_t>(tc->freeBlocks());
            });
            sampler->addGauge("frames_occupied", [tc] {
                return tc->totalFrames() - tc->freeBlocks();
            });
        }
    }
    obs_->start();
}

void
System::buildAuditor()
{
    // "check.*" keys arm the auditor; the TDC_AUDIT / TDC_AUDIT_INTERVAL
    // environment variables fill in for absent keys so existing configs
    // (and their reports, which never see check.*) can be re-run armed
    // without edits.
    Config raw = cfg_.raw;
    std::uint64_t v = 0;
    if (!raw.has("check.audit") && readEnvU64("TDC_AUDIT", v))
        raw.set("check.audit", v != 0);
    if (!raw.has("check.interval") && readEnvU64("TDC_AUDIT_INTERVAL", v))
        raw.set("check.interval", v);

    const check::AuditConfig acfg = check::AuditConfig::fromConfig(raw);
    if (!acfg.enabled)
        return; // probes stay unattached; firing sites cost one test
    auditor_ = std::make_unique<check::InvariantAuditor>(acfg);

    auditor_->observePageFill(org_->fillProbe);
    auditor_->observeEviction(org_->evictProbe);
    auditor_->observeVictimHit(org_->victimHitProbe);
    auditor_->observeFreeQueue(org_->freeQueueProbe);
    auditor_->observeGipt(org_->giptProbe);
    auditor_->observeDram(inPkg_->accessProbe);
    auditor_->observeDram(offPkg_->accessProbe);
    for (auto &ms : memSystems_)
        auditor_->observeTlbMiss(ms->tlbMissProbe);

    if (auto *tc = dynamic_cast<TaglessCache *>(org_.get())) {
        auditor_->setTagless(tc);
        for (auto &ms : memSystems_) {
            const PageTable *pt = &ms->pageTable();
            auditor_->addTlb(&ms->itlb(), ms->coreId(), pt);
            auditor_->addTlb(&ms->dtlb(), ms->coreId(), pt);
            auditor_->addTlb(&ms->l2tlb(), ms->coreId(), pt);
            auditor_->addCache(&ms->l1i());
            auditor_->addCache(&ms->l1d());
            auditor_->addCache(&ms->l2());
        }
    }
}

System::~System() = default;

void
System::buildWorkloads()
{
    const unsigned n = static_cast<unsigned>(cfg_.workloads.size());
    tdc_assert(n == 1 || n == 4,
               "expected 1 workload or a 4-program mix, got {}", n);

    // A sole trace workload dictates the machine shape from its file:
    // one core per recorded stream, one shared page table if the
    // recorded run shared one. (Trace entries inside a 4-program mix
    // must be single-core; makeWorkloadSource enforces that.)
    unsigned hw_threads;
    bool shared_pt = false;
    std::shared_ptr<const mtrace::MtraceReader> whole_trace;
    if (n == 1) {
        const WorkloadProfile &p = getWorkload(cfg_.workloads[0]);
        if (p.kind == WorkloadKind::Trace) {
            whole_trace = mtrace::acquireReader(p.tracePath);
            hw_threads = whole_trace->coreCount();
            shared_pt = whole_trace->sharedPageTable() && hw_threads > 1;
        } else {
            hw_threads = p.multithreaded ? 4 : 1;
            shared_pt = p.multithreaded;
        }
    } else {
        hw_threads = 4;
    }

    if (!cfg_.recordTracePath.empty()) {
        std::string source = format("tdc_sim:org={}", toString(cfg_.org));
        for (const std::string &w : cfg_.workloads)
            source += format(",{}", w);
        recorder_ = std::make_unique<mtrace::MtraceWriter>(
            cfg_.recordTracePath, hw_threads, shared_pt,
            std::move(source));
    }

    for (unsigned t = 0; t < hw_threads; ++t) {
        const std::string &wname =
            n == 1 ? cfg_.workloads[0] : cfg_.workloads[t];
        const WorkloadProfile &prof = getWorkload(wname);

        PageTable *pt;
        if (shared_pt && t > 0) {
            pt = pageTables_[0].get();
        } else {
            pageTables_.push_back(std::make_unique<PageTable>(
                format("proc{}", t), shared_pt ? 0 : t, *phys_));
            pt = pageTables_.back().get();
        }

        std::unique_ptr<WorkloadSource> src;
        if (whole_trace) {
            src = std::make_unique<mtrace::ReplayTraceSource>(
                whole_trace, t);
        } else {
            src = makeWorkloadSource(prof, t);
        }
        if (recorder_)
            src = std::make_unique<mtrace::RecordingSource>(
                std::move(src), *recorder_, t);
        traces_.push_back(std::move(src));
        memSystems_.push_back(std::make_unique<MemorySystem>(
            format("core{}.mem", t), t, cfg_.coreParams, *cpuClk_, *pt,
            *org_));
        cores_.push_back(std::make_unique<OooCore>(
            format("core{}", t), t, cfg_.coreParams, *cpuClk_,
            *traces_.back(), *memSystems_.back()));
    }
}

std::uint64_t
System::finishRecording()
{
    if (!recorder_)
        return 0;
    if (recorder_->closed())
        return recorder_->totalRecords();
    for (auto &t : traces_) {
        auto *rs = dynamic_cast<mtrace::RecordingSource *>(t.get());
        tdc_assert(rs != nullptr,
                   "recording system has a non-recording source");
        rs->pad(cfg_.recordPadRecords);
    }
    recorder_->close();
    return recorder_->totalRecords();
}

namespace {

DramEnergyCounter
energyDelta(const DramEnergyCounter &now, const DramEnergyCounter &base)
{
    DramEnergyCounter d = now;
    d.subtract(base);
    return d;
}

} // namespace

void
System::advanceAllCores(std::uint64_t inst_target)
{
    // Quantum-interleaved scheduling: always advance the core that is
    // furthest behind, so requests reach the shared DRAM devices in
    // nearly chronological order.
    while (true) {
        OooCore *next = nullptr;
        for (auto &c : cores_) {
            if (!c->done(inst_target)
                && (next == nullptr || c->now() < next->now())) {
                next = c.get();
            }
        }
        if (next == nullptr)
            break;
        next->runUntil(next->now() + cfg_.quantum, inst_target);
    }
}

System::Snapshot
System::capture() const
{
    Snapshot s;
    for (const auto &c : cores_) {
        s.coreInsts.push_back(c->instsRetired());
        s.coreNow.push_back(c->now());
    }
    for (const auto &ms : memSystems_) {
        s.l3LatSum += ms->l3LatencySumCycles();
        s.l3LatN += ms->l3Samples();
        s.tlbPenaltySum += ms->tlbMissPenaltySumCycles();
        s.tlbHits += ms->itlb().hits() + ms->dtlb().hits();
        s.tlbMisses += ms->tlbFullMisses();
        s.l1Acc += ms->l1Accesses();
        s.l2Acc += ms->l2Accesses();
        s.tlbAcc += ms->tlbAccesses();
    }
    s.l3Accesses = org_->l3Accesses();
    s.l3Hits = org_->l3Hits();
    s.victimHits = org_->victimHits();
    s.pageFills = org_->pageFills();
    s.pageWritebacks = org_->pageWritebacks();
    s.tagProbes = org_->tagProbeCount();
    s.inPkgBytes = inPkg_->bytesTransferred();
    s.offPkgBytes = offPkg_->bytesTransferred();
    s.inPkgEnergy = inPkg_->energy();
    s.offPkgEnergy = offPkg_->energy();
    return s;
}

RunResult
System::run()
{
    warmup();
    return measure();
}

void
System::warmup()
{
    // Populate caches, TLBs and the DRAM cache before measuring.
    advanceAllCores(cfg_.warmupInsts);
}

RunResult
System::measure()
{
    const Snapshot base = capture();

    advanceAllCores(cfg_.warmupInsts + cfg_.instsPerCore);
    for (auto &c : cores_)
        c->drain();
    const Snapshot end = capture();

    RunResult r;
    Cycles max_cycles = 0;
    const Tick period = cpuClk_->period();
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const std::uint64_t insts = end.coreInsts[i] - base.coreInsts[i];
        const Cycles cyc =
            (cores_[i]->now() - base.coreNow[i]) / period;
        r.coreIpc.push_back(cyc ? static_cast<double>(insts) / cyc : 0.0);
        r.sumIpc += r.coreIpc.back();
        r.totalInsts += insts;
        max_cycles = std::max(max_cycles, cyc);
    }
    r.cycles = max_cycles;
    r.seconds = static_cast<double>(max_cycles)
                / static_cast<double>(cfg_.coreParams.freqHz);

    // Fig. 8 metric: per-L3-access latency including the TLB handling
    // cost amortized over L3 accesses.
    const double lat_sum = (end.l3LatSum - base.l3LatSum)
                           + (end.tlbPenaltySum - base.tlbPenaltySum);
    const std::uint64_t lat_n = end.l3LatN - base.l3LatN;
    r.avgL3LatencyCycles = lat_n ? lat_sum / lat_n : 0.0;

    const std::uint64_t tlb_h = end.tlbHits - base.tlbHits;
    const std::uint64_t tlb_m = end.tlbMisses - base.tlbMisses;
    r.tlbMissRate =
        (tlb_h + tlb_m)
            ? static_cast<double>(tlb_m) / static_cast<double>(tlb_h
                                                               + tlb_m)
            : 0.0;

    r.l3Accesses = end.l3Accesses - base.l3Accesses;
    r.l3HitRate = r.l3Accesses
                      ? static_cast<double>(end.l3Hits - base.l3Hits)
                            / static_cast<double>(r.l3Accesses)
                      : 0.0;
    r.victimHits = end.victimHits - base.victimHits;
    r.coldFills = end.pageFills - base.pageFills;
    r.pageFills = r.coldFills;
    r.pageWritebacks = end.pageWritebacks - base.pageWritebacks;
    r.inPkgBytes = end.inPkgBytes - base.inPkgBytes;
    r.offPkgBytes = end.offPkgBytes - base.offPkgBytes;

    // Energy over the measured window.
    EnergyInputs ei;
    ei.instructions = r.totalInsts;
    ei.cycles = max_cycles;
    ei.cores = static_cast<unsigned>(cores_.size());
    ei.l1Accesses = end.l1Acc - base.l1Acc;
    ei.l2Accesses = end.l2Acc - base.l2Acc;
    ei.tlbAccesses = end.tlbAcc - base.tlbAcc;
    ei.tagProbes = end.tagProbes - base.tagProbes;
    ei.tagArrayMb = static_cast<double>(org_->onDieTagBits()) / 8.0
                    / static_cast<double>(MiB);
    ei.inPkg = energyDelta(end.inPkgEnergy, base.inPkgEnergy);
    ei.offPkg = energyDelta(end.offPkgEnergy, base.offPkgEnergy);
    r.energy = energyModel_->compute(ei);
    r.edp = energyModel_->edp(r.energy, r.seconds);

    if (auditor_)
        auditor_->verifyAll();
    if (obs_)
        obs_->finish();
    return r;
}

void
System::dumpStats(std::ostream &os) const
{
    inPkg_->statGroup().dump(os, "sys");
    offPkg_->statGroup().dump(os, "sys");
    phys_->statGroup().dump(os, "sys");
    org_->statGroup().dump(os, "sys");
    for (const auto &c : cores_)
        c->statGroup().dump(os, "sys");
}

json::Value
System::statsJson(const stats::JsonOptions &opt) const
{
    auto v = json::Value::object();
    v.set(inPkg_->name(), inPkg_->statGroup().toJson(opt));
    v.set(offPkg_->name(), offPkg_->statGroup().toJson(opt));
    v.set(phys_->name(), phys_->statGroup().toJson(opt));
    v.set(org_->name(), org_->statGroup().toJson(opt));
    for (const auto &c : cores_)
        v.set(c->name(), c->statGroup().toJson(opt));
    return v;
}

} // namespace tdc
