/**
 * @file
 * Full-system builder and run driver.
 *
 * A System assembles the Table 3 machine -- four 3 GHz OoO cores with
 * private TLBs and L1/L2 caches, a 1GB in-package DRAM device, an 8GB
 * off-package DDR3 device -- around one of the L3 organizations, binds
 * workload generators to the cores, runs every core to its instruction
 * budget with quantum-interleaved scheduling (so shared-resource
 * contention is observed in nearly chronological order), and reports
 * IPC, latency, traffic and energy/EDP results.
 */

#ifndef TDC_SYS_SYSTEM_HH
#define TDC_SYS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/invariant_auditor.hh"
#include "ckpt/checkpoint.hh"
#include "common/config.hh"
#include "common/json.hh"
#include "core/core_params.hh"
#include "core/ooo_core.hh"
#include "dram/dram_device.hh"
#include "dramcache/org_factory.hh"
#include "energy/energy_model.hh"
#include "obs/observability.hh"
#include "trace/workloads.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"

namespace tdc {

namespace mtrace {
class MtraceWriter;
} // namespace mtrace

struct SystemConfig
{
    OrgKind org = OrgKind::Tagless;
    std::uint64_t l3SizeBytes = 1ULL << 30;
    std::uint64_t offPkgBytes = 8ULL << 30;

    /**
     * Workload names: one entry runs single-programmed (one core) or,
     * if the profile is multithreaded, as four threads on four cores;
     * four entries run as a multi-programmed mix on four cores.
     */
    std::vector<std::string> workloads;

    std::uint64_t instsPerCore = 8'000'000;

    /**
     * Instructions per core executed before statistics collection
     * starts (cache/TLB warmup, as with warmed SimPoint slices).
     */
    std::uint64_t warmupInsts = 4'000'000;

    CoreParams coreParams;
    EnergyParams energyParams;

    /** Scheduling quantum in ticks (ps). */
    Tick quantum = 1'000'000; // 1 us

    /** Extra low-level overrides (l3.policy, l3.alpha, ...). */
    Config raw;

    /**
     * Record mode: tee every core's workload stream to this
     * tdc-mtrace-v1 file (empty disables). Pure observation -- results,
     * reports and checkpoints are identical to the unrecorded run --
     * so neither field enters warmFingerprint().
     */
    std::string recordTracePath;

    /** Extra records appended per core after the run (wrap margin). */
    std::uint64_t recordPadRecords = 4096;

    /**
     * Observability defaults; "obs.*" keys in `raw` override these, so
     * CLIs and sweep manifests share one spelling (DESIGN.md 7).
     */
    obs::ObsConfig obs;

    /** Reads TDC_INSTS / TDC_WARMUP from the environment if set. */
    void applyEnvironment();
};

/** Everything a bench needs from one run. */
struct RunResult
{
    std::vector<double> coreIpc;
    double sumIpc = 0.0;       //!< sum of per-core IPCs
    std::uint64_t totalInsts = 0;
    Cycles cycles = 0;         //!< slowest core's cycles
    double seconds = 0.0;

    EnergyBreakdown energy;
    double edp = 0.0;          //!< joule-seconds

    double l3HitRate = 0.0;
    double avgL3LatencyCycles = 0.0; //!< Fig. 8 metric
    double tlbMissRate = 0.0;        //!< full (post-L2-TLB) miss rate

    std::uint64_t l3Accesses = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t coldFills = 0;
    std::uint64_t pageFills = 0;
    std::uint64_t pageWritebacks = 0;
    std::uint64_t inPkgBytes = 0;
    std::uint64_t offPkgBytes = 0;
};

class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Runs every core to the configured instruction budget;
     *  equivalent to warmup() followed by measure(). */
    RunResult run();

    /** The warmup leg of run(): advances every core to warmupInsts. */
    void warmup();

    /**
     * The measurement leg of run(): captures the warm baseline, runs
     * every core to the full budget, drains, and reports warm deltas.
     * Call after warmup() or loadCheckpoint()/restoreCheckpoint().
     */
    RunResult measure();

    /**
     * Warm-state checkpointing (DESIGN.md 8). makeCheckpoint()
     * serializes the complete architectural and timing state at the
     * warmup/measure boundary; restoreCheckpoint() rebuilds it so that
     * a subsequent measure() is byte-identical to a straight run. The
     * checkpoint's config fingerprint must match this system's
     * warm-relevant configuration, else restore is a hard error.
     */
    ckpt::Checkpoint makeCheckpoint() const;
    void restoreCheckpoint(const ckpt::Checkpoint &ckpt);
    void saveCheckpoint(const std::string &path) const;
    void loadCheckpoint(const std::string &path);

    /**
     * Finishes record mode: pads every stream with recordPadRecords
     * extra records and publishes the trace file. Returns the total
     * records written, or 0 when not recording. Idempotent; called by
     * tdc_sim after measure() (the destructor also closes, unpadded,
     * as a backstop).
     */
    std::uint64_t finishRecording();

    /** Dumps the full hierarchical statistics tree. */
    void dumpStats(std::ostream &os) const;

    /** The same tree as one JSON object keyed by component name. */
    json::Value statsJson(const stats::JsonOptions &opt = {}) const;

    /** The observability hub; nullptr when tracing and sampling are
     *  both off (probes then stay unattached and cost nothing). */
    obs::Observability *observability() { return obs_.get(); }
    const obs::Observability *observability() const { return obs_.get(); }

    /** The invariant auditor; nullptr unless armed via "check.audit"
     *  (or TDC_AUDIT=1 in the environment when the key is absent). */
    check::InvariantAuditor *auditor() { return auditor_.get(); }
    const check::InvariantAuditor *auditor() const
    {
        return auditor_.get();
    }

    // Component access for tests and examples.
    DramCacheOrg &org() { return *org_; }
    OooCore &core(unsigned i) { return *cores_.at(i); }
    MemorySystem &memSystem(unsigned i) { return *memSystems_.at(i); }
    PageTable &pageTable(unsigned i) { return *pageTables_.at(i); }
    DramDevice &inPkgDram() { return *inPkg_; }
    DramDevice &offPkgDram() { return *offPkg_; }
    unsigned activeCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    unsigned pageTableCount() const
    {
        return static_cast<unsigned>(pageTables_.size());
    }
    const SystemConfig &config() const { return cfg_; }

  private:
    /** Raw counters captured so results are reported as warm deltas. */
    struct Snapshot
    {
        std::vector<std::uint64_t> coreInsts;
        std::vector<Tick> coreNow;
        double l3LatSum = 0.0;
        std::uint64_t l3LatN = 0;
        double tlbPenaltySum = 0.0;
        std::uint64_t tlbHits = 0;
        std::uint64_t tlbMisses = 0;
        std::uint64_t l1Acc = 0, l2Acc = 0, tlbAcc = 0;
        std::uint64_t l3Accesses = 0, l3Hits = 0;
        std::uint64_t victimHits = 0, pageFills = 0, pageWritebacks = 0;
        std::uint64_t tagProbes = 0;
        std::uint64_t inPkgBytes = 0, offPkgBytes = 0;
        DramEnergyCounter inPkgEnergy, offPkgEnergy;
    };

    void buildWorkloads();
    void buildObservability();
    void buildAuditor();
    void advanceAllCores(std::uint64_t inst_target);
    Snapshot capture() const;

    SystemConfig cfg_;
    std::unique_ptr<ClockDomain> cpuClk_;
    std::unique_ptr<DramDevice> inPkg_;
    std::unique_ptr<DramDevice> offPkg_;
    std::unique_ptr<PhysMem> phys_;
    std::unique_ptr<DramCacheOrg> org_;
    std::unique_ptr<EnergyModel> energyModel_;

    std::vector<std::unique_ptr<PageTable>> pageTables_;
    /** Declared before traces_: RecordingSources reference it. */
    std::unique_ptr<mtrace::MtraceWriter> recorder_;
    std::vector<std::unique_ptr<WorkloadSource>> traces_;
    std::vector<std::unique_ptr<MemorySystem>> memSystems_;
    std::vector<std::unique_ptr<OooCore>> cores_;

    /** Declared last: listeners detach before any probe owner dies. */
    std::unique_ptr<obs::Observability> obs_;
    std::unique_ptr<check::InvariantAuditor> auditor_;
};

/** Convenience: builds a SystemConfig for one design point. */
SystemConfig makeSystemConfig(OrgKind org,
                              const std::vector<std::string> &workloads,
                              std::uint64_t l3_size = 1ULL << 30);

/**
 * Hash of every configuration field that influences the state reached
 * at the warmup/measure boundary: organization, capacities, workloads,
 * warmup budget, quantum, core parameters and dotted raw overrides.
 * Measure-only knobs (instsPerCore, energy parameters, "obs.*" keys and
 * flat driver-CLI keys) are excluded, so runs differing only in those
 * can share one warm checkpoint.
 */
std::uint64_t warmFingerprint(const SystemConfig &cfg);

} // namespace tdc

#endif // TDC_SYS_SYSTEM_HH
