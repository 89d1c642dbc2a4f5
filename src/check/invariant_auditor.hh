/**
 * @file
 * Invariant auditor: cross-structure consistency checking for the
 * tagless DRAM cache, attached through the src/obs/ probe framework.
 *
 * The paper's headline guarantee -- a cTLB hit *implies* an in-package
 * hit -- rests on invariants that span four structures (cTLB, page
 * table, GIPT, free queue) and that no single aggregate counter can
 * pin down. The auditor validates them while the simulator runs:
 *
 *   (a) TLB => cache: every resident non-NC cTLB entry names a frame
 *       that is live in the GIPT, whose PTEP maps back to the entry's
 *       (proc, vpn); per-core GIPT residence counts match the TLB
 *       contents exactly.
 *   (b) GIPT <-> PTE bijection: every VC=1 PTE's cache address appears
 *       exactly once in the GIPT and vice versa; NC/PU bits are
 *       mutually consistent (VC excludes NC, PU implies VC).
 *   (c) Free-list coherence: no frame is simultaneously free-queued
 *       and GIPT-mapped, the queue holds no duplicates, the header
 *       pointer (queue front) targets a genuinely free frame, and
 *       free + mapped frames account for the whole cache.
 *   (d) Timing monotonicity: every probe payload's phase boundaries
 *       are ordered (TLB miss walk/handler, fill PTE-update/copy,
 *       eviction start/end, DRAM issue/completion).
 *   (e) Flush completeness: after an eviction, no registered on-die
 *       cache holds a valid line of the evicted frame.
 *
 * Cheap per-event checks run on every probe firing; the full
 * structural sweep (verifyAll) runs every `sweepInterval`-th
 * fill/eviction/TLB-miss firing and once at the end of measure() and
 * after every checkpoint restore. Violations are reported via fatal(),
 * so tools/tdc_fuzz (and tests) can capture them with
 * ScopedFatalCapture and print a reproduction command line.
 *
 * The auditor is off by default and registers no stats: a detached run
 * is byte-identical to a build without it, and an armed run changes no
 * simulated state, so reports stay byte-identical either way.
 */

#ifndef TDC_CHECK_INVARIANT_AUDITOR_HH
#define TDC_CHECK_INVARIANT_AUDITOR_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "obs/events.hh"
#include "obs/probe.hh"

namespace tdc {

class PageTable;
class SramCache;
class TaglessCache;
class Tlb;

namespace check {

/**
 * Auditor knobs, populated from "check.*" config keys (same spelling
 * for CLIs and sweep manifests, like "obs.*"):
 *
 *   check.audit      arm the auditor (default: off)
 *   check.interval   full structural sweep every N trigger firings
 *
 * The System additionally honours TDC_AUDIT / TDC_AUDIT_INTERVAL from
 * the environment when the corresponding key is absent, so existing
 * ctest system tests can be re-run armed without touching configs.
 */
struct AuditConfig
{
    bool enabled = false;
    std::uint64_t sweepInterval = 64;

    static AuditConfig fromConfig(const Config &cfg);
};

class InvariantAuditor
{
  public:
    explicit InvariantAuditor(const AuditConfig &cfg);

    InvariantAuditor(const InvariantAuditor &) = delete;
    InvariantAuditor &operator=(const InvariantAuditor &) = delete;

    // Wiring: the System (or a test) hands over probe points; the
    // auditor attaches listeners and detaches them on destruction.
    void observeTlbMiss(obs::ProbePoint<obs::TlbMissEvent> &p);
    void observePageFill(obs::ProbePoint<obs::PageFillEvent> &p);
    void observeEviction(obs::ProbePoint<obs::EvictionEvent> &p);
    void observeVictimHit(obs::ProbePoint<obs::VictimHitEvent> &p);
    void observeFreeQueue(obs::ProbePoint<obs::FreeQueueEvent> &p);
    void observeGipt(obs::ProbePoint<obs::GiptEvent> &p);
    void observeDram(obs::ProbePoint<obs::DramAccessEvent> &p);

    /** Structural targets; all optional (timing checks need none). */
    void setTagless(const TaglessCache *tc) { tagless_ = tc; }
    void addTlb(const Tlb *tlb, CoreId core, const PageTable *pt);
    void addPageTable(const PageTable *pt);
    /** An on-die cache checked for flush completeness on eviction. */
    void addCache(const SramCache *cache);

    /**
     * Runs the full structural sweep: GIPT/free-queue coherence, the
     * GIPT<->PTE bijection and TLB/GIPT/PTE coherence with exact
     * residence counting. fatal() on the first violation.
     */
    void verifyAll() const;

    std::uint64_t eventChecks() const { return eventChecks_; }
    std::uint64_t sweeps() const { return sweeps_; }

  private:
    struct TlbSite
    {
        const Tlb *tlb;
        CoreId core;
        const PageTable *pt;
    };

    /** Counts a trigger firing and sweeps every Nth one. */
    void maybeSweep();

    void verifyFrameTable() const;
    void verifyFreeQueue() const;
    void verifyPageTables() const;
    void verifyTlbs() const;

    AuditConfig cfg_;
    const TaglessCache *tagless_ = nullptr;
    std::vector<TlbSite> tlbs_;
    std::vector<const PageTable *> pageTables_;
    std::vector<const SramCache *> caches_;
    obs::ProbeAttachments probes_;

    std::uint64_t fires_ = 0;
    mutable std::uint64_t eventChecks_ = 0;
    mutable std::uint64_t sweeps_ = 0;
};

} // namespace check
} // namespace tdc

#endif // TDC_CHECK_INVARIANT_AUDITOR_HH
