/**
 * @file
 * Common interface of the last-level (L3) memory organizations compared
 * in the paper's evaluation: No-L3, Bank-Interleaving, SRAM-tag
 * page cache, the tagless cTLB cache, an Ideal all-in-package system,
 * and (for the Table 2 design-space discussion) an Alloy-style
 * block-based cache.
 *
 * An organization owns three responsibilities:
 *  1. the TLB-miss path (handleTlbMiss), which for the tagless design
 *     performs cache fills and PTE rewriting;
 *  2. the post-L2-miss access path (access), which times the 64B block
 *     delivery from in-package or off-package DRAM;
 *  3. accepting L2 write-backs (writebackLine).
 */

#ifndef TDC_DRAMCACHE_DRAM_CACHE_ORG_HH
#define TDC_DRAMCACHE_DRAM_CACHE_ORG_HH

#include <functional>
#include <string>

#include "ckpt/checkpointable.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_device.hh"
#include "dramcache/frame_space.hh"
#include "obs/events.hh"
#include "obs/probe.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"
#include "vm/page_table.hh"
#include "vm/phys_mem.hh"
#include "vm/tlb.hh"

namespace tdc {

/** Result of the TLB-miss handler. */
struct TlbMissResult
{
    TlbEntry entry;        //!< translation to install in the TLB(s)
    Tick readyTick = 0;    //!< when the handler returns
    bool victimHit = false; //!< TLB miss but page already in-package
    bool coldFill = false;  //!< page had to be fetched off-package
};

/** Result of an L3-level block access. */
struct L3Result
{
    Tick completionTick = 0;
    bool servicedInPackage = false;
    bool l3Hit = false; //!< for orgs with a hit/miss notion
};

class DramCacheOrg : public SimObject,
                     public ckpt::Checkpointable,
                     public TlbResidenceListener
{
  public:
    /**
     * Flushes the on-die cache lines of one (frame-space) page and
     * returns how many distinct dirty lines were written back in the
     * process. Only the cores set in `cores` (bit i = core i) and the
     * lines set in `lines` (bit i = the page's i-th 64-byte line) can
     * hold a copy; the caller guarantees that nothing outside the
     * masks does.
     */
    using PageInvalidator = std::function<unsigned(
        Addr page_addr, std::uint32_t cores, std::uint64_t lines)>;

    /** Invalidates one translation in every core's TLBs. */
    using ShootdownFn = std::function<void(AsidVpn key)>;

    /**
     * Resolves a serialized PTE identity (proc, type, vpn) back to the
     * live Pte* after the page tables have been restored. Installed by
     * System; only orgs that store PTE pointers (the tagless cache's
     * GIPT PTEP field) use it.
     */
    using PteResolver =
        std::function<Pte *(ProcId proc, PageType type, PageNum vpn)>;

    DramCacheOrg(std::string name, DramDevice &in_pkg, DramDevice &off_pkg,
                 PhysMem &phys, const ClockDomain &cpu_clk);

    /**
     * Handles a TLB miss on (pt.proc, vpn): performs the page walk
     * (functionally; the caller charges the walk latency) and whatever
     * cache management the organization requires, returning the
     * translation to install. `when` is the tick at which the walk has
     * completed.
     */
    virtual TlbMissResult handleTlbMiss(PageTable &pt, PageNum vpn,
                                        CoreId core, Tick when);

    /** Times a 64-byte demand access that missed the on-die caches. */
    virtual L3Result access(Addr addr, AccessType type, CoreId core,
                            Tick when) = 0;

    /** Accepts a 64-byte dirty line evicted by an L2 cache. */
    virtual void writebackLine(Addr addr, CoreId core, Tick when);

    /** TLB insert/evict notification for residence tracking. */
    void onTlbResidence(const TlbEntry &entry, CoreId core,
                        bool resident) override;

    /**
     * Static-dispatch id for the per-access fast path: the concrete
     * organizations set this to their OrgKind value so hot call sites
     * can switch + static_cast instead of paying a virtual call (see
     * org_dispatch.hh). -1 means "unknown; use the virtual call".
     */
    int orgKindId() const { return orgKindId_; }

    /** Stamped by the factory (static_cast<int>(OrgKind)). */
    void setOrgKindId(int id) { orgKindId_ = id; }

    /** Name used in reports ("cTLB", "SRAM", ...). */
    virtual std::string_view kind() const = 0;

    /** True when the organization translates VAs to cache addresses. */
    virtual bool usesCacheAddressSpace() const { return false; }

    void setPageInvalidator(PageInvalidator fn) { invalidator_ = std::move(fn); }
    void setShootdownFn(ShootdownFn fn) { shootdown_ = std::move(fn); }
    virtual void setPteResolver(PteResolver) {}

    /**
     * Checkpointing: the base serializes the aggregate stats every
     * organization shares, then delegates organization-specific state
     * to saveOrgState()/loadOrgState().
     */
    void saveState(ckpt::Serializer &out) const final;
    void loadState(ckpt::Deserializer &in) final;

    /** On-die SRAM bits this organization spends on L3 metadata. */
    virtual std::uint64_t onDieTagBits() const { return 0; }

    /** Tag-array probes performed (0 for tagless designs). */
    virtual std::uint64_t tagProbeCount() const { return 0; }

    // Aggregate statistics shared by all organizations.
    std::uint64_t l3Accesses() const { return accesses_.value(); }
    std::uint64_t l3Hits() const { return hitsInPkg_.value(); }
    std::uint64_t l3Misses() const { return missesOffPkg_.value(); }
    std::uint64_t pageFills() const { return pageFills_.value(); }
    std::uint64_t pageWritebacks() const { return pageWritebacks_.value(); }
    std::uint64_t victimHits() const { return victimHits_.value(); }

    double
    l3HitRate() const
    {
        const auto total = accesses_.value();
        return total ? static_cast<double>(hitsInPkg_.value()) / total
                     : 0.0;
    }

    // Probe points (src/obs/): declared on the base so wiring is
    // organization-agnostic; only organizations that implement the
    // corresponding mechanism ever fire them, and an unattached probe
    // costs one empty-vector test at the site.
    obs::ProbePoint<obs::PageFillEvent> fillProbe{"page_fill"};
    obs::ProbePoint<obs::EvictionEvent> evictProbe{"eviction"};
    obs::ProbePoint<obs::VictimHitEvent> victimHitProbe{"victim_hit"};
    obs::ProbePoint<obs::FreeQueueEvent> freeQueueProbe{"free_queue"};
    obs::ProbePoint<obs::GiptEvent> giptProbe{"gipt"};

  protected:
    /** Organization-specific checkpoint payload; default: stateless. */
    virtual void saveOrgState(ckpt::Serializer &) const {}
    virtual void loadOrgState(ckpt::Deserializer &) {}

    /** Times a 64-byte access on the off-package device. */
    Tick offPkgBlockAccess(PageNum ppn, Addr offset, bool is_write,
                           Tick when);

    /** Times a 64-byte access on the in-package device. */
    Tick inPkgBlockAccess(std::uint64_t frame, Addr offset, bool is_write,
                          Tick when);

    /** Streams a whole 4 KiB page off-package (one row). */
    Tick offPkgPageAccess(PageNum ppn, bool is_write, Tick when);

    /** Streams a whole 4 KiB page in-package (one row). */
    Tick inPkgPageAccess(std::uint64_t frame, bool is_write, Tick when);

    /**
     * Writes a dirty cached page back: an in-package page read chained
     * into a posted off-package page write. Counts page_writebacks.
     * @return tick at which the off-package write completes.
     */
    Tick writeBackPage(std::uint64_t frame, PageNum ppn, Tick when);

    void
    recordAccess(const L3Result &res)
    {
        ++accesses_;
        if (res.servicedInPackage)
            ++hitsInPkg_;
        else
            ++missesOffPkg_;
    }

    DramDevice &inPkg_;
    DramDevice &offPkg_;
    PhysMem &phys_;
    const ClockDomain &cpuClk_;
    PageInvalidator invalidator_;
    ShootdownFn shootdown_;
    int orgKindId_ = -1; //!< set by concrete orgs (OrgKind value)

    stats::Scalar accesses_;
    stats::Scalar hitsInPkg_;
    stats::Scalar missesOffPkg_;
    stats::Scalar pageFills_;
    stats::Scalar pageWritebacks_;
    stats::Scalar victimHits_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_DRAM_CACHE_ORG_HH
