/**
 * @file
 * Per-core memory system: the access path of Figure 1 (conventional
 * TLB + tagged L3) or Figure 2 (cTLB + tagless L3), selected purely by
 * which DramCacheOrg is plugged in.
 *
 * Path of one access:
 *   1. TLB lookup (L1 I/D TLB, then the unified L2 TLB). On a full
 *      miss, the page walk plus the organization's TLB-miss handler
 *      run; for the tagless cache that handler performs cache fills.
 *   2. The translation yields a frame-space address: CA space for
 *      pages resident in the tagless cache, PA space otherwise.
 *   3. L1 -> L2 -> L3-organization access, charging each level's
 *      latency; L2 victim write-backs flow to the organization.
 */

#ifndef TDC_CORE_MEMORY_SYSTEM_HH
#define TDC_CORE_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>

#include "cache/sram_cache.hh"
#include "ckpt/checkpointable.hh"
#include "common/stats.hh"
#include "core/core_params.hh"
#include "dramcache/dram_cache_org.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace tdc {

/** Timing outcome of one memory reference. */
struct MemAccessResult
{
    Tick completionTick = 0;
    bool l1Hit = false;
    bool l2Hit = false;
    /** Translation took longer than an L1 TLB hit: an L2 TLB hit or a
     *  full miss. Only full misses walk (MemorySystem::tlbFullMisses). */
    bool tlbMiss = false;
    bool reachedL3 = false;
};

class MemorySystem : public SimObject, public ckpt::Checkpointable
{
  public:
    MemorySystem(std::string name, CoreId core, const CoreParams &params,
                 const ClockDomain &clk, PageTable &pt, DramCacheOrg &org);

    /** Performs one timed memory reference. */
    MemAccessResult access(Addr vaddr, AccessType type, Tick when);

    /**
     * Flushes the lines of one frame-space page named by `lines` (bit
     * i = the page's i-th 64-byte line) from this core's L1I, L1D and
     * L2 caches.
     * @return mask of the flushed lines that were dirty at any level.
     * A line can be dirty at two levels at once (re-written in L1 over
     * an older dirty write-back parked in L2) and, for thread-shared
     * pages, in several cores' private caches; it still streams to the
     * frame as one line, so callers that size flush traffic OR the
     * masks across cores and count bits rather than summing counts.
     */
    std::uint64_t invalidatePage(Addr page_addr, std::uint64_t lines);

    /** TLB shootdown of one translation on this core. */
    void shootdown(AsidVpn key);

    CoreId coreId() const { return core_; }
    PageTable &pageTable() { return pt_; }

    const Tlb &itlb() const { return *itlb_; }
    const Tlb &dtlb() const { return *dtlb_; }
    const Tlb &l2tlb() const { return *l2tlb_; }
    const SramCache &l1i() const { return *l1i_; }
    const SramCache &l1d() const { return *l1d_; }
    const SramCache &l2() const { return *l2_; }

    std::uint64_t tlbAccesses() const
    {
        return itlb_->hits() + itlb_->misses() + dtlb_->hits()
               + dtlb_->misses();
    }
    std::uint64_t l1Accesses() const
    {
        return l1i_->hits() + l1i_->misses() + l1d_->hits()
               + l1d_->misses();
    }
    std::uint64_t l2Accesses() const
    {
        return l2_->hits() + l2_->misses();
    }

    std::uint64_t tlbFullMisses() const { return tlbFullMisses_.value(); }
    std::uint64_t walks() const { return tlbFullMisses_.value(); }

    /** Fired once per full TLB miss, after the handler returns. */
    obs::ProbePoint<obs::TlbMissEvent> tlbMissProbe{"tlb_miss"};

    /** Mean post-L2-miss latency in cycles (Fig. 8 metric). */
    double avgL3LatencyCycles() const { return l3LatencyCycles_.mean(); }
    double l3LatencySumCycles() const { return l3LatencyCycles_.sum(); }
    std::uint64_t l3Samples() const { return l3LatencyCycles_.count(); }
    double tlbMissPenaltySumCycles() const
    {
        return tlbMissPenaltyCycles_.sum();
    }

    /** Delegates to the three TLBs and three SRAM caches, then adds the
     *  per-core access-path stats. */
    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    /** Resolves a translation, running the miss path if needed. */
    std::pair<TlbEntry, Tick> translate(AsidVpn key, bool ifetch,
                                        Tick when);

    CoreId core_;
    CoreParams params_;
    const ClockDomain &clk_;
    PageTable &pt_;
    DramCacheOrg &org_;

    std::unique_ptr<Tlb> itlb_;
    std::unique_ptr<Tlb> dtlb_;
    std::unique_ptr<Tlb> l2tlb_;
    std::unique_ptr<SramCache> l1i_;
    std::unique_ptr<SramCache> l1d_;
    std::unique_ptr<SramCache> l2_;

    stats::Scalar tlbFullMisses_;
    stats::Scalar victimHits_;
    stats::Scalar coldFills_;
    stats::Average l3LatencyCycles_;
    stats::Average tlbMissPenaltyCycles_;
};

} // namespace tdc

#endif // TDC_CORE_MEMORY_SYSTEM_HH
