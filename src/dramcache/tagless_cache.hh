/**
 * @file
 * The paper's contribution: a fully associative, tagless DRAM cache
 * driven by the cache-map TLB (cTLB).
 *
 * The TLB miss handler (handleTlbMiss) consolidates address translation
 * and cache management (Figure 4):
 *
 *   - page walk finds the PTE (functional walk; the caller charges the
 *     walk latency);
 *   - NC page          -> return the physical mapping (bypass);
 *   - PU set           -> busy-wait until the in-flight fill completes;
 *   - VC set           -> in-package *victim hit*: return the cache
 *                         address with no extra penalty;
 *   - otherwise        -> cold fill: set PU, pop a free frame (header
 *                         pointer), update the GIPT (charged as two full
 *                         off-package writes, Section 3.4), copy the
 *                         page from off-package DRAM, rewrite the PTE
 *                         with the cache address, clear PU, and top the
 *                         free list back up to alpha blocks by evicting
 *                         FIFO victims asynchronously.
 *
 * A cTLB hit therefore guarantees an in-package hit: access() asserts
 * that every cache-space address targets an occupied frame. Because any
 * cached page can live in any frame, the cache is fully associative.
 */

#ifndef TDC_DRAMCACHE_TAGLESS_CACHE_HH
#define TDC_DRAMCACHE_TAGLESS_CACHE_HH

#include <cstdint>
#include <unordered_map>

#include "cache/replacement.hh"
#include "common/zeroed_array.hh"
#include "dramcache/dram_cache_org.hh"
#include "dramcache/free_queue.hh"
#include "dramcache/gipt.hh"

namespace tdc {

struct TaglessCacheParams
{
    std::uint64_t cacheBytes = 1ULL << 30;
    /** Low-water mark of always-available free blocks (alpha). */
    unsigned alphaFreeBlocks = 1;
    /** Victim selection: FIFO (default, Section 5.2) or LRU (Fig. 11). */
    ReplPolicy policy = ReplPolicy::FIFO;
    /** Off-package 64B writes charged per GIPT update (conservative). */
    unsigned giptUpdateWrites = 2;
    /** GIPT entry footprint in bytes (82 bits rounded up). */
    unsigned giptEntryBytes = 11;

    /**
     * Online hot/cold page filter (the CHOP-style alternative to
     * Section 5.4's offline NC profiling): a page is only filled after
     * it has taken `filterThreshold` TLB misses while uncached; colder
     * pages are served from off-package DRAM through a conventional
     * (physical) cTLB entry. Plugged into the TLB miss handler, which
     * is exactly the flexibility hook the paper advertises.
     */
    bool filterEnabled = false;
    unsigned filterThreshold = 2;
    /** Bound on tracked pages; counts halve when the table fills. */
    std::size_t filterTableSize = 1 << 16;
};

class TaglessCache final : public DramCacheOrg
{
  public:
    TaglessCache(std::string name, DramDevice &in_pkg, DramDevice &off_pkg,
                 PhysMem &phys, const ClockDomain &cpu_clk,
                 const TaglessCacheParams &params);

    TlbMissResult handleTlbMiss(PageTable &pt, PageNum vpn, CoreId core,
                                Tick when) override;

    /**
     * Evicts a cached 2 MiB superpage: writes dirty frames back,
     * restores the physical mapping, shoots the translation down and
     * returns the frames to the free queue. The OS calls this before
     * splitting a superpage (Section 6).
     * @return tick at which the eviction traffic completes.
     */
    Tick releaseSuperpage(PageTable &pt, PageNum base_vpn, Tick when);

    /** Frames currently pinned by cached superpages. */
    std::uint64_t pinnedFrames() const { return pinnedCount_; }

    L3Result access(Addr addr, AccessType type, CoreId core,
                    Tick when) override;

    void writebackLine(Addr addr, CoreId core, Tick when) override;

    void onTlbResidence(const TlbEntry &entry, CoreId core,
                        bool resident) override;

    std::string_view kind() const override { return "cTLB"; }
    bool usesCacheAddressSpace() const override { return true; }

    const TaglessCacheParams &params() const { return params_; }
    const Gipt &gipt() const { return gipt_; }
    std::uint64_t totalFrames() const { return frames_.size(); }
    std::size_t freeBlocks() const { return freeQueue_.size(); }

    std::uint64_t coldFills() const { return pageFills_.value(); }
    std::uint64_t ncBypasses() const { return ncBypasses_.value(); }
    std::uint64_t filterRejects() const { return filterRejects_.value(); }
    std::uint64_t puWaits() const { return puWaits_.value(); }
    std::uint64_t freeStalls() const { return freeStalls_.value(); }
    std::uint64_t shootdowns() const { return shootdowns_.value(); }
    std::uint64_t evictions() const { return evictions_.value(); }

    /**
     * Read-only structural views for the invariant auditor
     * (src/check/): the free queue with its readyTicks, the per-frame
     * pinned flags and the victim order. A frame is free exactly when
     * its GIPT entry is unmapped.
     */
    const FreeQueue &freeQueue() const { return freeQueue_; }
    bool framePinned(std::uint64_t frame) const { return frames_[frame].pinned; }

    /**
     * The victim order holds every mapped, unpinned frame once, least
     * recent first: a fill appends, and under LRU every use moves the
     * frame to the back. Front, neighbours and size; invalidPage past
     * either end.
     */
    std::uint64_t orderSize() const { return listed_; }
    std::uint64_t orderFront() const { return fromP1(headP1_); }
    std::uint64_t
    orderNext(std::uint64_t frame) const
    {
        return fromP1(frames_[frame].nextP1);
    }
    std::uint64_t
    orderPrev(std::uint64_t frame) const
    {
        return fromP1(frames_[frame].prevP1);
    }

    /** Installed by System; resolves serialized GIPT PTEP identities. */
    void
    setPteResolver(PteResolver resolver) override
    {
        pteResolver_ = std::move(resolver);
    }

  protected:
    /**
     * Checkpointing of the full cache-management state (DESIGN.md 8):
     * one record per mapped frame (GIPT entry with the PTEP as a
     * (proc, type, vpn) identity, fill tick and frame metadata), the
     * free-queue runs, the victim order, filter counts and the
     * tagless-specific stats. An unmapped frame's GIPT entry and
     * metadata are all zero, so they are not written and a restore
     * touches only the listed frames.
     */
    void saveOrgState(ckpt::Serializer &out) const override;
    void loadOrgState(ckpt::Deserializer &in) override;

  private:
    /**
     * Per-frame state; all zero while the frame is unmapped. `cores`
     * and `lines` record which cores and which of the page's 64 lines
     * reached the frame through access() since its fill: only those can
     * hold on-die copies, so an eviction flushes only those (DESIGN.md
     * 5). Not checkpointed; a restore sets both to all-ones on every
     * occupied frame.
     */
    struct FrameMeta
    {
        bool dirty = false;
        /** Part of a cached superpage: never in the victim order
         *  (reclaimed only via releaseSuperpage). */
        bool pinned = false;
        std::uint8_t cores = 0; //!< bit i: core i accessed the frame
        /** Victim-order neighbours as frame + 1; 0 = none. */
        std::uint32_t prevP1 = 0;
        std::uint32_t nextP1 = 0;
        std::uint64_t lines = 0; //!< bit i: line i was accessed
    };
    static_assert(Gipt::maxCores <= 8, "FrameMeta::cores is 8 bits");
    static_assert(sizeof(FrameMeta) == 24, "FrameMeta grew");

    static std::uint64_t
    fromP1(std::uint32_t p1)
    {
        return p1 ? std::uint64_t{p1} - 1 : invalidPage;
    }

    /** True while `frame` is in the victim order (the front has no
     *  predecessor, every other entry has one). */
    bool
    listed(std::uint64_t frame) const
    {
        return frames_[frame].prevP1 != 0 || headP1_ == frame + 1;
    }

    /** Appends `frame` at the back (most recent end) of the order. */
    void linkBack(std::uint64_t frame);

    /** Takes `frame` out of the victim order. */
    void unlink(std::uint64_t frame);

    /**
     * Finds a 512-aligned run of free frames and removes it from the
     * free queue; returns the base frame or invalidPage if no aligned
     * run is currently free (the caller then falls back to NC).
     */
    std::uint64_t reserveSuperpageRun();

    /**
     * A use of a mapped frame (a CA access or a victim hit): under LRU
     * an unpinned frame moves to the back of the victim order; FIFO
     * keeps the fill order.
     */
    void touch(std::uint64_t frame);

    /** Picks and evicts one victim; free frame enqueued with its
     *  eviction-traffic completion tick. */
    void evictOne(Tick when);

    /**
     * Flushes the frame's on-die lines through the page invalidator,
     * limited to the frame's core and line masks. Dirty lines land in
     * the frame as one in-package write and mark it dirty.
     * @return tick at which that write completes (`when` if none).
     */
    Tick flushOnDie(std::uint64_t frame, Tick when);

    /**
     * Takes the victim out of the order: the frontmost frame that is
     * not blocked, in one pass that moves each blocked frame to the
     * back; if every frame is blocked, the frontmost one not mid-fill,
     * after a forced shootdown.
     */
    std::uint64_t pickVictim();

    bool
    evictionBlocked(std::uint64_t frame) const
    {
        if (frames_[frame].pinned)
            return true;
        const Gipt::Entry &g = gipt_.at(frame);
        return g.residentAnywhere() || (g.valid() && g.ptep->pu);
    }

    /** Forces eviction eligibility via TLB shootdown. */
    void forceShootdown(std::uint64_t frame);

    Addr
    giptEntryAddr(std::uint64_t frame) const
    {
        return giptBase_ + frame * params_.giptEntryBytes;
    }

    TaglessCacheParams params_;
    Gipt gipt_;
    FreeQueue freeQueue_;
    ZeroedArray<FrameMeta> frames_;

    /** The victim order's ends as frame + 1 (0 = empty), and its size. */
    std::uint32_t headP1_ = 0;
    std::uint32_t tailP1_ = 0;
    std::uint64_t listed_ = 0;

    /** Online filter: TLB-miss counts of uncached pages. */
    std::unordered_map<AsidVpn, std::uint32_t> filterCounts_;

    /** True once the page has proven hot enough to cache. */
    bool passesFilter(AsidVpn key);

    /** Off-package byte address of the GIPT storage region. */
    Addr giptBase_;

    /** Set while the current eviction's victim needed a shootdown. */
    bool lastVictimForced_ = false;

    /** PTE identity -> live pointer mapping for checkpoint restore. */
    PteResolver pteResolver_;

    stats::Scalar ncBypasses_;
    stats::Scalar puWaits_;
    stats::Scalar freeStalls_;
    stats::Scalar shootdowns_;
    stats::Scalar evictions_;
    stats::Scalar residentSkips_;
    stats::Scalar giptWrites_;
    stats::Scalar giptReads_;
    stats::Scalar superpageFills_;
    stats::Scalar superpageNcFallbacks_;
    stats::Scalar filterRejects_;
    std::uint64_t pinnedCount_ = 0;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_TAGLESS_CACHE_HH
