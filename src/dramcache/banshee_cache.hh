/**
 * @file
 * Banshee-style page cache with TLB-resident tags and frequency-based
 * replacement (Yu et al., "Banshee: Bandwidth-Efficient DRAM Caching
 * via Software/Hardware Cooperation", arxiv 1704.02677).
 *
 * Banshee keeps the cache's tag/mapping information in the page tables
 * and TLBs instead of probing a tag store on every access, so hits pay
 * no tag latency at all. Replacement is frequency-based with sampling:
 * only every Nth access updates the counters, and a missing page only
 * displaces a cached one once its sampled counter exceeds the victim's
 * by a threshold. Misses that do not trigger a replacement are served
 * straight from off-package DRAM without filling the page, which is
 * the design's bandwidth-efficiency property (no fill/evict churn on
 * low-reuse pages).
 *
 * Remapping a page means rewriting its PTE. Banshee defers that with a
 * small on-die tag buffer holding the not-yet-propagated remaps; when
 * the buffer fills, the pending PTE updates are flushed to off-package
 * memory lazily (posted writes, plus a TLB shootdown per entry that we
 * fold into the same posted traffic).
 */

#ifndef TDC_DRAMCACHE_BANSHEE_CACHE_HH
#define TDC_DRAMCACHE_BANSHEE_CACHE_HH

#include <cstdint>

#include "common/zeroed_array.hh"
#include "dramcache/dram_cache_org.hh"
#include "dramcache/page_sets.hh"

namespace tdc {

struct BansheeCacheParams
{
    std::uint64_t cacheBytes = 1ULL << 30;
    unsigned associativity = 4;
    unsigned sampleRate = 8;        //!< 1-in-N accesses update counters
    unsigned threshold = 2;         //!< candidate must lead victim by this
    unsigned tagBufferEntries = 1024; //!< pending PTE remaps before flush
};

class BansheeCache final : public DramCacheOrg
{
  public:
    BansheeCache(std::string name, DramDevice &in_pkg, DramDevice &off_pkg,
                 PhysMem &phys, const ClockDomain &cpu_clk,
                 const BansheeCacheParams &params);

    L3Result access(Addr addr, AccessType type, CoreId core,
                    Tick when) override;

    void writebackLine(Addr addr, CoreId core, Tick when) override;

    std::string_view kind() const override { return "Banshee"; }

    /** The tag buffer is the only on-die L3 metadata (8B per entry). */
    std::uint64_t
    onDieTagBits() const override
    {
        return std::uint64_t{params_.tagBufferEntries} * 64;
    }

    /** Tag-buffer operations (inserts + flush drains). */
    std::uint64_t tagProbeCount() const override
    {
        return tagBufferOps_.value();
    }

    const BansheeCacheParams &params() const { return params_; }

    /** Functional membership check, for tests. */
    bool containsPage(PageNum ppn) const { return sets_.contains(ppn); }

    std::uint64_t tagBufferFlushes() const
    {
        return tagBufferFlushes_.value();
    }
    std::uint64_t bypassedMisses() const
    {
        return bypassedMisses_.value();
    }

  protected:
    void saveOrgState(ckpt::Serializer &out) const override;
    void loadOrgState(ckpt::Deserializer &in) override;

  private:
    struct Way
    {
        PageNum ppn = 0;
        bool valid = false;
        bool dirty = false;
        std::uint32_t count = 0; //!< sampled access-frequency counter
    };

    /**
     * Per-set challenger: the hottest currently-uncached page. The PPN
     * is stored +1 so that the all-zero record is "no challenger" and
     * never matches page 0.
     */
    struct Candidate
    {
        PageNum ppnP1 = 0;
        std::uint32_t count = 0;
    };

    /** Installs ppn over the victim way; charges evict + fill traffic. */
    void replacePage(std::uint64_t set, unsigned way, PageNum ppn,
                     std::uint32_t count, Tick when, bool dirty);

    /** Records one pending PTE remap; flushes the buffer when full. */
    void noteRemap(Tick when);

    /** Halves every counter in a set when one saturates. */
    void ageSet(std::uint64_t set);

    static constexpr std::uint32_t maxCount = 255;

    BansheeCacheParams params_;
    PageSets<Way> sets_;
    ZeroedArray<Candidate> cands_; //!< one challenger per set
    std::uint64_t sampleTick_ = 0; //!< deterministic sampling counter
    std::uint64_t tagBufferOcc_ = 0;

    stats::Scalar sampledEvents_;
    stats::Scalar bypassedMisses_;
    stats::Scalar tagBufferOps_;
    stats::Scalar tagBufferFlushes_;
    stats::Scalar dirtyEvictions_;
    stats::Scalar wbMissOffPkg_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_BANSHEE_CACHE_HH
