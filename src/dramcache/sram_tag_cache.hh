/**
 * @file
 * Page-based DRAM cache with on-die SRAM tags ("SRAM", Section 4).
 *
 * This is the common baseline of the state-of-the-art page caches
 * (Footprint/CHOP) before their over-fetch optimizations: a 16-way
 * set-associative, 4 KiB-page-granularity cache whose tags live in a
 * dedicated on-die SRAM array. Every L3 access -- hit or miss -- pays
 * the tag lookup latency (Table 6) on the critical path, matching
 * Equation 3:
 *
 *   AvgL3Latency = AccessTime_SRAM-tag + BlockAccessTime_in-pkg
 *                + MissRate_L3 * PageAccessTime_off-pkg
 *
 * On a miss the whole page is fetched from off-package DRAM (critical
 * path) and written into the allocated frame (background); a dirty
 * victim is streamed back to off-package DRAM in the background.
 */

#ifndef TDC_DRAMCACHE_SRAM_TAG_CACHE_HH
#define TDC_DRAMCACHE_SRAM_TAG_CACHE_HH

#include <cstdint>

#include "cache/replacement.hh"
#include "dramcache/dram_cache_org.hh"
#include "dramcache/page_sets.hh"

namespace tdc {

struct SramTagCacheParams
{
    std::uint64_t cacheBytes = 1ULL << 30;
    unsigned associativity = 16;
    Cycles tagLatency = 11;          //!< Table 6, 1GB point
    ReplPolicy policy = ReplPolicy::LRU;
    double tagEnergyPjPerAccess = 1000.0; //!< 2MB SRAM probe (CACTI-ish)
};

/** Tag access latency for a given cache size (Table 6, CACTI-6.5). */
Cycles sramTagLatencyForSize(std::uint64_t cache_bytes);

/** Tag array size in bytes for a given cache size (Table 6). */
std::uint64_t sramTagBytesForSize(std::uint64_t cache_bytes);

class SramTagCache final : public DramCacheOrg
{
  public:
    SramTagCache(std::string name, DramDevice &in_pkg, DramDevice &off_pkg,
                 PhysMem &phys, const ClockDomain &cpu_clk,
                 const SramTagCacheParams &params);

    L3Result access(Addr addr, AccessType type, CoreId core,
                    Tick when) override;

    void writebackLine(Addr addr, CoreId core, Tick when) override;

    std::string_view kind() const override { return "SRAM"; }

    std::uint64_t
    onDieTagBits() const override
    {
        return sramTagBytesForSize(params_.cacheBytes) * 8;
    }

    /** Tag-array probes, for the energy model. */
    std::uint64_t tagProbes() const { return tagProbes_.value(); }
    std::uint64_t tagProbeCount() const override
    {
        return tagProbes_.value();
    }

    const SramTagCacheParams &params() const { return params_; }

    /** Functional membership check, for tests. */
    bool containsPage(PageNum ppn) const { return sets_.contains(ppn); }

  protected:
    void saveOrgState(ckpt::Serializer &out) const override;
    void loadOrgState(ckpt::Deserializer &in) override;

  private:
    struct Way
    {
        PageNum ppn = 0;
        bool valid = false;
        bool dirty = false;
        /** The victim key: the use clock at fill, and under LRU at
         *  every hit and L2 write-back since. Unique within a set. */
        std::uint64_t stamp = 0;
    };

    /** Fills ppn into its set, evicting as needed; returns the frame. */
    std::uint64_t fillPage(PageNum ppn, Tick when, bool dirty);

    /** A hit or write-back: under LRU the way becomes its set's most
     *  recent; FIFO keeps the fill order. */
    void
    touch(Way &way)
    {
        if (params_.policy == ReplPolicy::LRU)
            way.stamp = ++useClock_;
    }

    SramTagCacheParams params_;
    PageSets<Way> sets_;
    std::uint64_t useClock_ = 0;

    stats::Scalar tagProbes_;
    stats::Scalar dirtyEvictions_;
    stats::Scalar wbMissOffPkg_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_SRAM_TAG_CACHE_HH
