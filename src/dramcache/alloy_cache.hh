/**
 * @file
 * Block-based (64B) direct-mapped DRAM cache in the style of Alloy
 * Cache [Qureshi & Loh, MICRO'12], used to populate the block-based
 * column of the paper's Table 2 design comparison.
 *
 * Tags live in the in-package DRAM, co-located with the data (TAD: one
 * burst streams tag+data together), so a hit costs a single, slightly
 * longer in-package access and a miss additionally pays the off-package
 * block fetch. Tag storage consumes in-package capacity: 12.5% of the
 * device is unusable for data, and there is no spatial-locality
 * amortization of row activations for streaming workloads.
 */

#ifndef TDC_DRAMCACHE_ALLOY_CACHE_HH
#define TDC_DRAMCACHE_ALLOY_CACHE_HH

#include <cstdint>

#include "common/zeroed_array.hh"
#include "dramcache/dram_cache_org.hh"

namespace tdc {

struct AlloyCacheParams
{
    std::uint64_t cacheBytes = 1ULL << 30;
    /** Bytes streamed per tag-and-data access (64B data + 8B tag). */
    unsigned tadBytes = 72;
};

class AlloyCache final : public DramCacheOrg
{
  public:
    AlloyCache(std::string name, DramDevice &in_pkg, DramDevice &off_pkg,
               PhysMem &phys, const ClockDomain &cpu_clk,
               const AlloyCacheParams &params);

    L3Result access(Addr addr, AccessType type, CoreId core,
                    Tick when) override;

    void writebackLine(Addr addr, CoreId core, Tick when) override;

    std::string_view kind() const override { return "Alloy"; }

    /** Usable data blocks (capacity lost to in-DRAM tags). */
    std::uint64_t dataBlocks() const { return numSlots_; }

  protected:
    void saveOrgState(ckpt::Serializer &out) const override;
    void loadOrgState(ckpt::Deserializer &in) override;

  private:
    std::uint64_t slotOf(std::uint64_t line) const
    {
        return line % numSlots_;
    }

    /** In-package device byte address of a TAD slot. */
    Addr
    slotAddr(std::uint64_t slot) const
    {
        return slot * params_.tadBytes;
    }

    static constexpr std::uint8_t stValid = 1;
    static constexpr std::uint8_t stDirty = 2;

    AlloyCacheParams params_;
    std::uint64_t numSlots_ = 0;
    // Tag store as lazily zeroed arrays: a 1 GiB cache has ~15M slots,
    // and a run touches the few it fills. Lines are stored biased by +1
    // so the all-zero fresh state means "empty" (0 == no line); a
    // checkpoint lists only the valid slots, with unbiased lines.
    ZeroedArray<std::uint64_t> linesP1_;
    ZeroedArray<std::uint8_t> state_; //!< stValid | stDirty

    stats::Scalar dirtyEvictions_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_ALLOY_CACHE_HH
