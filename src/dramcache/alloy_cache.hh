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
 *
 * The simulator keeps one 16-bit word per slot in a lazily zeroed
 * array, so a run pays two bytes for each slot it fills. The low 15
 * bits hold the line's tag, `line / slots + 1` (0 is an empty slot),
 * and bit 15 is the dirty bit; the line is `(tag - 1) * slots + slot`.
 * The largest tag of the physical address space must fit in 15 bits,
 * which with an 8 GiB off-package device needs a cache of about
 * 288 KiB or more.
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
    static constexpr std::uint16_t tagMask = 0x7fff;
    static constexpr std::uint16_t dirtyBit = 0x8000;

    std::uint64_t slotOf(std::uint64_t line) const
    {
        return line % numSlots_;
    }

    /** The tag of `line` in its slot; never 0. */
    std::uint16_t
    tagOf(std::uint64_t line) const
    {
        tdc_assert(line < physLines_,
                   "Alloy cache saw line {} past memory", line);
        return static_cast<std::uint16_t>(line / numSlots_ + 1);
    }

    /** The line whose tag is `tag` in `slot`. */
    std::uint64_t
    lineAt(std::uint64_t slot, std::uint16_t tag) const
    {
        return (std::uint64_t{tag} - 1) * numSlots_ + slot;
    }

    /** In-package device byte address of a TAD slot. */
    Addr
    slotAddr(std::uint64_t slot) const
    {
        return slot * params_.tadBytes;
    }

    AlloyCacheParams params_;
    std::uint64_t numSlots_ = 0;
    std::uint64_t physLines_ = 0; //!< lines of the physical space
    // One word per slot: tag (tagMask) | dirtyBit. A checkpoint lists
    // only the filled slots, each with its line and dirty bit.
    ZeroedArray<std::uint16_t> slots_;

    stats::Scalar dirtyEvictions_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_ALLOY_CACHE_HH
