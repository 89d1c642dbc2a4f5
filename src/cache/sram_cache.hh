/**
 * @file
 * Functional set-associative LRU SRAM cache model (L1I/L1D/L2).
 *
 * The cache tracks tags, valid and dirty bits; data contents are not
 * modeled. Timing is owned by the caller (the per-core MemorySystem),
 * which charges hitLatency cycles per level and composes miss paths.
 *
 * With the tagless DRAM cache, on-die caches are indexed and tagged by
 * *cache* addresses instead of physical addresses (Section 3.1); the
 * model is agnostic -- it caches whatever address space it is handed --
 * but provides invalidateLine() so a DRAM-cache eviction can flush the
 * stale CA-tagged lines of the departing page.
 */

#ifndef TDC_CACHE_SRAM_CACHE_HH
#define TDC_CACHE_SRAM_CACHE_HH

#include <cstdint>
#include <vector>

#include "ckpt/checkpointable.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"

namespace tdc {

/** Result of a functional cache access. */
struct CacheAccessOutcome
{
    bool hit = false;
    /** Address of a dirty line evicted by the fill, or invalidAddr. */
    Addr writebackAddr = invalidAddr;
};

struct SramCacheParams
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned associativity = 4;
    unsigned lineBytes = cacheLineBytes;
    Cycles hitLatency = 2;
};

class SramCache : public SimObject, public ckpt::Checkpointable
{
  public:
    SramCache(std::string name, const SramCacheParams &params);

    /**
     * Looks up addr; on a miss the line is filled (write-allocate) and
     * the victim, if dirty, is reported for write-back.
     */
    CacheAccessOutcome access(Addr addr, bool is_write);

    /** Probe without state change. */
    bool contains(Addr addr) const;

    /**
     * Invalidates the line holding addr, if present.
     * @return true if it was dirty and must be written back.
     */
    bool invalidateLine(Addr addr);

    const SramCacheParams &params() const { return params_; }
    Cycles hitLatency() const { return params_.hitLatency; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    double
    missRate() const
    {
        const auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(misses_.value()) / total : 0.0;
    }

    /** Checkpointing: every line, the use clock and the stats. */
    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    // Structure-of-arrays line storage (set-major, way-minor): the
    // way-scan on every access touches one contiguous run of tags (and
    // one of state bytes) instead of striding over ~40-byte records.
    // The checkpoint byte stream still serializes line-by-line in the
    // original field order.
    static constexpr std::uint8_t stValid = 1;
    static constexpr std::uint8_t stDirty = 2;

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> lineBits_) & (numSets_ - 1);
    }

    Addr tagOf(Addr addr) const { return addr >> (lineBits_ + setBits_); }

    Addr
    rebuildAddr(Addr tag, std::uint64_t set) const
    {
        return (tag << (lineBits_ + setBits_)) | (set << lineBits_);
    }

    /** The least recently used way of a full set. */
    std::size_t selectVictim(std::uint64_t set) const;

    SramCacheParams params_;
    unsigned numSets_;
    unsigned lineBits_;
    unsigned setBits_;
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> state_; //!< stValid | stDirty
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;

    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar writebacks_;
};

} // namespace tdc

#endif // TDC_CACHE_SRAM_CACHE_HH
