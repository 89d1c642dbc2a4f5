/**
 * @file
 * The set-associative page array shared by the tagged page caches
 * (SRAM-tag, Banshee, Unison): 4 KiB pages, `assoc` ways per set, the
 * set chosen by the low PPN bits.
 *
 * `Way` is the organization's own per-way record; it needs a `ppn` and
 * a `valid` member, and its all-zero bytes must be the empty (invalid)
 * way: the records live in a ZeroedArray, so the array costs memory
 * only for the sets a run fills, and a checkpoint lists only the valid
 * ways (DESIGN.md 8). Records are stored set-major, so a lookup scans
 * one contiguous run, while in-package frames are laid out way-major
 * (frameOf()).
 */

#ifndef TDC_DRAMCACHE_PAGE_SETS_HH
#define TDC_DRAMCACHE_PAGE_SETS_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"

namespace tdc {

template <typename Way>
class PageSets
{
  public:
    PageSets(std::uint64_t frames, unsigned assoc)
        : assoc_(assoc), numSets_(assoc ? frames / assoc : 0),
          ways_(frames)
    {
        tdc_assert(assoc > 0 && frames % assoc == 0,
                   "cache size not divisible by associativity");
        tdc_assert(isPowerOf2(numSets_),
                   "set count must be a power of two");
    }

    std::uint64_t numSets() const { return numSets_; }

    std::uint64_t setOf(PageNum ppn) const { return ppn & (numSets_ - 1); }

    /**
     * Way-major frame layout: consecutive sets map to consecutive
     * in-package frames so that sequential pages stripe across DRAM
     * banks (set-major layout would funnel one-page-per-set workloads
     * into a couple of banks).
     */
    std::uint64_t
    frameOf(std::uint64_t set, unsigned way) const
    {
        return std::uint64_t{way} * numSets_ + set;
    }

    Way &at(std::uint64_t set, unsigned way)
    {
        return ways_[set * assoc_ + way];
    }

    const Way &at(std::uint64_t set, unsigned way) const
    {
        return ways_[set * assoc_ + way];
    }

    /** The valid way of `set` holding ppn, or -1. */
    int
    find(std::uint64_t set, PageNum ppn) const
    {
        const Way *base = &ways_[set * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (base[w].valid && base[w].ppn == ppn)
                return static_cast<int>(w);
        }
        return -1;
    }

    bool contains(PageNum ppn) const { return find(setOf(ppn), ppn) >= 0; }

    /**
     * The way a fill of `set` replaces: the first invalid way, else the
     * way with the smallest `key(way)`, ties to the lowest index.
     */
    template <typename Key>
    unsigned
    victim(std::uint64_t set, Key key) const
    {
        const Way *base = &ways_[set * assoc_];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!base[w].valid)
                return w;
        }
        // The least key rides in a register and both selects are
        // conditional moves, not a branch per way.
        unsigned best = 0;
        auto least = key(base[0]);
        for (unsigned w = 1; w < assoc_; ++w) {
            const auto k = key(base[w]);
            const bool less = k < least;
            best = less ? w : best;
            least = less ? k : least;
        }
        return best;
    }

    /** Every way, set-major (checkpoint order). */
    ZeroedArray<Way> &ways() { return ways_; }
    const ZeroedArray<Way> &ways() const { return ways_; }

  private:
    unsigned assoc_;
    std::uint64_t numSets_;
    ZeroedArray<Way> ways_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_PAGE_SETS_HH
