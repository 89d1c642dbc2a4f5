/**
 * @file
 * The set-associative page array shared by the tagged page caches
 * (SRAM-tag, Banshee, Unison): 4 KiB pages, `assoc` ways per set, the
 * set chosen by the low PPN bits.
 *
 * `Way` is the organization's own per-way record; it needs a `ppn` and
 * a `valid` member, and its all-zero bytes must be the empty (invalid)
 * way: the records live in a ZeroedArray, so the array costs memory
 * only for the pages a run writes. Each record is stored at its way's
 * in-package frame index, `frameOf(set, way) = way * numSets + set`, so
 * the ways of one set lie `numSets` records apart and a cache holding n
 * pages per set makes n way-stripes resident, not every set's page. A
 * checkpoint lists the valid ways in set-major order, index
 * `set * assoc + way` (DESIGN.md 8), which is independent of the
 * storage order.
 */

#ifndef TDC_DRAMCACHE_PAGE_SETS_HH
#define TDC_DRAMCACHE_PAGE_SETS_HH

#include <cstdint>
#include <string_view>

#include "cache/replacement.hh"
#include "ckpt/serializer.hh"
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
     * into a couple of banks). It is the storage index too.
     */
    std::uint64_t
    frameOf(std::uint64_t set, unsigned way) const
    {
        return std::uint64_t{way} * numSets_ + set;
    }

    Way &at(std::uint64_t set, unsigned way)
    {
        return ways_[frameOf(set, way)];
    }

    const Way &at(std::uint64_t set, unsigned way) const
    {
        return ways_[frameOf(set, way)];
    }

    /** The valid way of `set` holding ppn, or -1. */
    int
    find(std::uint64_t set, PageNum ppn) const
    {
        for (unsigned w = 0; w < assoc_; ++w) {
            const Way &way = at(set, w);
            if (way.valid && way.ppn == ppn)
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
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!at(set, w).valid)
                return w;
        }
        return leastKey(assoc_,
                        [&](unsigned w) { return key(at(set, w)); });
    }

    /**
     * Writes the way count, then the valid ways as a sparse list in
     * set-major order (index set * assoc + way); `put(way)` writes one
     * record.
     */
    template <typename Put>
    void
    save(ckpt::Serializer &out, Put put) const
    {
        out.putU64(ways_.size());
        ckpt::putSparse(
            out, ways_.size(),
            [&](std::uint64_t i) { return setMajor(i).valid; },
            [&](std::uint64_t i) { put(setMajor(i)); });
    }

    /**
     * Reads what save() wrote into a fresh (all-empty) array;
     * `get(way)` reads one record into an empty way. A record the cache
     * could never hold is a fatal() naming `what` and its index: a
     * page outside its way's set never hits, and a page listed twice in
     * one set is found only at its first way.
     */
    template <typename Get>
    void
    restore(ckpt::Deserializer &in, std::string_view what, Get get)
    {
        const std::uint64_t n = in.getU64();
        if (n != ways_.size())
            fatal("checkpoint: {} count {} does not match the cache's {}",
                  what, n, ways_.size());
        ckpt::getSparse(in, what, n, [&](std::uint64_t i) {
            const std::uint64_t set = i / assoc_;
            Way way{};
            get(way);
            if (setOf(way.ppn) != set)
                fatal("checkpoint: {} {} holds page {}, which belongs "
                      "in set {}, not set {}",
                      what, i, way.ppn, setOf(way.ppn), set);
            if (const int dup = find(set, way.ppn); dup >= 0)
                fatal("checkpoint: {} {} holds page {}, already at {} {}",
                      what, i, way.ppn, what, set * assoc_ + dup);
            way.valid = true;
            setMajor(i) = way;
        });
    }

  private:
    /** The way at set-major index i (set i / assoc, way i % assoc). */
    Way &
    setMajor(std::uint64_t i)
    {
        return at(i / assoc_, static_cast<unsigned>(i % assoc_));
    }

    const Way &
    setMajor(std::uint64_t i) const
    {
        return at(i / assoc_, static_cast<unsigned>(i % assoc_));
    }

    unsigned assoc_;
    std::uint64_t numSets_;
    ZeroedArray<Way> ways_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_PAGE_SETS_HH
