/**
 * @file
 * Global Inverted Page Table (Section 3.2).
 *
 * Indexed by cache frame number; maps each occupied in-package frame
 * back to its off-package physical page (PPN), a pointer to the PTE
 * currently holding the cache address (PTEP), and a TLB-residence bit
 * vector (here: per-core reference counts, since a page can be present
 * in a core's L1 and L2 TLB simultaneously). A frame is free exactly
 * when its entry holds no PTEP.
 *
 * The paper sizes an entry at 82 bits (36b PPN + 42b PTEP + 4b
 * residence); storageBits() reports that figure for the scalability
 * accounting reproduced in the benches. The entry also carries the
 * simulator's fill-completion tick (when the PU bit clears), which is
 * bookkeeping, not paper-accounted storage.
 *
 * The entries live in a ZeroedArray: an all-zero entry is an unmapped
 * frame, so the table costs memory only for the frames a run maps.
 */

#ifndef TDC_DRAMCACHE_GIPT_HH
#define TDC_DRAMCACHE_GIPT_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "common/zeroed_array.hh"
#include "vm/pte.hh"

namespace tdc {

class Gipt
{
  public:
    static constexpr unsigned maxCores = 8;
    static constexpr unsigned bitsPerEntry = 82;

    struct Entry
    {
        PageNum ppn = 0;           //!< original off-package frame
        Pte *ptep = nullptr;       //!< PTE holding the cache address
        std::array<std::uint16_t, maxCores> residence{};
        /** Completion tick of the frame's 4 KiB fill (0 if none). */
        Tick fillDone = 0;

        bool valid() const { return ptep != nullptr; }

        bool
        residentAnywhere() const
        {
            for (auto c : residence)
                if (c)
                    return true;
            return false;
        }
    };

    static_assert(sizeof(Entry) == 40, "fillDone fits in the padding");

    explicit Gipt(std::uint64_t frames) : entries_(frames) {}

    Entry &
    at(std::uint64_t frame)
    {
        tdc_assert(frame < entries_.size(), "GIPT index {} out of range",
                   frame);
        return entries_[frame];
    }

    const Entry &
    at(std::uint64_t frame) const
    {
        tdc_assert(frame < entries_.size(), "GIPT index {} out of range",
                   frame);
        return entries_[frame];
    }

    void
    install(std::uint64_t frame, PageNum ppn, Pte *ptep)
    {
        Entry &e = at(frame);
        tdc_assert(!e.valid(), "GIPT entry {} already valid", frame);
        tdc_assert(ptep != nullptr, "GIPT entry {} installed without a "
                   "PTE", frame);
        e = Entry{.ppn = ppn, .ptep = ptep};
    }

    void invalidate(std::uint64_t frame) { at(frame) = Entry{}; }

    void
    addResidence(std::uint64_t frame, CoreId core)
    {
        tdc_assert(core < maxCores, "core id {} too large", core);
        ++at(frame).residence[core];
    }

    void
    removeResidence(std::uint64_t frame, CoreId core)
    {
        tdc_assert(core < maxCores, "core id {} too large", core);
        auto &c = at(frame).residence[core];
        tdc_assert(c > 0, "residence underflow on frame {}", frame);
        --c;
    }

    std::uint64_t frames() const { return entries_.size(); }

    /** Paper-accounted storage footprint. */
    std::uint64_t
    storageBits() const
    {
        return entries_.size() * bitsPerEntry;
    }

  private:
    ZeroedArray<Entry> entries_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_GIPT_HH
