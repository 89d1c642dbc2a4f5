/**
 * @file
 * Translation lookaside buffer.
 *
 * One class serves both the conventional TLB and the paper's cache-map
 * TLB (cTLB): hardware organization is identical (Section 3.2); only the
 * meaning of `frame` differs (PPN vs. cache frame number, selected by
 * the nc bit on a per-entry basis).
 *
 * The TLB is fully associative with true-LRU replacement and is tagged
 * with (process, vpn) keys so multi-programmed mixes do not alias.
 * Every insert and evict notifies one residence listener, through which
 * the tagless DRAM cache maintains the GIPT's TLB-residence bit vector.
 *
 * Storage is a flat slot array sized at construction: the recency stack
 * is an intrusive doubly-linked list of slot indices and the key index
 * is an open-addressing table, so steady-state lookup/insert/evict
 * perform no heap allocation. Replacement order, notification order and
 * the checkpoint byte format are identical to the earlier list+map
 * implementation.
 */

#ifndef TDC_VM_TLB_HH
#define TDC_VM_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/checkpointable.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"
#include "vm/pte.hh"

namespace tdc {

/** What a TLB hands back on a hit. */
struct TlbEntry
{
    AsidVpn key = 0;
    Addr frame = invalidPage; //!< PPN (nc==true) or cache frame (nc==false)
    bool nc = false;          //!< entry holds a physical mapping
    /** Mapping granularity; for Page2M, frame is the 512-aligned base
     *  and key carries the superKeyBit. */
    PageType type = PageType::Page4K;
};

/**
 * Residence notifications: called with resident=true on every insert
 * and resident=false on every eviction or invalidation. DramCacheOrg
 * implements it; MemorySystem wires each of a core's TLBs to the org.
 */
class TlbResidenceListener
{
  public:
    virtual void onTlbResidence(const TlbEntry &entry, CoreId core,
                                bool resident) = 0;

  protected:
    ~TlbResidenceListener() = default;
};

class Tlb : public SimObject, public ckpt::Checkpointable
{
  public:
    Tlb(std::string name, unsigned entries);

    /** Looks up a translation, updating recency on a hit. */
    std::optional<TlbEntry>
    lookup(AsidVpn key)
    {
        const std::uint32_t s = findSlot(key);
        if (s == npos) {
            ++misses_;
            return std::nullopt;
        }
        ++hits_;
        moveToFront(s);
        return slots_[s].entry;
    }

    /** Probe without recency update. */
    bool contains(AsidVpn key) const { return findSlot(key) != npos; }

    /**
     * Inserts (or refreshes) a translation.
     * @return the entry evicted to make room, if any.
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /** Drops a translation (TLB shootdown); notifies the listener. */
    bool invalidate(AsidVpn key);

    /** Residence notification target (see TlbResidenceListener). */
    void
    setResidenceListener(TlbResidenceListener *listener, CoreId core)
    {
        listener_ = listener;
        listenerCore_ = core;
    }

    unsigned capacity() const { return capacity_; }
    std::size_t size() const { return count_; }

    /** Read-only visit of every resident entry, most recent first
     *  (invariant auditing); no recency update. */
    template <typename Fn>
    void
    forEachEntry(Fn fn) const
    {
        for (std::uint32_t s = head_; s != npos; s = slots_[s].next)
            fn(slots_[s].entry);
    }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    double
    missRate() const
    {
        const auto total = hits_.value() + misses_.value();
        return total ? static_cast<double>(misses_.value()) / total : 0.0;
    }

    /**
     * Checkpointing. loadState() rebuilds the recency stack directly
     * and deliberately does NOT notify the residence listener: the
     * GIPT residence counts it maintains are restored as part of the
     * owning org's own section.
     */
    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    static constexpr std::uint32_t npos = 0xffffffffu;

    struct Slot
    {
        TlbEntry entry;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
    };

    std::size_t
    homeOf(AsidVpn key) const
    {
        // Multiplicative hash; only spread matters, never behavior.
        return static_cast<std::size_t>(
                   (key * 0x9e3779b97f4a7c15ULL) >> 32)
               & idxMask_;
    }

    std::uint32_t findSlot(AsidVpn key) const;
    void indexInsert(AsidVpn key, std::uint32_t slot);
    void indexErase(AsidVpn key);

    void unlink(std::uint32_t s);
    void pushFront(std::uint32_t s);
    void pushBack(std::uint32_t s);
    void moveToFront(std::uint32_t s);
    std::uint32_t takeFreeSlot();
    void releaseSlot(std::uint32_t s);
    void resetStorage();

    void
    notifyResidence(const TlbEntry &e, bool resident)
    {
        if (listener_)
            listener_->onTlbResidence(e, listenerCore_, resident);
    }

    unsigned capacity_;
    std::vector<Slot> slots_;        //!< capacity_ slots, index-linked
    std::vector<std::uint32_t> idx_; //!< open addressing; 0 = empty,
                                     //!< else slot index + 1
    std::size_t idxMask_ = 0;
    std::uint32_t head_ = npos; //!< most recently used
    std::uint32_t tail_ = npos; //!< least recently used
    std::uint32_t freeHead_ = npos;
    std::uint32_t count_ = 0;

    TlbResidenceListener *listener_ = nullptr;
    CoreId listenerCore_ = 0;

    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar evictions_;
};

} // namespace tdc

#endif // TDC_VM_TLB_HH
