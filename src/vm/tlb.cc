#include "vm/tlb.hh"

#include <algorithm>
#include <bit>

#include "ckpt/stats_io.hh"

namespace tdc {

Tlb::Tlb(std::string name, unsigned entries)
    : SimObject(std::move(name)), capacity_(entries)
{
    tdc_assert(entries > 0, "zero-entry TLB");
    slots_.resize(capacity_);
    // Keep the open-addressing table at most half full so probe chains
    // stay short even with every slot occupied.
    const std::size_t buckets =
        std::bit_ceil(std::size_t{capacity_} * 2 + 1);
    idx_.assign(buckets, 0);
    idxMask_ = buckets - 1;
    resetStorage();

    auto &sg = statGroup();
    sg.addScalar("hits", &hits_);
    sg.addScalar("misses", &misses_);
    sg.addScalar("evictions", &evictions_);
}

void
Tlb::resetStorage()
{
    head_ = tail_ = npos;
    count_ = 0;
    std::fill(idx_.begin(), idx_.end(), 0u);
    freeHead_ = 0;
    for (std::uint32_t s = 0; s < capacity_; ++s)
        slots_[s].next = s + 1 < capacity_ ? s + 1 : npos;
}

std::uint32_t
Tlb::findSlot(AsidVpn key) const
{
    std::size_t i = homeOf(key);
    while (idx_[i] != 0) {
        const std::uint32_t s = idx_[i] - 1;
        if (slots_[s].entry.key == key)
            return s;
        i = (i + 1) & idxMask_;
    }
    return npos;
}

void
Tlb::indexInsert(AsidVpn key, std::uint32_t slot)
{
    std::size_t i = homeOf(key);
    while (idx_[i] != 0)
        i = (i + 1) & idxMask_;
    idx_[i] = slot + 1;
}

void
Tlb::indexErase(AsidVpn key)
{
    std::size_t i = homeOf(key);
    while (true) {
        tdc_assert(idx_[i] != 0, "TLB index erase of absent key");
        if (slots_[idx_[i] - 1].entry.key == key)
            break;
        i = (i + 1) & idxMask_;
    }
    // Backward-shift deletion keeps probe chains gap-free without
    // tombstones (standard linear-probing erase).
    std::size_t j = i;
    while (true) {
        idx_[i] = 0;
        while (true) {
            j = (j + 1) & idxMask_;
            if (idx_[j] == 0)
                return;
            const std::size_t k = homeOf(slots_[idx_[j] - 1].entry.key);
            // Move idx_[j] into the hole at i unless its home position
            // lies cyclically within (i, j].
            const bool keep = i <= j ? (i < k && k <= j)
                                     : (i < k || k <= j);
            if (!keep)
                break;
        }
        idx_[i] = idx_[j];
        i = j;
    }
}

void
Tlb::unlink(std::uint32_t s)
{
    Slot &slot = slots_[s];
    if (slot.prev != npos)
        slots_[slot.prev].next = slot.next;
    else
        head_ = slot.next;
    if (slot.next != npos)
        slots_[slot.next].prev = slot.prev;
    else
        tail_ = slot.prev;
}

void
Tlb::pushFront(std::uint32_t s)
{
    Slot &slot = slots_[s];
    slot.prev = npos;
    slot.next = head_;
    if (head_ != npos)
        slots_[head_].prev = s;
    head_ = s;
    if (tail_ == npos)
        tail_ = s;
}

void
Tlb::pushBack(std::uint32_t s)
{
    Slot &slot = slots_[s];
    slot.next = npos;
    slot.prev = tail_;
    if (tail_ != npos)
        slots_[tail_].next = s;
    tail_ = s;
    if (head_ == npos)
        head_ = s;
}

void
Tlb::moveToFront(std::uint32_t s)
{
    if (head_ == s)
        return;
    unlink(s);
    pushFront(s);
}

std::uint32_t
Tlb::takeFreeSlot()
{
    tdc_assert(freeHead_ != npos, "TLB slot pool exhausted");
    const std::uint32_t s = freeHead_;
    freeHead_ = slots_[s].next;
    ++count_;
    return s;
}

void
Tlb::releaseSlot(std::uint32_t s)
{
    slots_[s].next = freeHead_;
    freeHead_ = s;
    --count_;
}

std::optional<TlbEntry>
Tlb::insert(const TlbEntry &entry)
{
    const std::uint32_t existing = findSlot(entry.key);
    if (existing != npos) {
        // Refresh in place (e.g. mapping changed PA->CA).
        slots_[existing].entry = entry;
        moveToFront(existing);
        return std::nullopt;
    }

    std::optional<TlbEntry> victim;
    if (count_ >= capacity_) {
        const std::uint32_t v = tail_;
        victim = slots_[v].entry;
        indexErase(victim->key);
        unlink(v);
        releaseSlot(v);
        ++evictions_;
        notifyResidence(*victim, false);
    }
    const std::uint32_t s = takeFreeSlot();
    slots_[s].entry = entry;
    pushFront(s);
    indexInsert(entry.key, s);
    notifyResidence(entry, true);
    return victim;
}

bool
Tlb::invalidate(AsidVpn key)
{
    const std::uint32_t s = findSlot(key);
    if (s == npos)
        return false;
    notifyResidence(slots_[s].entry, false);
    indexErase(key);
    unlink(s);
    releaseSlot(s);
    return true;
}

void
Tlb::saveState(ckpt::Serializer &out) const
{
    // MRU -> LRU order; loadState() rebuilds the same recency stack.
    out.putU64(count_);
    for (std::uint32_t s = head_; s != npos; s = slots_[s].next) {
        const TlbEntry &e = slots_[s].entry;
        out.putU64(e.key);
        out.putU64(e.frame);
        out.putBool(e.nc);
        out.putU8(static_cast<std::uint8_t>(e.type));
    }
    ckpt::save(out, hits_);
    ckpt::save(out, misses_);
    ckpt::save(out, evictions_);
}

void
Tlb::loadState(ckpt::Deserializer &in)
{
    resetStorage();
    const std::uint64_t n = in.getU64();
    if (n > capacity_)
        fatal("checkpoint: {} entries for {}, over its capacity {}", n,
              name(), capacity_);
    for (std::uint64_t i = 0; i < n; ++i) {
        TlbEntry e;
        e.key = in.getU64();
        e.frame = in.getU64();
        e.nc = in.getBool();
        e.type = static_cast<PageType>(in.getU8());
        const std::uint32_t s = takeFreeSlot();
        slots_[s].entry = e;
        pushBack(s);
        indexInsert(e.key, s);
    }
    ckpt::load(in, hits_);
    ckpt::load(in, misses_);
    ckpt::load(in, evictions_);
}

} // namespace tdc
