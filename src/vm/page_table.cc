#include "vm/page_table.hh"

#include <algorithm>
#include <vector>

#include "ckpt/stats_io.hh"

namespace tdc {
namespace {

void
putPte(ckpt::Serializer &out, const Pte &p)
{
    out.putU64(p.frame);
    out.putBool(p.valid);
    out.putBool(p.vc);
    out.putBool(p.nc);
    out.putBool(p.pu);
    out.putU8(static_cast<std::uint8_t>(p.type));
    out.putU32(p.proc);
    out.putU64(p.vpn);
}

Pte
getPte(ckpt::Deserializer &in)
{
    Pte p;
    p.frame = in.getU64();
    p.valid = in.getBool();
    p.vc = in.getBool();
    p.nc = in.getBool();
    p.pu = in.getBool();
    p.type = static_cast<PageType>(in.getU8());
    p.proc = in.getU32();
    p.vpn = in.getU64();
    return p;
}

void
putPteMap(ckpt::Serializer &out,
          const std::unordered_map<PageNum, Pte> &m)
{
    std::vector<PageNum> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    out.putU64(keys.size());
    for (PageNum k : keys) {
        out.putU64(k);
        putPte(out, m.at(k));
    }
}

void
getPteMap(ckpt::Deserializer &in, std::unordered_map<PageNum, Pte> &m)
{
    m.clear();
    const std::uint64_t n = in.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const PageNum k = in.getU64();
        m.emplace(k, getPte(in));
    }
}

} // namespace

PageTable::PageTable(std::string name, ProcId proc, PhysMem &phys)
    : SimObject(std::move(name)), proc_(proc), phys_(phys)
{
    statGroup().addScalar("demand_allocs", &demandAllocs_,
                          "pages allocated on first touch");
}

PageTable::Chunk &
PageTable::ensureChunk(PageNum num)
{
    if (num == memoNum_)
        return *memoChunk_;
    auto [it, fresh] = chunks_.try_emplace(num);
    if (fresh)
        it->second = std::make_unique<Chunk>();
    memoNum_ = num;
    memoChunk_ = it->second.get();
    return *memoChunk_;
}

Pte &
PageTable::emplace4k(PageNum vpn, const Pte &pte)
{
    Pte &slot = ensureChunk(vpn >> chunkBits).ptes[vpn & chunkMask];
    if (!slot.valid) {
        slot = pte;
        ++count4k_;
    }
    return slot;
}

Pte *
PageTable::findSuperpage(PageNum vpn)
{
    auto it = table2m_.find(vpn / pagesPerSuperpage);
    return it == table2m_.end() ? nullptr : &it->second;
}

const Pte *
PageTable::findSuperpage(PageNum vpn) const
{
    auto it = table2m_.find(vpn / pagesPerSuperpage);
    return it == table2m_.end() ? nullptr : &it->second;
}

Pte &
PageTable::installSuperpage(PageNum base_vpn)
{
    tdc_assert(base_vpn % pagesPerSuperpage == 0,
               "superpage base {} not aligned", base_vpn);
    tdc_assert(table2m_.count(base_vpn / pagesPerSuperpage) == 0,
               "superpage already installed");
    for (PageNum v = base_vpn; v < base_vpn + pagesPerSuperpage; ++v) {
        tdc_assert(find(v) == nullptr,
                   "vpn {} already mapped at 4K granularity", v);
    }

    Pte pte;
    pte.frame = phys_.allocContiguous(pagesPerSuperpage);
    pte.valid = true;
    pte.type = PageType::Page2M;
    pte.proc = proc_;
    pte.vpn = base_vpn;
    ++demandAllocs_;
    return table2m_.emplace(base_vpn / pagesPerSuperpage, pte)
        .first->second;
}

void
PageTable::splitSuperpage(PageNum base_vpn)
{
    auto it = table2m_.find(base_vpn / pagesPerSuperpage);
    tdc_assert(it != table2m_.end(), "no superpage at {}", base_vpn);
    const Pte &sp = it->second;
    tdc_assert(!sp.vc, "cannot split a cached superpage");

    for (unsigned i = 0; i < pagesPerSuperpage; ++i) {
        Pte pte;
        pte.frame = sp.frame + i;
        pte.valid = true;
        pte.type = PageType::Page4K;
        pte.nc = sp.nc;
        pte.proc = proc_;
        pte.vpn = base_vpn + i;
        emplace4k(base_vpn + i, pte);
    }
    table2m_.erase(it);
}

Pte &
PageTable::walk(PageNum vpn)
{
    if (hasSuperpages()) {
        if (Pte *sp = findSuperpage(vpn))
            return *sp;
    }

    Pte &slot = ensureChunk(vpn >> chunkBits).ptes[vpn & chunkMask];
    if (slot.valid)
        return slot;

    slot.frame = phys_.allocPage();
    slot.valid = true;
    slot.proc = proc_;
    slot.vpn = vpn;
    if (!ncHints_.empty()) {
        auto hint = ncHints_.find(vpn);
        if (hint != ncHints_.end())
            slot.nc = hint->second;
    }
    ++demandAllocs_;
    ++count4k_;
    return slot;
}

void
PageTable::setNonCacheableHint(PageNum vpn)
{
    ncHints_[vpn] = true;
    if (Pte *pte = find(vpn))
        pte->nc = true;
}

void
PageTable::saveState(ckpt::Serializer &out) const
{
    // 4 KiB mappings, sorted by vpn: sorted chunk numbers, ascending
    // offsets within each chunk -- byte-identical to the sorted-map
    // emission this storage replaced.
    std::vector<PageNum> chunk_nums;
    chunk_nums.reserve(chunks_.size());
    for (const auto &kv : chunks_)
        chunk_nums.push_back(kv.first);
    std::sort(chunk_nums.begin(), chunk_nums.end());
    out.putU64(count4k_);
    for (PageNum num : chunk_nums) {
        const Chunk &c = *chunks_.at(num);
        for (PageNum off = 0; off <= chunkMask; ++off) {
            const Pte &p = c.ptes[off];
            if (!p.valid)
                continue;
            out.putU64((num << chunkBits) | off);
            putPte(out, p);
        }
    }
    putPteMap(out, table2m_);

    std::vector<PageNum> hint_keys;
    hint_keys.reserve(ncHints_.size());
    for (const auto &kv : ncHints_)
        hint_keys.push_back(kv.first);
    std::sort(hint_keys.begin(), hint_keys.end());
    out.putU64(hint_keys.size());
    for (PageNum k : hint_keys) {
        out.putU64(k);
        out.putBool(ncHints_.at(k));
    }

    ckpt::save(out, demandAllocs_);
}

void
PageTable::loadState(ckpt::Deserializer &in)
{
    chunks_.clear();
    memoNum_ = invalidPage;
    memoChunk_ = nullptr;
    count4k_ = 0;
    const std::uint64_t n4k = in.getU64();
    for (std::uint64_t i = 0; i < n4k; ++i) {
        const PageNum k = in.getU64();
        emplace4k(k, getPte(in));
    }
    getPteMap(in, table2m_);

    ncHints_.clear();
    const std::uint64_t hints = in.getU64();
    for (std::uint64_t i = 0; i < hints; ++i) {
        const PageNum k = in.getU64();
        ncHints_[k] = in.getBool();
    }

    ckpt::load(in, demandAllocs_);
}

} // namespace tdc
