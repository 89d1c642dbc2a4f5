/**
 * @file
 * Per-process page table.
 *
 * Entries live in chunked storage so that Pte* pointers remain stable
 * for the lifetime of the process -- the GIPT stores such pointers
 * (PTEP field) to rewrite PTEs at eviction time, exactly as the paper's
 * hardware stores the PTE's physical address. A chunk is a fixed array
 * of PTEs covering a contiguous VPN range (presence = Pte::valid);
 * chunks are allocated on demand, never moved and never freed, and a
 * one-entry memo makes repeated walks within a region a single array
 * index instead of a hash lookup. 4 KiB mappings are never removed, so
 * stability is structural, not incidental.
 */

#ifndef TDC_VM_PAGE_TABLE_HH
#define TDC_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "ckpt/checkpointable.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"
#include "vm/phys_mem.hh"
#include "vm/pte.hh"

namespace tdc {

class PageTable : public SimObject, public ckpt::Checkpointable
{
  public:
    PageTable(std::string name, ProcId proc, PhysMem &phys);

    ProcId proc() const { return proc_; }

    /** Finds an existing mapping; nullptr if the VPN was never touched. */
    Pte *
    find(PageNum vpn)
    {
        Chunk *c = chunkFor(vpn >> chunkBits);
        if (c == nullptr)
            return nullptr;
        Pte &p = c->ptes[vpn & chunkMask];
        return p.valid ? &p : nullptr;
    }

    const Pte *
    find(PageNum vpn) const
    {
        return const_cast<PageTable *>(this)->find(vpn);
    }

    /**
     * Finds or demand-allocates the mapping for vpn. A fresh mapping
     * receives a physical frame from PhysMem and (vc, nc, pu) = 0.
     * If the VPN falls inside an installed superpage, the superpage
     * PTE is returned instead.
     */
    Pte &walk(PageNum vpn);

    /**
     * Installs a 2 MiB superpage mapping over [base_vpn, base_vpn+512)
     * (Section 6). The base must be 512-aligned and the range not yet
     * touched at 4 KiB granularity. Returns the superpage PTE.
     */
    Pte &installSuperpage(PageNum base_vpn);

    /**
     * Splits a superpage back into 512 4 KiB mappings (the hierarchical
     * page-table breakdown of Section 6). The superpage must not be
     * cached (vc == 0). Physical contiguity is preserved.
     */
    void splitSuperpage(PageNum base_vpn);

    /** The superpage PTE covering vpn, or nullptr. */
    Pte *findSuperpage(PageNum vpn);
    const Pte *findSuperpage(PageNum vpn) const;

    /** True once any superpage mapping exists (fast-path gate). */
    bool hasSuperpages() const { return !table2m_.empty(); }

    /** Marks future first-touches of this vpn non-cacheable. */
    void setNonCacheableHint(PageNum vpn);

    /** Installed 4 KiB mappings count. */
    std::size_t size() const { return count4k_; }

    /** Read-only visit of every installed PTE, 4 KiB then 2 MiB
     *  mappings (invariant auditing). */
    template <typename Fn>
    void
    forEachPte(Fn fn) const
    {
        for (const auto &[num, chunk] : chunks_) {
            for (const Pte &p : chunk->ptes)
                if (p.valid)
                    fn(p);
        }
        for (const auto &[spn, pte] : table2m_)
            fn(pte);
    }

    std::uint64_t demandAllocs() const { return demandAllocs_.value(); }

    /**
     * Checkpointing. Entries are emitted sorted by key so the byte
     * stream is independent of storage layout (and identical to the
     * earlier sorted-map emission); loadState() installs mappings
     * directly (no demand allocation).
     */
    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    /** 4096 PTEs (16 MiB of VA) per chunk. */
    static constexpr unsigned chunkBits = 12;
    static constexpr PageNum chunkMask = (PageNum{1} << chunkBits) - 1;

    struct Chunk
    {
        std::array<Pte, std::size_t{1} << chunkBits> ptes{};
    };

    Chunk *
    chunkFor(PageNum num) const
    {
        if (num == memoNum_)
            return memoChunk_;
        auto it = chunks_.find(num);
        if (it == chunks_.end())
            return nullptr;
        memoNum_ = num;
        memoChunk_ = it->second.get();
        return memoChunk_;
    }

    Chunk &ensureChunk(PageNum num);
    /** Installs pte at its vpn unless already present (emplace idiom). */
    Pte &emplace4k(PageNum vpn, const Pte &pte);

    ProcId proc_;
    PhysMem &phys_;
    std::unordered_map<PageNum, std::unique_ptr<Chunk>> chunks_;
    mutable PageNum memoNum_ = invalidPage;
    mutable Chunk *memoChunk_ = nullptr;
    std::size_t count4k_ = 0;
    /** 2 MiB mappings, keyed by vpn >> 9 (superpage number). */
    std::unordered_map<PageNum, Pte> table2m_;
    std::unordered_map<PageNum, bool> ncHints_;

    stats::Scalar demandAllocs_;
};

} // namespace tdc

#endif // TDC_VM_PAGE_TABLE_HH
