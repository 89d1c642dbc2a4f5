/**
 * @file
 * Unison-style footprint-predicting page cache (Jevdjic et al.,
 * "Unison Cache", MICRO 2014; see SNIPPETS.md snippet 2).
 *
 * Pages are cached at 4 KiB granularity in a set-associative array
 * whose tags live in the in-package DRAM itself, colocated with the
 * data rows: every access carries a tag beat, and a way-predicted
 * read hit folds tag and data into one compound DRAM burst (the
 * paper's single-access hit path). What makes Unison
 * competitive is the footprint machinery: each cached page tracks
 * which 64B lines are valid, dirty and referenced, and a footprint
 * predictor learns per-access-context which lines of a page will
 * actually be touched. A page miss then fills only the predicted
 * lines (always including the demanded one) and an eviction writes
 * back only the dirty lines -- directly attacking the full-page-fill
 * bandwidth waste of conventional page caches.
 *
 * The predictor is keyed by (PC, page offset) in the paper; our traces
 * carry no program counter, so the deterministic proxy is (core id,
 * first-touch line-in-page), which distinguishes streaming from
 * pointer-chasing contexts in the synthetic workloads. Cold keys
 * predict a full-page footprint. Tag capacity overhead (~1% of the
 * data array) is charged in timing, not in capacity.
 */

#ifndef TDC_DRAMCACHE_UNISON_CACHE_HH
#define TDC_DRAMCACHE_UNISON_CACHE_HH

#include <cstdint>
#include <vector>

#include "dramcache/dram_cache_org.hh"
#include "dramcache/page_sets.hh"

namespace tdc {

struct UnisonCacheParams
{
    std::uint64_t cacheBytes = 1ULL << 30;
    unsigned associativity = 4;
    unsigned predictorEntries = 4096; //!< direct-mapped, power of two
};

class UnisonCache final : public DramCacheOrg
{
  public:
    UnisonCache(std::string name, DramDevice &in_pkg, DramDevice &off_pkg,
                PhysMem &phys, const ClockDomain &cpu_clk,
                const UnisonCacheParams &params);

    L3Result access(Addr addr, AccessType type, CoreId core,
                    Tick when) override;

    void writebackLine(Addr addr, CoreId core, Tick when) override;

    std::string_view kind() const override { return "Unison"; }

    // Tags live in DRAM: no on-die tag bits, no SRAM tag probes.

    const UnisonCacheParams &params() const { return params_; }

    /** Functional membership check, for tests. */
    bool containsPage(PageNum ppn) const { return sets_.contains(ppn); }

    /** Valid-line bitvector of a cached page (0 if absent), for tests. */
    std::uint64_t validBitsOf(PageNum ppn) const;

    std::uint64_t lineFills() const { return lineFills_.value(); }
    std::uint64_t partialFillLines() const
    {
        return partialFillLines_.value();
    }
    std::uint64_t partialWbLines() const
    {
        return partialWbLines_.value();
    }
    std::uint64_t predictorHits() const { return predictorHits_.value(); }

  protected:
    void saveOrgState(ckpt::Serializer &out) const override;
    void loadOrgState(ckpt::Deserializer &in) override;

  private:
    struct Way
    {
        PageNum ppn = 0;
        bool valid = false;
        std::uint64_t validBits = 0; //!< lines present in the cache
        std::uint64_t dirtyBits = 0; //!< lines to write back on evict
        std::uint64_t refBits = 0;   //!< lines touched (trains predictor)
        std::uint64_t predKey = 0;   //!< context that allocated the page
        std::uint64_t lastUse = 0;
    };

    struct PredEntry
    {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint64_t footprint = 0;
    };

    /** Tag-only DRAM burst (miss-path decisions): one tag beat. */
    Tick tagBurst(std::uint64_t frame, Addr offset, Tick when);

    /**
     * Way-predicted compound burst (read-hit fast path): the tag beat
     * and the predicted way's 64B line ride one DRAM access.
     */
    Tick tagDataBurst(std::uint64_t frame, Addr offset, Tick when);

    /**
     * Compound posted write (write-hit / L2-writeback fast path): the
     * 64B line plus the piggybacked tag/footprint update drain from
     * the write queue as one row-clustered burst.
     */
    Tick tagDataWrite(std::uint64_t frame, Addr offset, Tick when);

    /**
     * Moves `nlines` 64B lines of a page as one clustered burst. The
     * footprint lines are transferred back-to-back within the row, so
     * a contiguous transfer of the same volume is charged.
     */
    Tick offPkgLines(PageNum ppn, unsigned nlines, bool write, Tick when);
    Tick inPkgLines(std::uint64_t frame, unsigned nlines, bool write,
                    Tick when);

    std::uint64_t makeKey(CoreId core, unsigned line) const;
    std::uint64_t predictFootprint(std::uint64_t key);
    void trainPredictor(std::uint64_t key, std::uint64_t footprint);

    UnisonCacheParams params_;
    PageSets<Way> sets_;
    std::vector<PredEntry> predictor_;
    std::uint64_t useClock_ = 0;

    stats::Scalar dramTagAccesses_;
    stats::Scalar lineFills_;       //!< single-line footprint repairs
    stats::Scalar partialFillLines_;
    stats::Scalar partialWbLines_;
    stats::Scalar predictorHits_;
    stats::Scalar predictorMisses_;
    stats::Scalar dirtyEvictions_;
    stats::Scalar wbMissOffPkg_;
};

} // namespace tdc

#endif // TDC_DRAMCACHE_UNISON_CACHE_HH
