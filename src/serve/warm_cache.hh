/**
 * @file
 * Cross-invocation warm-checkpoint cache.
 *
 * --warm-once shares warm state *within* one invocation; this cache
 * makes it persistent. Entries are whole checkpoint container files
 * (src/ckpt format, unchanged) in a CacheStore, named by content
 * address:
 *
 *     <root>/warm/wc-<warm-fingerprint>-<binary-hash>.ckpt
 *
 * A lookup hit fully decodes the file -- magic, format version and
 * every per-section checksum, the same validation `tdc_ckpt --verify`
 * performs -- and additionally requires the embedded fingerprint to
 * match the key; any defect deletes the file and reports a miss, so a
 * corrupt cache entry can never poison a run.
 *
 * Capacity is a byte budget over the directory; after every store the
 * least-recently-used entries (filesystem mtime, refreshed on every
 * hit) are evicted until the total fits. Eviction is safe by
 * construction: a checkpoint is a cache of re-derivable warm state,
 * so the worst case is a re-run warmup.
 */

#ifndef TDC_SERVE_WARM_CACHE_HH
#define TDC_SERVE_WARM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "ckpt/checkpoint.hh"
#include "common/json.hh"
#include "serve/cache_key.hh"

namespace tdc {
namespace serve {

class WarmCache
{
  public:
    /** Opens (creating if needed) <root>/warm with a byte budget. */
    WarmCache(const std::string &root, std::uint64_t capacityBytes);

    /**
     * Integrity-checked lookup by warm fingerprint (the binary hash
     * is implicit -- this process's). Returns the decoded checkpoint
     * and refreshes the entry's LRU clock on a hit; nullptr on miss
     * or on any integrity defect (the defective file is deleted).
     */
    std::shared_ptr<const ckpt::Checkpoint>
    lookup(std::uint64_t warm_fp);

    /**
     * Publishes a checkpoint under its fingerprint, then enforces the
     * byte budget by LRU eviction. A failed publish is fatal(); the
     * entry is re-derivable, so a caller may capture it and go on.
     */
    void store(const ckpt::Checkpoint &ck, std::uint64_t warm_fp);

    /** Entry table (file, bytes) plus totals, for --status. */
    json::Value
    statusJson() const
    {
        return store_.statusJson(capacityBytes_);
    }

    /** Refreshes the tdc_warm_cache_* residency gauges. */
    void updateGauges() const { store_.updateGauges(); }

    const std::string &dir() const { return store_.dir(); }

  private:
    void evictOverCapacity() const;

    CacheStore store_;
    std::uint64_t capacityBytes_;
    metrics::Counter &evictions_;
    metrics::Counter &evictedBytes_;
};

} // namespace serve
} // namespace tdc

#endif // TDC_SERVE_WARM_CACHE_HH
