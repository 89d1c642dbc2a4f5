#include "serve/warm_cache.hh"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <vector>

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace fs = std::filesystem;

namespace tdc {
namespace serve {

namespace {

/** Warm-checkpoint-cache metrics (DESIGN.md 11 catalog). */
CacheMetrics &
warmMetrics()
{
    auto &r = metrics::registry();
    static CacheMetrics m{
        r.counter("tdc_warm_cache_hits_total",
                  "Warm checkpoints restored from the cache"),
        r.counter("tdc_warm_cache_misses_total",
                  "Warm-cache lookups that found no usable entry"),
        r.counter("tdc_warm_cache_verify_failures_total",
                  "Entries dropped for failing integrity checks"),
        r.counter("tdc_warm_cache_stores_total",
                  "Warm checkpoints published to the cache"),
        r.gauge("tdc_warm_cache_resident_bytes",
                "Bytes currently resident in the warm cache"),
        r.gauge("tdc_warm_cache_entries",
                "Entries currently resident in the warm cache"),
    };
    return m;
}

} // namespace

WarmCache::WarmCache(const std::string &root,
                     std::uint64_t capacityBytes)
    : store_(root, "warm", "wc", ".ckpt", "warm cache", warmMetrics()),
      capacityBytes_(capacityBytes),
      evictions_(metrics::registry().counter(
          "tdc_warm_cache_evictions_total",
          "Entries evicted past the byte budget")),
      evictedBytes_(metrics::registry().counter(
          "tdc_warm_cache_evicted_bytes_total",
          "Bytes reclaimed by warm-cache eviction"))
{
}

std::shared_ptr<const ckpt::Checkpoint>
WarmCache::lookup(std::uint64_t warm_fp)
{
    std::shared_ptr<const ckpt::Checkpoint> ck;
    // Full tdc_ckpt --verify-grade decode: magic, format version and
    // every per-section checksum, plus the content address itself (a
    // renamed or stale-keyed file must not hit).
    const bool hit = store_.read(warm_fp, [&](const std::string &path) {
        auto loaded = std::make_shared<ckpt::Checkpoint>(
            ckpt::Checkpoint::loadFile(path));
        if (loaded->fingerprint() != warm_fp)
            fatal("entry fingerprint {:#x} does not match its key "
                  "{:#x}",
                  loaded->fingerprint(), warm_fp);
        ck = std::move(loaded);
    });
    if (hit) {
        // Refresh the LRU clock so hot fingerprints survive eviction.
        std::error_code ec;
        fs::last_write_time(store_.entryPath(warm_fp),
                            fs::file_time_type::clock::now(), ec);
    }
    return ck;
}

void
WarmCache::store(const ckpt::Checkpoint &ck, std::uint64_t warm_fp)
{
    tdc_assert(ck.fingerprint() == warm_fp,
               "warm cache store under a mismatched fingerprint");
    store_.publish(warm_fp, [&](const std::string &staging) {
        ck.writeFile(staging);
    });
    evictOverCapacity();
}

void
WarmCache::evictOverCapacity() const
{
    auto entries = store_.scan();
    std::uint64_t total = 0;
    for (const FileEntry &e : entries)
        total += e.bytes;
    if (total <= capacityBytes_)
        return;
    // Oldest first; scan()'s name order breaks mtime ties.
    std::ranges::stable_sort(entries, {}, &FileEntry::mtime);
    for (const FileEntry &victim : entries) {
        if (total <= capacityBytes_)
            break;
        std::error_code ec;
        const bool removed =
            fs::remove(fs::path(store_.dir()) / victim.name, ec);
        if (ec)
            continue;
        // Gone either way; only the worker that removed it counts it.
        total -= victim.bytes;
        if (removed) {
            evictions_.inc();
            evictedBytes_.inc(victim.bytes);
        }
    }
}

} // namespace serve
} // namespace tdc
