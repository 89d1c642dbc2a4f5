/**
 * @file
 * Cache keys, and the one entry store, of the resident sweep service.
 *
 * The service's two persistent caches are content-addressed:
 *
 *  - the warm-checkpoint cache is keyed by warmFingerprint(config) --
 *    every field that shapes the state at the warmup/measure boundary;
 *  - the result cache is keyed by jobConfigHash(spec) -- every field
 *    of the design point, including measure-only budgets and the
 *    label (a label can appear in per-job observability paths, and a
 *    stored report embeds the full config, so two jobs differing only
 *    in label must not share a report).
 *
 * Both keys are paired with binaryHash(), a digest of the running
 * executable: a rebuilt simulator may produce different (better!)
 * numbers, so cached artifacts from an older binary must never
 * satisfy a lookup from a newer one. Only the warm cache is
 * size-capped: its stale entries age out via LRU eviction, while
 * result entries keyed by an older binary stay until removed.
 *
 * Both caches are a CacheStore: one directory of files named
 *
 *     <root>/<subdir>/<prefix>-<hex16(key)>-<hex16(binaryHash())><ext>
 *
 * The store owns everything the two caches share: the naming,
 * publication through publishFile(), dropping a defective entry
 * (warn, remove, count a miss) and the one directory scan behind
 * --status, the residency gauges and the warm cache's LRU eviction.
 * Each cache keeps only its format: how an entry is written and what
 * makes one valid. The store holds no state but its directory, so
 * concurrent drain workers share it without a lock, and the registry
 * counters are its only counts.
 */

#ifndef TDC_SERVE_CACHE_KEY_HH
#define TDC_SERVE_CACHE_KEY_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "metrics/registry.hh"
#include "runner/sweep.hh"

namespace tdc {
namespace serve {

/**
 * FNV-1a digest of the canonical JSON serialization of a design
 * point. Any change to org, workloads, sizes, budgets, raw overrides
 * or the label changes the hash, so the result cache re-simulates
 * exactly the cells that changed. For `trace:` workloads the trace
 * file's content hash is folded in too: the spec only names a path,
 * but the report depends on the bytes behind it.
 */
std::uint64_t jobConfigHash(const runner::JobSpec &spec);

/**
 * FNV-1a digest of this process's executable image (/proc/self/exe),
 * computed once and cached. Falls back to 0 with a warning when the
 * image cannot be read (non-Linux), which keys all artifacts into one
 * shared generation.
 */
std::uint64_t binaryHash();

/** One regular file found by listFiles(). */
struct FileEntry
{
    std::string name;
    std::uint64_t bytes = 0;
    std::filesystem::file_time_type mtime;
};

/**
 * The regular files in `dir` whose names start with `prefix` and end
 * with `ext`, sorted by name: the service's one directory scan. A
 * missing directory lists nothing, and a file removed while the scan
 * runs (a concurrent eviction or claim) is skipped, not thrown.
 */
std::vector<FileEntry> listFiles(const std::string &dir,
                                 std::string_view prefix = {},
                                 std::string_view ext = {});

/** One cache's instruments; each cache keeps their names and help
 *  strings (DESIGN.md 11 catalog). */
struct CacheMetrics
{
    metrics::Counter &hits;
    metrics::Counter &misses;
    metrics::Counter &dropped;
    metrics::Counter &stores;
    metrics::Gauge &residentBytes;
    metrics::Gauge &entries;
};

class CacheStore
{
  public:
    /** Opens (creating if needed) <root>/<subdir>; `what` names the
     *  cache in messages. */
    CacheStore(const std::string &root, const char *subdir,
               const char *prefix, const char *ext, const char *what,
               CacheMetrics &metrics);

    /** The entry file for `key` under this process's binary hash. */
    std::string entryPath(std::uint64_t key) const;

    /**
     * Hands the entry for `key` to `decode`, which rejects it by
     * fatal() or a throw. Returns false on a miss: no entry (nothing,
     * or something other than a regular file, at its path), or a
     * rejected one, which is warned about, removed and counted as
     * dropped; one that cannot be removed is warned about with the
     * error and not counted. Counts nothing when `count` is false.
     */
    bool read(std::uint64_t key,
              const std::function<void(const std::string &path)> &decode,
              bool count = true) const;

    /** Publishes the entry for `key` through publishFile() and counts
     *  a store; any failure is fatal() and leaves no staging file. */
    void publish(std::uint64_t key,
                 const std::function<void(const std::string &staging)>
                     &write) const;

    /** Every entry, sorted by name; staging files and other foreign
     *  names are not entries. */
    std::vector<FileEntry>
    scan() const
    {
        return listFiles(dir_, prefix_, ext_);
    }

    /** {dir, [capacity_bytes,] bytes, entries} for --status. */
    json::Value
    statusJson(std::optional<std::uint64_t> capacityBytes = {}) const;

    /** Refreshes the resident-bytes and entries gauges. */
    void updateGauges() const;

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    std::string prefix_;
    std::string ext_;
    const char *what_;
    CacheMetrics &metrics_;
};

} // namespace serve
} // namespace tdc

#endif // TDC_SERVE_CACHE_KEY_HH
