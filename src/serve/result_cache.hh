/**
 * @file
 * Incremental result cache (`tdc-result-cache-v1`).
 *
 * One JSON file per finished design point in a CacheStore,
 * content-addressed by
 *
 *     <root>/results/rc-<config-hash>-<binary-hash>.json
 *
 * where the config hash covers the job's entire canonical JSON form
 * (so any manifest edit changes the key) and the binary hash covers
 * the simulator executable (so a rebuilt binary never replays stale
 * results). Only successful runs are cached: the stored entry embeds
 * the job's tdc-run-report-v1 document verbatim, which is everything
 * aggregateReport() needs to reproduce the job's slot in a sweep
 * report byte-for-byte. Failures and timeouts are never cached --
 * they re-run on the next drain.
 */

#ifndef TDC_SERVE_RESULT_CACHE_HH
#define TDC_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.hh"
#include "serve/cache_key.hh"

namespace tdc {
namespace serve {

/** Schema tag stamped into every cached result entry. */
inline constexpr const char *resultCacheSchema = "tdc-result-cache-v1";

/** A decoded cache entry: enough to replay one "ok" sweep slot. */
struct CachedResult
{
    std::string label;
    unsigned attempts = 1;
    json::Value report; //!< tdc-run-report-v1, byte-preserved
};

/** The "attempts" member of a document read from disk: an unsigned
 *  integer that fits, otherwise (absent included) nullopt. */
std::optional<unsigned> attemptsOf(const json::Value &doc);

class ResultCache
{
  public:
    /** Opens (creating if needed) <root>/results. */
    explicit ResultCache(const std::string &root);

    /**
     * Lookup by job config hash (the binary hash is implicit -- this
     * process's). A hit requires a parseable entry with the expected
     * schema, a label, an attempt count and an embedded report;
     * anything else deletes the file and reports a miss.
     */
    std::optional<CachedResult>
    lookup(std::uint64_t config_hash)
    {
        return read(config_hash, true);
    }

    /**
     * Same decode and integrity discipline as lookup(), but no
     * tdc_result_cache_* metric moves. Report assembly replays
     * finished cells through this so the drain's replay/simulate
     * split stays the only thing the counters measure.
     */
    std::optional<CachedResult>
    peek(std::uint64_t config_hash)
    {
        return read(config_hash, false);
    }

    /** Publishes one successful run's slot under its config hash; a
     *  failed publish is fatal(), since the entry is the only copy. */
    void store(std::uint64_t config_hash, const CachedResult &entry);

    /** Entry table (file, bytes) plus totals, for --status. */
    json::Value statusJson() const { return store_.statusJson(); }

    /** Refreshes the tdc_result_cache_* residency gauges. */
    void updateGauges() const { store_.updateGauges(); }

    const std::string &dir() const { return store_.dir(); }

  private:
    std::optional<CachedResult> read(std::uint64_t config_hash,
                                     bool count);

    CacheStore store_;
};

} // namespace serve
} // namespace tdc

#endif // TDC_SERVE_RESULT_CACHE_HH
