#include "serve/result_cache.hh"

#include <limits>

#include "ckpt/checkpoint.hh"
#include "common/logging.hh"
#include "metrics/registry.hh"
#include "serve/cache_key.hh"

namespace tdc {
namespace serve {

namespace {

/** Result-cache metrics (DESIGN.md 11 catalog). */
CacheMetrics &
resultMetrics()
{
    auto &r = metrics::registry();
    static CacheMetrics m{
        r.counter("tdc_result_cache_replays_total",
                  "Finished cells replayed from the result cache"),
        r.counter("tdc_result_cache_misses_total",
                  "Result-cache lookups that found no usable entry"),
        r.counter("tdc_result_cache_corrupt_total",
                  "Entries dropped for schema or parse defects"),
        r.counter("tdc_result_cache_stores_total",
                  "Successful runs published to the result cache"),
        r.gauge("tdc_result_cache_resident_bytes",
                "Bytes currently resident in the result cache"),
        r.gauge("tdc_result_cache_entries",
                "Entries currently resident in the result cache"),
    };
    return m;
}

} // namespace

std::optional<unsigned>
attemptsOf(const json::Value &doc)
{
    const json::Value *a = doc.find("attempts");
    if (a == nullptr || !a->isUint()
        || a->asUint() > std::numeric_limits<unsigned>::max())
        return std::nullopt;
    return static_cast<unsigned>(a->asUint());
}

ResultCache::ResultCache(const std::string &root)
    : store_(root, "results", "rc", ".json", "result cache",
             resultMetrics())
{
}

std::optional<CachedResult>
ResultCache::read(std::uint64_t config_hash, bool count)
{
    std::optional<CachedResult> entry;
    store_.read(
        config_hash,
        [&](const std::string &path) {
            std::string err;
            const auto doc = json::tryReadFile(path, &err);
            if (!doc)
                fatal("{}", err);
            const json::Value *schema = doc->find("schema");
            const json::Value *label = doc->find("label");
            const json::Value *report = doc->find("report");
            const auto attempts = attemptsOf(*doc);
            if (schema == nullptr || !schema->isString()
                || schema->asString() != resultCacheSchema
                || label == nullptr || !label->isString()
                || report == nullptr || !report->isObject() || !attempts)
                fatal("missing or mistyped schema/label/attempts/report");
            entry = CachedResult{label->asString(), *attempts, *report};
        },
        count);
    return entry;
}

void
ResultCache::store(std::uint64_t config_hash, const CachedResult &entry)
{
    auto doc = json::Value::object();
    doc.set("schema", resultCacheSchema);
    doc.set("config_hash", ckpt::hex16(config_hash));
    doc.set("binary_hash", ckpt::hex16(binaryHash()));
    doc.set("label", entry.label);
    doc.set("attempts", std::uint64_t{entry.attempts});
    doc.set("report", entry.report);
    store_.publish(config_hash, [&](const std::string &staging) {
        json::writeFile(doc, staging);
    });
}

} // namespace serve
} // namespace tdc
