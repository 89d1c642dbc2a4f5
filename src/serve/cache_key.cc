#include "serve/cache_key.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <mutex>
#include <system_error>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "common/publish.hh"
#include "trace/mtrace.hh"
#include "trace/workloads.hh"

namespace fs = std::filesystem;

namespace tdc {
namespace serve {

std::uint64_t
jobConfigHash(const runner::JobSpec &spec)
{
    // The compact dump of the job's canonical JSON form is a stable,
    // order-fixed string over every field (JobSpec::toJson emits
    // members in declaration order and raw overrides sorted by key).
    // A schema-version salt invalidates every key if the spec encoding
    // ever changes shape.
    std::string s = "tdc-job-config-v1|";
    s += spec.toJson().dump(-1);
    // A trace workload names a file; the report depends on the file's
    // *content*. Fold the content hash in so overwriting a trace at
    // the same path cannot satisfy a lookup with a stale report.
    for (const std::string &w : spec.workloads) {
        if (isTraceWorkload(w))
            s += format("|trace:{}={}", w,
                        ckpt::hex16(mtrace::traceContentHash(
                            tracePathOf(w))));
    }
    return ckpt::fnv1a(s);
}

std::uint64_t
binaryHash()
{
    static std::once_flag once;
    static std::uint64_t hash = 0;
    std::call_once(once, [] {
        std::FILE *f = std::fopen("/proc/self/exe", "rb");
        if (f == nullptr) {
            warn("cannot read /proc/self/exe; binary-keyed caches "
                 "share one generation");
            return;
        }
        std::uint64_t h = ckpt::fnv1aBasis;
        std::vector<std::uint8_t> buf(1 << 20);
        std::size_t got;
        while ((got = std::fread(buf.data(), 1, buf.size(), f)) > 0)
            h = ckpt::fnv1a(buf.data(), got, h);
        std::fclose(f);
        hash = h;
    });
    return hash;
}

std::vector<FileEntry>
listFiles(const std::string &dir, std::string_view prefix,
          std::string_view ext)
{
    std::vector<FileEntry> files;
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
        std::string name = it->path().filename().string();
        std::error_code stat_ec;
        if (!name.starts_with(prefix) || !name.ends_with(ext)
            || !it->is_regular_file(stat_ec))
            continue;
        FileEntry f{std::move(name), it->file_size(stat_ec), {}};
        if (!stat_ec)
            f.mtime = it->last_write_time(stat_ec);
        if (!stat_ec)
            files.push_back(std::move(f));
    }
    std::ranges::sort(files, {}, &FileEntry::name);
    return files;
}

CacheStore::CacheStore(const std::string &root, const char *subdir,
                       const char *prefix, const char *ext,
                       const char *what, CacheMetrics &metrics)
    : dir_((fs::path(root) / subdir).string()),
      prefix_(std::string(prefix) + "-"), ext_(ext), what_(what),
      metrics_(metrics)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("{}: cannot create '{}': {}", what_, dir_, ec.message());
}

std::string
CacheStore::entryPath(std::uint64_t key) const
{
    return (fs::path(dir_)
            / format("{}{}-{}{}", prefix_, ckpt::hex16(key),
                     ckpt::hex16(binaryHash()), ext_))
        .string();
}

bool
CacheStore::read(std::uint64_t key,
                 const std::function<void(const std::string &)> &decode,
                 bool count) const
{
    const std::string path = entryPath(key);
    std::error_code ec;
    bool hit = false;
    // Only a regular file is an entry, as in listFiles(): anything else
    // at the path can be neither decoded nor dropped, so it is a miss.
    if (fs::is_regular_file(path, ec)) {
        try {
            ScopedFatalCapture capture;
            decode(path);
            hit = true;
        } catch (const std::exception &e) {
            const bool removed = fs::remove(path, ec);
            if (ec) {
                warn("{}: cannot drop corrupt entry '{}' ({}): {}", what_,
                     path, e.what(), ec.message());
            } else {
                warn("{}: dropping corrupt entry '{}': {}", what_, path,
                     e.what());
                // Only the reader that removed it counts it.
                if (count && removed)
                    metrics_.dropped.inc();
            }
        }
    }
    if (count)
        (hit ? metrics_.hits : metrics_.misses).inc();
    return hit;
}

void
CacheStore::publish(
    std::uint64_t key,
    const std::function<void(const std::string &)> &write) const
{
    publishFile(entryPath(key), write);
    metrics_.stores.inc();
}

json::Value
CacheStore::statusJson(std::optional<std::uint64_t> capacityBytes) const
{
    auto v = json::Value::object();
    v.set("dir", dir_);
    if (capacityBytes)
        v.set("capacity_bytes", *capacityBytes);
    std::uint64_t total = 0;
    auto entries = json::Value::array();
    for (const FileEntry &e : scan()) {
        total += e.bytes;
        auto entry = json::Value::object();
        entry.set("file", e.name);
        entry.set("bytes", e.bytes);
        entries.push(std::move(entry));
    }
    v.set("bytes", total);
    v.set("entries", std::move(entries));
    return v;
}

void
CacheStore::updateGauges() const
{
    const auto entries = scan();
    std::uint64_t total = 0;
    for (const FileEntry &e : entries)
        total += e.bytes;
    metrics_.residentBytes.set(static_cast<std::int64_t>(total));
    metrics_.entries.set(static_cast<std::int64_t>(entries.size()));
}

} // namespace serve
} // namespace tdc
