#include "trace/replay.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string_view>

#include "common/logging.hh"

namespace tdc {
namespace mtrace {

ReplayTraceSource::ReplayTraceSource(
    std::shared_ptr<const MtraceReader> reader, unsigned core)
    : reader_(std::move(reader)), cursor_(*reader_, core)
{
}

void
ReplayTraceSource::saveState(ckpt::Serializer &out) const
{
    out.putU64(cursor_.position());
}

void
ReplayTraceSource::loadState(ckpt::Deserializer &in)
{
    cursor_.seek(in.getU64());
}

namespace {

struct CachedReader
{
    std::shared_ptr<const MtraceReader> reader;
    std::uintmax_t bytes = 0;
    std::uint64_t fingerprint = 0;
};

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

std::uint64_t
fnvMixU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
    return h;
}

std::uint64_t
fnvMixStr(std::uint64_t h, std::string_view s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= fnvPrime;
    }
    return h;
}

/**
 * Content fingerprint of a validated reader: FNV-1a over the section
 * table (name, payload size, payload checksum per section). Because
 * every section checksum covers its payload, equal fingerprints mean
 * equal content -- without rehashing the payload bytes.
 */
std::uint64_t
readerFingerprint(const MtraceReader &reader)
{
    std::uint64_t h = fnvOffset;
    h = fnvMixU64(h, reader.sections().size());
    for (const auto &s : reader.sections()) {
        h = fnvMixStr(h, s.name);
        h = fnvMixU64(h, s.bytes);
        h = fnvMixU64(h, s.checksum);
    }
    return h;
}

/**
 * The same fingerprint computed from the file on disk, reading only
 * the container header and per-section headers (payloads are skipped,
 * their stored checksums stand in for them). Returns 0 -- never a
 * valid fingerprint seed result colliding in practice -- when the file
 * is not a well-formed container, forcing a full re-open whose
 * validation reports the defect properly.
 */
std::uint64_t
fileFingerprint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;

    char magic[8];
    if (!in.read(magic, sizeof(magic))
        || !std::equal(magic, magic + 8, mtraceMagic))
        return 0;

    auto read_u32 = [&in](std::uint32_t &v) {
        std::uint8_t b[4];
        if (!in.read(reinterpret_cast<char *>(b), 4))
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{b[i]} << (8 * i);
        return true;
    };
    auto read_u64 = [&in](std::uint64_t &v) {
        std::uint8_t b[8];
        if (!in.read(reinterpret_cast<char *>(b), 8))
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{b[i]} << (8 * i);
        return true;
    };

    std::uint32_t version = 0, nsec = 0;
    if (!read_u32(version) || version != mtraceFormatVersion
        || !read_u32(nsec) || nsec > 1024)
        return 0;

    std::uint64_t h = fnvOffset;
    h = fnvMixU64(h, nsec);
    for (std::uint32_t i = 0; i < nsec; ++i) {
        std::uint64_t name_len = 0;
        if (!read_u64(name_len) || name_len > 4096)
            return 0;
        std::string name(name_len, '\0');
        if (!in.read(name.data(),
                     static_cast<std::streamsize>(name_len)))
            return 0;
        std::uint64_t size = 0, checksum = 0;
        if (!read_u64(size) || !read_u64(checksum))
            return 0;
        h = fnvMixStr(h, name);
        h = fnvMixU64(h, size);
        h = fnvMixU64(h, checksum);
        if (!in.seekg(static_cast<std::streamoff>(size),
                      std::ios::cur))
            return 0;
    }
    return h;
}

} // namespace

std::shared_ptr<const MtraceReader>
acquireReader(const std::string &path)
{
    static std::mutex mu;
    static std::map<std::string, CachedReader> cache;

    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    if (ec)
        fatal("cannot stat trace file '{}': {}", path, ec.message());

    // Keyed on *content*, not mtime: a same-size in-place rewrite
    // within the filesystem's mtime granularity must not serve the old
    // reader (the ckpt fingerprint and serve result-cache key
    // would see the new content hash and recompute against stale
    // replayed data). The fingerprint hashes the verified header's
    // section table, so it is O(header), not O(file).
    const std::uint64_t fp = fileFingerprint(path);

    std::lock_guard<std::mutex> lock(mu);
    auto it = cache.find(path);
    if (it != cache.end() && it->second.bytes == bytes && fp != 0
        && it->second.fingerprint == fp)
        return it->second.reader;

    // New path, or the file changed underneath us: (re)open and fully
    // re-validate. MtraceReader's constructor fatal()s on any defect.
    auto reader = std::make_shared<const MtraceReader>(path);
    cache[path] = {reader, bytes, readerFingerprint(*reader)};
    return reader;
}

} // namespace mtrace
} // namespace tdc
