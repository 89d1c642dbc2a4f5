#include "ckpt/checkpoint.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "common/logging.hh"
#include "metrics/registry.hh"

namespace tdc {
namespace ckpt {

namespace {

/** Checkpoint-container I/O metrics (DESIGN.md 11 catalog). */
struct CkptMetrics
{
    metrics::Counter &saves;
    metrics::Counter &savedBytes;
    metrics::Counter &restores;
    metrics::Counter &loadedBytes;
    metrics::Histogram &saveSeconds;
    metrics::Histogram &loadSeconds;
};

CkptMetrics &
ckptMetrics()
{
    auto &r = metrics::registry();
    static CkptMetrics m{
        r.counter("tdc_ckpt_saves_total",
                  "Checkpoint containers written to disk"),
        r.counter("tdc_ckpt_saved_bytes_total",
                  "Encoded checkpoint bytes written to disk"),
        r.counter("tdc_ckpt_loads_total",
                  "Checkpoint containers decoded from disk"),
        r.counter("tdc_ckpt_loaded_bytes_total",
                  "Encoded checkpoint bytes read from disk"),
        r.histogram("tdc_ckpt_save_seconds",
                    "Wall time to encode and write one container",
                    {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5}),
        r.histogram("tdc_ckpt_load_seconds",
                    "Wall time to read and decode one container",
                    {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5}),
    };
    return m;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The bytes that precede each payload in the encoded container: the
 * container header (magic, version, fingerprint, section count), then
 * one header per section (name, payload size, FNV-1a of the payload).
 */
struct HeaderBytes
{
    Serializer container;
    std::vector<Serializer> sections;
};

HeaderBytes
headerBytes(const Checkpoint &ck)
{
    HeaderBytes h;
    h.container.putBytes(
        reinterpret_cast<const std::uint8_t *>(checkpointMagic),
        sizeof(checkpointMagic));
    h.container.putU32(checkpointFormatVersion);
    h.container.putU64(ck.fingerprint());
    h.container.putU32(static_cast<std::uint32_t>(ck.sections().size()));
    for (const Section &s : ck.sections()) {
        Serializer &sh = h.sections.emplace_back();
        sh.putString(s.name);
        sh.putU64(s.payload.size());
        sh.putU64(fnv1a(s.payload.data(), s.payload.size()));
    }
    return h;
}

/**
 * Calls fn(data, size) on each piece of the encoded container in file
 * order: the container header, then each section's header and payload.
 * encode() and writeFile() both lay the container out through this, so
 * the file and the in-memory image cannot drift apart.
 */
template <typename Fn>
void
forEachPiece(const HeaderBytes &h, const std::vector<Section> &sections,
             Fn fn)
{
    fn(h.container.bytes().data(), h.container.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
        fn(h.sections[i].bytes().data(), h.sections[i].size());
        fn(sections[i].payload.data(), sections[i].payload.size());
    }
}

} // namespace

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t n, std::uint64_t hash)
{
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= data[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
fnv1a(std::string_view s)
{
    return fnv1a(reinterpret_cast<const std::uint8_t *>(s.data()),
                 s.size());
}

const Section *
Checkpoint::find(std::string_view name) const
{
    for (const auto &s : sections_)
        if (s.name == name)
            return &s;
    return nullptr;
}

const Section &
Checkpoint::require(std::string_view name) const
{
    const Section *s = find(name);
    if (!s)
        fatal("checkpoint: missing section '{}'", name);
    return *s;
}

std::vector<std::uint8_t>
Checkpoint::encode() const
{
    const HeaderBytes h = headerBytes(*this);
    std::size_t total = 0;
    forEachPiece(h, sections_,
                 [&](const std::uint8_t *, std::size_t n) { total += n; });
    Serializer out;
    out.reserve(total);
    forEachPiece(h, sections_, [&](const std::uint8_t *p, std::size_t n) {
        out.putBytes(p, n);
    });
    return out.take();
}

Checkpoint
Checkpoint::decode(const std::uint8_t *data, std::size_t size)
{
    Deserializer in(data, size);

    if (in.remaining() < sizeof(checkpointMagic))
        fatal("checkpoint: file truncated ({} bytes, no header)", size);
    if (std::memcmp(in.getBytes(sizeof(checkpointMagic)), checkpointMagic,
                    sizeof(checkpointMagic)) != 0)
        fatal("checkpoint: bad magic (not a TDC checkpoint file)");

    const std::uint32_t version = in.getU32();
    if (version != checkpointFormatVersion) {
        fatal("checkpoint: format version {} unsupported (this build "
              "reads version {}); re-run the warm phase to regenerate",
              version, checkpointFormatVersion);
    }

    Checkpoint ck;
    ck.fingerprint_ = in.getU64();
    const std::uint32_t count = in.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        Section s;
        s.name = in.getString();
        const std::uint64_t payload_size = in.getU64();
        const std::uint64_t checksum = in.getU64();
        if (payload_size > in.remaining()) {
            fatal("checkpoint: section '{}' truncated ({} byte payload, "
                  "{} bytes left in file)",
                  s.name, payload_size, in.remaining());
        }
        const std::uint8_t *payload = in.getBytes(payload_size);
        s.payload.assign(payload, payload + payload_size);
        const std::uint64_t actual =
            fnv1a(s.payload.data(), s.payload.size());
        if (actual != checksum) {
            fatal("checkpoint: section '{}' checksum mismatch "
                  "(stored {:#x}, computed {:#x}) -- file is corrupt",
                  s.name, checksum, actual);
        }
        ck.sections_.push_back(std::move(s));
    }
    if (!in.done())
        fatal("checkpoint: {} trailing bytes after last section",
              in.remaining());
    return ck;
}

void
Checkpoint::writeFile(const std::string &path) const
{
    const auto t0 = std::chrono::steady_clock::now();
    const HeaderBytes h = headerBytes(*this);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("checkpoint: cannot open '{}' for writing", path);
    // Each piece is written from where it lives; no concatenated copy
    // of the container is built.
    std::uint64_t total = 0;
    bool ok = true;
    forEachPiece(h, sections_, [&](const std::uint8_t *p, std::size_t n) {
        ok = ok && std::fwrite(p, 1, n, f) == n;
        total += n;
    });
    const int rc = std::fclose(f);
    if (!ok || rc != 0)
        fatal("checkpoint: short write to '{}'", path);
    CkptMetrics &m = ckptMetrics();
    m.saves.inc();
    m.savedBytes.inc(total);
    m.saveSeconds.observe(secondsSince(t0));
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return out;
}

json::Value
infoJson(const Checkpoint &ck, const std::string &path)
{
    auto doc = json::Value::object();
    doc.set("schema", checkpointInfoSchema);
    doc.set("path", path);
    doc.set("format_version", checkpointFormatVersion);
    doc.set("fingerprint", hex16(ck.fingerprint()));

    std::uint64_t payload_bytes = 0;
    auto sections = json::Value::array();
    for (const auto &sec : ck.sections()) {
        payload_bytes += sec.payload.size();
        auto entry = json::Value::object();
        entry.set("name", sec.name);
        entry.set("bytes", std::uint64_t{sec.payload.size()});
        entry.set("checksum",
                  hex16(fnv1a(sec.payload.data(), sec.payload.size())));
        sections.push(std::move(entry));
    }
    doc.set("payload_bytes", payload_bytes);
    doc.set("sections", std::move(sections));

    // The "meta" section stores a human-readable JSON summary written
    // by the saving run; surface it as structured members (falling
    // back to the raw string if it ever fails to parse).
    if (const Section *meta = ck.find("meta")) {
        Deserializer d(meta->payload.data(), meta->payload.size());
        const std::string text = d.getString();
        if (auto parsed = json::Value::parse(text))
            doc.set("meta", std::move(*parsed));
        else
            doc.set("meta", text);
    }
    return doc;
}

Checkpoint
Checkpoint::loadFile(const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    // Size the buffer only from a regular file's size: on some
    // filesystems fseek/ftell on a directory "succeed" and report an
    // absurd length, which would throw bad_alloc instead of failing.
    std::error_code ec;
    const std::uintmax_t len = std::filesystem::file_size(path, ec);
    if (ec)
        fatal("checkpoint: cannot read '{}': {}", path, ec.message());
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("checkpoint: cannot open '{}'", path);
    const auto size = static_cast<std::size_t>(len);
    // fread() fills every byte, so the buffer is not zeroed first.
    const auto bytes = std::make_unique_for_overwrite<std::uint8_t[]>(size);
    const std::size_t got = std::fread(bytes.get(), 1, size, f);
    std::fclose(f);
    if (got != size)
        fatal("checkpoint: short read from '{}'", path);
    Checkpoint ck = decode(bytes.get(), size);
    CkptMetrics &m = ckptMetrics();
    m.restores.inc();
    m.loadedBytes.inc(size);
    m.loadSeconds.observe(secondsSince(t0));
    return ck;
}

} // namespace ckpt
} // namespace tdc
