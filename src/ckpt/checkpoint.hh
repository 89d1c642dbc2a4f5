/**
 * @file
 * Versioned container for warm-state snapshots.
 *
 * On-disk layout (all integers little-endian):
 *
 *     offset 0  8 bytes   magic "TDCCKPT\0"
 *               u32       format version (checkpointFormatVersion)
 *               u64       config fingerprint (warm-relevant config hash)
 *               u32       section count
 *     per section, in order:
 *               u64+bytes section name (length-prefixed string)
 *               u64       payload size in bytes
 *               u64       FNV-1a checksum of the payload
 *               bytes     payload
 *
 * Sections are named after the component that produced them ("cores",
 * "org", "page_tables", ...) plus a leading "meta" section holding a
 * human-readable JSON summary for the tdc_ckpt inspector. decode()
 * validates magic, version, per-section sizes and checksums and
 * fatal()s — catchable via ScopedFatalCapture — on any mismatch, so a
 * truncated, corrupt or version-skewed file is a hard error, never
 * silent corruption. Fingerprint validation against the restoring
 * system's config is the caller's job (System::restoreCheckpoint).
 *
 * Versioning policy: the format version bumps whenever any section's
 * encoding changes shape. There is no cross-version migration — a
 * checkpoint is a cache of re-derivable warm state, so a stale version
 * is simply rejected and the warm phase re-run.
 */

#ifndef TDC_CKPT_CHECKPOINT_HH
#define TDC_CKPT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/json.hh"

namespace tdc {
namespace ckpt {

inline constexpr char checkpointMagic[8] =
    {'T', 'D', 'C', 'C', 'K', 'P', 'T', '\0'};
inline constexpr std::uint32_t checkpointFormatVersion = 4;

/** The FNV-1a offset basis: the hash of no bytes. */
inline constexpr std::uint64_t fnv1aBasis = 14695981039346656037ULL;

/** 64-bit FNV-1a over a byte range. Passing the hash of the bytes
 *  before it continues a hash, so a stream can be hashed in pieces. */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t n,
                    std::uint64_t hash = fnv1aBasis);
std::uint64_t fnv1a(std::string_view s);

struct Section
{
    std::string name;
    std::vector<std::uint8_t> payload;
};

class Checkpoint
{
  public:
    void setFingerprint(std::uint64_t fp) { fingerprint_ = fp; }
    std::uint64_t fingerprint() const { return fingerprint_; }

    void
    addSection(std::string name, Serializer s)
    {
        sections_.push_back({std::move(name), s.take()});
    }

    /** Section lookup by name; nullptr when absent. */
    const Section *find(std::string_view name) const;

    /** Like find(), but fatal() when the section is missing. */
    const Section &require(std::string_view name) const;

    const std::vector<Section> &sections() const { return sections_; }

    /** Encodes the full container (header + all sections). */
    std::vector<std::uint8_t> encode() const;

    /** Decodes and fully validates an encoded container. */
    static Checkpoint decode(const std::uint8_t *data, std::size_t size);

    static Checkpoint
    decode(const std::vector<std::uint8_t> &bytes)
    {
        return decode(bytes.data(), bytes.size());
    }

    void writeFile(const std::string &path) const;
    static Checkpoint loadFile(const std::string &path);

  private:
    std::uint64_t fingerprint_ = 0;
    std::vector<Section> sections_;
};

/** Schema tag of the machine-readable checkpoint summary. */
inline constexpr const char *checkpointInfoSchema = "tdc-ckpt-info-v1";

/** Formats a u64 as a fixed-width lower-case hex string (no 0x). */
std::string hex16(std::uint64_t v);

/**
 * Machine-readable summary of a decoded checkpoint: header fields, the
 * per-section size/checksum table and the embedded "meta" JSON. One
 * format shared by `tdc_ckpt --json` and the sweep service's
 * warm-cache integrity/status paths, so scripts parse a single shape:
 *
 *   { "schema": "tdc-ckpt-info-v1", "path": ..., "format_version": 4,
 *     "fingerprint": "<hex16>", "payload_bytes": N,
 *     "sections": [ { "name", "bytes", "checksum": "<hex16>" }, ... ],
 *     "meta": { ... } }
 */
json::Value infoJson(const Checkpoint &ck, const std::string &path);

} // namespace ckpt
} // namespace tdc

#endif // TDC_CKPT_CHECKPOINT_HH
