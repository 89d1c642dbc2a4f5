/**
 * @file
 * Byte-level encoder/decoder for checkpoint sections.
 *
 * All multi-byte values are little-endian with fixed widths, so a
 * checkpoint written on any supported host decodes on any other and the
 * byte stream produced for identical simulator state is identical
 * (required for the save-after-load byte-equality test). Doubles are
 * stored as their IEEE-754 bit pattern; strings as a u64 length plus
 * raw bytes.
 *
 * Supported hosts are little-endian, so the on-disk byte order is the
 * host's: each fixed-width value moves with one memcpy, and each read
 * makes one bounds check for the whole value.
 *
 * The Deserializer is bounds-checked: reading past the end of a section
 * is a fatal() (catchable via ScopedFatalCapture), never undefined
 * behaviour, so truncated or corrupt checkpoints fail loudly.
 */

#ifndef TDC_CKPT_SERIALIZER_HH
#define TDC_CKPT_SERIALIZER_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace tdc {
namespace ckpt {

// A big-endian host would need a byte swap per value; no supported
// host or CI target is big-endian.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint codec stores values in host byte order");

/** Appends fixed-width little-endian values to a growable buffer. */
class Serializer
{
  public:
    void putU8(std::uint8_t v) { buf_.push_back(v); }
    void putU16(std::uint16_t v) { put(v); }
    void putU32(std::uint32_t v) { put(v); }
    void putU64(std::uint64_t v) { put(v); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putDouble(double v) { put(v); }

    void
    putString(std::string_view s)
    {
        putU64(s.size());
        putBytes(reinterpret_cast<const std::uint8_t *>(s.data()),
                 s.size());
    }

    /** Appends `n` raw bytes. */
    void
    putBytes(const std::uint8_t *data, std::size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    void reserve(std::size_t n) { buf_.reserve(n); }

    /** Overwrites the u64 written at byte offset `pos` (a count that
     *  precedes the entries it counts). */
    void
    patchU64(std::size_t pos, std::uint64_t v)
    {
        std::memcpy(buf_.data() + pos, &v, sizeof(v));
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        buf_.insert(buf_.end(), b, b + sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/** Bounds-checked reader over an encoded section payload. */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8() { return get<std::uint8_t>(); }
    std::uint16_t getU16() { return get<std::uint16_t>(); }
    std::uint32_t getU32() { return get<std::uint32_t>(); }
    std::uint64_t getU64() { return get<std::uint64_t>(); }
    bool getBool() { return getU8() != 0; }
    double getDouble() { return get<double>(); }

    std::string
    getString()
    {
        const std::uint64_t len = getU64();
        const auto *p = reinterpret_cast<const char *>(getBytes(len));
        return std::string(p, static_cast<std::size_t>(len));
    }

    /**
     * Returns a pointer to the next `n` bytes of the buffer being read
     * and moves past them. The pointer stays valid as long as that
     * buffer does.
     */
    const std::uint8_t *
    getBytes(std::uint64_t n)
    {
        need(n);
        const std::uint8_t *p = data_ + pos_;
        pos_ += static_cast<std::size_t>(n);
        return p;
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool done() const { return pos_ == size_; }

  private:
    template <typename T>
    T
    get()
    {
        T v;
        std::memcpy(&v, getBytes(sizeof(T)), sizeof(T));
        return v;
    }

    void
    need(std::uint64_t n) const
    {
        if (n > size_ - pos_) {
            fatal("checkpoint: truncated section (need {} bytes at "
                  "offset {}, {} available)",
                  n, pos_, size_ - pos_);
        }
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/**
 * Writes a sparse list (DESIGN.md 8): a u64 entry count, then, for each
 * index i in [0, n) where live(i) holds, in ascending order, the u64
 * index followed by whatever put(i) writes.
 */
template <typename Live, typename Put>
void
putSparse(Serializer &out, std::uint64_t n, Live live, Put put)
{
    const std::size_t at = out.size();
    out.putU64(0);
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!live(i))
            continue;
        out.putU64(i);
        put(i);
        ++count;
    }
    out.patchU64(at, count);
}

/**
 * Reads a list written by putSparse() and calls get(i) for each entry.
 * Each index must be below n and above the one before it, so a corrupt
 * list is a fatal() naming `what` and the entry, never a write out of
 * range or an entry restored twice.
 */
template <typename Get>
void
getSparse(Deserializer &in, std::string_view what, std::uint64_t n,
          Get get)
{
    const std::uint64_t count = in.getU64();
    std::uint64_t prev = 0;
    for (std::uint64_t k = 0; k < count; ++k) {
        const std::uint64_t i = in.getU64();
        if (i >= n)
            fatal("checkpoint: {} {} out of range ({} in all)", what, i,
                  n);
        if (k > 0 && i == prev)
            fatal("checkpoint: {} {} listed twice", what, i);
        if (k > 0 && i < prev)
            fatal("checkpoint: {} {} listed after {} {}", what, i, what,
                  prev);
        get(i);
        prev = i;
    }
}

} // namespace ckpt
} // namespace tdc

#endif // TDC_CKPT_SERIALIZER_HH
