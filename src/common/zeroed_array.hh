/**
 * @file
 * Lazily zero-filled flat array for huge, sparsely touched tables.
 *
 * std::vector value-initialization writes every byte eagerly, which for
 * a multi-megabyte frame or tag table costs more memory and time than a
 * short simulation that touches a few percent of it. The storage here
 * is an anonymous private mapping instead: the kernel hands out zeroed
 * pages on first write, so construction is O(1) in touched memory,
 * untouched pages never count toward the resident set, and destruction
 * returns every page at once. calloc() would often do the same, but
 * only while glibc's dynamic mmap threshold is below the request; once
 * it rises, calloc serves the array from the heap, touches it and keeps
 * it resident after free().
 *
 * Restricted to trivially-copyable element types whose all-zero bytes
 * are the default value; elements are never constructed or destroyed.
 */

#ifndef TDC_COMMON_ZEROED_ARRAY_HH
#define TDC_COMMON_ZEROED_ARRAY_HH

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace tdc {

template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>
                      && std::is_trivially_destructible_v<T>,
                  "ZeroedArray requires trivial element types");

  public:
    ZeroedArray() = default;

    explicit ZeroedArray(std::size_t n) { reset(n); }

    ZeroedArray(ZeroedArray &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          size_(std::exchange(o.size_, 0))
    {}

    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = std::exchange(o.data_, nullptr);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    ~ZeroedArray() { release(); }

    /** Releases the old storage and maps n zeroed elements. */
    void
    reset(std::size_t n)
    {
        release();
        if (n == 0)
            return;
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1,
                         0);
        tdc_assert(p != MAP_FAILED, "ZeroedArray: cannot map {} bytes",
                   n * sizeof(T));
        data_ = static_cast<T *>(p);
        size_ = n;
    }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *data() { return data_; }
    const T *data() const { return data_; }

  private:
    void
    release()
    {
        if (data_ != nullptr)
            ::munmap(data_, size_ * sizeof(T));
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace tdc

#endif // TDC_COMMON_ZEROED_ARRAY_HH
