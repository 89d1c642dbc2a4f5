/**
 * @file
 * A FIFO kept in a power-of-two ring that only grows.
 *
 * Unlike std::deque, which allocates a block every few dozen pushes
 * as its front moves on, a queue that churns one element in and one
 * out allocates nothing once the ring has reached its peak size. The
 * tagless cache keeps its free-queue runs in one.
 */

#ifndef TDC_COMMON_RING_HH
#define TDC_COMMON_RING_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tdc {

template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The i-th element in FIFO order: [0] is the front. */
    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slot(i)]; }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[slot(size_++)] = v;
    }

    T
    pop_front()
    {
        const T v = front();
        head_ = slot(1);
        --size_;
        return v;
    }

    /** Empties the ring; its storage stays for reuse. */
    void
    clear()
    {
        head_ = size_ = 0;
    }

  private:
    std::size_t slot(std::size_t i) const
    {
        return (head_ + i) & (slots_.size() - 1);
    }

    /** Doubles the ring, unwrapping the elements to its start. */
    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(4, 2 * slots_.size()));
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = (*this)[i];
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace tdc

#endif // TDC_COMMON_RING_HH
