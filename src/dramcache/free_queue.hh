/**
 * @file
 * Free-block bookkeeping for the tagless cache (Section 3.2).
 *
 * The paper maintains a header pointer (HP) to the next free cache
 * block and a FIFO "free queue" of blocks awaiting asynchronous
 * eviction; draining the queue turns victims back into free blocks.
 *
 * In this model eviction work is performed eagerly but its DRAM traffic
 * is timed in the background, so a freed frame carries a readyTick: the
 * moment its (possibly dirty) eviction traffic completes and the frame
 * may be re-allocated. A fill that pops a frame whose readyTick is in
 * the future stalls for the difference -- that is exactly the "fewer
 * than alpha free blocks available" corner the paper's asynchronous
 * scheme is designed to make rare.
 *
 * The queue holds runs: consecutive frames that share a readyTick and
 * were queued one after the other. A fresh cache is the single run
 * [0, frames), so the queue costs what its runs do, not one entry per
 * free frame, and the checkpoint stores the runs (DESIGN.md 8).
 */

#ifndef TDC_DRAMCACHE_FREE_QUEUE_HH
#define TDC_DRAMCACHE_FREE_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace tdc {

class FreeQueue
{
  public:
    struct FreeBlock
    {
        std::uint64_t frame;
        Tick readyTick; //!< eviction traffic completes at this tick
    };

    /** Frames [first, first + count), popped in ascending order. */
    struct Run
    {
        std::uint64_t first;
        std::uint64_t count;
        Tick readyTick;

        std::uint64_t end() const { return first + count; }
    };

    /** Enqueues a freed frame. */
    void push(std::uint64_t frame, Tick ready) { pushRun(frame, 1, ready); }

    /**
     * Enqueues frames [first, first + count); joins the last run when
     * they continue it with the same readyTick.
     */
    void
    pushRun(std::uint64_t first, std::uint64_t count, Tick ready)
    {
        tdc_assert(count > 0, "empty free-queue run");
        size_ += count;
        if (nruns_ > 0) {
            Run &back = at(nruns_ - 1);
            if (back.end() == first && back.readyTick == ready) {
                back.count += count;
                return;
            }
        }
        if (nruns_ == ring_.size())
            grow();
        at(nruns_++) = Run{first, count, ready};
    }

    /** The header pointer's target: the next free block. */
    FreeBlock
    front() const
    {
        tdc_assert(nruns_ > 0, "free queue empty");
        return FreeBlock{run(0).first, run(0).readyTick};
    }

    FreeBlock
    pop()
    {
        const FreeBlock b = front();
        Run &r = at(0);
        ++r.first;
        if (--r.count == 0) {
            head_ = (head_ + 1) & (ring_.size() - 1);
            --nruns_;
        }
        --size_;
        return b;
    }

    /** Drops the frames in [lo, hi); the rest keep their FIFO order. */
    void
    remove(std::uint64_t lo, std::uint64_t hi)
    {
        std::vector<Run> old;
        for (std::size_t i = 0; i < nruns_; ++i)
            old.push_back(run(i));
        head_ = nruns_ = size_ = 0;
        for (const Run &r : old) {
            if (r.first < lo)
                pushRun(r.first, std::min(r.end(), lo) - r.first,
                        r.readyTick);
            const std::uint64_t tail = std::max(r.first, hi);
            if (r.end() > tail)
                pushRun(tail, r.end() - tail, r.readyTick);
        }
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The runs in FIFO order (checkpointing, auditing): run(0) is
     *  the front. */
    std::size_t runCount() const { return nruns_; }
    const Run &
    run(std::size_t i) const
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

  private:
    Run &
    at(std::size_t i)
    {
        return ring_[(head_ + i) & (ring_.size() - 1)];
    }

    /** Doubles the ring, unwrapping the runs to its start. */
    void
    grow()
    {
        std::vector<Run> bigger(std::max<std::size_t>(4, 2 * ring_.size()));
        for (std::size_t i = 0; i < nruns_; ++i)
            bigger[i] = run(i);
        ring_.swap(bigger);
        head_ = 0;
    }

    // The runs live in a ring whose size is a power of two, so a queue
    // that churns one frame in, one frame out allocates nothing.
    std::vector<Run> ring_;
    std::size_t head_ = 0;
    std::size_t nruns_ = 0;
    std::size_t size_ = 0; //!< free frames over all runs
};

} // namespace tdc

#endif // TDC_DRAMCACHE_FREE_QUEUE_HH
