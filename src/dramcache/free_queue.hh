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
#include "common/ring.hh"
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
        if (!runs_.empty()) {
            Run &back = runs_.back();
            if (back.end() == first && back.readyTick == ready) {
                back.count += count;
                return;
            }
        }
        runs_.push_back(Run{first, count, ready});
    }

    /** The header pointer's target: the next free block. */
    FreeBlock
    front() const
    {
        tdc_assert(!runs_.empty(), "free queue empty");
        return FreeBlock{runs_[0].first, runs_[0].readyTick};
    }

    FreeBlock
    pop()
    {
        const FreeBlock b = front();
        Run &r = runs_.front();
        ++r.first;
        if (--r.count == 0)
            runs_.pop_front();
        --size_;
        return b;
    }

    /** Drops the frames in [lo, hi); the rest keep their FIFO order. */
    void
    remove(std::uint64_t lo, std::uint64_t hi)
    {
        std::vector<Run> old;
        for (std::size_t i = 0; i < runs_.size(); ++i)
            old.push_back(runs_[i]);
        runs_.clear();
        size_ = 0;
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
    std::size_t runCount() const { return runs_.size(); }
    const Run &run(std::size_t i) const { return runs_[i]; }

  private:
    Ring<Run> runs_;
    std::size_t size_ = 0; //!< free frames over all runs
};

} // namespace tdc

#endif // TDC_DRAMCACHE_FREE_QUEUE_HH
