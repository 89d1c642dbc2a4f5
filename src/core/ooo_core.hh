/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * Instead of simulating a full pipeline, the model applies the standard
 * interval analysis of OoO execution: non-memory instructions retire at
 * `issueWidth` per cycle, and memory references that miss the L1 become
 * outstanding requests whose latency is overlapped with subsequent work
 * subject to two limits --
 *
 *   - at most `maxOutstanding` misses in flight (MSHR bound), and
 *   - the core may run at most `robSize` instructions past the oldest
 *     incomplete miss (ROB bound).
 *
 * When either limit is hit the core's time cursor jumps to the oldest
 * miss's completion. This reproduces the first-order MLP behaviour that
 * the DRAM-cache comparison depends on while staying fast enough for
 * multi-million-instruction sweeps.
 */

#ifndef TDC_CORE_OOO_CORE_HH
#define TDC_CORE_OOO_CORE_HH

#include <vector>

#include "ckpt/checkpointable.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/core_params.hh"
#include "core/memory_system.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"
#include "trace/trace.hh"

namespace tdc {

class OooCore : public SimObject, public ckpt::Checkpointable
{
  public:
    OooCore(std::string name, CoreId core, const CoreParams &params,
            const ClockDomain &clk, TraceSource &trace, MemorySystem &mem);

    /**
     * Advances the core until its local time reaches `horizon` or its
     * retired-instruction count reaches `inst_limit`, whichever comes
     * first. Used by the System's quantum-interleaved scheduler.
     */
    void runUntil(Tick horizon, std::uint64_t inst_limit);

    /** Waits for all outstanding misses (end of run). */
    void
    drain()
    {
        if (!outstanding_.empty()) {
            const Tick last = outstanding_.back().completion;
            now_ = now_ > last ? now_ : last;
            outstanding_.clear();
        }
    }

    /** Core-local current time. */
    Tick now() const { return now_; }

    std::uint64_t instsRetired() const { return insts_.value(); }
    std::uint64_t memRefs() const { return memRefs_.value(); }

    bool
    done(std::uint64_t inst_limit) const
    {
        return insts_.value() >= inst_limit;
    }

    /** Cycles elapsed on this core. */
    Cycles cycles() const { return clk_.ticksToCycles(now_); }

    double
    ipc() const
    {
        const auto c = cycles();
        return c ? static_cast<double>(insts_.value()) / c : 0.0;
    }

    CoreId coreId() const { return core_; }

    /**
     * Arms the retire-milestone probe: retireProbe fires whenever the
     * retired-instruction count crosses a multiple of `interval`.
     * 0 (the default) disables the check entirely.
     */
    void
    setRetireMilestone(std::uint64_t interval)
    {
        milestone_ = interval;
        nextMilestone_ = interval;
    }

    obs::ProbePoint<obs::RetireEvent> retireProbe{"retire"};

    /**
     * Core time cursor, issue remainder, outstanding-miss window and
     * retire stats. The milestone cursor is not serialized: it is
     * recomputed from the restored instruction count against whatever
     * interval the restoring run arms.
     */
    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    struct Outstanding
    {
        Tick completion;
        std::uint64_t instNo;
    };

    /**
     * FIFO window of in-flight misses. The population is bounded by
     * maxOutstanding (the MSHR stall pops before any push), so a ring
     * over a fixed array replaces the deque: no allocation after
     * construction and power-of-two masking for the index math.
     */
    class MissWindow
    {
      public:
        void
        init(std::size_t capacity)
        {
            std::size_t cap = 1;
            while (cap < capacity)
                cap <<= 1;
            buf_.resize(cap);
            mask_ = cap - 1;
        }

        bool empty() const { return count_ == 0; }
        std::size_t size() const { return count_; }
        std::size_t capacity() const { return buf_.size(); }

        const Outstanding &front() const { return buf_[head_]; }

        const Outstanding &
        back() const
        {
            return buf_[(head_ + count_ - 1) & mask_];
        }

        void
        pushBack(const Outstanding &o)
        {
            tdc_assert(count_ < buf_.size(), "miss window overflow");
            buf_[(head_ + count_) & mask_] = o;
            ++count_;
        }

        void
        popFront()
        {
            head_ = (head_ + 1) & mask_;
            --count_;
        }

        void
        clear()
        {
            head_ = 0;
            count_ = 0;
        }

        /** Visits entries oldest to newest (checkpoint emission). */
        template <typename Fn>
        void
        forEach(Fn fn) const
        {
            for (std::size_t i = 0; i < count_; ++i)
                fn(buf_[(head_ + i) & mask_]);
        }

      private:
        std::vector<Outstanding> buf_;
        std::size_t mask_ = 0;
        std::size_t head_ = 0;
        std::size_t count_ = 0;
    };

    void retireCompleted();

    CoreId core_;
    CoreParams params_;
    const ClockDomain &clk_;
    TraceSource &trace_;
    MemorySystem &mem_;

    Tick now_ = 0;
    std::uint64_t carryInsts_ = 0; //!< sub-cycle issue remainder
    std::uint64_t milestone_ = 0;     //!< retire-probe interval (0: off)
    std::uint64_t nextMilestone_ = 0; //!< next boundary to cross
    MissWindow outstanding_;

    stats::Scalar insts_;
    stats::Scalar memRefs_;
    stats::Scalar mshrStalls_;
    stats::Scalar robStalls_;
};

} // namespace tdc

#endif // TDC_CORE_OOO_CORE_HH
