#include "core/ooo_core.hh"

#include <algorithm>

#include "ckpt/stats_io.hh"

namespace tdc {

OooCore::OooCore(std::string name, CoreId core, const CoreParams &params,
                 const ClockDomain &clk, TraceSource &trace, MemorySystem &mem)
    : SimObject(std::move(name)), core_(core), params_(params), clk_(clk),
      trace_(trace), mem_(mem)
{
    outstanding_.init(params_.maxOutstanding);

    auto &sg = statGroup();
    sg.addScalar("insts", &insts_, "retired instructions");
    sg.addScalar("mem_refs", &memRefs_, "memory references");
    sg.addScalar("mshr_stalls", &mshrStalls_,
                 "stalls on the outstanding-miss limit");
    sg.addScalar("rob_stalls", &robStalls_, "stalls on the ROB limit");
    sg.addChild(&mem_.statGroup());
}

void
OooCore::retireCompleted()
{
    while (!outstanding_.empty()
           && outstanding_.front().completion <= now_) {
        outstanding_.popFront();
    }
}

void
OooCore::runUntil(Tick horizon, std::uint64_t inst_limit)
{
    while (now_ < horizon && insts_.value() < inst_limit) {
        const TraceRecord rec = trace_.next();

        // Retire the non-memory work preceding this reference.
        carryInsts_ += rec.nonMemInsts;
        const std::uint64_t whole_cycles =
            carryInsts_ / params_.issueWidth;
        carryInsts_ %= params_.issueWidth;
        now_ += clk_.cyclesToTicks(whole_cycles);
        insts_ += rec.nonMemInsts + 1; // +1 for the memory op itself
        ++memRefs_;

        if (milestone_ != 0 && insts_.value() >= nextMilestone_) {
            // One trace record can retire many instructions; report
            // each crossed boundary so downstream interval math holds.
            do {
                if (retireProbe.attached())
                    retireProbe.fire(obs::RetireEvent{
                        .core = core_,
                        .insts = nextMilestone_,
                        .tick = now_});
                nextMilestone_ += milestone_;
            } while (insts_.value() >= nextMilestone_);
        }

        retireCompleted();

        // Structural limits on memory-level parallelism.
        if (outstanding_.size() >= params_.maxOutstanding) {
            ++mshrStalls_;
            now_ = std::max(now_, outstanding_.front().completion);
            retireCompleted();
        }
        if (!outstanding_.empty()
            && insts_.value() - outstanding_.front().instNo
                   >= params_.robSize) {
            ++robStalls_;
            now_ = std::max(now_, outstanding_.front().completion);
            retireCompleted();
        }

        const MemAccessResult res = mem_.access(rec.vaddr, rec.type,
                                                now_);
        if (rec.dependent) {
            // Serializing load: the core cannot speculate past it, so
            // everything in flight effectively completes first.
            now_ = std::max(now_, res.completionTick);
            retireCompleted();
            continue;
        }
        if (res.l1Hit) {
            // Pipelined L1 hit: no visible stall beyond issue.
            continue;
        }
        outstanding_.pushBack(
            Outstanding{res.completionTick, insts_.value()});
    }
}

void
OooCore::saveState(ckpt::Serializer &out) const
{
    out.putU64(now_);
    out.putU64(carryInsts_);
    out.putU64(outstanding_.size());
    outstanding_.forEach([&out](const Outstanding &o) {
        out.putU64(o.completion);
        out.putU64(o.instNo);
    });
    ckpt::save(out, insts_);
    ckpt::save(out, memRefs_);
    ckpt::save(out, mshrStalls_);
    ckpt::save(out, robStalls_);
}

void
OooCore::loadState(ckpt::Deserializer &in)
{
    now_ = in.getU64();
    carryInsts_ = in.getU64();
    outstanding_.clear();
    const std::uint64_t n = in.getU64();
    if (n > outstanding_.capacity())
        fatal("checkpoint: {} outstanding misses for {}, over its "
              "capacity {}", n, name(), outstanding_.capacity());
    for (std::uint64_t i = 0; i < n; ++i) {
        const Tick completion = in.getU64();
        const std::uint64_t inst_no = in.getU64();
        outstanding_.pushBack(Outstanding{completion, inst_no});
    }
    ckpt::load(in, insts_);
    ckpt::load(in, memRefs_);
    ckpt::load(in, mshrStalls_);
    ckpt::load(in, robStalls_);
    // Re-derive the next milestone boundary: the smallest multiple of
    // the armed interval strictly above the restored retire count.
    nextMilestone_ =
        milestone_ ? (insts_.value() / milestone_ + 1) * milestone_ : 0;
}

} // namespace tdc
