#include "dram/dram_device.hh"

#include <algorithm>

#include "ckpt/stats_io.hh"
#include "common/bitops.hh"

namespace tdc {

DramDevice::DramDevice(std::string name, const DramTimingParams &timing,
                       const DramEnergyParams &energy)
    : SimObject(std::move(name)), timing_(timing), energyParams_(energy)
{
    tdc_assert(isPowerOf2(timing_.rowBytes), "row size must be 2^n");
    tdc_assert(isPowerOf2(timing_.channels), "channels must be 2^n");
    const unsigned banks_per_channel =
        timing_.ranksPerChannel * timing_.banksPerRank;
    tdc_assert(isPowerOf2(banks_per_channel), "banks must be 2^n");

    rowBits_ = floorLog2(timing_.rowBytes);
    chanBits_ = floorLog2(timing_.channels);
    bankBits_ = floorLog2(banks_per_channel);

    banks_.assign(timing_.channels,
                  std::vector<Bank>(banks_per_channel));
    busFree_.assign(timing_.channels, 0);

    auto &sg = statGroup();
    sg.addScalar("reads", &reads_, "read accesses");
    sg.addScalar("writes", &writes_, "write accesses");
    sg.addScalar("row_hits", &rowHits_, "accesses hitting an open row");
    sg.addScalar("row_misses", &rowMisses_, "accesses needing activate");
    sg.addScalar("bytes", &bytes_, "bytes transferred");
}

DramAccessResult
DramDevice::postedWrite(Addr addr, std::uint64_t bytes, Tick when)
{
    tdc_assert(bytes > 0, "zero-byte DRAM write");
    const Decoded d = decode(addr);
    Tick &bus_free = busFree_[d.channel];

    DramAccessResult res;
    res.rowHit = true; // drained from the write queue row-clustered
    const Tick start = std::max(when, bus_free);
    res.issueTick = start;
    res.firstDataTick = start;
    res.completionTick = start + timing_.transferTicks(bytes);
    // Reads have priority: buffered writes drain into idle bus slots,
    // so they do not push bus_free ahead of demand reads. (At the write
    // shares this system produces the idle bandwidth always suffices;
    // bytes and energy are still accounted.)

    energy_.addTransfer(energyParams_, bytes);
    // Amortized activate energy assuming row-clustered drains.
    energy_.addFractionalActivate(
        energyParams_,
        static_cast<double>(bytes)
            / static_cast<double>(timing_.rowBytes));
    bytes_ += bytes;
    ++writes_;
    ++rowHits_;
    latency_.sample(static_cast<double>(res.completionTick - when));
    return res;
}

DramDevice::Decoded
DramDevice::decode(Addr addr) const
{
    // Address layout (low to high): row offset | channel | bank | row.
    // Interleaving consecutive rows across channels then banks spreads
    // page-grained traffic for bank-level parallelism.
    Decoded d;
    d.channel = static_cast<unsigned>(bits(addr, rowBits_, chanBits_));
    d.bankIndex =
        static_cast<unsigned>(bits(addr, rowBits_ + chanBits_, bankBits_));
    d.row = addr >> (rowBits_ + chanBits_ + bankBits_);
    return d;
}

DramAccessResult
DramDevice::access(Addr addr, std::uint64_t bytes, bool is_write, Tick when)
{
    tdc_assert(bytes > 0, "zero-byte DRAM access");
    tdc_assert((addr % timing_.rowBytes) + bytes <= timing_.rowBytes,
               "access spans rows: addr={:#x} bytes={}", addr, bytes);

    const Decoded d = decode(addr);
    Bank &bank = banks_[d.channel][d.bankIndex];
    Tick &bus_free = busFree_[d.channel];

    DramAccessResult res;
    Tick cas_tick; // when the RD/WR command issues
    auto outcome = obs::DramAccessEvent::Outcome::RowHit;

    if (bank.openRow == d.row) {
        // Row hit: issue CAS as soon as the bank allows.
        res.rowHit = true;
        ++rowHits_;
        cas_tick = std::max(when, bank.nextCas);
        res.issueTick = cas_tick;
    } else {
        ++rowMisses_;
        Tick act_tick;
        if (bank.openRow != invalidAddr) {
            // Row conflict: precharge the open row (respecting tRAS and
            // the drain of earlier bursts), then activate the new row.
            outcome = obs::DramAccessEvent::Outcome::RowConflict;
            const Tick pre_tick = std::max(when, bank.earliestPre);
            act_tick = pre_tick + timing_.tRP;
        } else {
            // Row closed: activate immediately.
            outcome = obs::DramAccessEvent::Outcome::RowMiss;
            act_tick = std::max(when, bank.nextActivate);
        }
        energy_.addActivate(energyParams_);
        bank.openRow = d.row;
        bank.earliestPre = act_tick + timing_.tRAS;
        cas_tick = act_tick + timing_.tRCD;
        res.issueTick = act_tick;
    }

    res.firstDataTick = cas_tick + timing_.tAA;

    // Serialize the burst on the channel's data bus.
    const Tick burst = timing_.transferTicks(bytes);
    const Tick data_start = std::max(res.firstDataTick, bus_free);
    res.completionTick = data_start + burst;
    bus_free = res.completionTick;

    // Row-hit CAS commands pipeline: the next CAS may issue as soon as
    // this burst's bus slot is consumed (CAS-to-CAS >= burst length);
    // the shared data bus already serializes actual transfers. The row
    // may not be precharged until the burst has drained.
    bank.nextCas = cas_tick + burst;
    bank.earliestPre = std::max(bank.earliestPre, res.completionTick);
    bank.nextActivate = std::max(bank.nextActivate, cas_tick);

    energy_.addTransfer(energyParams_, bytes);
    bytes_ += bytes;
    if (is_write)
        ++writes_;
    else
        ++reads_;
    latency_.sample(static_cast<double>(res.completionTick - when));

    if (accessProbe.attached())
        accessProbe.fire(obs::DramAccessEvent{
            .device = name(),
            .channel = d.channel,
            .bank = d.bankIndex,
            .row = d.row,
            .bytes = bytes,
            .write = is_write,
            .start = when,
            .completion = res.completionTick,
            .outcome = outcome});

    return res;
}

void
DramDevice::saveState(ckpt::Serializer &out) const
{
    out.putU64(banks_.size());
    for (const auto &channel : banks_) {
        out.putU64(channel.size());
        for (const Bank &b : channel) {
            out.putU64(b.openRow);
            out.putU64(b.nextActivate);
            out.putU64(b.earliestPre);
            out.putU64(b.nextCas);
        }
    }
    out.putU64(busFree_.size());
    for (Tick t : busFree_)
        out.putU64(t);
    out.putDouble(energy_.actPrePj());
    out.putDouble(energy_.rdwrPj());
    out.putDouble(energy_.ioPj());
    out.putU64(energy_.activates());
    ckpt::save(out, reads_);
    ckpt::save(out, writes_);
    ckpt::save(out, rowHits_);
    ckpt::save(out, rowMisses_);
    ckpt::save(out, bytes_);
    ckpt::save(out, latency_);
}

void
DramDevice::loadState(ckpt::Deserializer &in)
{
    const std::uint64_t channels = in.getU64();
    if (channels != banks_.size())
        fatal("checkpoint: {} channels for DRAM device {}, which has {}",
              channels, name(), banks_.size());
    for (auto &channel : banks_) {
        const std::uint64_t nbanks = in.getU64();
        if (nbanks != channel.size())
            fatal("checkpoint: {} banks a channel for DRAM device {}, "
                  "which has {}", nbanks, name(), channel.size());
        for (Bank &b : channel) {
            b.openRow = in.getU64();
            b.nextActivate = in.getU64();
            b.earliestPre = in.getU64();
            b.nextCas = in.getU64();
        }
    }
    const std::uint64_t nbus = in.getU64();
    if (nbus != busFree_.size())
        fatal("checkpoint: {} buses for DRAM device {}, which has {}",
              nbus, name(), busFree_.size());
    for (Tick &t : busFree_)
        t = in.getU64();
    const double act_pre = in.getDouble();
    const double rdwr = in.getDouble();
    const double io = in.getDouble();
    const std::uint64_t activates = in.getU64();
    energy_.restore(act_pre, rdwr, io, activates);
    ckpt::load(in, reads_);
    ckpt::load(in, writes_);
    ckpt::load(in, rowHits_);
    ckpt::load(in, rowMisses_);
    ckpt::load(in, bytes_);
    ckpt::load(in, latency_);
}

} // namespace tdc
