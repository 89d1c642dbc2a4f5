/**
 * @file
 * Analytic-timing DRAM device model.
 *
 * Each bank keeps a small amount of state (open row, earliest tick for
 * the next activate, earliest tick the open row may be precharged). An
 * access computes its completion time from that state plus the shared
 * per-channel data-bus availability, then commits the state update. The
 * model captures row hits/misses/conflicts, bank-level parallelism and
 * bus serialization without simulating individual DRAM commands, which
 * keeps multi-million-access runs fast while matching the first-order
 * timing of a FR-FCFS closed-page controller.
 */

#ifndef TDC_DRAM_DRAM_DEVICE_HH
#define TDC_DRAM_DRAM_DEVICE_HH

#include <cstdint>
#include <vector>

#include "ckpt/checkpointable.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_energy.hh"
#include "dram/dram_params.hh"
#include "obs/events.hh"
#include "obs/probe.hh"
#include "sim/sim_object.hh"

namespace tdc {

/** Outcome of a DRAM access. */
struct DramAccessResult
{
    Tick issueTick = 0;      //!< when the command actually started
    Tick firstDataTick = 0;  //!< first beat on the data bus
    Tick completionTick = 0; //!< last beat on the data bus
    bool rowHit = false;
};

class DramDevice : public SimObject, public ckpt::Checkpointable
{
  public:
    DramDevice(std::string name, const DramTimingParams &timing,
               const DramEnergyParams &energy);

    /**
     * Performs a timed access of `bytes` starting at `addr`.
     *
     * The access is assumed to fit in a single DRAM row; callers split
     * larger transfers (page fills issue one access per row, which is
     * exactly one row for our 4 KiB rows).
     *
     * @param addr device-local byte address
     * @param bytes transfer size
     * @param is_write true for writes
     * @param when earliest tick the request may start
     */
    DramAccessResult access(Addr addr, std::uint64_t bytes, bool is_write,
                            Tick when);

    /**
     * A posted (buffered) write: modern controllers absorb sub-row
     * writes in a write queue and drain them in row-clustered batches
     * when banks idle, so they neither stall the writer nor thrash the
     * row buffer under a read stream. The model charges bus bandwidth
     * and transfer energy plus row-activation energy amortized over
     * perfect clustering, but leaves the bank row state untouched.
     *
     * Use for 64B write-backs; page-sized transfers use access().
     */
    DramAccessResult postedWrite(Addr addr, std::uint64_t bytes,
                                 Tick when);

    const DramTimingParams &timing() const { return timing_; }
    const DramEnergyCounter &energy() const { return energy_; }

    /** Row-hit latency (command to first data) for AMAT modeling. */
    Tick rowHitLatency() const { return timing_.tAA; }

    /** Closed-row latency (activate + CAS to first data). */
    Tick rowClosedLatency() const { return timing_.tRCD + timing_.tAA; }

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }
    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }
    std::uint64_t bytesTransferred() const { return bytes_.value(); }

    /** Mean queueing + service latency of accesses (ticks). */
    double avgAccessLatency() const { return latency_.mean(); }

    /** Fired per timed access() with the row-buffer outcome resolved. */
    obs::ProbePoint<obs::DramAccessEvent> accessProbe{"dram_access"};

    /** Checkpointing: bank/row state, bus availability, energy, stats. */
    void saveState(ckpt::Serializer &out) const override;
    void loadState(ckpt::Deserializer &in) override;

  private:
    struct Bank
    {
        std::uint64_t openRow = invalidAddr; //!< invalidAddr == closed
        Tick nextActivate = 0; //!< earliest tick for next ACT
        Tick earliestPre = 0;  //!< tRAS constraint on open row
        Tick nextCas = 0;      //!< earliest tick for next RD/WR command
    };

    struct Decoded
    {
        unsigned channel;
        unsigned bankIndex; //!< flat rank*banks+bank within channel
        std::uint64_t row;
    };

    Decoded decode(Addr addr) const;

    // Address-decode shift/width constants, fixed by geometry at
    // construction so decode() is pure bit math on the hot path.
    unsigned rowBits_ = 0;
    unsigned chanBits_ = 0;
    unsigned bankBits_ = 0;

    DramTimingParams timing_;
    DramEnergyParams energyParams_;
    DramEnergyCounter energy_;

    /** Bank state, indexed [channel][rank*banksPerRank + bank]. */
    std::vector<std::vector<Bank>> banks_;

    /** Data-bus availability per channel. */
    std::vector<Tick> busFree_;

    stats::Scalar reads_;
    stats::Scalar writes_;
    stats::Scalar rowHits_;
    stats::Scalar rowMisses_;
    stats::Scalar bytes_;
    stats::Average latency_;
};

} // namespace tdc

#endif // TDC_DRAM_DRAM_DEVICE_HH
