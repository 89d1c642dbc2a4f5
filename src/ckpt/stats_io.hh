/**
 * @file
 * Serialization helpers for the common-layer value types that appear in
 * nearly every component's checkpoint section: statistics accumulators
 * and the PCG32 generator. Keeping these here (instead of as methods on
 * the stats types) keeps src/common free of any checkpoint dependency.
 */

#ifndef TDC_CKPT_STATS_IO_HH
#define TDC_CKPT_STATS_IO_HH

#include <cstdint>

#include "ckpt/serializer.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace tdc {
namespace ckpt {

inline void
save(Serializer &out, const stats::Scalar &s)
{
    out.putU64(s.value());
}

inline void
load(Deserializer &in, stats::Scalar &s)
{
    s.restore(in.getU64());
}

inline void
save(Serializer &out, const stats::Average &a)
{
    out.putDouble(a.sum());
    out.putU64(a.count());
    out.putDouble(a.minimum());
    out.putDouble(a.maximum());
}

inline void
load(Deserializer &in, stats::Average &a)
{
    const double sum = in.getDouble();
    const std::uint64_t count = in.getU64();
    const double min = in.getDouble();
    const double max = in.getDouble();
    a.restore(sum, count, min, max);
}

inline void
save(Serializer &out, const Pcg32 &rng)
{
    out.putU64(rng.rawState());
    out.putU64(rng.rawInc());
}

inline void
load(Deserializer &in, Pcg32 &rng)
{
    const std::uint64_t state = in.getU64();
    const std::uint64_t inc = in.getU64();
    rng.restoreRaw(state, inc);
}

} // namespace ckpt
} // namespace tdc

#endif // TDC_CKPT_STATS_IO_HH
