/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * We use our own PCG32 implementation instead of <random> engines so that
 * trace generation is bit-reproducible across standard libraries, which
 * keeps experiment results stable between machines.
 */

#ifndef TDC_COMMON_RANDOM_HH
#define TDC_COMMON_RANDOM_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace tdc {

/**
 * PCG32 (XSH-RR variant), a small, fast, statistically strong generator.
 */
class Pcg32
{
  public:
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (stream << 1) | 1u;
        next();
        state_ += seed;
        next();
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        auto rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        tdc_assert(bound != 0, "below(0)");
        // Lemire's nearly-divisionless method with rejection.
        std::uint64_t m = std::uint64_t{next()} * bound;
        auto lo = static_cast<std::uint32_t>(m);
        if (lo < bound) {
            std::uint32_t threshold = -bound % bound;
            while (lo < threshold) {
                m = std::uint64_t{next()} * bound;
                lo = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** Uniform 64-bit integer in [0, bound). */
    std::uint64_t
    below64(std::uint64_t bound)
    {
        tdc_assert(bound != 0, "below64(0)");
        if (bound <= UINT32_MAX)
            return below(static_cast<std::uint32_t>(bound));
        // Rejection sampling over the smallest all-ones mask covering
        // bound - 1 (std::bit_ceil(bound) overflows past 2^63).
        const std::uint64_t cover =
            ~std::uint64_t{0} >> std::countl_zero(bound - 1);
        std::uint64_t raw;
        do {
            raw = ((std::uint64_t{next()} << 32) | next()) & cover;
        } while (raw >= bound);
        return raw;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Returns true with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Raw engine state, exposed for checkpointing only. */
    std::uint64_t rawState() const { return state_; }
    std::uint64_t rawInc() const { return inc_; }

    /** Checkpoint restore: resumes the exact saved sequence. */
    void
    restoreRaw(std::uint64_t state, std::uint64_t inc)
    {
        state_ = state;
        inc_ = inc;
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * Zipf-distributed sampler over [0, n) with skew s, built on a precomputed
 * cumulative table with binary search. Used to model page popularity
 * (hot/cold page mixes) in the synthetic workloads.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double s)
    {
        tdc_assert(n > 0, "zipf over empty domain");
        cdf_.resize(n);
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf_[i] = sum;
        }
        for (auto &v : cdf_)
            v /= sum;

        // Quantized index: bucketLo_[b] is the first rank whose CDF
        // reaches b/numBuckets. A draw u in [b/K, (b+1)/K) has its
        // answer inside [bucketLo_[b], bucketLo_[b+1]], so the binary
        // search starts on a tiny subrange. Pure search-space pruning:
        // the comparison sequence endpoint is unchanged, so samples are
        // bit-identical to the unindexed search.
        bucketLo_.resize(numBuckets + 1);
        for (std::size_t b = 0; b <= numBuckets; ++b) {
            const double target =
                static_cast<double>(b) / static_cast<double>(numBuckets);
            const std::size_t idx = static_cast<std::size_t>(
                std::lower_bound(cdf_.begin(), cdf_.end(), target)
                - cdf_.begin());
            bucketLo_[b] = idx < n ? idx : n - 1;
        }
    }

    /** Draws a rank in [0, n); rank 0 is the most popular. */
    std::size_t
    sample(Pcg32 &rng) const
    {
        double u = rng.uniform();
        std::size_t b = static_cast<std::size_t>(
            u * static_cast<double>(numBuckets));
        if (b >= numBuckets)
            b = numBuckets - 1;
        // The u*K product can round across an integer boundary; b/K is
        // exact (K is a power of two), so one corrective step restores
        // the invariant b/K <= u < (b+1)/K that the subrange relies on.
        if (u < static_cast<double>(b) / numBuckets)
            --b;
        else if (b + 1 < numBuckets
                 && u >= static_cast<double>(b + 1) / numBuckets)
            ++b;
        std::size_t lo = bucketLo_[b], hi = bucketLo_[b + 1];
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::size_t size() const { return cdf_.size(); }

  private:
    static constexpr std::size_t numBuckets = 1024;

    std::vector<double> cdf_;
    std::vector<std::size_t> bucketLo_;
};

} // namespace tdc

#endif // TDC_COMMON_RANDOM_HH
