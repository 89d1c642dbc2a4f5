/**
 * @file
 * Replacement policy selection for the page-granularity DRAM caches
 * that offer a choice (tagless, SRAM-tag), and the least-key scan that
 * every set-associative victim choice shares.
 */

#ifndef TDC_CACHE_REPLACEMENT_HH
#define TDC_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <string_view>

#include "common/logging.hh"

namespace tdc {

/**
 * One victim order either way: FIFO orders entries by fill, LRU also
 * moves an entry to the most-recent end on every use.
 */
enum class ReplPolicy : std::uint8_t {
    LRU,
    FIFO,
};

inline ReplPolicy
replPolicyFromString(std::string_view s)
{
    if (s == "lru" || s == "LRU")
        return ReplPolicy::LRU;
    if (s == "fifo" || s == "FIFO")
        return ReplPolicy::FIFO;
    fatal("unknown replacement policy '{}'", s);
}

/**
 * The index in [0, n) with the least `key(i)`, ties to the lowest
 * index (std::min_element's tie-break); n must be at least 1. The least
 * key rides in a register and both selects are conditional moves, not
 * a reload and a branch per index.
 */
template <typename Key>
inline unsigned
leastKey(unsigned n, Key key)
{
    unsigned best = 0;
    auto least = key(0u);
    for (unsigned i = 1; i < n; ++i) {
        const auto k = key(i);
        const bool less = k < least;
        best = less ? i : best;
        least = less ? k : least;
    }
    return best;
}

} // namespace tdc

#endif // TDC_CACHE_REPLACEMENT_HH
