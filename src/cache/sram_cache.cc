#include "cache/sram_cache.hh"

#include "cache/replacement.hh"
#include "ckpt/stats_io.hh"
#include "common/bitops.hh"

namespace tdc {

SramCache::SramCache(std::string name, const SramCacheParams &params)
    : SimObject(std::move(name)), params_(params)
{
    tdc_assert(isPowerOf2(params_.lineBytes), "line size must be 2^n");
    tdc_assert(params_.associativity > 0, "zero associativity");
    const std::uint64_t num_lines = params_.sizeBytes / params_.lineBytes;
    tdc_assert(num_lines % params_.associativity == 0,
               "size/assoc mismatch");
    numSets_ = static_cast<unsigned>(num_lines / params_.associativity);
    tdc_assert(isPowerOf2(numSets_), "set count must be 2^n");
    lineBits_ = floorLog2(params_.lineBytes);
    setBits_ = floorLog2(numSets_);
    tags_.assign(num_lines, invalidAddr);
    state_.assign(num_lines, 0);
    lastUse_.assign(num_lines, 0);

    auto &sg = statGroup();
    sg.addScalar("hits", &hits_);
    sg.addScalar("misses", &misses_);
    sg.addScalar("writebacks", &writebacks_, "dirty evictions");
}

// Precondition: every way in the set is valid (the access scan hands
// over the lowest invalid way itself when one exists).
std::size_t
SramCache::selectVictim(std::uint64_t set) const
{
    const std::size_t base = set * params_.associativity;
    const std::uint64_t *use = lastUse_.data() + base;
    return base + leastKey(params_.associativity,
                           [use](unsigned w) { return use[w]; });
}

CacheAccessOutcome
SramCache::access(Addr addr, bool is_write)
{
    CacheAccessOutcome out;
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const std::size_t base = set * params_.associativity;
    ++useClock_;

    std::size_t first_invalid = tags_.size(); // sentinel: none seen
    for (unsigned w = 0; w < params_.associativity; ++w) {
        const std::size_t i = base + w;
        if (!(state_[i] & stValid)) {
            if (first_invalid == tags_.size())
                first_invalid = i;
            continue;
        }
        if (tags_[i] == tag) {
            out.hit = true;
            lastUse_[i] = useClock_;
            if (is_write)
                state_[i] |= stDirty;
            ++hits_;
            return out;
        }
    }

    ++misses_;
    // Fill the lowest invalid way if any; otherwise evict the LRU way.
    const std::size_t v = first_invalid != tags_.size()
                              ? first_invalid
                              : selectVictim(set);
    if ((state_[v] & (stValid | stDirty)) == (stValid | stDirty)) {
        out.writebackAddr = rebuildAddr(tags_[v], set);
        ++writebacks_;
    }
    tags_[v] = tag;
    state_[v] = is_write ? (stValid | stDirty) : stValid;
    lastUse_[v] = useClock_;
    return out;
}

bool
SramCache::contains(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const std::size_t base = set * params_.associativity;
    for (unsigned w = 0; w < params_.associativity; ++w) {
        if (tags_[base + w] == tag && (state_[base + w] & stValid))
            return true;
    }
    return false;
}

bool
SramCache::invalidateLine(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const std::size_t base = set * params_.associativity;
    for (unsigned w = 0; w < params_.associativity; ++w) {
        const std::size_t i = base + w;
        if (tags_[i] == tag && (state_[i] & stValid)) {
            // A fill happens only on a miss, so no other way holds it.
            const bool dirty = (state_[i] & stDirty) != 0;
            if (dirty)
                ++writebacks_;
            state_[i] = 0;
            return dirty;
        }
    }
    return false;
}

void
SramCache::saveState(ckpt::Serializer &out) const
{
    out.putU64(tags_.size());
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        out.putU64(tags_[i]);
        out.putBool((state_[i] & stValid) != 0);
        out.putBool((state_[i] & stDirty) != 0);
        out.putU64(lastUse_[i]);
    }
    out.putU64(useClock_);
    ckpt::save(out, hits_);
    ckpt::save(out, misses_);
    ckpt::save(out, writebacks_);
}

void
SramCache::loadState(ckpt::Deserializer &in)
{
    const std::uint64_t n = in.getU64();
    if (n != tags_.size())
        fatal("checkpoint: {} lines for {}, which has {}", n, name(),
              tags_.size());
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        tags_[i] = in.getU64();
        const bool valid = in.getBool();
        const bool dirty = in.getBool();
        state_[i] = (valid ? stValid : 0) | (dirty ? stDirty : 0);
        lastUse_[i] = in.getU64();
    }
    useClock_ = in.getU64();
    ckpt::load(in, hits_);
    ckpt::load(in, misses_);
    ckpt::load(in, writebacks_);
}

} // namespace tdc
