#include "cache/cache.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &cfg) : cfg(cfg)
{
    STRETCH_ASSERT(cfg.assoc > 0, "associativity must be positive");
    STRETCH_ASSERT(isPow2(cfg.banks), "bank count must be a power of two");
    std::uint64_t blocks = cfg.sizeBytes / cacheBlockBytes;
    STRETCH_ASSERT(blocks % cfg.assoc == 0, "size/assoc mismatch");
    sets = blocks / cfg.assoc;
    STRETCH_ASSERT(isPow2(sets), "set count must be a power of two");
    if (cfg.wayPartition.empty()) {
        for (ThreadId t = 0; t < numSmtThreads; ++t)
            wayCount[t] = cfg.assoc;
    } else {
        STRETCH_ASSERT(cfg.wayPartition.size() == numSmtThreads,
                       "way partition needs one entry per thread");
        unsigned total = 0;
        for (ThreadId t = 0; t < numSmtThreads; ++t) {
            wayFirst[t] = total;
            wayCount[t] = cfg.wayPartition[t];
            total += cfg.wayPartition[t];
        }
        STRETCH_ASSERT(total <= cfg.assoc, "way partition exceeds assoc");
    }
    numWays = sets * cfg.assoc;
    state.assign(2 * numWays + (numWays + 63) / 64, 0);
    std::fill_n(state.begin(), numWays, invalidTag);
}

bool
Cache::insert(ThreadId tid, Addr addr, bool dirty_fill, bool &evicted_dirty)
{
    Addr blk = blockAddr(addr);
    Addr *tag = tags();
    std::uint64_t *stamp = lastUse();
    std::uint64_t *dirty = dirtyBits();
    const auto dirtyBit = [](std::uint64_t w) {
        return std::uint64_t(1) << (w & 63);
    };

    // Already present (e.g. racing prefetch): refresh.
    evicted_dirty = false;
    std::int64_t hit = findWay(blk);
    if (hit >= 0) {
        stamp[hit] = ++useClock;
        if (dirty_fill)
            dirty[hit >> 6] |= dirtyBit(hit);
        return false;
    }

    STRETCH_ASSERT(wayCount[tid] > 0, "thread ", unsigned(tid),
                   " has zero ways in partition");

    // First empty way of the partition, else its least recently used.
    std::uint64_t first = (blk & (sets - 1)) * cfg.assoc + wayFirst[tid];
    std::uint64_t end = first + wayCount[tid];
    std::uint64_t victim = first;
    for (std::uint64_t w = first; w < end; ++w) {
        if (tag[w] == invalidTag) {
            victim = w;
            break;
        }
        if (stamp[w] < stamp[victim])
            victim = w;
    }
    bool evicted = tag[victim] != invalidTag;
    evicted_dirty = evicted && (dirty[victim >> 6] & dirtyBit(victim));
    tag[victim] = blk;
    if (dirty_fill)
        dirty[victim >> 6] |= dirtyBit(victim);
    else
        dirty[victim >> 6] &= ~dirtyBit(victim);
    stamp[victim] = ++useClock;
    return evicted;
}

void
Cache::setDirty(Addr addr)
{
    std::int64_t way = findWay(blockAddr(addr));
    if (way >= 0)
        dirtyBits()[way >> 6] |= std::uint64_t(1) << (way & 63);
}

void
Cache::reset()
{
    std::fill(state.begin(), state.begin() + numWays, invalidTag);
    std::fill(state.begin() + numWays, state.end(), 0);
    useClock = 0;
    for (auto &h : hitCount)
        h = 0;
    for (auto &m : missCount)
        m = 0;
}

} // namespace stretch
