/**
 * @file
 * Set-associative cache tag array with LRU replacement and optional
 * way-partitioning.
 *
 * Used for the L1-I, L1-D and the LLC. Way-partitioning implements the
 * paper's LLC setup (Section V-A): capacity is split between the two
 * hardware threads in the style of Intel Cache Allocation Technology so
 * that LLC contention does not pollute the core-level studies.
 */

#ifndef STRETCH_CACHE_CACHE_H
#define STRETCH_CACHE_CACHE_H

#include <cstdint>
#include <vector>

#include "util/types.h"

namespace stretch
{

/** Geometry and behaviour of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 8;
    unsigned banks = 2;
    /**
     * Way-partition per thread; empty = fully shared. Two entries give the
     * number of ways usable by threads 0 and 1 (must sum to <= assoc).
     */
    std::vector<unsigned> wayPartition;
};

/**
 * Tag array + replacement state. Timing (latencies, MSHRs, banking
 * arbitration) lives in MemoryHierarchy; this class answers hit/miss and
 * manages victims.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up a block; on hit, updates LRU.
     * @param tid requesting thread (relevant when way-partitioned).
     * @return true on hit.
     */
    bool access(ThreadId tid, Addr addr);

    /** Hit test without disturbing replacement state. */
    bool probe(Addr addr) const;

    /**
     * Count a miss of @p tid without a lookup. Only for a caller that
     * knows the block is still absent: a repeat of a missed access with
     * no insert since.
     */
    void countMiss(ThreadId tid) { ++missCount[tid]; }

    /**
     * Install a block, evicting within the thread's way-partition.
     * @param dirty_fill marks the installed block dirty (store fill).
     * @param evicted_dirty set true if a dirty victim was evicted.
     * @return true if a valid block was evicted.
     */
    bool insert(ThreadId tid, Addr addr, bool dirty_fill,
                bool &evicted_dirty);

    /** Mark an existing block dirty (store hit); no-op on miss. */
    void setDirty(Addr addr);

    /** Bank index of a block (block-address interleaved). */
    unsigned bank(Addr addr) const { return blockAddr(addr) & (cfg.banks - 1); }

    /** Invalidate everything. */
    void reset();

    /** Zero hit/miss counters without touching cached state. */
    void
    clearStats()
    {
        for (auto &h : hitCount)
            h = 0;
        for (auto &m : missCount)
            m = 0;
    }

    /** Number of sets. */
    std::uint64_t numSets() const { return sets; }

    /** Configured geometry. */
    const CacheConfig &config() const { return cfg; }

    /// @name Statistics
    /// @{
    std::uint64_t hits(ThreadId tid) const { return hitCount[tid]; }
    std::uint64_t misses(ThreadId tid) const { return missCount[tid]; }
    /// @}

  private:
    /** Tag of an empty way. Block addresses are byte addresses shifted
     *  right by cacheBlockShift, so none can equal it. */
    static constexpr Addr invalidTag = ~Addr(0);

    /** Index of the way holding @p blk, or -1 on a miss. */
    std::int64_t findWay(Addr blk) const;

    // Per-way state as structure-of-arrays in one allocation, each array
    // sets * assoc long and row-major by set: the tags (a lookup scans
    // one contiguous row), the LRU stamps, then a dirty bitmap. One block
    // instead of three keeps a machine's per-sample allocate/free pattern
    // (the LLC arrays are megabytes) from crossing the C allocator's
    // heap-trim threshold, which would return and re-fault the pages on
    // every sample.
    Addr *tags() { return state.data(); }
    const Addr *tags() const { return state.data(); }
    std::uint64_t *lastUse() { return state.data() + numWays; }
    std::uint64_t *dirtyBits() { return state.data() + 2 * numWays; }

    CacheConfig cfg;
    std::uint64_t sets;
    std::uint64_t numWays; ///< sets * assoc
    /** Ways reserved per thread: [wayFirst, wayFirst + wayCount). */
    unsigned wayFirst[numSmtThreads] = {0, 0};
    unsigned wayCount[numSmtThreads] = {0, 0};
    std::vector<std::uint64_t> state;
    std::uint64_t useClock = 0;
    std::uint64_t hitCount[numSmtThreads] = {0, 0};
    std::uint64_t missCount[numSmtThreads] = {0, 0};
};

// Inline: every fetch block and every data access looks up a cache.
inline std::int64_t
Cache::findWay(Addr blk) const
{
    std::uint64_t base = (blk & (sets - 1)) * cfg.assoc;
    const Addr *row = tags() + base;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (row[w] == blk)
            return static_cast<std::int64_t>(base + w);
    }
    return -1;
}

inline bool
Cache::access(ThreadId tid, Addr addr)
{
    std::int64_t way = findWay(blockAddr(addr));
    if (way >= 0) {
        lastUse()[way] = ++useClock;
        ++hitCount[tid];
        return true;
    }
    ++missCount[tid];
    return false;
}

inline bool
Cache::probe(Addr addr) const
{
    return findWay(blockAddr(addr)) >= 0;
}

} // namespace stretch

#endif // STRETCH_CACHE_CACHE_H
