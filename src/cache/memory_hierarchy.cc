#include "cache/memory_hierarchy.h"

#include <algorithm>

#include "util/log.h"

namespace stretch
{

namespace
{

CacheConfig
llcConfigFrom(const HierarchyConfig &cfg)
{
    CacheConfig c;
    c.sizeBytes = cfg.llcBytes;
    c.assoc = cfg.llcAssoc;
    c.banks = 1;
    if (!cfg.llcWayPartition.empty()) {
        c.wayPartition.assign(cfg.llcWayPartition.begin(),
                              cfg.llcWayPartition.end());
    }
    return c;
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg)
    : cfg(cfg), llc(llcConfigFrom(cfg)),
      prefetcher(cfg.prefetchStreams, cfg.prefetchDegree)
{
    unsigned icount = cfg.sharedL1i ? 1 : numSmtThreads;
    unsigned dcount = cfg.sharedL1d ? 1 : numSmtThreads;
    for (unsigned i = 0; i < icount; ++i)
        l1i.emplace_back(cfg.l1i);
    for (unsigned i = 0; i < dcount; ++i)
        l1d.emplace_back(cfg.l1d);
    STRETCH_ASSERT(cfg.mshrs > 0 && cfg.mshrs <= 64,
                   "MSHR file size must be in [1, 64]");
    mshrFiles.resize(dcount);
    for (MshrFile &file : mshrFiles)
        file.slots.resize(cfg.mshrs);
}

Cache &
MemoryHierarchy::l1iFor(ThreadId tid)
{
    return cfg.sharedL1i ? l1i[0] : l1i[tid];
}

void
MemoryHierarchy::completeFills(Cycle now)
{
    nextFill = ~Cycle(0);
    for (unsigned inst = 0; inst < mshrFiles.size(); ++inst) {
        MshrFile &file = mshrFiles[inst];
        for (std::uint64_t live = file.validMask; live; live &= live - 1) {
            unsigned i = static_cast<unsigned>(__builtin_ctzll(live));
            const Mshr &m = file.slots[i];
            if (m.readyCycle > now) {
                nextFill = std::min(nextFill, m.readyCycle);
                continue;
            }
            bool evicted_dirty = false;
            l1d[inst].insert(m.tid, m.block << cacheBlockShift, false,
                             evicted_dirty);
            // Dirty writeback timing is not modeled.
            if (m.demand && m.toMemory)
                --demandOut[m.tid];
            file.validMask &= ~(std::uint64_t(1) << i);
            --file.inUse[m.tid];
            ++file.epoch;
        }
    }
}

unsigned
MemoryHierarchy::llcAccess(ThreadId tid, Addr addr)
{
    if (llc.access(tid, addr)) {
        ++llcHitCount[tid];
        return cfg.llcLatency;
    }
    ++llcMissCount[tid];
    bool evicted_dirty = false;
    llc.insert(tid, addr, false, evicted_dirty);
    return cfg.llcLatency + cfg.memLatency;
}

Cycle
MemoryHierarchy::instrFetch(ThreadId tid, Addr pc, Cycle now)
{
    Cache &cache = l1iFor(tid);
    if (cache.access(tid, pc))
        return now;
    unsigned lat = llcAccess(tid, pc);
    bool evicted_dirty = false;
    cache.insert(tid, pc, false, evicted_dirty);
    return now + lat;
}

MemoryHierarchy::Mshr *
MemoryHierarchy::findMshr(MshrFile &file, Addr block)
{
    for (std::uint64_t live = file.validMask; live; live &= live - 1) {
        Mshr &m = file.slots[__builtin_ctzll(live)];
        if (m.block == block)
            return &m;
    }
    return nullptr;
}

MemoryHierarchy::Mshr *
MemoryHierarchy::allocateMshr(MshrFile &file, ThreadId tid, Addr addr,
                              bool demand, Cycle now)
{
    std::uint64_t all = file.slots.size() == 64
                            ? ~std::uint64_t(0)
                            : (std::uint64_t(1) << file.slots.size()) - 1;
    std::uint64_t free = all & ~file.validMask;
    if (!free)
        return nullptr;
    unsigned i = static_cast<unsigned>(__builtin_ctzll(free));
    file.validMask |= std::uint64_t(1) << i;
    ++file.inUse[tid];
    ++file.epoch;
    Mshr &m = file.slots[i];
    m.block = blockAddr(addr);
    m.tid = tid;
    m.demand = demand;
    unsigned lat = llcAccess(tid, addr);
    m.readyCycle = now + lat;
    m.toMemory = lat > cfg.llcLatency;
    nextFill = std::min(nextFill, m.readyCycle);
    return &m;
}

void
MemoryHierarchy::tryPrefetch(ThreadId tid, Addr pc, Addr addr, Cycle now)
{
    if (!cfg.prefetchEnable)
        return;
    prefetchScratch.clear();
    prefetcher.observe(tid, pc, addr, prefetchScratch);
    unsigned inst = l1dInstance(tid);
    MshrFile &file = mshrFiles[inst];
    const Cache &cache = l1d[inst];
    // Prefetches may not exhaust the thread's MSHR quota: two entries stay
    // reserved for demand misses so streams cannot starve random accesses.
    unsigned quota = cfg.mshrQuota[tid] > 2 ? cfg.mshrQuota[tid] - 2 : 0;
    for (Addr target : prefetchScratch) {
        if (cache.probe(target) || findMshr(file, blockAddr(target)))
            continue;
        if (file.inUse[tid] >= quota ||
            !allocateMshr(file, tid, target, false, now))
            break;
    }
}

DataAccessResult
MemoryHierarchy::lookup(ThreadId tid, Addr pc, Addr addr, bool is_store,
                        Cycle now, unsigned inst, std::uint8_t mask)
{
    DataAccessResult res;
    Cache &cache = l1d[inst];
    MshrFile &file = mshrFiles[inst];

    if (cache.access(tid, addr)) {
        bankBusy[inst] |= mask;
        if (is_store)
            cache.setDirty(addr);
        ++l1dHitCount[tid];
        res.kind = DataAccessKind::Hit;
        res.readyCycle = now + (is_store ? 1 : cfg.l1dHitLatency);
        tryPrefetch(tid, pc, addr, now);
        return res;
    }

    // Miss: merge into a pending MSHR if one covers this block.
    if (Mshr *m = findMshr(file, blockAddr(addr))) {
        bankBusy[inst] |= mask;
        ++l1dMissCount[tid];
        if (!m->demand && !is_store) {
            m->demand = true;
            if (m->toMemory)
                ++demandOut[m->tid];
        }
        res.kind = DataAccessKind::Miss;
        res.readyCycle =
            is_store ? now + 1 : m->readyCycle + cfg.l1dHitLatency;
        tryPrefetch(tid, pc, addr, now);
        return res;
    }

    // Need a fresh MSHR, subject to the per-thread quota.
    if (file.inUse[tid] >= cfg.mshrQuota[tid])
        return mshrFull(tid, file, now);
    Mshr *slot = allocateMshr(file, tid, addr, !is_store, now);
    if (!slot)
        return mshrFull(tid, file, now);

    bankBusy[inst] |= mask;
    ++l1dMissCount[tid];
    if (slot->demand && slot->toMemory)
        ++demandOut[tid];

    res.kind = DataAccessKind::Miss;
    res.readyCycle =
        is_store ? now + 1 : slot->readyCycle + cfg.l1dHitLatency;
    tryPrefetch(tid, pc, addr, now);
    return res;
}

void
MemoryHierarchy::prefillLlc(ThreadId tid, const std::vector<Addr> &blocks)
{
    bool evicted_dirty = false;
    for (Addr a : blocks)
        llc.insert(tid, a, false, evicted_dirty);
}

void
MemoryHierarchy::reset()
{
    for (auto &c : l1i)
        c.reset();
    for (auto &c : l1d)
        c.reset();
    llc.reset();
    prefetcher.reset();
    for (MshrFile &file : mshrFiles) {
        std::fill(file.slots.begin(), file.slots.end(), Mshr{});
        file.validMask = 0;
        file.inUse = {0, 0};
        ++file.epoch; // never 0, and no access parked before matches it
    }
    nextFill = ~Cycle(0);
    bankCycle = ~Cycle(0);
    bankBusy = {0, 0};
    demandOut = {0, 0};
    for (auto &v : llcHitCount)
        v = 0;
    for (auto &v : llcMissCount)
        v = 0;
    for (auto &v : mshrFullCount)
        v = 0;
    for (auto &v : l1dHitCount)
        v = 0;
    for (auto &v : l1dMissCount)
        v = 0;
}

void
MemoryHierarchy::clearStats()
{
    for (auto &v : llcHitCount)
        v = 0;
    for (auto &v : llcMissCount)
        v = 0;
    for (auto &v : mshrFullCount)
        v = 0;
    for (auto &v : l1dHitCount)
        v = 0;
    for (auto &v : l1dMissCount)
        v = 0;
    // L1-I statistics live in the cache tag arrays; snapshot offsets are
    // handled by callers via l1iMisses deltas, so reset those too.
    for (auto &c : l1i)
        c.clearStats();
    for (auto &c : l1d)
        c.clearStats();
    llc.clearStats();
    prefetcher.clearStats();
}

std::uint64_t
MemoryHierarchy::l1iMisses(ThreadId tid) const
{
    const Cache &c = cfg.sharedL1i ? l1i[0] : l1i[tid];
    return c.misses(tid);
}

} // namespace stretch
