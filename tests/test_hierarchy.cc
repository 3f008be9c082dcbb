/**
 * @file
 * Unit tests for the memory hierarchy: latencies, MSHR allocation,
 * merging and quotas, bank conflicts, prefetch reservation, LLC
 * partitioning and pre-fill, and MLP accounting.
 */

#include <gtest/gtest.h>

#include "cache/memory_hierarchy.h"

namespace stretch
{
namespace
{

HierarchyConfig
fullMachine()
{
    HierarchyConfig cfg;
    cfg.llcWayPartition = {16, 0};
    cfg.mshrQuota = {10, 10};
    cfg.prefetchEnable = false; // most tests want deterministic MSHR use
    return cfg;
}

TEST(Hierarchy, L1HitLatency)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    // First access misses; after the fill it hits with hit latency.
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x5000, false, 0);
    EXPECT_EQ(r.kind, DataAccessKind::Miss);
    Cycle fill = r.readyCycle;
    mem.tick(fill);
    DataAccessResult r2 = mem.dataAccess(0, 0x1, 0x5000, false, fill);
    EXPECT_EQ(r2.kind, DataAccessKind::Hit);
    EXPECT_EQ(r2.readyCycle, fill + mem.config().l1dHitLatency);
}

TEST(Hierarchy, LlcHitVsMemoryLatency)
{
    HierarchyConfig cfg = fullMachine();
    MemoryHierarchy mem(cfg);
    // Pre-fill one block into the LLC: its miss costs llcLatency; a block
    // not in the LLC costs llcLatency + memLatency.
    mem.prefillLlc(0, {0x8000});
    mem.tick(0);
    DataAccessResult warm = mem.dataAccess(0, 0x1, 0x8000, false, 0);
    DataAccessResult cold = mem.dataAccess(0, 0x2, 0x20040, false, 0);
    EXPECT_EQ(warm.readyCycle, cfg.llcLatency + cfg.l1dHitLatency);
    EXPECT_EQ(cold.readyCycle,
              cfg.llcLatency + cfg.memLatency + cfg.l1dHitLatency);
}

TEST(Hierarchy, MshrMergeSameBlock)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult a = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.tick(1);
    DataAccessResult b = mem.dataAccess(0, 0x2, 0x40020, false, 1);
    EXPECT_EQ(a.kind, DataAccessKind::Miss);
    EXPECT_EQ(b.kind, DataAccessKind::Miss);
    // The merged access completes with the original fill.
    EXPECT_EQ(b.readyCycle, a.readyCycle);
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, MshrQuotaExhaustion)
{
    HierarchyConfig cfg = fullMachine();
    cfg.mshrQuota = {2, 2};
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x100000, false, 0).kind,
              DataAccessKind::Miss);
    mem.tick(1);
    EXPECT_EQ(mem.dataAccess(0, 0x2, 0x200000, false, 1).kind,
              DataAccessKind::Miss);
    mem.tick(2);
    EXPECT_EQ(mem.dataAccess(0, 0x3, 0x300000, false, 2).kind,
              DataAccessKind::MshrFull);
    EXPECT_EQ(mem.mshrFullStalls(0), 1u);
}

TEST(Hierarchy, MshrQuotaPerThread)
{
    HierarchyConfig cfg = fullMachine();
    cfg.llcWayPartition = {8, 8};
    cfg.mshrQuota = {1, 1};
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x100000, false, 0).kind,
              DataAccessKind::Miss);
    // Thread 1 has its own quota even with a shared L1-D.
    mem.tick(1);
    EXPECT_EQ(mem.dataAccess(1, 0x2, 0x10200000, false, 1).kind,
              DataAccessKind::Miss);
    mem.tick(2);
    EXPECT_EQ(mem.dataAccess(0, 0x3, 0x300000, false, 2).kind,
              DataAccessKind::MshrFull);
}

TEST(Hierarchy, FillInstallsIntoL1)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    Cycle fill = r.readyCycle;
    mem.tick(fill + 1);
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
    DataAccessResult r2 = mem.dataAccess(0, 0x1, 0x40000, false, fill + 1);
    EXPECT_EQ(r2.kind, DataAccessKind::Hit);
}

TEST(Hierarchy, BankConflictSameCycle)
{
    MemoryHierarchy mem(fullMachine());
    mem.prefillLlc(0, {0x1000, 0x1080});
    mem.tick(0);
    // 0x1000 and 0x1080 map to the same bank (block addrs 0x40, 0x42).
    DataAccessResult a = mem.dataAccess(0, 0x1, 0x1000, false, 0);
    DataAccessResult b = mem.dataAccess(0, 0x2, 0x1080, false, 0);
    EXPECT_NE(a.kind, DataAccessKind::BankBusy);
    EXPECT_EQ(b.kind, DataAccessKind::BankBusy);
    // Different bank in the same cycle is fine.
    DataAccessResult d = mem.dataAccess(0, 0x3, 0x1040, false, 0);
    EXPECT_NE(d.kind, DataAccessKind::BankBusy);
    // Next cycle the bank is free again.
    mem.tick(1);
    EXPECT_NE(mem.dataAccess(0, 0x2, 0x1080, false, 1).kind,
              DataAccessKind::BankBusy);
}

TEST(Hierarchy, StoresCompleteImmediately)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, true, 0);
    EXPECT_EQ(r.kind, DataAccessKind::Miss);
    EXPECT_EQ(r.readyCycle, 1u); // store buffer absorbs the miss
    // A store-only miss is not a demand load for MLP purposes.
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
}

TEST(Hierarchy, LoadMergingIntoStoreMissCountsAsDemand)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x40000, true, 0); // store allocates MSHR
    mem.tick(1);
    mem.dataAccess(0, 0x2, 0x40008, false, 1); // load merges
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, MlpCountsOnlyMemoryLevelMisses)
{
    MemoryHierarchy mem(fullMachine());
    mem.prefillLlc(0, {0x9000});
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x9000, false, 0); // LLC hit: short miss
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
    mem.dataAccess(0, 0x2, 0x50040, false, 0); // memory-level miss
    EXPECT_EQ(mem.outstandingDemandMisses(0), 1u);
}

TEST(Hierarchy, PrefetchReservesDemandMshrs)
{
    HierarchyConfig cfg = fullMachine();
    cfg.prefetchEnable = true;
    cfg.mshrQuota = {4, 4};
    MemoryHierarchy mem(cfg);
    // Train a stride stream so prefetches fire on every access; space the
    // accesses so demand fills drain, leaving only prefetch MSHRs (capped
    // at quota-2) in flight.
    Cycle t = 0;
    for (int i = 0; i < 8; ++i) {
        mem.tick(t);
        mem.dataAccess(0, 0x77, 0x100000 + i * 64, false, t);
        t += 300;
    }
    // Two demand misses to fresh blocks must still find MSHRs.
    mem.tick(t);
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x900000, false, t).kind,
              DataAccessKind::Miss);
    EXPECT_EQ(mem.dataAccess(0, 0x2, 0xa00040, false, t).kind,
              DataAccessKind::Miss);
}

TEST(Hierarchy, PrivateL1dIsolation)
{
    HierarchyConfig cfg = fullMachine();
    cfg.sharedL1d = false;
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.tick(r.readyCycle + 1);
    // Thread 0 now hits; thread 1 misses in its own private L1-D.
    EXPECT_EQ(mem.dataAccess(0, 0x1, 0x40000, false, r.readyCycle + 1).kind,
              DataAccessKind::Hit);
    EXPECT_NE(mem.dataAccess(1, 0x1, 0x40000, false, r.readyCycle + 1).kind,
              DataAccessKind::Hit);
}

TEST(Hierarchy, SharedL1dCapacityContention)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.tick(r.readyCycle + 1);
    // With a shared L1-D, thread 1 hits on thread 0's block.
    EXPECT_EQ(mem.dataAccess(1, 0x1, 0x40000, false, r.readyCycle + 1).kind,
              DataAccessKind::Hit);
}

TEST(Hierarchy, InstrFetchLatencies)
{
    HierarchyConfig cfg = fullMachine();
    MemoryHierarchy mem(cfg);
    mem.prefillLlc(0, {0x2000});
    EXPECT_EQ(mem.instrFetch(0, 0x2000, 100), 100u + cfg.llcLatency);
    // Now resident in the L1-I.
    EXPECT_EQ(mem.instrFetch(0, 0x2000, 200), 200u);
    // Unprefetched code pays the full memory latency.
    EXPECT_EQ(mem.instrFetch(0, 0x90000, 300),
              300u + cfg.llcLatency + cfg.memLatency);
}

TEST(Hierarchy, LlcWayPartitionIsolation)
{
    HierarchyConfig cfg = fullMachine();
    cfg.llcWayPartition = {8, 8};
    MemoryHierarchy mem(cfg);
    // Fill thread 1's partition with one block, then thrash thread 0's
    // partition within the same LLC set; thread 1's block must survive.
    Addr t1_block = 1ull << 20;
    mem.prefillLlc(1, {t1_block});
    std::vector<Addr> thrash;
    std::uint64_t set_stride = (8ull << 20) / 16 / 64 * 64; // LLC set wrap
    for (int i = 0; i < 64; ++i)
        thrash.push_back(t1_block + i * set_stride * 16);
    mem.prefillLlc(0, thrash);
    mem.tick(0);
    DataAccessResult r = mem.dataAccess(1, 0x1, t1_block, false, 0);
    EXPECT_EQ(r.readyCycle, cfg.llcLatency + cfg.l1dHitLatency);
}

TEST(Hierarchy, StatsAndClear)
{
    HierarchyConfig cfg = fullMachine();
    cfg.prefetchEnable = true;
    MemoryHierarchy mem(cfg);
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x40000, false, 0);
    // A new stride stream has not prefetched yet: one demand access is
    // exactly one L1-D miss and one LLC miss.
    EXPECT_EQ(mem.l1dMisses(0), 1u);
    EXPECT_EQ(mem.llcMisses(0), 1u);
    EXPECT_EQ(mem.prefetchesIssued(), 0u);
    // Two more blocks at the same stride train the stream; the third
    // access prefetches prefetchDegree blocks ahead, each an LLC miss.
    mem.tick(1);
    mem.dataAccess(0, 0x1, 0x40040, false, 1);
    mem.tick(2);
    mem.dataAccess(0, 0x1, 0x40080, false, 2);
    EXPECT_EQ(mem.l1dMisses(0), 3u);
    EXPECT_EQ(mem.llcMisses(0), 3u + cfg.prefetchDegree);
    EXPECT_EQ(mem.prefetchesIssued(), cfg.prefetchDegree);
    mem.clearStats();
    EXPECT_EQ(mem.l1dMisses(0), 0u);
    EXPECT_EQ(mem.llcMisses(0), 0u);
    EXPECT_EQ(mem.prefetchesIssued(), 0u);
    // In-flight state survives a stats clear.
    EXPECT_EQ(mem.outstandingDemandMisses(0), 3u);
    // So does training: the next access on the stream merges into a
    // prefetch MSHR and prefetches again straight away.
    mem.tick(3);
    mem.dataAccess(0, 0x1, 0x400c0, false, 3);
    EXPECT_EQ(mem.l1dMisses(0), 1u);
    EXPECT_EQ(mem.prefetchesIssued(), cfg.prefetchDegree);
}

TEST(Hierarchy, ParkedRetryMatchesFullLookup)
{
    // Two identical hierarchies see the same accesses, except that the
    // parked access passes its MshrFull epoch back on `fast` only. The
    // retries must agree in outcome and counters through a BankBusy
    // cycle, an allocation by the other thread, and the fill that frees
    // an MSHR and unparks the access.
    HierarchyConfig cfg = fullMachine();
    cfg.llcWayPartition = {8, 8};
    cfg.mshrQuota = {2, 2};
    MemoryHierarchy fast(cfg), plain(cfg);
    const Addr a = 0x100000, b = 0x200000, parked = 0x300000;
    ASSERT_EQ(fast.config().l1d.banks, 2u);
    std::uint64_t epoch = 0;
    unsigned short_circuits = 0, bank_busy = 0;
    bool unparked = false;
    for (Cycle t = 0; t < 400 && !unparked; ++t) {
        fast.tick(t);
        plain.tick(t);
        auto both = [&](ThreadId tid, Addr addr) {
            DataAccessResult f = fast.dataAccess(tid, 0x9, addr, false, t);
            DataAccessResult p = plain.dataAccess(tid, 0x9, addr, false, t);
            EXPECT_EQ(f.kind, p.kind) << "cycle " << t;
            EXPECT_EQ(f.readyCycle, p.readyCycle) << "cycle " << t;
        };
        if (t == 0)
            both(0, a); // thread 0's quota: a and b
        if (t == 1)
            both(0, b);
        if (t == 20)
            both(0, a); // merge into a: takes parked's bank this cycle
        if (t == 40)
            both(1, 0x10400040); // thread 1 allocates: a new epoch
        if (t < 2)
            continue;

        DataAccessResult f =
            fast.dataAccess(0, 0x9, parked, false, t, epoch);
        DataAccessResult p = plain.dataAccess(0, 0x9, parked, false, t);
        ASSERT_EQ(f.kind, p.kind) << "cycle " << t;
        EXPECT_EQ(f.readyCycle, p.readyCycle) << "cycle " << t;
        if (f.kind == DataAccessKind::MshrFull) {
            short_circuits += f.mshrEpoch == epoch;
            epoch = f.mshrEpoch;
        }
        bank_busy += f.kind == DataAccessKind::BankBusy;
        unparked = f.kind == DataAccessKind::Miss;
        EXPECT_EQ(fast.mshrFullStalls(0), plain.mshrFullStalls(0));
        EXPECT_EQ(fast.l1dMisses(0), plain.l1dMisses(0));
        EXPECT_EQ(fast.l1dHits(0), plain.l1dHits(0));
        EXPECT_EQ(fast.l1dCache(0).misses(0), plain.l1dCache(0).misses(0));
        EXPECT_EQ(fast.l1dCache(0).hits(0), plain.l1dCache(0).hits(0));
    }
    EXPECT_TRUE(unparked);
    EXPECT_EQ(bank_busy, 1u);
    EXPECT_GT(short_circuits, 100u);
    EXPECT_GT(fast.mshrFullStalls(0), short_circuits);
    EXPECT_EQ(fast.l1dMisses(1), plain.l1dMisses(1));
}

TEST(Hierarchy, Reset)
{
    MemoryHierarchy mem(fullMachine());
    mem.tick(0);
    mem.dataAccess(0, 0x1, 0x40000, false, 0);
    mem.reset();
    EXPECT_EQ(mem.outstandingDemandMisses(0), 0u);
    EXPECT_EQ(mem.l1dMisses(0), 0u);
}

} // namespace
} // namespace stretch
