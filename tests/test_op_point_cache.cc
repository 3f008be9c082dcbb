/**
 * @file
 * OperatingPointCache tests: repeat measurements of identical
 * configurations are cache hits (the fig15-style bench speedup), key
 * sensitivity, and runFleet's use of the memo.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include "sim/fleet.h"
#include "sim/op_point_cache.h"

namespace stretch::sim
{
namespace
{

/** Small-but-real colocation config so cache tests stay fast. */
RunConfig
smallConfig()
{
    RunConfig cfg;
    cfg.workload0 = "web_search";
    cfg.workload1 = "zeusmp";
    cfg.samples = 2;
    cfg.warmupOps = 2000;
    cfg.measureOps = 5000;
    return cfg;
}

TEST(OperatingPointCache, SecondMeasurementIsAHit)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();

    RunConfig cfg = smallConfig();
    const RunResult &first = cache.measure(cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    const RunResult &second = cache.measure(cfg);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    // Same memoised entry, not merely an equal value.
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(first.totalCycles, run(cfg).totalCycles); // matches a real run
}

TEST(OperatingPointCache, KeySeparatesResultChangingFields)
{
    RunConfig a = smallConfig();
    RunConfig b = a;
    EXPECT_EQ(OperatingPointCache::key(a), OperatingPointCache::key(b));

    b.seed = a.seed + 1;
    EXPECT_NE(OperatingPointCache::key(a), OperatingPointCache::key(b));

    b = a;
    b.robEntries = 128;
    EXPECT_NE(OperatingPointCache::key(a), OperatingPointCache::key(b));

    b = a;
    b.warmupCycles = a.warmupCycles + 1;
    EXPECT_NE(OperatingPointCache::key(a), OperatingPointCache::key(b));

    // Sample-level parallelism is bit-identical by construction, so it
    // must share the entry.
    b = a;
    b.parallelism = 8;
    EXPECT_EQ(OperatingPointCache::key(a), OperatingPointCache::key(b));
}

TEST(OperatingPointCache, RunFleetSkipsRemeasuringIdenticalSlots)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();

    FleetConfig fleet = homogeneousFleet(2, smallConfig());
    fleet.requests = 500;
    fleet.control.kind = ModePolicyKind::SlackDriven;
    fleet.control.monitor.qosTarget = 1.0;

    FleetResult first = runFleet(fleet);
    std::uint64_t misses_after_first = cache.misses();
    // 2 cores x (3 modes + throttled point), all distinct seeds.
    EXPECT_EQ(misses_after_first, 8u);

    // The second identical fleet re-measures nothing — the satellite
    // acceptance: a repeat measurement of an identical slot is a hit.
    FleetResult second = runFleet(fleet);
    EXPECT_EQ(cache.misses(), misses_after_first);
    EXPECT_GE(cache.hits(), 8u);

    // Cached operating points are bit-identical to fresh ones.
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(first.modeRates[c].baseline, second.modeRates[c].baseline);
        EXPECT_EQ(first.modeRates[c].qmode, second.modeRates[c].qmode);
        EXPECT_EQ(first.modeRates[c].throttledLs,
                  second.modeRates[c].throttledLs);
    }
    EXPECT_EQ(first.dispatch.latencyMs.p99, second.dispatch.latencyMs.p99);

    // A fresh measurement after clearing the cache is bit-identical too.
    cache.clear();
    FleetResult third = runFleet(fleet);
    EXPECT_EQ(cache.misses(), misses_after_first);
    EXPECT_EQ(third.modeRates[0].baseline, first.modeRates[0].baseline);
    EXPECT_EQ(third.dispatch.latencyMs.p99, first.dispatch.latencyMs.p99);
}

TEST(OperatingPointCache, DiskRoundTripIsBitIdentical)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();

    RunConfig cfg = smallConfig();
    RunResult measured = cache.measure(cfg); // copy before clear()
    RunConfig other = smallConfig();
    other.seed = 7;
    cache.measure(other);

    std::string path = ::testing::TempDir() + "op_point_cache_rt.txt";
    ASSERT_TRUE(cache.saveTo(path));

    // Reload into an empty cache: both entries come back, and a repeat
    // measurement is a hit with a bit-identical result.
    cache.clear();
    CacheLoadOutcome loaded = cache.loadFrom(path);
    EXPECT_EQ(loaded.status, CacheLoadOutcome::Status::Loaded);
    EXPECT_EQ(loaded.added, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.contains(cfg));
    const RunResult &reloaded = cache.measure(cfg);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(reloaded.uipc[0], measured.uipc[0]); // bit-identical
    EXPECT_EQ(reloaded.uipc[1], measured.uipc[1]);
    EXPECT_EQ(reloaded.totalCycles, measured.totalCycles);
    EXPECT_EQ(reloaded.stats[0].committedOps, measured.stats[0].committedOps);
    EXPECT_EQ(reloaded.stats[1].mlpCycles, measured.stats[1].mlpCycles);
    EXPECT_EQ(reloaded.llcMissCount, measured.llcMissCount);

    // Existing in-process entries win over the file on a merge: the
    // load succeeds but adds nothing.
    CacheLoadOutcome merged = cache.loadFrom(path);
    EXPECT_EQ(merged.status, CacheLoadOutcome::Status::Loaded);
    EXPECT_EQ(merged.added, 0u);
    EXPECT_EQ(cache.size(), 2u);
    std::remove(path.c_str());
}

TEST(OperatingPointCache, CorruptOrStaleFileLoadsNothing)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();
    cache.measure(smallConfig());

    std::string good = ::testing::TempDir() + "op_point_cache_good.txt";
    ASSERT_TRUE(cache.saveTo(good));
    cache.clear();

    // Missing file: nothing loads, fresh measurement is the fallback —
    // and the outcome distinguishes "no file" from a rejected file.
    CacheLoadOutcome absent = cache.loadFrom(good + ".does-not-exist");
    EXPECT_EQ(absent.status, CacheLoadOutcome::Status::FileAbsent);
    EXPECT_EQ(absent.added, 0u);

    // Stale format version: nothing loads.
    std::string stale = ::testing::TempDir() + "op_point_cache_stale.txt";
    {
        std::ifstream in(good);
        std::ofstream out(stale, std::ios::trunc);
        std::string line;
        std::getline(in, line);
        out << "stretch-oppoint-cache 99999\n";
        while (std::getline(in, line))
            out << line << '\n';
    }
    CacheLoadOutcome staleOut = cache.loadFrom(stale);
    EXPECT_EQ(staleOut.status, CacheLoadOutcome::Status::BadFormat);
    EXPECT_EQ(staleOut.added, 0u);

    // Truncated body: the whole load is discarded, not half-admitted.
    std::string corrupt = ::testing::TempDir() + "op_point_cache_bad.txt";
    {
        std::ifstream in(good);
        std::ofstream out(corrupt, std::ios::trunc);
        std::string line;
        for (int i = 0; i < 3 && std::getline(in, line); ++i)
            out << line << '\n';
    }
    CacheLoadOutcome corruptOut = cache.loadFrom(corrupt);
    EXPECT_EQ(corruptOut.status, CacheLoadOutcome::Status::BadFormat);
    EXPECT_EQ(corruptOut.added, 0u);
    EXPECT_EQ(cache.size(), 0u);

    // The untouched file still loads fine afterwards.
    CacheLoadOutcome goodOut = cache.loadFrom(good);
    EXPECT_EQ(goodOut.status, CacheLoadOutcome::Status::Loaded);
    EXPECT_EQ(goodOut.added, 1u);
    std::remove(good.c_str());
    std::remove(stale.c_str());
    std::remove(corrupt.c_str());
}

TEST(OperatingPointCache, ConcurrentMissesOfOneKeySimulateOnce)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();

    // All threads miss the same key at once. Single-flight: exactly one
    // simulates (the miss), the rest block on its result (hits) — and
    // hits + misses == calls, the exactness the satellite demands.
    const unsigned callers = 8;
    RunConfig cfg = smallConfig();
    std::atomic<unsigned> started{0};
    std::vector<const RunResult *> results(callers, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (unsigned i = 0; i < callers; ++i) {
        threads.emplace_back([&, i] {
            // Rendezvous so the misses really race.
            ++started;
            while (started.load() < callers)
                std::this_thread::yield();
            results[i] = &cache.measure(cfg);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), callers - 1);
    EXPECT_EQ(cache.hits() + cache.misses(), callers);
    EXPECT_EQ(cache.size(), 1u);
    // Everyone got the same memoised entry, not merely equal values.
    for (unsigned i = 1; i < callers; ++i)
        EXPECT_EQ(results[0], results[i]);

    // Distinct keys do not serialise behind one another: both miss.
    cache.clear();
    RunConfig other = smallConfig();
    other.seed = cfg.seed + 1;
    std::thread a([&] { cache.measure(cfg); });
    std::thread b([&] { cache.measure(other); });
    a.join();
    b.join();
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(OperatingPointCache, ConcurrentMeasureAndSaveToKeepTheCacheCoherent)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();

    // Hammer: workers race repeat measurements of a small key pool
    // (every key hit by every worker, so misses contend with hits)
    // while a writer continuously snapshots the cache to disk. The
    // cache must stay exact — hits + misses == calls — and every
    // snapshot taken mid-churn must be a loadable, complete file.
    const unsigned workers = 4;
    const unsigned rounds = 8;
    const unsigned keys = 6;
    std::vector<RunConfig> pool;
    for (unsigned k = 0; k < keys; ++k) {
        RunConfig cfg = smallConfig();
        cfg.seed = 1000 + k;
        pool.push_back(cfg);
    }

    std::string path = ::testing::TempDir() + "op_point_cache_hammer.txt";
    std::atomic<unsigned> started{0};
    std::atomic<bool> done{false};
    std::atomic<unsigned> saves{0};
    std::thread writer([&] {
        while (started.load() < workers)
            std::this_thread::yield();
        while (!done.load()) {
            ASSERT_TRUE(cache.saveTo(path));
            ++saves;
        }
        ASSERT_TRUE(cache.saveTo(path)); // one full-cache snapshot
        ++saves;
    });

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            ++started;
            while (started.load() < workers)
                std::this_thread::yield();
            for (unsigned r = 0; r < rounds; ++r) {
                // Stagger the walk so threads collide on different keys.
                for (unsigned k = 0; k < keys; ++k)
                    cache.measure(pool[(w + r + k) % keys]);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    done.store(true);
    writer.join();

    // Exactness under contention: every call was a hit or a miss, every
    // distinct key simulated exactly once.
    EXPECT_EQ(cache.misses(), keys);
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(workers) * rounds * keys);
    EXPECT_EQ(cache.size(), keys);
    EXPECT_GE(saves.load(), 1u);

    // The final snapshot round-trips the whole pool bit-identically.
    std::vector<RunResult> measured;
    for (const RunConfig &cfg : pool)
        measured.push_back(cache.measure(cfg));
    cache.clear();
    CacheLoadOutcome loaded = cache.loadFrom(path);
    EXPECT_EQ(loaded.status, CacheLoadOutcome::Status::Loaded);
    EXPECT_EQ(loaded.added, keys);
    for (unsigned k = 0; k < keys; ++k) {
        const RunResult &reloaded = cache.measure(pool[k]);
        EXPECT_EQ(reloaded.totalCycles, measured[k].totalCycles);
        EXPECT_EQ(reloaded.uipc[0], measured[k].uipc[0]);
        EXPECT_EQ(reloaded.uipc[1], measured[k].uipc[1]);
    }
    EXPECT_EQ(cache.misses(), 0u);
    std::remove(path.c_str());
}

TEST(OperatingPointCache, ClearResetsEverything)
{
    OperatingPointCache &cache = OperatingPointCache::instance();
    cache.clear();
    cache.measure(smallConfig());
    EXPECT_GT(cache.size(), 0u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
}

} // namespace
} // namespace stretch::sim
