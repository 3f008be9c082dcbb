/**
 * @file
 * Unit tests for the util substrate: deterministic RNG, Zipf sampling,
 * hierarchical seed derivation, and the thread pool.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/seed_stream.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace stretch
{
namespace
{

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0u);
}

TEST(Rng, StreamsDecorrelated)
{
    Rng a(7, 0), b(7, 1);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.between(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, LognormalMean)
{
    Rng rng(17);
    double sigma = 0.5;
    double mean_target = 10.0;
    double mu = std::log(mean_target) - sigma * sigma / 2;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, mean_target, 0.25);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Zipf, MostPopularItemDominates)
{
    Rng rng(23);
    ZipfSampler zipf(1000, 0.9);
    std::vector<unsigned> counts(1000, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    // Rank 0 must be the clear leader and the tail must still be touched.
    EXPECT_GT(counts[0], counts[100]);
    EXPECT_GT(counts[0], 50000 / 100);
    unsigned tail_hits = 0;
    for (std::size_t i = 500; i < 1000; ++i)
        tail_hits += counts[i];
    EXPECT_GT(tail_hits, 0u);
}

TEST(Zipf, InRange)
{
    Rng rng(29);
    ZipfSampler zipf(64, 0.5);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(zipf.sample(rng), 64u);
}

TEST(Zipf, LargeItemCountUsesApproximateZeta)
{
    Rng rng(31);
    ZipfSampler zipf(1 << 20, 0.8);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(zipf.sample(rng), 1u << 20);
}

TEST(Types, BlockAddr)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockAddr(130), 2u);
}

TEST(Types, NsToCycles)
{
    // 75 ns at 2.5 GHz = 187.5 -> rounds up to 188 (Table II memory).
    EXPECT_EQ(nsToCycles(75.0), 188u);
    EXPECT_EQ(nsToCycles(0.4), 1u);
    EXPECT_EQ(nsToCycles(0.0), 0u);
}

TEST(MixSeed, Distinct)
{
    EXPECT_NE(mixSeed(1, 2), mixSeed(2, 1));
    EXPECT_NE(mixSeed(1, 2), mixSeed(1, 3));
    EXPECT_EQ(mixSeed(5, 9), mixSeed(5, 9));
}

TEST(DeriveSeed, TwoArgFormIsMixSeedCompatible)
{
    // Every historical mixSeed(seed, i) call site must keep its stream.
    EXPECT_EQ(util::deriveSeed(42, 7), mixSeed(42, 7));
    EXPECT_EQ(util::deriveSeed(0, 0), mixSeed(0, 0));
}

TEST(DeriveSeed, RightFoldPrependsHierarchyLevels)
{
    // A new outer level (cluster seed -> node stream -> node index)
    // wraps the tail without disturbing streams derived from it.
    EXPECT_EQ(util::deriveSeed(1, 2, 3), mixSeed(1, mixSeed(2, 3)));
    EXPECT_EQ(util::deriveSeed(1, 2, 3, 4),
              mixSeed(1, util::deriveSeed(2, 3, 4)));
}

TEST(DeriveSeed, DistinctPathsDecorrelate)
{
    EXPECT_NE(util::deriveSeed(1, 2, 3), util::deriveSeed(1, 3, 2));
    EXPECT_NE(util::deriveSeed(1, 2, 3), util::deriveSeed(2, 2, 3));
    // Path length matters too: (a, b) and (a, b, 0) are different
    // streams.
    EXPECT_NE(util::deriveSeed(1, 2), util::deriveSeed(1, 2, 0));
    // Usable at compile time (node streams are constexpr tags).
    static_assert(util::deriveSeed(0x4e0d, 1, 2) ==
                      mixSeed(0x4e0d, mixSeed(1, 2)),
                  "deriveSeed must fold right");
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> touched(64);
    for (auto &t : touched)
        t = 0;
    ThreadPool::parallelFor(4, touched.size(),
                            [&](std::size_t i) { ++touched[i]; });
    for (auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, WaiterDrainsTasksSubmittedWhileWaiting)
{
    // Regression: submit() used to notify only the workers' cv, never
    // idleCv — so a caller already blocked in wait() slept through tasks
    // submitted after it started waiting. With a single worker pinned
    // inside task A, the nested submit of B can only be drained by the
    // waiting caller; without the fix this deadlocks.
    ThreadPool pool(1);
    std::atomic<bool> released{false};
    pool.submit([&] {
        // Give the caller time to enter wait() and block on idleCv.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        pool.submit([&] { released = true; });
        // Pin the sole worker until the caller has drained B.
        while (!released.load())
            std::this_thread::yield();
    });
    pool.wait();
    EXPECT_TRUE(released.load());
}

TEST(ThreadPool, WaitRethrowsFirstTaskError)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, SubmitAcceptsMoveOnlyCallables)
{
    // Regression: the queue used to hold std::function, whose
    // copyability requirement rejected unique_ptr-capturing lambdas at
    // compile time. MoveOnlyTask lifts that.
    ThreadPool pool(2);
    std::atomic<int> sum{0};
    auto payload = std::make_unique<int>(41);
    pool.submit([p = std::move(payload), &sum] { sum += *p + 1; });
    // A large capture exercises the heap-fallback path of MoveOnlyTask.
    std::array<std::uint64_t, 32> big{};
    big.fill(1);
    auto heapPayload = std::make_unique<int>(58);
    pool.submit([p = std::move(heapPayload), big, &sum] {
        sum += *p + static_cast<int>(big[7]) + 1;
    });
    pool.wait();
    EXPECT_EQ(sum.load(), 42 + 60);
}

TEST(ThreadPool, MoveOnlyTaskMoveTransfersOwnership)
{
    int hits = 0;
    auto p = std::make_unique<int>(7);
    MoveOnlyTask a([p = std::move(p), &hits] { hits += *p; });
    MoveOnlyTask b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(hits, 7);
    MoveOnlyTask c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(hits, 14);
}

} // namespace
} // namespace stretch
