/**
 * @file
 * stats::StreamingTail / stats::TailRecorder: quantile accuracy against
 * the exact sort, merge algebra, and the exact-mode escape hatch.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "stats/streaming_tail.h"
#include "stats/summary.h"
#include "util/rng.h"

namespace stretch::stats
{
namespace
{

/** Exact ceil-rank order statistic: the smallest sample with at least
 *  pct% of the mass at or below it — the quantity StreamingTail
 *  estimates (type-7 interpolation answers a slightly different
 *  question, so the bound is stated against this one). */
double
exactCeilRank(std::vector<double> sorted, double pct)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
    rank = std::max<std::size_t>(1, std::min(rank, sorted.size()));
    return sorted[rank - 1];
}

/** Width of the histogram bin holding @p v. */
double
binWidthAt(double v)
{
    const std::uint32_t k = StreamingTail::binIndex(v);
    return StreamingTail::binLowerEdge(k + 1) -
           StreamingTail::binLowerEdge(k);
}

void
expectQuantilesWithinOneBin(const std::vector<double> &samples)
{
    StreamingTail tail;
    for (double v : samples)
        tail.record(v);
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    for (double pct : {0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9,
                       100.0}) {
        const double exact = exactCeilRank(sorted, pct);
        const double est = tail.percentile(pct);
        // The estimate lives in the same log-scale bin as the exact
        // order statistic, so it can be off by at most one bin width
        // (2^-7 relative, ~0.8%).
        EXPECT_NEAR(est, exact, binWidthAt(exact))
            << "p" << pct << " drifted more than one bin";
        EXPECT_LE(std::abs(est - exact), 0.01 * exact + 1e-12)
            << "p" << pct << " relative error above 1%";
    }
    EXPECT_EQ(tail.count(), samples.size());
    EXPECT_DOUBLE_EQ(tail.min(), sorted.front());
    EXPECT_DOUBLE_EQ(tail.max(), sorted.back());
}

TEST(StreamingTail, LognormalQuantilesWithinOneBin)
{
    Rng rng(7, 0x7a11);
    std::vector<double> samples;
    samples.reserve(50000);
    for (int i = 0; i < 50000; ++i)
        samples.push_back(rng.lognormal(0.5, 1.0));
    expectQuantilesWithinOneBin(samples);

    // A narrower, shifted body (the request simulator's latency shape).
    Rng narrow(37);
    samples.clear();
    for (int i = 0; i < 100000; ++i)
        samples.push_back(narrow.lognormal(2.0, 0.8));
    expectQuantilesWithinOneBin(samples);
}

TEST(StreamingTail, ParetoQuantilesWithinOneBin)
{
    // Heavy tail: Pareto(xm = 0.1, alpha = 1.5) spans several decades,
    // exercising many exponent ranges of the histogram.
    Rng rng(11, 0x9a2e);
    std::vector<double> samples;
    samples.reserve(50000);
    for (int i = 0; i < 50000; ++i) {
        double u = rng.uniform();
        if (u <= 0.0)
            u = 0x1.0p-53;
        samples.push_back(0.1 * std::pow(u, -1.0 / 1.5));
    }
    expectQuantilesWithinOneBin(samples);
}

TEST(StreamingTail, BinIndexIsMonotoneAndInvertible)
{
    Rng rng(3, 0xb1d5);
    double prev = 0.0;
    for (int i = 0; i < 2000; ++i) {
        double v = rng.lognormal(0.0, 3.0); // spans many decades
        std::uint32_t k = StreamingTail::binIndex(v);
        // The value lies inside [lowerEdge(k), lowerEdge(k+1)).
        EXPECT_GE(v, StreamingTail::binLowerEdge(k));
        EXPECT_LT(v, StreamingTail::binLowerEdge(k + 1));
        if (prev > 0.0 && prev < v) {
            EXPECT_LE(StreamingTail::binIndex(prev), k)
                << "bin index must be monotone in the value";
        }
        prev = v;
    }
    // Zeros, subnormals and negatives collapse into the first bin, not
    // UB.
    EXPECT_EQ(StreamingTail::binIndex(0.0), 0u);
    EXPECT_EQ(StreamingTail::binIndex(1e-320), 0u);
    EXPECT_EQ(StreamingTail::binIndex(-5.0), 0u);
}

TEST(StreamingTail, MergeIsAssociativeAndLossless)
{
    Rng rng(19, 0x3e6e);
    StreamingTail a, b, c;
    std::vector<double> all;
    for (int i = 0; i < 3000; ++i) {
        double v = rng.lognormal(0.0, 1.2);
        all.push_back(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    }
    StreamingTail left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    StreamingTail bc = b; // a + (b + c)
    bc.merge(c);
    StreamingTail right = a;
    right.merge(bc);
    StreamingTail whole;
    for (double v : all)
        whole.record(v);
    EXPECT_EQ(left.count(), all.size());
    EXPECT_EQ(right.count(), all.size());
    EXPECT_DOUBLE_EQ(left.min(), right.min());
    EXPECT_DOUBLE_EQ(left.max(), right.max());
    // Bin contents are integer counters, so every quantile agrees
    // exactly across groupings — and with the unmerged reference.
    for (double pct : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        EXPECT_DOUBLE_EQ(left.percentile(pct), right.percentile(pct));
        EXPECT_DOUBLE_EQ(left.percentile(pct), whole.percentile(pct));
    }
    // Sums reassociate, so the means agree to rounding only.
    EXPECT_NEAR(left.mean(), right.mean(), 1e-12 * std::abs(left.mean()));
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9 * std::abs(left.mean()));
}

TEST(StreamingTail, MergeIntoEmptyAndFromEmpty)
{
    StreamingTail a;
    StreamingTail b;
    b.record(2.5);
    b.record(7.0);
    a.merge(b); // empty += non-empty adopts wholesale
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.min(), 2.5);
    EXPECT_DOUBLE_EQ(a.max(), 7.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.75);
    StreamingTail empty;
    a.merge(empty); // += empty is a no-op
    EXPECT_EQ(a.count(), 2u);
}

TEST(StreamingTail, SnapshotOfEmptyIsAllZero)
{
    // The metric registry snapshots whatever tails exist at report
    // time, including ones nothing recorded into — the empty summary
    // must be well-defined zeros, not UB from an empty bin walk.
    StreamingTail empty;
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_DOUBLE_EQ(empty.min(), 0.0);
    EXPECT_DOUBLE_EQ(empty.max(), 0.0);
    const ViolinSummary s = empty.summarize();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.median, 0.0);
    EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(StreamingTail, EmptyIsATwoSidedMergeIdentity)
{
    Rng rng(31, 0x1d31);
    StreamingTail ref;
    for (int i = 0; i < 4000; ++i)
        ref.record(rng.lognormal(0.2, 1.1));

    // x + 0 and 0 + x both reproduce x exactly, quantiles included.
    StreamingTail right = ref;
    right.merge(StreamingTail{});
    StreamingTail left;
    left.merge(ref);
    for (StreamingTail *t : {&right, &left}) {
        EXPECT_EQ(t->count(), ref.count());
        EXPECT_DOUBLE_EQ(t->min(), ref.min());
        EXPECT_DOUBLE_EQ(t->max(), ref.max());
        EXPECT_DOUBLE_EQ(t->mean(), ref.mean());
        for (double pct : {10.0, 50.0, 95.0, 99.0, 99.9})
            EXPECT_DOUBLE_EQ(t->percentile(pct), ref.percentile(pct));
    }

    // And 0 + 0 stays the identity.
    StreamingTail zero;
    zero.merge(StreamingTail{});
    EXPECT_EQ(zero.count(), 0u);
}

TEST(StreamingTail, QuantilesSurviveMergeOfMergesWithIdentities)
{
    // Build ((a + 0) + (0 + b)) + (c + 0) and compare against the flat
    // recording — interleaved identity elements must not disturb any
    // quantile (bin counters add losslessly; empties add nothing).
    Rng rng(37, 0x9e55);
    StreamingTail a, b, c, whole;
    for (int i = 0; i < 6000; ++i) {
        double v = rng.exponential(2.0);
        whole.record(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
    }
    StreamingTail ab = a;
    ab.merge(StreamingTail{}); // a + 0
    StreamingTail zb;
    zb.merge(b); // 0 + b
    ab.merge(zb);
    StreamingTail cz = c;
    cz.merge(StreamingTail{}); // c + 0
    ab.merge(cz);
    EXPECT_EQ(ab.count(), whole.count());
    EXPECT_DOUBLE_EQ(ab.min(), whole.min());
    EXPECT_DOUBLE_EQ(ab.max(), whole.max());
    for (double pct : {25.0, 50.0, 90.0, 99.0, 99.9})
        EXPECT_DOUBLE_EQ(ab.percentile(pct), whole.percentile(pct));
}

TEST(TailRecorder, MergeIntoAbsorbsBothModesIdentically)
{
    // mergeInto is how the dispatcher folds its recorders into the
    // metric registry's histograms: exact recorders re-record sample by
    // sample, streaming recorders merge bins — either way the target
    // histogram must equal direct recording of the same values.
    Rng rng(41, 0xab5b);
    std::vector<double> values;
    TailRecorder exact(/*exact=*/true);
    TailRecorder streaming(/*exact=*/false);
    for (int i = 0; i < 3000; ++i) {
        double v = rng.lognormal(0.1, 0.8);
        values.push_back(v);
        exact.record(v);
        streaming.record(v);
    }
    StreamingTail direct;
    for (double v : values)
        direct.record(v);

    StreamingTail fromExact, fromStreaming;
    exact.mergeInto(fromExact);
    streaming.mergeInto(fromStreaming);
    for (StreamingTail *t : {&fromExact, &fromStreaming}) {
        EXPECT_EQ(t->count(), direct.count());
        EXPECT_DOUBLE_EQ(t->min(), direct.min());
        EXPECT_DOUBLE_EQ(t->max(), direct.max());
        for (double pct : {50.0, 95.0, 99.0})
            EXPECT_DOUBLE_EQ(t->percentile(pct), direct.percentile(pct));
    }

    // An empty recorder of either mode contributes nothing.
    StreamingTail target;
    TailRecorder emptyExact(/*exact=*/true);
    TailRecorder emptyStreaming(/*exact=*/false);
    emptyExact.mergeInto(target);
    emptyStreaming.mergeInto(target);
    EXPECT_EQ(target.count(), 0u);
}

TEST(TailRecorder, ExactModeMatchesSortBasedSummaryBitForBit)
{
    Rng rng(23, 0xe8a);
    std::vector<double> samples;
    TailRecorder rec(/*exact=*/true);
    for (int i = 0; i < 5000; ++i) {
        double v = rng.lognormal(0.3, 0.9);
        samples.push_back(v);
        rec.record(v);
    }
    const ViolinSummary viaSort = summarize(samples);
    const ViolinSummary viaRec = rec.summarize();
    EXPECT_EQ(viaRec.count, viaSort.count);
    EXPECT_EQ(viaRec.min, viaSort.min);
    EXPECT_EQ(viaRec.q1, viaSort.q1);
    EXPECT_EQ(viaRec.median, viaSort.median);
    EXPECT_EQ(viaRec.q3, viaSort.q3);
    EXPECT_EQ(viaRec.p95, viaSort.p95);
    EXPECT_EQ(viaRec.p99, viaSort.p99);
    EXPECT_EQ(viaRec.p999, viaSort.p999);
    EXPECT_EQ(viaRec.max, viaSort.max);
    EXPECT_EQ(viaRec.mean, viaSort.mean);
    EXPECT_EQ(rec.percentile(97.0), percentile(samples, 97.0));
}

TEST(TailRecorder, StreamingModeTracksExactWithinOneBin)
{
    Rng rng(29, 0x5e7);
    TailRecorder stream(/*exact=*/false);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        double v = rng.exponential(3.0);
        samples.push_back(v);
        stream.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double pct : {50.0, 95.0, 99.0}) {
        double exact = exactCeilRank(samples, pct);
        EXPECT_NEAR(stream.percentile(pct), exact, binWidthAt(exact));
    }
}

TEST(TailRecorder, MergeRespectsMode)
{
    TailRecorder a(/*exact=*/true);
    TailRecorder b(/*exact=*/true);
    a.record(1.0);
    b.record(3.0);
    b.record(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.percentile(100.0), 5.0);
    TailRecorder s1(/*exact=*/false);
    TailRecorder s2(/*exact=*/false);
    s1.record(2.0);
    s2.record(4.0);
    s1.merge(s2);
    EXPECT_EQ(s1.count(), 2u);
}

} // namespace
} // namespace stretch::stats
