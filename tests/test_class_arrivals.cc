/**
 * @file
 * Per-class arrival-process tests: the superposition substrate (rate
 * split, determinism, per-class burstiness CV) and its dispatch-level
 * behaviour (diurnal phase shift visible in per-class timelines, the
 * trace-normalised default arrival rate), and the request source's
 * block draws against one-at-a-time draws.
 */

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "queueing/arrivals.h"
#include "sim/fleet.h"
#include "sim/traffic.h"
#include "workload/service_class.h"

namespace stretch
{
namespace
{

using queueing::ArrivalProcess;
using queueing::ClassArrivalSuperposition;
using TaggedArrival = queueing::EventEngine::Arrival;

/** Per-class arrival times reconstructed from a merged stream. */
std::vector<std::vector<double>>
collectArrivals(ClassArrivalSuperposition &sup, std::size_t classes,
                std::size_t draws)
{
    std::vector<std::vector<double>> times(classes);
    double clock = 0.0;
    for (std::size_t i = 0; i < draws; ++i) {
        TaggedArrival a = sup.next();
        EXPECT_GE(a.gapMs, 0.0);
        EXPECT_LT(a.classId, classes);
        clock += a.gapMs;
        times[a.classId % classes].push_back(clock);
    }
    return times;
}

/** Coefficient of variation of the inter-arrival gaps of one class. */
double
interArrivalCv(const std::vector<double> &times)
{
    std::vector<double> gaps;
    gaps.reserve(times.size());
    for (std::size_t i = 1; i < times.size(); ++i)
        gaps.push_back(times[i] - times[i - 1]);
    double mean = 0.0;
    for (double g : gaps)
        mean += g;
    mean /= static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    return std::sqrt(var) / mean;
}

TEST(ClassArrivalSuperposition, SplitsTheRateByShareAndStaysDeterministic)
{
    auto make = [] {
        std::vector<ClassArrivalSuperposition::Stream> streams;
        streams.push_back({ArrivalProcess::poisson(3.0), Rng(1, 11)});
        streams.push_back({ArrivalProcess::poisson(1.0), Rng(1, 22)});
        return ClassArrivalSuperposition(std::move(streams));
    };

    ClassArrivalSuperposition a = make();
    auto times = collectArrivals(a, 2, 100000);

    // 3:1 rate split → ~75% of merged arrivals belong to class 0.
    double frac0 = static_cast<double>(times[0].size()) / 100000.0;
    EXPECT_NEAR(frac0, 0.75, 0.02);

    // The merged stream is a pure function of the component streams:
    // two same-construction instances replay bit-identical streams.
    ClassArrivalSuperposition c = make();
    ClassArrivalSuperposition d = make();
    for (int i = 0; i < 5000; ++i) {
        TaggedArrival x = c.next();
        TaggedArrival y = d.next();
        ASSERT_EQ(x.gapMs, y.gapMs); // bit-identical
        ASSERT_EQ(x.classId, y.classId);
    }
}

TEST(ClassArrivalSuperposition, PerClassBurstinessShowsInInterArrivalCv)
{
    // Class 0 rides a Poisson process (CV = 1); class 1 an MMPP-2 with a
    // 4x burst ratio (CV well above 1). Each must keep its own shape
    // inside the superposition — the satellite acceptance statistic.
    std::vector<ClassArrivalSuperposition::Stream> streams;
    streams.push_back({ArrivalProcess::poisson(2.0), Rng(7, 100)});
    streams.push_back(
        {ArrivalProcess::mmpp(2.0, 4.0, 200.0, 40.0), Rng(7, 200)});
    ClassArrivalSuperposition sup(std::move(streams));

    auto times = collectArrivals(sup, 2, 200000);
    ASSERT_GT(times[0].size(), 10000u);
    ASSERT_GT(times[1].size(), 10000u);

    double cv_poisson = interArrivalCv(times[0]);
    double cv_bursty = interArrivalCv(times[1]);
    EXPECT_NEAR(cv_poisson, 1.0, 0.05);
    EXPECT_GT(cv_bursty, 1.25);
    EXPECT_GT(cv_bursty, cv_poisson + 0.2);
}

TEST(ServiceClassRegistry, ArrivalSharesFallBackToWeights)
{
    workloads::ServiceClassRegistry reg =
        workloads::ServiceClassRegistry::searchAnalyticsPair(5.0, 50.0);
    // Weights 1.0 and 0.5, no explicit shares.
    std::vector<double> shares = reg.arrivalShares();
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_DOUBLE_EQ(shares[0], 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(shares[1], 1.0 / 3.0);
    EXPECT_FALSE(reg.hasCustomTraffic());

    // An explicit share overrides the weight, and the vector renormalises.
    reg.classAt(1).traffic.rateShare = 1.0;
    shares = reg.arrivalShares();
    EXPECT_DOUBLE_EQ(shares[0], 0.5);
    EXPECT_DOUBLE_EQ(shares[1], 0.5);
    EXPECT_TRUE(reg.hasCustomTraffic());
}

/** Fixed-capacity two-class dispatch config (no microarch simulation). */
sim::DispatchConfig
twoClassConfig()
{
    sim::DispatchConfig cfg;
    cfg.rates = {sim::ModeRates::flat(2.0), sim::ModeRates::flat(2.0),
                 sim::ModeRates::flat(2.0), sim::ModeRates::flat(2.0)};
    cfg.policy = sim::PlacementPolicy::LeastLoaded;
    cfg.requests = 60000;
    cfg.seed = 99;

    workloads::ServiceClass a;
    a.name = "home";
    a.shape = workloads::DemandShape::Lognormal;
    a.sloMs = 20.0;
    a.weight = 1.0;
    cfg.classes.add(a);

    workloads::ServiceClass b = a;
    b.name = "abroad";
    cfg.classes.add(b);
    return cfg;
}

TEST(RequestSource, BlockDrawsEqualOneAtATimeDraws)
{
    // The source draws gaps and classless demands 256 ahead; every value
    // must equal the per-draw call on the same RNG, across block ends.
    sim::TrafficSpec bursty;
    bursty.burstRatio = 3.0;
    bursty.demandLogSigma = 0.8;
    sim::TrafficSpec tagged;
    tagged.classes =
        workloads::ServiceClassRegistry::searchAnalyticsPair(5.0, 50.0);

    for (const sim::TrafficSpec *spec : {&bursty, &tagged}) {
        const double rate = 2.0;
        sim::RequestSource source(*spec, rate, Rng(1), Rng(2), Rng(3), 4, 5);
        Rng gaps(1), tags(2), demands(3);
        ArrivalProcess process =
            spec->burstRatio > 1.0
                ? ArrivalProcess::mmpp(rate, spec->burstRatio,
                                       spec->dwellLowMs, spec->dwellHighMs)
                : ArrivalProcess::poisson(rate);
        const double sigma = spec->demandLogSigma;
        for (int i = 0; i < 600; ++i) {
            const sim::OfferedRequest got = source.next();
            EXPECT_EQ(got.gapMs, process.next(gaps)) << "draw " << i;
            if (spec->classes.empty()) {
                EXPECT_EQ(got.classId, 0u);
                EXPECT_EQ(got.demand,
                          demands.lognormal(-sigma * sigma / 2.0, sigma))
                    << "draw " << i;
            } else {
                const workloads::ClassId cls = spec->classes.sample(tags);
                EXPECT_EQ(got.classId, cls);
                EXPECT_EQ(got.demand, spec->classes.drawDemand(cls, demands))
                    << "draw " << i;
            }
        }
    }
}

TEST(PerClassDispatch, SixHourPhaseOffsetShiftsTheCompletionTimeline)
{
    // Both classes replay the same day, but "abroad" lives six time
    // zones ahead: its per-bucket completion peak must land ~6 replayed
    // hours before the home class's peak.
    sim::DispatchConfig cfg = twoClassConfig();
    cfg.trace = queueing::DiurnalTrace::youtubeCluster();
    cfg.msPerHour = 60.0;
    cfg.timelineBucketMs = cfg.msPerHour; // one bucket per replayed hour
    cfg.perClassArrivals = true;
    cfg.classes.classAt(1).traffic.phaseOffsetHours = 6.0;
    // Size the stream to roughly one replayed day at the default rate.
    cfg.requests = static_cast<std::uint64_t>(
        0.7 * 8.0 * 24.0 * cfg.msPerHour); // 70% of 4x2.0 req/ms capacity

    sim::DispatchOutcome out = sim::dispatchRequests(cfg);
    ASSERT_GE(out.timeline.size(), 20u);

    for (std::size_t b = 0; b < out.timeline.size() && b < 24; ++b)
        ASSERT_EQ(out.timeline[b].perClass.size(), 2u);

    // Circular mean phase (hours) of a class's per-bucket completion
    // histogram — robust against argmax noise on the daytime plateau.
    auto meanPhaseHours = [&](std::size_t cls) {
        double s = 0.0, c = 0.0;
        for (std::size_t b = 0; b < out.timeline.size() && b < 24; ++b) {
            auto n = static_cast<double>(
                out.timeline[b].perClass[cls].completions);
            double angle = 2.0 * 3.14159265358979323846 *
                           (static_cast<double>(b) + 0.5) / 24.0;
            s += n * std::sin(angle);
            c += n * std::cos(angle);
        }
        double hours = std::atan2(s, c) * 24.0 /
                       (2.0 * 3.14159265358979323846);
        return hours < 0.0 ? hours + 24.0 : hours;
    };

    // The abroad class experiences hour h as trace hour h+6, so its
    // wall-clock completion mass sits 6 replayed hours EARLIER than the
    // home class's (circular difference, with sampling slack).
    double shift = meanPhaseHours(0) - meanPhaseHours(1);
    if (shift < 0.0)
        shift += 24.0;
    EXPECT_NEAR(shift, 6.0, 1.0)
        << "home phase " << meanPhaseHours(0) << " h, abroad phase "
        << meanPhaseHours(1) << " h";

    // Both classes completed substantial traffic (~4k offered each).
    EXPECT_GT(out.perClass[0].completed, 3000u);
    EXPECT_GT(out.perClass[1].completed, 3000u);
}

TEST(PerClassDispatch, SharedAndPerClassStreamsAgreeOnOfferedRate)
{
    // Same registry, same default rate: the per-class superposition must
    // offer the same aggregate rate as the shared stream (completions
    // and throughput in the same ballpark), while per-class streams stay
    // independent of each other.
    sim::DispatchConfig shared = twoClassConfig();
    sim::DispatchOutcome a = sim::dispatchRequests(shared);

    sim::DispatchConfig split = twoClassConfig();
    split.perClassArrivals = true;
    sim::DispatchOutcome b = sim::dispatchRequests(split);

    EXPECT_DOUBLE_EQ(a.offeredRatePerMs, b.offeredRatePerMs);
    EXPECT_NEAR(b.elapsedMs, a.elapsedMs, 0.05 * a.elapsedMs);
    // Class mix: weights 1:1 → about half the completions each.
    double frac = static_cast<double>(b.perClass[0].completed) /
                  static_cast<double>(split.requests);
    EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(PerClassDispatch, PerClassArrivalsAreDeterministicInSeed)
{
    sim::DispatchConfig cfg = twoClassConfig();
    cfg.perClassArrivals = true;
    cfg.classes.classAt(1).traffic.burstRatio = 4.0;
    sim::DispatchOutcome a = sim::dispatchRequests(cfg);
    sim::DispatchOutcome b = sim::dispatchRequests(cfg);
    EXPECT_EQ(a.latencyMs.p99, b.latencyMs.p99); // bit-identical
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.perClass[1].latencyMs.p99, b.perClass[1].latencyMs.p99);
}

TEST(DiurnalDispatch, DefaultRateTargetsSeventyPercentMeanLoad)
{
    // The regression the satellite fixes: with a diurnal trace the
    // 70%-of-capacity default used to be applied as the PEAK rate,
    // making the effective mean load trace-dependent (70% x meanLoad).
    // The default peak is now normalised by the trace's mean load, so
    // the mean offered rate is 70% of capacity for ANY trace shape.
    sim::DispatchConfig cfg;
    cfg.rates = {sim::ModeRates::flat(1.0), sim::ModeRates::flat(1.0)};
    cfg.requests = 100;

    sim::DispatchOutcome flat = sim::dispatchRequests(cfg);
    EXPECT_DOUBLE_EQ(flat.offeredRatePerMs, 1.4); // 0.7 x 2.0 capacity

    for (const queueing::DiurnalTrace &trace :
         {queueing::DiurnalTrace::webSearchCluster(),
          queueing::DiurnalTrace::youtubeCluster()}) {
        sim::DispatchConfig diurnal = cfg;
        diurnal.trace = trace;
        diurnal.msPerHour = 10.0;
        sim::DispatchOutcome out = sim::dispatchRequests(diurnal);
        // offeredRatePerMs is the peak; peak x meanLoad == the 70% mean.
        EXPECT_DOUBLE_EQ(out.offeredRatePerMs * trace.meanLoad(), 1.4);
        EXPECT_GT(out.offeredRatePerMs, 1.4); // peak above the mean
    }

    // An explicit rate is still the peak rate, untouched.
    sim::DispatchConfig explicit_rate = cfg;
    explicit_rate.trace = queueing::DiurnalTrace::webSearchCluster();
    explicit_rate.msPerHour = 10.0;
    explicit_rate.arrivalRatePerMs = 3.0;
    EXPECT_DOUBLE_EQ(sim::dispatchRequests(explicit_rate).offeredRatePerMs,
                     3.0);
}

/** The pre-tournament linear-scan merge, hand-rolled as the reference:
 *  earliest pending time wins, strict `<` so ties go to the lowest
 *  class id, only the winner redraws. */
struct LinearReferenceMerge
{
    std::vector<ClassArrivalSuperposition::Stream> streams;
    std::vector<double> nextAtMs;
    double clock = 0.0;

    explicit LinearReferenceMerge(
        std::vector<ClassArrivalSuperposition::Stream> s)
        : streams(std::move(s))
    {
        for (auto &st : streams)
            nextAtMs.push_back(st.process.next(st.rng));
    }

    TaggedArrival
    next()
    {
        std::size_t win = 0;
        for (std::size_t k = 1; k < nextAtMs.size(); ++k) {
            if (nextAtMs[k] < nextAtMs[win])
                win = k;
        }
        TaggedArrival out;
        out.gapMs = nextAtMs[win] - clock;
        out.classId = static_cast<std::uint32_t>(win);
        clock = nextAtMs[win];
        auto &s = streams[win];
        nextAtMs[win] = clock + s.process.next(s.rng);
        return out;
    }
};

/** A mixed-shape stream set: Poisson and MMPP processes at distinct
 *  rates, each with its own decorrelated RNG. */
std::vector<ClassArrivalSuperposition::Stream>
mixedStreams(std::size_t classes, std::uint64_t seed)
{
    std::vector<ClassArrivalSuperposition::Stream> streams;
    streams.reserve(classes);
    for (std::size_t k = 0; k < classes; ++k) {
        double rate = 0.3 + 0.17 * static_cast<double>(k);
        ArrivalProcess p =
            k % 3 == 1
                ? ArrivalProcess::mmpp(rate, 3.0, 150.0, 50.0)
                : ArrivalProcess::poisson(rate);
        streams.push_back({std::move(p), Rng(seed, mixSeed(0xa221, k))});
    }
    return streams;
}

TEST(ClassArrivalSuperposition, TournamentMatchesLinearReference)
{
    // The winner tree must reproduce the linear scan's merged stream
    // exactly — same winner, same gap, every draw — across class counts
    // on both sides of the power-of-two padding.
    for (std::size_t classes : {1u, 2u, 3u, 5u, 8u, 16u, 33u}) {
        ClassArrivalSuperposition tournament(mixedStreams(classes, 99));
        LinearReferenceMerge linear(mixedStreams(classes, 99));
        for (int i = 0; i < 4000; ++i) {
            TaggedArrival a = tournament.next();
            TaggedArrival b = linear.next();
            ASSERT_EQ(a.classId, b.classId)
                << classes << " classes, draw " << i;
            ASSERT_EQ(a.gapMs, b.gapMs) // bit-identical, not approximate
                << classes << " classes, draw " << i;
        }
    }
}

TEST(ClassArrivalSuperposition, TournamentTieBreaksToLowestClassId)
{
    // Two identical (process, seed) streams produce identical pending
    // times: the first merged arrival is an exact tie and must go to
    // class 0, with class 1's identical arrival following at gap 0.
    std::vector<ClassArrivalSuperposition::Stream> streams;
    streams.push_back({ArrivalProcess::poisson(1.0), Rng(5, 77)});
    streams.push_back({ArrivalProcess::poisson(1.0), Rng(5, 77)});
    ClassArrivalSuperposition sup(std::move(streams));
    TaggedArrival first = sup.next();
    EXPECT_EQ(first.classId, 0u);
    TaggedArrival second = sup.next();
    EXPECT_EQ(second.classId, 1u);
    EXPECT_EQ(second.gapMs, 0.0);
}

} // namespace
} // namespace stretch
