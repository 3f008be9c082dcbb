/**
 * @file
 * Drain-order property tests for the event engine's calendar queue. A
 * reference binary heap (`std::priority_queue`) books every request the
 * engine books and checks each delivery live — every completion must be
 * the reference minimum with the server, start and arrival it was booked
 * with, and no booked request may still be pending once the loop has
 * moved past its finish time — under randomized arrival/quantum/shed
 * traffic, including exact finish-time ties, far-future events, and
 * capacity charges. This is the correctness gate for the calendar queue
 * and the shared drain loop: the queue layout may never change a
 * simulated result.
 */

#include <cstdint>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/event_engine.h"
#include "util/rng.h"

namespace stretch::queueing
{
namespace
{

/** One observed callback, all payload fields captured. */
struct Event
{
    enum Kind : int { Complete, Quantum, Shed };
    int kind = Complete;
    std::uint64_t index = 0;
    std::size_t server = 0;
    std::uint32_t classId = 0;
    double arrivalMs = 0.0;
    double startMs = 0.0;
    double timeMs = 0.0; ///< finish, boundary, or shed instant

    bool
    operator==(const Event &o) const
    {
        return kind == o.kind && index == o.index && server == o.server &&
               classId == o.classId && arrivalMs == o.arrivalMs &&
               startMs == o.startMs && timeMs == o.timeMs;
    }
};

/** Min-heap order over bookings: finish time, then arrival index. */
struct LaterBooking
{
    bool
    operator()(const Completion &x, const Completion &y) const
    {
        if (x.finishMs != y.finishMs)
            return x.finishMs > y.finishMs;
        return x.index > y.index;
    }
};

/** A replayed run: the callback log plus every disagreement between the
 *  engine and the reference heap (the first one described). */
struct Replay
{
    std::vector<Event> log;
    std::uint64_t violations = 0;
    std::string firstViolation;

    void
    violate(const std::string &what)
    {
        if (violations++ == 0)
            firstViolation = what;
    }
};

/** Adversarial traffic shape: bursts of simultaneous arrivals, zero
 *  demands (finish == start ties), occasional far-future demands, random
 *  sheds, quantum boundaries with capacity charges. Deterministic in the
 *  seed. Every booking also goes into a reference heap that checks the
 *  engine's deliveries as they happen. */
Replay
replay(std::uint64_t seed, double rateHint)
{
    constexpr std::size_t servers = 4;
    EventEngine engine(servers);
    Rng rng(seed, 0x5eed);
    Replay out;
    std::priority_queue<Completion, std::vector<Completion>, LaterBooking>
        reference;
    Completion next; // the request being generated, filled hook by hook
    std::uint64_t arrivals = 0;

    auto log = [&](const Event &e) {
        if (!out.log.empty() && e.timeMs < out.log.back().timeMs) {
            std::ostringstream what;
            what << "event " << out.log.size() << " at " << e.timeMs
                 << " logged after " << out.log.back().timeMs;
            out.violate(what.str());
        }
        out.log.push_back(e);
    };
    // Nothing booked may still be pending once the loop has delivered
    // every event up to @p t (completions first on ties).
    auto nothingDueBy = [&](double t, const char *where) {
        if (!reference.empty() && !(reference.top().finishMs > t)) {
            std::ostringstream what;
            what << "request " << reference.top().index << " finishing at "
                 << reference.top().finishMs << " still pending at " << where
                 << " " << t;
            out.violate(what.str());
        }
    };

    auto policy = makePolicy(
        [&]() -> EventEngine::Arrival {
            double u = rng.uniform();
            double gap;
            if (u < 0.2)
                gap = 0.0; // simultaneous arrivals
            else if (u < 0.25)
                gap = rng.exponential(40.0); // long lull
            else
                gap = rng.exponential(0.25);
            next.index = arrivals++;
            next.classId = static_cast<std::uint32_t>(rng.below(6));
            return {gap, next.classId};
        },
        [&](std::uint32_t) -> double {
            double u = rng.uniform();
            if (u < 0.15)
                return 0.0; // finish == start: exact-tie pressure
            if (u < 0.2)
                return rng.exponential(120.0); // far-future completion
            return rng.exponential(0.8);
        },
        [&](double now, double, std::uint32_t) -> std::size_t {
            nothingDueBy(now, "arrival");
            next.arrivalMs = now;
            if (rng.uniform() < 0.05)
                return EventEngine::shed;
            return rng.below(servers);
        },
        [&](std::size_t server, double start, double demand) {
            // Snap some finishes to a coarse grid so distinct requests
            // collide on the exact same finish time (index tie-break).
            double finish = start + demand;
            if (rng.uniform() < 0.3)
                finish = start + static_cast<double>(static_cast<int>(demand));
            next.server = server;
            next.startMs = start;
            next.finishMs = finish;
            reference.push(next);
            return finish;
        },
        [&](const Completion &c) {
            log({Event::Complete, c.index, c.server, c.classId, c.arrivalMs,
                 c.startMs, c.finishMs});
            if (reference.empty()) {
                out.violate("completion delivered with nothing booked");
                return;
            }
            const Completion &want = reference.top();
            if (c.index != want.index || c.server != want.server ||
                c.classId != want.classId || c.arrivalMs != want.arrivalMs ||
                c.startMs != want.startMs || c.finishMs != want.finishMs) {
                std::ostringstream what;
                what << "delivered request " << c.index << " finishing at "
                     << c.finishMs << ", reference minimum is request "
                     << want.index << " finishing at " << want.finishMs;
                out.violate(what.str());
            }
            reference.pop();
        },
        [&](std::uint64_t index, double now, double demand,
            std::uint32_t cls) {
            log({Event::Shed, index, 0, cls, now, demand, now});
        },
        [&](double boundary) {
            nothingDueBy(boundary, "boundary");
            log({Event::Quantum, 0, 0, 0, 0.0, 0.0, boundary});
            // Capacity charges stretch backlogs mid-run, shifting future
            // bookings relative to the calendar's adapted width.
            if (rng.uniform() < 0.1)
                engine.chargeCapacity(rng.below(servers), boundary,
                                      rng.exponential(1.0));
        },
        0.4, rateHint);

    engine.run(3000, policy);
    if (!reference.empty()) {
        std::ostringstream what;
        what << reference.size() << " booked requests never delivered";
        out.violate(what.str());
    }
    return out;
}

TEST(EventQueue, CalendarMatchesHeapUnderRandomizedTraffic)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Replay r = replay(seed, 4.0);
        EXPECT_GT(r.log.size(), 3000u) << "seed " << seed;
        EXPECT_EQ(r.violations, 0u)
            << "seed " << seed << ": " << r.firstViolation;
    }
}

TEST(EventQueue, RateHintNeverChangesResults)
{
    // The hint only seeds the initial bucket width; wildly wrong hints
    // must still produce the identical callback sequence.
    std::vector<Event> ref = replay(77, 0.0).log;
    for (double hint : {1e-6, 0.01, 4.0, 1e6}) {
        std::vector<Event> got = replay(77, hint).log;
        ASSERT_EQ(ref.size(), got.size()) << "hint " << hint;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_TRUE(ref[i] == got[i]) << "hint " << hint;
    }
}

TEST(EventQueue, EngineReuseIsClean)
{
    // A second run on the same engine must not leak the first run's
    // events or adapted calendar shape into its results.
    EventEngine engine(2);
    std::vector<double> finishes;
    auto policy = makePolicy(
        [] { return EventEngine::Arrival{0.5, 0}; },
        [](std::uint32_t) { return 2.0; },
        [&](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double demand) {
            return start + demand;
        },
        [&](const Completion &c) { finishes.push_back(c.finishMs); });
    engine.run(100, policy);
    std::vector<double> first = finishes;
    finishes.clear();
    engine.run(100, policy);
    EXPECT_EQ(first, finishes);
}

TEST(EventQueue, ExactTiesDeliverInArrivalIndexOrder)
{
    // Every request arrives at t=0 with zero demand: all finishes tie at
    // 0.0 and the engine must break ties by arrival index.
    EventEngine engine(3);
    std::vector<std::uint64_t> order;
    auto policy = makePolicy(
        [] { return EventEngine::Arrival{0.0, 0}; },
        [](std::uint32_t) { return 0.0; },
        [&](double, double, std::uint32_t) {
            return engine.leastFreeServer();
        },
        [](std::size_t, double start, double) { return start; },
        [&](const Completion &c) { order.push_back(c.index); });
    engine.run(50, policy);
    ASSERT_EQ(order.size(), 50u);
    for (std::uint64_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

} // namespace
} // namespace stretch::queueing
