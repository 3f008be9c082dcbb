#include "obs/digest.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "cluster/cluster.h"

namespace stretch::obs
{
namespace
{

/** FNV-1a over the bit patterns of the values fed to it. */
class Digest
{
  public:
    /** Fold the eight little-endian bytes of @p v. */
    void u64(std::uint64_t v);
    /** Fold the raw bit pattern of @p v. */
    void f64(double v);
    /** Fold the length, then the bytes, of @p s. */
    void str(const std::string &s);
    /** Fold a summary's count and every statistic. */
    void summary(const stats::ViolinSummary &v);
    /** The hash as 16 lower-case hex digits. */
    std::string hex() const;

  private:
    std::uint64_t h = 1469598103934665603ull;
};

void
Digest::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
}

void
Digest::f64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Digest::str(const std::string &s)
{
    u64(s.size());
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
}

void
Digest::summary(const stats::ViolinSummary &v)
{
    u64(v.count);
    for (double x : {v.min, v.q1, v.median, v.q3, v.max, v.mean, v.p95,
                     v.p99, v.p999})
        f64(x);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Fold every reported field of a fleet result into @p d. */
void
digestInto(Digest &d, const sim::FleetResult &r)
{
    const sim::DispatchOutcome &out = r.dispatch;
    d.u64(out.placed.size());
    for (std::uint64_t n : out.placed)
        d.u64(n);
    for (double ms : out.busyMs)
        d.f64(ms);
    d.summary(out.latencyMs);
    d.f64(out.elapsedMs);
    d.f64(out.throughputRps);
    d.f64(out.offeredRatePerMs);

    d.u64(out.modeStats.size());
    for (const sim::CoreModeStats &m : out.modeStats) {
        for (double ms : m.residencyMs)
            d.f64(ms);
        d.u64(m.transitions);
        d.f64(m.flushMs);
        d.u64(static_cast<std::uint64_t>(m.finalMode));
        d.f64(m.throttleMs);
        d.u64(m.throttleEngagements);
        d.u64(m.cpiOutliers);
        d.u64(m.throttledAtEnd ? 1 : 0);
    }

    d.u64(out.timeline.size());
    for (const sim::TimelineBucket &b : out.timeline) {
        d.f64(b.startMs);
        d.u64(b.completions);
        d.f64(b.p50Ms);
        d.f64(b.p99Ms);
        d.f64(b.loadFraction);
        d.f64(b.throttledCoreMs);
        d.u64(b.perClass.size());
        for (const sim::TimelineBucket::ClassCell &c : b.perClass) {
            d.u64(c.completions);
            d.u64(c.shed);
            d.f64(c.p99Ms);
        }
    }

    d.u64(out.perClass.size());
    for (const sim::ClassOutcome &c : out.perClass) {
        d.str(c.name);
        d.u64(c.completed);
        d.u64(c.shed);
        d.summary(c.latencyMs);
        d.f64(c.sloTargetMs);
        d.f64(c.tailPercentile);
        d.f64(c.tailMs);
        d.f64(c.sloAttainment);
        d.u64(c.sloGood);
    }
    d.u64(out.totalShed);

    d.f64(r.totalLsUipc);
    d.f64(r.totalBatchUipc);
    d.summary(r.lsUipc);
    d.summary(r.batchUipc);
    for (double rate : r.serviceRatePerMs)
        d.f64(rate);
    for (const sim::ModeRates &m : r.modeRates) {
        d.f64(m.baseline);
        d.f64(m.bmode);
        d.f64(m.qmode);
        d.f64(m.throttledLs);
    }
    for (const sim::FleetResult::BatchOperatingPoints &b : r.batchPoints) {
        for (double uipc : b.byMode)
            d.f64(uipc);
        d.f64(b.throttled);
    }
    d.f64(r.effectiveBatchUipc);
}

} // namespace

std::string
digestOf(const sim::FleetResult &r)
{
    Digest d;
    digestInto(d, r);
    return d.hex();
}

std::string
digestOf(const cluster::ClusterResult &r)
{
    Digest d;
    digestInto(d, r.merged);
    d.u64(r.nodes.size());
    for (const sim::FleetResult &node : r.nodes)
        digestInto(d, node);
    const cluster::IngressStats &in = r.ingress;
    d.u64(in.decisions);
    d.u64(in.migrations);
    d.u64(in.failovers);
    d.u64(in.spillovers);
    d.u64(in.signalRefreshes);
    for (std::uint64_t n : in.steered)
        d.u64(n);
    for (double cap : in.capacityPerMs)
        d.f64(cap);
    d.u64(in.signalStalenessMs.count());
    d.f64(r.elapsedMs);
    return d.hex();
}

} // namespace stretch::obs
