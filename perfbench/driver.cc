/**
 * @file
 * Benchmark driver: runs one step of a benchmark workload against the
 * simulator's public entry points and reports JSON lines on stdout.
 * `run.py` builds this program, sequences its processes, checks every
 * result digest against `expected.json`, and turns the records into
 * metrics (see README.md for the workloads and the layer map).
 *
 *     perfbench_driver MODE --workload drills|rack --seed N [options]
 *
 * Modes:
 *  - `cold`:   one pass in this (fresh) process, so the operating-point
 *              cache and the scenario calibration memo both start empty.
 *              The memo is a function-local static with no reset, which
 *              is why a cold pass needs its own process.
 *  - `prep`:   one cold pass, then `OperatingPointCache::saveTo(--cache)`.
 *  - `warm`:   `loadFrom(--cache)`, one discarded warm-up pass, then timed
 *              passes until `--seconds` have passed and at least
 *              `--min-passes` ran.
 *
 * `--spans FILE` traces `prep` or `warm`: spans around every layer call,
 * each timed pass followed by a traced twin (the tracing overhead), and,
 * after `warm`, layer probes (SmtCore::cycle, queueing::simulateService,
 * sim::runFleet, and cluster::runCluster at 1 vs N threads). Spans stay
 * in memory and are written to FILE once, at the end.
 *
 * Every scenario run reports a digest of its result, so the timed,
 * traced, serial and parallel paths can be compared bit for bit. Load is
 * closed-loop: one scenario in flight, back to back. Timed warm passes
 * run in a per-seed order, cold and warm-up passes in catalog order.
 * Host times come from std::chrono::steady_clock.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bp/branch_unit.h"
#include "cache/memory_hierarchy.h"
#include "cluster/cluster.h"
#include "core/smt_core.h"
#include "queueing/request_sim.h"
#include "queueing/service_spec.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/fleet.h"
#include "sim/op_point_cache.h"
#include "workload/generator.h"
#include "workload/profiles.h"

using namespace stretch;

namespace
{

using Clock = std::chrono::steady_clock;

/** Requests per rack-steer run: ~10x the preset stream, so one run is
 *  long enough (0.1-0.2 s) to time well above scheduler noise. */
constexpr std::uint64_t kRackRequests = 200000;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long
maxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** CPUs this process may run on (never hardware_concurrency, which
 *  ignores affinity masks and container CPU sets). */
unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

/** JSON string literal (names and error texts are plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + '"';
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Emit one record line and flush, so a crash loses nothing earlier. */
void
emit(const std::string &json)
{
    std::fputs(json.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

// ----------------------------------------------------------------- digest

/** FNV-1a over the bit patterns of a result's fields. */
class Digest
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    }

    void
    summary(const stats::ViolinSummary &v)
    {
        u64(v.count);
        for (double x : {v.min, v.q1, v.median, v.q3, v.max, v.mean, v.p95,
                         v.p99, v.p999})
            f64(x);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 1469598103934665603ull;
};

/** Digest of a fleet-shaped result: latency summary, per-class outcomes,
 *  shed count, mode transitions, throttle time and effective batch
 *  UIPC; rack runs add the ingress counts. */
std::string
digestOf(const sim::FleetResult &r, const cluster::IngressStats *ingress)
{
    Digest d;
    const sim::DispatchOutcome &out = r.dispatch;
    d.summary(out.latencyMs);
    d.u64(out.perClass.size());
    for (const sim::ClassOutcome &c : out.perClass) {
        d.str(c.name);
        d.u64(c.completed);
        d.u64(c.shed);
        d.summary(c.latencyMs);
        d.f64(c.tailMs);
        d.f64(c.sloAttainment);
        d.u64(c.sloGood);
    }
    d.u64(out.totalShed);
    d.u64(out.modeStats.size());
    for (const sim::CoreModeStats &m : out.modeStats) {
        d.u64(m.transitions);
        d.f64(m.throttleMs);
    }
    d.f64(r.effectiveBatchUipc);
    if (ingress) {
        d.u64(ingress->decisions);
        d.u64(ingress->migrations);
        d.u64(ingress->failovers);
        d.u64(ingress->spillovers);
        d.u64(ingress->signalRefreshes);
        for (std::uint64_t n : ingress->steered)
            d.u64(n);
    }
    return d.hex();
}

std::uint64_t
simRequests(const sim::FleetResult &r)
{
    return r.dispatch.latencyMs.count + r.dispatch.totalShed;
}

// ------------------------------------------------------------------ spans

/** One host-time span: a layer call seen from outside the library. */
struct Span
{
    std::string name;  ///< layer call ("scenario.lower", "sim.fleet", ...)
    std::string label; ///< scenario or phase it belongs to
    int id = 0;        ///< shared by every span of one scenario run
    int parent = -1;   ///< index of the enclosing span (-1 = root)
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::vector<std::pair<std::string, double>> attrs;
};

/** In-memory span store, written out once when the run ends. */
class SpanLog
{
  public:
    explicit SpanLog(std::int64_t origin_ns) : origin(origin_ns) {}

    int
    open(std::string name, std::string label, int id)
    {
        Span s;
        s.name = std::move(name);
        s.label = std::move(label);
        s.id = id;
        s.parent = stack.empty() ? -1 : stack.back();
        s.startNs = nowNs() - origin;
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int index)
    {
        spans[index].endNs = nowNs() - origin;
        stack.pop_back();
    }

    void
    attr(int index, std::string key, double value)
    {
        spans[index].attrs.emplace_back(std::move(key), value);
    }

    /** A fresh id for the spans of one scenario run or probe. */
    int
    nextId()
    {
        return ++lastId;
    }

    bool
    writeTo(const std::string &path) const
    {
        std::ofstream os(path, std::ios::trunc);
        os << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << "{\"name\": " << quoted(s.name)
               << ", \"label\": " << quoted(s.label) << ", \"id\": " << s.id
               << ", \"parent\": " << s.parent
               << ", \"start_ns\": " << s.startNs
               << ", \"end_ns\": " << s.endNs << ", \"attrs\": {";
            for (std::size_t k = 0; k < s.attrs.size(); ++k) {
                os << (k ? ", " : "") << quoted(s.attrs[k].first) << ": "
                   << num(s.attrs[k].second);
            }
            os << "}}" << (i + 1 < spans.size() ? "," : "") << '\n';
        }
        os << "]}\n";
        return static_cast<bool>(os);
    }

  private:
    std::int64_t origin;
    std::vector<Span> spans;
    std::vector<int> stack;
    int lastId = 0;
};

/**
 * RAII span that also records the operating-point cache's hit/miss
 * deltas across its interval. A null log makes it a no-op, so the
 * untraced path pays one branch per call.
 */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, const std::string &label, int id)
        : log(log)
    {
        if (!log)
            return;
        const sim::OperatingPointCache &cache =
            sim::OperatingPointCache::instance();
        hits0 = cache.hits();
        misses0 = cache.misses();
        index = log->open(name, label, id);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope()
    {
        if (!log)
            return;
        const sim::OperatingPointCache &cache =
            sim::OperatingPointCache::instance();
        log->close(index);
        log->attr(index, "hits", static_cast<double>(cache.hits() - hits0));
        log->attr(index, "misses",
                  static_cast<double>(cache.misses() - misses0));
    }

    void
    attr(const char *key, double value)
    {
        if (log)
            log->attr(index, key, value);
    }

  private:
    SpanLog *log;
    int index = -1;
    std::uint64_t hits0 = 0;
    std::uint64_t misses0 = 0;
};

/** Ingress counts on a cluster.run span (the per-layer counters). */
void
ingressAttrs(Scope &span, const cluster::IngressStats &in)
{
    span.attr("decisions", static_cast<double>(in.decisions));
    span.attr("migrations", static_cast<double>(in.migrations));
    span.attr("failovers", static_cast<double>(in.failovers));
    span.attr("signal_refreshes", static_cast<double>(in.signalRefreshes));
}

// ------------------------------------------------------------------- jobs

/** What one scenario run produced. */
struct RunOutcome
{
    std::string digest;
    int verdict = -1; ///< drill verdict (1 pass / 0 fail); -1 = none
    std::uint64_t simRequests = 0;
};

/** One scenario run of a workload; traced when given a span log. */
struct Job
{
    std::string name;
    std::function<RunOutcome(SpanLog *, int)> run;
};

/**
 * A drill, step by step, through the same public calls `runDrill`
 * makes (preset, lower for the horizon, lower + runFleet or lowerRack +
 * runCluster, evaluate), with a span around each layer call. The digest
 * and verdict must equal those of `runDrill` itself.
 */
RunOutcome
tracedDrill(const scenario::Drill &d, unsigned threads, SpanLog &log, int id)
{
    Scope root(&log, "scenario.drill", d.name, id);
    scenario::Scenario s = scenario::preset(d.preset);
    s.threads = threads;
    const bool rack = s.nodes > 1;

    double ratePerMs = 0.0;
    double requests = 0.0;
    double meanLoad = 1.0;
    {
        Scope lower(&log, "scenario.lower", d.name, id);
        if (rack) {
            cluster::ClusterConfig quiet = scenario::lowerRack(s);
            ratePerMs = quiet.arrivalRatePerMs;
            requests = static_cast<double>(quiet.requests);
        } else {
            sim::FleetConfig quiet = scenario::lower(s);
            ratePerMs = quiet.arrivalRatePerMs;
            requests = static_cast<double>(quiet.requests);
            meanLoad = s.trace ? s.trace->meanLoad() : 1.0;
        }
    }
    const double horizonMs = requests / (ratePerMs * meanLoad);
    std::vector<scenario::Incident> incidents = d.incidents;
    scenario::scaleIncidentTimes(incidents, horizonMs);
    s.incidents = std::move(incidents);
    std::vector<scenario::QosAssertion> assertions = d.assertions;
    scenario::scaleAssertionTimes(assertions, horizonMs);
    double bucketMs = s.hourlyTimeline ? s.msPerHour : s.timelineBucketMs;
    if (bucketMs <= 0.0) {
        bucketMs = horizonMs / 24.0;
        s.timelineBucketMs = bucketMs;
    }

    sim::FleetResult result;
    if (rack) {
        cluster::ClusterConfig cfg;
        {
            Scope lower(&log, "scenario.lower", d.name, id);
            cfg = scenario::lowerRack(s);
        }
        Scope run(&log, "cluster.run", d.name, id);
        cluster::ClusterResult r = cluster::runCluster(cfg);
        ingressAttrs(run, r.ingress);
        run.attr("requests", static_cast<double>(simRequests(r.merged)));
        result = std::move(r.merged);
    } else {
        sim::FleetConfig cfg;
        {
            Scope lower(&log, "scenario.lower", d.name, id);
            cfg = scenario::lower(s);
        }
        Scope run(&log, "sim.fleet", d.name, id);
        result = sim::runFleet(cfg);
        run.attr("requests", static_cast<double>(simRequests(result)));
    }
    std::vector<scenario::AssertionResult> verdicts =
        scenario::evaluate(assertions, result, bucketMs);
    const bool pass =
        std::all_of(verdicts.begin(), verdicts.end(),
                    [](const scenario::AssertionResult &v) { return v.pass; });
    return {digestOf(result, nullptr), pass ? 1 : 0, simRequests(result)};
}

std::vector<Job>
drillJobs(unsigned threads)
{
    std::vector<Job> jobs;
    for (const scenario::Drill &d : scenario::drillCatalog()) {
        jobs.push_back({d.name, [&d, threads](SpanLog *log, int id) {
                            if (log)
                                return tracedDrill(d, threads, *log, id);
                            scenario::DrillOutcome o = scenario::runDrill(
                                d, [threads](scenario::Scenario &s) {
                                    s.threads = threads;
                                });
                            return RunOutcome{digestOf(o.result, nullptr),
                                              o.pass ? 1 : 0,
                                              simRequests(o.result)};
                        }});
    }
    return jobs;
}

/** The rack-web-search preset at the rack-steer stream length. */
scenario::Scenario
rackScenario(cluster::IngressPolicy policy, unsigned threads)
{
    scenario::Scenario s = scenario::preset("rack-web-search");
    s.ingress.policy = policy;
    s.requests = kRackRequests;
    s.threads = threads;
    return s;
}

/** One rack-steer run: steady or with node 3 failing at mid-run. Like a
 *  drill, it lowers once to resolve the horizon, then lowers again and
 *  runs the cluster. */
RunOutcome
rackRun(const std::string &name, cluster::IngressPolicy policy,
        bool node_failure, unsigned threads, SpanLog *log, int id)
{
    Scope root(log, "scenario.rack", name, id);
    scenario::Scenario s = rackScenario(policy, threads);
    double horizonMs = 0.0;
    {
        Scope lower(log, "scenario.lower", name, id);
        cluster::ClusterConfig quiet = scenario::lowerRack(s);
        horizonMs =
            static_cast<double>(quiet.requests) / quiet.arrivalRatePerMs;
    }
    s.timelineBucketMs = horizonMs / 24.0;
    if (node_failure)
        s.incidents.push_back(scenario::NodeFailure{3, 0.5 * horizonMs});
    cluster::ClusterConfig cfg;
    {
        Scope lower(log, "scenario.lower", name, id);
        cfg = scenario::lowerRack(s);
    }
    Scope run(log, "cluster.run", name, id);
    cluster::ClusterResult r = cluster::runCluster(cfg);
    ingressAttrs(run, r.ingress);
    run.attr("requests", static_cast<double>(simRequests(r.merged)));
    return {digestOf(r.merged, &r.ingress), -1, simRequests(r.merged)};
}

std::vector<Job>
rackJobs(unsigned threads)
{
    const std::pair<const char *, cluster::IngressPolicy> policies[] = {
        {"round-robin", cluster::IngressPolicy::RoundRobin},
        {"jsq", cluster::IngressPolicy::Jsq},
        {"flow-affinity", cluster::IngressPolicy::FlowAffinity},
        {"class-aware", cluster::IngressPolicy::ClassAware},
    };
    std::vector<Job> jobs;
    for (const auto &[label, policy] : policies) {
        for (bool fail : {false, true}) {
            std::string name =
                std::string(label) + (fail ? "/node-failure" : "/steady");
            cluster::IngressPolicy p = policy;
            jobs.push_back({name, [name, p, fail, threads](SpanLog *log,
                                                           int id) {
                                return rackRun(name, p, fail, threads, log,
                                               id);
                            }});
        }
    }
    return jobs;
}

/** Fisher-Yates over splitmix64: the per-seed run order (identical on
 *  every platform, unlike std::shuffle). */
void
shuffle(std::vector<Job> &jobs, std::uint64_t seed)
{
    std::uint64_t state = seed;
    const auto next = [&state] {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[next() % i]);
}

// ----------------------------------------------------------------- passes

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    unsigned minPasses = 1;
    unsigned threads = 0;
    std::string cache;
    std::string spans;
};

/**
 * Run every job once, back to back. Emits one `run` record per job and
 * one `pass` record; with a log, the pass and each run get spans.
 */
void
runPass(const std::vector<Job> &jobs, const std::string &phase, int pass,
        SpanLog *log)
{
    const sim::OperatingPointCache &cache =
        sim::OperatingPointCache::instance();
    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t misses0 = cache.misses();
    const double cpu0 = cpuSeconds();
    std::uint64_t requests = 0;
    double seconds = 0.0;
    {
        Scope span(log, "pass", phase, log ? log->nextId() : 0);
        const std::int64_t start = nowNs();
        for (const Job &job : jobs) {
            const std::int64_t t0 = nowNs();
            const std::uint64_t runMisses0 = cache.misses();
            std::string rec = "{\"kind\": \"run\", \"phase\": " +
                              quoted(phase) +
                              ", \"pass\": " + std::to_string(pass) +
                              ", \"name\": " + quoted(job.name);
            try {
                RunOutcome o = job.run(log, log ? log->nextId() : 0);
                requests += o.simRequests;
                rec += ", \"ms\": " + num(secondsSince(t0) * 1e3) +
                       ", \"digest\": " + quoted(o.digest) +
                       ", \"verdict\": " +
                       (o.verdict < 0 ? std::string("null")
                                      : (o.verdict ? "true" : "false")) +
                       ", \"sim_requests\": " +
                       std::to_string(o.simRequests) + ", \"misses\": " +
                       std::to_string(cache.misses() - runMisses0);
            } catch (const std::exception &e) {
                rec += ", \"error\": " + quoted(e.what());
            }
            emit(rec + "}");
        }
        seconds = secondsSince(start);
    }
    emit("{\"kind\": \"pass\", \"phase\": " + quoted(phase) +
         ", \"pass\": " + std::to_string(pass) + ", \"s\": " + num(seconds) +
         ", \"cpu_s\": " + num(cpuSeconds() - cpu0) +
         ", \"sim_requests\": " + std::to_string(requests) +
         ", \"hits\": " + std::to_string(cache.hits() - hits0) +
         ", \"misses\": " + std::to_string(cache.misses() - misses0) + "}");
}

/** Monotonic seconds (CLOCK_MONOTONIC, the clock Python's
 *  time.monotonic() reads), so run.py can time set-up from the spawn. */
void
emitFirstPass()
{
    emit("{\"kind\": \"setup\", \"first_pass_mono_s\": " +
         num(static_cast<double>(nowNs()) * 1e-9) + "}");
}

bool
loadCache(const std::string &path)
{
    sim::CacheLoadOutcome out =
        sim::OperatingPointCache::instance().loadFrom(path);
    if (out.status != sim::CacheLoadOutcome::Status::Loaded) {
        std::fprintf(stderr, "perfbench: cannot load operating points from "
                             "%s\n",
                     path.c_str());
        return false;
    }
    return true;
}

// ----------------------------------------------------------- layer probes

/** SmtCore::cycle on each distinct colocation pair of the presets. */
void
probeCore(SpanLog &log)
{
    std::set<std::pair<std::string, std::string>> pairs;
    for (const std::string &name : scenario::presetNames()) {
        for (const sim::RunConfig &c : scenario::preset(name).cores)
            pairs.emplace(c.workload0, c.workload1);
    }
    constexpr std::uint64_t kCycles = 300000;
    for (const auto &[ls, batch] : pairs) {
        MemoryHierarchy mem{HierarchyConfig{}};
        BranchUnit bp;
        SmtCore core(CoreParams{}, mem, bp);
        TraceGenerator g0(workloads::byName(ls), 1, 0);
        TraceGenerator g1(workloads::byName(batch), 2, 1);
        mem.prefillLlc(0, g0.steadyStateBlocks());
        mem.prefillLlc(1, g1.steadyStateBlocks());
        core.attachThread(0, &g0);
        core.attachThread(1, &g1);
        core.run(5000); // prime the pipeline
        for (int rep = 0; rep < 3; ++rep) {
            Scope span(&log, "core.cycle", ls + "+" + batch, log.nextId());
            for (std::uint64_t i = 0; i < kCycles; ++i)
                core.cycle();
            span.attr("cycles", static_cast<double>(kCycles));
        }
    }
}

/** queueing::simulateService at the drills' stream length. */
void
probeEngine(SpanLog &log)
{
    const queueing::ServiceSpec &spec = queueing::serviceSpec("web_search");
    const double capacityPerMs = spec.workers / spec.meanServiceMs;
    queueing::SimKnobs knobs;
    knobs.requests = 15000;
    knobs.warmup = 1000;
    for (int rep = 0; rep < 5; ++rep) {
        Scope span(&log, "queueing.engine", spec.name, log.nextId());
        queueing::LatencyResult r =
            queueing::simulateService(spec, 0.7 * capacityPerMs, knobs);
        span.attr("requests",
                  static_cast<double>(knobs.requests + knobs.warmup));
        span.attr("p99_ms", r.p99Ms);
    }
}

/** sim::runFleet(scenario::lower(preset)) with every point a hit. */
void
probeFleet(SpanLog &log, unsigned threads)
{
    for (const std::string &name : scenario::presetNames()) {
        scenario::Scenario s = scenario::preset(name);
        if (s.nodes > 1)
            continue;
        s.threads = threads;
        sim::FleetConfig cfg = scenario::lower(s);
        sim::runFleet(cfg); // measure any point this workload never met
        for (int rep = 0; rep < 3; ++rep) {
            Scope span(&log, "sim.fleet", name, log.nextId());
            sim::FleetResult r = sim::runFleet(cfg);
            span.attr("requests", static_cast<double>(simRequests(r)));
        }
    }
}

/**
 * cluster::runCluster on the JSQ rack config at 1 thread and at the
 * pinned count, alternating. Emits both digests: they must be equal.
 */
void
probeCluster(SpanLog &log, unsigned threads)
{
    cluster::ClusterConfig cfg =
        scenario::lowerRack(rackScenario(cluster::IngressPolicy::Jsq, threads));
    std::string digest[2];
    for (int rep = 0; rep < 3; ++rep) {
        for (int k = 0; k < 2; ++k) {
            cfg.threads = k == 0 ? 1 : threads;
            Scope span(&log, "cluster.parallel", "jsq/steady", log.nextId());
            cluster::ClusterResult r = cluster::runCluster(cfg);
            span.attr("threads", cfg.threads);
            const std::string d = digestOf(r.merged, &r.ingress);
            if (rep == 0)
                digest[k] = d;
            else if (d != digest[k])
                digest[k] = "unstable";
        }
    }
    emit("{\"kind\": \"thread_check\", \"threads\": " +
         std::to_string(threads) + ", \"digest_1\": " + quoted(digest[0]) +
         ", \"digest_n\": " + quoted(digest[1]) + "}");
}

// ------------------------------------------------------------------ modes

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver cold|prep|warm "
                 "--workload drills|rack --seed N [--seconds S] "
                 "[--min-passes N] [--threads N] [--cache FILE] "
                 "[--spans FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("flag without a value");
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value, nullptr);
        else if (flag == "--min-passes")
            opt.minPasses = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
        else if (flag == "--threads")
            opt.threads = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
        else if (flag == "--cache")
            opt.cache = value;
        else if (flag == "--spans")
            opt.spans = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (opt.workload != "drills" && opt.workload != "rack")
        usage("--workload must be drills or rack");
    if (opt.mode != "cold" && opt.mode != "prep" && opt.mode != "warm")
        usage("mode must be cold, prep or warm");
    if (opt.mode != "cold" && opt.cache.empty())
        usage("--cache is required");
    if (opt.mode == "cold" && !opt.spans.empty())
        usage("--spans needs prep or warm");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t origin = nowNs();
    const Options opt = parseArgs(argc, argv);

    // A debug build would time the wrong program, a stray cache path
    // would silently turn a cold pass warm, and the quick factor is part
    // of every operating-point cache key.
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing a %s build; configure "
                             "with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    for (const char *var : {"STRETCH_OPPOINT_CACHE", "STRETCH_QUICK_FACTOR"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr, "perfbench: unset %s before running\n", var);
            return 2;
        }
    }

    const unsigned threads = opt.threads ? opt.threads : affinityCpus();
    emit(std::string("{\"kind\": \"env\", \"compiler\": ") +
         quoted(PERFBENCH_COMPILER) + ", \"build_type\": " +
         quoted(PERFBENCH_BUILD_TYPE) +
         ", \"threads\": " + std::to_string(threads) + "}");

    // Cold and warm-up passes keep catalog order: while the caches fill,
    // the order decides which run pays for each measurement or
    // calibration probe, and catalog order is what CI and a first-time
    // user pay. It also pairs each cold run with its warm-up twin. Timed
    // warm passes run in seed order.
    const std::vector<Job> catalog =
        opt.workload == "drills" ? drillJobs(threads) : rackJobs(threads);
    std::vector<Job> jobs = catalog;
    shuffle(jobs, opt.seed);

    // With --spans the same procedure runs traced: spans stay in memory
    // and are written once, when the process is done.
    std::unique_ptr<SpanLog> log;
    if (!opt.spans.empty())
        log = std::make_unique<SpanLog>(origin);
    if (opt.mode == "warm") {
        {
            Scope span(log.get(), "sim.oppoint_load", "cache",
                       log ? log->nextId() : 0);
            if (!loadCache(opt.cache))
                return 1;
        }
        runPass(catalog, "warmup", 0, log.get());
        emitFirstPass();
        // Traced, every untraced pass is followed by a traced one, so the
        // two sample the same stretch of time: their ratio is the
        // tracing overhead.
        const std::int64_t start = nowNs();
        for (unsigned pass = 1;
             pass <= opt.minPasses || secondsSince(start) < opt.seconds;
             ++pass) {
            runPass(jobs, "timed", static_cast<int>(pass), nullptr);
            if (log)
                runPass(jobs, "traced", static_cast<int>(pass), log.get());
        }
        if (log) {
            probeCore(*log);
            probeEngine(*log);
            probeFleet(*log, threads);
            probeCluster(*log, threads);
        }
    } else {
        emitFirstPass();
        runPass(catalog, opt.mode == "cold" ? "timed" : "prep", 0, log.get());
        if (opt.mode == "prep" &&
            !sim::OperatingPointCache::instance().saveTo(opt.cache)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.cache.c_str());
            return 1;
        }
    }
    if (log && !log->writeTo(opt.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spans.c_str());
        return 1;
    }
    emit("{\"kind\": \"end\", \"max_rss_kb\": " + std::to_string(maxRssKb()) +
         "}");
    return 0;
}
