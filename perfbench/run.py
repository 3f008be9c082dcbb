#!/usr/bin/env python3
"""End-to-end benchmark of the Stretch simulator.

    python3 perfbench/run.py --workload drills-cold|drills-warm|rack-steer \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-expected

Builds perfbench/ (Release) into .bench_build/, runs the workload in
closed loop through perfbench_driver processes, checks every scenario
run against expected.json, and prints human-readable lines followed by
one JSON result line. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer metrics of a separate traced run. The seed
orders the scenarios within each pass; the scenarios themselves are the
program's own fixed drill catalog and rack preset. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
EXPECTED = os.path.join(HERE, "expected.json")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

# Each workload: which scenario set perfbench_driver runs, and whether every
# pass is cold (in a process of its own).
WORKLOADS = {
    "drills-cold": {"set": "drills", "cold": True},
    "drills-warm": {"set": "drills", "cold": False},
    "rack-steer": {"set": "rack", "cold": False},
}
WARM_PROCESSES = 5  # warm workers per run: set-up is timed once in each
RUN_DEADLINE_S = 170.0  # a run must end within 180 s once built

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "run_ms_p50": "ms", "run_ms_p75": "ms",
    "sim_req_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it is
# predicted to move).
PER_LAYER = {
    "core.cycles_per_s": ("1/s", "pass_s, cpu_s on drills-cold; "
                          "no change on drills-warm, rack-steer"),
    "core.sim_cycles": ("count", "none: a change means the model changed"),
    "sim.measure_ms": ("ms", "pass_s on drills-cold"),
    "sim.oppoint_misses": ("count", "pass_s on drills-cold"),
    "sim.oppoint_hits": ("count", "pass_s on drills-cold"),
    "sim.oppoint_load_ms": ("ms", "setup_s on drills-warm, rack-steer"),
    "scenario.lower_ms": ("ms", "pass_s on drills-cold; setup_s elsewhere"),
    "scenario.drill_self_ms": ("ms", "run_ms_p50 on drills-warm"),
    "sim.fleet_ms": ("ms", "run_ms_p50, sim_req_per_s on drills-warm"),
    "sim.fleet_req_per_s": ("1/s", "sim_req_per_s on drills-warm"),
    "queueing.engine_req_per_s": ("1/s", "sim_req_per_s on drills-warm"),
    "cluster.run_ms": ("ms", "run_ms_p50, pass_s on rack-steer"),
    "cluster.parallel_speedup": ("ratio", "pass_s, cpu_s on rack-steer"),
    "cluster.decisions": ("count", "none: must repeat exactly"),
    "cluster.migrations": ("count", "none: must repeat exactly"),
    "cluster.failovers": ("count", "none: must repeat exactly"),
    "cluster.signal_refreshes": ("count", "none: must repeat exactly"),
    "trace.overhead": ("ratio", "none: traced / untraced pass_s"),
}

# Leaf layer calls inside one scenario run (children of its root span).
LEAF_SPANS = ("scenario.lower", "sim.fleet", "cluster.run")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """perfbench_driver's environment: a stray operating-point cache path would
    turn a cold pass warm, and the quick factor is part of every cache
    key, so neither may leak in."""
    env = dict(os.environ)
    env.pop("STRETCH_OPPOINT_CACHE", None)
    env.pop("STRETCH_QUICK_FACTOR", None)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "presets.h")):
        raise BenchError("simulator sources not found under %s"
                         % os.path.join(ROOT, "src"))
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=880).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def provenance():
    """Commit (when the checkout is a git repository) and a digest of the
    simulator sources, which identifies the program either way."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    return commit, h.hexdigest()[:16]


class Runner:
    """Starts driver processes one at a time against a shared deadline."""

    def __init__(self, seed):
        self.seed = seed
        self.env = clean_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.records = []
        self.info = {}

    def spawn(self, mode, scenario_set, *extra):
        cmd = [DRIVER, mode, "--workload", scenario_set,
               "--seed", str(self.seed)] + [str(a) for a in extra]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before: " + " ".join(cmd))
        spawned = time.monotonic()
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               env=self.env, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: " + " ".join(cmd))
        recs = [json.loads(line) for line in p.stdout.splitlines()
                if line.startswith("{")]
        if p.returncode != 0:
            raise BenchError("driver exited %d: %s"
                             % (p.returncode, " ".join(cmd)))
        proc = {"spawned": spawned}
        for r in recs:
            if r["kind"] == "env":
                self.info = r
            elif r["kind"] == "setup":
                proc["setup_s"] = r["first_pass_mono_s"] - spawned
            elif r["kind"] == "end":
                proc["max_rss_kb"] = r["max_rss_kb"]
        self.records.extend(recs)
        return proc

    def of_kind(self, kind, phases=None):
        return [r for r in self.records if r["kind"] == kind
                and (phases is None or r["phase"] in phases)]


def min_passes(runs_per_pass):
    """Passes needed for a p90 with MIN_BEYOND samples beyond it, and at
    least five for a pass median."""
    passes = 5
    while benchstats.ceil_rank(range(passes * runs_per_pass), 90) is None:
        passes += 1
    return passes


def warm_misses(runner):
    """Passes on a loaded cache must measure no operating point."""
    return ["%s pass %d measured %d operating points on a loaded cache"
            % (p["phase"], p["pass"], p["misses"])
            for p in runner.of_kind("pass", ["warmup", "timed", "traced"])
            if p["misses"] != 0]


def timed(runner, wl, seconds, expected):
    """Untraced passes; returns (metrics, sample counts, problems)."""
    sset = wl["set"]
    runs_per_pass = len(expected[sset]["runs"])
    need = min_passes(runs_per_pass)
    procs = []
    problems = []
    if wl["cold"]:
        start = time.monotonic()
        while len(procs) < need or time.monotonic() - start < seconds:
            procs.append(runner.spawn("cold", sset))
        passes = runner.of_kind("pass", ["timed"])
        want = expected[sset]["cold_misses"]
        for i, p in enumerate(passes):
            if p["misses"] != want:
                problems.append("cold pass %d measured %d operating points,"
                                " expected %d" % (i, p["misses"], want))
    else:
        cache = os.path.join(WORK_DIR, "%s.cache" % sset)
        runner.spawn("prep", sset, "--cache", cache)
        per = math.ceil(need / WARM_PROCESSES)
        for _ in range(WARM_PROCESSES):
            procs.append(runner.spawn("warm", sset, "--cache", cache,
                                      "--seconds", seconds / WARM_PROCESSES,
                                      "--min-passes", per))
        passes = runner.of_kind("pass", ["timed"])
        problems += warm_misses(runner)
    runs = runner.of_kind("run", ["timed"])
    ms = [r["ms"] for r in runs if "ms" in r]
    pass_s = [p["s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in procs),
        "pass_s": statistics.median(pass_s),
        "run_ms_p50": benchstats.ceil_rank(ms, 50),
        "run_ms_p75": benchstats.ceil_rank(ms, 75),
        "run_ms_p90": benchstats.ceil_rank(ms, 90),
        "sim_req_per_s": sum(p["sim_requests"] for p in passes) / sum(pass_s),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["max_rss_kb"] for p in procs)
        / 1024.0,
    }
    samples = {"setup_s": len(procs), "pass_s": len(passes),
               "run_ms_p50": len(ms), "run_ms_p75": len(ms),
               "run_ms_p90": len(ms),
               "sim_req_per_s": len(passes), "cpu_s": len(passes),
               "peak_rss_mb": len(procs)}
    return metrics, samples, problems


def load_spans(*paths):
    """Spans of several driver processes in one list (parent indices
    shifted to match), each with its duration and self time in ms."""
    spans = []
    for path in paths:
        with open(path) as fh:
            part = json.load(fh)["spans"]
        base = len(spans)
        for s, self_ns in zip(part, benchstats.self_times(part)):
            if s["parent"] >= 0:
                s["parent"] += base
            s["dur_ms"] = (s["end_ns"] - s["start_ns"]) / 1e6
            s["self_ms"] = self_ns / 1e6
            spans.append(s)
    return spans


def traced(runner, wl, seconds):
    """The workload's procedure with spans: a traced cold pass (the prep
    process), then a traced warm worker whose timed passes alternate
    untraced and traced, followed by the layer probes. Returns (metrics,
    self time per layer, problems)."""
    sset = wl["set"]
    cache = os.path.join(WORK_DIR, "traced-%s.cache" % sset)
    cold_path = os.path.join(WORK_DIR, "spans-%s-cold.json" % sset)
    warm_path = os.path.join(WORK_DIR, "spans-%s-warm.json" % sset)
    runner.spawn("prep", sset, "--cache", cache, "--spans", cold_path)
    runner.spawn("warm", sset, "--cache", cache, "--spans", warm_path,
                 "--seconds", seconds, "--min-passes", 3)
    spans = load_spans(cold_path, warm_path)
    problems = warm_misses(runner)

    passes = {}
    for i, s in enumerate(spans):
        if s["name"] == "pass":
            passes.setdefault(s["label"], []).append(i)

    def runs_of(pass_indices):
        """Root and leaf spans of the scenario runs inside the passes."""
        roots = {i for i, s in enumerate(spans) if s["parent"] in pass_indices}
        return [s for i, s in enumerate(spans)
                if i in roots or s["parent"] in roots]

    def probes(name):
        return [s for s in spans if s["name"] == name and s["parent"] < 0]

    # drills-cold reports on its cold pass; the warm workloads on their
    # traced timed passes, with set-up work seen in the warm-up pass.
    [cold_pass] = passes["prep"]
    [warmup_pass] = passes["warmup"]
    main_passes = [cold_pass] if wl["cold"] else passes["traced"]
    setup_pass = cold_pass if wl["cold"] else warmup_pass
    main = runs_of(set(main_passes))
    first = runs_of({main_passes[0]})

    # The cold and the warm-up pass differ only in the operating-point
    # cache (both start with an empty calibration memo), so cold minus
    # warm-up time of the same call, over the misses it took, is host
    # time per measured operating point.
    def leaves(pass_index):
        seen = {}
        out = {}
        for s in runs_of({pass_index}):
            if s["name"] in LEAF_SPANS:
                k = seen[s["id"]] = seen.get(s["id"], -1) + 1
                out[(s["label"], k)] = s
        return out
    cold_leaves, warm_leaves = leaves(cold_pass), leaves(warmup_pass)
    misses = sum(s["attrs"]["misses"] for s in cold_leaves.values())
    if misses == 0 or set(cold_leaves) != set(warm_leaves):
        raise BenchError("cold and warm-up traced passes do not pair up")
    extra_ms = sum(s["dur_ms"] - warm_leaves[k]["dur_ms"]
                   for k, s in cold_leaves.items() if s["attrs"]["misses"])

    def rate(items, count_key):
        return (sum(s["attrs"][count_key] for s in items)
                / (sum(s["dur_ms"] for s in items) / 1e3))

    def median_ms(items):
        return statistics.median(s["dur_ms"] for s in items)

    parallel = probes("cluster.parallel")
    fleet = probes("sim.fleet")
    pass_s = {k: statistics.median(p["s"] for p in runner.of_kind("pass", [k]))
              for k in ("timed", "traced")}
    metrics = {
        "core.cycles_per_s": rate(probes("core.cycle"), "cycles"),
        "core.sim_cycles": sim_cycles(cache),
        "sim.measure_ms": extra_ms / misses,
        "sim.oppoint_misses": spans[main_passes[0]]["attrs"]["misses"],
        "sim.oppoint_hits": spans[main_passes[0]]["attrs"]["hits"],
        "sim.oppoint_load_ms": probes("sim.oppoint_load")[0]["dur_ms"],
        "scenario.lower_ms": sum(s["dur_ms"] for s in runs_of({setup_pass})
                                 if s["name"] == "scenario.lower"),
        "scenario.drill_self_ms": statistics.median(
            s["self_ms"] for s in main if s["parent"] in main_passes),
        "sim.fleet_ms": median_ms(fleet),
        "sim.fleet_req_per_s": rate(fleet, "requests"),
        "queueing.engine_req_per_s": rate(probes("queueing.engine"),
                                          "requests"),
        "cluster.run_ms": median_ms(s for s in main
                                    if s["name"] == "cluster.run"),
        "cluster.parallel_speedup": (
            median_ms(s for s in parallel if s["attrs"]["threads"] == 1)
            / median_ms(s for s in parallel if s["attrs"]["threads"] != 1)),
        "trace.overhead": pass_s["traced"] / pass_s["timed"],
    }
    for key in ("decisions", "migrations", "failovers", "signal_refreshes"):
        metrics["cluster." + key] = sum(s["attrs"][key] for s in first
                                        if s["name"] == "cluster.run")

    for chk in runner.of_kind("thread_check"):
        if chk["digest_1"] != chk["digest_n"] or chk["digest_1"] == "unstable":
            problems.append("runCluster at 1 and %d threads disagree: %s vs "
                            "%s" % (chk["threads"], chk["digest_1"],
                                    chk["digest_n"]))

    layers = {}
    for s in first:
        layers[s["name"]] = layers.get(s["name"], 0.0) + s["self_ms"]
    return metrics, layers, problems


def sim_cycles(cache_path):
    """Summed RunResult::totalCycles of the cold pass, read from the
    operating-point cache file it saved."""
    total = 0
    with open(cache_path) as fh:
        for line in fh:
            if line.startswith("cycles "):
                total += int(line.split()[1])
    return total


def record_expected():
    """Write expected.json from one cold pass per scenario set, run
    serially: every timed run (on the pinned thread count) is then also
    a serial-versus-parallel identity check."""
    runner = Runner(seed=1)
    out = {}
    for sset in ("drills", "rack"):
        first = len(runner.records)
        runner.spawn("prep", sset, "--threads", 1, "--cache",
                     os.path.join(WORK_DIR, "record-%s.cache" % sset))
        recs = runner.records[first:]
        runs = [r for r in recs if r["kind"] == "run"]
        errors = [r for r in runs if "error" in r]
        if errors:
            raise BenchError("%s threw: %s" % (errors[0]["name"],
                                               errors[0]["error"]))
        [p] = [r for r in recs if r["kind"] == "pass"]
        out[sset] = {
            "cold_misses": p["misses"],
            "runs": {r["name"]: {"digest": r["digest"],
                                 "verdict": r["verdict"]}
                     for r in sorted(runs, key=lambda r: r["name"])},
        }
    with open(EXPECTED, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log("wrote %s" % EXPECTED)


def fmt(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite expected.json from the current program")
    args = ap.parse_args()
    if not args.record_expected and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
        os.makedirs(WORK_DIR, exist_ok=True)
        if args.record_expected:
            record_expected()
            return 0
        with open(EXPECTED) as fh:
            expected = json.load(fh)
        wl = WORKLOADS[args.workload]
        runner = Runner(args.seed)
        if args.trace:
            metrics, layers, problems = traced(runner, wl, args.seconds)
        else:
            metrics, samples, problems = timed(runner, wl, args.seconds,
                                               expected)
        attempted, failed, run_problems = benchstats.check_runs(
            runner.of_kind("run"), expected[wl["set"]]["runs"])
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1

    if any(v is None for v in metrics.values()):
        log("perfbench: too few samples for a metric: %s" % metrics)
        return 1
    commit, source = provenance()
    env = runner.info
    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                             args.trace))
    print("commit %s, sources %s, compiler %s, build %s, threads %d"
          % (commit, source, env["compiler"], env["build_type"],
             env["threads"]))
    print("accuracy: none reported; the repository holds no real-hardware "
          "reference, so the core model is unvalidated")
    print("correctness: %d scenario runs checked, %d failed (fail_ratio "
          "%.6g)" % (attempted, failed, failed / attempted))
    for p in run_problems + problems:
        print("  FAIL " + p)
    if args.trace:
        print("%-28s %16s %-6s  predicted to move" % ("per-layer metric",
                                                      "value", "unit"))
        for name, (unit, moves) in PER_LAYER.items():
            print("%-28s %16s %-6s  %s" % (name, fmt(metrics[name]), unit,
                                           moves))
        print("self time per layer over one %s pass (ms):"
              % ("cold" if wl["cold"] else "traced warm"))
        for name, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
            print("  %-22s %10.3f" % (name, ms))
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        print("%-16s %14s %-4s %s" % ("metric", "value", "unit", "samples"))
        for name, unit in END_TO_END_UNITS.items():
            print("%-16s %14s %-4s %d" % (name, fmt(metrics[name]), unit,
                                          samples[name]))
        # Printed, not gated: on drills-cold the p90 rank falls on the
        # slowest few of ~1000 light drills, just below the three that
        # measure operating points, so rare host stalls set it.
        print("%-16s %14s %-4s %d (not gated)"
              % ("run_ms_p90", fmt(metrics["run_ms_p90"]), "ms",
                 samples["run_ms_p90"]))
        units = END_TO_END_UNITS

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
