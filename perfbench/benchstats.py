"""Pure helpers behind perfbench/run.py: the percentile rule, span self
times and the digest gate. Kept free of I/O so test_benchstats.py can
check them directly."""

import math
import statistics
from fractions import Fraction

# A tail percentile is reported only when at least this many samples lie
# beyond its rank, so it is never set by one or two outliers.
MIN_BEYOND = 10


def ceil_rank(values, pct, min_beyond=MIN_BEYOND):
    """The ceil-rank percentile: the sample at 1-based rank
    ceil(pct/100 * n) in sorted order. Returns None when fewer than
    `min_beyond` samples lie beyond that rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(Fraction(str(pct)) * n / 100))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4, its default method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children (overlapping children are
    merged, and a child is clipped to its parent). `spans` is a list of
    dicts with `start_ns`, `end_ns` and `parent` (an index into the
    list, or -1). Returns a list of nanoseconds, index-matched."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        reach = lo
        intervals = sorted((max(lo, spans[c]["start_ns"]),
                            min(hi, spans[c]["end_ns"]))
                           for c in children.get(i, []))
        for a, b in intervals:
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def check_runs(records, expected):
    """Compare run records with the committed expectation.

    `records` are perfbench_driver's `run` records; `expected` maps a scenario
    name to {"digest": ..., "verdict": ...} (verdict null for runs with
    no assertions). A run fails if it threw, if its name is unknown, or
    if its digest or verdict differs. Returns (attempted, failed,
    problems), problems being one line per failure."""
    attempted = failed = 0
    problems = []
    for r in records:
        attempted += 1
        want = expected.get(r["name"])
        if "error" in r:
            why = "threw: " + r["error"]
        elif want is None:
            why = "no committed expectation"
        elif r["digest"] != want["digest"]:
            why = "digest %s, expected %s" % (r["digest"], want["digest"])
        elif r["verdict"] != want["verdict"]:
            why = "verdict %s, expected %s" % (r["verdict"], want["verdict"])
        else:
            continue
        failed += 1
        problems.append("%s (%s pass %d): %s"
                        % (r["name"], r["phase"], r["pass"], why))
    return attempted, failed, problems
