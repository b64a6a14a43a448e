"""Measurement helpers shared by the perfbench workloads.

Nothing here knows a workload: percentiles that carry their sample
count, span self-time arithmetic, parsers for the lines `varbuf opt`,
`varbuf cts` and `varbuf serve` print, and a process runner that reports
wall time and peak resident memory.
"""

import math
import os
import re
import statistics
import subprocess
import time


def percentile(values, q):
    """Nearest-rank `q`-th percentile (0 < q <= 100) of `values`.

    Returns `(value, n)`: the percentile and the sample count it rests
    on, so no percentile is ever quoted without its base.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def quantile(values, q):
    """Linearly interpolated `q`-th percentile (0 <= q <= 100) of
    `values`: a blend of the two order statistics around it. On a dozen
    samples a p90 lies below the largest, so, unlike the nearest-rank
    p99 (their maximum), one stalled sample cannot set it.
    """
    if not values:
        raise ValueError("quantile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"quantile {q} outside [0, 100]")
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def median(values):
    """Median, the mean of the middle two for an even count (steadier
    than the nearest rank on the few samples a cold workload gets)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def summary(values):
    """Sample count, quartiles and p99 of a timing, for the run record."""
    return {
        "n": len(values),
        "p25": percentile(values, 25)[0],
        "p50": median(values),
        "p75": percentile(values, 75)[0],
        "p99": percentile(values, 99)[0],
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover.

    `spans` is a list of dicts with `start`, `end` and `parent` (the
    index of the causing span, or None). Returns a list aligned with it.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children[i]]
        out.append(span["end"] - span["start"] - _covered(kids, span["start"], span["end"]))
    return out


def process_spans(wall_ns, child_spans, name="varbuf.process"):
    """A request's span tree: the process as the root span, [0, wall],
    and the spans the child recorded (offsets from its `main`) under it.
    """
    spans = [{"name": name, "start": 0, "end": wall_ns, "parent": None}]
    for s in child_spans:
        spans.append({"name": s["name"], "start": s["start_ns"], "end": s["end_ns"], "parent": 0})
    return spans


def reconcile(spans, tolerance=1e-9):
    """Self time per span name, after checking that the self times add
    up to the root's duration (they do only when every span lies inside
    its parent and siblings do not overlap).

    Returns `(by_name, ok)`.
    """
    st = self_times(spans)
    by_name = {}
    for span, t in zip(spans, st):
        by_name[span["name"]] = by_name.get(span["name"], 0) + t
    root = spans[0]["end"] - spans[0]["start"]
    ok = all(t >= 0 for t in st) and abs(sum(st) - root) <= tolerance * max(root, 1)
    return by_name, ok


# ---------------------------------------------------------------------------
# Output parsers
# ---------------------------------------------------------------------------

_NUM = r"(-?\d+(?:\.\d+)?)"
_OPT_MODE = re.compile(rf"^mode (\w+): (\d+) buffers, RAT {_NUM} ± {_NUM} ps$")
_OPT_SILICON = re.compile(
    rf"^silicon \(WID\): mean {_NUM}, sigma {_NUM}, 95%-yield RAT {_NUM}$"
)
_CTS_HEAD = re.compile(rf"^htree(\d+): (\d+) sinks, (\d+) buffers, RAT {_NUM} ± {_NUM} ps$")
_CTS_DECOMP = re.compile(
    r"^decomposition: (\d+) cuts, (\d+) spliced candidates dropped, "
    r"peak chunk bytes (\d+), frontier cap (\d+)$"
)
_CTS_SKEW = re.compile(rf"^global skew {_NUM} ± {_NUM} ps$")


def parse_opt(text):
    """Fields of a clean `varbuf opt --mode wid` report, or None."""
    lines = [l for l in text.splitlines() if l.strip()]
    m = s = None
    for line in lines:
        m = m or _OPT_MODE.match(line)
        s = s or _OPT_SILICON.match(line)
    if not (m and s):
        return None
    return {
        "mode": m.group(1),
        "buffers": int(m.group(2)),
        "rat_mean": float(m.group(3)),
        "rat_sigma": float(m.group(4)),
        "silicon_mean": float(s.group(1)),
        "silicon_sigma": float(s.group(2)),
        "rat_95": float(s.group(3)),
    }


def parse_cts(text):
    """Fields of a `varbuf cts` report, or None when a line is missing."""
    head = decomp = skew = None
    for line in text.splitlines():
        head = head or _CTS_HEAD.match(line)
        decomp = decomp or _CTS_DECOMP.match(line)
        skew = skew or _CTS_SKEW.match(line)
    if not (head and decomp and skew):
        return None
    return {
        "levels": int(head.group(1)),
        "sinks": int(head.group(2)),
        "buffers": int(head.group(3)),
        "rat_mean": float(head.group(4)),
        "rat_sigma": float(head.group(5)),
        "cuts": int(decomp.group(1)),
        "spliced_dropped": int(decomp.group(2)),
        "peak_chunk_bytes": int(decomp.group(3)),
        "frontier_cap": int(decomp.group(4)),
        "skew_mean": float(skew.group(1)),
        "skew_sigma": float(skew.group(2)),
    }


def parse_serve(line):
    """One `varbuf serve` response line: `(status, verb, fields)`, where
    status is `ok` or `err` and fields holds the `key=value` tokens.
    """
    tokens = line.split()
    if not tokens or tokens[0] not in ("ok", "err"):
        raise ValueError(f"not a serve response: {line!r}")
    verb = tokens[1] if len(tokens) > 1 else ""
    fields = dict(t.split("=", 1) for t in tokens[2:] if "=" in t)
    return tokens[0], verb, fields


def serve_failed(line):
    """Whether a serve response is a failed request: an error (shed
    requests answer `err overloaded`) or an optimize the service
    degraded, cancelled or tightened.
    """
    status, verb, fields = parse_serve(line)
    if status != "ok":
        return True
    return verb == "opt" and any(fields.get(k) != "0" for k in ("degraded", "cancelled", "tightened"))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def run_process(argv):
    """Runs `argv` to completion.

    Returns `(wall_s, returncode, stdout, stderr, peak_rss_mb)`; the peak
    resident set is the child's own high-water mark from `wait4`.
    """
    start = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # Both commands write a few lines to stderr at most, so reading
    # stdout to the end first cannot fill the stderr pipe.
    out = p.stdout.read()
    err = p.stderr.read()
    p.stdout.close()
    p.stderr.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, out.decode(), err.decode(), usage.ru_maxrss / 1024.0
