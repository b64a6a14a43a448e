"""The three perfbench workloads.

Each runs one closed-loop client against the `varbuf` binary and checks
every answer. With `trace` set, a workload also runs the tracer, which
makes the same library calls in process with a span around each layer,
and returns per-layer numbers next to its end-to-end ones.

Workload results are plain dicts:
  attempted, failed   requests tried and requests that failed a check
  problems            one line per failure, for stderr
  e2e                 end-to-end metric name -> value (untraced numbers)
  named               the same numbers under their workload-specific names
  layers              per-layer metric name -> value (traced runs only)
  record              sample counts and quartiles behind every number
"""

import json
import os
import random
import subprocess
import time

from harness import (
    median,
    parse_cts,
    parse_opt,
    parse_serve,
    percentile,
    process_spans,
    quantile,
    reconcile,
    run_process,
    serve_failed,
    summary,
)

SUITE = ["p1", "p2", "r1", "r2", "r3", "r4", "r5"]
OPT_ARGS = ["--mode", "wid", "--spatial", "hetero"]

CTS_LEVELS = 16
CTS_ARGS = ["cts", "--levels", str(CTS_LEVELS), "--budget-mem", "512"]
# Set-up probe: the same pipeline on a 4,096-sink tree, the smallest
# the default cut planner decomposes, which must pass before the 64k
# runs start.
CTS_PROBE_ARGS = ["cts", "--levels", "12"]
# The 64k H-tree takes no seed, so its answer is fixed. Buffers and RAT
# come from the DP and must match exactly. The skew comes from a Clark
# max/min fold whose result depends on fold order, so it gets a relative
# tolerance that admits a reordered fold but not a wrong one.
CTS_EXPECTED = {
    "sinks": 65536,
    "buffers": 4798,
    "rat_mean": -1043.1,
    "rat_sigma": 25.08,
    "skew_mean": 122.40,
    "skew_sigma": 9.48,
}
SKEW_REL_TOL = 0.02
RESCORE_REL_TOL = 1e-9

CLOSURE_NETS = ["r3", "r4", "p2"]
# Far above any queued cost three nets can reach: nothing is shed or
# tightened.
QUEUE_LIMIT = str(1 << 40)
SERVE_ARGS = ["serve", "--jobs", "2", "--queue-soft", QUEUE_LIMIT, "--queue-hard", QUEUE_LIMIT]
BATCH_EVERY = 50
# Each session's share of one block of steps: 70% rat, 20% sink, 5% wire,
# 5% lib. A block holds one share per session, shuffled by the seed, so
# every run sees the same mix, and each session toggles its library once
# a block: the time spent on the cheaper single-buffer library, and with
# it the latency, does not swing with the seed.
EDIT_BLOCK = ["rat"] * 14 + ["sink"] * 4 + ["wire"] + ["lib"]

SETUP_REPEATS = {"net_suite": 9, "clock_cts": 7, "closure_session": 5}

# The answer `varbuf opt FILE --mode wid --spatial hetero` must print for
# each suite net of seeds 0 and 1, pinned when the benchmark was written:
# (buffers, RAT mean, RAT sigma, silicon mean, silicon sigma, 95%-yield
# RAT). A change to the DP's answer fails these requests. Other seeds
# have no pinned answer: their own nets are only compared with the
# library's answer for the same file (`tracer expect`), which moves with
# the CLI; the untimed warm-up pass over the seed-0 nets that every run
# makes checks the pinned answer there too.
OPT_EXPECTED = {
    0: {
        "p1": (287, -1739.7, 39.11, -1739.7, 39.11, -1804.0),
        "p2": (436, -1847.5, 42.75, -1847.5, 42.75, -1917.9),
        "r1": (180, -1214.2, 27.90, -1214.2, 27.90, -1260.1),
        "r2": (447, -1717.8, 39.31, -1717.8, 39.31, -1782.5),
        "r3": (557, -1753.8, 40.60, -1753.8, 40.60, -1820.6),
        "r4": (793, -1800.6, 41.60, -1800.6, 41.60, -1869.0),
        "r5": (1113, -1809.6, 42.53, -1809.6, 42.53, -1879.6),
    },
    1: {
        "p1": (299, -1788.8, 38.63, -1788.8, 38.63, -1852.3),
        "p2": (481, -1766.6, 39.82, -1766.6, 39.82, -1832.1),
        "r1": (182, -1250.4, 30.63, -1250.4, 30.63, -1300.8),
        "r2": (445, -1718.3, 38.88, -1718.3, 38.88, -1782.2),
        "r3": (578, -1771.1, 42.13, -1771.1, 42.13, -1840.4),
        "r4": (779, -1784.2, 42.44, -1784.2, 42.44, -1854.0),
        "r5": (1123, -1832.2, 42.79, -1832.2, 42.79, -1902.5),
    },
}
OPT_FIELDS = ("buffers", "rat_mean", "rat_sigma", "silicon_mean", "silicon_sigma", "rat_95")


class Bench:
    """Paths and arguments one workload run needs."""

    def __init__(self, varbuf, tracer, work, seed, seconds):
        self.varbuf = varbuf
        self.tracer = tracer
        self.work = work
        self.seed = seed
        self.seconds = seconds


class Tally:
    """Requests attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _ms(ns):
    return ns / 1e6


def _result(tally, e2e, named, layers, record):
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "e2e": e2e,
        "named": named,
        "layers": layers,
        "record": record,
    }


def _trace_of(stdout):
    """Splits a tracer's output into its command lines and its trace."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("trace "):
        return lines, None
    return lines[:-1], json.loads(lines[-1][len("trace "):])


def _gen_suite(b, dest, seed=None):
    """Writes the seven suite nets of `seed` (default: the run's seed);
    returns (wall_s, files)."""
    os.makedirs(dest, exist_ok=True)
    seed = b.seed if seed is None else seed
    wall, rc, _, err, _ = run_process([b.tracer, "gen", str(seed), dest])
    if rc != 0:
        raise RuntimeError(f"tracer gen failed: {err.strip()}")
    return wall, {name: os.path.join(dest, f"{name}.tree") for name in SUITE}


def _setup_suite(b, repeats):
    times, files = [], None
    for k in range(repeats):
        wall, files = _gen_suite(b, os.path.join(b.work, f"suite{k}"))
        times.append(wall)
    return times, files


def _dp_layers(dp_runs, run_ms):
    """Per-layer `core.dp.*` values from the engine's own counters,
    summed over the runs of one request unit."""
    total = {k: sum(d[k] for d in dp_runs) for k in dp_runs[0]}
    phases = sum(total[k] for k in ("wire_ms", "merge_ms", "prune_ms", "buffer_ms", "bound_ms"))
    generated = max(total["generated"], 1)
    out = {f"core.dp.{k}": total[k] for k in ("wire_ms", "merge_ms", "prune_ms", "buffer_ms", "bound_ms")}
    out.update(
        {
            "core.dp.run_ms": run_ms,
            "core.dp.phase_coverage": phases / run_ms if run_ms > 0 else 0.0,
            "core.dp.generated": total["generated"],
            "core.dp.pruned": total["pruned"],
            "core.dp.pruned_by_bound": total["pruned_by_bound"],
            "core.dp.lishi_skipped": total["lishi_skipped"],
            "core.dp.max_list": max(d["max_list"] for d in dp_runs),
            "core.dp.keep_ratio": (total["generated"] - total["pruned"]) / generated,
            "core.dp.bound_retire_ratio": total["pruned_by_bound"] / generated,
        }
    )
    return out


def _median_layers(units):
    """Median of each per-layer value across request units."""
    return {k: median([u[k] for u in units]) for k in units[0]}


def _kernel_layers(kernels):
    terms = [t for k in kernels for t in k["form_terms"]]
    return {
        "stats.canonical.cov_ns_per_term": median([k["cov_ns_per_term"] for k in kernels]),
        "stats.canonical.lin_comb_ns_per_term": median([k["lin_comb_ns_per_term"] for k in kernels]),
        "stats.clark.min_ns_per_term": median([k["clark_min_ns_per_term"] for k in kernels]),
        "stats.form_terms_p50": median(terms),
    }


def _traced_request(argv):
    """Runs a tracer command as a fresh process.

    Returns `(lines, trace, layer_ns, ok)`: the command's output lines,
    its trace, the self time of each span name with the process root as
    `varbuf.process` (exec, printing and teardown), and whether the self
    times reconcile with the process wall.
    """
    wall, rc, out, err, _ = run_process(argv)
    lines, trace = _trace_of(out)
    if rc != 0 or trace is None:
        return lines, None, None, False
    by_name, ok = reconcile(process_spans(int(wall * 1e9), trace["spans"]))
    return lines, trace, by_name, ok


# ---------------------------------------------------------------------------
# net_suite
# ---------------------------------------------------------------------------


def _expected_opt(b, seed, files):
    """Expected `varbuf opt` fields per net of `seed`: the pinned answer
    for seeds 0 and 1, the library's answer in process otherwise."""
    if seed in OPT_EXPECTED:
        return {
            name: {"mode": "WID", **dict(zip(OPT_FIELDS, values))}
            for name, values in OPT_EXPECTED[seed].items()
        }
    _, rc, out, err, _ = run_process([b.tracer, "expect", *files.values()])
    if rc != 0:
        raise RuntimeError(f"tracer expect failed: {err.strip()}")
    blocks, current = {}, None
    for line in out.splitlines():
        if line.startswith("== "):
            current = blocks.setdefault(line[3:], [])
        else:
            current.append(line)
    by_path = {path: parse_opt("\n".join(lines)) for path, lines in blocks.items()}
    expected = {name: by_path.get(path) for name, path in files.items()}
    if None in expected.values():
        raise RuntimeError(f"tracer expect printed no answer for some net: {out!r}")
    return expected


def _suite_pass(b, files, expected, tally, net_walls):
    """One seven-net pass of cold `varbuf opt` processes; appends each
    process wall to `net_walls[name]`."""
    start = time.perf_counter()
    rss = 0.0
    for name in SUITE:
        wall, rc, out, _, mb = run_process([b.varbuf, "opt", files[name], *OPT_ARGS])
        net_walls[name].append(wall)
        rss = max(rss, mb)
        ok = rc == 0 and parse_opt(out) == expected[name]
        tally.check(ok, f"net_suite {name}: exit {rc}, output {out!r}")
    return time.perf_counter() - start, rss


def net_suite(b, trace):
    setup, files = _setup_suite(b, SETUP_REPEATS["net_suite"])
    expected = _expected_opt(b, b.seed, files)
    tally = Tally()
    # Untimed warm-up, and a check against a pinned answer whatever the
    # seed: one pass over the seed-0 nets.
    _, pinned = _gen_suite(b, os.path.join(b.work, "pinned"), 0)
    _suite_pass(b, pinned, _expected_opt(b, 0, pinned), tally, {name: [] for name in SUITE})
    passes, traced_passes, units, kernels, rss = [], [], [], [], 0.0
    net_walls = {name: [] for name in SUITE}
    start = time.perf_counter()
    while time.perf_counter() - start < b.seconds:
        wall, mb = _suite_pass(b, files, expected, tally, net_walls)
        passes.append(wall)
        rss = max(rss, mb)
        if trace:
            unit, cli_ns = _traced_suite_pass(b, files, expected, tally, kernels)
            units.append(unit)
            traced_passes.append(cli_ns / 1e9)
    elapsed = time.perf_counter() - start
    if b.seed in OPT_EXPECTED:
        output_check = f"pinned answer of seed {b.seed}"
    else:
        output_check = f"seed {b.seed}: CLI vs library, plus the warm-up pass of the pinned seed-0 nets"
    # A typical pass is each net's median process summed, and a slow one
    # each net's p90: a burst of host noise then moves one net's sample,
    # not the whole pass, and a single stall cannot set the tail alone.
    suite_s = sum(median(w) for w in net_walls.values())
    e2e = {
        "setup_s": median(setup),
        "latency_p50_ms": suite_s * 1e3,
        "latency_tail_ms": sum(quantile(w, 90) for w in net_walls.values()) * 1e3,
        "throughput_rps": len(passes) * len(SUITE) / elapsed,
        "peak_rss_mb": rss,
    }
    named = {"suite_s": (suite_s, "s", summary(passes))}
    record = {
        "setup_s": summary(setup),
        "pass_s": summary(passes),
        "net_s": {name: summary(w) for name, w in net_walls.items()},
        "requests": tally.attempted,
        "output_check": output_check,
    }
    layers = {}
    if trace:
        layers = _median_layers(units)
        layers.update(_kernel_layers(kernels))
        layers["trace.overhead_ratio"] = median(traced_passes) / median(passes)
        record["traced_pass_s"] = summary(traced_passes)
        record["traced_passes"] = len(units)
        record["kernel_samples"] = len(kernels)
    return _result(tally, e2e, named, layers, record)


def _traced_suite_pass(b, files, expected, tally, kernels):
    """One pass of traced opt children; returns the pass's per-layer
    sums and its command wall (process walls minus kernel timing)."""
    sums = {}
    dp_runs, cli_ns, dp_run_ns = [], 0, 0
    for name in SUITE:
        lines, trace, by_name, ok = _traced_request([b.tracer, "opt", files[name]])
        ok = (
            ok
            and parse_opt("\n".join(lines)) == expected[name]
            and trace["rescore_rel_err"] <= RESCORE_REL_TOL
        )
        if not tally.check(ok, f"net_suite traced {name}: {lines}"):
            continue
        kernels.append(trace["kernels"])
        dp_runs.append(trace["dp"])
        for span, metric in (
            ("varbuf.process", "varbuf.unaccounted_ms"),
            ("rctree.io.read", "rctree.io.read_ms"),
            ("variation.model", "variation.model_ms"),
            ("core.yield_eval.analyze", "core.yield_eval.analyze_ms"),
        ):
            sums[metric] = sums.get(metric, 0.0) + _ms(by_name[span])
        dp_run_ns += by_name["core.dp.run"]
        cli_ns += sum(by_name.values()) - by_name["stats.kernels"]
    if not dp_runs:
        raise RuntimeError("every traced net_suite request failed")
    sums.update(_dp_layers(dp_runs, _ms(dp_run_ns)))
    return sums, cli_ns


# ---------------------------------------------------------------------------
# clock_cts
# ---------------------------------------------------------------------------


def _close(a, b, tol):
    return abs(a - b) <= tol * abs(b)


def cts_ok(fields):
    """Whether a 64k `varbuf cts` report is the expected answer."""
    e = CTS_EXPECTED
    return (
        fields is not None
        and fields["sinks"] == e["sinks"]
        and fields["buffers"] == e["buffers"]
        and fields["rat_mean"] == e["rat_mean"]
        and fields["rat_sigma"] == e["rat_sigma"]
        and _close(fields["skew_mean"], e["skew_mean"], SKEW_REL_TOL)
        and _close(fields["skew_sigma"], e["skew_sigma"], SKEW_REL_TOL)
        and fields["peak_chunk_bytes"] > 0
    )


def _setup_cts(b, repeats):
    times = []
    for _ in range(repeats):
        wall, rc, out, err, _ = run_process([b.varbuf, *CTS_PROBE_ARGS])
        fields = parse_cts(out)
        if rc != 0 or fields is None or fields["peak_chunk_bytes"] <= 0:
            raise RuntimeError(f"cts probe failed: exit {rc}: {err.strip()}")
        times.append(wall)
    return times


def clock_cts(b, trace):
    setup = _setup_cts(b, SETUP_REPEATS["clock_cts"])
    tally = Tally()
    walls, traced_walls, units, kernels, rss = [], [], [], [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < b.seconds:
        wall, rc, out, _, mb = run_process([b.varbuf, *CTS_ARGS])
        walls.append(wall)
        rss = max(rss, mb)
        tally.check(rc == 0 and cts_ok(parse_cts(out)), f"clock_cts: exit {rc}, output {out!r}")
        if trace:
            lines, tr, by_name, ok = _traced_request([b.tracer, "cts", str(CTS_LEVELS)])
            ok = ok and cts_ok(parse_cts("\n".join(lines)))
            if tally.check(ok, f"clock_cts traced: {lines}"):
                units.append(_cts_layers(tr, by_name))
                kernels.append(tr["kernels"])
                traced_walls.append((sum(by_name.values()) - by_name["stats.kernels"]) / 1e9)
    elapsed = time.perf_counter() - start
    e2e = {
        "setup_s": median(setup),
        "latency_p50_ms": median(walls) * 1e3,
        "latency_tail_ms": quantile(walls, 90) * 1e3,
        "throughput_rps": len(walls) / elapsed,
        "peak_rss_mb": rss,
    }
    named = {"cts_s": (median(walls), "s", summary(walls))}
    record = {"setup_s": summary(setup), "process_s": summary(walls), "requests": len(walls)}
    layers = {}
    if trace:
        if not units:
            raise RuntimeError("every traced clock_cts request failed")
        layers = _median_layers(units)
        layers.update(_kernel_layers(kernels))
        layers["trace.overhead_ratio"] = median(traced_walls) / median(walls)
        record["traced_process_s"] = summary(traced_walls)
    return _result(tally, e2e, named, layers, record)


def _cts_layers(tr, by_name):
    # The DP runs inside the hierarchical engine here, so its run time is
    # the engine's own `runtime`; the span covers the whole hier call.
    layers = _dp_layers([tr["dp"]], tr["dp"]["runtime_ms"])
    h = tr["hier"]
    layers.update(
        {
            "varbuf.unaccounted_ms": _ms(by_name["varbuf.process"]),
            "rctree.generate.htree_ms": _ms(by_name["rctree.generate.htree"]),
            "variation.model_ms": _ms(by_name["variation.model"]),
            "core.hier.run_ms": _ms(by_name["core.hier.run"]),
            "core.hier.cuts": h["cuts"],
            "core.hier.spliced_dropped": h["spliced_dropped"],
            "core.hier.peak_chunk_bytes": h["peak_chunk_bytes"],
            "core.governor.events": h["governor_events"],
            "core.skew.analyze_ms": _ms(by_name["core.skew.analyze"]),
        }
    )
    return layers


# ---------------------------------------------------------------------------
# closure_session
# ---------------------------------------------------------------------------


def _net_sites(path):
    """Sinks `(id, rat)` and parent edges `(id, length)` of a tree file."""
    sinks, edges = [], []
    with open(path) as f:
        for line in f:
            t = line.split()
            if t and t[0] in ("sink", "internal"):
                edges.append((int(t[1]), float(t[5])))
                if t[0] == "sink":
                    sinks.append((int(t[1]), float(t[8])))
    return sinks, edges


class ClosureScript:
    """The seeded edit→opt script. Every step is one edit plus one opt on
    a session drawn from a shuffled block, except every `BATCH_EVERY`-th,
    which queues one opt per session between `begin` and `commit`."""

    def __init__(self, seed, sessions):
        self.rng = random.Random(seed)
        self.sessions = sessions  # [(handle, sinks, edges)]
        self.lib = {h: "full" for h, _, _ in sessions}
        self.block = []
        self.steps = 0

    def next_step(self):
        self.steps += 1
        if self.steps % BATCH_EVERY == 0:
            return ["begin"] + [f"opt {h}" for h, _, _ in self.sessions] + ["commit"]
        if not self.block:
            self.block = [(kind, s) for s in self.sessions for kind in EDIT_BLOCK]
            self.rng.shuffle(self.block)
        kind, (h, sinks, edges) = self.block.pop()
        if kind == "rat":
            node, rat = self.rng.choice(sinks)
            edit = f"edit rat {h} {node} {rat + self.rng.uniform(-50.0, 50.0):.3f}"
        elif kind == "sink":
            node, _ = self.rng.choice(sinks)
            edit = f"edit sink {h} {node} {self.rng.uniform(5.0, 30.0):.3f}"
        elif kind == "wire":
            node, length = self.rng.choice(edges)
            edit = f"edit wire {h} {node} {length * self.rng.uniform(0.8, 1.2):.3f}"
        else:
            self.lib[h] = "single" if self.lib[h] == "full" else "full"
            edit = f"edit lib {h} {self.lib[h]}"
        return [edit, f"opt {h}"]


class ServeClient:
    """A `varbuf serve` process driven over its pipes, one request at a
    time. Keeps the script it sent and a transcript of every response
    line with the index of the request it answers (None for acks)."""

    def __init__(self, argv):
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.script = []
        self.transcript = []  # (line, request index or None)
        self.requests = 0

    def _send(self, text):
        self.script.append(text)
        self.p.stdin.write(text.encode())
        self.p.stdin.flush()

    def _read(self):
        line = self.p.stdout.readline().decode().rstrip("\n")
        if not line:
            raise RuntimeError("varbuf serve closed its output")
        return line

    def _answer(self, line):
        self.transcript.append((line, self.requests))
        self.requests += 1
        return line

    def request(self, text):
        """Sends one request line; returns (response, latency_ns)."""
        start = time.perf_counter_ns()
        self._send(text + "\n")
        line = self._read()
        latency = time.perf_counter_ns() - start
        return self._answer(line), latency

    def batch(self, lines):
        """Sends a begin … commit block and reads every answer it drains."""
        self._send("".join(l + "\n" for l in lines))
        while True:
            line = self._read()
            if line in ("ok begin", "ok commit"):
                self.transcript.append((line, None))
                if line == "ok commit":
                    return
            else:
                self._answer(line)

    def quit(self):
        """Shuts the service down; returns its peak RSS in MB."""
        self._send("quit\n")
        self.transcript.append((self._read(), None))
        self.p.stdin.close()
        self.p.stdout.close()
        _, _, usage = os.wait4(self.p.pid, 0)
        self.p.returncode = 0
        return usage.ru_maxrss / 1024.0

    def kill(self):
        if self.p.returncode is None:
            self.p.kill()
            self.p.wait()


def _open_sessions(client, files):
    """Loads the closure nets and runs the first (cold) opt on each;
    returns the sessions as (handle, sinks, edges)."""
    sessions = []
    for name in CLOSURE_NETS:
        with open(files[name]) as f:
            text = f.read()
        line, _ = client.request("load hetero\n" + text + "end")
        status, verb, fields = parse_serve(line)
        if status != "ok" or verb != "open":
            raise RuntimeError(f"closure load of {name} failed: {line}")
        sessions.append((fields["session"], *_net_sites(files[name])))
    for handle, _, _ in sessions:
        line, _ = client.request(f"opt {handle}")
        if serve_failed(line):
            raise RuntimeError(f"closure warm-up opt failed: {line}")
    return sessions


def _serve_argv(b, *extra):
    return [b.varbuf, *SERVE_ARGS, *extra]


def _run_session(b, files, repeats):
    """Set-up (repeated; the last client is kept), then the measured
    closed loop. Returns the client and the loop's numbers."""
    setup, client = [], None
    for k in range(repeats):
        start = time.perf_counter()
        client = ServeClient(_serve_argv(b))
        try:
            sessions = _open_sessions(client, files)
        except BaseException:
            client.kill()
            raise
        setup.append(time.perf_counter() - start)
        if k + 1 < repeats:
            client.quit()
    first_measured = client.requests
    script = ClosureScript(b.seed, sessions)
    opt_ns, kinds = [], []  # kinds: the verb of each interactive request
    cold_ns = {}  # "edit lib <h> <lib>" -> latencies of the opts after it
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < b.seconds:
            step = script.next_step()
            if step[0] == "begin":
                client.batch(step)
                continue
            for text in step:
                _, latency = client.request(text)
                kind = text.split()[0]
                kinds.append(kind)
                if kind == "opt":
                    opt_ns.append(latency)
                    if step[0].startswith("edit lib "):
                        cold_ns.setdefault(step[0], []).append(latency)
        elapsed = time.perf_counter() - start
        answered = client.requests - first_measured
        rss = client.quit()
    except BaseException:
        client.kill()
        raise
    return client, {
        "setup": setup,
        "opt_ns": opt_ns,
        "cold_ns": cold_ns,
        "kinds": kinds,
        "elapsed": elapsed,
        "answered": answered,
        "rss": rss,
        "steps": script.steps,
    }


def _compare(tally, transcript, lines, what):
    """Counts each request of `transcript` as passing when every line it
    owns equals the same line of `lines` and reports no failure."""
    bad = set()
    for i, (line, owner) in enumerate(transcript):
        other = lines[i] if i < len(lines) else None
        if owner is None:
            if line != other:
                tally.check(False, f"{what}: ack {i} {line!r} vs {other!r}")
        elif line != other or serve_failed(line):
            bad.add(owner)
    owners = sorted({o for _, o in transcript if o is not None})
    for o in owners:
        tally.check(o not in bad, f"{what}: request {o} differs or failed")
    if len(lines) != len(transcript):
        tally.check(False, f"{what}: {len(lines)} lines vs {len(transcript)}")


def closure_session(b, trace):
    _, files = _gen_suite(b, os.path.join(b.work, "nets"))
    client, run = _run_session(b, files, SETUP_REPEATS["closure_session"] if not trace else 1)
    tally = Tally()
    script_text = "".join(client.script)
    transcript = client.transcript
    if not trace:
        # The incremental byte-identity contract: the same script through
        # a cache-less service answers every line identically.
        p = subprocess.run(_serve_argv(b, "--no-cache"), input=script_text.encode(), capture_output=True)
        _compare(tally, transcript, p.stdout.decode().splitlines(), "closure --no-cache replay")
        if p.returncode != 0:
            tally.check(False, f"closure --no-cache replay exited {p.returncode}")
    opt_ns = run["opt_ns"]
    # The tail is the cold opts: a library swap invalidates the whole net,
    # so the opt after it runs the engine cold. It is the mean, over the
    # (session, library) pairs, of each pair's median cold opt: the script,
    # not the noise, picks the samples, and a seed that swaps one net more
    # often does not move it. A p99 of all opts, one order statistic among
    # ~25 cold opts of three nets and two libraries, moved twice as much
    # as the median from one run to the next.
    cold = run["cold_ns"].values()
    if not cold:
        raise RuntimeError("closure run too short: no library swap was measured")
    e2e = {
        "setup_s": median(run["setup"]),
        "latency_p50_ms": _ms(median(opt_ns)),
        "latency_tail_ms": _ms(sum(median(v) for v in cold) / len(cold)),
        "throughput_rps": run["answered"] / run["elapsed"],
        "peak_rss_mb": run["rss"],
    }
    opt_ms = [_ms(x) for x in opt_ns]
    named = {
        "closure_opt_ms_p50": (e2e["latency_p50_ms"], "ms", summary(opt_ms)),
        "closure_opt_ms_p99": (_ms(percentile(opt_ns, 99)[0]), "ms", summary(opt_ms)),
        "closure_rps": (e2e["throughput_rps"], "1/s", {"n": run["answered"], "wall_s": run["elapsed"]}),
    }
    record = {
        "setup_s": summary(run["setup"]),
        "opt_ms": summary(opt_ms),
        "cold_opts": {k.split(" ", 2)[2]: len(v) for k, v in sorted(run["cold_ns"].items())},
        "steps": run["steps"],
        "requests": run["answered"],
        "response_lines": len(transcript),
    }
    layers = {}
    if trace:
        layers = _traced_closure(b, script_text, transcript, run, tally, record)
    return _result(tally, e2e, named, layers, record)


def _traced_closure(b, script_text, transcript, run, tally, record):
    """Replays the session's script through the in-process service and
    checks it answers byte-identically to the `serve` process."""
    path = os.path.join(b.work, "closure.script")
    with open(path, "w") as f:
        f.write(script_text)
    _, rc, out, err, _ = run_process([b.tracer, "closure", path])
    lines, tr = _trace_of(out)
    if rc != 0 or tr is None:
        raise RuntimeError(f"tracer closure failed: {err.strip()}")
    _compare(tally, transcript, lines, "closure in-process replay")
    reqs = tr["requests"]
    # The first 2×nets records are the set-up loads and warm-up opts.
    measured = reqs[2 * len(CLOSURE_NETS):]
    if [r["kind"] for r in measured] != run["kinds"]:
        raise RuntimeError("closure trace does not align with the client's requests")
    opts = [r for r in measured if r["kind"] == "opt"]
    edits = [r for r in measured if r["kind"] == "edit"]
    stats = tr["stats"]
    lookups = stats["cache_hits"] + stats["cache_misses"]
    drains = tr["drains"]
    record["traced_opts"] = len(opts)
    record["traced_edits"] = len(edits)
    record["drains"] = len(drains)
    return {
        "rctree.io.read_ms": _ms(tr["read_ns"]),
        "core.service.opt_ms_p50": _ms(median([r["exec_ns"] for r in opts])),
        "core.service.opt_ms_p99": _ms(percentile([r["exec_ns"] for r in opts], 99)[0]),
        "core.service.edit_us_p50": median([r["exec_ns"] for r in edits]) / 1e3,
        "core.service.parse_us_p50": median([r["parse_ns"] for r in measured]) / 1e3,
        "core.service.render_us_p50": median([r["render_ns"] for r in measured]) / 1e3,
        "core.cache.hit_ratio": stats["cache_hits"] / lookups if lookups else 0.0,
        "core.cache.invalidations": stats["cache_invalidations"],
        "core.cache.dirty_nodes_p50": median([r["dirty"] for r in edits]),
        "core.pool.drain_ms": _ms(median([d["ns"] for d in drains])) if drains else 0.0,
        "core.pool.drain_requests": sum(d["requests"] for d in drains),
        # No trace.overhead_ratio: the in-process replay has no pipes or
        # serve loop, so it is no traced twin of the client-observed
        # latency, and the metric reads 0 here.
    }


WORKLOADS = {
    "net_suite": net_suite,
    "clock_cts": clock_cts,
    "closure_session": closure_session,
}
