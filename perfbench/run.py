#!/usr/bin/env python3
"""perfbench: the varbuf benchmark.

    python3 perfbench/run.py --workload net_suite --seed 0 --seconds 15 --trace 0

Builds `varbuf` and the tracer from the checkout (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload (or `all`)
for --seconds, checks every answer, and prints a readable report, a
`record {...}` line with the sample counts behind every number, and as
its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`. Untraced runs (--trace 0) report the end-to-end metrics of
BENCHMARK.json; traced runs (--trace 1) report its per-layer metrics.
`mapping.json` says what each metric means on each workload.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Bench  # noqa: E402


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Builds both binaries; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise RuntimeError(f"no Cargo.toml at {ROOT}: not a varbuf checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "varbuf"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "varbuf"), os.path.join(release, "varbuf-perfbench-tracer")


def source_identity():
    """The git commit when there is one, and a digest of the sources
    either way (a benchmark checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = p.stdout.strip() or None
    return commit, digest.hexdigest()[:16]


def run_workload(name, args, varbuf, tracer):
    parent = os.path.join(ROOT, ".bench_work")
    work = os.path.join(parent, f"{name}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return WORKLOADS[name](Bench(varbuf, tracer, work, args.seed, args.seconds), args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)  # only when empty


def report(name, res, args, spec, mapping, identity):
    """Prints the readable report and the run record; returns the
    workload's metrics object."""
    w = mapping["workloads"][name]
    commit, digest = identity
    nproc = len(os.sched_getaffinity(0))
    print(f"== {name}  seed {args.seed}  {args.seconds} s  {'traced' if args.trace else 'untraced'}  "
          f"({w['temperature']}, {w['threads']} thread(s) of {nproc}, release build)")
    fail_ratio = res["failed"] / max(res["attempted"], 1)
    print(f"  {'fail_ratio':<24} {fail_ratio:.6g} ratio  ({res['failed']} of {res['attempted']} requests)")
    if "output_check" in res["record"]:
        print(f"  output check: {res['record']['output_check']}")
    if args.trace:
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for key in sorted(res["layers"]):
            target = mapping["per_layer"][key].get("target")
            note = f"  (target {target}, recorded, not gated)" if target is not None else ""
            print(f"  {key:<40} {res['layers'][key]:.6g}{note}")
    else:
        metrics = {m["name"]: {"value": res["e2e"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for key, (value, unit, summ) in res["named"].items():
            print(f"  {key:<24} {value:.6g} {unit}  {json.dumps(summ)}")
        for key, m in metrics.items():
            print(f"  {key:<24} {m['value']:.6g} {m['unit']}")
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "threads": w["threads"],
        "temperature": w["temperature"],
        "build_profile": "release",
        "commit": commit,
        "source_digest": digest,
        "fail_ratio": fail_ratio,
        "samples": res["record"],
    }
    print("record " + json.dumps(record, sort_keys=True))
    for problem in res["problems"][:20]:
        print(f"perfbench: {name}: {problem}", file=sys.stderr)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        mapping = load_json(os.path.join(HERE, "mapping.json"))
        varbuf, tracer = build()
        identity = source_identity()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            res = run_workload(name, args, varbuf, tracer)
            m = report(name, res, args, spec, mapping, identity)
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
