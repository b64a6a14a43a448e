"""Tests of the benchmark's own arithmetic and parsers.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    median,
    parse_cts,
    parse_opt,
    parse_serve,
    percentile,
    process_spans,
    quantile,
    reconcile,
    self_times,
    serve_failed,
    summary,
)
from workloads import EDIT_BLOCK, OPT_EXPECTED, Bench, ClosureScript, _expected_opt, cts_ok  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), (50, 100))
        self.assertEqual(percentile(values, 99), (99, 100))
        self.assertEqual(percentile(values, 100), (100, 100))
        self.assertEqual(percentile([5.0], 99), (5.0, 1))

    def test_small_samples_round_up(self):
        # p99 of fewer than 100 samples is their maximum; the count says so.
        self.assertEqual(percentile([3, 1, 2], 99), (3, 3))
        self.assertEqual(percentile([3, 1, 2], 25), (1, 3))
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        self.assertEqual(median([4, 1, 3]), 3)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 0)
        with self.assertRaises(ValueError):
            quantile([], 90)

    def test_interpolated_quantile_blends_the_top_samples(self):
        values = [float(x) for x in range(1, 15)]  # 14 samples, like a net_suite run
        self.assertAlmostEqual(quantile(values, 90), 12.7)
        self.assertEqual(quantile(values, 0), 1.0)
        self.assertEqual(quantile(values, 100), 14.0)
        self.assertEqual(quantile([5.0], 90), 5.0)
        # One stalled sample sets the p99 of 14 samples, not their p90.
        stalled = values[:-1] + [114.0]
        self.assertEqual(percentile(stalled, 99)[0] - percentile(values, 99)[0], 100.0)
        self.assertAlmostEqual(quantile(stalled, 90), quantile(values, 90))

    def test_summary_carries_count_and_quartiles(self):
        s = summary([float(x) for x in range(1, 9)])
        self.assertEqual((s["n"], s["p25"], s["p50"], s["p75"], s["p99"]), (8, 2.0, 4.5, 6.0, 8.0))


def span(start, end, parent):
    return {"name": "s", "start": start, "end": end, "parent": parent}


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time(self):
        spans = [span(0, 100, None), span(10, 30, 0), span(50, 60, 0), span(12, 20, 1)]
        self.assertEqual(self_times(spans), [70, 12, 10, 8])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 100, None), span(10, 40, 0), span(30, 50, 0)]
        self.assertEqual(self_times(spans)[0], 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, 100, None), span(90, 130, 0)]
        self.assertEqual(self_times(spans)[0], 90)

    def test_reconcile_names_process_remainder(self):
        child = [
            {"name": "rctree.io.read", "start_ns": 5, "end_ns": 25},
            {"name": "core.dp.run", "start_ns": 30, "end_ns": 80},
        ]
        by_name, ok = reconcile(process_spans(100, child))
        self.assertTrue(ok)
        self.assertEqual(by_name, {"varbuf.process": 30, "rctree.io.read": 20, "core.dp.run": 50})
        self.assertEqual(sum(by_name.values()), 100)

    def test_reconcile_rejects_spans_past_the_wall(self):
        child = [{"name": "core.dp.run", "start_ns": 50, "end_ns": 150}]
        _, ok = reconcile(process_spans(100, child))
        self.assertFalse(ok)

    def test_reconcile_rejects_overlapping_siblings(self):
        child = [
            {"name": "a", "start_ns": 0, "end_ns": 60},
            {"name": "b", "start_ns": 40, "end_ns": 90},
        ]
        _, ok = reconcile(process_spans(100, child))
        self.assertFalse(ok)


OPT_OUT = """mode WID: 1113 buffers, RAT -1809.6 ± 42.53 ps
silicon (WID): mean -1809.6, sigma 42.53, 95%-yield RAT -1879.6
"""

CTS_OUT = """htree16: 65536 sinks, 4798 buffers, RAT -1043.1 ± 25.08 ps
decomposition: 32 cuts, 0 spliced candidates dropped, peak chunk bytes 196864, frontier cap 64
global skew 122.40 ± 9.48 ps
  P(skew <= 122.40 ps) = 50.0%
  P(skew <= 183.61 ps) = 100.0%
  P(skew <= 244.81 ps) = 100.0%
"""


class ParseTest(unittest.TestCase):
    def test_opt(self):
        f = parse_opt(OPT_OUT)
        self.assertEqual(f["buffers"], 1113)
        self.assertEqual((f["rat_mean"], f["rat_sigma"]), (-1809.6, 42.53))
        self.assertEqual(f["rat_95"], -1879.6)
        self.assertIsNone(parse_opt(OPT_OUT.splitlines()[0]))

    def test_pinned_opt_answer(self):
        expected = _expected_opt(Bench(None, None, None, 0, 1), 0, {})
        self.assertEqual(parse_opt(OPT_OUT), expected["r5"])
        self.assertNotEqual(parse_opt(OPT_OUT.replace("1113 buffers", "1114 buffers")), expected["r5"])
        self.assertEqual(sorted(expected), sorted(OPT_EXPECTED[1]))

    def test_cts(self):
        f = parse_cts(CTS_OUT)
        self.assertEqual((f["levels"], f["sinks"], f["buffers"]), (16, 65536, 4798))
        self.assertEqual((f["cuts"], f["peak_chunk_bytes"]), (32, 196864))
        self.assertEqual((f["skew_mean"], f["skew_sigma"]), (122.40, 9.48))
        self.assertTrue(cts_ok(f))

    def test_cts_checks(self):
        degraded = "degraded: rule 2P -> 1P\n" + CTS_OUT
        self.assertTrue(cts_ok(parse_cts(degraded)))  # the exit code carries degradation
        self.assertFalse(cts_ok(parse_cts(CTS_OUT.replace("4798 buffers", "4797 buffers"))))
        self.assertFalse(cts_ok(parse_cts(CTS_OUT.replace("bytes 196864", "bytes 0"))))
        self.assertFalse(cts_ok(parse_cts(CTS_OUT.replace("122.40 ±", "130.00 ±"))))
        self.assertTrue(cts_ok(parse_cts(CTS_OUT.replace("122.40 ±", "122.90 ±"))))
        self.assertIsNone(parse_cts(CTS_OUT.replace("global skew", "skew")))

    def test_serve(self):
        opt = ("ok opt id=7 session=s1.0 buffers=793 rat=-1800.583473 sigma=41.603396 "
               "degraded=0 cancelled=0 tightened=0 fallbacks=0 truncations=0")
        self.assertEqual(parse_serve(opt)[:2], ("ok", "opt"))
        self.assertEqual(parse_serve(opt)[2]["session"], "s1.0")
        self.assertFalse(serve_failed(opt))
        self.assertTrue(serve_failed(opt.replace("degraded=0", "degraded=1")))
        self.assertTrue(serve_failed(opt.replace("tightened=0", "tightened=1")))
        edit = "ok edit session=s0.0 epoch=3 dirty=41"
        self.assertEqual(parse_serve(edit), ("ok", "edit", {"session": "s0.0", "epoch": "3", "dirty": "41"}))
        self.assertTrue(serve_failed("err overloaded queue full"))
        with self.assertRaises(ValueError):
            parse_serve("mode WID: 3 buffers")


class ScriptTest(unittest.TestCase):
    SESSIONS = [("s0.0", [(5, -10.0)], [(1, 200.0)]), ("s1.0", [(9, 0.0)], [(2, 150.0)])]

    def test_same_seed_same_script(self):
        a, b = ClosureScript(3, self.SESSIONS), ClosureScript(3, self.SESSIONS)
        self.assertEqual([a.next_step() for _ in range(120)], [b.next_step() for _ in range(120)])

    def test_mix_and_batches(self):
        script = ClosureScript(1, self.SESSIONS)
        steps = [script.next_step() for _ in range(200)]
        batches = [s for s in steps if s[0] == "begin"]
        self.assertEqual(len(batches), 4)
        self.assertEqual(batches[0], ["begin", "opt s0.0", "opt s1.0", "commit"])
        edits = [s[0].split() for s in steps if s[0] != "begin"]
        kinds = [e[1] for e in edits]
        for kind in ("rat", "sink", "wire", "lib"):
            share = kinds.count(kind) / len(kinds)
            self.assertAlmostEqual(share, EDIT_BLOCK.count(kind) / len(EDIT_BLOCK), delta=0.02)
        # One library toggle per session per block, alternating: the first
        # two blocks (two sessions each) switch each session away and back.
        libs = [(e[2], e[3]) for e in edits[: 4 * len(EDIT_BLOCK)] if e[1] == "lib"]
        self.assertEqual(sorted(libs), [("s0.0", "full"), ("s0.0", "single"), ("s1.0", "full"), ("s1.0", "single")])


class MappingTest(unittest.TestCase):
    def test_mapping_covers_benchmark_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "mapping.json")) as f:
            mapping = json.load(f)
        workloads = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(workloads), sorted(mapping["workloads"]))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(mapping["per_layer"]))
        for m in spec["end_to_end"]:
            self.assertEqual(sorted(mapping["end_to_end"][m["name"]]), sorted(workloads))
        for name, entry in mapping["per_layer"].items():
            for metric, workload in entry["moves"]:
                self.assertIn(workload, workloads, name)
                self.assertIn(metric, mapping["end_to_end"], name)
            self.assertTrue(set(entry["on"]) <= set(workloads), name)


if __name__ == "__main__":
    unittest.main()
