"""Self-tests of the benchmark harness: the statistics it reports, self time
of nested and sibling spans, that tracing wrappers are put in place and
removed, and that the oracles agree with brute force.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import importlib
import inspect
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spread  # noqa: E402
import tracer as trace  # noqa: E402
import workloads  # noqa: E402


def package_modules():
    """The already imported package; run.import_package would replace it."""
    return {name: importlib.import_module(f"smposet.{name}") for name in run.LAYERS}


def span(name, start, end, parent=-1, op=(0, 0), error=0):
    return [name, start, end, parent, op, error, None]


class StatisticsTest(unittest.TestCase):
    def test_op_kind_sums_and_medians_of_per_op_medians(self):
        ops = [workloads.Op("count", "a", []), workloads.Op("count", "b", []),
               workloads.Op("count", "c", []), workloads.Op("median", "a", [])]
        samples = [[1.0, 3.0, 2.0], [10.0, 30.0], [5.0], [0.25, 0.5, 0.75, 100.0]]
        medians, kinds = run.op_kind_metrics(ops, samples)
        self.assertEqual(medians, [2.0, 20.0, 5.0, 0.625])
        self.assertEqual(kinds["count"]["total_s"], 27.0)
        self.assertEqual(kinds["count"]["p50_ms"], 5000.0)
        self.assertEqual((kinds["count"]["ops"], kinds["count"]["samples"]), (3, 6))
        self.assertEqual(kinds["median"]["p50_ms"], 625.0)

    def test_spread_is_quartile_distance_over_median(self):
        values = [float(v) for v in range(1, 11)]
        # exclusive quartiles of 1..10 are 2.75 and 8.25
        self.assertAlmostEqual(spread.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(spread.spread([3.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_children(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("a.inner", 2.0, 3.0, parent=1),
            span("b", 5.0, 6.5, parent=0),
            span("leaf", 7.0, 7.25, parent=0),
        ]
        self.assertEqual(trace.self_times(spans), [10.0 - 3.0 - 1.5 - 0.25, 2.0, 1.0, 1.5, 0.25])

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            span("root", 0.0, 10.0),
            span("x", 2.0, 6.0, parent=0),
            span("y", 4.0, 8.0, parent=0),
            span("z", 9.0, 12.0, parent=0),
        ]
        self.assertEqual(trace.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_covered_length_merges_touching_intervals(self):
        self.assertEqual(trace.covered_length([(0, 1), (1, 2), (3, 4)], 0, 10), 3)
        self.assertEqual(trace.covered_length([], 0, 10), 0)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.mods = package_modules()
        self.members = run.traced_members(self.mods)

    def originals(self):
        out = {}
        for mod in self.mods.values():
            out.update({(id(mod), k): v for k, v in vars(mod).items()})
        for owner, attr, _name in self.members:
            out[(id(owner), attr)] = owner.__dict__[attr]
        return out

    def public_functions(self):
        return {
            obj
            for mod in self.mods.values()
            for attr, obj in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__
        }

    def test_install_wraps_every_caller_attribute_and_uninstall_restores(self):
        before = self.originals()
        public = self.public_functions()
        holders = {
            f"{short}.{attr}"
            for short, mod in self.mods.items()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in public
        }
        self.assertGreater(len(holders), len(public))  # imported names are wrapped too
        tracer = trace.Tracer(self.mods, self.members)
        with tracer:
            wrapped = set(trace.wrapped_attributes(self.mods, self.members))
            self.assertEqual(wrapped, holders | {name for _o, _a, name in self.members})
            sp = sys.modules["smposet"]
            inst = sp.parse_instance(
                (HERE.parent / "tests" / "data" / "example_rotation_poset.sm").read_text()
            )
            tracer.begin_op((0, 0))
            self.assertEqual(self.mods["fairness"].count_stable_matchings(inst), 4)
        self.assertEqual(trace.wrapped_attributes(self.mods, self.members), [])
        after = self.originals()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        names = [s[trace.NAME] for s in tracer.spans]
        self.assertEqual(names[0], "fairness.count_stable_matchings")
        self.assertIn("posets.Dag", names)
        self.assertTrue(all(s[trace.PARENT] >= 0 for s in tracer.spans[1:]))
        self.assertTrue(all(s[trace.OP] == (0, 0) for s in tracer.spans))

    def test_untraced_runs_refuse_leftover_wrappers(self):
        plan = workloads.Plan("x", [workloads.Op("count", "a", ["count", "--dag", "missing"])])
        runner = run.Runner(self.mods, plan)
        tracer = trace.Tracer(self.mods, self.members)
        tracer.install()
        try:
            with self.assertRaises(RuntimeError):
                runner.timed(0.0)
            self.assertEqual(runner.executions, 0)
        finally:
            tracer.uninstall()
        runner.require_untraced()

    def test_error_counts_once_where_it_started(self):
        mod = type(sys)("fake")
        mod.__name__ = "fake"

        def inner():
            raise ValueError("refused")

        def outer():
            return mod.inner()

        inner.__module__ = outer.__module__ = "fake"
        mod.inner, mod.outer = inner, outer
        tracer = trace.Tracer({"fake": mod})
        with tracer:
            tracer.begin_op((0, 0))
            with self.assertRaises(ValueError):
                mod.outer()
        self.assertIs(mod.inner, inner)
        errors = {s[trace.NAME]: s[trace.ERROR] for s in tracer.spans}
        self.assertEqual(errors, {"fake.outer": 0, "fake.inner": 1})


class OracleTest(unittest.TestCase):
    def test_transfer_count_matches_brute_force(self):
        self.assertEqual(checks.check_transfer_count(sys.modules["smposet"]), [])

    def test_transfer_count_of_the_ladder_is_n_plus_one(self):
        self.assertEqual(checks.transfer_count(50, 3, workloads.ladder_edges(50)), 51)

    def test_stability_check_finds_blocking_pair(self):
        men = [[0, 1], [0, 1]]
        women = [[0, 1], [0, 1]]
        self.assertIsNone(checks.stability_problem(men, women, [(0, 0), (1, 1)]))
        self.assertIn("blocking", checks.stability_problem(men, women, [(0, 1), (1, 0)]))

    def test_relabeling_keeps_the_structure(self):
        men_a, women_a = workloads.random_complete_prefs(12, seed=1)
        men_b, women_b = workloads.random_complete_prefs(12, seed=2)
        self.assertNotEqual(men_a, men_b)
        sp = sys.modules["smposet"]
        count = sp.count_stable_matchings
        self.assertEqual(count(sp.Instance(men_a, women_a)), count(sp.Instance(men_b, women_b)))

    def test_band_bags_cover_the_band(self):
        sp = sys.modules["smposet"]
        rng = random.Random(3)
        for n in (1, 4, 11, 30):
            g = sp.Dag(n, workloads.band_edges(rng, n, 10, 0.5))
            x = sp.PathDecomposition.of(workloads.band_bags(n, 10))
            self.assertTrue(sp.validate_decomposition(g, x))


class SpecTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
