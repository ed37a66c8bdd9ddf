#!/usr/bin/env python3
"""Self-test of compare.py on synthetic result files."""
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "paper", "why": "."}, {"name": "city", "why": "."}],
    "end_to_end": [
        {"name": "slots_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.05},
        {"name": "slot_p50_us", "unit": "us", "better": "lower",
         "bound": 0.05},
    ],
}


def run(rate, p50, failed=0, correct=True):
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"slots_per_s": {"value": rate, "unit": "1/s"},
                          "slot_p50_us": {"value": p50, "unit": "us"}}}
    return {"paper": result, "city": result}


def jitter(i, scale):
    """Deterministic spread in [-scale, scale]."""
    return scale * (((i * 7919) % 21) - 10) / 10.0


def side(rate, p50, rate_noise=0.0, p50_noise=0.0, n=10, **kw):
    return [run(rate * (1 + jitter(i, rate_noise)),
                p50 * (1 + jitter(i + 3, p50_noise)), **kw)
            for i in range(n)]


def verdicts(rows):
    return {w: v for w, v, _ in rows}


class CompareTest(unittest.TestCase):
    def test_clear_gain_is_met(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300, 0.01, 0.01),
                                    side(120, 300, 0.01, 0.01),
                                    ("paper", "slots_per_s"))
        self.assertTrue(ok)
        self.assertEqual(verdicts(rows)["paper"], "ok")
        self.assertIn("met", rows[0][2])

    def test_gain_within_parent_spread_is_not_met(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300, 0.2, 0.01),
                                    side(102, 300, 0.2, 0.01),
                                    ("paper", "slots_per_s"))
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)["paper"], "claim not met")

    def test_more_failures_void_a_gain(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300),
                                    side(120, 300, failed=1),
                                    ("paper", "slots_per_s"))
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows)["paper"], "claim not met")

    def test_regression_beyond_bound(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300, 0.01, 0.01),
                                    side(100, 330, 0.01, 0.01))
        self.assertFalse(ok)
        self.assertEqual(verdicts(rows), {"paper": "regressed",
                                          "city": "regressed"})

    def test_small_change_within_bound_is_ok(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300, 0.01, 0.01),
                                    side(99, 303, 0.01, 0.01))
        self.assertTrue(ok)
        self.assertEqual(set(verdicts(rows).values()), {"ok"})

    def test_spread_wider_than_bound_is_unresolved(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300, 0.01, 0.2),
                                    side(100, 300, 0.01, 0.2))
        self.assertTrue(ok)
        self.assertEqual(verdicts(rows)["paper"], "unresolved")

    def test_wide_spread_but_every_run_better_resolves(self):
        rows, ok = compare.evaluate(SPEC, side(100, 300, 0.01, 0.1),
                                    side(100, 150, 0.01, 0.1))
        self.assertTrue(ok)
        self.assertEqual(verdicts(rows)["paper"], "ok")

    def test_too_few_pairs_rejected(self):
        with self.assertRaises(ValueError):
            compare.evaluate(SPEC, side(100, 300, n=9), side(100, 300, n=9))

    def test_cli_prints_one_row_per_workload(self):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
            spec_path = os.path.join(tmp, "spec.json")
            with open(spec_path, "w") as f:
                json.dump(SPEC, f)
            paths = {"parent": [], "change": []}
            for name, runs in (("parent", side(100, 300, 0.01, 0.01)),
                               ("change", side(120, 290, 0.01, 0.01))):
                for i, r in enumerate(runs):
                    path = os.path.join(tmp, f"{name}{i}.json")
                    with open(path, "w") as f:
                        json.dump(r, f)
                    paths[name].append(path)
            code = compare.main(["--spec", spec_path,
                                 "--parent", *paths["parent"],
                                 "--change", *paths["change"],
                                 "--claim", "paper:slots_per_s"])
            self.assertEqual(code, 0)
            self.assertEqual(compare.main(["--spec", spec_path, "--parent",
                                           paths["parent"][0], "--change",
                                           paths["change"][0]]), 2)


if __name__ == "__main__":
    unittest.main()
