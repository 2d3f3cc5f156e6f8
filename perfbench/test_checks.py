#!/usr/bin/env python3
"""Tests of the benchmark's output checks: each must pass a sound output
and trip on a deliberately corrupted one.

    python3 perfbench/test_checks.py
"""

import json
import math
import random
import unittest

import checks


def ledger_lines(costs):
    return [json.dumps({"algo": "dp_greedy", "phase": "phase2.unpacked", "item": i % 24,
                        "option_chosen": "cache", "t": float(i), "cost": c})
            for i, c in enumerate(costs)]


def summary(lines, total):
    return f"wrote ledger.jsonl: {len(lines)} events, total {total:.4f} (reconciles with DP_Greedy)\n"


class LedgerTotal(unittest.TestCase):
    def setUp(self):
        rng = random.Random(7)
        self.costs = [rng.choice([4.0, 3.2, rng.uniform(0.01, 9.0)]) for _ in range(20000)]
        # The solver's own total sums the same terms in another order, so
        # it differs from the file-order sum by rounding alone.
        self.total = math.fsum(self.costs)
        self.lines = ledger_lines(self.costs)

    def test_sound_ledger_passes(self):
        self.assertEqual(checks.check_ledger(self.lines, summary(self.lines, self.total),
                                             self.total), [])

    def test_one_mispriced_line_trips(self):
        bad = list(self.costs)
        bad[1234] += 0.001
        lines = ledger_lines(bad)
        errs = checks.check_ledger(lines, summary(lines, self.total), self.total)
        self.assertTrue(any("re-sums" in e for e in errs), errs)

    def test_dropped_line_trips(self):
        lines = self.lines[:-1]
        errs = checks.check_ledger(lines, summary(self.lines, self.total), self.total)
        self.assertTrue(errs)


class AccessCount(unittest.TestCase):
    doc = {"algo": "optimal", "kind": "offline", "total_cost": 412420.7176470605,
           "ave_cost": 412420.7176470605 / 134637, "total_accesses": 134637,
           "reconciliation_gap": 1.4e-7}

    def test_every_access_passes(self):
        self.assertEqual(checks.check_run(dict(self.doc), "optimal", 134637), [])

    def test_one_missing_access_trips(self):
        doc = dict(self.doc, total_accesses=134636, ave_cost=self.doc["total_cost"] / 134636)
        errs = checks.check_run(doc, "optimal", 134637)
        self.assertTrue(any("total_accesses" in e for e in errs), errs)


class CostBounds(unittest.TestCase):
    costs = {"optimal": 100.0, "greedy": 110.0, "dp_greedy": 95.0, "package_served": 97.0}

    def test_theorem_one_holds(self):
        self.assertEqual(checks.check_bounds(self.costs, ("dp_greedy", "package_served")), [])

    def test_greedy_below_optimal_trips(self):
        self.assertTrue(checks.check_bounds(dict(self.costs, greedy=99.0), ()))

    def test_packing_outside_bounds_trips(self):
        self.assertTrue(checks.check_bounds(dict(self.costs, dp_greedy=79.0), ("dp_greedy",)))
        self.assertTrue(checks.check_bounds(dict(self.costs, dp_greedy=251.0), ("dp_greedy",)))

    def test_encoding_identity_is_bitwise(self):
        a = 23860.985882352954
        self.assertEqual(checks.check_same_bits(a, a, "json vs dpgb"), [])
        self.assertTrue(checks.check_same_bits(a, math.nextafter(a, 0.0), "json vs dpgb"))


class DaemonAccounting(unittest.TestCase):
    expect = {"requests": 200, "epoch_len": 64, "epochs": 3, "settled_accesses": 350,
              "cum_cost": 1234.5678901234567, "cum_cost_rebased": 456.78901234567891}
    state = {"epoch": 3, "admitted": 200, "cum_cost": 1234.5678901234567, "ok_accesses": 350,
             "degraded_accesses": 0, "degraded_epochs": [],
             "pending": [{"time": 1.0, "server": 0, "items": [1]}] * 8}

    def test_sound_state_passes(self):
        self.assertEqual(checks.check_served_state(dict(self.state), self.expect), [])

    def test_degraded_epoch_trips(self):
        state = dict(self.state, degraded_epochs=[1], degraded_accesses=120, ok_accesses=230)
        errs = checks.check_served_state(state, self.expect)
        self.assertTrue(any("degraded" in e for e in errs), errs)

    def test_cost_off_by_one_ulp_trips(self):
        state = dict(self.state, cum_cost=math.nextafter(self.state["cum_cost"], 0.0))
        self.assertTrue(checks.check_served_state(state, self.expect))

    def test_rebased_epoch_pricing_passes(self):
        state = dict(self.state, cum_cost=self.expect["cum_cost_rebased"])
        self.assertEqual(checks.check_served_state(state, self.expect), [])

    def test_rebased_cost_off_by_one_ulp_trips(self):
        cost = math.nextafter(self.expect["cum_cost_rebased"], math.inf)
        self.assertTrue(checks.check_served_state(dict(self.state, cum_cost=cost), self.expect))

    def test_other_cost_trips(self):
        for cost in (0.0, 900.0, None, "1234.5678901234567"):
            errs = checks.check_served_state(dict(self.state, cum_cost=cost), self.expect)
            self.assertTrue(any("cum_cost" in e for e in errs), (cost, errs))

    def test_summary_counts(self):
        line = "serve: stream.txt done: admitted=200 stale=0 rejected=1 malformed=0 replayed=0"
        s = checks.parse_serve_summary(line)
        self.assertTrue(checks.check_serve_summary(s, 200))
        self.assertEqual(checks.check_serve_summary(dict(s, rejected=0), 200), [])


class Recovery(unittest.TestCase):
    def dump(self, pending, cum_cost=0.0):
        return json.dumps({"epoch": 0, "admitted": len(pending), "cum_cost": cum_cost,
                           "pending": pending}, indent=2) + "\n"

    def setUp(self):
        self.pending = [{"time": 0.1 * (i + 1), "server": i % 5, "items": [i % 24]}
                        for i in range(500)]
        self.first = self.dump(self.pending)

    def test_identical_restarts_pass(self):
        self.assertEqual(checks.check_recovered_state(self.first, None, 500), [])
        self.assertEqual(checks.check_recovered_state(self.dump(self.pending), self.first, 500),
                         [])

    def test_differing_recovered_state_trips(self):
        pending = [dict(p) for p in self.pending]
        pending[250]["server"] = (pending[250]["server"] + 1) % 5
        errs = checks.check_recovered_state(self.dump(pending), self.first, 500)
        self.assertTrue(any("differs" in e for e in errs), errs)

    def test_short_replay_trips(self):
        errs = checks.check_recovered_state(self.dump(self.pending[:-1]), None, 500)
        self.assertTrue(errs)


if __name__ == "__main__":
    unittest.main()
