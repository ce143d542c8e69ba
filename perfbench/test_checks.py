"""The benchmark's checks reject planted wrong outputs and pass right ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402

LAM = np.array([1.0, 1.0])
MU = np.array([1.0, 1.0])
FULL = np.ones((2, 2), dtype=int)
QP = np.full((2, 2), 0.5)          # symmetric rates: the QP splits evenly


def leaf(value):
    return SimpleNamespace(feature=-1, threshold=None, left=None, right=None, value=value)


def split(threshold, left, right):
    return SimpleNamespace(feature=0, threshold=threshold, left=left, right=right,
                           value=None)


def only_check_error(fn, *args):
    """fn raises CheckError itself, not the counted FlowMismatch."""
    with pytest.raises(checks.CheckError) as info:
        fn(*args)
    assert type(info.value) is checks.CheckError
    return info.value


class TestSolve:
    def test_qp_flows_pass(self):
        checks.check_solve(QP, QP, LAM, MU, FULL)

    def test_flows_off_by_1e3_rejected(self):
        off = QP + 1e-3 * np.array([[1.0, -1.0], [-1.0, 1.0]])   # still balanced
        with pytest.raises(checks.FlowMismatch):
            checks.check_solve(off, QP, LAM, MU, FULL)

    def test_two_component_topology_rejected(self):
        diagonal = np.eye(2, dtype=int)
        err = only_check_error(checks.check_solve, np.eye(2), np.eye(2), LAM, MU, diagonal)
        assert "2 pooled components" in str(err)

    def test_unbalanced_rows_rejected(self):
        only_check_error(checks.check_solve, QP * 1.01, QP * 1.01, LAM, MU, FULL)

    def test_flow_off_topology_rejected(self):
        only_check_error(checks.check_solve, QP, QP, LAM, MU, np.array([[1, 1], [1, 0]]))

    def test_balanced_mu_matches_arrivals(self):
        mu = checks.balanced_mu([Fraction(1), Fraction(1)], [Fraction(3), Fraction(1)])
        assert np.allclose(mu, [1.5, 0.5])


class TestSimulation:
    # q0 is served by r0 only; q1 is split between r0 and r1
    expected = {("q0", "r0"): 0.5, ("q0", "r1"): 0.0,
                ("q1", "r0"): 0.2, ("q1", "r1"): 0.3}
    horizon = 1e6

    def counts(self, **changes):
        out = {("q0", "r0"): 500_000, ("q0", "r1"): 0,
               ("q1", "r0"): 200_000, ("q1", "r1"): 300_000}
        out.update({(k[:2], k[2:]): v for k, v in changes.items()})
        return out

    def test_counts_inside_band_pass(self):
        checks.check_simulation(self.expected, self.counts(q0r0=501_000), self.horizon)

    def test_split_moves_inside_share_pass(self):
        checks.check_simulation(self.expected, self.counts(q1r0=210_000, q1r1=290_000),
                                self.horizon)

    def test_counts_outside_band_rejected(self):
        only_check_error(checks.check_simulation, self.expected,
                         self.counts(q0r0=505_000), self.horizon)

    def test_queue_total_outside_band_rejected(self):
        only_check_error(checks.check_simulation, self.expected,
                         self.counts(q1r0=205_000), self.horizon)

    def test_split_beyond_share_rejected(self):
        only_check_error(checks.check_simulation, self.expected,
                         self.counts(q1r0=240_000, q1r1=260_000), self.horizon)

    def test_matches_on_idle_edge_rejected(self):
        only_check_error(checks.check_simulation, self.expected,
                         self.counts(q0r0=499_990, q0r1=10), self.horizon)


class TestSweep:
    def test_monotone_sweep_passes(self):
        checks.check_sweep(1.0, [(0.1, 0.9, {"A": 0.2}), (0.2, 0.8, {"A": 0.25})], 2)

    def test_objective_above_unconstrained_rejected(self):
        only_check_error(checks.check_sweep, 1.0, [(0.1, 1.01, {"A": 0.2})], 0)

    def test_rising_objective_rejected(self):
        only_check_error(checks.check_sweep, 1.0,
                         [(0.1, 0.8, {"A": 0.2}), (0.2, 0.9, {"A": 0.25})], 0)

    def test_unmet_bound_rejected(self):
        only_check_error(checks.check_sweep, 1.0, [(0.3, 0.9, {"A": 0.2})], 0)

    def test_too_few_binding_rejected(self):
        only_check_error(checks.check_sweep, 1.0, [(0.1, 1.0, {"A": 0.2})], 1)

    def test_linked_rows_differ_rejected(self):
        only_check_error(checks.check_linked, np.array([[1, 0], [1, 1]]), [[0, 1]])


class TestLearning:
    tree = split(0.0, leaf(0.1), split(0.5, leaf(0.2), leaf(0.3)))

    def test_interval_lookup_matches_tree_rule(self):
        thresholds, values = checks.interval_tree(self.tree)
        idx = checks.leaf_index(thresholds, [-1.0, 0.0, 0.2, 0.5, 0.9])
        assert [values[i] for i in idx] == [0.1, 0.1, 0.2, 0.2, 0.3]

    def test_unseen_tuple_takes_nearest(self):
        table = {(0, 0): "q0", (2, 2): "q1"}
        queues, idx = checks.assign_queues([self.tree, self.tree], table,
                                           np.array([-1.0, 0.9, 0.2]))
        assert queues == ["q0", "q1"]
        # (1, 1) is two leaves away from both; ties go to the smaller tuple
        assert idx.tolist() == [0, 1, 0]

    def test_propensity_off_table_rejected(self):
        classes = ["a", "b"]
        prop = split(0.0, leaf(np.array([0.5, 0.5])), leaf(np.array([0.9, 0.1])))
        scores = np.linspace(-1, 1, 10_001)
        table = {"low": (0.5, 0.5), "high": (0.9, 0.1)}
        checks.check_propensities(prop, classes, classes, scores, (0.0,), table)
        wrong = {"low": (0.5, 0.5), "high": (0.7, 0.3)}
        only_check_error(checks.check_propensities, prop, classes, classes, scores,
                         (0.0,), wrong)

    def test_dr_effect_far_from_truth_rejected(self):
        po = {"a": np.zeros(10_000, dtype=int), "b": np.ones(10_000, dtype=int)}
        queue = np.zeros(10_000, dtype=int)
        checks.check_dr_effects(np.array([[0.0, 0.98]]), queue, po, ["a", "b"], [0.3, 0.3])
        only_check_error(checks.check_dr_effects, np.array([[0.0, 0.5]]), queue, po,
                         ["a", "b"], [0.3, 0.3])


class TestOutputs:
    def test_ground_truth_mismatch_rejected(self):
        only_check_error(checks.check_ope, {"GT": 0.5, "DM": 0.5, "DR": 0.5}, 0.51,
                         100_000, 0.2)

    def test_dm_outside_band_rejected(self):
        only_check_error(checks.check_ope, {"GT": 0.5, "DM": 0.6, "DR": 0.5}, 0.5,
                         100_000, 0.2)

    def test_ct_order(self):
        checks.check_ct_order(0.42, 0.40)
        only_check_error(checks.check_ct_order, 0.40, 0.42)

    def test_fit_report_counts(self):
        only_check_error(checks.check_fit_report,
                         {"n_kept": 10, "queues": [{"count": 4}, {"count": 5}]})

    def test_changed_file_rejected(self):
        only_check_error(checks.check_identical, {"a": b"1"}, {"a": b"2"})
