from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance
from fairmatch import core


class TestRationalize:
    def test_exact_fraction_passthrough(self):
        assert core.rationalize(Fraction(1, 3)) == Fraction(1, 3)

    def test_decimal_cap(self):
        f = core.rationalize(0.123456789)
        assert f.denominator <= 10 ** 6
        assert abs(float(f) - 0.123456789) < 1e-6

    @given(st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_close_to_input(self, x):
        f = core.rationalize(x)
        assert f.denominator <= 10 ** 6
        assert abs(float(f) - x) <= max(1e-6, abs(x) * 1e-6)


class TestPolicyFromFlows:
    def test_direct_division(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(3, 10), Fraction(1, 5)])
        policy = core.policy_from_flows(core.FlowMatrix(np.array([[0.3, 0.2]])), inst)
        assert np.allclose(policy.probs, [[0.6, 0.4]])

    def test_single_edge(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 10)])
        policy = core.policy_from_flows(core.FlowMatrix(np.array([[0.5, 0.0]])), inst)
        assert np.allclose(policy.probs, [[1.0, 0.0]])

    def test_symmetric_uniform(self):
        inst = make_instance([1, 1], [1, 1])
        f = core.FlowMatrix(np.full((2, 2), 0.5))
        policy = core.policy_from_flows(f, inst)
        assert np.allclose(policy.probs, 0.25 * np.ones((2, 2)) * 2)

    def test_row_balance_enforced(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            core.policy_from_flows(core.FlowMatrix(np.array([[0.3, 0.3]])), inst)

    def test_dimension_mismatch(self):
        inst = make_instance([1, 1], [1, 1])
        with pytest.raises(ValueError):
            core.policy_from_flows(core.FlowMatrix(np.array([[1.0, 0.0]])), inst)


class TestPolicyValue:
    def test_direct_evaluation(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(3, 10), Fraction(1, 5)])
        f = core.FlowMatrix(np.array([[0.3, 0.2]]))
        tau = core.CATEMatrix(np.array([[0.0, 0.5]]), 0.1)
        assert core.policy_value(f, tau, inst) == pytest.approx(0.3, abs=1e-12)

    def test_zero_effect_returns_baseline(self):
        inst = make_instance([1, 1], [1, 1])
        f = core.FlowMatrix(np.full((2, 2), 0.5))
        tau = core.CATEMatrix(np.zeros((2, 2)), 0.4)
        assert core.policy_value(f, tau, inst) == pytest.approx(0.4, abs=1e-12)

    def test_linearity_in_flows_and_effects(self):
        rng = np.random.default_rng(0)
        inst = make_instance([1, 2], [2, 2])
        for _ in range(20):
            f1, f2 = rng.random((2, 2)), rng.random((2, 2))
            t = rng.normal(size=(2, 2))
            t[:, 0] = 0.0
            tau = core.CATEMatrix(t, 0.0)
            lhs = core.policy_value(core.FlowMatrix(f1 + f2), tau, inst)
            rhs = (core.policy_value(core.FlowMatrix(f1), tau, inst)
                   + core.policy_value(core.FlowMatrix(f2), tau, inst))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_exhaustive_expectation_identity(self):
        # finite population with known potential outcomes, exact arithmetic
        po = {
            "base": [0, 1, 0, 1, 0, 0],
            "alt": [1, 1, 0, 1, 1, 0],
        }
        queue_of = [0, 0, 0, 1, 1, 1]
        n = 6
        lam = (Fraction(3), Fraction(3))
        inst = make_instance(lam, [Fraction(4), Fraction(3)])
        flows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
        tau = np.zeros((2, 2))
        for q in range(2):
            members = [i for i in range(n) if queue_of[i] == q]
            tau[q, 1] = float(Fraction(sum(po["alt"][i] - po["base"][i]
                                           for i in members), len(members)))
        c = Fraction(sum(po["base"]), n)
        value = core.policy_value(core.FlowMatrix(np.array(flows, dtype=float)),
                                  core.CATEMatrix(tau, float(c)), inst)
        expectation = Fraction(0)
        for i in range(n):
            q = queue_of[i]
            for r, name in enumerate(("base", "alt")):
                pi = flows[q][r] / lam[q]
                expectation += Fraction(1, n) * pi * po[name][i]
        assert abs(value - float(expectation)) < 1e-9


class TestValidateInstance:
    def test_consistent(self):
        inst = make_instance([Fraction(1, 2)],
                             [Fraction(1, 2), Fraction(1, 2)], rho=0.5)
        report = core.validate_instance(inst)
        assert report["rho_consistent"]
        assert report["lam_positive"] and report["mu_positive"]

    def test_zero_rate_flagged(self):
        inst = make_instance([Fraction(0)], [Fraction(1)], rho=0.0)
        report = core.validate_instance(inst)
        assert not report["lam_positive"]
        assert report["zero_rate_queues"] == ["q0"]

    def test_denominators_reported(self):
        inst = make_instance([core.rationalize(0.123)],
                             [core.rationalize(0.456)], rho=0.27)
        report = core.validate_instance(inst)
        assert report["max_denominator"] <= 10 ** 6


class TestDataset:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 40
        scores = rng.normal(size=n)
        ds = core.Dataset(scores[:, None], scores,
                          {"race": np.array(["A", "B"] * (n // 2), dtype=object)},
                          np.array(["x", "y"] * (n // 2), dtype=object),
                          rng.integers(0, 2, n),
                          np.sort(rng.random(n) * 100),
                          ["x", "y"], ["score"],
                          potential_outcomes={"x": rng.integers(0, 2, n),
                                              "y": rng.integers(0, 2, n)})
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        back = core.Dataset.from_csv(path, ["x", "y"], ["score"], ["race"])
        assert np.allclose(back.score, ds.score)
        assert list(back.treatment) == list(ds.treatment)
        assert np.array_equal(back.outcome, ds.outcome)
        assert np.array_equal(back.potential_outcomes["y"],
                              ds.potential_outcomes["y"])

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 30
        features = rng.normal(size=(n, 2)) * [1.0, 1e-7]
        ds = core.Dataset(features, features[:, 0] + 1 / 3,
                          {"race": [str(g) for g in rng.choice(["A", "BB"], n)]},
                          [str(t) for t in rng.choice(["x", "y"], n)],
                          rng.integers(0, 2, n), np.sort(rng.random(n) * 100),
                          ["x", "y"], ["f0", "f1"],
                          potential_outcomes={"x": rng.integers(0, 2, n),
                                              "y": rng.integers(0, 2, n)})
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        back = core.Dataset.from_csv(path, ["x", "y"], ["f0", "f1"], ["race"])
        pairs = [(back.features, ds.features), (back.score, ds.score),
                 (back.groups["race"], ds.groups["race"]),
                 (back.treatment, ds.treatment), (back.outcome, ds.outcome),
                 (back.arrival_time, ds.arrival_time), (back.ids, ds.ids)]
        pairs += [(back.potential_outcomes[r], ds.potential_outcomes[r]) for r in "xy"]
        assert list(back.potential_outcomes) == ["x", "y"]
        for got, want in pairs:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("text, message", [
        ("", "empty"),
        ("id,score,treatment,outcome,arrival_time\n", "empty"),
        ("id,treatment,outcome,arrival_time\n0,x,1,0.5\n", "missing column: score"),
        ("id,score,treatment,outcome,arrival_time\n0,,x,1,0.5\n", "missing value"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,x,1,0.5,9\n", "data row 1"),
        ("id,score,score,treatment,outcome,arrival_time\n0,0.1,0.2,x,1,0.5\n",
         "repeated column names: \\['score'\\]"),
        ("id,score,treatment,outcome,arrival_time\n0,0.1,x,1,0.5\n1,0.2,y,0\n",
         "data row 2"),
    ])
    def test_csv_errors(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            core.Dataset.from_csv(path, ["x", "y"], ["score"])

    def test_score_feature_written_once(self, tmp_path):
        scores = np.array([0.25, -1.5, 3.0])
        other = np.array([7.0, 8.0, 9.0])
        args = (np.array(["x", "y", "x"], dtype=object), np.array([1, 0, 1]),
                np.array([0.0, 1.0, 2.0]), ["x", "y"])
        ds = core.Dataset(np.column_stack([other, scores]), scores, {}, *args,
                          ["other", "score"])
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == \
            "id,other,score,treatment,outcome,arrival_time"
        back = core.Dataset.from_csv(path, ["x", "y"], ["other", "score"])
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.score, ds.score)
        differs = core.Dataset(np.column_stack([other, scores + 1]), scores, {}, *args,
                               ["other", "score"])
        with pytest.raises(ValueError, match="feature 'score' differs"):
            differs.to_csv(tmp_path / "e.csv")

    def test_unknown_treatment_rejected(self):
        with pytest.raises(ValueError):
            core.Dataset(np.zeros((2, 1)), np.zeros(2), {},
                         np.array(["x", "z"], dtype=object),
                         np.array([0, 1]), np.array([0.0, 1.0]),
                         ["x", "y"], ["score"])

    def test_treatment_index(self):
        ds = core.Dataset(np.zeros((4, 1)), np.zeros(4), {},
                          np.array(["y", "x", "z", "y"], dtype=object),
                          np.zeros(4, dtype=int), np.zeros(4), ["z", "x", "y"], ["score"])
        assert np.array_equal(ds.treatment_index(), [2, 1, 0, 2])

    def test_subset_preserves_alignment(self):
        scores = np.array([1.0, 2.0, 3.0])
        ds = core.Dataset(scores[:, None], scores, {},
                          np.array(["x", "y", "x"], dtype=object),
                          np.array([1, 0, 1]), np.array([0.0, 1.0, 2.0]),
                          ["x", "y"], ["score"])
        sub = ds.subset(ds.treatment == "x")
        assert len(sub) == 2
        assert np.allclose(sub.score, [1.0, 3.0])
        assert np.array_equal(sub.outcome, [1, 1])


class TestTypeInvariants:
    def test_policy_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            core.Policy(np.array([[0.7, 0.2]]))

    def test_cate_baseline_column_zero(self):
        with pytest.raises(ValueError):
            core.CATEMatrix(np.array([[0.1, 0.2]]), 0.0)

    def test_topology_binary(self):
        with pytest.raises(ValueError):
            core.MatchingTopology(np.array([[0.5, 1.0]]))

    def test_flow_nonnegative(self):
        with pytest.raises(ValueError):
            core.FlowMatrix(np.array([[-0.1, 0.2]]))
