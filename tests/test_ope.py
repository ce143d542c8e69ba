from fractions import Fraction

import numpy as np
import pytest

from conftest import make_dataset, make_instance
from fairmatch import core, ope


def one_queue(ds):
    return ["q0"] * len(ds)


class StubProp:
    feature_mode = "score"

    def __init__(self, value=0.5):
        self.value = value

    def prob_of(self, X, treatments):
        return np.full(len(treatments), self.value)


class StubOut:
    resources = ["a", "b"]
    feature_mode = "score"

    def __init__(self, table):
        self.table = table

    def predict(self, X, resource):
        return np.full(len(np.atleast_2d(X)), self.table[resource])


def one_queue_instance():
    return make_instance([Fraction(1)], [Fraction(3, 5), Fraction(2, 5)], rho=1.0)


def uniform_policy():
    return core.Policy(np.array([[0.5, 0.5]]))


class TestPolicyRows:
    def instance(self):
        return make_instance([1, 1, 1], [Fraction(2), Fraction(1)], rho=1.0)

    def policy(self):
        return core.Policy(np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]]))

    def test_plain_list_of_queue_ids(self):
        queue_ids = ["q2", "q0", "q2", "q1"]
        rows = ope._policy_rows(self.policy(), queue_ids, self.instance())
        assert np.array_equal(rows, self.policy().probs[[2, 0, 2, 1]])

    def test_unknown_queue_rejected(self):
        with pytest.raises(ValueError, match="absent from instance"):
            ope._policy_rows(self.policy(), ["q0", "q7"], self.instance())

    def test_zero_records(self):
        rows = ope._policy_rows(self.policy(), [], self.instance())
        assert rows.shape == (0, 2)


class TestDirectMethod:
    def test_single_record_mixture(self):
        ds = make_dataset([0.0], ["a"], [1])
        est = ope.evaluate_dm(ds, uniform_policy(), one_queue(ds),
                              StubOut({"a": 0.2, "b": 0.6}), one_queue_instance())
        assert est.value == pytest.approx(0.4, abs=1e-12)

    def test_constant_model_returns_constant(self):
        ds = make_dataset([0.1, 0.2, 0.3], ["a", "b", "a"], [0, 1, 0])
        est = ope.evaluate_dm(ds, uniform_policy(), one_queue(ds),
                              StubOut({"a": 0.3, "b": 0.3}), one_queue_instance())
        assert est.value == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_policy_reads_one_column(self):
        ds = make_dataset([0.0, 1.0], ["a", "b"], [1, 0])
        policy = core.Policy(np.array([[0.0, 1.0]]))
        est = ope.evaluate_dm(ds, policy, one_queue(ds),
                              StubOut({"a": 0.1, "b": 0.9}), one_queue_instance())
        assert est.value == pytest.approx(0.9, abs=1e-12)


class TestIPW:
    def test_single_record(self):
        # pi_obs = 0.5, pbar = 0.5, Y = 1 -> weight 1, value 1
        ds = make_dataset([0.0], ["a"], [1])
        est = ope.evaluate_ipw(ds, uniform_policy(), one_queue(ds), StubProp(0.5),
                               one_queue_instance())
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_historical_policy_recovers_outcome_mean(self):
        # when pi equals the logging propensities the weights are all 1
        rng = np.random.default_rng(0)
        n = 500
        treat = np.where(rng.random(n) < 0.5, "a", "b")
        y = rng.integers(0, 2, n)
        ds = make_dataset(rng.uniform(0, 1, n), treat, y)
        est = ope.evaluate_ipw(ds, uniform_policy(), one_queue(ds), StubProp(0.5),
                               one_queue_instance())
        assert est.value == pytest.approx(float(y.mean()), abs=1e-12)
        assert est.n_effective == pytest.approx(n, abs=1e-9)

    def test_zero_propensity_rejected(self):
        ds = make_dataset([0.0], ["a"], [1])
        with pytest.raises(ValueError):
            ope.evaluate_ipw(ds, uniform_policy(), one_queue(ds), StubProp(0.0),
                             one_queue_instance())


class TestDoublyRobust:
    def test_perfect_outcome_model_reduces_to_dm(self):
        rng = np.random.default_rng(1)
        n = 300
        treat = np.where(rng.random(n) < 0.5, "a", "b")
        y = (treat == "b").astype(int)
        ds = make_dataset(rng.uniform(0, 1, n), treat, y)
        out = StubOut({"a": 0.0, "b": 1.0})  # matches every observed outcome
        dm = ope.evaluate_dm(ds, uniform_policy(), one_queue(ds), out,
                             one_queue_instance())
        dr = ope.evaluate_dr(ds, uniform_policy(), one_queue(ds), out, StubProp(0.5),
                             one_queue_instance())
        assert dr.value == pytest.approx(dm.value, abs=1e-12)

    def test_three_record_hand_computation(self):
        ds = make_dataset([0.0, 0.0, 0.0], ["a", "b", "b"], [1, 0, 1])
        out = StubOut({"a": 0.5, "b": 0.5})
        dr = ope.evaluate_dr(ds, uniform_policy(), one_queue(ds), out, StubProp(0.5),
                             one_queue_instance())
        # DM = 0.5; corrections: (1-.5)*1, (0-.5)*1, (1-.5)*1 -> mean 1/6
        assert dr.value == pytest.approx(0.5 + 1.0 / 6.0, abs=1e-12)


class TestGroundTruth:
    def test_deterministic_policy_reads_po_column(self):
        po = {"a": [0, 1], "b": [1, 1]}
        ds = make_dataset([0.0, 1.0], ["a", "a"], [0, 1], po=po)
        policy = core.Policy(np.array([[0.0, 1.0]]))
        est = ope.evaluate_gt(ds, policy, one_queue(ds), one_queue_instance())
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_uniform_policy_averages_columns(self):
        po = {"a": [0, 0], "b": [1, 1]}
        ds = make_dataset([0.0, 1.0], ["a", "a"], [0, 0], po=po)
        est = ope.evaluate_gt(ds, uniform_policy(), one_queue(ds),
                              one_queue_instance())
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_missing_po_rejected(self):
        ds = make_dataset([0.0], ["a"], [1])
        with pytest.raises(ValueError):
            ope.evaluate_gt(ds, uniform_policy(), one_queue(ds), one_queue_instance())


class TestOptimizationSideValue:
    def test_matches_policy_value(self):
        inst = make_instance([Fraction(1, 2)], [Fraction(3, 10), Fraction(1, 5)],
                             rho=1.0)
        flows = core.FlowMatrix(np.array([[0.3, 0.2]]))
        tau = core.CATEMatrix(np.array([[0.0, 0.5]]), 0.1)
        ds = make_dataset([0.0, 1.0], ["a", "b"], [1, 0],
                          po={"a": np.array([1, 0]), "b": np.array([0, 1])})
        out, prop = StubOut({"a": 0.2, "b": 0.6}), StubProp(0.5)
        values = ope.evaluate_all(ope.ESTIMATORS, ds, flows, one_queue(ds), inst,
                                  tau, out, prop)
        assert list(values) == list(ope.ESTIMATORS)
        assert values["CT"] == pytest.approx(core.policy_value(flows, tau, inst),
                                             abs=1e-12)
        policy = core.policy_from_flows(flows, inst)
        for name in ("DM", "DR", "IPW", "GT"):
            assert values[name] == ope.estimate(name, ds, policy, one_queue(ds),
                                                inst, out, prop).value


class TestPerGroup:
    def test_weighted_average_identity(self):
        rng = np.random.default_rng(2)
        n = 400
        labels = np.where(rng.random(n) < 0.3, "A", "B")
        treat = np.where(rng.random(n) < 0.5, "a", "b")
        y = rng.integers(0, 2, n)
        ds = make_dataset(rng.uniform(0, 1, n), treat, y,
                          groups={"race": labels.astype(object)})
        values = ope.per_group_values(ds, uniform_policy(), one_queue(ds),
                                      one_queue_instance(), "IPW", "race",
                                      prop=StubProp(0.5))
        overall = ope.evaluate_ipw(ds, uniform_policy(), one_queue(ds),
                                   StubProp(0.5), one_queue_instance()).value
        n_a = int((labels == "A").sum())
        blended = (values["A"] * n_a + values["B"] * (n - n_a)) / n
        assert blended == pytest.approx(overall, abs=1e-12)

    def test_single_group_rejected_dimension(self):
        ds = make_dataset([0.0], ["a"], [1])
        with pytest.raises(ValueError):
            ope.per_group_values(ds, uniform_policy(), one_queue(ds),
                                 one_queue_instance(), "GT", "race")
