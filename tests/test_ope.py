from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (reference_cate_dr, reference_evaluate_dm, reference_evaluate_dr,
                      reference_evaluate_gt, reference_evaluate_ipw)
from conftest import make_dataset, make_instance
from fairmatch import causal, core, ope


def one_queue(ds):
    return ["q0"] * len(ds)


class StubProp:
    feature_mode = "score"
    resources = ["a", "b"]

    def __init__(self, value=0.5):
        self.value = value

    def predict_proba(self, X):
        return np.full((len(np.atleast_2d(X)), 2), self.value)


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
        rows = core.rows_of(queue_ids, self.instance().queues)
        assert np.array_equal(self.policy().probs[rows],
                              self.policy().probs[[2, 0, 2, 1]])

    def test_unknown_queue_rejected(self):
        with pytest.raises(ValueError, match="absent from instance"):
            core.rows_of(["q0", "q7"], self.instance().queues)

    def test_zero_records(self):
        rows = core.rows_of([], self.instance().queues)
        assert self.policy().probs[rows].shape == (0, 2)


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

    def test_propensity_read_by_resource_name(self):
        # the model lists its resources in another order than the dataset
        class Reordered:
            feature_mode = "score"
            resources = ["b", "a"]

            def predict_proba(self, X):
                return np.tile([0.8, 0.2], (len(np.atleast_2d(X)), 1))
        ds = make_dataset([0.0, 1.0], ["a", "b"], [1, 0])
        est = ope.evaluate_ipw(ds, uniform_policy(), one_queue(ds), Reordered(),
                               one_queue_instance())
        assert est.value == pytest.approx(0.5 / 0.2 / 2, abs=1e-12)

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
        table = ope.score_table(ds, one_queue(ds), inst.queues, out, prop)
        values = ope.evaluate_all(ope.ESTIMATORS, table, flows, inst, tau)
        assert list(values) == list(ope.ESTIMATORS)
        assert values["CT"] == pytest.approx(core.policy_value(flows, tau, inst),
                                             abs=1e-12)
        policy = core.policy_from_flows(flows, inst)
        q = one_queue(ds)
        single = {"DM": ope.evaluate_dm(ds, policy, q, out, inst),
                  "DR": ope.evaluate_dr(ds, policy, q, out, prop, inst),
                  "IPW": ope.evaluate_ipw(ds, policy, q, prop, inst),
                  "GT": ope.evaluate_gt(ds, policy, q, inst)}
        for name, est in single.items():
            assert (est.estimator, values[name]) == (name, est.value)


class TestPerGroup:
    def test_weighted_average_identity(self):
        rng = np.random.default_rng(2)
        n = 400
        labels = np.where(rng.random(n) < 0.3, "A", "B")
        treat = np.where(rng.random(n) < 0.5, "a", "b")
        y = rng.integers(0, 2, n)
        ds = make_dataset(rng.uniform(0, 1, n), treat, y,
                          groups={"race": labels.astype(object)})
        table = ope.score_table(ds, one_queue(ds), one_queue_instance().queues,
                                prop=StubProp(0.5), names=["IPW"])
        values = ope.per_group_values(table, uniform_policy(), "IPW", "race")
        overall = ope.evaluate_ipw(ds, uniform_policy(), one_queue(ds),
                                   StubProp(0.5), one_queue_instance()).value
        n_a = int((labels == "A").sum())
        blended = (values["A"] * n_a + values["B"] * (n - n_a)) / n
        assert blended == pytest.approx(overall, abs=1e-12)

    def test_single_group_rejected_dimension(self):
        ds = make_dataset([0.0], ["a"], [1])
        table = ope.score_table(ds, one_queue(ds), ["q0"],
                                StubOut({"a": 0.2, "b": 0.6}), names=["DM"])
        with pytest.raises(ValueError):
            ope.per_group_values(table, uniform_policy(), "DM", "race")


def test_score_table_covers_every_estimator_but_ct():
    assert set(ope._ESTIMATORS) == set(ope.ESTIMATORS) - {"CT"}


class TableProp:
    """Stub propensities, one row per record; the design's score is the
    record's index."""

    feature_mode = "score"

    def __init__(self, table, resources):
        self.table, self.resources = table, resources

    def predict_proba(self, X):
        return self.table[np.atleast_2d(X)[:, 0].astype(int)]


class TableOut:
    feature_mode = "score"

    def __init__(self, table, resources):
        self.table, self.resources = table, resources

    def predict(self, X, resource):
        return self.table[np.atleast_2d(X)[:, 0].astype(int),
                          self.resources.index(resource)]


class TestScoreTableMatchesOracle:
    """The score table against the estimators as they were written before it:
    several queues of unequal size in shuffled record order, group labels,
    propensities in [0.01, 1], and a queue whose records all sit in one arm."""

    @staticmethod
    def _case(data):
        resources = ["a", "b", "c"][:data.draw(st.integers(2, 3))]
        n_r = len(resources)
        sizes = data.draw(st.lists(st.integers(1, 300), min_size=2, max_size=5))
        n = sum(sizes)
        order = data.draw(st.permutations(range(len(sizes))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        queues = tuple(f"q{i}" for i in order)        # instance order is not sorted
        of_record = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        t_idx = rng.integers(0, n_r, n)
        t_idx[of_record == 0] = data.draw(st.integers(0, n_r - 1))  # one arm only
        po = {r: rng.integers(0, 2, n) for r in resources}
        outcome = np.array([po[resources[t]][i] for i, t in enumerate(t_idx)])
        labels = np.array(["A", "B", "C"], dtype=object)[rng.integers(0, 3, n)]
        ds = core.Dataset(np.arange(n, dtype=float)[:, None], np.arange(n, dtype=float),
                          {"g": labels}, np.array(resources, dtype=object)[t_idx],
                          outcome, np.arange(1, n + 1, dtype=float), resources,
                          ["score"], potential_outcomes=po)
        prop = TableProp(rng.uniform(0.01, 1.0, (n, n_r)), resources)
        out = TableOut(rng.uniform(0.0, 1.0, (n, n_r)), resources)
        weights = rng.integers(0, 4, (len(sizes), n_r)) * rng.uniform(0, 1, (len(sizes), n_r))
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        policy = core.Policy(weights / weights.sum(axis=1, keepdims=True))
        instance = core.MCMSInstance(queues, tuple(resources),
                                     tuple(Fraction(sizes[i]) for i in order),
                                     tuple(Fraction(n) for _ in resources), 1.0)
        queue_ids = np.array([f"q{q}" for q in of_record], dtype=object)
        return ds, queue_ids, instance, policy, out, prop

    @staticmethod
    def _reference(name, ds, policy, queue_ids, instance, out, prop):
        if name == "DM":
            return reference_evaluate_dm(ds, policy, queue_ids, out, instance)
        if name == "IPW":
            return reference_evaluate_ipw(ds, policy, queue_ids, prop, instance)
        if name == "DR":
            return reference_evaluate_dr(ds, policy, queue_ids, out, prop, instance)
        return reference_evaluate_gt(ds, policy, queue_ids, instance)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_values_effects_and_groups(self, data):
        ds, queue_ids, instance, policy, out, prop = self._case(data)
        table = ope.score_table(ds, queue_ids, instance.queues, out, prop)
        assert list(table.scores) == ["DM", "IPW", "DR", "GT"]
        labels = ds.groups["g"]
        for name in table.scores:
            expected = self._reference(name, ds, policy, queue_ids, instance, out, prop)
            assert table.value(name, policy) == pytest.approx(expected, abs=1e-12)
            groups = ope.per_group_values(table, policy, name, "g")
            assert list(groups) == sorted(set(labels.tolist()))
            for g, value in groups.items():
                mask = labels == g
                expected = self._reference(name, ds.subset(mask), policy,
                                           queue_ids[mask], instance, out, prop)
                assert value == pytest.approx(expected, abs=1e-12)

        # effects: queue means of the DR scores, bit for bit
        reference = reference_cate_dr(ds, queue_ids, sorted(instance.queues), out, prop)

        class Partition:
            queues = sorted(instance.queues)

            def assign_dataset(self, dataset):
                return core.rows_of(queue_ids, self.queues)
        tau, kept = causal.estimate_cate_dr(ds, Partition(), prop, out)
        assert kept == sorted(instance.queues)
        assert np.array_equal(tau.tau, reference.tau)
        assert tau.baseline_mean == reference.baseline_mean
        learned = causal.Learned(prop, out, [], ds, 0, None,
                                 core.rows_of(queue_ids, instance.queues), instance)
        reference = reference_cate_dr(ds, queue_ids, instance.queues, out, prop)
        assert np.array_equal(learned.tau.tau, reference.tau)
        assert learned.tau.baseline_mean == reference.baseline_mean

    def test_unknown_queue_rejected(self):
        ds = make_dataset([0.0, 1.0], ["a", "b"], [1, 0])
        with pytest.raises(ValueError, match="absent from instance"):
            ope.score_table(ds, ["q0", "q7"], one_queue_instance().queues,
                            StubOut({"a": 0.2, "b": 0.6}), StubProp(0.5))
