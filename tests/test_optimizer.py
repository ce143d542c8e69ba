import dataclasses
import importlib.util
import itertools
import os
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import random_instance, union_find_components
from conftest import make_instance
from fairmatch import causal, core, optimizer, queuing, synth


def effects(rows):
    return core.CATEMatrix(np.array(rows, dtype=float))


def two_by_two_instance():
    return make_instance([Fraction(6, 5), Fraction(4, 5)],
                         [Fraction(101, 100), Fraction(101, 100)])


class TestBigMConstants:
    def test_hand_computed_single_queue(self):
        inst = make_instance([1], [Fraction(1, 2), Fraction(1, 2)])
        c = optimizer.compute_bigM(inst)
        # balanced mu = (1/2, 1/2); b = 2 + 2
        assert c.b == Fraction(4)
        # z[0][r] = 1 * 1/2 * 4
        assert c.z == ((Fraction(2), Fraction(2)),)

    def test_hand_computed_two_queues(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 3)], [1])
        c = optimizer.compute_bigM(inst)
        # balanced mu = (5/6,); b = 6/5
        assert c.b == Fraction(6, 5)
        # z[q][0] = lam_q * 5/6 * 6/5 = lam_q
        assert c.z == ((Fraction(1, 2),), (Fraction(1, 3),))

    def test_rates_balanced_first(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 2), 1])
        c = optimizer.compute_bigM(inst)
        # balanced mu = (1/4, 1/2); b = 4 + 2
        assert c.b == Fraction(6)
        # z[q][r] = lam_q * mu_r * 6
        assert c.z == ((Fraction(3, 4), Fraction(3, 2)), (Fraction(3, 8), Fraction(3, 4)))

    def test_rows_carry_the_constants(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 2), 1])
        model = optimizer.build_mio(inst, effects([[0.0, 0.1], [0.0, 0.2]]))
        rows = {label: (row, rhs) for row, rhs, label in model.a_ub}
        for q, r in itertools.product(range(2), range(2)):
            z = float(Fraction(6) * inst.lam[q] * inst.balanced_mu()[r])
            for kind in ("kkt_upper", "kkt_lower"):
                row, rhs = rows[f"{kind}[{q},{r}]"]
                assert row[model.idx_m[q, r]] == rhs == z
            row, rhs = rows[f"multiplier_complementarity[{q},{r}]"]
            assert row[model.idx_z[q, r]] == rhs == 6.0

    @given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([20, 200]),
           n_q=st.integers(1, 3), n_r=st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_at_every_pooled_kkt_point(self, seed, grid, n_q, n_r):
        """On every admissible topology whose QP flows pool into one
        component (union-find), the multipliers of the QP support meet
        |theta_q + gamma_r| <= b off the topology and nu <= b on its
        zero-flow edges."""
        inst = make_instance(*random_instance(np.random.default_rng(seed), n_q, n_r,
                                              grid=grid))
        b = float(optimizer.compute_bigM(inst).b)
        lam, mu = inst.lam_f, inst.balanced_mu_f()
        eps = 1e-9 * float(inst.mu_total)
        for bits in itertools.product((0, 1), repeat=n_q * n_r):
            m = np.array(bits).reshape(n_q, n_r).astype(bool)
            try:
                flows = queuing.steady_state_flows(inst, core.MatchingTopology(m))
            except queuing.FlowSolveError:
                continue
            support = flows.f > eps
            if union_find_components(n_q, n_r, list(zip(*np.nonzero(support)))) != 1:
                continue
            _, theta, gamma, _ = queuing._solve_support(lam, mu, support)
            reduced = theta[:, None] + gamma[None, :]
            assert np.all(np.abs(reduced[~m]) <= b * (1 + 1e-9))
            assert np.all(-reduced[m & ~support] <= b * (1 + 1e-9))


class TestFairnessSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            optimizer.FairnessSpec(kind="equalized_odds")

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            optimizer.FairnessSpec("maximin_allocation", 0.1, "race",
                                   {"A": ["q0"], "B": ["q0", "q1"]})

    def test_none_spec(self):
        assert optimizer.FairnessSpec().kind == "none"

    @pytest.mark.parametrize("bound", [np.nan, np.inf, -np.inf])
    def test_non_finite_bound_rejected(self, bound):
        # a NaN bound used to reach HiGHS and come back as an infeasible model
        with pytest.raises(ValueError, match="not finite"):
            optimizer.FairnessSpec("maximin_outcome", bound, "race",
                                   {"A": ["q0"], "B": ["q1"]})


class TestModelStructure:
    def test_two_by_two_counts(self):
        tau = effects([[0.0, 0.1], [0.0, 0.2]])
        model = optimizer.build_mio(two_by_two_instance(), tau)
        # f, nu: 4 each; gamma, theta: 2 each; m, z: 4 each; one balance row
        # per queue and per resource; five rows per cell
        assert model.n_vars == 20
        assert len(model.a_eq) == 4
        assert len(model.a_ub) == 20
        assert model.integrality.sum() == 8

    def test_effect_shape_mismatch_rejected(self, symmetric_instance):
        with pytest.raises(ValueError):
            optimizer.build_mio(symmetric_instance, effects([[0.0, 0.1]]))

    def test_extra_constraint_senses(self, one_queue_instance):
        tau = effects([[0.0, 0.5]])
        # non-binding cap: solve still lands on the balanced flows
        model = optimizer.build_mio(one_queue_instance, tau,
                                    extra_linear=[(np.array([[0.0, 1.0]]), "<=", 0.5),
                                                  (np.array([[0.0, 1.0]]), ">=", 0.3)])
        result = optimizer.solve(model)
        assert result.flows.f[0, 1] == pytest.approx(0.4, abs=1e-6)
        # column balance pins f[0,1] at 0.4, so a 0.1 cap is contradictory
        tight = optimizer.build_mio(one_queue_instance, tau,
                                    extra_linear=[(np.array([[0.0, 1.0]]), "<=", 0.1)])
        with pytest.raises(optimizer.InfeasibleModelError):
            optimizer.solve(tight)

    def test_unknown_sense_rejected(self, one_queue_instance):
        with pytest.raises(ValueError):
            optimizer.build_mio(one_queue_instance, effects([[0.0, 0.5]]),
                                extra_linear=[(np.array([[0.0, 1.0]]), "<", 0.1)])

    @pytest.mark.parametrize("coef, sense, rhs", [(np.nan, "<=", 0.5), (np.inf, "==", 0.5),
                                                  (1.0, ">=", -np.inf), (1.0, "<=", np.nan)])
    def test_non_finite_extra_row_rejected(self, one_queue_instance, coef, sense, rhs):
        # a NaN coefficient used to solve and report an optimum
        with pytest.raises(ValueError, match="not finite"):
            optimizer.build_mio(one_queue_instance, effects([[0.0, 0.5]]),
                                extra_linear=[(np.array([[0.5, coef]]), sense, rhs)])


    @pytest.mark.parametrize("cell, baseline_mean", [((0, 1), 0.3), ((3, 2), 0.3),
                                                     (None, np.inf), (None, np.nan)])
    def test_non_finite_effects_rejected_before_any_solve(self, monkeypatch, cell,
                                                          baseline_mean):
        """A NaN effect kept HiGHS's run() going past its time limit, so
        build_mio refuses it, and a non-finite baseline mean, on a learned
        n=10k instance."""
        learned = causal.learn(synth.generate(synth.SynthParams(n=10_000, seed=2)),
                               {"tree_params": {"min_node_size": 60, "max_depth": 4}})
        tau = learned.tau.tau.copy()
        if cell is not None:
            tau[cell] = np.nan
        assert np.isfinite(learned.tau.tau).all()

        def refuse(*args, **kwargs):
            raise AssertionError("a solve was started")
        monkeypatch.setattr(optimizer, "_highs", refuse)
        with pytest.raises(ValueError, match="not finite"):
            model = optimizer.build_mio(learned.instance,
                                        core.CATEMatrix(tau, baseline_mean))
            optimizer.solve(model, time_limit_s=20)


class TestSolve:
    def test_single_queue_uses_full_capacity(self, one_queue_instance):
        tau = effects([[0.0, 0.5]])
        result = optimizer.solve(optimizer.build_mio(one_queue_instance, tau))
        # balanced alternative-resource rate is 2/5; effect 0.5 on that edge
        assert result.objective == pytest.approx(0.2, abs=1e-6)
        assert result.topology.m[0, 1] == 1

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 10:
            n_q = int(rng.integers(1, 4))
            lam, mu = random_instance(rng, n_q, 2)
            inst = make_instance(lam, mu)
            t = rng.normal(scale=0.3, size=(n_q, 2))
            t[:, 0] = 0.0
            tau = core.CATEMatrix(t)
            try:
                oracle = optimizer.enumerate_oracle(optimizer.build_mio(inst, tau))
            except optimizer.InfeasibleModelError:
                continue
            result = optimizer.solve(optimizer.build_mio(inst, tau))
            checked += 1
            assert result.objective == pytest.approx(oracle.objective, abs=1e-6)

    def test_result_invariants(self):
        inst = make_instance([Fraction(6, 5), Fraction(4, 5)],
                             [Fraction(101, 100), Fraction(101, 100)])
        tau = effects([[0.0, 0.4], [0.0, -0.2]])
        result = optimizer.solve(optimizer.build_mio(inst, tau))
        assert queuing.check_admissible(inst, result.topology)
        f = result.flows.f
        assert np.max(np.abs(f.sum(axis=1) - inst.lam_f)) < 1e-5
        assert np.max(np.abs(f.sum(axis=0) - inst.balanced_mu_f())) < 1e-5
        expected = queuing.steady_state_flows(inst, result.topology).f
        assert np.max(np.abs(f - expected)) < 1e-5
        assert queuing.crp_components(inst, result.topology).count == 1

    def test_deterministic(self):
        inst = make_instance([Fraction(6, 5), Fraction(4, 5)],
                             [Fraction(101, 100), Fraction(101, 100)])
        tau = effects([[0.0, 0.4], [0.0, -0.2]])
        a = optimizer.solve(optimizer.build_mio(inst, tau))
        b = optimizer.solve(optimizer.build_mio(inst, tau))
        assert np.array_equal(a.topology.m, b.topology.m)
        assert a.objective == b.objective

    def test_policy_value_includes_baseline(self, one_queue_instance):
        tau = core.CATEMatrix(np.array([[0.0, 0.5]]), 0.3)
        result = optimizer.solve(optimizer.build_mio(one_queue_instance, tau))
        assert result.policy_value == pytest.approx(result.objective + 0.3,
                                                    abs=1e-9)


def planted_instance():
    """Effects reward the block-diagonal split [[1,0],[0,1]], which pools
    into two components; rates are the planted 2x2 instance scaled by 1/7."""
    inst = make_instance([Fraction(1, 7), Fraction(2, 7)],
                         [Fraction(101, 700), Fraction(101, 350)])
    return inst, effects([[0.0, -1.0], [0.0, 1.0]])


class TestPostSolve:
    def test_planted_split_is_cut_off(self):
        inst, tau = planted_instance()
        model = optimizer.build_mio(inst, tau)
        n_ub = len(model.a_ub)
        result = optimizer.solve(model)
        oracle = optimizer.enumerate_oracle(optimizer.build_mio(inst, tau))
        assert result.topology.m.tolist() == [[1, 1], [1, 1]]
        assert result.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert queuing.crp_components(inst, result.topology).count == 1
        # the split and [[1,1],[0,1]] both pool into two components
        assert result.solver_stats["rounds"] > 1
        assert len(model.a_ub) == n_ub        # cuts stay local to the call
        # a second solve of the same model repeats the same rounds
        again = optimizer.solve(model)
        assert again.solver_stats == result.solver_stats

    def test_stats_report_rounds_deviation_and_bound(self):
        result = optimizer.solve(optimizer.build_mio(two_by_two_instance(),
                                                     effects([[0.0, 0.4], [0.0, -0.2]])))
        stats = result.solver_stats
        assert stats["rounds"] == 1
        assert 0.0 <= stats["flow_deviation"] <= 1e-9 * 2
        assert stats["dual_bound"] == pytest.approx(result.objective, abs=1e-6)
        qp = queuing.steady_state_flows(two_by_two_instance(), result.topology)
        assert np.array_equal(result.flows.f, qp.f)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pipeline_instances_exact(self, seed):
        # 15-23 queues with rate denominators of 2e11 to 2e12; with HiGHS's default
        # integrality tolerance of 1e-6 these solves return flows 3e-4 to
        # 7e-3 away from the QP flows of their topology
        data = synth.generate(synth.SynthParams(n=20_000, seed=seed))
        learned, result = synth.run_pipeline(data, {"tree_params": {"min_node_size": 150,
                                                                    "max_depth": 6}})
        inst = learned.instance
        assert inst.n_queues >= 15
        assert result.solver_stats["flow_deviation"] <= 1e-9 * float(inst.lam_total)
        assert queuing.crp_components(inst, result.topology).count == 1

    def test_inexact_flows_raise(self, monkeypatch):
        inst, tau = planted_instance()
        model = optimizer.build_mio(inst, tau)
        highs = optimizer._highs

        def off_by_a_little(*args):
            res = highs(*args)
            res.x[model.idx_f[0, 1]] += 1e-6
            return res
        monkeypatch.setattr(optimizer, "_highs", off_by_a_little)
        with pytest.raises(optimizer.InexactFlowError):
            optimizer.solve(model)

    def test_cut_limit_raises(self, monkeypatch):
        # a solver that ignores the cuts returns the split every round
        inst, tau = planted_instance()
        model = optimizer.build_mio(inst, tau)
        highs = optimizer._highs
        calls = []

        def without_cuts(c, constraints, *args):
            calls.append(len(constraints))
            return highs(c, constraints[:2], *args)
        monkeypatch.setattr(optimizer, "_highs", without_cuts)
        monkeypatch.setattr(optimizer, "MAX_CUT_ROUNDS", 3)
        with pytest.raises(optimizer.PoolingCutLimitError):
            optimizer.solve(model)
        assert calls == [2, 3, 3]

    def test_model_highs_refuses_is_no_infeasible_verdict(self, one_queue_instance):
        # HiGHS refuses a coefficient of 1e300 as a model error, which says
        # nothing of feasibility
        model = optimizer.build_mio(one_queue_instance, effects([[0.0, 0.5]]),
                                    extra_linear=[(np.array([[0.0, 1e300]]), "<=", 1.0)])
        with pytest.raises(optimizer.SolverLimitError, match="Model error"):
            optimizer.solve(model)

    def test_time_limit_covers_all_rounds(self):
        inst, tau = planted_instance()
        with pytest.raises(optimizer.SolverLimitError):
            optimizer.solve(optimizer.build_mio(inst, tau), time_limit_s=0.0)

    def test_solver_output_kept_off_stdout(self, capfd):
        # on this 18-queue instance HiGHS prints a diagnostic line to fd 1
        # although it runs with its console log off
        data = synth.generate(synth.SynthParams(
            n=20_000, seed=0, group_probs={"race": {"A": 0.5, "B": 0.5}}))
        learned = causal.learn(data, group_dimension="race")
        spec = optimizer.FairnessSpec("maximin_outcome", 0.38, "race", learned.groups)
        model = optimizer.build_mio(learned.instance, learned.tau, spec)
        capfd.readouterr()
        optimizer.solve(model)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("fails", [False, True])
    def test_stdout_restored_after_solve(self, capfd, monkeypatch, fails):
        highs = optimizer._highs

        def noisy(*args):
            os.write(1, b"solver noise\n")
            if fails:
                raise RuntimeError("solver failed")
            return highs(*args)
        monkeypatch.setattr(optimizer, "_highs", noisy)
        model = optimizer.build_mio(two_by_two_instance(),
                                    effects([[0.0, 0.4], [0.0, -0.2]]))
        if fails:
            with pytest.raises(RuntimeError):
                optimizer.solve(model)
        else:
            optimizer.solve(model)
        os.write(1, b"caller output\n")
        out, err = capfd.readouterr()
        assert out == "caller output\n"
        assert err == "solver noise\n"

    def test_no_option_warning_escapes(self, recwarn):
        optimizer.solve(optimizer.build_mio(two_by_two_instance(),
                                            effects([[0.0, 0.4], [0.0, -0.2]])))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# Bounds on a grid of hundredths: the oracle accepts a fairness value within
# 1e-7 of its bound and HiGHS within its own feasibility tolerance, so a bound
# inside that band (such as 1e-7 over a group value of 0) can be met by one
# route and not the other.
_KINDS_AND_BOUNDS = {
    "none": st.just(0.0),
    "maximin_allocation": st.integers(0, 40).map(lambda k: k / 100),
    "parity_allocation": st.integers(0, 50).map(lambda k: k / 100),
    "maximin_outcome": st.integers(-30, 30).map(lambda k: k / 100),
    "parity_outcome": st.integers(0, 30).map(lambda k: k / 100),
}


@st.composite
def _instances(draw):
    """Small instances with grid or large-denominator rates, random effects,
    one fairness constraint over two queue groups and one ``extra_linear``
    row over the flows with small integer coefficients. Its right-hand side
    lies on a grid of hundredths, from 0.1 tighter to 0.2 looser than the
    row's value at the fully connected topology's flows, so that the row
    often binds."""
    kind = draw(st.sampled_from(optimizer.FAIRNESS_KINDS))
    n_q = draw(st.integers(1 if kind == "none" else 2, 3))
    n_r = draw(st.integers(2, 3))
    grid = draw(st.sampled_from([20, 7, 997]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = make_instance(*random_instance(rng, n_q, n_r, grid=grid))
    t = rng.normal(scale=0.3, size=(n_q, n_r))
    t[:, 0] = 0.0
    cut = draw(st.integers(1, max(1, n_q - 1)))
    groups = {"A": list(inst.queues[:cut]), "B": list(inst.queues[cut:])}
    spec = optimizer.FairnessSpec(kind, draw(_KINDS_AND_BOUNDS[kind]), "g",
                                  groups if kind != "none" else {})
    a = rng.integers(-2, 3, size=(n_q, n_r)).astype(float)
    pooled = queuing.steady_state_flows(inst, core.MatchingTopology.fully_connected(n_q, n_r))
    sense = draw(st.sampled_from(["<=", ">="]))
    slack = draw(st.integers(-10, 20)) * (1 if sense == "<=" else -1)
    rhs = (np.round(100 * np.sum(a * pooled.f)) + slack) / 100
    return inst, core.CATEMatrix(t), spec, [(a, sense, rhs)]


def _block_balanced_rates(draw, n_q, n_r):
    """Rates that balance within two blocks of queues and resources."""
    q_block = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n_q - 2,
                                     max_size=n_q - 2))
    r_block = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n_r - 2,
                                     max_size=n_r - 2))
    lam = [Fraction(draw(st.integers(1, 9)), 10) for _ in range(n_q)]
    weight = [draw(st.integers(1, 9)) for _ in range(n_r)]
    mu = []
    for r, b in enumerate(r_block):
        lam_b = sum(x for x, qb in zip(lam, q_block) if qb == b)
        w_b = sum(w for w, rb in zip(weight, r_block) if rb == b)
        mu.append(Fraction(21, 20) * lam_b * weight[r] / w_b)
    return lam, mu


@st.composite
def _linked_instances(draw):
    """Small instances with one or two link cells, which may overlap, rates
    on the 1/20 or 1/200 grid or balanced within two blocks, random effects,
    and no fairness constraint or a maximin_outcome bound over two groups."""
    n_q, n_r = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = draw(st.sampled_from([20, 200, "blocks"]))
    if rates == "blocks":
        inst = make_instance(*_block_balanced_rates(draw, n_q, n_r))
    else:
        inst = make_instance(*random_instance(rng, n_q, n_r, grid=rates))
    t = rng.normal(scale=0.3, size=(n_q, n_r))
    t[:, 0] = 0.0
    queues = list(inst.queues)
    cells = draw(st.lists(st.lists(st.sampled_from(queues), min_size=2, max_size=n_q,
                                   unique=True), min_size=1, max_size=2))
    spec = optimizer.FairnessSpec()
    if draw(st.booleans()):
        cut = draw(st.integers(1, n_q - 1))
        spec = optimizer.FairnessSpec("maximin_outcome",
                                      draw(_KINDS_AND_BOUNDS["maximin_outcome"]), "g",
                                      {"A": queues[:cut], "B": queues[cut:]})
    return inst, core.CATEMatrix(t), spec, cells


class TestMatchesOracle:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cuts_keep_every_single_component_topology(self, data):
        """Each round's cuts exclude its topology and no topology that pools
        into one component (counted by union-find on the QP flows). Rates
        balance within two blocks, so many topologies split."""
        n_q, n_r = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
        inst = make_instance(*_block_balanced_rates(data.draw, n_q, n_r))
        model = optimizer.build_mio(inst, core.CATEMatrix(np.zeros((n_q, n_r))))
        eps = 1e-9 * float(inst.mu_total)
        single, split = [], []
        for bits in itertools.product((0, 1), repeat=n_q * n_r):
            topology = core.MatchingTopology(np.array(bits).reshape(n_q, n_r))
            try:
                flows = queuing.steady_state_flows(inst, topology)
            except queuing.FlowSolveError:        # no balanced flows on it
                continue
            edges = list(zip(*np.nonzero(flows.f > eps)))
            x = np.zeros(model.n_vars)
            x[model.idx_m] = topology.m
            if union_find_components(n_q, n_r, edges) == 1:
                single.append(x)
            else:
                split.append((x, optimizer._pooling_cuts(
                    model, topology.m, queuing.crp_components(inst, topology, flows))))
        for x, cuts in split:
            assert any(row @ x > rhs for row, rhs in cuts)
            for y in single:
                assert all(row @ y <= rhs for row, rhs in cuts)

    @given(case=_instances())
    @settings(max_examples=150, deadline=None)
    def test_objective_flows_and_pooling(self, case):
        inst, tau, spec, extra = case
        model = optimizer.build_mio(inst, tau, spec, extra)
        try:
            oracle = optimizer.enumerate_oracle(model)
        except optimizer.InfeasibleModelError:
            with pytest.raises(optimizer.InfeasibleModelError):
                optimizer.solve(model)
            return
        result = optimizer.solve(model)
        assert result.objective == pytest.approx(oracle.objective, abs=1e-6)
        qp = queuing.steady_state_flows(inst, result.topology).f
        assert np.max(np.abs(result.flows.f - qp)) <= 1e-9
        assert result.solver_stats["flow_deviation"] <= 1e-9 * float(inst.lam_total)
        assert queuing.crp_components(inst, result.topology).count == 1


    @given(case=_linked_instances())
    @settings(max_examples=100, deadline=None)
    def test_linked_objective_matches_oracle(self, case):
        """The merged-variable solve of a linked model against exhaustive
        search over the linked topologies, overlapping cells included."""
        inst, tau, spec, cells = case
        model = optimizer.add_non_affirmative_links(optimizer.build_mio(inst, tau, spec), cells)
        try:
            oracle = optimizer.enumerate_oracle(model)
        except optimizer.InfeasibleModelError:
            with pytest.raises(optimizer.InfeasibleModelError):
                optimizer.solve(model)
            return
        result = optimizer.solve(model)
        assert result.objective == pytest.approx(oracle.objective, abs=1e-7)
        m = result.topology.m
        for cell in cells:
            qs = [inst.queues.index(q) for q in cell]
            assert (m[qs] == m[qs[0]]).all()
        assert result.solver_stats["flow_deviation"] <= 1e-9 * float(inst.lam_total)
        assert queuing.crp_components(inst, result.topology).count == 1


class TestFairnessConstraints:
    def _instance(self):
        return two_by_two_instance()

    def _tau(self):
        return effects([[0.0, 0.6], [0.0, 0.1]])

    def _groups(self):
        return {"A": ["q0"], "B": ["q1"]}

    def test_objective_nonincreasing_in_maximin_bound(self):
        inst, tau = self._instance(), self._tau()
        prev = np.inf
        for w in (0.0, 0.1, 0.2, 0.3, 0.4):
            spec = optimizer.FairnessSpec("maximin_allocation", w, "race",
                                          self._groups())
            obj = optimizer.solve(optimizer.build_mio(inst, tau, spec)).objective
            assert obj <= prev + 1e-7
            prev = obj

    def test_each_kind_matches_exhaustive_search(self):
        inst, tau = self._instance(), self._tau()
        cases = [("maximin_allocation", 0.2), ("parity_allocation", 0.3),
                 ("maximin_outcome", 0.04), ("parity_outcome", 0.3)]
        for kind, bound in cases:
            spec = optimizer.FairnessSpec(kind, bound, "race", self._groups())
            model = optimizer.build_mio(inst, tau, spec)
            oracle = optimizer.enumerate_oracle(model)
            result = optimizer.solve(model)
            assert result.objective == pytest.approx(oracle.objective, abs=1e-6)

    def test_infeasible_bound_raises_in_both_routes(self):
        inst, tau = self._instance(), self._tau()
        spec = optimizer.FairnessSpec("maximin_outcome", 5.0, "race",
                                      self._groups())
        with pytest.raises(optimizer.InfeasibleModelError):
            optimizer.solve(optimizer.build_mio(inst, tau, spec))
        with pytest.raises(optimizer.InfeasibleModelError):
            optimizer.enumerate_oracle(optimizer.build_mio(inst, tau, spec))

    def test_unknown_queue_in_group_rejected(self):
        inst, tau = self._instance(), self._tau()
        spec = optimizer.FairnessSpec("maximin_allocation", 0.1, "race",
                                      {"A": ["q7"]})
        with pytest.raises(ValueError):
            optimizer.build_mio(inst, tau, spec)

    @pytest.mark.parametrize("kind", optimizer.FAIRNESS_KINDS[1:])
    def test_group_naming_a_queue_absent_from_instance(self, kind):
        spec = optimizer.FairnessSpec(kind, 0.1, "race", {"A": ["q0"], "B": ["q1", "q7"]})
        with pytest.raises(ValueError, match=r"absent from instance: \['q7'\]"):
            optimizer.build_mio(self._instance(), self._tau(), spec)


class TestNonAffirmativeLinks:
    def test_linked_queues_share_eligibility_rows(self):
        inst = two_by_two_instance()
        tau = effects([[0.0, 0.6], [0.0, -0.6]])
        model = optimizer.build_mio(inst, tau)
        unlinked = optimizer.solve(model).objective
        linked_model = optimizer.add_non_affirmative_links(
            optimizer.build_mio(inst, tau), [["q0", "q1"]])
        result = optimizer.solve(linked_model)
        assert np.array_equal(result.topology.m[0], result.topology.m[1])
        assert result.objective <= unlinked + 1e-7

    def test_link_cells_recorded(self):
        tau = effects([[0.0, 0.1], [0.0, 0.2]])
        model = optimizer.build_mio(two_by_two_instance(), tau)
        rows = len(model.a_eq), len(model.a_ub)
        assert optimizer.add_non_affirmative_links(model, [["q1", "q0"]]) is model
        assert model.links == [[1, 0]]
        assert (len(model.a_eq), len(model.a_ub)) == rows

    def test_unknown_queue_in_cell_rejected(self):
        model = optimizer.build_mio(two_by_two_instance(),
                                    effects([[0.0, 0.1], [0.0, 0.2]]))
        with pytest.raises(ValueError, match="q9"):
            optimizer.add_non_affirmative_links(model, [["q0", "q9"]])
        assert model.links == []

    def test_cell_naming_a_queue_absent_from_instance(self):
        model = optimizer.build_mio(two_by_two_instance(),
                                    effects([[0.0, 0.1], [0.0, 0.2]]))
        with pytest.raises(ValueError, match=r"absent from instance: \['q9'\]"):
            optimizer.add_non_affirmative_links(model, [["q1", "q0"], ["q9", "q1"]])

    @pytest.mark.parametrize("cells", [[["q0", "q1", "q2"], ["q2", "q3"]],
                                       [["q0", "q1", "q2"], ["q3", "q2"]],
                                       [["q3", "q2"], ["q1", "q0"], ["q1", "q2"]]])
    def test_overlapping_cells_merge_transitively(self, cells):
        inst = make_instance([Fraction(k, 10) for k in (1, 2, 3, 4, 5)],
                             [Fraction(8, 5), Fraction(8, 5)])
        model = optimizer.add_non_affirmative_links(
            optimizer.build_mio(inst, core.CATEMatrix(np.zeros((5, 2)))), cells)
        col, weight, kept = optimizer._aggregation(model)
        x = weight * np.arange(1.0, len(kept) + 1)[col]
        # q0..q3 share one row of m, z and nu and one theta; q4 keeps its own
        for idx in (model.idx_m, model.idx_z, model.idx_nu):
            assert (x[idx[:4]] == x[idx[0]]).all()
            assert (x[idx[4]] != x[idx[0]]).all()
        assert len(set(x[model.idx_theta])) == 2
        # flows split by arrival rate within the merged group
        f = x[model.idx_f]
        assert np.allclose(f[:4] / f[:4].sum(axis=0), np.array([1, 2, 3, 4])[:, None] / 10)
        assert len(kept) == model.n_vars - 3 * (4 * 2 + 1)   # 3 queues merged away

    def test_merged_problem_is_the_sparse_product(self, monkeypatch):
        """The rows and objective HiGHS gets are the model's through the map
        x = P y, bit for bit as scipy.sparse multiplies them: a merged column
        sums three queues' terms here, in column order."""
        from scipy import sparse

        inst = make_instance([Fraction(k, 13) for k in (1, 2, 3, 4, 5)],
                             [Fraction(9, 10), Fraction(7, 10)])
        tau = core.CATEMatrix(np.array([[0.0, 0.3], [0.0, -0.7], [0.0, 0.11],
                                        [0.0, 0.9], [0.0, -0.2]]))
        model = optimizer.add_non_affirmative_links(
            optimizer.build_mio(inst, tau), [["q0", "q1", "q2"], ["q3", "q2"]])
        col, weight, kept = optimizer._aggregation(model)
        p = sparse.csr_array((weight, (np.arange(model.n_vars), col)),
                             shape=(model.n_vars, len(kept)))
        highs, seen = optimizer._highs, []

        def capture(c, constraints, *args):
            seen.append((c, constraints))
            return highs(c, constraints, *args)
        monkeypatch.setattr(optimizer, "_highs", capture)
        optimizer.solve(model)
        (c, (eq, ub)), = seen
        assert c.tobytes() == (-(p.T @ model.objective)).tobytes()
        for (a, _, _), rows in ((eq, model.a_eq), (ub, model.a_ub)):
            product = (sparse.csr_array(np.array([row for row, _, _ in rows])) @ p).toarray()
            assert (a + 0.0).tobytes() == (product + 0.0).tobytes()

    def test_unlinked_model_gives_highs_the_model_itself(self, monkeypatch):
        model = optimizer.build_mio(two_by_two_instance(),
                                    effects([[0.0, 0.4], [0.0, -0.2]]))
        col, weight, kept = optimizer._aggregation(model)
        assert col.tolist() == list(range(model.n_vars)) and (weight == 1).all()
        assert kept.tolist() == list(range(model.n_vars))
        highs = optimizer._highs
        seen = []

        def capture(c, constraints, integrality, bounds, options):
            seen.append((c, constraints, integrality, bounds))
            return highs(c, constraints, integrality, bounds, options)
        monkeypatch.setattr(optimizer, "_highs", capture)
        optimizer.solve(model)
        (c, (eq, ub), integrality, (lower, upper)), = seen
        assert np.array_equal(c, -model.objective)
        assert np.array_equal(integrality, model.integrality)
        assert np.array_equal(lower, model.lower)
        assert np.array_equal(upper, model.upper)
        for (a, row_lower, row_upper), rows, equal in ((eq, model.a_eq, True),
                                                       (ub, model.a_ub, False)):
            assert np.array_equal(a, np.array([row for row, _, _ in rows]))
            assert np.array_equal(row_upper, [rhs for _, rhs, _ in rows])
            assert np.array_equal(row_lower, row_upper if equal else
                                  np.full(len(rows), -np.inf))

    def test_grouped_50k_linked_optimum(self):
        # 82 queues in 41 linked score cells; given the links as equality rows
        # on the full model, HiGHS stops at 0.4246765 after 1,732 nodes with
        # a dual bound of 0.4246773, under this linked optimum
        data = synth.generate(synth.SynthParams(
            n=50_000, seed=0, group_probs={"race": {"A": 0.5, "B": 0.5}}))
        learned = causal.learn(data, {"tree_params": {"max_depth": 6, "min_node_size": 100,
                                                      "honest": True}},
                               group_dimension="race")
        inst = learned.instance
        cells = [[q for q in c if q in inst.queues]
                 for c in learned.partition.score_cells.values()]
        cells = [c for c in cells if len(c) > 1]
        assert (inst.n_queues, len(cells)) == (82, 41)
        result = optimizer.solve(optimizer.add_non_affirmative_links(
            optimizer.build_mio(inst, learned.tau), cells))
        assert result.objective >= 0.4246866
        pos = {q: i for i, q in enumerate(inst.queues)}
        for cell in cells:
            assert all(np.array_equal(result.topology.m[pos[cell[0]]],
                                      result.topology.m[pos[q]]) for q in cell)

    def test_oracle_enumerates_linked_topologies_only(self):
        inst = two_by_two_instance()
        tau = effects([[0.0, 0.6], [0.0, -0.6]])
        model = optimizer.add_non_affirmative_links(optimizer.build_mio(inst, tau),
                                                    [["q0", "q1"]])
        mio = optimizer.solve(model)
        oracle = optimizer.enumerate_oracle(model)
        assert np.array_equal(oracle.topology.m, mio.topology.m)
        assert (oracle.objective, oracle.policy_value) == (mio.objective,
                                                           mio.policy_value)
        assert optimizer.enumerate_oracle(
            optimizer.build_mio(inst, tau)).objective > oracle.objective + 1e-6

    def test_duplicate_queue_in_cell_rejected(self):
        model = optimizer.build_mio(two_by_two_instance(),
                                    effects([[0.0, 0.1], [0.0, 0.2]]))
        with pytest.raises(ValueError):
            optimizer.add_non_affirmative_links(model, [["q0", "q0"]])


class TestSideRows:
    """The compiled side rows against values computed by hand from flows:
    ``enumerate_oracle`` reads the same rows as the MIO, so it cannot check
    them."""

    @staticmethod
    def _case(seed):
        """Random rates and effects on 2-4 queues and 2-3 resources, the
        queues split into two or three groups, and random nonnegative flows."""
        rng = np.random.default_rng(seed)
        n_q, n_r = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        inst = make_instance(*random_instance(rng, n_q, n_r))
        n_g = int(rng.integers(2, min(3, n_q) + 1))
        label = rng.permutation(np.arange(n_q) % n_g)
        groups = {f"g{k}": [inst.queues[q] for q in range(n_q) if label[q] == k]
                  for k in range(n_g)}
        t = rng.normal(size=(n_q, n_r))
        t[:, 0] = 0.0
        return rng, inst, core.CATEMatrix(t), groups, rng.uniform(0.0, 1.0, size=(n_q, n_r))

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("kind", optimizer.FAIRNESS_KINDS[1:])
    def test_fairness_rows_give_the_hand_slack(self, kind, seed):
        """sum(A * f) - rhs of each "<=" row, in row order: the bound less a
        group's flow to r or mean effect per arrival (maximin), or each
        ordered pair's difference less the bound (parity)."""
        rng, inst, tau, groups, f = self._case(seed)
        bound = float(rng.uniform(-0.5, 0.5))
        spec = optimizer.FairnessSpec(kind, bound, "g", groups)
        lam = [float(x) for x in inst.lam]
        n_r = inst.n_resources
        qsets = [[inst.queues.index(q) for q in qs] for qs in groups.values()]
        pairs = list(itertools.combinations(qsets, 2))

        def flow(qs, r):
            return sum(f[q, r] for q in qs)

        def mean(qs):
            total = sum(tau.tau[q, r] * f[q, r] for q in qs for r in range(n_r))
            return total / sum(lam[q] for q in qs)
        expected = {
            "maximin_allocation": [bound - flow(qs, r) for qs in qsets for r in range(n_r)],
            "parity_allocation": [sign * (flow(q1, r) - flow(q2, r)) - bound
                                  for q1, q2 in pairs for r in range(n_r) for sign in (1, -1)],
            "maximin_outcome": [bound - mean(qs) for qs in qsets],
            "parity_outcome": [sign * (mean(q1) - mean(q2)) - bound
                               for q1, q2 in pairs for sign in (1, -1)],
        }[kind]
        side = optimizer.build_mio(inst, tau, spec).side
        assert [sense for _, sense, _, _ in side] == ["<="] * len(expected)
        assert [np.sum(a * f) - rhs for a, _, rhs, _ in side] == \
            pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_extra_rows_give_the_hand_slack(self, seed):
        """Each extra row keeps its sense and right-hand side, and reaches
        the MIO through the flow columns alone: as it is, negated (">="),
        or among the equality rows ("==")."""
        rng, inst, tau, _, f = self._case(seed)
        n_q, n_r = f.shape
        extra = [(rng.normal(size=(n_q, n_r)), sense, float(rng.normal()))
                 for sense in ("<=", ">=", "==")]
        model = optimizer.build_mio(inst, tau, extra_linear=extra)
        expected = [sum(a[q, r] * f[q, r] for q in range(n_q) for r in range(n_r)) - rhs
                    for a, _, rhs in extra]
        assert [(sense, rhs) for _, sense, rhs, _ in model.side] == \
            [(sense, rhs) for _, sense, rhs in extra]
        assert [np.sum(a * f) - rhs for a, _, rhs, _ in model.side] == \
            pytest.approx(expected, rel=1e-12, abs=1e-12)
        x = rng.normal(size=model.n_vars)
        x[model.idx_f] = f
        (le, le_rhs, _), (ge, ge_rhs, _) = model.a_ub[-2:]
        eq, eq_rhs, _ = model.a_eq[-1]
        assert [le @ x - le_rhs, -(ge @ x - ge_rhs), eq @ x - eq_rhs] == \
            pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestOracle:
    @pytest.mark.parametrize("sign, sense, rhs", [(1, "<=", 0.5), (-1, ">=", -0.5),
                                                  (1, "==", 0.2)])
    def test_honours_extra_linear(self, sign, sense, rhs):
        """A row that cuts off the unconstrained optimum (f[0, 1] = 1 on
        [[1, 1], [1, 0]]) lowers the objective alike in the MIO and in the
        oracle, which both search the same model."""
        inst, tau = two_by_two_instance(), effects([[0.0, 0.6], [0.0, 0.1]])
        free = optimizer.solve(optimizer.build_mio(inst, tau))
        assert free.flows.f[0, 1] == pytest.approx(1.0)
        model = optimizer.build_mio(inst, tau, extra_linear=[
            (sign * np.array([[0.0, 1.0], [0.0, 0.0]]), sense, rhs)])
        oracle = optimizer.enumerate_oracle(model)
        result = optimizer.solve(model)
        assert oracle.objective < free.objective - 0.1
        assert result.objective == pytest.approx(oracle.objective, abs=1e-6)
        assert np.array_equal(result.topology.m, oracle.topology.m)

    def test_cell_cap_enforced(self):
        lam = [Fraction(1, 10)] * 3
        mu = [Fraction(1, 10)] * 6
        inst = make_instance(lam, mu)
        tau = core.CATEMatrix(np.zeros((3, 6)))
        with pytest.raises(ValueError):
            optimizer.enumerate_oracle(optimizer.build_mio(inst, tau))

    def test_prefers_pooled_topology_despite_richer_split(self):
        # effects reward the block-diagonal split, but it has two pooled
        # components, so the oracle must return a connected topology instead
        inst = make_instance([1, 2], [Fraction(101, 100), Fraction(101, 50)])
        tau = effects([[0.0, -1.0], [0.0, 1.0]])
        result = optimizer.enumerate_oracle(optimizer.build_mio(inst, tau))
        assert queuing.crp_components(inst, result.topology).count == 1
        block = core.MatchingTopology(np.array([[1, 0], [0, 1]]))
        block_obj = float(np.sum(
            tau.tau * queuing.steady_state_flows(inst, block).f))
        assert result.objective < block_obj


@pytest.fixture(scope="module")
def grouped_18():
    """The 18-queue instance learned from 20,000 records grouped by race."""
    data = synth.generate(synth.SynthParams(
        n=20_000, seed=0, group_probs={"race": {"A": 0.5, "B": 0.5}}))
    return causal.learn(data, group_dimension="race")


def _maximin(learned, bound):
    spec = optimizer.FairnessSpec("maximin_outcome", bound, "race", learned.groups)
    return optimizer.build_mio(learned.instance, learned.tau, spec)


def _linked(learned):
    cells = [[q for q in c if q in learned.instance.queues]
             for c in learned.partition.score_cells.values()]
    return optimizer.add_non_affirmative_links(
        optimizer.build_mio(learned.instance, learned.tau), [c for c in cells if len(c) > 1])


# model, solve arguments, HiGHS options put over solve's own, and HiGHS's
# model status of each run
_MILP_CASES = {
    "planted": (lambda g: optimizer.build_mio(*planted_instance()), {}, {}, ["Optimal"] * 4),
    "two-by-two": (lambda g: optimizer.build_mio(two_by_two_instance(),
                                                 effects([[0.0, 0.4], [0.0, -0.2]])),
                   {}, {}, ["Optimal"]),
    "maximin-0.36": (lambda g: _maximin(g, 0.36), {}, {}, ["Optimal"]),
    "maximin-0.39": (lambda g: _maximin(g, 0.39), {}, {}, ["Optimal"]),
    "linked": (_linked, {}, {}, ["Optimal"]),
    "infeasible": (lambda g: optimizer.build_mio(
        two_by_two_instance(), effects([[0.0, 0.6], [0.0, 0.1]]),
        optimizer.FairnessSpec("maximin_outcome", 5.0, "race", {"A": ["q0"], "B": ["q1"]})),
        {}, {}, ["Infeasible"]),
    # the 8-node solve stopped after its first node, with an incumbent
    "node-limit": (lambda g: _maximin(g, 0.39), {"node_limit": 1}, {},
                   ["Solution limit reached"]),
    # stopped by HiGHS's clock before it has an incumbent
    "time-limit": (lambda g: _maximin(g, 0.39), {}, {"time_limit": 1e-4},
                   ["Time limit reached"]),
}


def _milp(c, constraints, integrality, bounds, options):
    """scipy.optimize.milp on the problem given to ``optimizer._highs``."""
    from scipy import optimize as sopt

    with warnings.catch_warnings():
        # milp passes HiGHS's own option names through, with this warning
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        return sopt.milp(c, constraints=[sopt.LinearConstraint(*con) for con in constraints],
                         integrality=integrality, bounds=sopt.Bounds(*bounds),
                         options=dict(options))


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


class TestHighsMatchesMilp:
    @pytest.mark.parametrize("case", list(_MILP_CASES))
    def test_same_result_bit_for_bit(self, monkeypatch, grouped_18, case):
        """Every HiGHS run of a solve gives what scipy.optimize.milp gives on
        the same problem and options: x, and the node count, dual bound and
        gap wherever milp reports them, which it does only with an x."""
        build, kwargs, override, statuses = _MILP_CASES[case]
        highs, runs = optimizer._highs, []

        def recorded(c, constraints, integrality, bounds, options):
            args = (c, constraints, integrality, bounds, {**options, **override})
            runs.append((args, highs(*args)))
            return runs[-1][1]
        monkeypatch.setattr(optimizer, "_highs", recorded)
        try:
            optimizer.solve(build(grouped_18), **kwargs)
        except (optimizer.InfeasibleModelError, optimizer.SolverLimitError):
            pass
        assert [res.status for _, res in runs] == statuses
        for args, res in runs:
            ref = _milp(*args)
            assert _bits(res.x) == _bits(ref.x)
            for name in ("mip_node_count", "mip_dual_bound", "mip_gap"):
                if ref.x is None:
                    assert getattr(ref, name) is None, name
                else:
                    assert _bits(getattr(res, name)) == _bits(getattr(ref, name)), name

    def test_rejected_option_raises(self, capfd):
        # HiGHS's node limit is a 32-bit int; nothing of its refusal reaches stdout
        model = optimizer.build_mio(two_by_two_instance(),
                                    effects([[0.0, 0.4], [0.0, -0.2]]))
        assert optimizer.solve(model, node_limit=2**31 - 1).solver_stats["status"] == "Optimal"
        capfd.readouterr()
        with pytest.raises(ValueError, match="mip_max_nodes = 2147483648"):
            optimizer.solve(model, node_limit=2**31)
        assert capfd.readouterr().out == ""

    def test_missing_binding_is_named(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"scipy\.optimize\._highspy\._core"):
            optimizer._highs_core()


class TestStatusRule:
    """Only an optimum HiGHS has proved leaves ``solve`` as a result."""

    def test_each_model_status_has_one_outcome(self, monkeypatch):
        """Each status the binding defines, put on a run that found the
        optimum: kOptimal gives a result, kInfeasible InfeasibleModelError,
        and every other status SolverLimitError, naming it."""
        h = optimizer._highs_core()
        model = optimizer.build_mio(two_by_two_instance(), effects([[0.0, 0.4], [0.0, -0.2]]))
        highs, outcomes = optimizer._highs, {}
        for name, member in h.HighsModelStatus.__members__.items():
            text = h._Highs().modelStatusToString(member)
            monkeypatch.setattr(optimizer, "_highs", lambda *args, text=text:
                                dataclasses.replace(highs(*args), status=text))
            try:
                outcomes[name] = optimizer.solve(model).solver_stats["status"]
            except optimizer.InfeasibleModelError:
                outcomes[name] = "infeasible"
            except optimizer.SolverLimitError as exc:
                assert text in str(exc)
                outcomes[name] = "limit"
        assert len(outcomes) >= 20
        assert outcomes == {name: {"kOptimal": "Optimal", "kInfeasible": "infeasible"}
                            .get(name, "limit") for name in outcomes}

    def test_unproven_incumbent_raises_with_gap_and_bound(self, monkeypatch, grouped_18):
        # the 8-node solve stops after its first node with an incumbent at a
        # relative gap of 1.18e-4
        highs, runs = optimizer._highs, []

        def recorded(*args):
            runs.append(highs(*args))
            return runs[-1]
        monkeypatch.setattr(optimizer, "_highs", recorded)
        with pytest.raises(optimizer.SolverLimitError) as exc:
            optimizer.solve(_maximin(grouped_18, 0.39), node_limit=1)
        [res] = runs
        assert res.x is not None and res.mip_gap == pytest.approx(1.18e-4, rel=0.01)
        assert str(exc.value) == ("HiGHS stopped without a proven optimum: Solution limit "
                                  f"reached; gap {res.mip_gap:.3g}; dual bound "
                                  f"{-res.mip_dual_bound:.9g}")


_SEARCH_TREE_CASES = {
    "unconstrained": lambda g: optimizer.build_mio(g.instance, g.tau),
    "maximin-0.36": lambda g: _maximin(g, 0.36),
    "maximin-0.39": lambda g: _maximin(g, 0.39),
    "linked": _linked,
}


class TestHighsOptions:
    @pytest.mark.parametrize("case", list(_SEARCH_TREE_CASES))
    def test_feasibility_jump_off_keeps_the_search_tree(self, monkeypatch, grouped_18, case):
        """Feasibility jump finds no incumbent on these models, so turning it
        off leaves the topology, the objective's bits and the node count as
        they are."""
        model = _SEARCH_TREE_CASES[case](grouped_18)
        highs, seen = optimizer._highs, []

        def recorded(c, constraints, integrality, bounds, options):
            seen.append(dict(options))
            return highs(c, constraints, integrality, bounds, options)
        monkeypatch.setattr(optimizer, "_highs", recorded)
        off = optimizer.solve(model)
        assert seen and all(o["mip_heuristic_run_feasibility_jump"] is False for o in seen)
        monkeypatch.setattr(optimizer, "_highs", lambda *args: highs(
            *args[:4], {**args[4], "mip_heuristic_run_feasibility_jump": True}))
        on = optimizer.solve(model)
        assert np.array_equal(off.topology.m, on.topology.m)
        assert _bits(off.objective) == _bits(on.objective)
        assert off.solver_stats["nodes"] == on.solver_stats["nodes"]

    def test_optimal_is_proven_to_an_absolute_gap_of_1e6(self, grouped_18):
        # solve sets mip_rel_gap to 0 but leaves HiGHS's default mip_abs_gap
        # of 1e-6, so "Optimal" can stop short of the dual bound; here it
        # does, by 2.9e-7 (a relative gap of 6.87e-7)
        result = optimizer.solve(_maximin(grouped_18, 0.36))
        assert result.solver_stats["status"] == "Optimal"
        assert 0 < result.solver_stats["dual_bound"] - result.objective <= 1e-6
        assert result.solver_stats["gap"] > 0
