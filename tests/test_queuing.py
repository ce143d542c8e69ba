from fractions import Fraction

import numpy as np
import pytest

from _oracles import brute_force_flows, random_instance, union_find_components
from conftest import make_instance
from fairmatch import core, queuing


def topo(rows):
    return core.MatchingTopology(np.array(rows))


class TestAdmissibility:
    def test_fully_connected_abundant(self):
        inst = make_instance([Fraction(1, 2), Fraction(2, 5)],
                             [Fraction(1, 2), Fraction(1, 2)])
        assert queuing.check_admissible(inst, topo([[1, 1], [1, 1]]))

    def test_tight_subset_inadmissible(self):
        inst = make_instance([Fraction(1, 2), Fraction(2, 5)],
                             [Fraction(1, 2), Fraction(1, 2)])
        # queue 1 is confined to resource 0 whose rate exactly equals lam_0
        assert not queuing.check_admissible(inst, topo([[1, 0], [1, 1]]))

    def test_loose_subset_admissible(self):
        inst = make_instance([Fraction(2, 5), Fraction(1, 2)],
                             [Fraction(1, 2), Fraction(1, 2)])
        assert queuing.check_admissible(inst, topo([[1, 0], [1, 1]]))

    def test_zero_row_inadmissible(self):
        inst = make_instance([Fraction(1, 2), Fraction(2, 5)],
                             [Fraction(1), Fraction(1)])
        assert not queuing.check_admissible(inst, topo([[0, 0], [1, 1]]))

    def test_idle_resource_inadmissible(self):
        # resource 0 alone out-paces the queue, but the balanced flows must
        # reach resource 1 too
        inst = make_instance([Fraction(1, 2)], [Fraction(1, 2), Fraction(3, 5)])
        assert not queuing.check_admissible(inst, topo([[0, 1]]))
        with pytest.raises(queuing.FlowSolveError, match="not admissible"):
            queuing.steady_state_flows(inst, topo([[0, 1]]))

    def test_monotone_in_edges(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            lam, mu = random_instance(rng, 3, 2)
            inst = make_instance(lam, mu)
            m = rng.integers(0, 2, (3, 2))
            if not queuing.check_admissible(inst, core.MatchingTopology(m)):
                continue
            zeros = np.argwhere(m == 0)
            if len(zeros):
                q, r = zeros[rng.integers(len(zeros))]
                m2 = m.copy()
                m2[q, r] = 1
                assert queuing.check_admissible(inst, core.MatchingTopology(m2))

    def test_resource_count_cap(self):
        lam = tuple([Fraction(1, 100)] * 2)
        mu = tuple([Fraction(1)] * 13)
        inst = make_instance(lam, mu)
        with pytest.raises(ValueError):
            queuing.check_admissible(
                inst, core.MatchingTopology(np.ones((2, 13), dtype=int)))


class TestSteadyStateFlows:
    def test_single_queue_column_balance(self, one_queue_instance):
        f = queuing.steady_state_flows(one_queue_instance, topo([[1, 1]]))
        assert np.allclose(f.f, [[0.6, 0.4]], atol=1e-10)

    def test_symmetric_half_flows(self, symmetric_instance):
        f = queuing.steady_state_flows(symmetric_instance, topo([[1, 1], [1, 1]]))
        assert np.allclose(f.f, 0.5, atol=1e-10)

    def test_asymmetric_matches_enumeration(self):
        inst = make_instance([Fraction(6, 5), Fraction(4, 5)],
                             [Fraction(101, 100), Fraction(101, 100)])
        m = topo([[1, 1], [1, 1]])
        f = queuing.steady_state_flows(inst, m)
        ref = brute_force_flows(inst, m)
        assert np.max(np.abs(f.f - ref)) < 1e-8

    def test_inadmissible_raises(self):
        inst = make_instance([Fraction(1, 2), Fraction(2, 5)],
                             [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises((queuing.FlowSolveError, ValueError)):
            queuing.steady_state_flows(inst, topo([[1, 0], [1, 1]]))

    def test_balance_and_support_invariants(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            n_q, n_r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            lam, mu = random_instance(rng, n_q, n_r)
            inst = make_instance(lam, mu)
            m = rng.integers(0, 2, (n_q, n_r))
            topology = core.MatchingTopology(m)
            if not queuing.check_admissible(inst, topology):
                continue
            try:
                f = queuing.steady_state_flows(inst, topology)
            except queuing.FlowSolveError:
                continue
            checked += 1
            assert np.all(f.f[m == 0] == 0.0)
            assert np.max(np.abs(f.f.sum(axis=1) - inst.lam_f)) < 1e-7
            assert np.max(np.abs(f.f.sum(axis=0) - inst.balanced_mu_f())) < 1e-7

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 20:
            n_q, n_r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            lam, mu = random_instance(rng, n_q, n_r)
            inst = make_instance(lam, mu)
            m = rng.integers(0, 2, (n_q, n_r))
            topology = core.MatchingTopology(m)
            if not queuing.check_admissible(inst, topology):
                continue
            try:
                f = queuing.steady_state_flows(inst, topology)
            except queuing.FlowSolveError:
                continue
            ref = brute_force_flows(inst, topology)
            if ref is None:
                continue
            checked += 1
            assert np.max(np.abs(f.f - ref)) < 1e-8

    def test_cycle_perturbation_does_not_improve(self):
        inst = make_instance([Fraction(6, 5), Fraction(4, 5)],
                             [Fraction(101, 100), Fraction(101, 100)])
        f = queuing.steady_state_flows(inst, topo([[1, 1], [1, 1]])).f
        lam = inst.lam_f
        mu = inst.balanced_mu_f()

        def objective(x):
            return float(np.sum(x ** 2 / (lam[:, None] * mu[None, :])))

        base = objective(f)
        for eps in (1e-4, -1e-4):
            pert = f + eps * np.array([[1.0, -1.0], [-1.0, 1.0]])
            if np.min(pert) < 0:
                continue
            assert objective(pert) >= base - 1e-12


class TestCRPComponents:
    def test_fully_connected_single(self, symmetric_instance):
        dec = queuing.crp_components(symmetric_instance, topo([[1, 1], [1, 1]]))
        assert dec.count == 1

    def test_block_diagonal_two(self):
        inst = make_instance([Fraction(1), Fraction(2)],
                             [Fraction(101, 100), Fraction(101, 50)])
        dec = queuing.crp_components(inst, topo([[1, 0], [0, 1]]))
        assert dec.count == 2
        queues = sorted(tuple(sorted(c[0])) for c in dec.components)
        assert queues == [(0,), (1,)]

    def test_components_partition_everything(self):
        inst = make_instance([Fraction(1), Fraction(2)],
                             [Fraction(101, 100), Fraction(101, 50)])
        dec = queuing.crp_components(inst, topo([[1, 0], [0, 1]]))
        all_q = sorted(q for c in dec.components for q in c[0])
        all_r = sorted(r for c in dec.components for r in c[1])
        assert all_q == [0, 1]
        assert all_r == [0, 1]

    def test_against_union_find(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 15:
            lam, mu = random_instance(rng, 4, 3)
            inst = make_instance(lam, mu)
            m = rng.integers(0, 2, (4, 3))
            topology = core.MatchingTopology(m)
            if not queuing.check_admissible(inst, topology):
                continue
            try:
                f = queuing.steady_state_flows(inst, topology)
                dec = queuing.crp_components(inst, topology)
            except queuing.FlowSolveError:
                continue
            checked += 1
            eps = 1e-9 * float(inst.mu_total)
            edges = [(q, r) for q in range(4) for r in range(3)
                     if f.f[q, r] > eps]
            assert dec.count == union_find_components(4, 3, edges)
