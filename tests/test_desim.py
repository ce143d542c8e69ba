from fractions import Fraction

import numpy as np
import pytest

from _oracles import binomial_3sigma
from conftest import make_dataset, make_instance
from fairmatch import core, desim, queuing


def topo(rows):
    return core.MatchingTopology(np.array(rows))


class TestSimulate:
    def test_single_edge_conservation(self):
        inst = make_instance([Fraction(9, 10)], [Fraction(1)], rho=0.9)
        horizon = 5000.0
        stats = desim.simulate(inst, topo([[1]]), horizon, 0.0, seed=4)
        rate = stats.empirical_flows[0, 0]
        sigma = 3 * np.sqrt(0.9 / horizon)
        assert abs(rate - 0.9) < sigma

    def test_reproducible(self):
        inst = make_instance([1, 1], [Fraction(101, 100), Fraction(101, 100)])
        a = desim.simulate(inst, topo([[1, 1], [1, 1]]), 500.0, 0.2, seed=9)
        b = desim.simulate(inst, topo([[1, 1], [1, 1]]), 500.0, 0.2, seed=9)
        assert np.array_equal(a.empirical_flows, b.empirical_flows)
        assert a.overall_avg_wait == b.overall_avg_wait
        assert a.matched_count == b.matched_count

    def test_flow_support_respects_topology(self):
        inst = make_instance([Fraction(2, 5), Fraction(1, 2)],
                             [Fraction(1, 2), Fraction(1, 2)])
        stats = desim.simulate(inst, topo([[1, 0], [1, 1]]), 2000.0, 0.1, seed=1)
        assert stats.empirical_flows[0, 1] == 0.0

    def test_match_accounting_exact(self):
        inst = make_instance([1, 1], [Fraction(101, 100), Fraction(101, 100)])
        stats = desim.simulate(inst, topo([[1, 1], [1, 1]]), 800.0, 0.25, seed=2)
        counts = stats.empirical_flows * stats.horizon
        assert stats.matched_count == int(round(counts.sum()))

    def test_inadmissible_rejected(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 2)],
                             [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(ValueError):
            desim.simulate(inst, topo([[1, 0], [1, 1]]), 100.0, 0.0, seed=0)

    def test_agrees_with_flow_solver(self):
        inst = make_instance([1, 1], [Fraction(21, 20), Fraction(21, 20)],
                             rho=2 / 2.1)
        m = topo([[1, 1], [1, 1]])
        stats = desim.simulate(inst, m, 60_000.0, 0.2, seed=5)
        expected = queuing.steady_state_flows(inst, m).f
        assert np.max(np.abs(stats.empirical_flows - expected) / expected) < 0.05

    def test_overall_wait_is_match_weighted(self):
        inst = make_instance([Fraction(6, 5), Fraction(4, 5)],
                             [Fraction(51, 50), Fraction(51, 50)], rho=0.98)
        stats = desim.simulate(inst, topo([[1, 1], [1, 1]]), 1500.0, 0.2, seed=3)
        counts = np.round(stats.empirical_flows * stats.horizon).sum(axis=1)
        per_queue = np.nan_to_num(stats.avg_wait_per_queue)
        weighted = float((per_queue * counts).sum() / counts.sum())
        assert stats.overall_avg_wait == pytest.approx(weighted, rel=1e-6)


class TestMatchingDiscipline:
    def test_global_fcfs_hand_scenario(self):
        # two queues share one resource type; individuals arrive at t=1 (q1)
        # and t=2 (q0); resources at t=3 and t=4 must serve in arrival order
        times = np.array([1.0, 2.0, 3.0, 4.0])
        kinds = np.array([0, 0, 1, 1])
        idxs = np.array([1, 0, 0, 0])
        counts, wait_sum, wait_n, expired, log = desim._run_matching(
            times, kinds, idxs, [[0], [0]], [[0, 1]], 2, 1, 0.0, 5.0, audit=True)
        assert counts[1, 0] == 1 and counts[0, 0] == 1
        assert expired == 0
        assert [entry[2] for entry in log] == [1, 0]
        assert [entry[4] for entry in log] == [2.0, 2.0]

    def test_tie_breaks_toward_lower_queue(self):
        times = np.array([1.0, 1.0, 2.0])
        kinds = np.array([0, 0, 1])
        idxs = np.array([0, 1, 0])
        counts, *_ , log = desim._run_matching(
            times, kinds, idxs, [[0], [0]], [[0, 1]], 2, 1, 0.0, 3.0, audit=True)
        assert log[0][2] == 0

    def test_individual_takes_earliest_waiting_resource(self):
        # resources of both types wait; the earlier-arrived type must be used
        times = np.array([1.0, 2.0, 3.0])
        kinds = np.array([1, 1, 0])
        idxs = np.array([1, 0, 0])
        counts, *_rest, log = desim._run_matching(
            times, kinds, idxs, [[0, 1]], [[0], [0]], 1, 2, 0.0, 4.0, audit=True)
        assert counts[0, 1] == 1 and counts[0, 0] == 0


class TestReplay:
    def test_empty_dataset(self):
        inst = make_instance([1], [Fraction(11, 10)])
        ds = make_dataset([], [], [], resources=("a",))
        stats = desim.simulate_replay(ds, [], inst, topo([[1]]), seed=0)
        assert stats.matched_count == 0
        assert np.all(stats.empirical_flows == 0)

    def test_single_record_matches_once(self):
        inst = make_instance([1], [Fraction(5)])
        ds = make_dataset([0.0], ["a"], [1], resources=("a",), arrival=[1.0])
        stats = desim.simulate_replay(ds, ["q0"] * len(ds), inst, topo([[1]]), seed=0)
        assert stats.matched_count == 1
        assert stats.expired_horizon_count == 0

    def test_match_shares_follow_arrivals(self):
        rng = np.random.default_rng(12)
        n = 4000
        scores = rng.uniform(-1, 1, n)
        arrivals = np.sort(rng.uniform(0, 1000.0, n))
        ds = make_dataset(scores, ["a"] * n, [0] * n, resources=("a",),
                          arrival=arrivals)
        queue_ids = ["q0" if s < 0 else "q1" for s in ds.score]
        inst = make_instance([2, 2], [Fraction(9, 2)])
        stats = desim.simulate_replay(ds, queue_ids, inst, topo([[1], [1]]), seed=0)
        share = stats.empirical_flows[0, 0] / stats.empirical_flows.sum()
        assert abs(share - 0.5) < binomial_3sigma(0.5, n)


class TestEventLog:
    def test_log_written(self, tmp_path):
        inst = make_instance([1], [Fraction(11, 10)])
        stats = desim.simulate(inst, topo([[1]]), 200.0, 0.0, seed=0, audit=True)
        path = tmp_path / "events.log"
        desim.write_event_log(stats, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(stats.event_log) > 0
        first = lines[0].split(",")
        assert first[1] == "match"
