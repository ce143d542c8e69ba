import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import random_instance, reference_match_streams, reference_poisson_stream
from conftest import make_instance
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

    @pytest.mark.parametrize("horizon", [0.0, -5.0, np.inf, np.nan])
    def test_bad_horizon_rejected(self, horizon):
        inst = make_instance([1], [Fraction(101, 100)])
        with pytest.raises(ValueError, match="horizon"):
            desim.simulate(inst, topo([[1]]), horizon, 0.0, seed=0)

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


def _match(streams_q, streams_r, rows, horizon):
    """Counts, expired count and event log of FCFS matching from t=0."""
    stats = desim._match_streams([np.array(t) for t in streams_q],
                                 [np.array(t) for t in streams_r],
                                 topo(rows), 0.0, horizon, 0, True)
    counts = np.rint(stats.empirical_flows * stats.horizon).astype(int)
    return counts, stats.expired_horizon_count, stats.event_log


class TestMatchingDiscipline:
    def test_global_fcfs_hand_scenario(self):
        # two queues share one resource type; individuals arrive at t=1 (q1)
        # and t=2 (q0); resources at t=3 and t=4 must serve in arrival order
        counts, expired, log = _match([[2.0], [1.0]], [[3.0, 4.0]], [[1], [1]], 5.0)
        assert counts[1, 0] == 1 and counts[0, 0] == 1
        assert expired == 0
        assert [entry[2] for entry in log] == [1, 0]
        assert [entry[4] for entry in log] == [2.0, 2.0]

    def test_tie_breaks_toward_lower_queue(self):
        counts, _, log = _match([[1.0], [1.0]], [[2.0]], [[1], [1]], 3.0)
        assert log[0][2] == 0

    def test_individual_takes_earliest_waiting_resource(self):
        # resources of both types wait; the earlier-arrived type must be used
        counts, *_ = _match([[3.0]], [[2.0], [1.0]], [[1, 1]], 4.0)
        assert counts[0, 1] == 1 and counts[0, 0] == 0


def _set_block(mp, block):
    """Draw and count every stream ``block`` times at a time."""
    mp.setattr(desim, "_BLOCK", block)
    mp.setattr(desim, "_COUNT_BLOCK", block)


def _replayed(rng, rates, horizon):
    """Every arrival of each node's `_Replay`, counted on ``rng`` and then
    replayed to its end."""
    out = []
    for stream in desim._replays(rng, rates, horizon):
        _, lo, hi = stream.window(np.inf, 0)
        assert hi - lo == stream.n
        out.append(stream.buf[lo:hi])
    return out


def _same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


class TestReplay:
    """Each node's arrivals, counted and then replayed a block at a time
    from its saved generator state, are the earlier generator's whole-horizon
    stream bit for bit, and counting moves the shared generator as far as
    drawing that stream did."""

    @pytest.fixture(params=[1, 7, None], autouse=True,
                    ids=["block1", "block7", "default"])
    def block(self, request, monkeypatch):
        if request.param:
            _set_block(monkeypatch, request.param)

    @pytest.mark.parametrize("seed", range(4))
    def test_streams(self, seed):
        # no draw at rate 0, and at 1e-4 a day one arrival at most, if any
        rates = [0.0, 1e-4, 0.37, 2.0, 0.0, 5.5, 1.0]
        rng, draws = np.random.default_rng(seed), np.random.default_rng(seed)
        for got, rate in zip(_replayed(rng, rates, 700.0), rates, strict=True):
            _same_bits(got, reference_poisson_stream(draws, rate, 700.0))
        assert rng.bit_generator.state == draws.bit_generator.state

    @pytest.mark.parametrize("first", [1, 5, 40])
    def test_extension_branch(self, monkeypatch, first):
        """With too few gaps drawn first, the stream adds more parts, each
        its own running sum added to the last time before it."""
        sizes = desim._draw_sizes
        monkeypatch.setattr(desim, "_draw_sizes", lambda n_expect: (first, sizes(n_expect)[1]))
        rates = [0.5, 3.0, 1.0]
        rng, draws = np.random.default_rng(first), np.random.default_rng(first)
        for got, rate in zip(_replayed(rng, rates, 400.0), rates, strict=True):
            want = reference_poisson_stream(draws, rate, 400.0, first=first)
            assert want.size > first
            _same_bits(got, want)
        assert rng.bit_generator.state == draws.bit_generator.state


def _same_stats(a, b):
    assert np.array_equal(a.empirical_flows, b.empirical_flows)
    assert np.array_equal(a.avg_wait_per_queue, b.avg_wait_per_queue, equal_nan=True)
    assert np.array_equal(a.overall_avg_wait, b.overall_avg_wait, equal_nan=True)
    assert (a.matched_count, a.expired_horizon_count, a.horizon, a.seed) == \
        (b.matched_count, b.expired_horizon_count, b.horizon, b.seed)
    assert a.event_log == b.event_log


@st.composite
def _grid_streams(draw):
    """A random topology, empty rows and columns allowed, and arrival streams
    on a coarse grid, so that queue-queue, resource-resource and
    queue-resource ties are all common."""
    n_q, n_r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n_r, max_size=n_r),
                         min_size=n_q, max_size=n_q))
    grid = st.lists(st.integers(0, 12).map(lambda k: k / 3), max_size=8)
    streams_q = [np.sort(np.array(draw(grid), dtype=float)) for _ in range(n_q)]
    streams_r = [np.sort(np.array(draw(grid), dtype=float)) for _ in range(n_r)]
    warmup_end = draw(st.integers(0, 12)) / 3
    return streams_q, streams_r, topo(rows), warmup_end


@st.composite
def _refill_streams(draw):
    """Grid streams plus one edge whose ends take turns: a burst at one end,
    then as many arrivals at the other, so that the first end's waiting line
    empties and refills again and again."""
    streams_q, streams_r, m, warmup_end = draw(_grid_streams())
    q = draw(st.integers(0, len(streams_q) - 1))
    r = draw(st.integers(0, len(streams_r) - 1))
    rows = m.m.copy()
    rows[q, r] = 1
    bursts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12))
    first = np.repeat(np.arange(len(bursts)) / 3, bursts)
    second = first + 1 / 6
    if draw(st.booleans()):
        first, second = second, first
    streams_q[q] = np.sort(np.concatenate([streams_q[q], first]))
    streams_r[r] = np.sort(np.concatenate([streams_r[r], second]))
    return streams_q, streams_r, topo(rows), warmup_end


@st.composite
def _excess_streams(draw):
    """One side arrives far more often than the other, so that its lines stay
    long and the bulk walk has stretches to take. Each node of the sparse side
    has one to three neighbours; both sides' arrivals share grid times, and
    the waiting side is the lower nodes or the higher ones. A burst at one
    sparse node can empty the dense side's lines in mid-window."""
    n_dense, n_sparse = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = np.zeros((n_sparse, n_dense), dtype=int)
    for row in rows:
        row[draw(st.lists(st.integers(0, n_dense - 1), min_size=1, max_size=3))] = 1
    grid = lambda lo, hi: st.lists(st.integers(0, 12), min_size=lo, max_size=hi)
    dense = [np.sort(draw(grid(4, 16))) / 3 for _ in range(n_dense)]
    sparse = [np.sort(draw(grid(0, 5))) / 3 for _ in range(n_sparse)]
    if draw(st.booleans()):
        s = draw(st.integers(0, n_sparse - 1))
        burst = np.full(draw(st.integers(1, 8)), draw(st.integers(0, 12)) / 3)
        sparse[s] = np.sort(np.concatenate([sparse[s], burst]))
    warmup_end = draw(st.integers(0, 12)) / 3
    if draw(st.booleans()):                   # the queues are the waiting side
        return dense, sparse, topo(rows.T), warmup_end
    return sparse, dense, topo(rows), warmup_end


class TestAgainstReference:
    """The bulk walk and the node loop give the statistics and event log of
    the earlier matcher, which handled the two sides in mirrored branches."""

    @given(case=_grid_streams() | _refill_streams(), audit=st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_grid_streams(self, case, audit):
        streams_q, streams_r, m, warmup_end = case
        args = (streams_q, streams_r, m, warmup_end, 13 / 3, 7, audit)
        _same_stats(desim._match_streams(*args), reference_match_streams(*args))

    @given(case=_excess_streams(), audit=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_stretches(self, case, audit):
        streams_q, streams_r, m, warmup_end = case
        args = (streams_q, streams_r, m, warmup_end, 13 / 3, 7, audit)
        _same_stats(desim._match_streams(*args), reference_match_streams(*args))

    @pytest.mark.parametrize("seed", range(3))
    def test_more_nodes_than_a_machine_word(self, seed):
        # 73 nodes: resources are nodes 70-72, past bit 63 of the occupancy mask
        rng = np.random.default_rng(seed)
        n_q, n_r = 70, 3
        rows = (rng.random((n_q, n_r)) < 0.3).astype(int)
        rows[np.arange(n_q), rng.integers(0, n_r, n_q)] = 1
        grid = lambda n: np.sort(rng.integers(0, 60, n)) / 3
        streams_q = [grid(rng.integers(0, 6)) for _ in range(n_q)]
        streams_r = [grid(60) for _ in range(n_r)]
        args = (streams_q, streams_r, topo(rows), 5.0, 20.0, seed, True)
        got = desim._match_streams(*args)
        _same_stats(got, reference_match_streams(*args))
        assert {q for _, _, q, _, _ in got.event_log} & set(range(64, n_q))

    @given(case=_grid_streams())
    @settings(max_examples=200, deadline=None)
    def test_merge_order_on_ties(self, case):
        streams = case[0] + case[1]
        times = np.concatenate(streams)
        nodes = np.repeat(np.arange(len(streams)), [t.size for t in streams])
        order = np.lexsort((nodes, times))
        got_times, got_nodes = desim._merged_events(case[0], case[1])
        assert np.array_equal(got_times, times[order])
        assert np.array_equal(got_nodes, nodes[order])

    @pytest.mark.parametrize("seed", range(6))
    def test_simulate(self, seed):
        """simulate matches the earlier generator's whole-horizon streams as
        the earlier matcher does."""
        rng = np.random.default_rng(seed)
        n_q, n_r = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        lam, mu = random_instance(rng, n_q, n_r)
        inst = make_instance(lam, mu)
        m = core.MatchingTopology.fully_connected(n_q, n_r)
        got = desim.simulate(inst, m, 300.0, 0.3, seed=seed, audit=True)
        draws = np.random.default_rng(seed)
        streams = [reference_poisson_stream(draws, float(x), 300.0)
                   for x in [*inst.lam, *inst.mu]]
        _same_stats(got, reference_match_streams(streams[:n_q], streams[n_q:], m,
                                                 0.3 * 300.0, 300.0, seed, True))


class TestInSmallWindows(TestAgainstReference):
    """The reference comparisons again, with windows of a few arrivals, so
    that window bounds often fall on tied arrival times, and with streams
    drawn a few times at a time, so that their buffers often move and grow."""

    @pytest.fixture(scope="class", params=[1, 3, 16], autouse=True)
    def window(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(desim, "_WINDOW_EVENTS", request.param)
            _set_block(mp, {1: 7, 3: 1, 16: 7}[request.param])
            yield

    test_merge_order_on_ties = None     # the merge itself never sees the window


def test_window_bounds_on_tied_arrivals(monkeypatch):
    # 4 windows over horizon 20 put the bounds at 5, 10 and 15, where
    # queue 0 and resource 0 both have an arrival
    on_bounds = np.array([15, 30, 45])
    streams_q = [np.union1d(np.arange(0, 60, 4), on_bounds) / 3,
                 np.arange(1, 60, 5) / 3]
    streams_r = [np.union1d(np.arange(2, 60, 4), on_bounds) / 3,
                 np.arange(0, 60, 6) / 3]
    arrivals = sum(s.size for s in streams_q + streams_r)
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", arrivals // 4)
    starts, merged = [], desim._merged_events

    def merged_events(streams_q, streams_r):
        times, nodes = merged(streams_q, streams_r)
        starts.append(times[0])
        return times, nodes
    monkeypatch.setattr(desim, "_merged_events", merged_events)
    args = (streams_q, streams_r, topo([[1, 1], [0, 1]]), 5.0, 20.0, 0, True)
    got = desim._match_streams(*args)
    assert starts == [0.0, 5.0, 10.0, 15.0]
    _same_stats(got, reference_match_streams(*args))


@pytest.fixture
def arrivals(monkeypatch):
    """The arrival count of each window that `simulate` merges, read as
    perfbench counts `desim.events`: the length of the times that a wrapped
    `desim._merged_events` returns."""
    sizes, merged = [], desim._merged_events

    def merged_events(streams_q, streams_r):
        times, nodes = merged(streams_q, streams_r)
        sizes.append(len(times))
        return times, nodes
    monkeypatch.setattr(desim, "_merged_events", merged_events)
    return sizes


def _peak_memory(inst, m, horizon=50_000.0):
    tracemalloc.start()
    try:
        desim.simulate(inst, m, horizon, 0.2, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_holds_one_window(monkeypatch, arrivals):
    """The simulator holds one window of arrivals and Python objects, not
    the whole horizon's."""
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", 4096)
    inst = make_instance([1, 1], [Fraction(101, 100), Fraction(101, 100)])
    peak = _peak_memory(inst, core.MatchingTopology.fully_connected(2, 2))
    assert peak < 24 * sum(arrivals)


def test_memory_holds_one_window_beside_a_long_line(monkeypatch, arrivals):
    """Resource 0 arrives ten times as often as it is taken, so its line
    spans many windows, and queue 0 chooses between it and resource 1. Only
    the heads a window can take are read, so the bound above still holds."""
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", 4096)
    inst = make_instance([1, 1], [10, Fraction(101, 100)])
    peak = _peak_memory(inst, topo([[1, 1], [0, 1]]))
    assert peak < 24 * sum(arrivals)


def test_memory_does_not_grow_with_the_horizon(monkeypatch):
    """No whole stream is held: at ten times the horizon, 400k arrivals
    instead of 40k, the peak stays within 64 kB of the peak at one. With
    windows of 4096 arrivals both horizons span many windows, and a counting
    block of 4096 gaps is the same size at both (by default it grows with
    the horizon up to its cap of 4 MB)."""
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", 4096)
    monkeypatch.setattr(desim, "_COUNT_BLOCK", 4096)
    inst = make_instance([1, 1], [Fraction(101, 100), Fraction(101, 100)])
    m = core.MatchingTopology.fully_connected(2, 2)
    peak = _peak_memory(inst, m, 10_000.0)
    assert _peak_memory(inst, m, 100_000.0) < peak + 64 * 1024


@pytest.mark.parametrize("seed", range(3))
def test_bulk_walk_carries_the_steady_state(monkeypatch, arrivals, seed):
    """With resources in slight excess their lines stay long, so after the
    first windows nearly every arrival is matched in bulk: the one-at-a-time
    walk sees fewer than 10 % of the arrivals."""
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", 4096)
    walked, loop = [], desim._FCFS._loop

    def counted_loop(self, times, nodes, arrived):
        walked.append(len(times))
        return loop(self, times, nodes, arrived)
    monkeypatch.setattr(desim._FCFS, "_loop", counted_loop)
    inst = make_instance([1, 1], [Fraction(101, 100), Fraction(101, 100)])
    desim.simulate(inst, core.MatchingTopology.fully_connected(2, 2), 100_000.0,
                   0.2, seed=seed)
    assert sum(walked) < 0.1 * sum(arrivals)


def test_bulk_walk_resumes_after_a_line_empties(monkeypatch):
    """One window on one edge: resources pile up, then individuals drain
    their line and queue in turn, then resources drain those. The bulk walk
    breaks when the first line empties, and the one-at-a-time walk matches
    the rest of the window as the reference does."""
    grid = lambda lo, step: lo + step * np.arange(round(100 / step))
    streams_q = [np.concatenate([grid(0, 0.02), grid(100, 0.005), grid(200, 0.02)])]
    streams_r = [np.concatenate([grid(0.001, 0.01), grid(100.001, 0.02),
                                 grid(200.001, 0.005)])]
    arrivals = sum(s.size for s in streams_q + streams_r)
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", arrivals)
    args = (streams_q, streams_r, topo([[1]]), 50.0, 300.0, 0, False)
    got = desim._match_streams(*args)
    _same_stats(got, reference_match_streams(*args))
    assert arrivals == 65_000 and got.matched_count > 0
