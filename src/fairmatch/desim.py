"""Discrete-event simulation of the double-sided FCFS matching system.

Individuals arrive to queues and resources arrive to type buffers as Poisson
streams; each side waits for the other (Caldentey, Kaplan & Weiss 2009). The
two sides are symmetric, so the simulator sees one bipartite graph: queue q is
node q, resource r is node ``n_queues + r``, and an edge of the topology joins
them. An arrival takes the earliest-arrived waiting partner among its
neighbours, or waits at its own node. Arrivals at the same time are handled
in node order, so individuals come before resources, and a tie between
waiting partners' arrival times goes to the lower node.

A node's arrivals are consumed in arrival order, so its waiting line is
always the slice ``stream[head:arrived]`` of its own sorted stream, and only
the index ``head`` is kept. Proof: no edge ever has someone waiting at both
ends (the later arrival would have taken the earlier), so an arrival at a
node with a non-empty line joins its end, and one at a node with an empty
line is matched at once, as the line's next index, or starts the line.

The arrivals are merged and matched one time window at a time, so that only
the per-node streams (8 bytes an arrival) and one window of Python objects are
held at once. Every node's sorted stream is cut at the same bounds, a uniform
grid over the horizon, and an arrival exactly at a bound goes to the later
window for every node. Each window then holds every arrival in its half-open
interval, and the windows laid end to end are the whole horizon's (time, node)
order, ties included. The line heads and the tallies carry from one window to
the next.

A window is first walked in bulk, for as long as the set B of nodes with
someone waiting stays the one at its start. An arrival at a node of B joins
its line. An arrival at another node takes a head from its neighbours in B:
with one such neighbour, its next head, so the k-th taker from node j gets
``stream_j[head_j + k]``, found for all such arrivals at once; with two or
more, the earliest of their heads, which a loop over those arrivals alone
finds. Every head taken must then have arrived before its taker. The stretch
ends at the first taker whose head had not (that line had emptied), or at the
first arrival with no neighbour in B (it would start a line). The matches
before that point are tallied at once. The rest of the window is walked in
turns: ``_WALK_EVENTS`` arrivals one at a time, then bulk walks again from the
set B reached there, and so on, each one-at-a-time walk twice as long as the
one before, so that a window where B keeps changing hands over a few times
at most.

The one-at-a-time walk keeps which nodes have someone waiting in one
integer, an occupancy mask whose bit j is set while someone waits at node j. An arrival ands it with
its own neighbour mask: with no bit left it waits at its own node without
looking at any neighbour, with one bit left that neighbour holds its partner,
and only with two or more does it scan its neighbours for the earliest-arrived
head, in node order and with the same tie rule. Python integers are
unbounded, so the mask serves any number of nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import MCMSInstance, MatchingTopology
from .queuing import check_admissible

_WINDOW_EVENTS = 1 << 16      # arrivals merged and walked per window, on average
_WALK_EVENTS = 1 << 12        # arrivals first walked one at a time after a break
_BULK_EVENTS = 1 << 12        # arrivals a bulk walk after the first looks at, at most


@dataclass(frozen=True)
class SimulationStats:
    empirical_flows: np.ndarray       # matches/day per (queue, resource)
    avg_wait_per_queue: np.ndarray    # days; NaN for queues with no matches
    overall_avg_wait: float
    matched_count: int
    expired_horizon_count: int        # individuals still waiting at the horizon
    horizon: float
    seed: int
    event_log: tuple = field(default=(), repr=False)


def _poisson_stream(rng, rate: float, horizon: float) -> np.ndarray:
    if rate <= 0:
        return np.empty(0)
    n_expect = rate * horizon
    times = np.cumsum(rng.exponential(1.0 / rate, size=int(n_expect + 6 * np.sqrt(n_expect) + 20)))
    while times.size and times[-1] < horizon:
        extra = np.cumsum(rng.exponential(1.0 / rate, size=max(16, int(0.1 * n_expect))))
        times = np.concatenate([times, times[-1] + extra])
    return times[times < horizon]


def _merged_events(streams_q, streams_r):
    """Every arrival as (time, node) in time order, ties toward the lower node.

    Queue q is node q and resource r is node ``len(streams_q) + r``, so on a
    tie individuals come before resources, lower index first. The streams are
    concatenated in node order, so a stable sort on time alone keeps that order.
    """
    streams = list(streams_q) + list(streams_r)
    times = np.concatenate(streams)
    nodes = np.repeat(np.arange(len(streams)), [t.size for t in streams])
    order = np.argsort(times, kind="stable")
    return times[order], nodes[order]


def _match_streams(streams_q, streams_r, topology, warmup_end, horizon, seed, audit):
    """FCFS matching of the arrival streams on the topology, and its statistics."""
    streams = list(streams_q) + list(streams_r)
    n_windows = max(1, sum(s.size for s in streams) // _WINDOW_EVENTS)
    bounds = np.linspace(0.0, horizon, n_windows + 1)[1:-1]
    cuts = [[0, *np.searchsorted(s, bounds, side="left").tolist(), s.size]
            for s in streams]
    fcfs = _FCFS(streams, topology.m, warmup_end, audit)
    for w in range(n_windows):
        fcfs.window([c[w] for c in cuts], [c[w + 1] for c in cuts])
    n_q = len(streams_q)
    counts, wait_sum = np.array(fcfs.counts, dtype=np.int64), np.array(fcfs.wait_sum)
    wait_n = counts.sum(axis=1)
    measured = horizon - warmup_end
    with np.errstate(invalid="ignore"):
        avg_wait = np.where(wait_n > 0, wait_sum / np.maximum(wait_n, 1), np.nan)
    total = int(wait_n.sum())
    overall = float(wait_sum.sum() / total) if total else float("nan")
    return SimulationStats(
        empirical_flows=counts / measured,
        avg_wait_per_queue=avg_wait,
        overall_avg_wait=overall,
        matched_count=total,
        expired_horizon_count=sum(s.size - h for s, h in zip(streams, fcfs.head[:n_q])),
        horizon=float(measured),
        seed=seed,
        event_log=tuple(fcfs.log or ()),
    )


class _FCFS:
    """FCFS matching state carried from one window to the next: where each
    node's waiting line starts in its stream, and the tallies."""

    def __init__(self, streams, m, warmup_end, audit):
        self.streams = streams
        self.n_q, self.n_r = n_q, n_r = m.shape
        self.neighbours = ([(n_q + np.flatnonzero(row)).tolist() for row in m]
                           + [np.flatnonzero(col).tolist() for col in m.T])
        self.bits = [1 << j for j in range(len(streams))]
        self.masks = [sum(self.bits[j] for j in nb) for nb in self.neighbours]
        self.head = [0] * len(streams)       # line j is streams[j][head[j]:arrived_j]
        self.counts = [[0] * n_r for _ in range(n_q)]   # lists: cheaper per match than numpy
        self.wait_sum = [0.0] * n_q
        self.warmup_end = warmup_end
        self.log = [] if audit else None

    def window(self, lo, hi):
        """Match the arrivals streams[j][lo[j]:hi[j]] of every node j."""
        window = [s[a:b] for s, a, b in zip(self.streams, lo, hi)]
        times, nodes = _merged_events(window[:self.n_q], window[self.n_q:])
        start = self._stretch(times, nodes, lo, hi)
        if start < len(times):
            self._walk(times, nodes, start, lo, hi)

    def _stretch(self, times, nodes, arrived, hi):
        """Match the events from the first for as long as the set of nodes
        with someone waiting stays the one before it, and return the number
        matched. ``arrived[j]`` counts node j's arrivals before the first."""
        streams, head = self.streams, self.head
        busy = [h < a for h, a in zip(head, arrived)]
        if not any(busy):
            return 0
        partners = [[] if b else [j for j in nb if busy[j]]
                    for b, nb in zip(busy, self.neighbours)]
        # per event: -1 joins its line, 0 would start one, 1 or 2 takes a
        # head from one, or from two or more, waiting neighbours
        kind = np.array([-1 if b else min(len(p), 2) for b, p in zip(busy, partners)])[nodes]
        idle = np.flatnonzero(kind == 0)
        stop = int(idle[0]) if idle.size else len(nodes)
        ev = np.flatnonzero(kind[:stop] > 0)
        i_ev = nodes[ev]
        partner = np.array([p[0] if len(p) == 1 else -1 for p in partners])[i_ev]
        choices = np.flatnonzero(partner < 0)
        if choices.size:
            partner[choices] = self._choose(i_ev, partner, choices, partners, hi)
        # the k-th partner taken from node j is streams[j][head[j] + k]; it
        # must have arrived before its taker, or the busy set changed there
        t_ev = times[ev]
        h = np.full(ev.size, np.inf)
        taken = np.bincount(partner, minlength=len(streams))
        # a stable sort of a small integer type is a radix sort
        order = np.argsort(partner.astype(np.min_scalar_type(len(streams))), kind="stable")
        first = np.cumsum(taken) - taken
        for j in np.flatnonzero(taken).tolist():
            line = streams[j][head[j]:min(hi[j], head[j] + taken[j])]
            h[order[first[j]:first[j] + line.size]] = line
        bad = np.flatnonzero((h > t_ev) | ((h == t_ev) & (partner > i_ev)))
        n_ok = int(bad[0]) if bad.size else ev.size
        end = int(ev[n_ok]) if bad.size else stop
        self._tally(t_ev[:n_ok], i_ev[:n_ok], partner[:n_ok], h[:n_ok])
        # a taker is matched on arrival, so its line stays empty
        used = np.bincount(partner[:n_ok], minlength=len(streams)).tolist()
        arrived = np.bincount(nodes[:end], minlength=len(streams)).tolist()
        for j in range(len(streams)):
            head[j] += used[j] if busy[j] else arrived[j]
        return end

    def _choose(self, i_ev, partner, choices, partners, hi):
        """The partner of each event with two or more waiting neighbours:
        the earliest head among them, a tie going to the lower node."""
        streams, head = self.streams, self.head
        i_c = i_ev[choices]
        choosers = np.flatnonzero(np.bincount(i_c)).tolist()
        table = np.full((len(partners), max(len(partners[i]) for i in choosers)), -1)
        for i in choosers:
            table[i, :len(partners[i])] = partners[i]
        ks = table[i_c]                  # per choice, its candidates in node order
        # bases[c, s]: the single-neighbour events that take from candidate s
        # before choice c; a candidate's heads are read from a list of the
        # most the window's events can take, padded with inf
        bases = np.zeros_like(ks)
        lines = [None] * len(partners)
        for j in {j for i in choosers for j in partners[i]}:
            singles = np.flatnonzero(partner == j)
            rows, cols = np.nonzero(ks == j)
            bases[rows, cols] = np.searchsorted(singles, choices[rows])
            cap = singles.size + rows.size
            lines[j] = streams[j][head[j]:min(hi[j], head[j] + cap)].tolist()
            lines[j].extend([np.inf] * (cap - len(lines[j])))
        more = repeat(())                # the candidates past the second
        if ks.shape[1] > 2:
            more = [tuple((k, b) for k, b in zip(kr[2:], br[2:]) if k >= 0)
                    for kr, br in zip(ks.tolist(), bases.tolist())]
        picks = [0] * len(partners)      # heads each candidate gave to choices so far
        chosen = []
        choose = chosen.append
        for best, b, x, y, rest in zip(ks[:, 0].tolist(), ks[:, 1].tolist(),
                                       bases[:, 0].tolist(), bases[:, 1].tolist(), more):
            best_t = lines[best][x + picks[best]]
            t = lines[b][y + picks[b]]
            if t < best_t:
                best, best_t = b, t
            for k, z in rest:
                t = lines[k][z + picks[k]]
                if t < best_t:
                    best, best_t = k, t
            picks[best] += 1
            choose(best)
        return np.fromiter(chosen, np.intp, len(chosen))

    def _tally(self, t, i, j, h):
        """Count the matches of arrivals at nodes i, at times t, with the
        waiting partners j that arrived at times h, in event order."""
        n_q, n_r = self.n_q, self.n_r
        by_queue = i < n_q
        q = np.where(by_queue, i, j)
        r = np.where(by_queue, j, i) - n_q
        wait = np.where(by_queue, 0.0, t - h)      # only individuals' waits count
        measured = t >= self.warmup_end
        flat = np.bincount(q[measured] * n_r + r[measured], minlength=n_q * n_r)
        for k in np.flatnonzero(flat).tolist():
            self.counts[k // n_r][k % n_r] += int(flat[k])
        waited = measured & ~by_queue                # adding a zero wait changes no sum
        for k in np.flatnonzero(np.bincount(q[waited], minlength=n_q)).tolist():
            # cumsum adds in order, as the event loop's += does
            sums = np.cumsum(np.append(self.wait_sum[k], wait[waited & (q == k)]))
            self.wait_sum[k] = float(sums[-1])
        if self.log is not None:
            self.log.extend(zip(t.tolist(), repeat("match"), q.tolist(), r.tolist(),
                                wait.tolist()))

    def _walk(self, times, nodes, start, lo, hi):
        """Match the window's events from index start, in turns: some one at
        a time (``_WALK_EVENTS``, doubling at each turn), then as many as bulk
        walks take."""
        n = len(self.streams)
        arrived = np.array(lo) + np.bincount(nodes[:start], minlength=n)
        walk = _WALK_EVENTS
        while start < len(times):
            end = min(len(times), start + walk)
            self._loop(times[start:end], nodes[start:end], arrived.tolist())
            arrived += np.bincount(nodes[start:end], minlength=n)
            start = end
            # bulk walks over chunks, for as long as each takes its whole chunk
            while start == end < len(times):
                end = min(len(times), start + _BULK_EVENTS)
                taken = self._stretch(times[start:end], nodes[start:end], arrived.tolist(), hi)
                arrived += np.bincount(nodes[start:start + taken], minlength=n)
                start += taken
            walk *= 2

    def _loop(self, times, nodes, arrived):
        """Match the events one at a time, with the lines held as deques of
        arrival times. ``arrived[j]`` counts node j's arrivals before the first."""
        streams, head, neighbours, n_q = self.streams, self.head, self.neighbours, self.n_q
        bits, masks = self.bits, self.masks
        # the events take fewer than `room` arrivals from a line
        room = len(times) + 1
        waiting = [deque(s[h:min(a, h + room)].tolist())    # arrival times, earliest first
                   for s, h, a in zip(streams, head, arrived)]
        unread = [a - h - len(line) for h, a, line in zip(head, arrived, waiting)]
        node_of = {b: j for j, b in enumerate(bits)}
        busy = sum(b for b, line in zip(bits, waiting) if line)   # bit j: waiting[j] non-empty
        counts, wait_sum, warmup_end, log = self.counts, self.wait_sum, self.warmup_end, self.log
        for t, i in zip(times.tolist(), nodes.tolist()):
            live = busy & masks[i]
            if not live:
                if not waiting[i]:
                    busy ^= bits[i]
                waiting[i].append(t)
                continue
            if not live & (live - 1):                # one neighbour has someone waiting
                best = node_of[live]
            else:
                best_t = None
                for j in neighbours[i]:
                    if waiting[j] and (best_t is None or waiting[j][0] < best_t):
                        best, best_t = j, waiting[j][0]
            line = waiting[best]
            best_t = line.popleft()
            if not line:
                busy ^= bits[best]
            if best < n_q:                           # only individuals' waits count
                q, r, wait = best, i - n_q, t - best_t
            else:
                q, r, wait = i, best - n_q, 0.0
            if t >= warmup_end:
                counts[q][r] += 1
                wait_sum[q] += wait
            if log is not None:
                log.append((t, "match", q, r, wait))
        ends = np.add(arrived, np.bincount(nodes, minlength=len(streams))).tolist()
        self.head = [b - len(line) - u for b, line, u in zip(ends, waiting, unread)]


def simulate(instance: MCMSInstance, topology: MatchingTopology, horizon_days: float,
             warmup_fraction: float = 0.2, seed: int = 0, audit: bool = False) -> SimulationStats:
    """Simulate Poisson arrivals on both sides and FCFS matching on the topology."""
    topology.check_shape(instance)
    if not 0 < horizon_days < np.inf:
        raise ValueError("horizon must be finite and positive")
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if not check_admissible(instance, topology):
        raise ValueError("topology is not admissible")
    rng = np.random.default_rng(seed)
    streams_q = [_poisson_stream(rng, float(x), horizon_days) for x in instance.lam]
    streams_r = [_poisson_stream(rng, float(x), horizon_days) for x in instance.mu]
    return _match_streams(streams_q, streams_r, topology,
                          warmup_fraction * horizon_days, horizon_days, seed, audit)
