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

The arrivals are merged and matched one time window at a time, and no
node's stream is ever held whole. ``simulate`` first draws every node's
arrivals once, node by node from one generator, only to count them and to
keep the generator's state where each node's draws begin. Each window then
replays every node's arrivals up to the window's bound from that node's own
generator, into a buffer reused from window to window, bit for bit the times
of the first pass. A buffer holds its node's waiting line, its arrivals in
the window and at most one block of ``_BLOCK`` times drawn ahead, so memory
does not grow with the horizon, beyond the waiting lines themselves and,
with ``audit=True``, the event log, which keeps one entry per match by
design.

Every node's sorted stream is cut at the same bounds, a uniform grid over
the horizon, and an arrival exactly at a bound goes to the later
window for every node. Each window then holds every arrival in its half-open
interval, and the windows laid end to end are the whole horizon's (time, node)
order, ties included. A window's arrivals are merged by numpy's unstable sort
on time, which has only one result when no two times are equal; a window
with tied times is sorted again stably, so that the streams' node order
breaks the ties. The line heads and the tallies carry from one window to the
next.

A window is first walked in bulk, for as long as the set B of nodes with
someone waiting stays the one at its start. An arrival at a node of B joins
its line. An arrival at another node takes a head from its neighbours in B:
with one such neighbour, its next head, so the k-th taker from node j gets
``stream_j[head_j + k]``, found for all such arrivals at once; with two or
more, the earliest of their heads, which a loop over those arrivals alone
finds, reading each candidate's heads in place from its stream (a loop where
every such arrival has exactly two candidates skips the general case's scan).
Every head taken must then have arrived before its taker. The stretch
ends at the first taker whose head had not (that line had emptied), or at the
first arrival with no neighbour in B (it would start a line). The matches
before that point are tallied at once, and the rest of the window is walked
one arrival at a time.

That walk keeps which nodes have someone waiting in one integer, an occupancy
mask whose bit j is set while someone waits at node j. An arrival ands it with
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

from .core import MCMSInstance, MatchingTopology, stable_order
from .queuing import check_admissible

_WINDOW_EVENTS = 1 << 16      # arrivals merged and walked per window, on average
_BLOCK = 1 << 12              # arrival times a replayed stream draws at a time
_COUNT_BLOCK = 1 << 19        # gaps drawn at a time while counting a stream's arrivals


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


def _draw_sizes(n_expect):
    """How many gaps a node's stream draws at first, when it expects
    ``n_expect`` arrivals, and how many more each time its last arrival is
    still before the horizon."""
    return int(n_expect + 6 * np.sqrt(n_expect) + 20), max(16, int(0.1 * n_expect))


class _Stream:
    """A node's arrival times in order, held in a reused buffer from the head
    of its waiting line to the last time drawn. A subclass writes the
    stream's next times into the array that ``_draw`` is given."""

    def __init__(self, n):
        self.n = n                       # arrivals before the horizon
        self.buf = np.empty(min(n, _BLOCK))
        self.start = 0                   # arrivals dropped before buf[0]
        self.held = 0                    # buf[:held] holds times
        self.cut = 0                     # buf[cut:held] is in no window yet

    def window(self, bound, head):
        """Hold every time before ``bound``, dropping times before the buffer
        index ``head`` when the buffer is full. Return how many times were
        dropped and the new window's slice of the buffer, the times from the
        last window's end up to ``bound``."""
        dropped = 0
        while self.start + self.held < self.n and (
                not self.held or self.buf[self.held - 1] < bound):
            k = min(_BLOCK, self.n - self.start - self.held)
            if self.held + k > self.buf.size:
                dropped += self._make_room(head - dropped, k)
            self._draw(self.buf[self.held:self.held + k])
            self.held += k
        lo = self.cut - dropped
        self.cut = lo + int(self.buf[lo:self.held].searchsorted(bound))
        return dropped, lo, self.cut

    def _make_room(self, head, k):
        """Move buf[head:held] to the front and return ``head``. When those
        times and ``k`` more would fill over half the buffer, they move to
        a new one twice their size, so that a time is moved about once."""
        keep = self.held - head
        buf = self.buf
        if 2 * (keep + k) > buf.size:
            buf = np.empty(2 * (keep + k))
        buf[:keep] = self.buf[head:self.held]
        self.buf, self.start, self.held = buf, self.start + head, keep
        return head


class _Given(_Stream):
    """Arrival times given as one sorted array."""

    def __init__(self, times):
        super().__init__(times.size)
        self.times = times

    def _draw(self, out):
        at = self.start + self.held
        out[:] = self.times[at:at + out.size]


class _Replay(_Stream):
    """A node's Poisson arrivals before the horizon, drawn twice from the
    generator's state at the start of the node's draws: once here, through
    ``scratch``, to count them and to move the shared generator past them,
    and again block by block as the windows need them.

    The times are the running sums of exponential gaps, drawn in two or more
    parts: first ``_draw_sizes(rate * horizon)[0]`` gaps, then more parts of
    the second size while the last time is still before the horizon. Each
    later part is its own running sum added to the last time before it, so
    its times round as those sums do, not as one running sum would."""

    def __init__(self, rng, rate, horizon, scratch):
        if rate <= 0:
            super().__init__(0)
            return
        self.scale, self.sizes = 1.0 / rate, _draw_sizes(rate * horizon)
        replay = np.random.default_rng(0)
        replay.bit_generator.state = rng.bit_generator.state      # the stream's start
        self._rewind(rng)
        n, part_left = 0, self.sizes[0]
        while part_left:
            block = scratch[:min(part_left, scratch.size)]
            self._draw(block)
            n += int(block.searchsorted(horizon))
            part_left -= block.size
            if not part_left and self.last < horizon:
                part_left = self.sizes[1]
        super().__init__(n)
        self._rewind(replay)

    def _rewind(self, rng):
        self.rng, self.left, self.carry, self.base, self.last = rng, self.sizes[0], 0.0, 0.0, 0.0

    def _draw(self, out):
        # exponential(scale) is scale * standard_exponential, and a running
        # sum started from the carry repeats the whole part's, bit for bit
        i = 0
        while i < out.size:
            if not self.left:                # the next part starts at the last time
                self.left, self.carry, self.base = self.sizes[1], 0.0, self.last
            part = out[i:i + self.left]
            self.rng.standard_exponential(out=part)
            part *= self.scale
            part[0] += self.carry
            np.cumsum(part, out=part)
            self.carry = part[-1]
            if self.base:
                part += self.base
            self.last = part[-1]
            self.left -= part.size
            i += part.size


def _replays(rng, rates, horizon):
    """Each node's `_Replay`, counted in turn on ``rng`` through one scratch
    block of up to ``_COUNT_BLOCK`` gaps. A large block means fewer calls,
    and once glibc's malloc has freed a block this large it keeps the
    windows' arrays on its heap, instead of mapping them and faulting their
    pages in again every window."""
    first = max((_draw_sizes(r * horizon)[0] for r in rates if r > 0), default=0)
    scratch = np.empty(min(_COUNT_BLOCK, first))
    return [_Replay(rng, r, horizon, scratch) for r in rates]


def _merged_events(streams_q, streams_r):
    """Every arrival as (time, node) in time order, ties toward the lower node.

    Queue q is node q and resource r is node ``len(streams_q) + r``, so on a
    tie individuals come before resources, lower index first. The streams are
    concatenated in node order, so a stable sort on time alone keeps that
    order (``stable_order`` takes the faster unstable sort when no two times
    are equal).
    """
    streams = list(streams_q) + list(streams_r)
    times = np.concatenate(streams)
    nodes = np.repeat(np.arange(len(streams)), [t.size for t in streams])
    order, merged = stable_order(times)
    return merged, nodes[order]


def _match_streams(streams_q, streams_r, topology, warmup_end, horizon, seed, audit):
    """FCFS matching of the given sorted arrival streams on the topology, and
    its statistics."""
    streams = [_Given(np.asarray(s, dtype=float)) for s in [*streams_q, *streams_r]]
    return _match(streams, topology, warmup_end, horizon, seed, audit)


def _match(streams, topology, warmup_end, horizon, seed, audit):
    """FCFS matching of every node's ``_Stream`` on the topology, queues
    first, and its statistics."""
    n_windows = max(1, sum(s.n for s in streams) // _WINDOW_EVENTS)
    bounds = [*np.linspace(0.0, horizon, n_windows + 1)[1:-1].tolist(), np.inf]
    fcfs = _FCFS(streams, topology.m, warmup_end, audit)
    for bound in bounds:
        fcfs.window(bound)
    waiting = [s.n - s.start - h for s, h in zip(streams[:fcfs.n_q], fcfs.head)]
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
        expired_horizon_count=sum(waiting),
        horizon=float(measured),
        seed=seed,
        event_log=tuple(fcfs.log or ()),
    )


class _FCFS:
    """FCFS matching state carried from one window to the next: each node's
    stream, where its waiting line starts in the stream's buffer, and the
    tallies."""

    def __init__(self, sources, m, warmup_end, audit):
        self.sources = sources
        self.streams = [None] * len(sources)      # each source's held times, per window
        self.n_q, self.n_r = n_q, n_r = m.shape
        self.neighbours = ([(n_q + np.flatnonzero(row)).tolist() for row in m]
                           + [np.flatnonzero(col).tolist() for col in m.T])
        self.bits = [1 << j for j in range(len(sources))]
        self.masks = [sum(self.bits[j] for j in nb) for nb in self.neighbours]
        self.head = [0] * len(sources)       # line j is streams[j][head[j]:arrived_j]
        self.counts = [[0] * n_r for _ in range(n_q)]   # lists: cheaper per match than numpy
        self.wait_sum = [0.0] * n_q
        self.warmup_end = warmup_end
        self.log = [] if audit else None

    def window(self, bound):
        """Match every node's arrivals before ``bound`` that no earlier
        window matched."""
        lo, hi = [], []
        for j, source in enumerate(self.sources):
            dropped, a, b = source.window(bound, self.head[j])
            self.head[j] -= dropped
            self.streams[j] = source.buf[:source.held]
            lo.append(a)
            hi.append(b)
        window = [s[a:b] for s, a, b in zip(self.streams, lo, hi)]
        times, nodes = _merged_events(window[:self.n_q], window[self.n_q:])
        start = self._stretch(times, nodes, lo, hi)
        if start < len(times):
            arrived = np.add(lo, np.bincount(nodes[:start], minlength=len(self.streams)))
            self._loop(times[start:], nodes[start:], arrived.tolist())

    def _stretch(self, times, nodes, lo, hi):
        """Match the window's events from its start for as long as the set
        of nodes with someone waiting stays the one at the start, and return
        the index of the first event left unmatched."""
        streams, head = self.streams, self.head
        busy = [h < a for h, a in zip(head, lo)]
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
            partner[choices] = self._choose(i_ev, partner, choices, partners)
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

    def _choose(self, i_ev, partner, choices, partners):
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
        # before choice c, read off each candidate's running count of them
        cands = sorted({j for i in choosers for j in partners[i]})
        column = np.zeros(len(partners), dtype=np.intp)
        column[cands] = np.arange(len(cands))
        # (numpy counts a bool array in int32 about twice as fast as in int64)
        singles = [np.cumsum(partner == j, dtype=np.int32) for j in cands]
        bases = np.take_along_axis(np.column_stack([s[choices] for s in singles]),
                                   column[ks], axis=1)
        # a candidate's heads are read in place from its stream, as many as
        # its single takers and every choice could take; a head past the
        # window's end is later than every event in it, so it is never
        # chosen before the stretch breaks
        lines = [None] * len(partners)
        for j, taken in zip(cands, singles):
            cap = int(taken[-1]) + choices.size
            line = streams[j][head[j]:head[j] + cap]
            if line.size < cap:              # the stream ends: pad it with inf
                line = np.append(line, np.full(cap - line.size, np.inf))
            lines[j] = memoryview(line)
        picks = [0] * len(partners)      # heads each candidate gave to choices so far
        chosen = []
        choose = chosen.append
        pairs = zip(ks[:, 0].tolist(), ks[:, 1].tolist(),
                    bases[:, 0].tolist(), bases[:, 1].tolist())
        if ks.shape[1] == 2:             # every choice is between two candidates
            for best, b, x, y in pairs:
                if lines[b][y + picks[b]] < lines[best][x + picks[best]]:
                    best = b
                picks[best] += 1
                choose(best)
            return np.fromiter(chosen, np.intp, len(chosen))
        more = [tuple((k, z) for k, z in zip(kr[2:], br[2:]) if k >= 0)
                for kr, br in zip(ks.tolist(), bases.tolist())]   # past the second
        for (best, b, x, y), rest in zip(pairs, more):
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
    """Simulate Poisson arrivals on both sides and FCFS matching on the topology.

    Memory does not grow with the horizon, except for the waiting lines
    and, with ``audit``, ``event_log``, which keeps one entry for every
    match."""
    topology.check_shape(instance)
    if not 0 < horizon_days < np.inf:
        raise ValueError("horizon must be finite and positive")
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if not check_admissible(instance, topology):
        raise ValueError("topology is not admissible")
    rng = np.random.default_rng(seed)
    streams = _replays(rng, [float(x) for x in [*instance.lam, *instance.mu]], horizon_days)
    return _match(streams, topology, warmup_fraction * horizon_days, horizon_days, seed, audit)
