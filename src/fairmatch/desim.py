"""Discrete-event simulation of the double-sided FCFS matching system.

Individuals arrive to queues and resources arrive to type buffers as Poisson
streams; each side waits for the other (Caldentey, Kaplan & Weiss 2009). The
two sides are symmetric, so the simulator sees one bipartite graph: queue q is
node q, resource r is node ``n_queues + r``, and an edge of the topology joins
them. An arrival takes the earliest-arrived waiting partner among its
neighbours, or waits at its own node. Arrivals at the same time are handled
in node order, so individuals come before resources, and a tie between
waiting partners' arrival times goes to the lower node.

Which nodes have someone waiting is kept in one integer, an occupancy mask
whose bit j is set while someone waits at node j. An arrival ands it with its
own neighbour mask: with no bit left it waits at its own node without looking
at any neighbour, with one bit left that neighbour holds its partner, and only
with two or more does it scan its neighbours for the earliest-arrived head, in
node order and with the same tie rule. Python integers are unbounded, so the
mask serves any number of nodes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import MCMSInstance, MatchingTopology
from .queuing import check_admissible


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
    times, nodes = _merged_events(streams_q, streams_r)
    m = topology.m
    n_q, n_r = m.shape
    neighbours = ([(n_q + np.flatnonzero(row)).tolist() for row in m]
                  + [np.flatnonzero(col).tolist() for col in m.T])
    bits = [1 << j for j in range(len(neighbours))]
    masks = [sum(bits[j] for j in nb) for nb in neighbours]
    node_of = {b: j for j, b in enumerate(bits)}
    waiting = [deque() for _ in neighbours]      # arrival times, earliest first
    busy = 0                                     # bit j set while waiting[j] is non-empty
    counts = [[0] * n_r for _ in range(n_q)]     # lists: cheaper per match than numpy
    wait_sum = [0.0] * n_q
    log = []
    for t, i in zip(times.tolist(), nodes.tolist()):
        live = busy & masks[i]
        if not live:
            if not waiting[i]:
                busy ^= bits[i]
            waiting[i].append(t)
            continue
        if not live & (live - 1):                    # one neighbour has someone waiting
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
        if best < n_q:                               # only individuals' waits count
            q, r, wait = best, i - n_q, t - best_t
        else:
            q, r, wait = i, best - n_q, 0.0
        if t >= warmup_end:
            counts[q][r] += 1
            wait_sum[q] += wait
        if audit:
            log.append((t, "match", q, r, wait))
    counts, wait_sum = np.array(counts, dtype=np.int64), np.array(wait_sum)
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
        expired_horizon_count=sum(len(w) for w in waiting[:n_q]),
        horizon=float(measured),
        seed=seed,
        event_log=tuple(log),
    )


def simulate(instance: MCMSInstance, topology: MatchingTopology, horizon_days: float,
             warmup_fraction: float = 0.2, seed: int = 0, audit: bool = False) -> SimulationStats:
    """Simulate Poisson arrivals on both sides and FCFS matching on the topology."""
    topology.check_shape(instance)
    if horizon_days <= 0:
        raise ValueError("horizon must be positive")
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must lie in [0, 1)")
    if not check_admissible(instance, topology):
        raise ValueError("topology is not admissible")
    rng = np.random.default_rng(seed)
    streams_q = [_poisson_stream(rng, float(x), horizon_days) for x in instance.lam]
    streams_r = [_poisson_stream(rng, float(x), horizon_days) for x in instance.mu]
    return _match_streams(streams_q, streams_r, topology,
                          warmup_fraction * horizon_days, horizon_days, seed, audit)
