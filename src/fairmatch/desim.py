"""Discrete-event simulation of the double-sided FCFS matching system.

Individuals arrive to queues and resources arrive to type buffers as Poisson
streams; each side waits for the other. A resource serves the earliest-arrived
waiting individual across all eligible queues; an individual takes the
earliest-arrived waiting resource among eligible types. Ties on identical
timestamps break toward the lower queue/resource index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, MCMSInstance, MatchingTopology
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
    """Single time-ordered event list; individuals sort before resources on ties,
    lower index first."""
    times, kinds, idxs = [], [], []
    for q, t in enumerate(streams_q):
        times.append(t)
        kinds.append(np.zeros(t.size, dtype=int))
        idxs.append(np.full(t.size, q))
    for r, t in enumerate(streams_r):
        times.append(t)
        kinds.append(np.ones(t.size, dtype=int))
        idxs.append(np.full(t.size, r))
    times = np.concatenate(times)
    kinds = np.concatenate(kinds)
    idxs = np.concatenate(idxs)
    order = np.lexsort((idxs, kinds, times))
    return times[order], kinds[order], idxs[order]


def _run_matching(times, kinds, idxs, eligible_r_per_q, eligible_q_per_r,
                  n_q, n_r, warmup_end, horizon, audit=False):
    wait_q = [[] for _ in range(n_q)]     # waiting individual arrival times per queue
    head_q = [0] * n_q
    wait_r = [[] for _ in range(n_r)]     # waiting resource arrival times per type
    head_r = [0] * n_r
    counts = np.zeros((n_q, n_r), dtype=np.int64)
    wait_sum = np.zeros(n_q)
    wait_n = np.zeros(n_q, dtype=np.int64)
    log = []
    for t, kind, i in zip(times.tolist(), kinds.tolist(), idxs.tolist()):
        if kind == 0:
            best_r, best_t = -1, None
            for r in eligible_r_per_q[i]:
                if head_r[r] < len(wait_r[r]):
                    rt = wait_r[r][head_r[r]]
                    if best_t is None or rt < best_t:
                        best_r, best_t = r, rt
            if best_r < 0:
                wait_q[i].append(t)
            else:
                head_r[best_r] += 1
                if t >= warmup_end:
                    counts[i, best_r] += 1
                    wait_n[i] += 1
                if audit:
                    log.append((t, "match", i, best_r, 0.0))
        else:
            best_q, best_t = -1, None
            for q in eligible_q_per_r[i]:
                if head_q[q] < len(wait_q[q]):
                    qt = wait_q[q][head_q[q]]
                    if best_t is None or qt < best_t:
                        best_q, best_t = q, qt
            if best_q < 0:
                wait_r[i].append(t)
            else:
                head_q[best_q] += 1
                if t >= warmup_end:
                    counts[best_q, i] += 1
                    wait_sum[best_q] += t - best_t
                    wait_n[best_q] += 1
                if audit:
                    log.append((t, "match", best_q, i, t - best_t))
    expired = sum(len(w) - h for w, h in zip(wait_q, head_q))
    return counts, wait_sum, wait_n, expired, log


def _match_streams(streams_q, streams_r, topology, warmup_end, horizon, seed, audit):
    """FCFS matching of the arrival streams on the topology, and its statistics."""
    times, kinds, idxs = _merged_events(streams_q, streams_r)
    m = topology.m
    n_q, n_r = m.shape
    elig_r = [list(np.flatnonzero(m[q])) for q in range(n_q)]
    elig_q = [list(np.flatnonzero(m[:, r])) for r in range(n_r)]
    counts, wait_sum, wait_n, expired, log = _run_matching(
        times, kinds, idxs, elig_r, elig_q, n_q, n_r, warmup_end, horizon, audit)
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
        expired_horizon_count=int(expired),
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


def simulate_replay(dataset: Dataset, queue_ids, instance: MCMSInstance,
                    topology: MatchingTopology, seed: int = 0,
                    audit: bool = False) -> SimulationStats:
    """Replay individual arrivals from dataset timestamps into the records'
    queues; resource arrivals remain synthetic Poisson."""
    topology.check_shape(instance)
    if len(dataset) == 0:
        return SimulationStats(
            empirical_flows=np.zeros((instance.n_queues, instance.n_resources)),
            avg_wait_per_queue=np.full(instance.n_queues, np.nan),
            overall_avg_wait=float("nan"), matched_count=0,
            expired_horizon_count=0, horizon=0.0, seed=seed)
    queue_ids = np.asarray(queue_ids)
    unknown = set(queue_ids.tolist()) - set(instance.queues)
    if unknown:
        raise ValueError(f"records mapped to unknown queues {sorted(unknown)}")
    streams_q = [np.sort(dataset.arrival_time[queue_ids == q]) for q in instance.queues]
    horizon = float(dataset.arrival_time.max()) + 1.0
    rng = np.random.default_rng(seed)
    streams_r = [_poisson_stream(rng, float(x), horizon) for x in instance.mu]
    return _match_streams(streams_q, streams_r, topology, 0.0, horizon, seed, audit)


def write_event_log(stats: SimulationStats, path):
    """Line-delimited audit records: time, event type, queue, resource, wait."""
    with open(path, "w") as fh:
        for t, kind, q, r, wait in stats.event_log:
            fh.write(f"{t!r},{kind},{q},{r},{wait!r}\n")
