"""Synthetic observational data with known potential outcomes, plus the two
experiment harnesses (propensity sweep and queue-count sweep)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import causal, ope, optimizer
from .core import Dataset

RESOURCES = ("SO", "RRH", "PSH")          # SO is the baseline
PROPENSITY_STRATA = (0.0, 0.2)            # stratum edges on the score
DEFAULT_PROPENSITY = {
    # stratum -> probabilities for (SO, RRH, PSH)
    "low": (0.3, 0.3, 0.4),               # S <= 0.0
    "mid": (0.3, 0.4, 0.3),               # 0.0 < S <= 0.2
    "high": (0.3, 0.2, 0.5),              # S > 0.2
}
OUTCOME_MEANS = {
    "SO": ((np.inf, 0.0),),                           # E[Y(SO)] = 0 everywhere
    "RRH": ((0.2, 0.2), (0.7, 0.6), (np.inf, 0.2)),   # step thresholds on S
    "PSH": ((0.3, 0.6), (0.5, 0.2), (np.inf, 0.6)),
}
ALPHAS = (0.02, 0.05, 0.1, 0.2, 0.3)


@dataclass(frozen=True)
class SynthParams:
    n: int = 10_000
    score_low: float = -0.5
    score_high: float = 1.0
    propensity_table: dict = field(default_factory=lambda: dict(DEFAULT_PROPENSITY))
    outcome_means: dict = field(default_factory=lambda: dict(OUTCOME_MEANS))
    group_probs: dict = field(default_factory=dict)   # dim -> {label: prob}
    seed: int = 0

    def __post_init__(self):
        for name, vec in self.propensity_table.items():
            if abs(sum(vec) - 1.0) > 1e-9:
                raise ValueError(f"propensity vector for stratum {name} must sum to 1")
        for r, steps in self.outcome_means.items():
            for _, p in steps:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"outcome mean out of [0,1] for {r}")


def alpha_variant(params: SynthParams, alpha: float) -> SynthParams:
    """Mid-stratum propensities become (0.3, 0.7 - alpha, alpha) for (SO, RRH, PSH)."""
    if not 0.0 < alpha < 0.7:
        raise ValueError("alpha must lie in (0, 0.7)")
    table = dict(params.propensity_table)
    table["mid"] = (0.3, 0.7 - alpha, alpha)
    return replace(params, propensity_table=table)


def outcome_mean(resource: str, scores, outcome_means=None):
    """Step-function success probability for one resource over the score."""
    steps = (outcome_means or OUTCOME_MEANS)[resource]
    scores = np.asarray(scores, dtype=float)
    out = np.empty(len(scores))
    prev = -np.inf
    for edge, p in steps:
        out[(scores > prev) & (scores <= edge)] = p
        prev = edge
    return out


def true_propensity(scores, propensity_table=None):
    """Generator propensity vectors over (SO, RRH, PSH) per record. A score
    on a stratum edge falls in the lower stratum, and NaN in ``high``."""
    table = propensity_table or DEFAULT_PROPENSITY
    rows = np.array([table["low"], table["mid"], table["high"]], dtype=float)
    return rows[np.searchsorted(PROPENSITY_STRATA, np.asarray(scores, dtype=float),
                                side="left")]


def generate(params: SynthParams) -> Dataset:
    rng = np.random.default_rng(params.seed)
    s = rng.uniform(params.score_low, params.score_high, params.n)
    prop = true_propensity(s, params.propensity_table)
    u = rng.random(params.n)
    cum = np.cumsum(prop, axis=1)
    t_idx = (u[:, None] > cum).sum(axis=1)
    treatment = np.array(RESOURCES)[t_idx]
    po = {r: (rng.random(params.n) < outcome_mean(r, s, params.outcome_means)).astype(int)
          for r in RESOURCES}
    outcome = np.select([treatment == r for r in RESOURCES], [po[r] for r in RESOURCES])
    arrival = np.cumsum(rng.exponential(1.0, params.n))
    groups = {}
    for dim, probs in params.group_probs.items():
        labels = list(probs.keys())
        p = np.array([probs[g] for g in labels], dtype=float)
        groups[dim] = np.array(labels, dtype=object)[rng.choice(len(labels),
                                                                params.n, p=p / p.sum())]
    return Dataset(s[:, None], s, groups, treatment, outcome, arrival,
                   RESOURCES, ["score"], potential_outcomes=po)


# ---------------------------------------------------------------------------
# Experiment harnesses

def run_pipeline(dataset: Dataset, pipeline_params=None, seed: int = 0):
    """``causal.learn`` on one dataset, then the matching optimization without
    fairness constraints. Returns (Learned, OptimizationResult)."""
    learned = causal.learn(dataset, pipeline_params, seed)
    return learned, optimizer.solve(optimizer.build_mio(learned.instance, learned.tau))


def _sweep_rows(sweep_param, seed, dataset, pipeline_params, min_propensity):
    """One sweep point: learn, optimize, and one row per estimator."""
    learned, result = run_pipeline(dataset, pipeline_params, seed)
    values = ope.evaluate_all(ope.ESTIMATORS, learned.scores, result.flows,
                              learned.instance, learned.tau)
    return [{"sweep_param": sweep_param, "seed": seed, "estimator": est,
             "value": value, "n_queues": learned.partition.n_queues,
             "min_propensity": min_propensity} for est, value in values.items()]


def run_alpha_sweep(alphas=ALPHAS, n: int = 10_000, seeds=range(10),
                    pipeline_params=None, out_path=None):
    """Vary the mid-stratum propensities and compare estimators per dataset."""
    rows = []
    base = SynthParams(n=n)
    for alpha in alphas:
        for seed in seeds:
            params = replace(alpha_variant(base, alpha), seed=seed)
            min_prop = min(min(v) for v in params.propensity_table.values())
            rows += _sweep_rows(alpha, seed, generate(params), pipeline_params, min_prop)
    if out_path:
        _write_sweep_csv(out_path, rows)
    return rows


def run_queue_sweep(min_node_sizes=(6000, 2000, 1000, 400, 150), n: int = 10_000,
                    seeds=range(10), pipeline_params=None, out_path=None):
    """Vary tree granularity (including the forced single-queue case) and
    track policy value against queue count."""
    rows = []
    p = {**causal.PIPELINE_DEFAULTS, **(pipeline_params or {})}
    for mns in min_node_sizes:
        params = {**p, "tree_params": {**p["tree_params"], "min_node_size": mns}}
        for seed in seeds:
            rows += _sweep_rows(mns, seed, generate(SynthParams(n=n, seed=seed)),
                                params, "")
    if out_path:
        _write_sweep_csv(out_path, rows)
    return rows


def _write_sweep_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["sweep_param", "seed", "estimator",
                                           "value", "n_queues", "min_propensity"])
        w.writeheader()
        w.writerows(rows)
