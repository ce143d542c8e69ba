"""Off-policy value estimators and calibration diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import Dataset, MCMSInstance, Policy, policy_from_flows, policy_value

ESTIMATORS = ("CT", "DM", "DR", "IPW", "GT")


@dataclass(frozen=True)
class ValueEstimate:
    estimator: str
    value: float
    n_effective: float = 0.0


def _policy_rows(policy: Policy, queue_ids, instance: MCMSInstance):
    """Per-record policy rows pi(. | queue of record)."""
    queue_index = {q: i for i, q in enumerate(instance.queues)}
    try:
        rows = np.array([queue_index[q] for q in queue_ids], dtype=int)
    except KeyError as exc:
        raise ValueError(f"record mapped to queue absent from instance: {exc}")
    return policy.probs[rows]


def _predictions(dataset: Dataset, out):
    """Outcome predictions, one column per resource."""
    X = dataset.design(out.feature_mode)
    return np.column_stack([out.predict(X, r) for r in dataset.resource_set])


def _observed(dataset: Dataset, pi, prop):
    """Index, policy probability and propensity of each record's observed resource."""
    t_idx = dataset.treatment_index()
    pbar = prop.prob_of(dataset.design(prop.feature_mode), dataset.treatment)
    if np.any(pbar <= 0):
        raise ValueError("zero propensity encountered; screen the dataset first")
    return t_idx, pi[np.arange(len(t_idx)), t_idx], pbar


def evaluate_dm(dataset: Dataset, policy: Policy, queue_ids, out,
                instance: MCMSInstance) -> ValueEstimate:
    """Direct method: model-predicted outcomes averaged under the policy."""
    pi = _policy_rows(policy, queue_ids, instance)
    yhat = _predictions(dataset, out)
    return ValueEstimate("DM", float(np.mean(np.sum(pi * yhat, axis=1))),
                         n_effective=float(len(dataset)))


def evaluate_ipw(dataset: Dataset, policy: Policy, queue_ids, prop,
                 instance: MCMSInstance) -> ValueEstimate:
    """Inverse propensity weighting of the observed outcomes."""
    pi = _policy_rows(policy, queue_ids, instance)
    _, pi_obs, pbar = _observed(dataset, pi, prop)
    weights = pi_obs / pbar
    return ValueEstimate("IPW", float(np.mean(weights * dataset.outcome)),
                         n_effective=float(weights.sum()))


def evaluate_dr(dataset: Dataset, policy: Policy, queue_ids, out, prop,
                instance: MCMSInstance) -> ValueEstimate:
    """Doubly robust: direct method plus an importance-weighted residual correction."""
    pi = _policy_rows(policy, queue_ids, instance)
    yhat = _predictions(dataset, out)
    dm = float(np.mean(np.sum(pi * yhat, axis=1)))
    t_idx, pi_obs, pbar = _observed(dataset, pi, prop)
    yhat_obs = yhat[np.arange(len(t_idx)), t_idx]
    correction = np.mean((dataset.outcome - yhat_obs) * pi_obs / pbar)
    return ValueEstimate("DR", dm + float(correction),
                         n_effective=float(len(dataset)))


def evaluate_gt(dataset: Dataset, policy: Policy, queue_ids,
                instance: MCMSInstance) -> ValueEstimate:
    """Ground truth from stored potential outcomes."""
    if dataset.potential_outcomes is None:
        raise ValueError("dataset has no potential outcomes")
    missing = set(dataset.resource_set) - set(dataset.potential_outcomes)
    if missing:
        raise ValueError(f"potential outcomes missing for {missing}")
    pi = _policy_rows(policy, queue_ids, instance)
    po = np.column_stack([dataset.potential_outcomes[r]
                          for r in dataset.resource_set])
    return ValueEstimate("GT", float(np.mean(np.sum(pi * po, axis=1))),
                         n_effective=float(len(dataset)))


_ESTIMATORS = {
    "DM": (evaluate_dm, ("out",)),
    "IPW": (evaluate_ipw, ("prop",)),
    "DR": (evaluate_dr, ("out", "prop")),
    "GT": (evaluate_gt, ()),
}


def estimate(name: str, dataset: Dataset, policy: Policy, queue_ids,
             instance: MCMSInstance, out=None, prop=None) -> ValueEstimate:
    """Run the estimator registered under ``name`` with the models it needs."""
    fn, needs = _ESTIMATORS[name]
    models = {"out": out, "prop": prop}
    return fn(dataset, policy, queue_ids, *[models[k] for k in needs], instance)


def evaluate_all(names, dataset: Dataset, flows, queue_ids, instance: MCMSInstance,
                 tau, out, prop) -> dict:
    """Value of the flows' policy under each named estimator of ``ESTIMATORS``.

    "CT" is the optimization-side value, flow-weighted effects over the total
    rate plus the baseline mean; the others run through ``estimate``.
    """
    policy = policy_from_flows(flows, instance)
    return {name: policy_value(flows, tau, instance) if name == "CT"
            else estimate(name, dataset, policy, queue_ids, instance, out, prop).value
            for name in names}


def per_group_values(dataset: Dataset, policy: Policy, queue_ids,
                     instance: MCMSInstance, estimator: str, group_dimension: str,
                     out=None, prop=None) -> dict:
    """Estimator restricted to each group's records."""
    if group_dimension not in dataset.groups:
        raise ValueError(f"unknown group dimension: {group_dimension}")
    labels = dataset.groups[group_dimension]
    queue_ids = np.asarray(queue_ids)
    values = {}
    for g in sorted(set(labels.tolist())):
        mask = labels == g
        if not mask.any():
            raise ValueError(f"empty group: {g}")
        values[str(g)] = estimate(estimator, dataset.subset(mask), policy,
                                  queue_ids[mask], instance, out, prop).value
    return values


def reliability_bins(predicted, observed, n_bins: int = 10):
    """Equal-width calibration bins on [0, 1]; empty bins are omitted."""
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if len(predicted) != len(observed):
        raise ValueError("predicted and observed must have equal length")
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    which = np.clip(np.digitize(predicted, edges[1:-1]), 0, n_bins - 1)
    rows = []
    for b in range(n_bins):
        mask = which == b
        if not mask.any():
            continue
        rows.append((0.5 * (edges[b] + edges[b + 1]),
                     float(predicted[mask].mean()),
                     float(observed[mask].mean()),
                     int(mask.sum())))
    return rows


def within_group_calibration(predicted, observed, group_labels):
    """OLS of observed on [intercept, predicted, group dummies] with normal p-values.

    A calibrated, group-fair model yields a prediction coefficient near 1 and
    insignificant group coefficients.
    """
    predicted = np.asarray(predicted, dtype=float)
    observed = np.asarray(observed, dtype=float)
    labels = np.asarray(group_labels)
    groups = sorted(set(labels.tolist()))
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    cols = [np.ones(len(predicted)), predicted]
    names = ["intercept", "predicted"]
    for g in groups[1:]:
        cols.append((labels == g).astype(float))
        names.append(f"group={g}")
    design = np.column_stack(cols)
    rank = np.linalg.matrix_rank(design)
    if rank < design.shape[1]:
        raise ValueError("rank-deficient design matrix")
    beta, *_ = np.linalg.lstsq(design, observed, rcond=None)
    resid = observed - design @ beta
    dof = max(len(observed) - design.shape[1], 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.inf)
    p = 2 * ndtr(-np.abs(z))
    return [{"name": n, "coefficient": float(b), "stderr": float(s),
             "p_value": float(pv)} for n, b, s, pv in zip(names, beta, se, p)]
