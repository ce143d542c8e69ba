"""Off-policy value estimators.

Every estimator but CT is the mean over records of sum_r pi(r | queue of
record) * S[record, r] for its own per-record score matrix S (Dudík, Langford
& Li 2011); ``score_table`` builds the matrices of one record set once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, MCMSInstance, Policy, policy_from_flows, policy_value

ESTIMATORS = ("CT", "DM", "DR", "IPW", "GT")


@dataclass(frozen=True)
class ValueEstimate:
    estimator: str
    value: float


@dataclass(frozen=True)
class ScoreInputs:
    """What the estimators read of each record: ``treated`` marks its observed
    resource (records x resources), ``outcome`` is its outcome, ``yhat`` the
    outcome model's predictions (records x resources), ``pbar`` the estimated
    propensity of its observed resource and ``po`` its potential outcomes
    (records x resources). A field that no wanted estimator reads is None."""

    treated: np.ndarray
    outcome: np.ndarray
    yhat: np.ndarray | None = None
    pbar: np.ndarray | None = None
    po: np.ndarray | None = None


def _dm(s):
    return s.yhat


def _ipw(s):
    return s.treated * (s.outcome / s.pbar)[:, None]


def _dr(s):
    return s.yhat + s.treated * ((s.outcome - s.yhat[s.treated]) / s.pbar)[:, None]


def _gt(s):
    return s.po


# name -> (score function, models it reads)
_ESTIMATORS = {
    "DM": (_dm, ("out",)),
    "IPW": (_ipw, ("prop",)),
    "DR": (_dr, ("out", "prop")),
    "GT": (_gt, ()),
}


def _names(with_gt: bool) -> list:
    return [n for n in _ESTIMATORS if n != "GT" or with_gt]


def _queue_rows(queue_ids, queues) -> np.ndarray:
    """Each record's row in ``queues``, looked up once per distinct queue id."""
    index = {q: i for i, q in enumerate(queues)}
    names, inverse = np.unique(np.asarray(queue_ids), return_inverse=True)
    try:
        rows = np.array([index[q] for q in names.tolist()], dtype=int)
    except KeyError as exc:
        raise ValueError(f"record mapped to queue absent from instance: {exc}")
    return rows[inverse.reshape(-1)]


@dataclass(frozen=True)
class ScoreTable:
    """Per-record score matrices of one record set; ``rows`` holds each
    record's row in the queue list the table was built over, and ``groups``
    each group dimension's labels."""

    groups: dict
    rows: np.ndarray
    scores: dict                  # estimator name -> records x resources

    @classmethod
    def of(cls, inputs: ScoreInputs, rows, groups, names=None) -> "ScoreTable":
        """The named estimators' scores (by default all, GT when ``inputs``
        holds potential outcomes) from ``inputs``; no model predicts."""
        names = _names(inputs.po is not None) if names is None else names
        return cls(groups, rows, {n: _ESTIMATORS[n][0](inputs) for n in names})

    def value(self, name: str, policy: Policy, mask=slice(None)) -> float:
        """Mean over the (masked) records of sum_r pi(r | queue) * S[record, r]."""
        pi = policy.probs[self.rows[mask]]
        return float(np.mean(np.sum(pi * self.scores[name][mask], axis=1)))


def score_inputs(dataset: Dataset, out=None, prop=None, names=None) -> ScoreInputs:
    """What the named estimators (by default all, GT when the records carry
    potential outcomes) read of ``dataset``'s records. Each model predicts
    once, on the design it was fit on."""
    if names is None:
        names = _names(dataset.potential_outcomes is not None)
    needs = {k for name in names for k in _ESTIMATORS[name][1]}
    treated = dataset.treatment_index()[:, None] == np.arange(len(dataset.resource_set))
    yhat = pbar = po = None
    if "out" in needs:
        X = dataset.design(out.feature_mode)
        yhat = np.column_stack([out.predict(X, r) for r in dataset.resource_set])
    if "prop" in needs:
        cols = [prop.resources.index(r) for r in dataset.resource_set]
        pbar = prop.predict_proba(dataset.design(prop.feature_mode))[:, cols][treated]
        if np.any(pbar <= 0):
            raise ValueError("zero propensity encountered; screen the dataset first")
    if "GT" in names:
        missing = set(dataset.resource_set) - set(dataset.potential_outcomes or ())
        if missing:
            raise ValueError(f"potential outcomes missing for {sorted(missing)}")
        po = np.column_stack([dataset.potential_outcomes[r] for r in dataset.resource_set])
    return ScoreInputs(treated, dataset.outcome, yhat, pbar, po)


def score_table(dataset: Dataset, queue_ids, queues, out=None, prop=None,
                names=None, inputs: ScoreInputs | None = None) -> ScoreTable:
    """Score matrices of the named estimators (by default all, GT when the
    records carry potential outcomes) over ``dataset``, whose records sit in
    ``queue_ids`` among ``queues``. The scores come from ``inputs`` when given,
    or else from ``score_inputs``."""
    if inputs is None:
        inputs = score_inputs(dataset, out, prop, names)
    return ScoreTable.of(inputs, _queue_rows(queue_ids, queues), dataset.groups, names)


def _estimate(name, dataset, policy, queue_ids, instance, out=None, prop=None):
    table = score_table(dataset, queue_ids, instance.queues, out, prop, [name])
    return ValueEstimate(name, table.value(name, policy))


def evaluate_dm(dataset: Dataset, policy: Policy, queue_ids, out,
                instance: MCMSInstance) -> ValueEstimate:
    """Direct method: model-predicted outcomes averaged under the policy."""
    return _estimate("DM", dataset, policy, queue_ids, instance, out=out)


def evaluate_ipw(dataset: Dataset, policy: Policy, queue_ids, prop,
                 instance: MCMSInstance) -> ValueEstimate:
    """Inverse propensity weighting of the observed outcomes."""
    return _estimate("IPW", dataset, policy, queue_ids, instance, prop=prop)


def evaluate_dr(dataset: Dataset, policy: Policy, queue_ids, out, prop,
                instance: MCMSInstance) -> ValueEstimate:
    """Doubly robust: direct method plus an importance-weighted residual correction."""
    return _estimate("DR", dataset, policy, queue_ids, instance, out, prop)


def evaluate_gt(dataset: Dataset, policy: Policy, queue_ids,
                instance: MCMSInstance) -> ValueEstimate:
    """Ground truth from stored potential outcomes."""
    return _estimate("GT", dataset, policy, queue_ids, instance)


def evaluate_all(names, table: ScoreTable, flows, instance: MCMSInstance,
                 tau) -> dict:
    """Value of the flows' policy under each named estimator of ``ESTIMATORS``:
    "CT" is the optimization-side value, flow-weighted effects over the total
    rate plus the baseline mean; the others read ``table``, built over
    ``instance.queues``."""
    policy = policy_from_flows(flows, instance)
    return {name: policy_value(flows, tau, instance) if name == "CT"
            else table.value(name, policy) for name in names}


def per_group_values(table: ScoreTable, policy: Policy, estimator: str,
                     group_dimension: str) -> dict:
    """Estimator restricted to each group's records, by sorted label."""
    groups = table.groups
    if group_dimension not in groups:
        raise ValueError(f"unknown group dimension: {group_dimension}")
    labels = groups[group_dimension]
    return {str(g): table.value(estimator, policy, labels == g)
            for g in sorted(set(labels.tolist()))}
