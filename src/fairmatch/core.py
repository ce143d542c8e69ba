"""Shared domain types: datasets, queueing instances, topologies, flows, policies."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DENOMINATOR_CAP = 10**6

ROW_BALANCE_TOL = 1e-6
ROW_SUM_TOL = 1e-9


def stable_order(values) -> tuple:
    """The stable sort order of the 1-D array ``values``, and the values in
    that order. When they strictly increase there is only one sorted order,
    and numpy's unstable sort finds it several times faster; equal values
    (or NaN) are sorted again stably."""
    order = np.argsort(values)
    ordered = values[order]
    if not np.all(ordered[1:] > ordered[:-1]):
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    return order, ordered


def rationalize(x, cap: int = DENOMINATOR_CAP) -> Fraction:
    """Convert a rate to an exact rational, capping the denominator.

    Accepts ints, floats, strings like "1/3", or Fractions.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x)).limit_denominator(cap)


def rows_of(names, listed) -> np.ndarray:
    """Each name's row in ``listed``, an instance's queue or resource ids;
    a name not listed raises ValueError."""
    names, row = np.asarray(names).tolist(), {name: i for i, name in enumerate(listed)}
    unknown = [name for name in dict.fromkeys(names) if name not in row]
    if unknown:
        raise ValueError(f"ids absent from instance: {unknown}")
    return np.array([row[name] for name in names], dtype=np.int64)


class Dataset:
    """Column-oriented store of observational records.

    The first entry of ``resource_set`` is the designated baseline resource.
    """

    def __init__(self, features, score, groups, treatment, outcome, arrival_time,
                 resource_set, feature_names, ids=None, potential_outcomes=None):
        self.features = np.asarray(features, dtype=float)
        self.score = np.asarray(score, dtype=float)
        self.groups = {k: np.asarray(v) for k, v in groups.items()}
        self.treatment = np.asarray(treatment)
        self.outcome = np.asarray(outcome, dtype=int)
        self.arrival_time = np.asarray(arrival_time, dtype=float)
        self.resource_set = list(resource_set)
        self.feature_names = list(feature_names)
        self.ids = (np.asarray(ids) if ids is not None
                    else np.array([str(i) for i in range(len(self.score))]))
        self.potential_outcomes = None
        if potential_outcomes is not None:
            self.potential_outcomes = {r: np.asarray(v, dtype=int)
                                       for r, v in potential_outcomes.items()}
        self._validate()

    def _validate(self):
        n = len(self.score)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("feature matrix must be N x n_features")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        unknown = set(np.unique(self.treatment)) - set(self.resource_set)
        if unknown:
            raise ValueError(f"treatments outside resource set: {unknown}")
        if not np.isin(self.outcome, (0, 1)).all():
            raise ValueError("outcome must be binary")
        if np.any(self.arrival_time < 0):
            raise ValueError("arrival times must be nonnegative")

    @property
    def baseline(self) -> str:
        return self.resource_set[0]

    @property
    def group_dimensions(self):
        return list(self.groups.keys())

    def __len__(self):
        return len(self.score)

    def design(self, feature_mode: str) -> np.ndarray:
        """Model inputs for a feature mode: the score column for "score",
        every feature otherwise."""
        if feature_mode == "score":
            return self.score[:, None]
        return self.features

    def treatment_index(self) -> np.ndarray:
        """Each record's treatment as its position in ``resource_set``."""
        index = np.zeros(len(self.treatment), dtype=int)
        for i, r in enumerate(self.resource_set):
            index[self.treatment == r] = i
        return index

    def subset(self, mask) -> "Dataset":
        """The records ``mask`` selects. A bool mask over every record that
        keeps them all returns this dataset itself, uncopied."""
        mask = np.asarray(mask)
        if mask.dtype == bool and mask.shape == (len(self),) and mask.all():
            return self
        po = None
        if self.potential_outcomes is not None:
            po = {r: v[mask] for r, v in self.potential_outcomes.items()}
        return Dataset(self.features[mask], self.score[mask],
                       {k: v[mask] for k, v in self.groups.items()},
                       self.treatment[mask], self.outcome[mask],
                       self.arrival_time[mask], self.resource_set,
                       self.feature_names, ids=self.ids[mask],
                       potential_outcomes=po)

    def to_csv(self, path):
        """One row per record. A feature named ``score`` is written once, as
        the score column, so it must equal the score."""
        names, features = list(self.feature_names), self.features
        if "score" in names:
            j = names.index("score")
            if not np.array_equal(features[:, j], self.score):
                raise ValueError("feature 'score' differs from the score column")
            names.pop(j)
            features = np.delete(features, j, axis=1)
        po = self.potential_outcomes or {}
        header = (["id"] + names + ["score"] + self.group_dimensions
                  + ["treatment", "outcome", "arrival_time"] + [f"po_{r}" for r in po])
        _check_unique(header)
        columns = ([map(str, self.ids.tolist())] + [col.tolist() for col in features.T]
                   + [self.score.tolist()]
                   + [map(str, self.groups[g].tolist()) for g in self.group_dimensions]
                   + [map(str, self.treatment.tolist()), self.outcome.tolist(),
                      self.arrival_time.tolist()]
                   + [v.tolist() for v in po.values()])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(zip(*columns))

    @classmethod
    def from_csv(cls, path, resource_set, feature_names, group_dimensions=()):
        """Read a dataset file as ``to_csv`` writes it.

        The file is UTF-8, with or without a byte-order mark, and quoted as
        RFC 4180 describes: a field holding a comma, a quote or a line break
        is wrapped in double quotes, and a quote inside one is doubled. The
        first row names the columns. ``id``, ``score``, ``treatment``,
        ``outcome``, ``arrival_time``, each of ``feature_names`` and each of
        ``group_dimensions`` must be present, in any order. Features, score
        and arrival time are floats; outcome and every ``po_<resource>``
        column (potential outcomes, optional) are integers; ids, treatments
        and group labels are strings, kept as written: ``#`` is data and
        spaces are not trimmed. Other columns are ignored. Blank lines are
        skipped. An empty required field, a row whose field count differs
        from the header's, or a number that does not parse raises
        ``ValueError``.
        """
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next((row for row in csv.reader(fh) if row), None)
            if header is None:
                raise ValueError(f"empty dataset file: {path}")
            _check_unique(header)
            required = ["id"] + list(feature_names) + ["score", "treatment",
                                                      "outcome", "arrival_time"]
            for col in required + list(group_dimensions):
                if col not in header:
                    raise ValueError(f"missing column: {col}")
            # A column wanted as two kinds is parsed as the stricter one and
            # cast for the other: text before int before float.
            strings = {"id", "treatment", *group_dimensions}
            ints = {"outcome", *(c for c in header if c.startswith("po_"))}
            floats = {"score", "arrival_time", *feature_names}
            kinds = [object if c in strings else np.int64 if c in ints
                     else float if c in floats else object for c in header]
            try:
                with warnings.catch_warnings():
                    # A header-only file: reported as empty below.
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(
                        fh, delimiter=",", quotechar='"', comments=None, ndmin=1,
                        dtype=[(f"f{i}", kind) for i, kind in enumerate(kinds)])
            except ValueError:
                message = _row_error(path, header, required)
                if message is None:
                    raise
                raise ValueError(message) from None
        if not len(table):
            raise ValueError(f"empty dataset file: {path}")
        cols = dict(zip(header, (table[name] for name in table.dtype.names)))
        # A numeric column rejects an empty field as it parses; a text one not.
        for col in required:
            if cols[col].dtype == object and np.any(cols[col] == ""):
                raise ValueError(f"missing value in column {col}")

        def column(col, kind=str):
            return cols[col].astype(kind)

        features = np.column_stack([np.empty((len(table), 0))]
                                   + [column(c, float) for c in feature_names])
        po = {c[3:]: column(c, int) for c in cols if c.startswith("po_")}
        return cls(features, column("score", float),
                   {g: column(g) for g in group_dimensions}, column("treatment"),
                   column("outcome", int), column("arrival_time", float),
                   resource_set, feature_names, ids=column("id"),
                   potential_outcomes=po or None)


def _row_error(path, header, required):
    """The message for a body that numpy rejected, when a data row's field
    count differs from the header's or a required field is empty; None for
    any other fault. Rows are counted with blank lines skipped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            return f"data row {i} has {len(row)} fields, the header has {len(header)}"
    for col in required:
        j = header.index(col)
        if any(row[j] == "" for row in rows):
            return f"missing value in column {col}"
    return None


def _check_unique(header):
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ValueError(f"repeated column names: {repeated}")


@dataclass(frozen=True)
class MCMSInstance:
    """Multi-class multi-server instance: queues, resources, and rational rates."""

    queues: tuple
    resources: tuple
    lam: tuple          # per-queue arrival rates, Fractions
    mu: tuple           # per-resource arrival rates, Fractions
    rho: float = 1.0

    @staticmethod
    def build(queues, resources, lam, mu, rho=1.0) -> "MCMSInstance":
        return MCMSInstance(tuple(queues), tuple(resources),
                            tuple(rationalize(x) for x in lam),
                            tuple(rationalize(x) for x in mu), float(rho))

    @property
    def n_queues(self):
        return len(self.queues)

    @property
    def n_resources(self):
        return len(self.resources)

    @property
    def lam_f(self) -> np.ndarray:
        return np.array([float(x) for x in self.lam])

    @property
    def mu_f(self) -> np.ndarray:
        return np.array([float(x) for x in self.mu])

    @property
    def lam_total(self) -> Fraction:
        return sum(self.lam, Fraction(0))

    @property
    def mu_total(self) -> Fraction:
        return sum(self.mu, Fraction(0))

    def balanced_mu(self) -> tuple:
        """Resource rates scaled so totals match the individual arrival rate.

        Flow balance (row sums = lambda, column sums = mu) is only consistent
        when the two totals agree; flow and optimization computations use
        these scaled rates, admissibility and simulation use the raw ones.
        """
        scale = self.lam_total / self.mu_total
        return tuple(m * scale for m in self.mu)

    def balanced_mu_f(self) -> np.ndarray:
        return np.array([float(x) for x in self.balanced_mu()])


@dataclass(frozen=True)
class MatchingTopology:
    """Binary queue-by-resource eligibility matrix."""

    m: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.m)
        if raw.ndim != 2 or not np.isin(raw, (0, 1)).all():
            raise ValueError("topology must be a binary matrix")
        object.__setattr__(self, "m", raw.astype(int))

    @staticmethod
    def fully_connected(n_queues, n_resources) -> "MatchingTopology":
        return MatchingTopology(np.ones((n_queues, n_resources), dtype=int))

    def check_shape(self, instance: MCMSInstance):
        if self.m.shape != (instance.n_queues, instance.n_resources):
            raise ValueError(f"topology shape {self.m.shape} does not match "
                             f"instance ({instance.n_queues}, {instance.n_resources})")


@dataclass(frozen=True)
class FlowMatrix:
    """Nonnegative steady-state flow rates per (queue, resource) edge."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.ndim != 2 or np.any(f < -1e-12):
            raise ValueError("flows must form a nonnegative matrix")
        object.__setattr__(self, "f", f)


@dataclass(frozen=True)
class Policy:
    """Row-stochastic assignment probabilities pi(resource | queue)."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-9):
            raise ValueError("policy entries must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            raise ValueError("policy rows must sum to 1")
        object.__setattr__(self, "probs", p)


@dataclass(frozen=True)
class CATEMatrix:
    """Per-(queue, resource) treatment effects relative to the baseline resource.

    ``baseline_mean`` is the expected outcome under the baseline; the baseline
    column (index 0) is identically zero.
    """

    tau: np.ndarray
    baseline_mean: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.tau, dtype=float)
        if t.ndim != 2:
            raise ValueError("tau must be a queue x resource matrix")
        if np.any(t[:, 0] != 0.0):
            raise ValueError("baseline column of tau must be zero")
        object.__setattr__(self, "tau", t)


def policy_from_flows(flows: FlowMatrix, instance: MCMSInstance) -> Policy:
    """Normalize flow rows by the queue arrival rates to get pi(r | q)."""
    f = flows.f
    if f.shape != (instance.n_queues, instance.n_resources):
        raise ValueError("flow matrix shape does not match instance")
    lam = instance.lam_f
    row = f.sum(axis=1)
    if np.max(np.abs(row - lam)) > ROW_BALANCE_TOL * max(1.0, lam.max()):
        raise ValueError("flow rows do not balance the queue arrival rates")
    return Policy(f / lam[:, None])


def policy_value(flows: FlowMatrix, tau: CATEMatrix, instance: MCMSInstance) -> float:
    """Value of the induced policy: (sum of flow-weighted effects) / total rate + C."""
    f = flows.f
    if f.shape != tau.tau.shape or f.shape[0] != instance.n_queues:
        raise ValueError("dimension mismatch between flows, effects, and instance")
    lam_total = float(instance.lam_total)
    if lam_total == 0:
        raise ZeroDivisionError("total arrival rate is zero")
    return float(np.sum(f * tau.tau)) / lam_total + tau.baseline_mean
