"""Tree learners, partition construction, doubly-robust effect estimation,
positivity screening, and arrival-rate estimation."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ope
from .core import CATEMatrix, Dataset, MCMSInstance, rationalize

LAPLACE_ALPHA = 0.5
POSITIVITY_THRESHOLD = 0.001
MIN_BASE_RATE = Fraction(1, 10**6)   # baseline resource rate when supply already covers demand


# ---------------------------------------------------------------------------
# CART

@dataclass
class TreeNode:
    feature: int = -1            # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | float | None = None
    count: int = 0

    @property
    def is_leaf(self):
        return self.feature < 0


@dataclass
class DecisionTree:
    root: TreeNode
    kind: str                    # "multiclass" or "binary-regression"
    n_features: int
    classes: list | None = None

    def _walk(self, X):
        """Send blocks of row indices down the tree (``x[feature] <= threshold``
        goes left). Returns the leaves in left-to-right order and each row's
        index into them; every node is visited, so a row's index does not
        depend on the other rows.

        With one feature, the rows between two adjacent sorted thresholds
        take the same path, so the upper threshold stands in for them (and
        inf for the rows above every threshold): a row's stand-in is the
        first threshold not below it."""
        X = np.atleast_2d(X)
        if X.shape[1] == 1:
            cuts = np.sort([node.threshold for node in self._nodes() if not node.is_leaf])
            leaves, ids = self._descend(np.append(cuts, np.inf)[:, None])
            return leaves, ids[np.searchsorted(cuts, X[:, 0], side="left")]
        return self._descend(X)

    def _nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack += [node.right, node.left]

    def _descend(self, X):
        leaves = []
        ids = np.empty(len(X), dtype=int)
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                ids[rows] = len(leaves)
                leaves.append(node)
            else:
                left = X[rows, node.feature] <= node.threshold
                stack += [(node.right, rows[~left]), (node.left, rows[left])]
        return leaves, ids

    def predict(self, X):
        leaves, ids = self._walk(X)
        return np.array([leaf.value for leaf in leaves])[ids]

    def leaf_ids(self, X):
        """Index of the leaf each row falls into, in left-to-right order."""
        return self._walk(X)[1]

    @property
    def n_leaves(self):
        return len(self._walk(np.empty((0, self.n_features)))[0])


class _Cart:
    """CART rule: a node splits while it holds two children of
    ``min_node_size`` rows and its target is not constant. A split scores its
    impurity decrease, computed from cumulative per-row statistics, so any
    positive score beats the parent."""

    min_gain = 0.0

    def __init__(self, min_node_size, n_classes=0):
        self.min_node_size, self.n_classes = min_node_size, n_classes

    def may_split(self, y):
        return len(y) >= 2 * self.min_node_size and np.any(y != y[0])

    def parent(self, y):
        return 0.0

    def scores(self, ys):
        n = len(ys)
        cum = np.cumsum(self.stats(ys), axis=0)
        k = np.arange(1, n)
        children = (k * self.impurity(cum[:-1], k[:, None])
                    + (n - k) * self.impurity(cum[-1] - cum[:-1], (n - k)[:, None]))
        valid = (k >= self.min_node_size) & (n - k >= self.min_node_size)
        return self.impurity(cum[-1], n) - children / n, valid


class _Gini(_Cart):
    """Integer class codes; Laplace-smoothed class frequencies in the leaves."""

    def value(self, y):
        return ((np.bincount(y, minlength=self.n_classes) + LAPLACE_ALPHA)
                / (len(y) + LAPLACE_ALPHA * self.n_classes))

    def stats(self, ys):
        return (ys[:, None] == np.arange(self.n_classes)).astype(float)

    @staticmethod
    def impurity(counts, size):
        return 1.0 - np.sum((counts / size) ** 2, axis=-1)


class _Mse(_Cart):
    """Real-valued target; leaf means."""

    def value(self, y):
        return float(np.mean(y))

    def stats(self, ys):
        return np.column_stack([ys, ys ** 2])

    @staticmethod
    def impurity(sums, size):
        means = sums / size
        return means[..., 1] - means[..., 0] ** 2


class _Effect:
    """Causal-tree rule on (outcome, arm) rows, arm 1 treated and 0 baseline:
    the leaf value is the difference in arm means (NaN when an arm is
    empty), and a split maximizes the size-weighted squared effect of its
    children, each keeping at least ``min_node_size`` rows of each arm."""

    min_gain = 1e-12

    def __init__(self, min_node_size):
        self.min_node_size = min_node_size

    @staticmethod
    def value(yw):
        y, w = yw.T
        if w.all() or not w.any():
            return float("nan")
        return float(y[w == 1].mean() - y[w == 0].mean())

    def may_split(self, yw):
        return True

    def parent(self, yw):
        return len(yw) * self.value(yw) ** 2

    def scores(self, yw):
        ys, ws = yw.T
        n, n1, mns = len(yw), ws.sum(), self.min_node_size
        n0 = n - n1
        c1 = np.cumsum(ws)[:-1]
        c0 = np.arange(1, n) - c1
        s1 = np.cumsum(ys * ws)[:-1]
        s0 = np.cumsum(ys * (1 - ws))[:-1]
        valid = (c1 >= mns) & (c0 >= mns) & (n1 - c1 >= mns) & (n0 - c0 >= mns)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_l = s1 / c1 - s0 / c0
            tau_r = (s1[-1] + ys[-1] * ws[-1] - s1) / (n1 - c1) \
                - (s0[-1] + ys[-1] * (1 - ws[-1]) - s0) / (n0 - c0)
        k = np.arange(1, n)
        return k * tau_l ** 2 + (n - k) * tau_r ** 2, valid


def _grow(X, y, rule, max_depth, depth=0, orders=None):
    """Greedy binary tree on rows ``X`` with targets ``y`` under ``rule``.

    Each node tries every non-constant feature, places the threshold midway
    between distinct sorted neighbours (on the lower one when the midpoint
    rounds to the upper), and keeps the best split whose score
    exceeds the rule's parent score by more than ``rule.min_gain``; the
    first feature and the first position win ties. ``orders[j]`` is the
    stable sort order of the rows by feature j. Only the root sorts: a child
    takes its own rows in its parent's order, which keeps them stably sorted.
    """
    if orders is None:
        orders = [np.argsort(X[:, j], kind="mergesort") for j in range(X.shape[1])]
    node = TreeNode(count=len(y), value=rule.value(y))
    if (max_depth is not None and depth >= max_depth) or not rule.may_split(y):
        return node
    parent = rule.parent(y)
    best = None
    for j, order in enumerate(orders):
        xs = X[order, j]
        if xs[0] == xs[-1]:
            continue
        score, valid = rule.scores(y[order])
        valid &= xs[:-1] < xs[1:]
        if not valid.any():
            continue
        i = int(np.argmax(np.where(valid, score, -np.inf)))
        gain = score[i] - parent
        if gain > rule.min_gain and (best is None or gain > best[0]):
            # the midpoint of adjacent floats can round up to the upper one
            thr = 0.5 * (xs[i] + xs[i + 1])
            best = (gain, j, thr if thr < xs[i + 1] else xs[i])
    if best is None:
        return node
    _, j, thr = best
    mask = X[:, j] <= thr
    node.feature, node.threshold = j, thr
    node.left, node.right = (_grow(X[side], y[side], rule, max_depth, depth + 1,
                                   _child_orders(orders, side)) for side in (mask, ~mask))
    return node


def _child_orders(orders, side):
    """The rows of ``side`` in each order, numbered as the child numbers them."""
    row = np.cumsum(side) - 1
    return [row[order[side[order]]] for order in orders]


def _read_params(params: dict, defaults: dict) -> dict:
    """``defaults`` overridden by ``params``; a key outside ``defaults`` is an error."""
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    return {**defaults, **params}


def fit_cart(X, y, target_kind: str, params: dict) -> DecisionTree:
    """Greedy CART: Gini for multiclass targets, MSE for binary regression."""
    X = np.asarray(X, dtype=float)
    params = _read_params(params, {"min_node_size": 1, "max_depth": None})
    mns = params["min_node_size"]
    if len(y) < 2 * mns:
        raise ValueError("not enough rows for the requested minimum node size")
    if target_kind == "multiclass":
        classes, codes = np.unique(np.asarray(y), return_inverse=True)
        root = _grow(X, codes.reshape(-1), _Gini(mns, len(classes)), params["max_depth"])
        return DecisionTree(root, target_kind, X.shape[1], classes.tolist())
    if target_kind == "binary-regression":
        root = _grow(X, np.asarray(y, dtype=float), _Mse(mns), params["max_depth"])
        return DecisionTree(root, target_kind, X.shape[1])
    raise ValueError(f"unknown target kind: {target_kind}")


# ---------------------------------------------------------------------------
# Nuisance models

@dataclass
class PropensityModel:
    """Multiclass CART over resources with Laplace-smoothed leaf frequencies."""

    tree: DecisionTree
    resources: list
    feature_mode: str = "all"     # design the tree was fit on; see Dataset.design

    def predict_proba(self, X):
        p = self.tree.predict(np.atleast_2d(X)).astype(float)
        # reorder the tree's classes into resources order; a resource the
        # tree never saw gets zero
        out = np.zeros((p.shape[0], len(self.resources)))
        for i, r in enumerate(self.resources):
            if r in self.tree.classes:
                out[:, i] = p[:, self.tree.classes.index(r)]
        return out / out.sum(axis=1, keepdims=True)


@dataclass
class OutcomeModel:
    """One binary-regression CART per resource; predicts P(Y=1 | x, r)."""

    trees: dict                   # resource -> DecisionTree
    resources: list
    feature_mode: str = "all"

    def predict(self, X, resource):
        return np.clip(self.trees[resource].predict(np.atleast_2d(X)).astype(float), 0.0, 1.0)


def fit_propensity(dataset: Dataset, params: dict | None = None,
                   features: str = "all") -> PropensityModel:
    """Historical-policy model: multiclass CART on features (or score only)."""
    params = {"min_node_size": 15, **(params or {})}
    X = dataset.design(features)
    counts = {r: int(np.sum(dataset.treatment == r)) for r in dataset.resource_set}
    missing = [r for r, c in counts.items() if c == 0]
    if missing:
        raise ValueError(f"resources never observed: {missing}")
    tree = fit_cart(X, dataset.treatment, "multiclass", params)
    return PropensityModel(tree, list(dataset.resource_set), features)


def fit_outcome(dataset: Dataset, params: dict | None = None,
                features: str = "all") -> OutcomeModel:
    params = {"min_node_size": 15, **(params or {})}
    X = dataset.design(features)
    trees = {}
    for r in dataset.resource_set:
        mask = dataset.treatment == r
        if not mask.any():
            raise ValueError(f"no observations for resource {r}")
        mns = min(params["min_node_size"], max(1, int(mask.sum()) // 2))
        trees[r] = fit_cart(X[mask], dataset.outcome[mask], "binary-regression",
                            {**params, "min_node_size": mns})
    return OutcomeModel(trees, list(dataset.resource_set), features)


# ---------------------------------------------------------------------------
# Causal trees

@dataclass
class CausalTree:
    tree: DecisionTree            # structure; leaf values are effect estimates
    resource: str
    baseline: str
    honest: bool
    min_node_size: int
    feature_mode: str = "all"

    def leaf_ids(self, X):
        return self.tree.leaf_ids(X)

    @property
    def n_leaves(self):
        return self.tree.n_leaves


def _honest_reestimate(node, X, y, w, min_node_size):
    """Re-estimate leaf effects on held-out data; collapse any split whose
    estimation sample violates the per-arm minimum in a child."""
    n1 = int(w.sum())
    n0 = len(w) - n1
    node.count = len(y)
    if n1 and n0:
        node.value = float(y[w == 1].mean() - y[w == 0].mean())
    if node.is_leaf:
        return
    mask = X[:, node.feature] <= node.threshold
    l1 = int(w[mask].sum())
    l0 = int(mask.sum()) - l1
    r1 = n1 - l1
    r0 = n0 - l0
    if min(l1, l0, r1, r0) < min_node_size:
        node.feature = -1
        node.left = node.right = None
        return
    _honest_reestimate(node.left, X[mask], y[mask], w[mask], min_node_size)
    _honest_reestimate(node.right, X[~mask], y[~mask], w[~mask], min_node_size)


def fit_causal_tree(dataset: Dataset, resource: str, params: dict | None = None,
                    features: str = "all", seed: int = 0) -> CausalTree:
    """Effect-heterogeneity tree for one resource against the baseline.

    Splits maximize the size-weighted squared effect and keep at least
    ``min_node_size`` (>= 1) rows of each arm in every child; in honest mode
    the leaf effects are re-estimated on a held-out half, and a split is
    collapsed when that half misses the per-arm minimum. When neither half
    holds both arms, the single leaf takes the whole subset's effect.
    """
    params = _read_params(params or {}, {"min_node_size": 15, "honest": True,
                                         "max_depth": None})
    baseline = dataset.baseline
    mask = (dataset.treatment == resource) | (dataset.treatment == baseline)
    sub = dataset.subset(mask)
    X = sub.design(features)
    y = sub.outcome.astype(float)
    w = (sub.treatment == resource).astype(int)
    mns = params["min_node_size"]
    if mns < 1:
        raise ValueError("min_node_size must be at least 1")
    if w.sum() == 0 or w.sum() == len(w):
        raise ValueError(f"arm starvation: no data for one of ({baseline}, {resource})")
    yw = np.column_stack([y, w])
    if params["honest"]:
        perm = np.random.default_rng(seed).permutation(len(y))
        tr, est = perm[:len(y) // 2], perm[len(y) // 2:]
        root = _grow(X[tr], yw[tr], _Effect(mns), params["max_depth"])
        _honest_reestimate(root, X[est], y[est], w[est], mns)
        if not np.isfinite(root.value):
            root.value = _Effect.value(yw)
    else:
        root = _grow(X, yw, _Effect(mns), params["max_depth"])
    tree = DecisionTree(root, "binary-regression", X.shape[1])
    return CausalTree(tree, resource, baseline, params["honest"], mns, features)


# ---------------------------------------------------------------------------
# Partitioning

def _cell_keys(trees: list, X, labels=None):
    """Distinct cell keys among the rows of ``X`` and each row's index into them.

    A row's key is the tuple of its leaf ids across ``trees``; with group
    labels it is (leaf tuple, ``str(label)``). Keys come in lexicographic
    order: each column in turn refines the rank of the columns before it. A
    rank is below the row count, so a refined code stays below rows x (largest
    column value + 1) and cannot overflow.
    """
    cols = [t.leaf_ids(X) for t in trees]
    if labels is not None:
        # sorts the distinct labels only; np.unique would sort every row's,
        # by Python comparisons when the labels are objects
        labels = np.asarray(labels).tolist()
        names = sorted(set(labels))
        code = {name: i for i, name in enumerate(names)}
        cols.append(np.fromiter(map(code.__getitem__, labels), dtype=np.int64,
                                count=len(labels)))
    inverse = np.zeros(len(cols[0]), dtype=np.int64)
    for col in cols:
        _, inverse = np.unique(inverse * (col.max(initial=0) + 1) + col,
                               return_inverse=True)
    rep = np.empty(inverse.max(initial=-1) + 1, dtype=np.int64)   # a row of each key
    rep[inverse] = np.arange(len(inverse))
    keys = [tuple(row) for row in np.column_stack([c[rep] for c in cols]).tolist()]
    if labels is not None:
        keys = [(key[:-1], str(names[key[-1]])) for key in keys]
    return keys, inverse


@dataclass
class PartitionFunction:
    """Maps feature vectors (and optionally a group label) to queue identifiers.

    Queues are the leaf-id tuples observed in training, intersected across the
    per-resource causal trees; a grouped partition keys them by (tuple,
    ``str(label)``). An unseen key falls back to the observed key with the
    fewest differing leaves, ties broken by key order; a grouped key searches
    its own group when that group was observed.
    """

    trees: list
    queue_table: dict             # observed tuple (+ group) -> queue id
    queues: list                  # queue ids in stable order
    feature_mode: str = "all"
    group_dimension: str | None = None
    score_cells: dict = field(default_factory=dict)  # base tuple -> list of queue ids

    def assign_dataset(self, dataset: Dataset) -> np.ndarray:
        """Queue id of every record, looked up once per distinct key."""
        labels = dataset.groups[self.group_dimension] if self.group_dimension else None
        keys, inverse = _cell_keys(self.trees, dataset.design(self.feature_mode), labels)
        queues = [self.queue_table[k] if k in self.queue_table else self._nearest(k)
                  for k in keys]
        return np.array(queues, dtype=str)[inverse]

    def _nearest(self, key):
        # ungrouped keys get the label "", so one rule serves both kinds
        cell = (lambda k: k) if self.group_dimension else (lambda k: (k, ""))
        tup, g = cell(key)
        observed = {cell(k): q for k, q in self.queue_table.items()}
        candidates = [k for k in observed if k[1] == g] or list(observed)
        best = min(candidates,
                   key=lambda k: (sum(a != b for a, b in zip(k[0], tup)), k))
        return observed[best]

    @property
    def n_queues(self):
        return len(self.queues)


def intersect_partitions(trees: list, dataset: Dataset,
                         feature_mode: str = "all") -> PartitionFunction:
    """Queues from the intersection of the trees' leaf partitions."""
    if not trees:
        raise ValueError("at least one tree required")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    observed, _ = _cell_keys(trees, dataset.design(feature_mode))
    table = {tup: f"q{i}" for i, tup in enumerate(sorted(observed))}
    return PartitionFunction(list(trees), table, list(table.values()), feature_mode)


def split_queues_by_group(partition: PartitionFunction, dataset: Dataset,
                          group_dimension: str) -> PartitionFunction:
    """Refine queues into (queue, group label) cells observed in the data."""
    if group_dimension not in dataset.groups:
        raise ValueError(f"unknown group dimension: {group_dimension}")
    seen, _ = _cell_keys(partition.trees, dataset.design(partition.feature_mode),
                         dataset.groups[group_dimension])
    unseen = sorted({tup for tup, _ in seen} - set(partition.queue_table))
    if unseen:
        raise ValueError(f"records fall in cells the partition never saw: {unseen}")
    if len({g for _, g in seen}) == 1:
        return partition
    table = {}
    cells = {}
    for tup, g in sorted(seen):
        qid = f"{partition.queue_table[tup]}:{g}"
        table[(tup, g)] = qid
        cells.setdefault(partition.queue_table[tup], []).append(qid)
    return PartitionFunction(partition.trees, table, list(table.values()),
                             partition.feature_mode, group_dimension, cells)


# ---------------------------------------------------------------------------
# Doubly-robust CATE, screening, risk scores, arrival rates

def effects(table, n_queues: int) -> CATEMatrix:
    """Per-queue means of the table's DR scores less the baseline column's,
    and that column's mean over every record. Each mean reduces one column of
    one queue as a 1-D array in record order."""
    dr, rows = table.scores["DR"], table.rows
    means = np.array([[dr[rows == q, r].mean() for r in range(dr.shape[1])]
                      for q in range(n_queues)]).reshape(n_queues, dr.shape[1])
    return CATEMatrix(means - means[:, :1], float(dr[:, 0].mean()))


def estimate_cate_dr(dataset: Dataset, partition: PartitionFunction,
                     prop: PropensityModel, out: OutcomeModel) -> tuple:
    """DR effect estimates per (queue, resource) and the baseline mean.

    Returns (CATEMatrix, kept queue ids); queues with no records are dropped.
    """
    assignments = np.asarray(partition.assign_dataset(dataset))
    present = set(np.unique(assignments).tolist())
    kept = [q for q in partition.queues if q in present]
    table = ope.score_table(dataset, assignments, kept, out, prop, ["DR"])
    return effects(table, len(kept)), kept


def _positive(dataset: Dataset, prop: PropensityModel, threshold: float) -> np.ndarray:
    """Mask of the records whose smallest estimated propensity is at least threshold."""
    return prop.predict_proba(dataset.design(prop.feature_mode)).min(axis=1) >= threshold


def positivity_screen(dataset: Dataset, prop: PropensityModel,
                      threshold: float = POSITIVITY_THRESHOLD):
    """Split off records whose smallest estimated propensity is below threshold."""
    keep = _positive(dataset, prop, threshold)
    return dataset.subset(keep), dataset.subset(~keep)


def arrival_rates(dataset: Dataset, partition: PartitionFunction,
                  observation_window_days: float, rho: float = 0.99) -> MCMSInstance:
    """Empirical per-queue and per-resource rates; the baseline resource rate
    is set so total supply is total demand divided by rho."""
    if observation_window_days <= 0:
        raise ValueError("observation window must be positive")
    window = rationalize(observation_window_days)
    assignments = np.array(partition.assign_dataset(dataset))
    names, sizes = np.unique(assignments, return_counts=True)
    size = dict(zip(names.tolist(), sizes.tolist()))
    queues = [q for q in partition.queues if q in size]
    if not queues:
        raise ValueError("no populated queues")
    lam = [Fraction(size[q]) / window for q in queues]
    rho_frac = rationalize(rho)
    lam_total = sum(lam, Fraction(0))
    resources = list(dataset.resource_set)
    baseline = dataset.baseline
    mu = []
    for r in resources:
        if r == baseline:
            mu.append(None)
        else:
            mu.append(Fraction(int(np.sum(dataset.treatment == r))) / window)
    non_base = sum((x for x in mu if x is not None), Fraction(0))
    base_rate = lam_total / rho_frac - non_base
    mu[resources.index(baseline)] = base_rate if base_rate > 0 else MIN_BASE_RATE
    return MCMSInstance(tuple(queues), tuple(resources), tuple(lam), tuple(mu),
                        float(lam_total / sum(mu, Fraction(0))))


# ---------------------------------------------------------------------------
# The learning pipeline

PIPELINE_DEFAULTS = {
    "features": "score",
    "tree_params": {"min_node_size": 400, "max_depth": 3, "honest": True},
    "nuisance_params": {"min_node_size": 50, "max_depth": 10},
    "positivity_threshold": POSITIVITY_THRESHOLD,
    "rho": 0.99,
}


@dataclass
class Learned:
    """What ``learn`` produced: the models, the screened records, their queues
    and the queueing instance; ``kept_mask`` marks the kept records among
    those ``learn`` was given."""

    prop: PropensityModel
    out: OutcomeModel
    trees: list                   # CausalTree per non-baseline resource
    kept: Dataset                 # records that passed the positivity screen
    n_screened: int
    partition: PartitionFunction
    queue_ids: np.ndarray         # queue of each kept record
    instance: MCMSInstance
    kept_mask: np.ndarray | None = None

    @functools.cached_property
    def scores(self) -> ope.ScoreTable:
        """Per-record scores of ``kept`` for every estimator, built on first read."""
        return ope.score_table(self.kept, self.queue_ids, self.instance.queues,
                               self.out, self.prop)

    @functools.cached_property
    def rows(self) -> np.ndarray:
        """Each kept record's row in ``instance.queues``."""
        return ope._queue_rows(self.queue_ids, self.instance.queues)

    @functools.cached_property
    def tau(self) -> CATEMatrix:
        """DR effects per queue of ``instance``, from the DR scores."""
        return effects(self.scores, self.instance.n_queues)

    @property
    def groups(self) -> dict:
        """Group label -> its queue ids in ``instance.queues`` order; empty
        when the partition is not split by group."""
        return queue_groups(self.partition, self.instance.queues)


def queue_groups(partition: PartitionFunction, queues) -> dict:
    """Group label -> its ids among ``queues``, in their order; empty when
    ``partition`` is not split by group."""
    if partition.group_dimension is None:
        return {}
    label = {q: g for (_, g), q in partition.queue_table.items()}
    groups = {}
    for q in queues:
        groups.setdefault(label[q], []).append(q)
    return groups


def queue_instance(kept: Dataset, partition: PartitionFunction,
                   group_dimension: str | None, rho: float) -> tuple:
    """The tail of ``learn``: ``partition`` split by ``group_dimension`` when
    given, each kept record's queue, and the arrival rates over the kept
    records' window. Returns (partition, queue ids, instance)."""
    if group_dimension:
        partition = split_queues_by_group(partition, kept, group_dimension)
    instance = arrival_rates(kept, partition, float(kept.arrival_time.max()), rho)
    return partition, partition.assign_dataset(kept), instance


def learn(dataset: Dataset, params: dict | None = None, seed: int = 0,
          group_dimension: str | None = None) -> Learned:
    """Nuisance models, positivity screen, one causal tree per non-baseline
    resource, queues from their intersection, split by ``group_dimension``
    when given, and arrival rates over the kept records' window. ``params``
    overrides keys of ``PIPELINE_DEFAULTS``; ``seed`` drives the honest splits.
    """
    p = _read_params(params or {}, PIPELINE_DEFAULTS)
    features = p["features"]
    prop = fit_propensity(dataset, p["nuisance_params"], features)
    out = fit_outcome(dataset, p["nuisance_params"], features)
    keep = _positive(dataset, prop, p["positivity_threshold"])
    kept = dataset.subset(keep)
    trees = [fit_causal_tree(kept, r, p["tree_params"], features, seed)
             for r in dataset.resource_set[1:]]
    partition, queue_ids, instance = queue_instance(
        kept, intersect_partitions(trees, kept, features), group_dimension, p["rho"])
    return Learned(prop, out, trees, kept, len(dataset) - len(kept), partition,
                   queue_ids, instance, keep)


# ---------------------------------------------------------------------------
# Serialization

def _node_to_obj(node):
    if node.is_leaf:
        value = node.value.tolist() if isinstance(node.value, np.ndarray) else node.value
        return {"value": value, "count": node.count}
    return {"feature": node.feature, "threshold": node.threshold,
            "count": node.count,
            "left": _node_to_obj(node.left), "right": _node_to_obj(node.right)}


def _node_from_obj(obj):
    if "feature" not in obj:
        value = obj["value"]
        if isinstance(value, list):
            value = np.array(value)
        return TreeNode(value=value, count=obj.get("count", 0))
    return TreeNode(obj["feature"], obj["threshold"],
                    _node_from_obj(obj["left"]), _node_from_obj(obj["right"]),
                    count=obj.get("count", 0))


def tree_to_json(tree: DecisionTree) -> dict:
    return {"kind": tree.kind, "n_features": tree.n_features,
            "classes": tree.classes, "root": _node_to_obj(tree.root)}


def tree_from_json(obj: dict) -> DecisionTree:
    return DecisionTree(_node_from_obj(obj["root"]), obj["kind"],
                        obj["n_features"], obj["classes"])


def save_models(path, prop: PropensityModel, out: OutcomeModel, trees: list,
                settings: dict | None = None):
    """The models as JSON, with the ``learn`` params they were fit with, if given."""
    payload = {
        "propensity": {"tree": tree_to_json(prop.tree), "resources": prop.resources,
                       "feature_mode": prop.feature_mode},
        "outcome": {"resources": out.resources,
                    "trees": {r: tree_to_json(t) for r, t in out.trees.items()},
                    "feature_mode": out.feature_mode},
        "causal_trees": [{"tree": tree_to_json(t.tree), "resource": t.resource,
                          "baseline": t.baseline, "honest": t.honest,
                          "min_node_size": t.min_node_size,
                          "feature_mode": t.feature_mode} for t in trees],
    }
    if settings is not None:
        payload["settings"] = settings
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def load_models(path):
    with open(path) as fh:
        payload = json.load(fh)
    prop = PropensityModel(tree_from_json(payload["propensity"]["tree"]),
                           payload["propensity"]["resources"],
                           payload["propensity"]["feature_mode"])
    out = OutcomeModel({r: tree_from_json(t)
                        for r, t in payload["outcome"]["trees"].items()},
                       payload["outcome"]["resources"],
                       payload["outcome"]["feature_mode"])
    trees = [CausalTree(tree_from_json(t["tree"]), t["resource"], t["baseline"],
                        t["honest"], t["min_node_size"], t["feature_mode"])
             for t in payload["causal_trees"]]
    return prop, out, trees
