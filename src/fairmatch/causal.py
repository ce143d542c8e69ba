"""Tree learners, partition construction, doubly-robust effect estimation,
positivity screening, and arrival-rate estimation."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ope
from .core import CATEMatrix, Dataset, MCMSInstance, rationalize, stable_order

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
    impurity decrease, so any positive score beats the parent."""

    min_gain = 0.0

    def __init__(self, min_node_size, n_classes=0):
        self.min_node_size, self.n_classes = min_node_size, n_classes

    def may_split(self, y):
        return len(y) >= 2 * self.min_node_size and np.any(y != y[0])

    def parent(self, y):
        return 0.0

    def scores(self, ys):
        """Impurity decrease at every split position of the sorted targets
        ``ys``. Each per-row statistic is one 1-D running sum (class counts
        are exact integers)."""
        n = len(ys)
        k = np.arange(1, n)
        parent, left, right = self.impurities(ys, k, n - k)
        valid = (k >= self.min_node_size) & (n - k >= self.min_node_size)
        return parent - (k * left + (n - k) * right) / n, valid


class _Gini(_Cart):
    """Integer class codes; Laplace-smoothed class frequencies in the leaves."""

    def value(self, y):
        return ((np.bincount(y, minlength=self.n_classes) + LAPLACE_ALPHA)
                / (len(y) + LAPLACE_ALPHA * self.n_classes))

    def impurities(self, ys, k, rest):
        # exact class counts up to each position, a class per column
        cums = np.empty((len(ys), self.n_classes), dtype=np.intp)
        for c in range(self.n_classes):
            np.cumsum(ys == c, out=cums[:, c])
        total = cums[-1]
        shares = cums[:-1] / k[:, None]          # squared in place, then reused
        left = 1.0 - np.sum(np.square(shares, out=shares), axis=-1)
        np.subtract(total, cums[:-1], out=shares, dtype=float)
        shares /= rest[:, None]
        right = 1.0 - np.sum(np.square(shares, out=shares), axis=-1)
        return 1.0 - np.sum((total / len(ys)) ** 2), left, right


class _Mse(_Cart):
    """Real-valued target; leaf means."""

    def value(self, y):
        return float(np.mean(y))

    def impurities(self, ys, k, rest):
        sums, squares = np.cumsum(ys), np.cumsum(ys * ys)
        return (_mse(sums[-1:], squares[-1:], len(ys))[0],
                _mse(sums[:-1], squares[:-1], k),
                _mse(sums[-1] - sums[:-1], squares[-1] - squares[:-1], rest))


def _mse(sums, squares, size):
    return squares / size - (sums / size) ** 2


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


def _grow(X, y, rule, max_depth):
    """Greedy binary tree on rows ``X`` with targets ``y`` under ``rule``.

    Each node tries every non-constant feature, places the threshold midway
    between distinct sorted neighbours (on the lower one when the midpoint
    rounds to the upper), and keeps the best split whose score
    exceeds the rule's parent score by more than ``rule.min_gain``; the
    first feature and the first position win ties.

    Only the root sorts, stably, once per feature. A node holds ``rows``, its
    row ids in their original order, and ``orders[j]``, the same ids sorted
    by feature j. A split of feature j at sorted position i gives its children
    the two slices of ``orders[j]``; every other order, and ``rows``, is
    partitioned stably by one boolean array over the row ids, so each child's
    orders stay sorted and its rows stay in their original order. Leaf values
    read ``y[rows]``: a mean's rounding depends on the order it adds in.

    Nodes grow depth first, left before right, from a stack. A node's
    split-search arrays are freed when the search returns, and its rows,
    orders and sides before its children grow, the left child's before the
    right grows: along the path, only the lists of the right children still
    to grow stay alive.
    """
    in_left = np.zeros(len(y), dtype=bool)

    def grow(node, rows, orders, depth):
        """Fill in ``node``; returns its children to grow, right first, each
        with its rows, orders and depth."""
        yn = y[rows]
        node.count, node.value = len(rows), rule.value(yn)
        if (max_depth is not None and depth >= max_depth) or not rule.may_split(yn):
            return []
        best = _best_split(X, y, rule, orders, rule.parent(yn))
        if best is None:
            return []
        _, j, i, node.threshold = best
        node.feature, node.left, node.right = j, TreeNode(), TreeNode()
        left = orders[j][:i + 1]
        in_left[left] = True
        sides = [(left, order[i + 1:]) if f == j else _partition(order, in_left)
                 for f, order in enumerate(orders)]
        rows_l, rows_r = _partition(rows, in_left)
        in_left[left] = False
        return [(node.right, rows_r, [r for _, r in sides], depth + 1),
                (node.left, rows_l, [l for l, _ in sides], depth + 1)]

    root = TreeNode()
    stack = [(root, np.arange(len(y)),
              [stable_order(X[:, j])[0] for j in range(X.shape[1])], 0)]
    while stack:
        stack += grow(*stack.pop())
    return root


def _best_split(X, y, rule, orders, parent):
    """The best split of a node whose ids sorted by each feature are
    ``orders`` and whose parent score is ``parent``, as (gain, feature,
    sorted position, threshold); None when no split gains enough."""
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
            best = (gain, j, i, thr if thr < xs[i + 1] else xs[i])
    return best


def _partition(ids, marked):
    """The ids marked and the rest, each in the order of ``ids``."""
    m = marked[ids]
    return ids[m], ids[~m]


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
    X = dataset.design(features)[mask]
    y = dataset.outcome[mask].astype(float)
    w = (dataset.treatment[mask] == resource).astype(int)
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
    """Maps feature vectors (and optionally a group label) to rows of ``queues``.

    Queues are the leaf-id tuples observed in training, intersected across the
    per-resource causal trees; a grouped partition keys them by (tuple,
    ``str(label)``). An unseen key falls back to the observed key with the
    fewest differing leaves, ties broken by key order; a grouped key searches
    its own group when that group was observed.
    """

    trees: list
    queue_table: dict             # observed tuple (+ group) -> queue id, in row order
    queues: list                  # queue ids in stable order
    feature_mode: str = "all"
    group_dimension: str | None = None
    score_cells: dict = field(default_factory=dict)  # queue id -> its split queue ids
    groups: dict = field(default_factory=dict)       # label -> its split queue ids

    @functools.cached_property
    def key_rows(self) -> dict:
        """Each observed key's row in ``queues``."""
        return {key: i for i, key in enumerate(self.queue_table)}

    def assign_dataset(self, dataset: Dataset) -> np.ndarray:
        """Each record's row in ``queues`` (int64), looked up once per distinct key."""
        labels = dataset.groups[self.group_dimension] if self.group_dimension else None
        keys, inverse = _cell_keys(self.trees, dataset.design(self.feature_mode), labels)
        rows = self.key_rows
        rows = {**rows, **self._nearest([k for k in keys if k not in rows])}
        return np.array([rows[k] for k in keys], dtype=np.int64)[inverse]

    def _nearest(self, keys) -> dict:
        """The row of the observed key nearest each of the unseen ``keys``."""
        # ungrouped keys get the label "", so one rule serves both kinds
        cell = (lambda k: k) if self.group_dimension else (lambda k: (k, ""))
        observed = [(cell(k), row) for k, row in self.key_rows.items()]
        pools = {g: [o for o in observed if o[0][1] == g] for g in {c[1] for c, _ in observed}}
        nearest = {}
        for key in keys:
            tup, g = cell(key)
            nearest[key] = min(pools.get(g, observed), key=lambda o: (
                sum(a != b for a, b in zip(o[0][0], tup)), o[0]))[1]
        return nearest

    @property
    def n_queues(self):
        return len(self.queues)


def intersect_partitions(trees: list, dataset: Dataset,
                         feature_mode: str = "all") -> PartitionFunction:
    """Queues from the intersection of the trees' leaf partitions: the
    distinct leaf tuples of ``dataset``'s records, in sorted order."""
    return _intersect(trees, dataset, feature_mode)[0]


def _intersect(trees, dataset, feature_mode):
    """``intersect_partitions`` and its ``_cell_keys`` inverse, each record's row."""
    if not trees:
        raise ValueError("at least one tree required")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    keys, rows = _cell_keys(trees, dataset.design(feature_mode))
    table = {tup: f"q{i}" for i, tup in enumerate(keys)}
    return PartitionFunction(list(trees), table, list(table.values()), feature_mode), rows


def split_queues_by_group(partition: PartitionFunction, dataset: Dataset,
                          group_dimension: str) -> PartitionFunction:
    """Refine queues into (queue, group label) cells observed in the data."""
    keys, inverse = _cell_keys(partition.trees, dataset.design(partition.feature_mode))
    row = partition.key_rows
    unseen = sorted(set(keys) - set(row))
    if unseen:
        raise ValueError(f"records fall in cells the partition never saw: {unseen}")
    rows = np.array([row[key] for key in keys], dtype=np.int64)[inverse]
    return _split_partition(partition, rows, dataset, group_dimension)[0]


def split_by_label(rows, labels, queues):
    """The one rule that splits queues by group label: the record in row
    ``rows[i]`` of ``queues`` with label ``labels[i]`` falls in the split
    queue (that row, ``str(label)``), with id ``"{queue}:{label}"``. Returns
    ({(row, label): id} by row, then label; each label's ids; each queue's
    ids, its score cell; each record's row among the ids), or None when one
    label is present: then nothing splits."""
    labels = np.asarray(labels).tolist()
    names = sorted({str(g) for g in set(labels)})
    if len(names) == 1:
        return None
    code = {g: names.index(str(g)) for g in set(labels)}
    # widened first: a uint8 row, as fit's record holds it, times len(names) wraps
    cells, rows = np.unique(np.asarray(rows, dtype=np.int64) * len(names) + np.fromiter(
        map(code.__getitem__, labels), dtype=np.int64, count=len(labels)), return_inverse=True)
    ids, groups, score_cells = {}, {}, {}
    for q, g in zip(*(a.tolist() for a in np.divmod(cells, len(names)))):
        ids[(q, names[g])] = qid = f"{queues[q]}:{names[g]}"
        groups.setdefault(names[g], []).append(qid)
        score_cells.setdefault(queues[q], []).append(qid)
    return ids, groups, score_cells, rows


def _split_partition(partition, rows, dataset, group_dimension):
    """``partition`` and each record's row in it, split by the records'
    labels through ``split_by_label``, keyed by (leaf tuple, label)."""
    if group_dimension not in dataset.groups:
        raise ValueError(f"unknown group dimension: {group_dimension}")
    split = split_by_label(rows, dataset.groups[group_dimension], partition.queues)
    if split is None:
        return partition, rows
    ids, groups, score_cells, rows = split
    tuples = list(partition.queue_table)
    table = {(tuples[q], g): qid for (q, g), qid in ids.items()}
    return PartitionFunction(partition.trees, table, list(table.values()),
                             partition.feature_mode, group_dimension, score_cells,
                             groups), rows


def split_instance(instance: MCMSInstance, rows, labels) -> tuple:
    """``instance``, whose queues hold the records in ``rows``, split by their
    ``labels`` through ``split_by_label``: a split queue's exact rate is its
    queue's times its share of the queue's records. Returns (instance, rows,
    each label's queues, score cells), as given and empty if nothing splits."""
    split = split_by_label(rows, labels, instance.queues)
    if split is None:
        return instance, rows, {}, {}
    ids, groups, score_cells, split_rows = split
    sizes, split_sizes = np.bincount(rows).tolist(), np.bincount(split_rows).tolist()
    lam = [instance.lam[q] * n / sizes[q] for (q, _), n in zip(ids, split_sizes)]
    return (MCMSInstance(tuple(ids.values()), instance.resources, tuple(lam), instance.mu,
                         instance.rho), split_rows, groups, score_cells)


# ---------------------------------------------------------------------------
# Doubly-robust CATE, screening, risk scores, arrival rates

def effects(table, n_queues: int) -> CATEMatrix:
    """Per-queue means of the table's DR scores less the baseline column's,
    and that column's mean over every record. Each queue's records are picked
    out once; each mean reduces one column of one queue as a contiguous 1-D
    array in record order."""
    dr, rows = table.scores["DR"], table.rows
    means = np.empty((n_queues, dr.shape[1]))
    for q in range(n_queues):
        means[q] = [col.mean() for col in dr[rows == q].T.copy()]
    return CATEMatrix(means - means[:, :1], float(dr[:, 0].mean()))


def estimate_cate_dr(dataset: Dataset, partition: PartitionFunction,
                     prop: PropensityModel, out: OutcomeModel) -> tuple:
    """DR effect estimates per (queue, resource) and the baseline mean.

    Returns (CATEMatrix, kept queue ids); queues with no records are dropped.
    """
    kept, rows = np.unique(partition.assign_dataset(dataset), return_inverse=True)
    table = ope.ScoreTable.of(ope.score_inputs(dataset, out, prop, ["DR"]), rows, {}, ["DR"])
    return effects(table, len(kept)), [partition.queues[q] for q in kept]


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
    return _rates(dataset, partition.queues, partition.assign_dataset(dataset),
                  observation_window_days, rho)


def _rates(dataset, queues, rows, observation_window_days, rho):
    """``arrival_rates`` with each record's row in ``queues`` given; queues
    without records are dropped."""
    if observation_window_days <= 0:
        raise ValueError("observation window must be positive")
    window = rationalize(observation_window_days)
    sizes = np.bincount(rows, minlength=len(queues)).tolist()
    populated = [(q, Fraction(n) / window) for q, n in zip(queues, sizes) if n]
    if not populated:
        raise ValueError("no populated queues")
    queues, lam = zip(*populated)
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
    return MCMSInstance(queues, tuple(resources), lam, tuple(mu),
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
    rows: np.ndarray              # each kept record's row in ``instance.queues``
    instance: MCMSInstance
    kept_mask: np.ndarray | None = None

    @functools.cached_property
    def scores(self) -> ope.ScoreTable:
        """Per-record scores of ``kept`` for every estimator, built on first read."""
        return ope.ScoreTable.of(ope.score_inputs(self.kept, self.out, self.prop),
                                 self.rows, self.kept.groups)

    @functools.cached_property
    def tau(self) -> CATEMatrix:
        """DR effects per queue of ``instance``, from the DR scores."""
        return effects(self.scores, self.instance.n_queues)

    @property
    def groups(self) -> dict:
        """Group label -> its queue ids in order; empty when nothing split."""
        return self.partition.groups


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
    partition, rows = _intersect(trees, kept, features)
    if group_dimension:
        partition, rows = _split_partition(partition, rows, kept, group_dimension)
    instance = _rates(kept, partition.queues, rows, float(kept.arrival_time.max()), p["rho"])
    return Learned(prop, out, trees, kept, len(dataset) - len(kept), partition, rows,
                   instance, keep)


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


def save_models(path, prop: PropensityModel, out: OutcomeModel, trees: list):
    """The models as compact JSON, through json's C encoder (``json.dump``
    to a file runs its pure-Python one)."""
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
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


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
