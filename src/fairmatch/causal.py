"""Tree learners, partition construction, doubly-robust effect estimation,
positivity screening, risk scores, and arrival-rate estimation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CATEMatrix, Dataset, MCMSInstance, rationalize

LAPLACE_ALPHA = 0.5
POSITIVITY_THRESHOLD = 0.001


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
        depend on the other rows."""
        X = np.atleast_2d(X)
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


def _impurity_gain_sweep(xs, stats_left, stats_total, n, kind):
    """Impurity decrease for every split position of one sorted feature.

    ``stats_left`` are cumulative sufficient statistics after each row:
    class counts (multiclass) or (sum, sumsq) pairs (regression).
    """
    n_left = np.arange(1, n)
    n_right = n - n_left
    if kind == "multiclass":
        left = stats_left[:-1]
        right = stats_total - left
        gini_l = 1.0 - np.sum((left / n_left[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / n_right[:, None]) ** 2, axis=1)
        parent = 1.0 - np.sum((stats_total / n) ** 2)
        return parent - (n_left * gini_l + n_right * gini_r) / n
    s_l = stats_left[:-1, 0]
    s_r = stats_total[0] - s_l
    q_l = stats_left[:-1, 1]
    q_r = stats_total[1] - q_l
    mse_l = q_l / n_left - (s_l / n_left) ** 2
    mse_r = q_r / n_right - (s_r / n_right) ** 2
    parent = stats_total[1] / n - (stats_total[0] / n) ** 2
    return parent - (n_left * mse_l + n_right * mse_r) / n


def _best_cart_split(X, y, kind, classes, min_node_size):
    n, n_feat = X.shape
    best = None
    for j in range(n_feat):
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        ys = y[order]
        if xs[0] == xs[-1]:
            continue
        if kind == "multiclass":
            onehot = (ys[:, None] == classes[None, :]).astype(float)
            cum = np.cumsum(onehot, axis=0)
            total = cum[-1]
        else:
            cum = np.cumsum(np.column_stack([ys, ys ** 2]), axis=0)
            total = cum[-1]
        gains = _impurity_gain_sweep(xs, cum, total, n, kind)
        valid = (xs[:-1] < xs[1:])
        k = np.arange(1, n)
        valid &= (k >= min_node_size) & (n - k >= min_node_size)
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        i = int(np.argmax(gains))
        if best is None or gains[i] > best[0]:
            best = (gains[i], j, 0.5 * (xs[i] + xs[i + 1]))
    return best


def _grow_cart(X, y, kind, classes, params, depth):
    node = TreeNode(count=len(y))
    if kind == "multiclass":
        node.value = np.array([(np.sum(y == c) + LAPLACE_ALPHA)
                               / (len(y) + LAPLACE_ALPHA * len(classes))
                               for c in classes])
    else:
        node.value = float(np.mean(y))
    max_depth = params.get("max_depth")
    if ((max_depth is not None and depth >= max_depth)
            or len(y) < 2 * params["min_node_size"]
            or (kind != "multiclass" and np.all(y == y[0]))
            or (kind == "multiclass" and len(np.unique(y)) == 1)):
        return node
    best = _best_cart_split(X, y, kind, classes, params["min_node_size"])
    if best is None or best[0] <= params.get("min_impurity_decrease", 0.0):
        return node
    _, j, thr = best
    mask = X[:, j] <= thr
    node.feature, node.threshold = j, thr
    node.left = _grow_cart(X[mask], y[mask], kind, classes, params, depth + 1)
    node.right = _grow_cart(X[~mask], y[~mask], kind, classes, params, depth + 1)
    return node


def fit_cart(X, y, target_kind: str, params: dict) -> DecisionTree:
    """Greedy CART: Gini for multiclass targets, MSE for binary regression."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    params = {"min_node_size": 1, "max_depth": None,
              "min_impurity_decrease": 0.0, **params}
    if len(y) < 2 * params["min_node_size"]:
        raise ValueError("not enough rows for the requested minimum node size")
    if target_kind == "multiclass":
        classes = np.array(sorted(set(y.tolist())))
    elif target_kind == "binary-regression":
        classes = None
        y = y.astype(float)
    else:
        raise ValueError(f"unknown target kind: {target_kind}")
    root = _grow_cart(X, y, target_kind, classes, params, 0)
    return DecisionTree(root, target_kind, X.shape[1],
                        classes.tolist() if classes is not None else None)


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

    def prob_of(self, X, treatments):
        proba = self.predict_proba(X)
        kinds, inverse = np.unique(np.asarray(treatments), return_inverse=True)
        cols = np.array([self.resources.index(t) for t in kinds.tolist()], dtype=int)
        return proba[np.arange(len(inverse)), cols[inverse.reshape(-1)]]


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
    params = dict(params or {})
    params.setdefault("min_node_size", 15)
    X = dataset.design(features)
    counts = {r: int(np.sum(dataset.treatment == r)) for r in dataset.resource_set}
    missing = [r for r, c in counts.items() if c == 0]
    if missing:
        raise ValueError(f"resources never observed: {missing}")
    tree = fit_cart(X, dataset.treatment, "multiclass", params)
    return PropensityModel(tree, list(dataset.resource_set), features)


def fit_outcome(dataset: Dataset, params: dict | None = None,
                features: str = "all") -> OutcomeModel:
    params = dict(params or {})
    params.setdefault("min_node_size", 15)
    X = dataset.design(features)
    trees = {}
    for r in dataset.resource_set:
        mask = dataset.treatment == r
        if not mask.any():
            raise ValueError(f"no observations for resource {r}")
        sub_params = dict(params)
        sub_params["min_node_size"] = min(params["min_node_size"],
                                          max(1, int(mask.sum()) // 2))
        trees[r] = fit_cart(X[mask], dataset.outcome[mask],
                            "binary-regression", sub_params)
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


def _best_effect_split(X, y, w, min_node_size):
    """Split maximizing the size-weighted squared-effect criterion.

    ``w`` is 1 for the treated arm, 0 for baseline. Children must keep at
    least ``min_node_size`` points of each arm.
    """
    n, n_feat = X.shape
    best = None
    n1 = w.sum()
    n0 = n - n1
    tau_parent = y[w == 1].mean() - y[w == 0].mean()
    parent_score = n * tau_parent ** 2
    for j in range(n_feat):
        order = np.argsort(X[:, j], kind="mergesort")
        xs = X[order, j]
        ys = y[order].astype(float)
        ws = w[order]
        if xs[0] == xs[-1]:
            continue
        c1 = np.cumsum(ws)[:-1]
        c0 = np.arange(1, n) - c1
        s1 = np.cumsum(ys * ws)[:-1]
        s0 = np.cumsum(ys * (1 - ws))[:-1]
        valid = ((xs[:-1] < xs[1:]) & (c1 >= min_node_size) & (c0 >= min_node_size)
                 & (n1 - c1 >= min_node_size) & (n0 - c0 >= min_node_size))
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            tau_l = s1 / c1 - s0 / c0
            tau_r = (s1[-1] + ys[-1] * ws[-1] - s1) / (n1 - c1) \
                - (s0[-1] + ys[-1] * (1 - ws[-1]) - s0) / (n0 - c0)
        k = np.arange(1, n)
        score = k * tau_l ** 2 + (n - k) * tau_r ** 2
        score = np.where(valid, score, -np.inf)
        i = int(np.argmax(score))
        gain = score[i] - parent_score
        if gain > 1e-12 and (best is None or gain > best[0]):
            best = (gain, j, 0.5 * (xs[i] + xs[i + 1]))
    return best


def _grow_effect_tree(X, y, w, params, depth):
    node = TreeNode(count=len(y))
    node.value = float(y[w == 1].mean() - y[w == 0].mean())
    max_depth = params.get("max_depth")
    if max_depth is not None and depth >= max_depth:
        return node
    best = _best_effect_split(X, y, w, params["min_node_size"])
    if best is None:
        return node
    _, j, thr = best
    mask = X[:, j] <= thr
    node.feature, node.threshold = j, thr
    node.left = _grow_effect_tree(X[mask], y[mask], w[mask], params, depth + 1)
    node.right = _grow_effect_tree(X[~mask], y[~mask], w[~mask], params, depth + 1)
    return node


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

    Splits maximize the size-weighted squared effect; in honest mode the leaf
    effects are re-estimated on a held-out half.
    """
    params = {"min_node_size": 15, "honest": True, "split_fraction": 0.5,
              "max_depth": None, **(params or {})}
    baseline = dataset.baseline
    mask = (dataset.treatment == resource) | (dataset.treatment == baseline)
    sub = dataset.subset(mask)
    X = sub.design(features)
    y = sub.outcome.astype(float)
    w = (sub.treatment == resource).astype(int)
    mns = params["min_node_size"]
    if w.sum() == 0 or w.sum() == len(w):
        raise ValueError(f"arm starvation: no data for one of ({baseline}, {resource})")
    if params["honest"]:
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(y))
        n_split = int(len(y) * params["split_fraction"])
        tr, est = perm[:n_split], perm[n_split:]
        root = _grow_effect_tree(X[tr], y[tr], w[tr], params, 0)
        _honest_reestimate(root, X[est], y[est], w[est], mns)
    else:
        root = _grow_effect_tree(X, y, w, params, 0)
    tree = DecisionTree(root, "binary-regression", X.shape[1])
    return CausalTree(tree, resource, baseline, params["honest"], mns, features)


# ---------------------------------------------------------------------------
# Partitioning

def _cell_keys(trees: list, X, labels=None):
    """Distinct cell keys among the rows of ``X`` and each row's index into them.

    A row's key is the tuple of its leaf ids across ``trees``; with group
    labels it is (leaf tuple, ``str(label)``).
    """
    cols = [t.leaf_ids(X) for t in trees]
    if labels is not None:
        names, codes = np.unique(labels, return_inverse=True)
        cols.append(codes.reshape(-1))
    rows, inverse = np.unique(np.column_stack(cols), axis=0, return_inverse=True)
    keys = [tuple(row) for row in rows.tolist()]
    if labels is not None:
        keys = [(key[:-1], str(names[key[-1]])) for key in keys]
    return keys, inverse.reshape(-1)


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
    if len({g for _, g in seen}) == 1:
        return partition
    table = {}
    cells = {}
    for tup, g in sorted(seen):
        qid = f"{partition.queue_table.get(tup, 'q?')}:{g}"
        table[(tup, g)] = qid
        cells.setdefault(partition.queue_table.get(tup), []).append(qid)
    return PartitionFunction(partition.trees, table, list(table.values()),
                             partition.feature_mode, group_dimension, cells)


# ---------------------------------------------------------------------------
# Doubly-robust CATE, screening, risk scores, arrival rates

def _dr_terms(dataset: Dataset, out: OutcomeModel, prop: PropensityModel):
    """Per-record DR pseudo-outcomes, one row per resource of ``resource_set``.

    Each model predicts once, on the design it was fit on.
    """
    yhat = np.array([out.predict(dataset.design(out.feature_mode), r)
                     for r in dataset.resource_set])
    t_idx = dataset.treatment_index()
    yhat_obs = yhat[t_idx, np.arange(len(dataset))]
    pbar = prop.prob_of(dataset.design(prop.feature_mode), dataset.treatment)
    treated = t_idx == np.arange(len(dataset.resource_set))[:, None]
    return yhat + (dataset.outcome - yhat_obs) * treated / pbar


def estimate_cate_dr(dataset: Dataset, partition: PartitionFunction,
                     prop: PropensityModel, out: OutcomeModel) -> tuple:
    """DR effect estimates per (queue, resource) and the baseline mean.

    Returns (CATEMatrix, kept queue ids); queues with no records are dropped.
    """
    assignments = np.array(partition.assign_dataset(dataset))
    terms = _dr_terms(dataset, out, prop)
    kept = [q for q in partition.queues if np.any(assignments == q)]
    tau = np.zeros((len(kept), len(dataset.resource_set)))
    for qi, q in enumerate(kept):
        mask = assignments == q
        t_base = terms[0][mask].mean()       # resource_set[0] is the baseline
        for ri in range(1, len(terms)):
            tau[qi, ri] = terms[ri][mask].mean() - t_base
    c = float(terms[0].mean())
    return CATEMatrix(tau, c), kept


def dr_potential_mean(dataset: Dataset, out: OutcomeModel, prop: PropensityModel,
                      resource: str) -> float:
    """DR estimate of the mean potential outcome under one resource."""
    terms = _dr_terms(dataset, out, prop)
    return float(terms[dataset.resource_set.index(resource)].mean())


def positivity_screen(dataset: Dataset, prop: PropensityModel,
                      threshold: float = POSITIVITY_THRESHOLD):
    """Split off records whose smallest estimated propensity is below threshold."""
    proba = prop.predict_proba(dataset.design(prop.feature_mode))
    keep = proba.min(axis=1) >= threshold
    return dataset.subset(keep), dataset.subset(~keep)


def risk_scores(out: OutcomeModel, x) -> np.ndarray:
    """Per-resource estimated success probabilities for one feature vector."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.array([out.predict(x, r)[0] for r in out.resources])


def arrival_rates(dataset: Dataset, partition: PartitionFunction,
                  observation_window_days: float, rho: float = 0.99,
                  min_rate: Fraction = Fraction(1, 10**6)) -> MCMSInstance:
    """Empirical per-queue and per-resource rates; the baseline resource rate
    is set so total supply is total demand divided by rho."""
    if observation_window_days <= 0:
        raise ValueError("observation window must be positive")
    window = rationalize(observation_window_days)
    assignments = np.array(partition.assign_dataset(dataset))
    queues = [q for q in partition.queues if np.any(assignments == q)]
    if not queues:
        raise ValueError("no populated queues")
    lam = [Fraction(int(np.sum(assignments == q))) / window for q in queues]
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
    base_rate = max(lam_total / rho_frac - non_base, Fraction(0))
    if base_rate <= 0:
        base_rate = min_rate
    mu[resources.index(baseline)] = base_rate
    return MCMSInstance(tuple(queues), tuple(resources), tuple(lam), tuple(mu),
                        float(lam_total / sum(mu, Fraction(0))))


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
