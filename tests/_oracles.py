"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own algorithms: flows come from dense
enumeration of support patterns, components from a hand-rolled union-find,
tree lookups from a descent one row at a time, and statistical checks from
binomial confidence intervals.

The one exception is tree growth. ``reference_fit_cart`` and
``reference_fit_causal_tree`` keep the earlier, separate CART and causal-tree
growers unchanged, so that a test can require the shared grower in
``fairmatch.causal`` to produce bit-identical trees: the same splits,
thresholds, counts and leaf values. Fitted trees feed every later stage, and
the pipeline's outputs are required to stay byte-identical.

The simulator's matching loop is kept the same way: ``reference_match_streams``
runs the earlier matcher, which writes the FCFS rule out once for arriving
individuals and once for arriving resources, so that a test can require the
single node loop in ``fairmatch.desim`` to give identical statistics and
event logs. ``reference_poisson_stream`` is the earlier arrival generator,
which drew each node's whole-horizon stream at once, so that a test can
require the simulator's replayed arrivals to be the same times, bit for bit.

``reference_from_csv`` is the earlier dataset reader, which parses with the
csv module one row at a time and converts each field with ``float`` or
``int``, so that a test can require ``Dataset.from_csv`` to return the same
arrays with the same dtypes.

``reference_support_components`` labels support components with scipy's
``csgraph.connected_components``, as ``fairmatch.queuing`` did before it
stopped importing scipy, and ``reference_cell_keys`` factorises group labels
with ``np.unique``, as ``fairmatch.causal._cell_keys`` did; tests require the
library's replacements to return identical labels and keys.

``reference_evaluate_dm``/``_ipw``/``_dr``/``_gt`` and ``reference_dr_terms``
are the off-policy estimators and DR pseudo-outcomes as they were before
``fairmatch.ope`` scored each record once: each estimator maps records to
policy rows and re-predicts its models itself, and DR adds its correction to
the direct method's mean. ``reference_cate_dr`` averages those pseudo-outcomes
per queue as ``causal.estimate_cate_dr`` did, so that a test can require the
effects to stay bit-identical.
"""

import csv
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from fairmatch.causal import (LAPLACE_ALPHA, CausalTree, DecisionTree, TreeNode,
                              _honest_reestimate)
from fairmatch.core import CATEMatrix, Dataset, _check_unique
from fairmatch.desim import SimulationStats


def brute_force_flows(instance, topology):
    """Minimize sum f^2/(lam mu) over every support pattern of the topology.

    For each candidate support, the equality-constrained minimizer is found by
    least squares on the stationarity system; infeasible or negative patterns
    are discarded and the best feasible objective wins.
    """
    lam = instance.lam_f
    mu = instance.balanced_mu_f()
    edges = [(q, r) for q in range(instance.n_queues)
             for r in range(instance.n_resources) if topology.m[q, r]]
    best = None
    for k in range(1, len(edges) + 1):
        for support in combinations(edges, k):
            f = _solve_support_pattern(lam, mu, support,
                                       instance.n_queues, instance.n_resources)
            if f is None:
                continue
            obj = sum(f[q, r] ** 2 / (lam[q] * mu[r]) for q, r in support)
            if best is None or obj < best[0] - 1e-12:
                best = (obj, f)
    return None if best is None else best[1]


def _solve_support_pattern(lam, mu, support, n_q, n_r):
    n = len(support)
    rows, rhs = [], []
    for q in range(n_q):
        row = [1.0 if e[0] == q else 0.0 for e in support]
        rows.append(row)
        rhs.append(lam[q])
    for r in range(n_r):
        row = [1.0 if e[1] == r else 0.0 for e in support]
        rows.append(row)
        rhs.append(mu[r])
    a = np.array(rows)
    b = np.array(rhs)
    # minimum of sum f^2/(lam mu) subject to a f = b via scaled least norm:
    # substitute f = sqrt(lam mu) * u and find the least-norm u.
    scale = np.array([np.sqrt(lam[q] * mu[r]) for q, r in support])
    u, *_ = np.linalg.lstsq(a * scale, b, rcond=None)
    f_vals = scale * u
    if np.max(np.abs(a @ f_vals - b)) > 1e-8:
        return None
    if np.min(f_vals) < -1e-9:
        return None
    f = np.zeros((n_q, n_r))
    for (q, r), v in zip(support, f_vals):
        f[q, r] = max(v, 0.0)
    return f


def union_find_components(n_q, n_r, edges):
    parent = list(range(n_q + n_r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for q, r in edges:
        a, b = find(q), find(n_q + r)
        if a != b:
            parent[a] = b
    touched = {find(q) for q, _ in edges} | {find(n_q + r) for _, r in edges}
    return len(touched)


def tree_leaves(node):
    """Leaves of a ``TreeNode`` tree in left-to-right order, by recursion."""
    if node.feature < 0:
        return [node]
    return tree_leaves(node.left) + tree_leaves(node.right)


def tree_leaf(root, x):
    """Leaf that one row reaches, descending node by node from the root."""
    node = root
    while node.feature >= 0:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node


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


def reference_fit_cart(X, y, target_kind: str, params: dict) -> DecisionTree:
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


def reference_fit_causal_tree(dataset, resource, params=None, features="all", seed=0):
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


def reference_poisson_stream(rng, rate, horizon, first=None):
    """A node's Poisson arrival times before the horizon, drawn at once.
    ``first`` replaces the size of the first draw, so that a test can reach
    the extension branch, which adds each extra running sum to the last time
    without carrying it."""
    if rate <= 0:
        return np.empty(0)
    n_expect = rate * horizon
    if first is None:
        first = int(n_expect + 6 * np.sqrt(n_expect) + 20)
    times = np.cumsum(rng.exponential(1.0 / rate, size=first))
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


def reference_match_streams(streams_q, streams_r, topology, warmup_end, horizon,
                            seed, audit):
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


def reference_support_components(support):
    """The csgraph component labelling of ``queuing._support_components``."""
    n_q, n_r = support.shape
    q, r = np.nonzero(support)
    graph = sparse.coo_matrix((np.ones(len(q)), (q, n_q + r)),
                              shape=(n_q + n_r, n_q + n_r))
    n_comp, labels = csgraph.connected_components(graph, directed=False)
    return labels[:n_q], labels[n_q:], n_comp


def reference_cell_keys(trees, X, labels=None):
    """``causal._cell_keys`` as it was when it factorised labels with ``np.unique``."""
    cols = [t.leaf_ids(X) for t in trees]
    if labels is not None:
        names, codes = np.unique(labels, return_inverse=True)
        cols.append(codes.reshape(-1))
    inverse = np.zeros(len(cols[0]), dtype=np.int64)
    for col in cols:
        _, inverse = np.unique(inverse * (col.max(initial=0) + 1) + col,
                               return_inverse=True)
    rep = np.empty(inverse.max(initial=-1) + 1, dtype=np.int64)
    rep[inverse] = np.arange(len(inverse))
    keys = [tuple(row) for row in np.column_stack([c[rep] for c in cols]).tolist()]
    if labels is not None:
        keys = [(key[:-1], str(names[key[-1]])) for key in keys]
    return keys, inverse


def binomial_3sigma(p, n):
    """Half-width of a 3-sigma interval for a Bernoulli(p) sample mean."""
    return 3 * np.sqrt(max(p * (1 - p), 1e-12) / n)


def random_instance(rng, n_q, n_r, grid=20, slack=Fraction(21, 20)):
    """Random rational rates with slightly abundant resources."""
    lam = tuple(Fraction(int(rng.integers(4, grid + 1)), grid)
                for _ in range(n_q))
    mu = list(Fraction(int(rng.integers(4, grid + 1)), grid)
              for _ in range(n_r))
    lam_total = sum(lam, Fraction(0))
    mu_total = sum(mu, Fraction(0))
    if mu_total <= lam_total * slack:
        factor = slack * lam_total / mu_total
        mu = [Fraction(int(np.ceil(m * factor * grid)), grid) for m in mu]
    return lam, tuple(mu)


def reference_from_csv(path, resource_set, feature_names, group_dimensions=()):
    """The row-by-row dataset reader, as ``Dataset.from_csv`` was before it
    parsed with ``np.loadtxt``."""
    with open(path, newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row] or [[]]
    if not rows:
        raise ValueError(f"empty dataset file: {path}")
    _check_unique(header)
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"data row {i} has {len(row)} fields, "
                             f"the header has {len(header)}")
    cols = dict(zip(header, zip(*rows)))
    required = ["id"] + list(feature_names) + ["score", "treatment",
                                              "outcome", "arrival_time"]
    for col in required + list(group_dimensions):
        if col not in cols:
            raise ValueError(f"missing column: {col}")
    for col in required:
        if "" in cols[col]:
            raise ValueError(f"missing value in column {col}")

    def column(col, kind=str):
        return np.array(list(map(kind, cols[col])))

    features = np.column_stack([np.empty((len(rows), 0))]
                               + [column(c, float) for c in feature_names])
    po = {c[3:]: column(c, int) for c in cols if c.startswith("po_")}
    return Dataset(features, column("score", float),
                   {g: column(g) for g in group_dimensions}, column("treatment"),
                   column("outcome", int), column("arrival_time", float),
                   resource_set, feature_names, ids=column("id"),
                   potential_outcomes=po or None)


def _reference_policy_rows(policy, queue_ids, instance):
    queue_index = {q: i for i, q in enumerate(instance.queues)}
    names, inverse = np.unique(np.asarray(queue_ids), return_inverse=True)
    try:
        rows = np.array([queue_index[q] for q in names.tolist()], dtype=int)
    except KeyError as exc:
        raise ValueError(f"record mapped to queue absent from instance: {exc}")
    return policy.probs[rows[inverse]]


def _reference_prob_of(prop, dataset):
    """Propensity of each record's observed resource, by the model's resources."""
    proba = prop.predict_proba(dataset.design(prop.feature_mode))
    kinds, inverse = np.unique(np.asarray(dataset.treatment), return_inverse=True)
    cols = np.array([prop.resources.index(t) for t in kinds.tolist()], dtype=int)
    return proba[np.arange(len(inverse)), cols[inverse.reshape(-1)]]


def _reference_predictions(dataset, out):
    X = dataset.design(out.feature_mode)
    return np.column_stack([out.predict(X, r) for r in dataset.resource_set])


def _reference_observed(dataset, pi, prop):
    t_idx = dataset.treatment_index()
    pbar = _reference_prob_of(prop, dataset)
    if np.any(pbar <= 0):
        raise ValueError("zero propensity encountered; screen the dataset first")
    return t_idx, pi[np.arange(len(t_idx)), t_idx], pbar


def reference_evaluate_dm(dataset, policy, queue_ids, out, instance):
    pi = _reference_policy_rows(policy, queue_ids, instance)
    yhat = _reference_predictions(dataset, out)
    return float(np.mean(np.sum(pi * yhat, axis=1)))


def reference_evaluate_ipw(dataset, policy, queue_ids, prop, instance):
    pi = _reference_policy_rows(policy, queue_ids, instance)
    _, pi_obs, pbar = _reference_observed(dataset, pi, prop)
    weights = pi_obs / pbar
    return float(np.mean(weights * dataset.outcome))


def reference_evaluate_dr(dataset, policy, queue_ids, out, prop, instance):
    pi = _reference_policy_rows(policy, queue_ids, instance)
    yhat = _reference_predictions(dataset, out)
    dm = float(np.mean(np.sum(pi * yhat, axis=1)))
    t_idx, pi_obs, pbar = _reference_observed(dataset, pi, prop)
    yhat_obs = yhat[np.arange(len(t_idx)), t_idx]
    correction = np.mean((dataset.outcome - yhat_obs) * pi_obs / pbar)
    return dm + float(correction)


def reference_evaluate_gt(dataset, policy, queue_ids, instance):
    if dataset.potential_outcomes is None:
        raise ValueError("dataset has no potential outcomes")
    pi = _reference_policy_rows(policy, queue_ids, instance)
    po = np.column_stack([dataset.potential_outcomes[r]
                          for r in dataset.resource_set])
    return float(np.mean(np.sum(pi * po, axis=1)))


def reference_dr_terms(dataset, out, prop):
    """Per-record DR pseudo-outcomes, one row per resource of ``resource_set``."""
    yhat = np.array([out.predict(dataset.design(out.feature_mode), r)
                     for r in dataset.resource_set])
    t_idx = dataset.treatment_index()
    yhat_obs = yhat[t_idx, np.arange(len(dataset))]
    pbar = _reference_prob_of(prop, dataset)
    treated = t_idx == np.arange(len(dataset.resource_set))[:, None]
    return yhat + (dataset.outcome - yhat_obs) * treated / pbar


def reference_cate_dr(dataset, queue_ids, queues, out, prop):
    """DR effects per queue of ``queues`` (each holding a record) and the
    baseline mean, from ``reference_dr_terms``."""
    assignments = np.asarray(queue_ids)
    terms = reference_dr_terms(dataset, out, prop)
    tau = np.zeros((len(queues), len(dataset.resource_set)))
    for qi, q in enumerate(queues):
        mask = assignments == q
        t_base = terms[0][mask].mean()
        for ri in range(1, len(terms)):
            tau[qi, ri] = terms[ri][mask].mean() - t_base
    return CATEMatrix(tau, float(terms[0].mean()))
