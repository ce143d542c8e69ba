"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own algorithms: flows come from dense
enumeration of support patterns, components from a hand-rolled union-find,
tree lookups from a descent one row at a time, and statistical checks from
binomial confidence intervals.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np


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
