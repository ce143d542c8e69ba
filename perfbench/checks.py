"""Output checks that recompute what the pipeline claims, apart from it.

Every function raises ``CheckError`` with a message when its input is wrong.
``FlowMismatch`` marks the one failure the benchmark counts as a failed
operation instead of a wrong result: an MIO solve whose flows are not the
steady-state (QP) flows of the topology it returned. Everything here works on
plain numbers and arrays; tree lookups and queue assignment are reimplemented
from the fitted structures rather than called.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output disagrees with its independent recomputation."""


class FlowMismatch(CheckError):
    """Solver flows differ from the QP flows of the returned topology."""


# Sigma multiples for the statistical bands. At these widths a correct
# pipeline falls outside a band with probability below 1e-6 per comparison.
BAND_SIGMAS = 6.0
FLOW_REL_TOL = 1e-6          # flow checks: tolerance relative to lambda_total
# Over simulator seeds 100-109 on the cli-50k topology (rho = 0.99), the SO
# share of queue q11's matches moved by up to 1.7 points, 9.7 Poisson standard
# errors, while every queue's total stayed within 2.7; 0.05 is about seven
# standard deviations of that share.
SPLIT_SHARE = 0.05


# ---------------------------------------------------------------------------
# Tree lookup and queue assignment

def _fields(node):
    """(feature, threshold, left, right, value) of a tree node or its JSON form."""
    if isinstance(node, dict):
        return (node.get("feature", -1), node.get("threshold"), node.get("left"),
                node.get("right"), node.get("value"))
    return node.feature, node.threshold, node.left, node.right, node.value


def interval_tree(root):
    """Thresholds and leaf values of a one-feature tree, in score order.

    A record with score ``x`` lands in leaf ``searchsorted(thresholds, x)``:
    the tree sends ``x <= threshold`` left, so leaves read left to right are
    the intervals between consecutive thresholds.
    """
    thresholds, values = [], []

    def walk(node):
        feature, threshold, left, right, value = _fields(node)
        if feature < 0:
            values.append(value)
            return
        if feature != 0:
            raise CheckError("interval lookup needs trees on a single feature")
        walk(left)
        thresholds.append(threshold)
        walk(right)

    walk(root)
    return np.asarray(thresholds, dtype=float), values


def leaf_index(thresholds, x):
    return np.searchsorted(thresholds, np.asarray(x, dtype=float), side="left")


def leaf_tuples(roots, x):
    """Per record, the tuple of leaf indices across the given trees."""
    ids = np.column_stack([leaf_index(interval_tree(r)[0], x) for r in roots])
    return [tuple(int(v) for v in row) for row in ids]


def assign_queues(roots, queue_table, x, group_labels=None):
    """Queue index per record from the causal trees' leaf tuples.

    Mirrors the documented partition rule: a leaf tuple (plus group label when
    queues are split by group) seen in training maps through ``queue_table``;
    an unseen tuple takes the Hamming-nearest seen tuple, ties broken by tuple
    order. Returns (queue ids in table order, per-record index into them).
    """
    keys = sorted(queue_table)
    names = [queue_table[k] for k in keys]
    pos = {k: i for i, k in enumerate(keys)}
    rows = leaf_tuples(roots, x)
    out = np.empty(len(rows), dtype=int)
    labels = [None] * len(rows) if group_labels is None else [str(g) for g in group_labels]
    cache = {}
    for i, (tup, g) in enumerate(zip(rows, labels)):
        key = tup if g is None else (tup, g)
        if key not in cache:
            cache[key] = pos[key] if key in pos else pos[_nearest_key(keys, tup, g)]
        out[i] = cache[key]
    return names, out


def _nearest_key(keys, tup, g):
    def dist(k):
        base = k if g is None else k[0]
        return sum(a != b for a, b in zip(base, tup))
    if g is None:
        return min(keys, key=lambda k: (dist(k), k))
    same = [k for k in keys if k[1] == g] or list(keys)
    return min(same, key=lambda k: (dist(k), k[0], str(k[1])))


# ---------------------------------------------------------------------------
# Learning

def propensities(prop_root, classes, resources, scores):
    """Per record, the propensity tree's leaf frequencies in resource order."""
    thresholds, values = interval_tree(prop_root)
    order = [classes.index(r) for r in resources]
    leaf_probs = np.array([np.asarray(v, dtype=float)[order] for v in values])
    leaf_probs /= leaf_probs.sum(axis=1, keepdims=True)
    return leaf_probs[leaf_index(thresholds, scores)]


def check_propensities(prop_root, classes, resources, scores, strata_edges, table):
    """Mean estimated propensity per generator stratum against the table.

    The band is BAND_SIGMAS binomial standard errors of the stratum's record
    count, plus the Laplace smoothing's largest pull on a leaf.
    """
    proba = propensities(prop_root, classes, resources, scores)
    strata = np.digitize(scores, strata_edges, right=True)
    for s, name in enumerate(table):
        mask = strata == s
        n = int(mask.sum())
        if n == 0:
            raise CheckError(f"stratum {name} has no records")
        for r, p in enumerate(table[name]):
            got = float(proba[mask, r].mean())
            band = BAND_SIGMAS * math.sqrt(p * (1 - p) / n) + 0.01
            if abs(got - p) > band:
                raise CheckError(f"propensity of {resources[r]} in stratum {name}: "
                                 f"{got:.4f}, generator {p:.4f}, band {band:.4f}")


def check_dr_effects(tau, queue_of_record, potential_outcomes, resources, p_min):
    """Each queue's DR effect against the mean potential-outcome difference.

    The DR pseudo-outcome of resource r deviates from Y(r) with variance at
    most 1/(4 p_r), so a queue of n records gets a band of BAND_SIGMAS times
    sqrt((1/p_r + 1/p_base) / (4 n)).
    """
    base = potential_outcomes[resources[0]]
    for q in range(tau.shape[0]):
        mask = queue_of_record == q
        n = int(mask.sum())
        if n == 0:
            raise CheckError(f"queue {q} has no records")
        for r in range(1, len(resources)):
            truth = float(np.mean(potential_outcomes[resources[r]][mask] - base[mask]))
            band = BAND_SIGMAS * math.sqrt((1 / p_min[r] + 1 / p_min[0]) / (4 * n))
            if abs(tau[q, r] - truth) > band:
                raise CheckError(f"DR effect of queue {q}, {resources[r]}: "
                                 f"{tau[q, r]:.4f}, truth {truth:.4f}, band {band:.4f}")


# ---------------------------------------------------------------------------
# Optimization

def balanced_mu(lam_fractions, mu_fractions):
    """Resource rates scaled so their total equals the total arrival rate."""
    lam_total = sum(lam_fractions)
    mu_total = sum(mu_fractions)
    return np.array([float(m * lam_total / mu_total) for m in mu_fractions])


def count_components(flows, eps):
    """Connected components of the bipartite graph of edges with flow > eps."""
    n_q, n_r = flows.shape
    parent = list(range(n_q + n_r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for q, r in zip(*np.nonzero(flows > eps)):
        a, b = find(int(q)), find(n_q + int(r))
        if a != b:
            parent[a] = b
    return len({find(x) for x in range(n_q + n_r)})


def check_solve(flows, qp_flows, lam, mu_bal, topology):
    """Balance, support, one pooled component, then equality with QP flows."""
    tol = FLOW_REL_TOL * float(lam.sum())
    if flows.shape != topology.shape or np.any(flows < -tol):
        raise CheckError("flows are not a nonnegative queue x resource matrix")
    if np.any((topology == 0) & (flows > tol)):
        raise CheckError("flow on an edge outside the topology")
    row_err = float(np.max(np.abs(flows.sum(axis=1) - lam)))
    col_err = float(np.max(np.abs(flows.sum(axis=0) - mu_bal)))
    if row_err > tol or col_err > tol:
        raise CheckError(f"flow balance off: rows {row_err:.2e}, columns {col_err:.2e}")
    n_comp = count_components(flows, tol)
    if n_comp != 1:
        raise CheckError(f"flows form {n_comp} pooled components, not one")
    dev = float(np.max(np.abs(flows - qp_flows)))
    if dev > tol:
        raise FlowMismatch(f"flows differ from the QP flows of the topology by {dev:.2e}")


def group_advantages(flows, tau, lam, groups):
    """Per group: sum of tau * f over its queues, divided by its arrival rate."""
    return {g: float(np.sum(flows[qs] * tau[qs]) / lam[qs].sum())
            for g, qs in groups.items()}


def check_sweep(unconstrained, sweep, min_binding, tol=1e-9):
    """Fairness sweep: objective never above the unconstrained one, never
    rising as the bound rises, enough bounds binding, and each bound met.

    ``sweep`` lists (bound, objective, {group: advantage}) in rising bound order.
    """
    prev = unconstrained
    binding = 0
    for bound, objective, advantages in sweep:
        if objective > unconstrained + tol:
            raise CheckError(f"bound {bound}: objective {objective:.9f} exceeds "
                             f"the unconstrained {unconstrained:.9f}")
        if objective > prev + tol:
            raise CheckError(f"bound {bound}: objective rose to {objective:.9f}")
        prev = objective
        binding += objective < unconstrained - tol
        for g, adv in advantages.items():
            if adv < bound - 1e-7:
                raise CheckError(f"bound {bound}: group {g} advantage {adv:.6f}")
    if binding < min_binding:
        raise CheckError(f"only {binding} of the bounds bind")


def check_linked(topology, cells):
    """Queues of one score cell share one eligibility row."""
    for cell in cells:
        rows = topology[cell]
        if np.any(rows != rows[0]):
            raise CheckError(f"queues {cell} of one score cell have different rows")


# ---------------------------------------------------------------------------
# Off-policy evaluation

def ground_truth(policy_rows, queue_of_record, potential_outcomes, resources):
    """Mean potential outcome when each record draws its resource from its
    queue's policy row."""
    po = np.column_stack([potential_outcomes[r] for r in resources])
    return float(np.mean(np.sum(policy_rows[queue_of_record] * po, axis=1)))


def check_ope(estimates, gt, n, p_min, tol=1e-9):
    """DM and DR within a band of GT; the library's GT equal to ours.

    DR's pseudo-outcome has variance at most 1/(4 p_min) per record; the band
    is BAND_SIGMAS of that standard error plus the same for GT's own draw.
    """
    band = BAND_SIGMAS * (math.sqrt(1 / (4 * p_min * n)) + math.sqrt(1 / (4 * n)))
    if abs(estimates["GT"] - gt) > tol:
        raise CheckError(f"GT {estimates['GT']:.9f}, recomputed {gt:.9f}")
    for est in ("DM", "DR"):
        if abs(estimates[est] - gt) > band:
            raise CheckError(f"{est} {estimates[est]:.4f} outside GT {gt:.4f} "
                             f"+- {band:.4f}")


def check_ct_order(ct_optimized, ct_fcfs, tol=1e-9):
    if ct_optimized < ct_fcfs - tol:
        raise CheckError(f"optimized CT {ct_optimized:.6f} below FCFS {ct_fcfs:.6f}")


# ---------------------------------------------------------------------------
# Command-line outputs

def check_fit_report(report):
    total = sum(q["count"] for q in report["queues"])
    if total != report["n_kept"]:
        raise CheckError(f"queue counts sum to {total}, n_kept is {report['n_kept']}")


def check_simulation(expected, matches, horizon):
    """Simulated matches against expected flow x horizon, per queue and edge.

    ``expected`` and ``matches`` map (queue, resource) to the expected flow
    per day and the simulated match count. A queue's matches are its Poisson
    arrivals less the change in its waiting line, so each queue's total gets
    a Poisson band. An edge of a queue served by one resource is that total.
    When a queue is served by several resources, FCFS splits its matches
    between them with long-lived swings near rho = 1, wider than Poisson, so
    each such edge may also move by SPLIT_SHARE of the queue's total.
    """
    totals, served = {}, {}
    for (queue, _), flow in expected.items():
        totals[queue] = totals.get(queue, 0.0) + flow * horizon
        served[queue] = served.get(queue, 0) + (flow > 0)
    for queue, mean in totals.items():
        got = sum(n for (q, _), n in matches.items() if q == queue)
        band = BAND_SIGMAS * math.sqrt(mean) + 1.0
        if abs(got - mean) > band:
            raise CheckError(f"queue {queue}: {got} matches, expected {mean:.0f} "
                             f"+- {band:.0f}")
    for edge, flow in expected.items():
        mean = flow * horizon
        got = matches.get(edge, 0)
        band = BAND_SIGMAS * math.sqrt(mean) + 1.0
        if served[edge[0]] > 1:
            band += SPLIT_SHARE * totals[edge[0]]
        if abs(got - mean) > band:
            raise CheckError(f"edge {edge}: {got} matches, expected {mean:.0f} "
                             f"+- {band:.0f}")


def check_identical(first, again):
    """Output files of two passes are byte-identical."""
    if set(first) != set(again):
        raise CheckError(f"passes wrote different files: {sorted(set(first) ^ set(again))}")
    for name in sorted(first):
        if first[name] != again[name]:
            raise CheckError(f"{name} differs between passes")
