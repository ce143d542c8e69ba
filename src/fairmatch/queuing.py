"""Steady-state admissibility, QP matching flows, and CRP decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import FlowMatrix, MCMSInstance, MatchingTopology

MAX_ENUM_RESOURCES = 12
MAX_ACTIVE_SET_ITER = 500

_MARGIN_REL_TOL = 1e-12
_FLOW_EPS_REL = 1e-9


class FlowSolveError(RuntimeError):
    """The flow system has no balanced solution on the given support."""


@dataclass(frozen=True)
class CRPDecomposition:
    """Partition of queues and resources into resource-pooling components."""

    components: tuple  # of (queue-index tuple, resource-index tuple)

    @property
    def count(self) -> int:
        return len(self.components)


def check_admissible(instance: MCMSInstance, topology: MatchingTopology) -> bool:
    """Steady-state test: every queue and resource has an edge (the balanced
    flows must reach every resource), and every resource subset must
    out-pace the queues it traps.

    For each nonempty subset R' of resources, the queues eligible only within
    R' must have strictly less cumulative arrival rate than R'. Enumerates all
    subsets, so the resource count is capped.
    """
    topology.check_shape(instance)
    m = topology.m
    n_r = instance.n_resources
    if n_r > MAX_ENUM_RESOURCES:
        raise ValueError(f"subset enumeration limited to {MAX_ENUM_RESOURCES} resources")
    if np.any(m.sum(axis=1) == 0) or np.any(m.sum(axis=0) == 0):
        return False
    lam = instance.lam_f
    mu = instance.mu_f
    margin_tol = _MARGIN_REL_TOL * mu.sum()
    all_r = range(n_r)
    for size in range(1, n_r + 1):
        for subset in combinations(all_r, size):
            outside = [r for r in all_r if r not in subset]
            trapped = m[:, outside].sum(axis=1) == 0 if outside else np.ones(len(lam), bool)
            margin = mu[list(subset)].sum() - lam[trapped].sum()
            if margin <= margin_tol:
                return False
    return True


def _support_components(support):
    """Connected components of the bipartite graph whose edges are the True
    cells of ``support``. Returns (queue labels, resource labels, count).
    Nodes are the queues, then the resources; each component is labelled in
    order of its lowest node, so components holding a queue come first, in
    order of their first queue, then resource-only components in resource
    order."""
    n_q, n_r = support.shape
    neighbours = [[] for _ in range(n_q + n_r)]
    q, r = np.nonzero(support)
    for a, b in zip(q.tolist(), (r + n_q).tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    labels = [-1] * (n_q + n_r)
    n_comp = 0
    for start in range(n_q + n_r):
        if labels[start] >= 0:
            continue
        labels[start] = n_comp
        stack = [start]
        while stack:
            for node in neighbours[stack.pop()]:
                if labels[node] < 0:
                    labels[node] = n_comp
                    stack.append(node)
        n_comp += 1
    labels = np.array(labels, dtype=np.int32)
    return labels[:n_q], labels[n_q:], n_comp


def _solve_support(lam, mu, support):
    """Solve the stationarity system f_qr = lam_q mu_r (theta_q + gamma_r) on a support.

    Returns (f, theta, gamma, residual). The system is solved by least squares
    because each connected component contributes one redundant balance equation.
    """
    n_q, n_r = support.shape
    rows = []
    rhs = []
    for q in range(n_q):
        row = np.zeros(n_q + n_r)
        sel = support[q]
        if not sel.any():
            raise FlowSolveError(f"queue {q} has empty support")
        row[q] = mu[sel].sum()
        row[n_q:][sel] = mu[sel]
        rows.append(row)
        rhs.append(1.0)
    for r in range(n_r):
        row = np.zeros(n_q + n_r)
        sel = support[:, r]
        if not sel.any():
            raise FlowSolveError(f"resource {r} has empty support")
        row[n_q + r] = lam[sel].sum()
        row[:n_q][sel] = lam[sel]
        rows.append(row)
        rhs.append(1.0)
    a = np.array(rows)
    b = np.array(rhs)
    sol = np.linalg.lstsq(a, b, rcond=None)[0]
    theta, gamma = sol[:n_q], sol[n_q:]
    f = np.where(support, lam[:, None] * mu[None, :] * (theta[:, None] + gamma[None, :]), 0.0)
    residual = max(np.max(np.abs(f.sum(axis=1) - lam)), np.max(np.abs(f.sum(axis=0) - mu)))
    return f, theta, gamma, residual


def _dual_shifts(n_comp, cross):
    """Feasibility of per-component potential shifts for difference constraints.

    ``cross`` holds (comp_i, comp_j, bound) meaning c_i - c_j <= bound.
    Bellman-Ford from a virtual source; returns shifts or None if infeasible.
    """
    dist = [0.0] * n_comp
    for _ in range(n_comp):
        changed = False
        for i, j, bound in cross:
            if dist[j] + bound < dist[i] - 1e-15:
                dist[i] = dist[j] + bound
                changed = True
        if not changed:
            return dist
    for i, j, bound in cross:
        if dist[j] + bound < dist[i] - 1e-12:
            return None
    return dist


def steady_state_flows(instance: MCMSInstance, topology: MatchingTopology) -> FlowMatrix:
    """Minimum of sum f^2/(lam mu) over balanced flows supported on the topology.

    Active-set refinement: solve the equality-constrained stationarity system
    on the current support, drop negative-flow edges, re-add edges whose
    reduced cost goes positive, until primal and dual feasibility hold.
    Resource rates are rebalanced to the total individual arrival rate.
    """
    topology.check_shape(instance)
    if not check_admissible(instance, topology):
        raise FlowSolveError("topology is not admissible")
    lam = instance.lam_f
    mu = instance.balanced_mu_f()
    m = topology.m.astype(bool)
    n_q, n_r = m.shape
    tol = 1e-10 * max(1.0, mu.sum())
    support = m.copy()
    seen = set()
    for _ in range(MAX_ACTIVE_SET_ITER):
        key = support.tobytes()
        f, theta, gamma, residual = _solve_support(lam, mu, support)
        if residual > 1e-6 * max(1.0, mu.sum()):
            raise FlowSolveError("balance equations unsolvable on support "
                                 "(disconnected or infeasible topology)")
        if f.min() < -tol:
            # drop the most negative edge; revisit a support at most once
            order = np.argsort(f, axis=None)
            dropped = False
            for idx in order:
                q, r = divmod(int(idx), n_r)
                if support[q, r] and f[q, r] < -tol:
                    trial = support.copy()
                    trial[q, r] = False
                    if trial.tobytes() not in seen:
                        support = trial
                        dropped = True
                        break
            if not dropped:
                raise FlowSolveError("active-set cycling while pruning support")
            seen.add(key)
            continue
        # primal feasible; check reduced costs of excluded topology edges
        excluded = [(q, r) for q in range(n_q) for r in range(n_r)
                    if m[q, r] and not support[q, r]]
        if not excluded:
            return FlowMatrix(np.clip(f, 0.0, None))
        comp_q, comp_r, n_comp = _support_components(support)
        cross = []
        violated = None
        worst = tol
        for q, r in excluded:
            red = theta[q] + gamma[r]
            ci, cj = comp_q[q], comp_r[r]
            if ci == cj:
                if red > worst:
                    worst = red
                    violated = (q, r)
            else:
                # shifted potentials must satisfy c_i - c_j <= -red
                cross.append((ci, cj, -red, q, r))
        if violated is None and cross:
            if _dual_shifts(n_comp, [(i, j, b) for i, j, b, _, _ in cross]) is None:
                violated = max(cross, key=lambda t: -t[2])[3:]
        if violated is None:
            return FlowMatrix(np.clip(f, 0.0, None))
        trial = support.copy()
        trial[violated] = True
        if trial.tobytes() in seen:
            raise FlowSolveError("active-set cycling while restoring support")
        seen.add(key)
        support = trial
    raise FlowSolveError("active-set iteration limit reached")


def crp_components(instance: MCMSInstance, topology: MatchingTopology,
                   flows: FlowMatrix | None = None) -> CRPDecomposition:
    """Components of the bipartite graph spanned by the positive QP flows.

    ``flows``, when given, are the topology's QP flows, already computed.
    """
    if flows is None:
        flows = steady_state_flows(instance, topology)
    eps = _FLOW_EPS_REL * float(instance.mu_total)
    comp_q, comp_r, n_comp = _support_components(flows.f > eps)
    return CRPDecomposition(tuple(
        (tuple(np.flatnonzero(comp_q == c).tolist()),
         tuple(np.flatnonzero(comp_r == c).tolist())) for c in range(n_comp)))
