"""Mixed-integer optimization of the matching topology.

The model maximizes flow-weighted treatment effects subject to flow balance,
big-M linearized KKT conditions of the steady-state flow QP, a single
resource-pooling component (via perturbed-flow certificates), and optional
fairness constraints. Resource rates are rebalanced to the total individual
arrival rate, matching the flow solver.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import optimize as sopt
from scipy import sparse

from .core import CATEMatrix, FlowMatrix, MCMSInstance, MatchingTopology
from .queuing import FlowSolveError, _support_components, check_admissible, steady_state_flows

MAX_ORACLE_CELLS = 16

FAIRNESS_KINDS = ("none", "maximin_allocation", "parity_allocation",
                  "maximin_outcome", "parity_outcome")


class InfeasibleModelError(RuntimeError):
    pass


class SolverLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class BigMConstants:
    w: Fraction
    z: Fraction
    delta: Fraction


@dataclass(frozen=True)
class FairnessSpec:
    kind: str = "none"
    bound: float = 0.0
    group_dimension: str = ""
    group_to_queues: dict = field(default_factory=dict)   # label -> queue-id list

    def __post_init__(self):
        if self.kind not in FAIRNESS_KINDS:
            raise ValueError(f"unknown fairness kind: {self.kind}")
        seen = set()
        for queues in self.group_to_queues.values():
            qs = set(queues)
            if qs & seen:
                raise ValueError("fairness groups must map to disjoint queue sets")
            seen |= qs

    @staticmethod
    def none() -> "FairnessSpec":
        return FairnessSpec()


def compute_bigM(instance: MCMSInstance) -> BigMConstants:
    """Big-M and perturbation constants from the exact rational rates."""
    lam, mu = instance.lam, instance.mu
    inv = [Fraction(1) / x for x in lam] + [Fraction(1) / x for x in mu]
    w = Fraction(1, 2) * max(inv)
    size = len(lam) + len(mu) + 1
    z = max(lam) * max(mu) * (sum(inv, Fraction(0)) + size * size * w)
    den_product = 1
    for x in list(lam) + list(mu):
        den_product *= x.denominator
    delta = Fraction(1, den_product)
    if delta < Fraction(1, 10**12):
        warnings.warn("rate denominators make the pooling perturbation smaller "
                      "than solver tolerances; consider coarser rationals")
    if len(lam) > 1 and delta / (len(lam) - 1) >= min(lam):
        raise ValueError("perturbation exceeds the smallest arrival rate")
    return BigMConstants(w, z, delta)


@dataclass
class MIOModel:
    instance: MCMSInstance
    tau: CATEMatrix
    fairness: FairnessSpec
    constants: BigMConstants
    objective: np.ndarray            # coefficients, maximization sense
    a_eq: list                       # (row array, rhs, label)
    a_ub: list                       # (row array, rhs, label)
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    var_names: list
    n_vars: int
    idx_f: np.ndarray                # (Q, R) index maps
    idx_nu: np.ndarray
    idx_gamma: np.ndarray
    idx_theta: np.ndarray
    idx_m: np.ndarray
    idx_z: np.ndarray
    idx_g: np.ndarray | None         # (Q, Q, R) or None when Q == 1


@dataclass(frozen=True)
class OptimizationResult:
    topology: MatchingTopology
    flows: FlowMatrix
    objective: float
    policy_value: float
    solver_stats: dict


def build_mio(instance: MCMSInstance, tau: CATEMatrix,
              fairness: FairnessSpec | None = None,
              extra_linear=None, tighten_bounds: bool = True) -> MIOModel:
    """Assemble the full constraint system over (f, nu, gamma, theta, g, m, z)."""
    fairness = fairness or FairnessSpec.none()
    n_q, n_r = instance.n_queues, instance.n_resources
    if tau.tau.shape != (n_q, n_r):
        raise ValueError("effect matrix shape does not match the instance")
    lam_frac = instance.lam
    mu_frac = instance.balanced_mu()
    balanced = MCMSInstance(instance.queues, instance.resources,
                            lam_frac, mu_frac, 1.0)
    consts = compute_bigM(balanced)
    z_big = float(consts.z)
    w_big = float(consts.w)
    delta = float(consts.delta)
    lam = np.array([float(x) for x in lam_frac])
    mu = np.array([float(x) for x in mu_frac])

    names = []
    idx_f = _add_block(names, "f", (n_q, n_r))
    idx_nu = _add_block(names, "nu", (n_q, n_r))
    idx_gamma = _add_block(names, "gamma", (n_r,))
    idx_theta = _add_block(names, "theta", (n_q,))
    idx_g = _add_block(names, "g", (n_q, n_q, n_r)) if n_q > 1 else None
    idx_m = _add_block(names, "m", (n_q, n_r))
    idx_z = _add_block(names, "z", (n_q, n_r))
    n_vars = len(names)

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    lower[idx_gamma.ravel()] = -np.inf
    lower[idx_theta.ravel()] = -np.inf
    upper[idx_m.ravel()] = 1.0
    upper[idx_z.ravel()] = 1.0
    integrality = np.zeros(n_vars)
    integrality[idx_m.ravel()] = 1
    integrality[idx_z.ravel()] = 1

    objective = np.zeros(n_vars)
    objective[idx_f.ravel()] = tau.tau.ravel()

    cap = np.minimum(lam[:, None], mu[None, :]) if tighten_bounds \
        else np.full((n_q, n_r), z_big)
    g_cap = (lam[:, None] + delta) if tighten_bounds else np.full((n_q, 1), z_big)

    a_eq, a_ub = [], []

    def row():
        return np.zeros(n_vars)

    for r in range(n_r):
        rr = row()
        rr[idx_f[:, r]] = 1.0
        a_eq.append((rr, mu[r], f"flow_balance_resource[{r}]"))
    for q in range(n_q):
        rr = row()
        rr[idx_f[q, :]] = 1.0
        a_eq.append((rr, lam[q], f"flow_balance_queue[{q}]"))

    for q in range(n_q):
        for r in range(n_r):
            coef = lam[q] * mu[r]
            rr = row()
            rr[idx_f[q, r]] = 1.0
            rr[idx_theta[q]] = -coef
            rr[idx_gamma[r]] = -coef
            rr[idx_nu[q, r]] = -coef
            rr[idx_m[q, r]] = z_big
            a_ub.append((rr, z_big, f"kkt_upper[{q},{r}]"))
            rr = row()
            rr[idx_f[q, r]] = -1.0
            rr[idx_theta[q]] = coef
            rr[idx_gamma[r]] = coef
            rr[idx_nu[q, r]] = coef
            rr[idx_m[q, r]] = z_big
            a_ub.append((rr, z_big, f"kkt_lower[{q},{r}]"))
            rr = row()
            rr[idx_f[q, r]] = 1.0
            rr[idx_m[q, r]] = -cap[q, r]
            a_ub.append((rr, 0.0, f"flow_off_topology[{q},{r}]"))
            rr = row()
            rr[idx_f[q, r]] = 1.0
            rr[idx_z[q, r]] = -cap[q, r]
            a_ub.append((rr, 0.0, f"flow_complementarity[{q},{r}]"))
            nu_cap = (n_q + n_r + 1) * w_big
            rr = row()
            rr[idx_nu[q, r]] = 1.0
            rr[idx_z[q, r]] = nu_cap
            a_ub.append((rr, nu_cap, f"multiplier_complementarity[{q},{r}]"))

    if idx_g is not None:
        for k in range(n_q):
            for r in range(n_r):
                rr = row()
                rr[idx_g[k, :, r]] = 1.0
                a_eq.append((rr, mu[r], f"pooling_resource[{k},{r}]"))
            for q in range(n_q):
                rr = row()
                rr[idx_g[k, q, :]] = 1.0
                rhs = lam[k] + delta if q == k else lam[q] - delta / (n_q - 1)
                a_eq.append((rr, rhs, f"pooling_queue[{k},{q}]"))
                for r in range(n_r):
                    rr = row()
                    rr[idx_g[k, q, r]] = 1.0
                    rr[idx_m[q, r]] = -float(g_cap[q, 0] if tighten_bounds else z_big)
                    a_ub.append((rr, 0.0, f"pooling_support[{k},{q},{r}]"))

    _add_fairness_rows(a_ub, fairness, instance, tau, idx_f, lam, n_vars)

    model = MIOModel(instance, tau, fairness, consts, objective, a_eq, a_ub,
                     integrality, lower, upper, names, n_vars, idx_f, idx_nu,
                     idx_gamma, idx_theta, idx_m, idx_z, idx_g)
    for entry in extra_linear or []:
        _append_extra(model, entry)
    return model


def _add_block(names, base, shape):
    start = len(names)
    for key in itertools.product(*(range(s) for s in shape)):
        names.append(f"{base}[{','.join(map(str, key))}]")
    return np.arange(start, len(names)).reshape(shape)


def _group_queue_indices(fairness, instance):
    queue_pos = {q: i for i, q in enumerate(instance.queues)}
    out = {}
    for g, queues in fairness.group_to_queues.items():
        unknown = [q for q in queues if q not in queue_pos]
        if unknown:
            raise ValueError(f"fairness group {g} references unknown queues {unknown}")
        out[g] = [queue_pos[q] for q in queues]
    return out


def _add_fairness_rows(a_ub, fairness, instance, tau, idx_f, lam, n_vars):
    if fairness.kind == "none":
        return
    groups = _group_queue_indices(fairness, instance)
    bound = fairness.bound
    n_r = instance.n_resources
    if fairness.kind == "maximin_allocation":
        for g, qs in groups.items():
            for r in range(n_r):
                rr = np.zeros(n_vars)
                rr[idx_f[qs, r]] = -1.0
                a_ub.append((rr, -bound, f"fair_maximin_alloc[{g},{r}]"))
    elif fairness.kind == "parity_allocation":
        for (g1, q1), (g2, q2) in itertools.combinations(groups.items(), 2):
            for r in range(n_r):
                rr = np.zeros(n_vars)
                rr[idx_f[q1, r]] += 1.0
                rr[idx_f[q2, r]] -= 1.0
                a_ub.append((rr, bound, f"fair_parity_alloc[{g1},{g2},{r}]"))
                a_ub.append((-rr, bound, f"fair_parity_alloc[{g2},{g1},{r}]"))
    elif fairness.kind == "maximin_outcome":
        for g, qs in groups.items():
            lam_g = lam[qs].sum()
            rr = np.zeros(n_vars)
            for q in qs:
                rr[idx_f[q, :]] = -tau.tau[q, :] / lam_g
            a_ub.append((rr, -bound, f"fair_maximin_outcome[{g}]"))
    elif fairness.kind == "parity_outcome":
        for (g1, q1), (g2, q2) in itertools.combinations(groups.items(), 2):
            rr = np.zeros(n_vars)
            for q in q1:
                rr[idx_f[q, :]] += tau.tau[q, :] / lam[q1].sum()
            for q in q2:
                rr[idx_f[q, :]] -= tau.tau[q, :] / lam[q2].sum()
            a_ub.append((rr, bound, f"fair_parity_outcome[{g1},{g2}]"))
            a_ub.append((-rr, bound, f"fair_parity_outcome[{g2},{g1}]"))


def _append_extra(model: MIOModel, entry):
    """Append one user constraint: ({var_name: coef}, sense, rhs) with
    sense one of '<=', '>=', '=='."""
    coeffs, sense, rhs = entry
    pos = {n: i for i, n in enumerate(model.var_names)}
    rr = np.zeros(model.n_vars)
    for name, coef in coeffs.items():
        rr[pos[name]] = coef
    if sense == "<=":
        model.a_ub.append((rr, rhs, "extra"))
    elif sense == ">=":
        model.a_ub.append((-rr, -rhs, "extra"))
    elif sense == "==":
        model.a_eq.append((rr, rhs, "extra"))
    else:
        raise ValueError(f"unknown sense: {sense}")


def add_non_affirmative_links(model: MIOModel, cells) -> MIOModel:
    """Force identical eligibility rows for all queues within each score cell."""
    queue_pos = {q: i for i, q in enumerate(model.instance.queues)}
    for cell in cells:
        qs = [queue_pos[q] for q in cell]
        if len(set(qs)) != len(qs):
            raise ValueError("cells must contain distinct queues")
        for q1, q2 in zip(qs[:-1], qs[1:]):
            for r in range(model.instance.n_resources):
                rr = np.zeros(model.n_vars)
                rr[model.idx_m[q1, r]] = 1.0
                rr[model.idx_m[q2, r]] = -1.0
                model.a_eq.append((rr, 0.0, f"link[{q1},{q2},{r}]"))
    return model


def solve(model: MIOModel, time_limit_s: float | None = None,
          node_limit: int | None = None) -> OptimizationResult:
    """Branch-and-bound solve of the assembled model (HiGHS backend)."""
    c = -model.objective
    constraints = []
    if model.a_eq:
        a = sparse.csr_matrix(np.array([r for r, _, _ in model.a_eq]))
        b = np.array([rhs for _, rhs, _ in model.a_eq])
        constraints.append(sopt.LinearConstraint(a, b, b))
    if model.a_ub:
        a = sparse.csr_matrix(np.array([r for r, _, _ in model.a_ub]))
        b = np.array([rhs for _, rhs, _ in model.a_ub])
        constraints.append(sopt.LinearConstraint(a, -np.inf, b))
    options = {"mip_rel_gap": 0.0}
    if time_limit_s is not None:
        options["time_limit"] = time_limit_s
    if node_limit is not None:
        options["node_limit"] = node_limit
    res = sopt.milp(c, constraints=constraints,
                    integrality=model.integrality,
                    bounds=sopt.Bounds(model.lower, model.upper),
                    options=options)
    if res.status == 2:
        raise InfeasibleModelError("matching optimization is infeasible")
    if res.x is None:
        raise SolverLimitError(f"no incumbent found: {res.message}")
    x = res.x
    m = np.rint(x[model.idx_m]).astype(int)
    f = np.clip(x[model.idx_f], 0.0, None)
    f[m == 0] = 0.0
    objective = float(np.sum(model.tau.tau * f))
    value = objective / float(model.instance.lam_total) + model.tau.baseline_mean
    stats = {
        "status": int(res.status),
        "message": res.message,
        "nodes": int(getattr(res, "mip_node_count", 0) or 0),
        "gap": float(getattr(res, "mip_gap", 0.0) or 0.0),
    }
    return OptimizationResult(MatchingTopology(m), FlowMatrix(f), objective,
                              value, stats)


def enumerate_oracle(instance: MCMSInstance, tau: CATEMatrix,
                     fairness: FairnessSpec | None = None) -> OptimizationResult:
    """Exhaustive search over topologies: admissible, single pooled component,
    fairness-feasible, maximum flow-weighted effect."""
    fairness = fairness or FairnessSpec.none()
    n_q, n_r = instance.n_queues, instance.n_resources
    if n_q * n_r > MAX_ORACLE_CELLS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_CELLS} topology cells")
    eps = 1e-9 * float(instance.mu_total)
    groups = _group_queue_indices(fairness, instance)
    lam = instance.lam_f
    best = None
    for bits in itertools.product((0, 1), repeat=n_q * n_r):
        m = np.array(bits, dtype=int).reshape(n_q, n_r)
        topology = MatchingTopology(m)
        if not check_admissible(instance, topology):
            continue
        try:
            flows = steady_state_flows(instance, topology)
        except FlowSolveError:
            continue
        edges = [(q, r) for q in range(n_q) for r in range(n_r)
                 if flows.f[q, r] > eps]
        _, _, n_comp = _support_components(n_q, n_r, edges)
        if n_comp != 1:
            continue
        if not _fairness_ok(flows.f, fairness, groups, tau, lam):
            continue
        objective = float(np.sum(tau.tau * flows.f))
        key = (objective, tuple(-b for b in bits))
        if best is None or (objective > best[0][0] + 1e-12) or \
                (abs(objective - best[0][0]) <= 1e-12 and bits < best[1]):
            best = ((objective, key), bits, topology, flows)
    if best is None:
        raise InfeasibleModelError("no admissible single-component topology "
                                   "satisfies the constraints")
    (objective, _), _, topology, flows = best
    value = objective / float(instance.lam_total) + tau.baseline_mean
    return OptimizationResult(topology, flows, objective, value,
                              {"status": 0, "message": "exhaustive", "nodes": 0,
                               "gap": 0.0})


def _fairness_ok(f, fairness, groups, tau, lam, tol=1e-7):
    if fairness.kind == "none":
        return True
    bound = fairness.bound
    if fairness.kind == "maximin_allocation":
        return all(f[qs, r].sum() >= bound - tol
                   for qs in groups.values() for r in range(f.shape[1]))
    if fairness.kind == "parity_allocation":
        for q1, q2 in itertools.combinations(groups.values(), 2):
            for r in range(f.shape[1]):
                if abs(f[q1, r].sum() - f[q2, r].sum()) > bound + tol:
                    return False
        return True
    values = {g: float(np.sum(f[qs] * tau.tau[qs]) / lam[qs].sum())
              for g, qs in groups.items()}
    if fairness.kind == "maximin_outcome":
        return all(v >= bound - tol for v in values.values())
    for v1, v2 in itertools.combinations(values.values(), 2):
        if abs(v1 - v2) > bound + tol:
            return False
    return True


def write_lp_text(model: MIOModel, path):
    """Plain-text LP dump: objective, constraints, bounds, binaries."""
    def term(coef, name):
        sign = "+" if coef >= 0 else "-"
        return f"{sign} {abs(coef):.12g} {name}"

    with open(path, "w") as fh:
        fh.write("Maximize\n obj: ")
        fh.write(" ".join(term(c, n) for c, n in
                          zip(model.objective, model.var_names) if c != 0.0))
        fh.write("\nSubject To\n")
        for rr, rhs, label in model.a_eq:
            body = " ".join(term(c, n) for c, n in zip(rr, model.var_names) if c != 0.0)
            fh.write(f" {label}: {body} = {rhs:.12g}\n")
        for rr, rhs, label in model.a_ub:
            body = " ".join(term(c, n) for c, n in zip(rr, model.var_names) if c != 0.0)
            fh.write(f" {label}: {body} <= {rhs:.12g}\n")
        fh.write("Bounds\n")
        for lo, hi, name in zip(model.lower, model.upper, model.var_names):
            lo_s = "-inf" if np.isneginf(lo) else f"{lo:.12g}"
            hi_s = "+inf" if np.isposinf(hi) else f"{hi:.12g}"
            fh.write(f" {lo_s} <= {name} <= {hi_s}\n")
        fh.write("Binaries\n ")
        fh.write(" ".join(model.var_names[i]
                          for i in np.flatnonzero(model.integrality)))
        fh.write("\nEnd\n")
