"""Mixed-integer optimization of the matching topology.

The model maximizes flow-weighted treatment effects subject to flow balance,
big-M linearized KKT conditions of the steady-state flow QP, and optional
fairness constraints. Resource rates are rebalanced to the total individual
arrival rate, matching the flow solver.

``solve`` verifies every HiGHS solution after the fact. HiGHS runs with a
``mip_feasibility_tolerance`` of 1e-9, because a binary that is 1e-6 off
integral opens a big-M KKT row by 1e-6 times the big-M, and the flows then
stop being the QP flows of the topology. The QP flows of the returned
topology are recomputed; when the MIO's flows differ from them by more than
1e-9 times the total arrival rate, ``InexactFlowError`` is raised. A topology
whose QP flows split into more than one resource-pooling component is cut
off, with one cut per component (some topology edge must join it to the rest)
and one canonical no-good cut on the binaries, and the model is solved again,
for at most ``MAX_CUT_ROUNDS`` rounds.

scipy, whose ``milp`` runs HiGHS, is imported by the first ``solve``, not
with this module, so the verbs and functions that solve no MIO never load it.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CATEMatrix, FlowMatrix, MCMSInstance, MatchingTopology
from .queuing import FlowSolveError, crp_components, steady_state_flows

MAX_ORACLE_CELLS = 16
MAX_CUT_ROUNDS = 100             # solves per call before PoolingCutLimitError
MIP_FEASIBILITY_TOL = 1e-9       # HiGHS integrality tolerance on the binaries
FLOW_REL_TOL = 1e-9              # MIO vs QP flows, relative to the total arrival rate

FAIRNESS_KINDS = ("none", "maximin_allocation", "parity_allocation",
                  "maximin_outcome", "parity_outcome")


def __getattr__(name):
    # scipy.optimize as ``optimizer.sopt``, loaded on first use
    if name == "sopt":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InfeasibleModelError(RuntimeError):
    pass


class SolverLimitError(RuntimeError):
    pass


class InexactFlowError(RuntimeError):
    """The MIO's flows are not the QP flows of the topology it returned."""


class PoolingCutLimitError(RuntimeError):
    """No single-component topology was found within MAX_CUT_ROUNDS solves."""


@dataclass(frozen=True)
class BigMConstants:
    w: Fraction
    z: Fraction


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
    """Big-M constants from the exact rational rates."""
    lam, mu = instance.lam, instance.mu
    inv = [Fraction(1) / x for x in lam] + [Fraction(1) / x for x in mu]
    w = Fraction(1, 2) * max(inv)
    size = len(lam) + len(mu) + 1
    z = max(lam) * max(mu) * (sum(inv, Fraction(0)) + size * size * w)
    return BigMConstants(w, z)


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


@dataclass(frozen=True)
class OptimizationResult:
    topology: MatchingTopology
    flows: FlowMatrix
    objective: float
    policy_value: float
    solver_stats: dict


def build_mio(instance: MCMSInstance, tau: CATEMatrix,
              fairness: FairnessSpec | None = None,
              extra_linear=None) -> MIOModel:
    """Assemble the full constraint system over (f, nu, gamma, theta, m, z)."""
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
    lam = np.array([float(x) for x in lam_frac])
    mu = np.array([float(x) for x in mu_frac])

    names = []
    idx_f = _add_block(names, "f", (n_q, n_r))
    idx_nu = _add_block(names, "nu", (n_q, n_r))
    idx_gamma = _add_block(names, "gamma", (n_r,))
    idx_theta = _add_block(names, "theta", (n_q,))
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

    cap = np.minimum(lam[:, None], mu[None, :])

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

    _add_fairness_rows(a_ub, fairness, instance, tau, idx_f, lam, n_vars)

    model = MIOModel(instance, tau, fairness, consts, objective, a_eq, a_ub,
                     integrality, lower, upper, names, n_vars, idx_f, idx_nu,
                     idx_gamma, idx_theta, idx_m, idx_z)
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
    """Branch-and-bound solve (HiGHS backend), checked against the QP flows
    and repeated with pooling cuts until the topology pools into one component.

    ``time_limit_s`` bounds all rounds together, ``node_limit`` each round.
    Flows and objective are those of the QP flows of the returned topology.
    """
    from scipy import optimize as sopt

    constraints = []
    if model.a_eq:
        b = np.array([rhs for _, rhs, _ in model.a_eq])
        constraints.append(sopt.LinearConstraint(_stack(model.a_eq), b, b))
    if model.a_ub:
        constraints.append(sopt.LinearConstraint(
            _stack(model.a_ub), -np.inf, [rhs for _, rhs, _ in model.a_ub]))
    deadline = None if time_limit_s is None else time.perf_counter() + time_limit_s
    cuts = []                        # (row, rhs): row @ x <= rhs
    nodes = 0
    for rounds in range(1, MAX_CUT_ROUNDS + 1):
        round_constraints = list(constraints)
        if cuts:
            round_constraints.append(sopt.LinearConstraint(
                np.array([row for row, _ in cuts]), -np.inf, [rhs for _, rhs in cuts]))
        res = _milp(model, round_constraints, deadline, node_limit, rounds)
        nodes += int(getattr(res, "mip_node_count", 0) or 0)
        topology, flows, deviation = _qp_flows(model, res.x)
        components = crp_components(model.instance, topology, flows)
        if components.count == 1:
            break
        cuts.extend(_pooling_cuts(model, topology.m, components))
    else:
        raise PoolingCutLimitError(f"no single-component topology after "
                                   f"{MAX_CUT_ROUNDS} cut rounds")
    objective = float(np.sum(model.tau.tau * flows.f))
    value = objective / float(model.instance.lam_total) + model.tau.baseline_mean
    dual_bound = getattr(res, "mip_dual_bound", None)
    stats = {
        "status": int(res.status),
        "message": res.message,
        "nodes": nodes,
        "gap": float(getattr(res, "mip_gap", 0.0) or 0.0),
        "dual_bound": None if dual_bound is None else -float(dual_bound),
        "rounds": rounds,
        "flow_deviation": deviation,
    }
    return OptimizationResult(topology, flows, objective, value, stats)


def _stack(rows):
    from scipy import sparse

    return sparse.csr_matrix(np.array([r for r, _, _ in rows]))


def _milp(model, constraints, deadline, node_limit, rounds):
    """One HiGHS solve; raises when it yields no incumbent."""
    from scipy import optimize as sopt

    options = {"mip_rel_gap": 0.0, "mip_feasibility_tolerance": MIP_FEASIBILITY_TOL}
    if deadline is not None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise SolverLimitError(f"time limit reached after {rounds - 1} cut rounds")
        options["time_limit"] = remaining
    if node_limit is not None:
        options["node_limit"] = node_limit
    # HiGHS prints some diagnostics to fd 1 whatever its output options say;
    # they go to stderr so the caller's stdout stays its own
    sys.stdout.flush()
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        with warnings.catch_warnings():
            # scipy passes HiGHS's own option names through, with this warning
            warnings.filterwarnings("ignore", "Unrecognized options detected",
                                    RuntimeWarning)
            res = sopt.milp(-model.objective, constraints=constraints,
                            integrality=model.integrality,
                            bounds=sopt.Bounds(model.lower, model.upper),
                            options=options)
    finally:
        os.dup2(stdout, 1)
        os.close(stdout)
    if res.status == 2:
        raise InfeasibleModelError("matching optimization is infeasible" if rounds == 1
                                   else "no single-component topology satisfies "
                                        f"the constraints ({rounds - 1} cut rounds)")
    if res.x is None:
        raise SolverLimitError(f"no incumbent found: {res.message}")
    return res


def _qp_flows(model, x):
    """Topology of a solution, its QP flows, and their largest distance from
    the solution's flows; raises InexactFlowError beyond FLOW_REL_TOL."""
    topology = MatchingTopology(np.rint(x[model.idx_m]).astype(int))
    try:
        flows = steady_state_flows(model.instance, topology)
    except FlowSolveError as exc:
        raise InexactFlowError(f"the returned topology has no QP flows: {exc}") from exc
    deviation = float(np.max(np.abs(x[model.idx_f] - flows.f)))
    if deviation > FLOW_REL_TOL * float(model.instance.lam_total):
        raise InexactFlowError(f"MIO flows differ from the QP flows of their "
                               f"topology by {deviation:.2e}")
    return topology, flows, deviation


def _pooling_cuts(model, m, components):
    """Rows every single-component topology satisfies and m does not: per
    component, some topology edge joins it to the rest; and the canonical
    no-good cut on m itself (Balas & Jeroslow 1972), which component cuts
    alone do not guarantee."""
    n_q, n_r = m.shape
    cuts = []
    for qs, rs in components.components:
        in_q = np.isin(np.arange(n_q), qs)
        in_r = np.isin(np.arange(n_r), rs)
        row = np.zeros(model.n_vars)
        row[model.idx_m[in_q[:, None] != in_r[None, :]]] = -1.0
        cuts.append((row, -1.0))
    row = np.zeros(model.n_vars)
    row[model.idx_m] = np.where(m == 1, 1.0, -1.0)
    cuts.append((row, float(m.sum() - 1)))
    return cuts


def enumerate_oracle(instance: MCMSInstance, tau: CATEMatrix,
                     fairness: FairnessSpec | None = None) -> OptimizationResult:
    """Exhaustive search over topologies: admissible, single pooled component,
    fairness-feasible, maximum flow-weighted effect."""
    fairness = fairness or FairnessSpec.none()
    n_q, n_r = instance.n_queues, instance.n_resources
    if n_q * n_r > MAX_ORACLE_CELLS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_CELLS} topology cells")
    groups = _group_queue_indices(fairness, instance)
    lam = instance.lam_f
    best = None
    for bits in itertools.product((0, 1), repeat=n_q * n_r):
        m = np.array(bits, dtype=int).reshape(n_q, n_r)
        topology = MatchingTopology(m)
        try:
            flows = steady_state_flows(instance, topology)   # checks admissibility
        except FlowSolveError:
            continue
        if crp_components(instance, topology, flows).count != 1:
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
