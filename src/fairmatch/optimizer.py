"""Mixed-integer optimization of the matching topology.

The model maximizes flow-weighted treatment effects subject to flow balance,
big-M linearized KKT conditions of the steady-state flow QP, and optional
fairness constraints. Resource rates are rebalanced to the total individual
arrival rate, matching the flow solver.

The big-Ms are per cell: with ``B = sum_r 1/mu_r`` over the balanced rates,
cell (q, r)'s KKT rows use ``lam_q mu_r B`` and its multiplier ``nu`` is capped
at ``B``; ``compute_bigM`` proves that they keep every pooled KKT point.

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

Queues linked by ``add_non_affirmative_links`` share one set of variables in
the solve: theta, and the rows of nu, m and z, with their flows split in
proportion to lam. The merge is exact: the KKT point of the instance in which
a linked group is one queue, expanded by lam, is the KKT point of the linked
topology, so no linked single-component optimum is lost (the proof is in
``add_non_affirmative_links``). A row of ``extra_linear`` that names nu, z or
theta of a linked queue constrains the shared variable.

HiGHS runs through the pybind11 binding that scipy ships,
``scipy.optimize._highspy._core``, loaded by the first ``solve`` from its file
and not with this module: no other part of scipy is imported, and the verbs
and functions that solve no MIO load nothing of it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import CATEMatrix, FlowMatrix, MCMSInstance, MatchingTopology, policy_value
from .queuing import FlowSolveError, crp_components, steady_state_flows

MAX_ORACLE_CELLS = 16
MAX_CUT_ROUNDS = 100             # solves per call before PoolingCutLimitError
MIP_FEASIBILITY_TOL = 1e-9       # HiGHS integrality tolerance on the binaries
FLOW_REL_TOL = 1e-9              # MIO vs QP flows, relative to the total arrival rate

FAIRNESS_KINDS = ("none", "maximin_allocation", "parity_allocation",
                  "maximin_outcome", "parity_outcome")


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
    b: Fraction        # bound on |theta_q + gamma_r| at a KKT point; the nu cap
    z: tuple           # z[q][r] = lam_q mu_r b, the big-M of cell (q, r)'s KKT rows


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
    """Per-cell big-M constants from the exact rational rates, with the
    resource rates balanced as in ``build_mio``: ``b = sum_r 1/mu_r`` and
    ``z[q][r] = lam_q mu_r b``.

    They keep every KKT point of a topology whose QP flows pool into one
    component. On a positive-flow edge, ``theta_q + gamma_r = f_qr/(lam_q
    mu_r)`` lies in [0, 1/max(lam_q, mu_r)], since ``f_qr <= min(lam_q,
    mu_r)``. For any cell (q, r), ``theta_q + gamma_r`` is the alternating
    sum of these values along a simple path of positive-flow edges from q to
    r; its positive terms sit on distinct resources r', and so do its
    negative terms, each at most 1/mu_r', so ``|theta_q + gamma_r| <= b``.
    Off the topology, nu = 0 then meets both KKT rows; on a zero-flow
    topology edge, ``nu = -(theta_q + gamma_r) <= b``. A shift of theta by c
    and gamma by -c cancels in ``theta_q + gamma_r``, so no normalisation row
    is needed. A topology whose flows split into several components may lose
    its KKT points, which ``solve``'s pooling cuts reject anyway.
    """
    lam, mu = instance.lam, instance.balanced_mu()
    b = sum((1 / x for x in mu), Fraction(0))
    return BigMConstants(b, tuple(tuple(lq * mr * b for mr in mu) for lq in lam))


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
    links: list = field(default_factory=list)   # queue-index cells sharing one row


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
    consts = compute_bigM(instance)
    z_big = np.array(consts.z, dtype=float)
    nu_cap = float(consts.b)
    lam = instance.lam_f
    mu = instance.balanced_mu_f()

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
            rr[idx_m[q, r]] = z_big[q, r]
            a_ub.append((rr, z_big[q, r], f"kkt_upper[{q},{r}]"))
            rr = row()
            rr[idx_f[q, r]] = -1.0
            rr[idx_theta[q]] = coef
            rr[idx_gamma[r]] = coef
            rr[idx_nu[q, r]] = coef
            rr[idx_m[q, r]] = z_big[q, r]
            a_ub.append((rr, z_big[q, r], f"kkt_lower[{q},{r}]"))
            rr = row()
            rr[idx_f[q, r]] = 1.0
            rr[idx_m[q, r]] = -cap[q, r]
            a_ub.append((rr, 0.0, f"flow_off_topology[{q},{r}]"))
            rr = row()
            rr[idx_f[q, r]] = 1.0
            rr[idx_z[q, r]] = -cap[q, r]
            a_ub.append((rr, 0.0, f"flow_complementarity[{q},{r}]"))
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
    """Give all queues within each score cell one eligibility row.

    The cells are recorded in ``model.links``; ``solve`` then merges the
    queues they join, transitively, into one set of variables: a merged group
    G shares theta, nu[q, :], m[q, :] and z[q, :], and its flows split by
    arrival rate, ``f[q, r] = (lam_q / lam_G) fbar[G, r]`` with ``lam_G`` the
    group's total rate. A row of ``extra_linear`` that names nu, z or theta
    of a linked queue therefore constrains the variable the group shares.

    The merge keeps every optimum. Take the KKT point (fbar, thetabar,
    gamma, nubar) of the instance in which G is one queue of rate lam_G, and
    set ``f_qr = (lam_q/lam_G) fbar_r``, ``theta_q = thetabar``, ``nu_qr =
    nubar_r`` for q in G. Then ``f_qr / (lam_q mu_r) = fbar_r / (lam_G
    mu_r)``, so stationarity holds; queue q's flows sum to lam_q and G's
    flows to each resource sum to fbar_r, so both balances hold; and
    ``nu_qr f_qr`` is a multiple of ``nubar_r fbar_r = 0``. The QP is strictly
    convex in f, so these are the QP flows of the linked topology. On one
    pooled component theta + gamma and nu are unique up to the shift that
    cancels in theta_q + gamma_r, so the KKT point of every linked
    single-component topology has theta and nu equal across G and lies in the
    merged variables, where it meets ``compute_bigM``'s per-cell big-Ms with
    the same b (z may be chosen equal across G, since the flows of a merged
    cell are all zero or all positive), with its objective unchanged.
    Conversely every merged solution is a solution of the full model, since
    its rows are the full model's rows evaluated at ``x = P y``.
    """
    queue_pos = {q: i for i, q in enumerate(model.instance.queues)}
    for cell in cells:
        unknown = [q for q in cell if q not in queue_pos]
        if unknown:
            raise ValueError(f"link cell {list(cell)} references unknown queues {unknown}")
        qs = [queue_pos[q] for q in cell]
        if len(set(qs)) != len(qs):
            raise ValueError("cells must contain distinct queues")
        model.links.append(qs)
    return model


def _aggregation(model: MIOModel):
    """The map ``x = weight * y[col]`` from the merged variables y to the
    model's: each model column's merged column ``col`` and its ``weight``,
    and the model columns kept in y.

    Queues joined by ``model.links`` merge by union-find, since cells may
    overlap, each group onto the columns of its lowest-indexed queue; without
    links the map is the identity.
    """
    n_q = model.instance.n_queues
    root = list(range(n_q))

    def find(q):
        while root[q] != q:
            root[q] = root[root[q]]
            q = root[q]
        return q

    for cell in model.links:
        for q in cell[1:]:
            a, b = sorted((find(cell[0]), find(q)))
            root[b] = a
    rep = np.array([find(q) for q in range(n_q)], dtype=int)
    lam = model.instance.lam_f
    source = np.arange(model.n_vars)           # the model column each one maps onto
    for idx in (model.idx_f, model.idx_nu, model.idx_theta, model.idx_m, model.idx_z):
        source[idx] = idx[rep]
    weight = np.ones(model.n_vars)
    weight[model.idx_f] = (lam / np.bincount(rep, weights=lam, minlength=n_q)[rep])[:, None]
    kept, col = np.unique(source, return_inverse=True)
    return col, weight, kept


def solve(model: MIOModel, time_limit_s: float | None = None,
          node_limit: int | None = None) -> OptimizationResult:
    """Branch-and-bound solve (HiGHS backend), checked against the QP flows
    and repeated with pooling cuts until the topology pools into one component.

    HiGHS solves the model in the merged variables of ``_aggregation``: each
    merged column of a row, cut or the objective sums its model columns'
    coefficients times their weights, in column order, and the solution is
    expanded with ``x = weight * y[col]`` before the checks.
    ``time_limit_s`` bounds all rounds together, ``node_limit`` each round.
    Flows and objective are those of the QP flows of the returned topology.
    """
    col, weight, kept = _aggregation(model)

    def block(rows, equal):
        # (A, lower, upper) of rows (row, rhs, ...) over the merged columns
        dense = np.array([row for row, *_ in rows])
        i, j = _nonzero(dense)
        a = np.zeros((len(rows), len(kept)))
        np.add.at(a, (i, col[j]), dense[i, j] * weight[j])
        rhs = np.array([rhs for _, rhs, *_ in rows])
        return a, rhs if equal else np.full(len(rows), -np.inf), rhs

    constraints = [block(model.a_eq, True), block(model.a_ub, False)]
    problem = (-np.bincount(col, weights=weight * model.objective), model.integrality[kept],
               (model.lower[kept], model.upper[kept]))
    deadline = None if time_limit_s is None else time.perf_counter() + time_limit_s
    cuts = []                        # (row, rhs): row @ x <= rhs
    nodes = 0
    for rounds in range(1, MAX_CUT_ROUNDS + 1):
        res = _round(problem, constraints + [block(cuts, False)] if cuts else constraints,
                     deadline, node_limit, rounds)
        nodes += res.mip_node_count
        topology, flows, deviation = _qp_flows(model, weight * res.x[col])
        components = crp_components(model.instance, topology, flows)
        if components.count == 1:
            break
        cuts.extend(_pooling_cuts(model, topology.m, components))
    else:
        raise PoolingCutLimitError(f"no single-component topology after "
                                   f"{MAX_CUT_ROUNDS} cut rounds")
    objective = float(np.sum(model.tau.tau * flows.f))
    value = policy_value(flows, model.tau, model.instance)
    stats = {
        "status": res.status,
        "message": res.message,
        "nodes": nodes,
        "gap": float(res.mip_gap),
        "dual_bound": -float(res.mip_dual_bound),
        "rounds": rounds,
        "flow_deviation": deviation,
    }
    return OptimizationResult(topology, flows, objective, value, stats)


def _nonzero(a):
    """``np.nonzero`` of a 2-D array, in the same row-major order, through
    flat indices: several times faster on the model's rows."""
    return np.divmod(np.flatnonzero(a != 0), a.shape[1])


def _round(problem, constraints, deadline, node_limit, rounds):
    """One HiGHS solve of (c, integrality, bounds), minimized; raises when it
    yields no incumbent."""
    c, integrality, bounds = problem
    options = {"log_to_console": False, "mip_rel_gap": 0.0,
               "mip_feasibility_tolerance": MIP_FEASIBILITY_TOL}
    if deadline is not None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise SolverLimitError(f"time limit reached after {rounds - 1} cut rounds")
        options["time_limit"] = remaining
    if node_limit is not None:
        options["mip_max_nodes"] = node_limit
    # HiGHS prints some diagnostics to fd 1 whatever its output options say,
    # and option errors before its console log is off; they go to stderr so
    # the caller's stdout stays its own
    sys.stdout.flush()
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        res = _highs(c, constraints, integrality, bounds, options)
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


_HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """HiGHS's pybind11 binding as scipy ships it, loaded from its file so
    that ``scipy.optimize``'s package ``__init__``, some 300 modules, never
    runs. It is registered under its own name, which a later ``import
    scipy.optimize`` reuses: pybind11 registers its types once per process."""
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    for base in scipy.submodule_search_locations if scipy else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "optimize", "_highspy", "_core" + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
                core = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(core)
                sys.modules[_HIGHS_CORE] = core
                return core
    raise ImportError(f"no HiGHS binding {_HIGHS_CORE} found; the MIO solve needs "
                      "scipy >= 1.17.1, which ships it")


@dataclass
class _HighsResult:
    """One solve as ``scipy.optimize.milp`` reports it, under its names."""
    status: int
    message: str
    x: np.ndarray | None = None
    mip_node_count: int | None = None
    mip_dual_bound: float | None = None
    mip_gap: float | None = None


# milp's status code and message head for each HiGHS model status; a status
# not listed here gets _UNLISTED_STATUS
_MILP_STATUS = {
    "kOptimal": (0, "Optimization terminated successfully. "),
    "kTimeLimit": (1, "Time limit reached. "),
    "kIterationLimit": (1, "Iteration limit reached. "),
    "kModelError": (2, ""),
    "kInfeasible": (2, "The problem is infeasible. "),
    "kUnbounded": (3, "The problem is unbounded. "),
    "kUnboundedOrInfeasible": (4, "The problem is unbounded or infeasible. "),
    **dict.fromkeys(("kNotset", "kLoadError", "kPresolveError", "kSolveError",
                     "kPostsolveError", "kModelEmpty", "kObjectiveBound",
                     "kObjectiveTarget"), (4, "")),
}
_UNLISTED_STATUS = (4, "The HiGHS status code was not recognized. ")


def _highs(c, constraints, integrality, bounds, options):
    """HiGHS on min ``c @ x`` subject to ``lower <= A @ x <= upper`` for each
    dense block (A, lower, upper) of ``constraints``, ``bounds[0] <= x <=
    bounds[1]`` and the integer columns of ``integrality``, under HiGHS's own
    ``options``. The result is what ``scipy.optimize.milp`` gives for the same
    problem, x included for the same statuses: an optimum, or a limit reached
    with an incumbent. An option HiGHS rejects raises ValueError."""
    h = _highs_core()
    a = np.vstack([block[0] for block in constraints])
    rows, cols = _nonzero(a)
    order = np.argsort(cols, kind="stable")     # CSC: by column, rows ascending
    rows, cols = rows[order], cols[order]
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = a.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = a.shape[0]
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(a.shape[1] + 1))
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a[rows, cols]
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = bounds
    lp.row_lower_ = np.concatenate([block[1] for block in constraints])
    lp.row_upper_ = np.concatenate([block[2] for block in constraints])
    lp.integrality_ = [h.HighsVarType(int(kind)) for kind in integrality]
    highs = h._Highs()
    for key, value in options.items():
        if highs.setOptionValue(key, value) != h.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects the option {key} = {value!r}")
    res = {}
    if highs.passModel(lp) == h.HighsStatus.kError:
        status = h.HighsModelStatus.kModelError
        text = highs.modelStatusToString(status)
    elif highs.run() == h.HighsStatus.kError:
        status = highs.getModelStatus()
        text = highs.modelStatusToString(status)
    else:
        status, info = highs.getModelStatus(), highs.getInfo()
        limits = (h.HighsModelStatus.kTimeLimit, h.HighsModelStatus.kIterationLimit,
                  h.HighsModelStatus.kSolutionLimit)
        if status == h.HighsModelStatus.kOptimal or (
                status in limits and info.objective_function_value != h.kHighsInf):
            text = highs.modelStatusToString(status)
            res = {"x": np.array(highs.getSolution().col_value),
                   "mip_node_count": info.mip_node_count,
                   "mip_dual_bound": info.mip_dual_bound, "mip_gap": info.mip_gap}
        else:
            text = (f"model_status is {highs.modelStatusToString(status)}; primal_status "
                    f"is {highs.solutionStatusToString(info.primal_solution_status)}")
    code, head = _MILP_STATUS.get(status.name, _UNLISTED_STATUS)
    return _HighsResult(code, f"{head}(HiGHS Status {int(status)}: {text})", **res)


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
                     fairness: FairnessSpec | None = None,
                     cells=()) -> OptimizationResult:
    """Exhaustive search over topologies: admissible, single pooled component,
    fairness-feasible, the queues of each of ``cells`` on one eligibility row
    (as ``add_non_affirmative_links`` forces), maximum flow-weighted effect."""
    fairness = fairness or FairnessSpec.none()
    n_q, n_r = instance.n_queues, instance.n_resources
    if n_q * n_r > MAX_ORACLE_CELLS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_CELLS} topology cells")
    groups = _group_queue_indices(fairness, instance)
    links = [[instance.queues.index(q) for q in cell] for cell in cells]
    lam = instance.lam_f
    best = None
    for bits in itertools.product((0, 1), repeat=n_q * n_r):
        m = np.array(bits, dtype=int).reshape(n_q, n_r)
        if any((m[qs] != m[qs[0]]).any() for qs in links):
            continue
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
        if best is None or (objective > best[0] + 1e-12) or \
                (abs(objective - best[0]) <= 1e-12 and bits < best[1]):
            best = (objective, bits, topology, flows)
    if best is None:
        raise InfeasibleModelError("no admissible single-component topology "
                                   "satisfies the constraints")
    objective, _, topology, flows = best
    return OptimizationResult(topology, flows, objective,
                              policy_value(flows, tau, instance),
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
