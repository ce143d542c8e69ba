"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with pytest -s or in captured output).
"""

import time
from fractions import Fraction

import numpy as np

from _oracles import binomial_3sigma, brute_force_flows, random_instance
from conftest import make_instance
from fairmatch import causal, core, desim, ope, optimizer, queuing, synth


def _verdict(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}", flush=True)
    assert passed, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_flow_solver_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 50:
        n_q, n_r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        lam, mu = random_instance(rng, n_q, n_r)
        inst = make_instance(lam, mu)
        m = rng.integers(0, 2, (n_q, n_r))
        topology = core.MatchingTopology(m)
        if not queuing.check_admissible(inst, topology):
            continue
        try:
            f = queuing.steady_state_flows(inst, topology)
        except queuing.FlowSolveError:
            continue
        ref = brute_force_flows(inst, topology)
        if ref is None:
            continue
        checked += 1
        worst = max(worst, float(np.max(np.abs(f.f - ref))))
    elapsed = time.perf_counter() - start
    _verdict(1, "flow solver vs enumeration",
             worst < 1e-8 and elapsed < 5.0,
             f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_simulator_matches_qp_flows():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    warmup = 0.1
    worst = 0.0
    done = 0
    while done < 5:
        n_q, n_r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        # supply is 1/0.95 of demand, so the utilization is 0.95 exactly
        lam, mu = random_instance(rng, n_q, n_r, slack=Fraction(20, 19))
        inst = make_instance(lam, mu, rho=0.95)
        topology = core.MatchingTopology.fully_connected(n_q, n_r)
        if not queuing.check_admissible(inst, topology):
            continue
        expected = queuing.steady_state_flows(inst, topology).f
        if np.min(expected) <= 0:
            continue
        horizon = 1.02e6 / (float(inst.lam_total) * (1 - warmup))
        stats = desim.simulate(inst, topology, horizon, warmup, seed=done)
        rel = np.max(np.abs(stats.empirical_flows - expected) / expected)
        worst = max(worst, float(rel))
        done += 1
    elapsed = time.perf_counter() - start
    _verdict(2, "simulator vs QP flows",
             worst < 0.02 and elapsed < 60.0,
             f"max rel dev {worst:.4f}, {elapsed:.1f}s")


def test_criterion_03_mio_matches_exhaustive_search():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    checked = 0
    worst = 0.0
    invariants_ok = True
    while checked < 20:
        n_q = int(rng.integers(1, 5))
        lam, mu = random_instance(rng, n_q, 3)
        inst = make_instance(lam, mu)
        t = rng.normal(scale=0.3, size=(n_q, 3))
        t[:, 0] = 0.0
        tau = core.CATEMatrix(t)
        try:
            oracle = optimizer.enumerate_oracle(inst, tau)
        except (optimizer.InfeasibleModelError, ValueError):
            continue
        result = optimizer.solve(optimizer.build_mio(inst, tau))
        checked += 1
        worst = max(worst, abs(result.objective - oracle.objective))
        f = result.flows.f
        invariants_ok &= queuing.check_admissible(inst, result.topology)
        invariants_ok &= bool(
            np.max(np.abs(f.sum(axis=1) - inst.lam_f)) < 1e-5)
        invariants_ok &= bool(
            np.max(np.abs(f.sum(axis=0) - inst.balanced_mu_f())) < 1e-5)
        invariants_ok &= (
            queuing.crp_components(inst, result.topology).count == 1)
    elapsed = time.perf_counter() - start
    _verdict(3, "MIO vs exhaustive search",
             worst < 1e-6 and invariants_ok and elapsed < 120.0,
             f"max gap {worst:.2e}, invariants {invariants_ok}, {elapsed:.1f}s")


def test_criterion_04_queue_sweep_value_gain():
    start = time.perf_counter()
    rows = synth.run_queue_sweep(min_node_sizes=(6000, 150), n=10_000,
                                 seeds=range(10))
    gt = {}
    for r in rows:
        if r["estimator"] == "GT":
            gt.setdefault(r["sweep_param"], []).append(r["value"])
    single = float(np.mean(gt[6000]))
    saturated = float(np.mean(gt[150]))
    ratio = saturated / single
    single_queue_forced = all(r["n_queues"] == 1 for r in rows
                              if r["sweep_param"] == 6000)
    elapsed = time.perf_counter() - start
    _verdict(4, "queue sweep value gain",
             ratio >= 1.15 and single_queue_forced and elapsed < 600.0,
             f"ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_05_alpha_sweep_estimator_behavior():
    start = time.perf_counter()
    rows = synth.run_alpha_sweep(alphas=(0.02, 0.1, 0.2, 0.3), n=10_000,
                                 seeds=range(10))
    by_run = {}
    for r in rows:
        by_run.setdefault((r["sweep_param"], r["seed"]), {})[r["estimator"]] = r["value"]

    def mean_abs_err(alpha, est):
        errs = [abs(v[est] - v["GT"]) for (a, _), v in by_run.items() if a == alpha]
        return float(np.mean(errs))

    ipw_err = mean_abs_err(0.02, "IPW")
    dr_err = mean_abs_err(0.02, "DR")
    diverges = ipw_err > 3.0 * dr_err
    stable = all(mean_abs_err(a, est) <= 0.02
                 for a in (0.1, 0.2, 0.3) for est in ("DM", "DR", "CT"))
    elapsed = time.perf_counter() - start
    _verdict(5, "alpha sweep estimator behavior",
             diverges and stable and elapsed < 600.0,
             f"IPW err {ipw_err:.4f} vs DR err {dr_err:.4f}, {elapsed:.1f}s")


def test_criterion_06_generator_fidelity():
    start = time.perf_counter()
    ds = synth.generate(synth.SynthParams(n=50_000, seed=0))
    ok = True
    s = ds.score
    strata = [(s <= 0.0, "low"), ((s > 0.0) & (s <= 0.2), "mid"),
              (s > 0.2, "high")]
    for mask, name in strata:
        n = int(mask.sum())
        for r, p in zip(synth.RESOURCES, synth.DEFAULT_PROPENSITY[name]):
            share = float(np.mean(ds.treatment[mask] == r))
            ok &= abs(share - p) < binomial_3sigma(p, n)
    for resource in synth.RESOURCES:
        truth = synth.outcome_mean(resource, s)
        for p in sorted(set(truth.tolist())):
            mask = truth == p
            mean = float(ds.potential_outcomes[resource][mask].mean())
            if p in (0.0, 1.0):
                ok &= mean == p      # degenerate entries are deterministic
            else:
                ok &= abs(mean - p) < binomial_3sigma(p, int(mask.sum()))
    elapsed = time.perf_counter() - start
    _verdict(6, "generator fidelity", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_07_wait_time_equalization():
    start = time.perf_counter()
    inst = make_instance([Fraction(6, 5), Fraction(4, 5)],
                         [Fraction(51, 50), Fraction(51, 50)], rho=0.98)
    fc = core.MatchingTopology(np.array([[1, 1], [1, 1]]))
    chain = core.MatchingTopology(np.array([[1, 1], [0, 1]]))
    for topo in (fc, chain):
        assert queuing.crp_components(inst, topo).count == 1
    waits = {}
    for name, topo in (("fc", fc), ("chain", chain)):
        reps = [desim.simulate(inst, topo, 2000.0, 0.2, seed=s).overall_avg_wait
                for s in range(60)]
        waits[name] = float(np.mean(reps))
    gap = abs(waits["fc"] - waits["chain"]) / waits["fc"]

    split_inst = make_instance([1, 1], [Fraction(51, 50), Fraction(51, 50)],
                               rho=0.98)
    block = core.MatchingTopology(np.array([[1, 0], [0, 1]]))
    assert queuing.crp_components(split_inst, block).count == 2
    pooled = core.MatchingTopology(np.array([[1, 1], [1, 1]]))
    w_block = float(np.mean([desim.simulate(split_inst, block, 2000.0, 0.2,
                                            seed=s).overall_avg_wait
                             for s in range(10)]))
    w_pooled = float(np.mean([desim.simulate(split_inst, pooled, 2000.0, 0.2,
                                             seed=s).overall_avg_wait
                              for s in range(10)]))
    elapsed = time.perf_counter() - start
    _verdict(7, "wait-time equalization",
             gap < 0.03 and w_block > w_pooled and elapsed < 60.0,
             f"gap {gap:.4f}, split {w_block:.2f} vs pooled {w_pooled:.2f}, "
             f"{elapsed:.1f}s")


def _fairness_pipeline(seed=808):
    params = synth.SynthParams(n=10_000, seed=seed,
                               group_probs={"race": {"A": 0.5, "B": 0.5}})
    return causal.learn(synth.generate(params), seed=seed, group_dimension="race")


def _group_dr_advantages(learned, result):
    kept, instance = learned.kept, learned.instance
    policy = core.policy_from_flows(result.flows, instance)
    labels = kept.groups["race"]
    adv = {}
    for g in learned.groups:
        sub = kept.subset(labels == g)
        value = ope.evaluate_dr(sub, policy, learned.queue_ids[labels == g],
                                learned.out, learned.prop, instance).value
        base = causal.dr_potential_mean(sub, learned.out, learned.prop, kept.baseline)
        adv[g] = value - base
    return adv


def test_criterion_08_fairness_suite():
    start = time.perf_counter()
    learned = _fairness_pipeline()
    instance, tau, groups = learned.instance, learned.tau, learned.groups

    free = optimizer.solve(optimizer.build_mio(instance, tau))
    free_adv = _group_dr_advantages(learned, free)
    w_grid = np.linspace(0.0, min(free_adv.values()) + 0.03, 5)
    prev = np.inf
    monotone = True
    bounds_met = True
    feasible = 0
    for w in w_grid:
        spec = optimizer.FairnessSpec("maximin_outcome", float(w), "race",
                                      groups)
        try:
            result = optimizer.solve(optimizer.build_mio(instance, tau, spec))
        except optimizer.InfeasibleModelError:
            continue
        feasible += 1
        monotone &= result.objective <= prev + 1e-7
        prev = result.objective
        adv = _group_dr_advantages(learned, result)
        bounds_met &= all(v >= w - 0.01 for v in adv.values())

    model = optimizer.build_mio(instance, tau)
    cells = [[q for q in cell if q in instance.queues]
             for cell in learned.partition.score_cells.values()]
    cells = [c for c in cells if len(c) > 1]
    optimizer.add_non_affirmative_links(model, cells)
    linked = optimizer.solve(model)
    pos = {q: i for i, q in enumerate(instance.queues)}
    rows_identical = all(
        np.array_equal(linked.topology.m[pos[c[0]]], linked.topology.m[pos[q]])
        for c in cells for q in c[1:])
    linked_ok = rows_identical and linked.objective <= free.objective + 1e-7

    elapsed = time.perf_counter() - start
    _verdict(8, "fairness suite",
             feasible >= 3 and monotone and bounds_met and linked_ok
             and elapsed < 300.0,
             f"{feasible}/5 feasible, monotone {monotone}, bounds {bounds_met}, "
             f"links {linked_ok}, {elapsed:.1f}s")


REGION_EDGES = np.array([0.2, 0.3, 0.5, 0.7])
TRUE_TAU = np.array([
    [0.0, 0.2, 0.6],
    [0.0, 0.6, 0.6],
    [0.0, 0.6, 0.2],
    [0.0, 0.6, 0.6],
    [0.0, 0.2, 0.6],
])


class RegionPartition:
    queues = [f"q{i}" for i in range(5)]

    def assign_dataset(self, ds):
        idx = np.searchsorted(REGION_EDGES, ds.score)
        return [f"q{i}" for i in idx]


class TruthProp:
    feature_mode = "score"
    _index = {r: i for i, r in enumerate(synth.RESOURCES)}

    def predict_proba(self, X):
        return synth.true_propensity(np.atleast_2d(X)[:, 0])

    def prob_of(self, X, treatments):
        proba = self.predict_proba(X)
        idx = np.fromiter((self._index[t] for t in treatments), int,
                          len(treatments))
        return proba[np.arange(len(idx)), idx]


class SkewedProp(TruthProp):
    """Every propensity entry has its odds multiplied by 1.5, renormalized."""

    def predict_proba(self, X):
        p = super().predict_proba(X)
        p = 1.5 * p / (1.0 + 0.5 * p)
        return p / p.sum(axis=1, keepdims=True)


class TruthOut:
    resources = list(synth.RESOURCES)
    feature_mode = "score"

    def __init__(self, bias=0.0):
        self.bias = bias

    def predict(self, X, resource):
        return synth.outcome_mean(resource, np.atleast_2d(X)[:, 0]) + self.bias


def test_criterion_09_dr_estimator_properties():
    start = time.perf_counter()
    n_reps = 100
    partition = RegionPartition()
    variants = {
        "truth": (TruthProp(), TruthOut()),
        "biased_outcome": (TruthProp(), TruthOut(bias=0.1)),
        "skewed_propensity": (SkewedProp(), TruthOut()),
    }
    estimates = {name: [] for name in variants}
    for rep in range(n_reps):
        ds = synth.generate(synth.SynthParams(n=10_000, seed=9000 + rep))
        for name, (prop, out) in variants.items():
            tau, queues = causal.estimate_cate_dr(ds, partition, prop, out)
            assert queues == partition.queues
            estimates[name].append(tau.tau)
    ok = True
    detail = []
    for name, stack in estimates.items():
        arr = np.array(stack)
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / np.sqrt(n_reps)
        dev = np.abs(mean - TRUE_TAU)[:, 1:] / se[:, 1:]
        ok &= bool(np.max(dev) <= 3.0)
        detail.append(f"{name} max {np.max(dev):.2f} SE")
    elapsed = time.perf_counter() - start
    _verdict(9, "DR estimator properties", ok and elapsed < 900.0,
             ", ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_10_policy_value_identity():
    start = time.perf_counter()
    po = {"base": [0, 1, 0, 1, 0, 0], "alt": [1, 1, 0, 1, 1, 0]}
    queue_of = [0, 0, 0, 1, 1, 1]
    n = 6
    lam = (Fraction(3), Fraction(3))
    inst = make_instance(lam, [Fraction(4), Fraction(3)])
    flows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]]
    tau = np.zeros((2, 2))
    for q in range(2):
        members = [i for i in range(n) if queue_of[i] == q]
        tau[q, 1] = float(Fraction(sum(po["alt"][i] - po["base"][i]
                                       for i in members), len(members)))
    c = Fraction(sum(po["base"]), n)
    value = core.policy_value(core.FlowMatrix(np.array(flows, dtype=float)),
                              core.CATEMatrix(tau, float(c)), inst)
    expectation = Fraction(0)
    for i in range(n):
        q = queue_of[i]
        for r, name in enumerate(("base", "alt")):
            expectation += Fraction(1, n) * (flows[q][r] / lam[q]) * po[name][i]
    gap = abs(value - float(expectation))
    elapsed = time.perf_counter() - start
    _verdict(10, "policy value identity", gap < 1e-9 and elapsed < 1.0,
             f"gap {gap:.2e}, {elapsed:.2f}s")
