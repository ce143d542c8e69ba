"""Command-line entry points for the full pipeline.

All commands read one JSON configuration file (flags override file values) and
write their outputs under the configured output directory. Given identical
inputs and seeds, outputs are byte-identical.

Exit codes: 0 success, 1 the `optimize --oracle` cross-check disagreed with
the MIO, 2 configuration error, 3 data error, 4 optimization infeasible, 5
solver limit reached without a proven optimum, 6 post-solve check failed
(inexact MIO flows, or no single pooled component within the cut rounds).
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import causal, core, desim, ope, optimizer, queuing, synth

EXIT_CONFIG, EXIT_DATA, EXIT_INFEASIBLE, EXIT_LIMITS, EXIT_POSTSOLVE = 2, 3, 4, 5, 6

DEFAULT_CONFIG = {
    "dataset": "dataset.csv",
    "out_dir": ".",
    "seed": 0,
    "resources": ["SO", "RRH", "PSH"],
    "feature_names": ["score"],
    "group_dimensions": [],
    **causal.PIPELINE_DEFAULTS,
    "synth": {"n": 10000, "alpha": None, "group_probs": {}},
    "fairness": {"kind": "none", "dimension": "", "bound": 0.0},
    "non_affirmative": False,
    "solver": {"time_limit_s": None, "node_limit": None},
    "simulate": {"horizon_days": 5000.0, "warmup_fraction": 0.2},
    "sq_cuts": None,
    "experiment": {"alphas": list(synth.ALPHAS),
                   "min_node_sizes": [6000, 2000, 1000, 400, 150],
                   "n": 10000, "n_seeds": 10},
}


class ConfigError(ValueError):
    pass


def load_config(path=None, overrides=None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(user) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        for key, value in user.items():
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key} must be an object")
                unknown = set(value) - set(cfg[key])
                if unknown:
                    raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
                cfg[key] = {**cfg[key], **value}
            else:
                cfg[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = value
    if not 0 < cfg["rho"] <= 1:
        raise ConfigError("rho must lie in (0, 1]")
    if cfg["fairness"]["kind"] not in optimizer.FAIRNESS_KINDS:
        raise ConfigError(f"unknown fairness kind: {cfg['fairness']['kind']}")
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _pipeline_params(cfg) -> dict:
    return {key: cfg[key] for key in causal.PIPELINE_DEFAULTS}


def _load_dataset(cfg) -> core.Dataset:
    try:
        return core.Dataset.from_csv(cfg["dataset"], cfg["resources"],
                                     cfg["feature_names"],
                                     cfg["group_dimensions"])
    except FileNotFoundError:
        raise ConfigError(f"dataset file not found: {cfg['dataset']}")


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(cfg) -> int:
    params = synth.SynthParams(n=int(cfg["synth"]["n"]), seed=int(cfg["seed"]),
                               group_probs=cfg["synth"]["group_probs"])
    alpha = cfg["synth"]["alpha"]
    if alpha is not None:
        params = synth.alpha_variant(params, float(alpha))
    dataset = synth.generate(params)
    out = _out_dir(cfg)
    dataset.to_csv(out / "dataset.csv")
    _write_json(out / "dataset_meta.json", {
        "n": params.n, "seed": params.seed, "alpha": alpha,
        "resources": list(dataset.resource_set),
        "group_dimensions": list(dataset.group_dimensions),
        "propensity_table": {k: list(v) for k, v in params.propensity_table.items()},
    })
    print(f"wrote {out / 'dataset.csv'} ({len(dataset)} records)")
    return 0


def cmd_fit(cfg) -> int:
    dataset = _load_dataset(cfg)
    learned = causal.learn(dataset, _pipeline_params(cfg), int(cfg["seed"]))
    instance = learned.instance
    out = _out_dir(cfg)
    causal.save_models(out / "models.json", learned.prop, learned.out, learned.trees)
    _write_json(out / "fit_report.json", {
        "n_total": len(dataset), "n_kept": len(learned.kept),
        "n_screened": learned.n_screened,
        "window_days": float(learned.kept.arrival_time.max()), "rho": cfg["rho"],
        "queues": [{"queue": q, "count": int(np.sum(learned.queue_ids == q)),
                    "lambda": str(lam)}
                   for q, lam in zip(instance.queues, instance.lam)],
        "mu": {r: str(m) for r, m in zip(instance.resources, instance.mu)},
    })
    print(f"wrote {out / 'models.json'} ({learned.partition.n_queues} queues, "
          f"{learned.n_screened} screened)")
    return 0


def _rebuild(cfg) -> causal.Learned:
    """Dataset + saved models back through ``causal.learn``, split by the
    fairness dimension for fairness and non-affirmative runs."""
    dataset = _load_dataset(cfg)
    try:
        models = causal.load_models(Path(cfg["out_dir"]) / "models.json")
    except FileNotFoundError:
        raise ConfigError("models.json not found; run `fit` first")
    dim = None
    if cfg["fairness"]["kind"] != "none" or cfg["non_affirmative"]:
        dim = cfg["fairness"]["dimension"]
        if not dim:
            raise ConfigError("fairness and non-affirmative runs need "
                              "fairness.dimension (set it in the config, or "
                              "with --fairness KIND:DIMENSION:BOUND)")
    return causal.learn(dataset, _pipeline_params(cfg), int(cfg["seed"]), models, dim)


def _fairness_spec(cfg, learned) -> optimizer.FairnessSpec:
    fair = cfg["fairness"]
    if fair["kind"] == "none":
        return optimizer.FairnessSpec.none()
    if not learned.groups:
        raise ValueError(f"fairness needs two or more {fair['dimension']} labels "
                         "among the kept records")
    return optimizer.FairnessSpec(fair["kind"], float(fair["bound"]), fair["dimension"],
                                  learned.groups)


def _topology_payload(instance, result, tau):
    return {
        "queues": list(instance.queues),
        "resources": list(instance.resources),
        "edges": [[instance.queues[q], instance.resources[r]]
                  for q, r in zip(*np.nonzero(result.topology.m))],
        "flows": [[float(x) for x in row] for row in result.flows.f],
        "objective": result.objective,
        "policy_value": result.policy_value,
        "baseline_mean": tau.baseline_mean,
        "lam": [str(x) for x in instance.lam],
        "mu": [str(x) for x in instance.mu],
        "rho": instance.rho,
        "solver_stats": result.solver_stats,
    }


def _write_eligibility(path, instance, result, queue_ids, kept):
    """Human-readable view: per resource, the eligible queues with their
    score ranges."""
    ranges = {}
    for q in instance.queues:
        mask = queue_ids == q
        if mask.any():
            ranges[q] = (float(kept.score[mask].min()), float(kept.score[mask].max()))
    with open(path, "w") as fh:
        for r, name in enumerate(instance.resources):
            eligible = [instance.queues[q]
                        for q in np.flatnonzero(result.topology.m[:, r])]
            fh.write(f"{name}:\n")
            for q in eligible:
                lo, hi = ranges.get(q, (float("nan"), float("nan")))
                fh.write(f"  {q}  score in [{lo:.3f}, {hi:.3f}]\n")
            if not eligible:
                fh.write("  (no eligible queues)\n")


def cmd_optimize(cfg, use_oracle_route=False, cross_check=False) -> int:
    learned = _rebuild(cfg)
    instance, tau = learned.instance, learned.tau
    fairness = _fairness_spec(cfg, learned)
    if use_oracle_route:
        result = optimizer.enumerate_oracle(instance, tau, fairness)
    else:
        model = optimizer.build_mio(instance, tau, fairness)
        if cfg["non_affirmative"]:
            cells = [[q for q in c if q in instance.queues]
                     for c in learned.partition.score_cells.values()]
            optimizer.add_non_affirmative_links(model, [c for c in cells if len(c) > 1])
        result = optimizer.solve(model, time_limit_s=cfg["solver"]["time_limit_s"],
                                 node_limit=cfg["solver"]["node_limit"])
    out = _out_dir(cfg)
    payload = _topology_payload(instance, result, tau)
    if cross_check and not use_oracle_route:
        if instance.n_queues * instance.n_resources <= optimizer.MAX_ORACLE_CELLS:
            oracle = optimizer.enumerate_oracle(instance, tau, fairness)
            payload["oracle_objective"] = oracle.objective
            payload["oracle_match"] = bool(abs(oracle.objective - result.objective) <= 1e-6)
        else:
            print("instance too large for the oracle cross-check; skipped",
                  file=sys.stderr)
            cross_check = False
    _write_json(out / "topology.json", payload)
    _write_eligibility(out / "eligibility.txt", instance, result, learned.queue_ids,
                       learned.kept)
    print(f"objective {result.objective:.6f}, policy value "
          f"{result.policy_value:.6f}, edges {len(payload['edges'])}")
    if cross_check and not use_oracle_route and not payload["oracle_match"]:
        print("oracle cross-check FAILED", file=sys.stderr)
        return 1
    return 0


def _load_topology(cfg):
    path = Path(cfg["out_dir"]) / "topology.json"
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("topology.json not found; run `optimize` first")
    queues = payload["queues"]
    resources = payload["resources"]
    instance = core.MCMSInstance(tuple(queues), tuple(resources),
                                 tuple(Fraction(x) for x in payload["lam"]),
                                 tuple(Fraction(x) for x in payload["mu"]),
                                 float(payload["rho"]))
    m = np.zeros((len(queues), len(resources)), dtype=int)
    for q, r in payload["edges"]:
        m[queues.index(q), resources.index(r)] = 1
    return instance, core.MatchingTopology(m), np.array(payload["flows"]), payload


def cmd_simulate(cfg) -> int:
    instance, topology, _, payload = _load_topology(cfg)
    sim = cfg["simulate"]
    stats = desim.simulate(instance, topology, float(sim["horizon_days"]),
                           float(sim["warmup_fraction"]), int(cfg["seed"]))
    expected = queuing.steady_state_flows(instance, topology).f
    out = _out_dir(cfg)
    with open(out / "simulation.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["record", "queue", "resource", "value"])
        for q, qn in enumerate(instance.queues):
            for r, rn in enumerate(instance.resources):
                w.writerow(["expected_flow", qn, rn, repr(float(expected[q, r]))])
                w.writerow(["empirical_flow", qn, rn,
                            repr(float(stats.empirical_flows[q, r]))])
            w.writerow(["avg_wait_days", qn, "",
                        repr(float(stats.avg_wait_per_queue[q]))])
        w.writerow(["overall_avg_wait_days", "", "", repr(stats.overall_avg_wait)])
        w.writerow(["matched", "", "", stats.matched_count])
        w.writerow(["still_waiting", "", "", stats.expired_horizon_count])
    print(f"simulated {stats.horizon:.1f} measured days, "
          f"{stats.matched_count} matches")
    return 0


def _sq_topology(cfg, instance, queue_ids, kept):
    """Status-quo eligibility from configured score cut ranges per resource."""
    cuts = cfg["sq_cuts"]
    m = np.zeros((instance.n_queues, instance.n_resources), dtype=int)
    for q, qn in enumerate(instance.queues):
        mask = queue_ids == qn
        mean_score = float(kept.score[mask].mean())
        for r, rn in enumerate(instance.resources):
            lo, hi = cuts.get(rn, (-np.inf, np.inf))
            m[q, r] = int(lo <= mean_score <= hi)
    return core.MatchingTopology(m)


def cmd_evaluate(cfg) -> int:
    learned = _rebuild(cfg)
    kept, queue_ids, instance = learned.kept, learned.queue_ids, learned.instance
    scopes = {"optimized": core.FlowMatrix(_load_topology(cfg)[2])}
    fcfs = core.MatchingTopology.fully_connected(instance.n_queues,
                                                 instance.n_resources)
    scopes["fcfs"] = queuing.steady_state_flows(instance, fcfs)
    if cfg["sq_cuts"]:
        sq = _sq_topology(cfg, instance, queue_ids, kept)
        try:
            scopes["sq"] = queuing.steady_state_flows(instance, sq)
        except queuing.FlowSolveError:
            print("status-quo topology has no steady-state flow; skipped",
                  file=sys.stderr)
    estimators = [e for e in ope.ESTIMATORS
                  if e != "GT" or kept.potential_outcomes is not None]
    rows = []
    dim = cfg["fairness"]["dimension"]
    for scope, flows in scopes.items():
        values = ope.evaluate_all(estimators, kept, flows, queue_ids, instance,
                                  learned.tau, learned.out, learned.prop)
        for est, value in values.items():
            rows.append([est, scope, "", repr(value), len(kept)])
            if dim and est == "DR":
                policy = core.policy_from_flows(flows, instance)
                for g, v in ope.per_group_values(kept, policy, queue_ids, instance,
                                                 est, dim, out=learned.out,
                                                 prop=learned.prop).items():
                    rows.append([est, scope, g, repr(v), ""])
    out = _out_dir(cfg)
    with open(out / "estimates.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimator", "scope", "group", "value", "n"])
        w.writerows(rows)
    print(f"wrote {out / 'estimates.csv'} ({len(rows)} rows)")
    return 0


def cmd_experiment(cfg, which: str) -> int:
    exp = cfg["experiment"]
    seeds = range(int(exp["n_seeds"]))
    out = _out_dir(cfg)
    pipeline = _pipeline_params(cfg)
    if which == "alpha":
        path = out / "alpha_sweep.csv"
        synth.run_alpha_sweep(exp["alphas"], int(exp["n"]), seeds, pipeline, path)
    else:
        path = out / "queue_sweep.csv"
        synth.run_queue_sweep(exp["min_node_sizes"], int(exp["n"]), seeds,
                              pipeline, path)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _parser():
    p = argparse.ArgumentParser(prog="fairmatch",
                                description="Learn and optimize fair "
                                            "resource-matching policies.")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON configuration file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--rho", type=float, default=None,
                        help="target utilization for the baseline rate")
        sp.add_argument("--dataset", default=None)
        sp.add_argument("--fairness", default=None, metavar="KIND:DIM:BOUND")
        sp.add_argument("--non-affirmative", action="store_true", default=None)

    for verb in ("synth", "fit", "optimize", "simulate", "evaluate", "oracle"):
        sp = sub.add_parser(verb)
        common(sp)
        if verb == "synth":
            sp.add_argument("--alpha", type=float, default=None,
                            help="mid-stratum propensity variant")
        if verb == "optimize":
            sp.add_argument("--oracle", action="store_true",
                            help="cross-check against exhaustive enumeration")
        if verb == "simulate":
            sp.add_argument("--horizon", type=float, default=None)
    sp = sub.add_parser("experiment")
    sp.add_argument("which", choices=["alpha", "queues"])
    common(sp)
    return p


def _overrides(args) -> dict:
    over = {"seed": getattr(args, "seed", None),
            "out_dir": getattr(args, "out", None),
            "rho": getattr(args, "rho", None),
            "dataset": getattr(args, "dataset", None),
            "synth.alpha": getattr(args, "alpha", None),
            "simulate.horizon_days": getattr(args, "horizon", None)}
    if getattr(args, "non_affirmative", None):
        over["non_affirmative"] = True
    fairness = getattr(args, "fairness", None)
    if fairness:
        parts = fairness.split(":")
        if len(parts) != 3:
            raise ConfigError("--fairness expects KIND:DIMENSION:BOUND")
        over["fairness.kind"] = parts[0]
        over["fairness.dimension"] = parts[1]
        try:
            over["fairness.bound"] = float(parts[2])
        except ValueError:
            raise ConfigError(f"fairness bound is not a number: {parts[2]}")
    return {k: v for k, v in over.items() if v is not None}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.verb == "synth":
            return cmd_synth(cfg)
        if args.verb == "fit":
            return cmd_fit(cfg)
        if args.verb == "optimize":
            return cmd_optimize(cfg, cross_check=args.oracle)
        if args.verb == "oracle":
            return cmd_optimize(cfg, use_oracle_route=True)
        if args.verb == "simulate":
            return cmd_simulate(cfg)
        if args.verb == "evaluate":
            return cmd_evaluate(cfg)
        if args.verb == "experiment":
            return cmd_experiment(cfg, args.which)
        raise ConfigError(f"unknown verb: {args.verb}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except optimizer.InfeasibleModelError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except optimizer.SolverLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return EXIT_LIMITS
    except (optimizer.InexactFlowError, optimizer.PoolingCutLimitError) as exc:
        print(f"post-solve check failed: {exc}", file=sys.stderr)
        return EXIT_POSTSOLVE
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
