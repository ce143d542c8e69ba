"""Command-line entry points for the full pipeline.

All commands read one JSON configuration file (flags override file values) and
write their outputs under the configured output directory. Given identical
inputs and seeds, outputs are byte-identical. A verb takes only the flags
``VERB_FLAGS`` lists for it, besides ``--config``, ``--out`` and ``--dataset``.
Only ``fit`` learns. Beside ``models.json`` it writes its record,
``record.json`` and ``record.npz``: the sha256 of the dataset file, the
partition, the queueing instance, and per kept record its queue, score and
estimator inputs. ``optimize`` and ``evaluate`` read the record, so they
solve and value the instance ``fit`` learned, whatever the config says of the
settings only ``fit`` reads. They refuse a dataset file whose sha256
differs from the record's, and ``resources`` other than ``fit``'s, in its
order. Without ``fairness.dimension`` they do not parse the dataset; with it
they parse it once for its labels. Fairness and non-affirmative runs split
the record's queue rows by those labels (``causal.split_instance``) and
read no ``models.json``. A verb checks each scalar setting it reads, by that
setting's rule in ``SETTINGS``, before it reads or writes any file.

Exit codes: 0 success, 1 the `optimize --oracle` cross-check disagreed with
the MIO, 2 configuration error, 3 data error, 4 infeasible model, 5 HiGHS
stopped without a proven optimum, with or without an incumbent, 6 post-solve
check failed (inexact MIO flows, or no single pooled component within the cut
rounds). On exits 4 to 6 ``optimize`` writes nothing. ``topology.json``'s
``solver_stats.status`` is HiGHS's model status in its own words, ``Optimal``
for every topology written; there is no ``message``.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
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

# fit's record: what the later verbs read instead of learning again
RECORD_JSON, RECORD_ARRAYS = "record.json", "record.npz"
RECORD_KEYS = {"dataset_sha256", "arrays_sha256", "partition", "instance", "rho"}


class ConfigError(ValueError):
    pass


def _rule(types, test=lambda x: True):
    """Passes None if ``types`` holds None, else a value whose type is one of
    ``types`` (no bool is a number) that passes ``test``, which NaN fails. A
    number (``types`` holds float) must also be one that ``float()`` holds."""
    return lambda x: (x is None and None in types) or (
        type(x) in types and (float not in types or _holds_float(x)) and test(x))


def _holds_float(x):
    try:
        float(x)
    except OverflowError:
        return False
    return True


_POSITIVE = ("be a positive integer", _rule((int,), lambda x: x >= 1))
_DEPTH = ("be null or a non-negative integer", _rule((int, None), lambda x: x >= 0))
_FLAG = ("be true or false", _rule((bool,)))
# Each scalar setting's rule, and the phrase that names it in the error
SETTINGS = {
    "seed": ("be a non-negative integer", _rule((int,), lambda x: x >= 0)),
    "synth.n": _POSITIVE,
    "synth.alpha": ("lie in (0, 0.7)", _rule((int, float, None), lambda x: 0 < x < 0.7)),
    "rho": ("lie in (0, 1]", _rule((int, float), lambda x: 0 < x <= 1)),
    "positivity_threshold": ("lie in [0, 1)", _rule((int, float), lambda x: 0 <= x < 1)),
    "features": ('be "score" or "all"', lambda x: x in ("score", "all")),
    "tree_params.min_node_size": _POSITIVE,
    "tree_params.max_depth": _DEPTH,
    "tree_params.honest": _FLAG,
    "nuisance_params.min_node_size": _POSITIVE,
    "nuisance_params.max_depth": _DEPTH,
    "fairness.kind": ("be one of " + ", ".join(optimizer.FAIRNESS_KINDS),
                      lambda x: x in optimizer.FAIRNESS_KINDS),
    "fairness.bound": ("be a finite number",
                       _rule((int, float), lambda x: -np.inf < x < np.inf)),
    "non_affirmative": _FLAG,
    "solver.time_limit_s": ("be null or a number >= 0",
                            _rule((int, float, None), lambda x: x >= 0)),
    # HiGHS counts nodes in a 32-bit int
    "solver.node_limit": ("be null or an integer in [0, 2147483647]",
                          _rule((int, None), lambda x: 0 <= x < 2**31)),
    "simulate.horizon_days": ("be finite and > 0",
                              _rule((int, float), lambda x: 0 < x < np.inf)),
    "simulate.warmup_fraction": ("lie in [0, 1)", _rule((int, float), lambda x: 0 <= x < 1)),
    "experiment.n": _POSITIVE,
    "experiment.n_seeds": _POSITIVE,
}


def _setting(cfg, key):
    """The configured value at the dotted ``key``, checked by its rule."""
    value = cfg
    for part in key.split("."):
        value = value[part]
    phrase, ok = SETTINGS[key]
    if not ok(value):
        raise ConfigError(f"{key} must {phrase}, not {value!r}")
    return value


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
    """The learning settings, checked; only ``fit`` and ``experiment`` read them."""
    for key in SETTINGS:
        if key.split(".")[0] in causal.PIPELINE_DEFAULTS:
            _setting(cfg, key)
    return {key: cfg[key] for key in causal.PIPELINE_DEFAULTS}


def _load_dataset(cfg) -> core.Dataset:
    """The records, with the ``fairness.dimension`` column when one is set."""
    dim = cfg["fairness"]["dimension"]
    try:
        return core.Dataset.from_csv(cfg["dataset"], cfg["resources"],
                                     cfg["feature_names"], [dim] if dim else [])
    except FileNotFoundError:
        raise ConfigError(f"dataset file not found: {cfg['dataset']}")


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(cfg) -> int:
    n, seed, alpha = (_setting(cfg, key) for key in ("synth.n", "seed", "synth.alpha"))
    params = synth.SynthParams(n=n, seed=seed, group_probs=cfg["synth"]["group_probs"])
    if alpha is not None:
        params = synth.alpha_variant(params, alpha)
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
    params, seed = _pipeline_params(cfg), _setting(cfg, "seed")
    dataset = _load_dataset(cfg)
    learned = causal.learn(dataset, params, seed)
    instance = learned.instance
    out = _out_dir(cfg)
    causal.save_models(out / "models.json", learned.prop, learned.out, learned.trees)
    _write_record(out, cfg, learned)
    counts = np.bincount(learned.rows, minlength=instance.n_queues).tolist()
    _write_json(out / "fit_report.json", {
        "n_total": len(dataset), "n_kept": len(learned.kept),
        "n_screened": learned.n_screened,
        "window_days": float(learned.kept.arrival_time.max()), "rho": cfg["rho"],
        "queues": [{"queue": q, "count": n, "lambda": str(lam)}
                   for q, n, lam in zip(instance.queues, counts, instance.lam)],
        "mu": {r: str(m) for r, m in zip(instance.resources, instance.mu)},
    })
    print(f"wrote {out / 'models.json'} ({learned.partition.n_queues} queues, "
          f"{learned.n_screened} screened)")
    return 0


def _sha256(path) -> str:
    """The sha256 of the file at ``path``, hashed in blocks of 1 MiB read
    into one buffer, so the file is never held whole."""
    digest, block = hashlib.sha256(), memoryview(bytearray(1 << 20))
    try:
        with open(path, "rb", buffering=0) as fh:
            while n := fh.readinto(block):
                digest.update(block[:n])
    except FileNotFoundError:
        raise ConfigError(f"dataset file not found: {path}")
    return digest.hexdigest()


def _compact(a):
    """Integer array ``a`` in the smallest type that holds its values."""
    return a.astype(np.promote_types(np.min_scalar_type(a.min(initial=0)),
                                     np.min_scalar_type(a.max(initial=0))))


_CODE_BLOCK = 1 << 13     # entries per block when ``_codes`` indexes an array


def _codes(a):
    """Float array ``a`` as its distinct values and each entry's index into
    them: model predictions take few values, so this is the smaller form.
    The indices are those of ``np.unique(a, return_inverse=True)``, in
    ``_compact``'s type, but are found ``_CODE_BLOCK`` entries at a time: each
    block's own few distinct values are looked up among all of them, so no
    full-size argsort or index array is made."""
    values, flat, block = np.unique(a), a.reshape(-1), _CODE_BLOCK
    codes = np.empty(flat.shape, _compact(np.arange(len(values))).dtype)
    for start in range(0, len(flat), block):
        distinct, inverse = np.unique(flat[start:start + block], return_inverse=True)
        codes[start:start + block] = np.searchsorted(values, distinct)[inverse]
    return values, codes.reshape(a.shape)


def _instance_fields(instance) -> dict:
    """The instance as the record and ``topology.json`` hold it, its rates as
    exact fractions."""
    return {"queues": list(instance.queues), "resources": list(instance.resources),
            "lam": list(map(str, instance.lam)), "mu": list(map(str, instance.mu)),
            "rho": instance.rho}


def _instance_of(fields) -> core.MCMSInstance:
    """The instance that ``_instance_fields`` wrote."""
    return core.MCMSInstance.build(*(fields[k] for k in ("queues", "resources", "lam",
                                                         "mu", "rho")))


def _write_record(out, cfg, learned):
    """fit's record: the JSON part names the dataset file and the arrays by
    their sha256 and holds the partition and instance; the arrays hold the
    kept mask and, per kept record, its queue row, score and estimator inputs."""
    inputs = ope.score_inputs(learned.kept, learned.out, learned.prop)
    instance = learned.instance
    arrays = {"kept": learned.kept_mask,
              "rows": _compact(learned.rows), "score": learned.kept.score,
              "arm": _compact(inputs.treated.argmax(axis=1)),
              "outcome": _compact(inputs.outcome)}
    for name in ("yhat", "pbar"):
        arrays[name], arrays[f"{name}_codes"] = _codes(getattr(inputs, name))
    if inputs.po is not None:
        arrays["po"] = _compact(inputs.po)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getbuffer()
    with open(out / RECORD_ARRAYS, "wb") as fh:
        fh.write(data)
    _write_json(out / RECORD_JSON, {
        "dataset_sha256": _sha256(cfg["dataset"]),
        "arrays_sha256": hashlib.sha256(data).hexdigest(),
        "partition": {"feature_mode": learned.partition.feature_mode,
                      "queue_table": [[list(k), q] for k, q
                                      in learned.partition.queue_table.items()]},
        "instance": _instance_fields(instance),
        "rho": cfg["rho"],
    })


def _read_record(cfg):
    """fit's record in the output directory, checked whole and against the
    dataset file and the configured resources. Returns (its JSON part, its
    arrays)."""
    out = Path(cfg["out_dir"])
    try:
        with open(out / RECORD_JSON) as fh:
            text = fh.read()
        with open(out / RECORD_ARRAYS, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"{Path(exc.filename).name} not found in {out}; run `fit` first")
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        record = None
    if (not isinstance(record, dict) or set(record) != RECORD_KEYS
            or hashlib.sha256(data).hexdigest() != record["arrays_sha256"]):
        raise ConfigError(f"fit's record in {out} is incomplete; re-run `fit`")
    if _sha256(cfg["dataset"]) != record["dataset_sha256"]:
        raise ConfigError(f"{cfg['dataset']} is not the dataset `fit` learned from "
                          "(its sha256 differs); re-run `fit` on it")
    fitted = record["instance"]["resources"]
    if cfg["resources"] != fitted:
        # their order fixes the baseline resource
        raise ConfigError(f"resources must be fit's {fitted}, in that order, "
                          f"not {cfg['resources']!r}; re-run `fit` to change them")
    return record, np.load(io.BytesIO(data))


def _split_dimension(cfg):
    """The dimension that splits the queues by group in fairness and
    non-affirmative runs; None in other runs."""
    kind, linked = _setting(cfg, "fairness.kind"), _setting(cfg, "non_affirmative")
    if kind == "none" and not linked:
        return None
    dim = cfg["fairness"]["dimension"]
    if not dim:
        raise ConfigError("fairness and non-affirmative runs need "
                          "fairness.dimension (set it in the config, or "
                          "with --fairness KIND:DIMENSION:BOUND)")
    return dim


@dataclass
class _Fitted:
    """fit's instance as a later verb reads it back: the kept records' score
    table over its queues, each kept record's score, and, when the queues
    are split by group, each label's queues and each score cell's queues."""

    instance: core.MCMSInstance
    table: ope.ScoreTable
    score: np.ndarray
    groups: dict
    score_cells: dict


def _fitted(cfg, names=None, labels=False) -> _Fitted:
    """fit's instance and the named estimators' scores, from fit's record.
    The dataset file is parsed only when group labels are wanted: in
    fairness and non-affirmative runs, whose queues are split by them, and,
    if ``labels``, whenever ``fairness.dimension`` is set."""
    split = _split_dimension(cfg)
    record, arrays = _read_record(cfg)
    instance = _instance_of(record["instance"])
    inputs = ope.ScoreInputs(arrays["arm"][:, None] == np.arange(instance.n_resources),
                             arrays["outcome"], *(arrays[k][arrays[f"{k}_codes"]]
                                                  for k in ("yhat", "pbar")),
                             arrays.get("po"))
    dim = split or (cfg["fairness"]["dimension"] if labels else "")
    groups = {dim: _load_dataset(cfg).groups[dim][arrays["kept"]]} if dim else {}
    instance, rows, by_label, score_cells = (
        causal.split_instance(instance, arrays["rows"], groups[dim]) if split
        else (instance, arrays["rows"], {}, {}))
    table = ope.ScoreTable.of(inputs, rows, groups, names)
    return _Fitted(instance, table, arrays["score"], by_label, score_cells)


def _topology_payload(instance, result, tau):
    return {
        **_instance_fields(instance),
        "edges": [[instance.queues[q], instance.resources[r]]
                  for q, r in zip(*np.nonzero(result.topology.m))],
        "flows": [[float(x) for x in row] for row in result.flows.f],
        "objective": result.objective,
        "policy_value": result.policy_value,
        "baseline_mean": tau.baseline_mean,
        "solver_stats": result.solver_stats,
    }


def _queue_scores(fitted):
    """Each queue's kept-record scores, in record order."""
    rows = fitted.table.rows
    return [fitted.score[rows == q] for q in range(fitted.instance.n_queues)]


def _write_eligibility(path, fitted, result):
    """Human-readable view: per resource, the eligible queues with their
    score ranges."""
    instance = fitted.instance
    ranges = [(s.min(), s.max()) for s in _queue_scores(fitted)]
    with open(path, "w") as fh:
        for r, name in enumerate(instance.resources):
            eligible = np.flatnonzero(result.topology.m[:, r]).tolist()
            fh.write(f"{name}:\n")
            for q in eligible:
                lo, hi = ranges[q]
                fh.write(f"  {instance.queues[q]}  score in [{lo:.3f}, {hi:.3f}]\n")
            if not eligible:
                fh.write("  (no eligible queues)\n")


def cmd_optimize(cfg, cross_check=False) -> int:
    kind, linked, time_limit, node_limit = (_setting(cfg, key) for key in (
        "fairness.kind", "non_affirmative", "solver.time_limit_s", "solver.node_limit"))
    bound = None if kind == "none" else _setting(cfg, "fairness.bound")
    fitted = _fitted(cfg, ["DR"])
    instance = fitted.instance
    tau = causal.effects(fitted.table, instance.n_queues)
    fairness, dim = optimizer.FairnessSpec(), cfg["fairness"]["dimension"]
    if bound is not None:
        if not fitted.groups:
            raise ValueError(f"fairness needs two or more {dim} labels among the kept records")
        fairness = optimizer.FairnessSpec(kind, bound, dim, fitted.groups)
    cells = [c for c in fitted.score_cells.values() if len(c) > 1] if linked else []
    model = optimizer.add_non_affirmative_links(
        optimizer.build_mio(instance, tau, fairness), cells)
    result = optimizer.solve(model, time_limit_s=time_limit, node_limit=node_limit)
    out = _out_dir(cfg)
    payload = _topology_payload(instance, result, tau)
    if cross_check:
        if instance.n_queues * instance.n_resources <= optimizer.MAX_ORACLE_CELLS:
            oracle = optimizer.enumerate_oracle(model)
            payload["oracle_objective"] = oracle.objective
            payload["oracle_match"] = bool(abs(oracle.objective - result.objective) <= 1e-6)
        else:
            print("instance too large for the oracle cross-check; skipped",
                  file=sys.stderr)
            cross_check = False
    _write_json(out / "topology.json", payload)
    _write_eligibility(out / "eligibility.txt", fitted, result)
    print(f"objective {result.objective:.6f}, policy value "
          f"{result.policy_value:.6f}, edges {len(payload['edges'])}")
    if cross_check and not payload["oracle_match"]:
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
    instance = _instance_of(payload)
    edges = np.array(payload["edges"], dtype=str).reshape(-1, 2).T
    m = np.zeros((instance.n_queues, instance.n_resources), dtype=int)
    m[core.rows_of(edges[0], instance.queues), core.rows_of(edges[1], instance.resources)] = 1
    return instance, core.MatchingTopology(m), np.array(payload["flows"]), payload


def cmd_simulate(cfg) -> int:
    horizon, warmup, seed = (_setting(cfg, key) for key in (
        "simulate.horizon_days", "simulate.warmup_fraction", "seed"))
    instance, topology, _, payload = _load_topology(cfg)
    stats = desim.simulate(instance, topology, horizon, warmup, seed)
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


def _sq_topology(cfg, fitted):
    """Status-quo eligibility from configured score cut ranges per resource;
    a resource the cuts leave out is open to every queue."""
    cuts, instance = cfg["sq_cuts"], fitted.instance
    if not isinstance(cuts, dict):
        raise ConfigError("sq_cuts must map resource names to [lo, hi] pairs")
    for rn, cut in cuts.items():
        if rn not in instance.resources:
            raise ConfigError(f"sq_cuts names an unknown resource {rn!r}; "
                              f"resources are {list(instance.resources)}")
        if not (isinstance(cut, list) and len(cut) == 2
                and all(type(x) in (int, float) for x in cut)):
            raise ConfigError(f"sq_cuts[{rn!r}] must be a [lo, hi] pair of numbers")
    means = np.array([[s.mean()] for s in _queue_scores(fitted)])
    lo, hi = np.array([cuts.get(r, (-np.inf, np.inf)) for r in instance.resources]).T
    return core.MatchingTopology(((lo <= means) & (means <= hi)).astype(int))


def cmd_evaluate(cfg) -> int:
    fitted = _fitted(cfg, labels=True)
    instance, table = fitted.instance, fitted.table
    tau = causal.effects(table, instance.n_queues)
    _, _, flows, payload = _load_topology(cfg)
    if payload["queues"] != list(instance.queues):
        raise ConfigError("topology.json was solved on other queues; evaluate needs "
                          "the fairness.dimension and non_affirmative settings "
                          "that optimize used")
    fcfs = core.MatchingTopology.fully_connected(instance.n_queues, instance.n_resources)
    scopes = {"optimized": core.FlowMatrix(flows),
              "fcfs": queuing.steady_state_flows(instance, fcfs)}
    if cfg["sq_cuts"]:
        sq = _sq_topology(cfg, fitted)
        try:
            scopes["sq"] = queuing.steady_state_flows(instance, sq)
        except queuing.FlowSolveError:
            print("status-quo topology has no steady-state flow; skipped",
                  file=sys.stderr)
    estimators = [e for e in ope.ESTIMATORS if e == "CT" or e in table.scores]
    rows = []
    dim = cfg["fairness"]["dimension"]
    for scope, flows in scopes.items():
        values = ope.evaluate_all(estimators, table, flows, instance, tau)
        for est, value in values.items():
            rows.append([est, scope, "", repr(value), len(fitted.score)])
            if dim and est == "DR":
                policy = core.policy_from_flows(flows, instance)
                for g, v in ope.per_group_values(table, policy, est, dim).items():
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
    seeds = range(_setting(cfg, "experiment.n_seeds"))
    n, pipeline = _setting(cfg, "experiment.n"), _pipeline_params(cfg)
    out = _out_dir(cfg)
    if which == "alpha":
        path = out / "alpha_sweep.csv"
        synth.run_alpha_sweep(exp["alphas"], n, seeds, pipeline, path)
    else:
        path = out / "queue_sweep.csv"
        synth.run_queue_sweep(exp["min_node_sizes"], n, seeds, pipeline, path)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

FLAGS = {
    "--seed": {"type": int},
    "--alpha": {"type": float, "help": "mid-stratum propensity variant"},
    "--rho": {"type": float, "help": "target utilization for the baseline rate"},
    "--fairness": {"metavar": "KIND:DIM:BOUND"},
    "--non-affirmative": {"action": "store_true"},
    "--oracle": {"action": "store_true",
                 "help": "cross-check against exhaustive enumeration"},
    "--horizon": {"type": float},
}
# Every verb takes --config, --out and --dataset, and these flags besides
VERB_FLAGS = {
    "synth": ("--seed", "--alpha"),
    "fit": ("--seed", "--rho"),
    "optimize": ("--fairness", "--non-affirmative", "--oracle"),
    "simulate": ("--seed", "--horizon"),
    "evaluate": ("--fairness", "--non-affirmative"),
    "experiment": ("--rho",),
}


def _parser():
    p = argparse.ArgumentParser(prog="fairmatch",
                                description="Learn and optimize fair "
                                            "resource-matching policies.")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, flags in VERB_FLAGS.items():
        sp = sub.add_parser(verb)
        sp.set_defaults(parser=sp)      # reports the flags this verb does not take
        if verb == "experiment":
            sp.add_argument("which", choices=["alpha", "queues"])
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--dataset")
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
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
        over["fairness.kind"], over["fairness.dimension"] = parts[:2]
        try:
            over["fairness.bound"] = float(parts[2])
        except ValueError:
            raise ConfigError(f"fairness bound is not a number: {parts[2]}")
    return {k: v for k, v in over.items() if v is not None}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        # argparse would take the flag's value for the verb
        parser.error(f"{argv[0].split('=')[0]} is not a top-level flag; flags "
                     "follow the verb: fairmatch VERB [flags]")
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = load_config(args.config, _overrides(args))
        if args.verb == "synth":
            return cmd_synth(cfg)
        if args.verb == "fit":
            return cmd_fit(cfg)
        if args.verb == "optimize":
            return cmd_optimize(cfg, cross_check=args.oracle)
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
