"""The benchmark's workloads: inputs made in set-up, timed passes, checks.

Each workload makes its inputs in ``__init__`` (set-up), runs one timed pass
per ``run_pass`` call through fairmatch's public functions, and checks each
pass's outputs in ``check``, which returns how many of the pass's
``ops_per_pass`` operations failed and raises ``CheckError`` on a wrong result.
"""

from __future__ import annotations

import csv
import json
import shutil
from fractions import Fraction
from pathlib import Path

import numpy as np

from fairmatch import causal, cli, core, optimizer, queuing, synth

import checks

NUISANCE = {"min_node_size": 50, "max_depth": 10}
TREES = {"min_node_size": 400, "max_depth": 3, "honest": True}
RHO = 0.99
POSITIVITY = 0.001
TRAIN_SEED = 0      # data seed of every fitted instance; README says why


def _p_min(table, resources):
    """Smallest generator propensity of each resource over the strata."""
    return [min(v[i] for v in table.values()) for i in range(len(resources))]


class Workload:
    min_passes = 1
    ops_per_pass = 1

    def __init__(self, seed, workdir, tracer):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tracer = tracer

    def _flows_exact(self, instance, topology, flows):
        """Independent checks of one MIO solve; True when its flows are the
        QP flows of its topology."""
        qp = queuing.steady_state_flows(instance, topology).f
        try:
            checks.check_solve(flows, qp, np.array([float(x) for x in instance.lam]),
                               checks.balanced_mu(instance.lam, instance.mu), topology.m)
        except checks.FlowMismatch:
            return False
        self.tracer.count("optimizer.solves_exact")
        return True


class FairnessSweep(Workload):
    """MIO solves on one 18-queue instance under a grid of fairness bounds."""

    n = 20_000
    bounds = (0.36, 0.39)     # maximin_outcome bounds; both bind at this instance
    min_binding = 2
    min_passes = 2            # one pass spans too few of the host's speed spells
    ops_per_pass = len(bounds) + 2          # one per MIO solve

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.data = data = synth.generate(synth.SynthParams(
            n=self.n, seed=TRAIN_SEED, group_probs={"race": {"A": 0.5, "B": 0.5}}))
        self.prop = prop = causal.fit_propensity(data, NUISANCE, "score")
        out = causal.fit_outcome(data, NUISANCE, "score")
        self.kept = kept = causal.positivity_screen(data, prop, POSITIVITY)[0]
        trees = [causal.fit_causal_tree(kept, r, TREES, "score", TRAIN_SEED)
                 for r in data.resource_set[1:]]
        partition = causal.intersect_partitions(trees, kept, "score")
        self.partition = partition = causal.split_queues_by_group(partition, kept, "race")
        self.tau, _ = causal.estimate_cate_dr(kept, partition, prop, out)
        self.instance = causal.arrival_rates(kept, partition,
                                             float(kept.arrival_time.max()), RHO)
        queues = list(self.instance.queues)
        self.groups = {}
        for q in queues:
            self.groups.setdefault(q.rsplit(":", 1)[-1], []).append(q)
        self.cells = [[q for q in cell if q in queues]
                      for cell in partition.score_cells.values()]
        self.cells = [c for c in self.cells if len(c) > 1]

    def run_pass(self):
        inst, tau = self.instance, self.tau
        solves = [("none", None, optimizer.solve(optimizer.build_mio(inst, tau)))]
        for bound in self.bounds:
            spec = optimizer.FairnessSpec("maximin_outcome", bound, "race", self.groups)
            solves.append(("maximin_outcome", bound,
                           optimizer.solve(optimizer.build_mio(inst, tau, spec))))
        model = optimizer.add_non_affirmative_links(optimizer.build_mio(inst, tau),
                                                    self.cells)
        solves.append(("linked", None, optimizer.solve(model)))
        return solves

    def check(self, solves):
        self._check_learning()
        inst, tau = self.instance, self.tau.tau
        index = {q: i for i, q in enumerate(inst.queues)}
        lam = np.array([float(x) for x in inst.lam])
        groups = {g: [index[q] for q in qs] for g, qs in self.groups.items()}
        failed = sum(not self._flows_exact(inst, r.topology, r.flows.f) for _, _, r in solves)
        objective = {kind if bound is None else bound: float(np.sum(tau * r.flows.f))
                     for kind, bound, r in solves}
        sweep = [(bound, objective[bound],
                  checks.group_advantages(r.flows.f, tau, lam, groups))
                 for kind, bound, r in solves if kind == "maximin_outcome"]
        checks.check_sweep(objective["none"], sweep, self.min_binding)
        checks.check_linked(solves[-1][2].topology.m,
                            [[index[q] for q in cell] for cell in self.cells])
        return failed

    def _check_learning(self):
        """The set-up's propensities and DR effects against the generator."""
        resources = list(self.data.resource_set)
        checks.check_propensities(self.prop.tree.root, self.prop.tree.classes,
                                  resources, self.data.score, synth.PROPENSITY_STRATA,
                                  synth.DEFAULT_PROPENSITY)
        queues, of_record = checks.assign_queues(
            [t.tree.root for t in self.partition.trees], self.partition.queue_table,
            self.kept.score, self.kept.groups["race"])
        if queues != list(self.instance.queues):
            raise checks.CheckError("queues differ from the populated partition cells")
        checks.check_dr_effects(self.tau.tau, of_record, self.kept.potential_outcomes,
                                resources, _p_min(synth.DEFAULT_PROPENSITY, resources))


class Cli(Workload):
    """The command-line verbs on a 50k-record dataset file, as users run them."""

    n = 50_000
    min_passes = 2            # outputs are compared between passes
    horizon_days = 1_300_000.0
    warmup_fraction = 0.2     # the CLI default
    verbs = ("fit", "optimize", "evaluate", "simulate")
    ops_per_pass = len(verbs)

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.dataset = self.workdir / "dataset.csv"
        self.data = synth.generate(synth.SynthParams(n=self.n, seed=TRAIN_SEED))
        self.data.to_csv(self.dataset)
        self.passes = 0
        self.first_outputs = None

    def run_pass(self):
        out = self.workdir / f"pass{self.passes % 2}"
        self.passes += 1
        shutil.rmtree(out, ignore_errors=True)
        base = ["--out", str(out), "--dataset", str(self.dataset)]
        codes = {}
        for verb in self.verbs:
            extra = (["--seed", str(self.seed), "--horizon", repr(self.horizon_days)]
                     if verb == "simulate" else [])
            with self.tracer.span(f"cli.{verb}"):
                codes[verb] = cli.main([verb] + base + extra)
        return out, codes

    def check(self, outputs):
        out, codes = outputs
        bad = {v: c for v, c in codes.items() if c != 0}
        if bad:
            raise checks.CheckError(f"verbs exited non-zero: {bad}")
        checks.check_fit_report(json.loads((out / "fit_report.json").read_text()))
        payload = json.loads((out / "topology.json").read_text())
        instance, topology = self._load_topology(payload)
        exact = self._flows_exact(instance, topology, np.array(payload["flows"], dtype=float))
        self._check_estimates(out / "estimates.csv", instance, payload,
                              json.loads((out / "models.json").read_text()))
        self._check_simulation(out / "simulation.csv")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if self.first_outputs is None:
            self.first_outputs = files
        else:
            checks.check_identical(self.first_outputs, files)
        return int(not exact)

    @staticmethod
    def _load_topology(payload):
        queues, resources = payload["queues"], payload["resources"]
        instance = core.MCMSInstance(tuple(queues), tuple(resources),
                                     tuple(Fraction(x) for x in payload["lam"]),
                                     tuple(Fraction(x) for x in payload["mu"]),
                                     float(payload["rho"]))
        m = np.zeros((len(queues), len(resources)), dtype=int)
        for q, r in payload["edges"]:
            m[queues.index(q), resources.index(r)] = 1
        return instance, core.MatchingTopology(m)

    def _check_estimates(self, path, instance, payload, models):
        """OPE rows against ground truth recomputed from the saved models.

        Records are screened with the saved propensity tree and mapped to
        queues through the sorted leaf tuples of the saved causal trees, the
        way ``fit`` numbers its queues.
        """
        rows = list(csv.DictReader(path.read_text().splitlines()))
        value = {(r["scope"], r["estimator"]): float(r["value"])
                 for r in rows if not r["group"]}
        data, resources = self.data, list(self.data.resource_set)
        prop = models["propensity"]["tree"]
        keep = checks.propensities(prop["root"], prop["classes"], resources,
                                   data.score).min(axis=1) >= POSITIVITY
        roots = [t["tree"]["root"] for t in models["causal_trees"]]
        table = {tup: f"q{i}" for i, tup in enumerate(
            sorted(set(checks.leaf_tuples(roots, data.score[keep]))))}
        queues, of_record = checks.assign_queues(roots, table, data.score[keep])
        if queues != payload["queues"]:
            raise checks.CheckError("topology queues differ from the saved trees' cells")
        fcfs = queuing.steady_state_flows(instance, core.MatchingTopology.fully_connected(
            instance.n_queues, instance.n_resources)).f
        lam = np.array([float(x) for x in instance.lam])
        p_min = min(_p_min(synth.DEFAULT_PROPENSITY, resources))
        po = {r: v[keep] for r, v in data.potential_outcomes.items()}
        for scope, flows in (("optimized", np.array(payload["flows"])), ("fcfs", fcfs)):
            gt = checks.ground_truth(flows / lam[:, None], of_record, po, resources)
            estimates = {e: value[(scope, e)] for e in ("DM", "DR", "GT")}
            checks.check_ope(estimates, gt, int(keep.sum()), p_min)
        checks.check_ct_order(value[("optimized", "CT")], value[("fcfs", "CT")])

    def _check_simulation(self, path):
        expected, matches = {}, {}
        horizon = self.horizon_days * (1 - self.warmup_fraction)
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        for record, queue, resource, value in rows:
            if record == "expected_flow":
                expected[(queue, resource)] = float(value)
            elif record == "empirical_flow":
                matches[(queue, resource)] = round(float(value) * horizon)
        checks.check_simulation(expected, matches, horizon)


WORKLOADS = {"fairness-sweep": FairnessSweep, "cli-50k": Cli}
