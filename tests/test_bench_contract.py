"""The benchmark in perfbench/ still finds every library name it calls or
wraps, and its fairness-sweep set-up passes the benchmark's learning checks."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairmatch
from fairmatch import causal, cli, core, desim, ope, optimizer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from _oracles import reference_poisson_stream  # noqa: E402


def test_spanned_names_exist():
    missing = [f"{mod}.{name}" for mod, names in spans.SPANNED.items()
               for name in names
               if not callable(getattr(getattr(fairmatch, mod), name, None))]
    assert missing == []


def test_wrapped_methods_and_estimator_table_exist():
    for owner, name in [(causal.PartitionFunction, "assign_dataset"),
                        (causal.DecisionTree, "predict"),
                        (causal.DecisionTree, "leaf_ids"),
                        (core.Dataset, "to_csv"), (core.Dataset, "from_csv"),
                        (desim, "_merged_events")]:
        assert callable(getattr(owner, name, None)), name
    for name, (fn, needs) in ope._ESTIMATORS.items():
        assert callable(fn) and set(needs) <= {"out", "prop"}, name


@pytest.mark.parametrize("called", ["predict", "leaf_ids", "n_leaves"])
def test_tree_lookups_do_not_call_each_other(monkeypatch, called):
    """The trace counts rows at both `predict` and `leaf_ids`; a lookup that
    went through the other would count its rows twice."""
    X = np.arange(40.0)[:, None]
    tree = causal.fit_cart(X, np.arange(40) // 10, "multiclass", {"min_node_size": 5})

    def refuse(self, X):
        raise AssertionError("one tree lookup called another")
    for other in {"predict", "leaf_ids"} - {called}:
        monkeypatch.setattr(causal.DecisionTree, other, refuse)
    if called == "n_leaves":
        assert tree.n_leaves == 4
    else:
        assert len(getattr(tree, called)(X)) == len(X)


def _events_seen(monkeypatch):
    """simulate on a 2x2 instance, with the arrivals of each stream that the
    earlier whole-horizon generator draws for it, and the lengths that a
    wrapped `desim._merged_events` returned."""
    seen, merged = [], desim._merged_events

    def merged_events(streams_q, streams_r):
        out = merged(streams_q, streams_r)
        seen.append(len(out[0]))
        return out
    monkeypatch.setattr(desim, "_merged_events", merged_events)
    inst = core.MCMSInstance(("q0", "q1"), ("r0", "r1"), (Fraction(1), Fraction(1)),
                             (Fraction(101, 100), Fraction(101, 100)), 0.99)
    desim.simulate(inst, core.MatchingTopology.fully_connected(2, 2), 200.0, seed=0)
    rng = np.random.default_rng(0)
    generated = [reference_poisson_stream(rng, float(x), 200.0).size
                 for x in [*inst.lam, *inst.mu]]
    assert len(generated) == 4 and sum(generated) > 0
    return generated, seen


def test_event_count_sees_every_arrival(monkeypatch):
    """The trace counts `desim.events` as the length of the first array that
    a wrapped `desim._merged_events` returns; it must see every arrival."""
    generated, seen = _events_seen(monkeypatch)
    assert seen == [sum(generated)]


def test_event_count_sums_over_windows(monkeypatch):
    """With many windows `desim.events` is a sum of one count per window,
    and still every arrival."""
    monkeypatch.setattr(desim, "_WINDOW_EVENTS", 64)
    generated, seen = _events_seen(monkeypatch)
    assert len(seen) > 1 and sum(seen) == sum(generated)


class _Maxima(spans.NullTracer):
    def __init__(self):
        self.maxima = {}

    def maximum(self, name, value):
        self.maxima[name] = value


@pytest.mark.parametrize("kind", ["maximin_allocation", "parity_allocation",
                                  "maximin_outcome", "parity_outcome"])
def test_model_rows_are_what_the_build_stats_read(kind):
    """The trace unpacks each `a_eq` and `a_ub` entry of a built model as
    (row, rhs, label) and counts the row's nonzeros: every entry of a grouped
    fairness model with extra rows holds a 1-D float row over all columns."""
    inst = core.MCMSInstance(("q0", "q1", "q2"), ("r0", "r1"),
                             (Fraction(1, 2), Fraction(1, 4), Fraction(1, 5)),
                             (Fraction(1, 2), Fraction(1, 2)), 0.99)
    tau = core.CATEMatrix(np.array([[0.0, 0.3], [0.0, -0.2], [0.0, 0.1]]))
    spec = optimizer.FairnessSpec(kind, 0.1, "race", {"A": ["q0"], "B": ["q1", "q2"]})
    extra = [(np.ones((3, 2)), ">=", 0.5), (np.eye(3, 2), "==", 0.4)]
    tracer = _Maxima()
    model = spans._with_build_stats(tracer, optimizer.build_mio)(inst, tau, spec, extra)
    entries = model.a_eq + model.a_ub
    assert len(model.side) > len(extra)
    for row, rhs, label in entries:
        assert isinstance(row, np.ndarray) and row.dtype == float
        assert row.shape == (model.n_vars,), label
    assert tracer.maxima["optimizer.rows"] == len(entries)
    assert tracer.maxima["optimizer.nnz"] == sum(np.count_nonzero(r) for r, _, _ in entries)


def test_fairness_sweep_setup_passes_learning_checks(tmp_path):
    workload = workloads.FairnessSweep(0, tmp_path, spans.NullTracer())
    workload._check_learning()


def test_fairness_sweep_setup_is_what_learn_learns(tmp_path):
    """The fairness-sweep set-up wires the learning stages by hand; it must
    learn what `causal.learn` learns with the group dimension, bit for bit."""
    workload = workloads.FairnessSweep(0, tmp_path, spans.NullTracer())
    learned = causal.learn(workload.data, seed=workloads.TRAIN_SEED, group_dimension="race")
    assert learned.partition.queue_table == workload.partition.queue_table
    assert learned.partition.score_cells == workload.partition.score_cells
    assert learned.instance == workload.instance
    assert np.array_equal(learned.tau.tau, workload.tau.tau)
    assert learned.tau.baseline_mean == workload.tau.baseline_mean
    assert learned.groups == workload.groups


def test_each_verb_parses_the_dataset_once(tmp_path, monkeypatch):
    """`core.from_csv_s` times `Dataset.from_csv` wrapped on its class, as
    perfbench/spans.py wraps it. `fit` parses the dataset once; `optimize`
    and `evaluate` read fit's record and never parse it, unless a fairness
    run needs its group labels, which it then parses once, there."""
    cfg = tmp_path / "config.json"
    cfg.write_text('{"synth": {"n": 3000, "group_probs": {"race": {"A": 0.5, "B": 0.5}}}, '
                   '"tree_params": {"min_node_size": 300, "max_depth": 2}}')
    base = ["--config", str(cfg), "--out", str(tmp_path),
            "--dataset", str(tmp_path / "dataset.csv")]
    assert cli.main(["synth"] + base) == 0
    calls = []
    from_csv = core.Dataset.__dict__["from_csv"].__func__

    def counted(cls, *args, **kwargs):
        calls.append(verb)
        return from_csv(cls, *args, **kwargs)
    monkeypatch.setattr(core.Dataset, "from_csv", classmethod(counted))
    grouped = ["--fairness", "maximin_outcome:race:0"]
    for verb, flags in [("fit", []), ("optimize", []), ("evaluate", []),
                        ("optimize", grouped), ("evaluate", grouped)]:
        assert cli.main([verb] + flags + base) == 0
        calls.append("|")
    assert calls == ["fit", "|", "|", "|", "optimize", "|", "evaluate", "|"]


def test_cli_workload_argv_parses(tmp_path, monkeypatch):
    """Every verb accepts the flags `Cli.run_pass` passes it."""
    argvs = []
    monkeypatch.setattr(workloads.Cli, "n", 200)
    monkeypatch.setattr(cli, "main", lambda argv: argvs.append(argv) or 0)
    workloads.Cli(0, tmp_path, spans.NullTracer()).run_pass()
    assert [argv[0] for argv in argvs] == list(workloads.Cli.verbs)
    for argv in argvs:
        cli._parser().parse_args(argv)
