"""The benchmark in perfbench/ still finds every library name it calls or
wraps, and its fairness-sweep set-up passes the benchmark's learning checks."""

import sys
from pathlib import Path

import fairmatch
from fairmatch import causal, core, desim, ope

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


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


def test_fairness_sweep_setup_passes_learning_checks(tmp_path):
    workload = workloads.FairnessSweep(0, tmp_path, spans.NullTracer())
    workload._check_learning()
