import csv
import dataclasses
import json
import re
import shutil
import tempfile
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmatch import causal, cli, core, ope, optimizer, synth


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset with fitted models and an optimized topology."""
    root = tmp_path_factory.mktemp("ws")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "synth": {"n": 8000, "group_probs": {"race": {"A": 0.5, "B": 0.5}}},
        "tree_params": {"min_node_size": 300, "max_depth": 3, "honest": True},
    }))
    base = ["--config", str(cfg_path), "--out", str(root),
            "--dataset", str(root / "dataset.csv")]
    assert cli.main(["synth"] + base) == 0
    assert cli.main(["fit"] + base) == 0
    assert cli.main(["optimize", "--oracle"] + base) == 0
    return root, base


def workspace_copy(workspace, tmp_path, **config):
    """The workspace's files in a fresh directory, its config updated with
    ``config``, so that a test's outputs leave the shared workspace as it is."""
    root, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    cfg = {**json.loads((root / "config.json").read_text()), **config}
    (copy / "config.json").write_text(json.dumps(cfg))
    return copy, ["--config", str(copy / "config.json"), "--out", str(copy),
                  "--dataset", str(copy / "dataset.csv")]


@pytest.fixture
def oracles(monkeypatch):
    """The results of every ``enumerate_oracle`` call the test makes."""
    results, enumerate_oracle = [], optimizer.enumerate_oracle

    def recorded(*args, **kwargs):
        results.append(enumerate_oracle(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(optimizer, "enumerate_oracle", recorded)
    return results


def read_estimates(root):
    with open(root / "estimates.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.main(["synth", "--out", str(d), "--seed", "3"]) == 0
        a = (dirs[0] / "dataset.csv").read_bytes()
        b = (dirs[1] / "dataset.csv").read_bytes()
        assert a == b

    def test_alpha_flag_recorded(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path), "--alpha", "0.05"]) == 0
        meta = json.loads((tmp_path / "dataset_meta.json").read_text())
        assert meta["alpha"] == 0.05
        assert meta["propensity_table"]["mid"][2] == pytest.approx(0.05)


class TestFit:
    def test_report_counts(self, workspace):
        root, _ = workspace
        report = json.loads((root / "fit_report.json").read_text())
        assert report["n_total"] == 8000
        assert report["n_kept"] + report["n_screened"] == 8000
        assert len(report["queues"]) >= 2
        assert sum(q["count"] for q in report["queues"]) == report["n_kept"]

    def test_saved_models_reload_identically(self, workspace):
        root, _ = workspace
        prop, out, trees = causal.load_models(root / "models.json")
        X = np.linspace(-0.5, 1.0, 50)[:, None]
        prop2, out2, trees2 = causal.load_models(root / "models.json")
        assert np.array_equal(prop.predict_proba(X), prop2.predict_proba(X))
        assert np.array_equal(out.predict(X, "PSH"), out2.predict(X, "PSH"))
        assert len(trees) == 2

    def test_memory(self, tmp_path):
        """fit's traced peak on 20k records, with the defaults: 5.6 MB, against
        7.8 MB when the tree grower kept each ancestor's split-search arrays,
        the screen copied a dataset it kept whole, the record's codes took a
        full-size argsort and the dataset file was hashed in one read. The
        parse of the dataset file now sets the peak."""
        path = tmp_path / "dataset.csv"
        synth.generate(synth.SynthParams(n=20_000, seed=0)).to_csv(path)
        tracemalloc.start()
        try:
            assert cli.main(["fit", "--out", str(tmp_path), "--dataset", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6_700_000


class TestOptimize:
    def test_topology_written_and_oracle_agrees(self, workspace):
        root, _ = workspace
        payload = json.loads((root / "topology.json").read_text())
        assert payload["oracle_match"] is True
        assert len(payload["edges"]) >= len(payload["resources"])
        flows = np.array(payload["flows"])
        assert np.all(flows >= 0)
        assert (root / "eligibility.txt").read_text().startswith("SO:")

    def test_solver_stats_recorded(self, workspace):
        root, _ = workspace
        payload = json.loads((root / "topology.json").read_text())
        stats = payload["solver_stats"]
        assert stats["rounds"] >= 1
        lam_total = float(sum(map(Fraction, payload["lam"])))
        assert 0.0 <= stats["flow_deviation"] <= 1e-9 * lam_total
        assert stats["dual_bound"] == pytest.approx(payload["objective"], abs=1e-6)

    def test_unproven_incumbent_exits_5_and_writes_nothing(self, tmp_path, capsys):
        """HiGHS stops this 8-node solve after its first node, with an
        incumbent it has not proved optimal: the outputs of the earlier
        solve stay as they were."""
        cfg = {"synth": {"n": 20000, "group_probs": {"race": {"A": 0.5, "B": 0.5}}}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        base = ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path),
                "--dataset", str(tmp_path / "dataset.csv")]
        fairness = ["--fairness", "maximin_outcome:race:0.39"]
        for argv in (["synth"], ["fit"], ["optimize"] + fairness):
            assert cli.main(argv + base) == 0
        written = ("topology.json", "eligibility.txt")
        before = [(tmp_path / name).read_bytes() for name in written]
        (tmp_path / "config.json").write_text(json.dumps({**cfg, "solver": {"node_limit": 1}}))
        capsys.readouterr()
        assert cli.main(["optimize"] + fairness + base) == cli.EXIT_LIMITS
        err = capsys.readouterr().err
        assert "without a proven optimum: Solution limit reached; gap 0.000118" in err
        assert "dual bound 0.425" in err
        assert [(tmp_path / name).read_bytes() for name in written] == before

    def test_oracle_cross_check_matches_milp_route(self, workspace, tmp_path, oracles):
        root, base = workspace_copy(workspace, tmp_path)
        assert cli.main(["optimize", "--oracle"] + base) == 0
        milp = json.loads((root / "topology.json").read_text())
        [oracle] = oracles
        assert oracle.objective == pytest.approx(milp["objective"], abs=1e-6)
        assert milp["oracle_objective"] == oracle.objective

    def test_oracle_disagreement_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        """An oracle whose optimum differs from the MIO's by more than 1e-6
        fails the run with exit 1 once topology.json records the mismatch."""
        root, base = workspace_copy(workspace, tmp_path)
        enumerate_oracle = optimizer.enumerate_oracle

        def worse(model):
            result = enumerate_oracle(model)
            return dataclasses.replace(result, objective=result.objective - 0.01)
        monkeypatch.setattr(optimizer, "enumerate_oracle", worse)
        capsys.readouterr()
        assert cli.main(["optimize", "--oracle"] + base) == 1
        assert "oracle cross-check FAILED" in capsys.readouterr().err
        payload = json.loads((root / "topology.json").read_text())
        assert payload["oracle_match"] is False
        assert payload["oracle_objective"] == pytest.approx(payload["objective"] - 0.01)


class TestSimulateAndEvaluate:
    def test_simulate_writes_accounting(self, workspace):
        root, base = workspace
        assert cli.main(["simulate", "--horizon", "1500"] + base) == 0
        lines = (root / "simulation.csv").read_text().strip().splitlines()
        assert lines[0] == "record,queue,resource,value"
        rows = dict()
        for line in lines[1:]:
            kind, q, r, v = line.split(",")
            rows[(kind, q, r)] = v
        assert int(rows[("matched", "", "")]) > 0

    def test_evaluate_idempotent(self, workspace):
        root, base = workspace
        assert cli.main(["evaluate"] + base) == 0
        first = (root / "estimates.csv").read_bytes()
        assert cli.main(["evaluate"] + base) == 0
        assert (root / "estimates.csv").read_bytes() == first
        lines = first.decode().strip().splitlines()
        assert lines[0] == "estimator,scope,group,value,n"
        scopes = {line.split(",")[1] for line in lines[1:]}
        assert {"optimized", "fcfs"} <= scopes
        estimators = {line.split(",")[0] for line in lines[1:]}
        assert {"CT", "DM", "DR", "IPW", "GT"} <= estimators


    def test_estimator_rows_in_table_order(self, workspace, tmp_path):
        root, base = workspace_copy(workspace, tmp_path, sq_cuts={
            "SO": [-1, 1], "RRH": [-1, 1], "PSH": [0.2, 1]},
            fairness={"dimension": "race"})
        assert cli.main(["evaluate"] + base) == 0
        rows = read_estimates(root)
        scopes = list(dict.fromkeys(row["scope"] for row in rows))
        assert scopes == ["optimized", "fcfs", "sq"]
        for scope in scopes:
            overall = [row["estimator"] for row in rows
                       if row["scope"] == scope and not row["group"]]
            assert overall == list(ope.ESTIMATORS)

    @pytest.mark.parametrize("verb", ["optimize", "evaluate"])
    def test_each_model_predicts_once(self, workspace, tmp_path, monkeypatch, verb):
        """fit's record holds each kept record's model predictions, so the
        later verbs predict nothing."""
        _, base = workspace_copy(workspace, tmp_path)
        calls = []
        predict = causal.DecisionTree.predict
        monkeypatch.setattr(causal.DecisionTree, "predict",
                            lambda self, X: calls.append(1) or predict(self, X))
        assert cli.main([verb] + base) == 0
        assert len(calls) == 0

    def test_evaluate_after_grouped_optimize_names_the_settings(
            self, workspace, tmp_path, capsys):
        _, base = workspace_copy(workspace, tmp_path)
        assert cli.main(["optimize", "--fairness", "maximin_outcome:race:0.0"]
                        + base) == 0
        capsys.readouterr()
        assert cli.main(["evaluate"] + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fairness.dimension" in err and "non_affirmative" in err

    @pytest.mark.parametrize("verb, flags", [("evaluate", []),
                                             ("simulate", ["--horizon", "100"])])
    def test_edge_naming_a_queue_absent_from_instance(self, workspace, tmp_path, capsys,
                                                      verb, flags):
        root, base = workspace_copy(workspace, tmp_path)
        payload = json.loads((root / "topology.json").read_text())
        payload["edges"][0][0] = "q99"
        (root / "topology.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main([verb] + flags + base) == cli.EXIT_DATA
        assert "ids absent from instance: ['q99']" in capsys.readouterr().err


class TestFitSettings:
    """optimize and evaluate solve and value the instance fit learned,
    whatever the config says of the settings only fit reads."""

    VERBS_OUT = {"optimize": ["topology.json", "eligibility.txt"],
                 "evaluate": ["estimates.csv"]}

    def _runs_agree(self, root, configs):
        """optimize then evaluate on a copy of ``root`` per config; each
        output file is the same in every copy. Returns the first copy's."""
        outputs = []
        for i, config in enumerate(configs):
            run = root.parent / f"{root.name}-run{i}"
            shutil.copytree(root, run)
            (run / "config.json").write_text(json.dumps(config))
            base = ["--config", str(run / "config.json"), "--out", str(run),
                    "--dataset", str(run / "dataset.csv")]
            for verb in self.VERBS_OUT:
                assert cli.main([verb] + base) == 0
            outputs.append({name: (run / name).read_bytes()
                            for files in self.VERBS_OUT.values() for name in files})
        assert outputs[1:] == outputs[:1] * (len(outputs) - 1)
        return outputs[0]

    @pytest.mark.parametrize("first", ["x2", "noise"])
    def test_queues_follow_the_trees_feature_mode(self, tmp_path, first):
        # the trees split on x2 for "x2" and on the score for "noise"
        ds = synth.generate(synth.SynthParams(n=6000, seed=0))
        column = (2 * ds.score if first == "x2"
                  else np.random.default_rng(1).uniform(5.0, 6.0, len(ds)))
        core.Dataset(np.column_stack([column, ds.score]), ds.score, {}, ds.treatment,
                     ds.outcome, ds.arrival_time, ds.resource_set, [first, "score"],
                     potential_outcomes=ds.potential_outcomes
                     ).to_csv(tmp_path / "dataset.csv")
        config = {"feature_names": [first, "score"],
                  "tree_params": {"min_node_size": 200, "max_depth": 2}}
        fitted = {**config, "features": "all"}
        (tmp_path / "config.json").write_text(json.dumps(fitted))
        assert cli.main(["fit", "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path),
                         "--dataset", str(tmp_path / "dataset.csv")]) == 0
        self._runs_agree(tmp_path, [fitted, config])

    def test_rates_follow_fits_rho(self, workspace, tmp_path):
        root, base = workspace_copy(workspace, tmp_path)
        assert cli.main(["fit", "--rho", "0.8"] + base) == 0
        config = json.loads((root / "config.json").read_text())
        outputs = self._runs_agree(root, [config, {**config, "rho": 0.8}])
        report = json.loads((root / "fit_report.json").read_text())
        topology = json.loads(outputs["topology.json"])
        assert topology["mu"] == [report["mu"][r] for r in topology["resources"]]
        assert topology["rho"] == report["rho"] == 0.8

    @pytest.mark.parametrize("verb", ["optimize", "evaluate"])
    def test_models_without_settings_ask_for_fit(self, workspace, tmp_path, capsys,
                                                 verb):
        """A record that lacks what fit writes asks for fit again."""
        root, base = workspace_copy(workspace, tmp_path)
        record = json.loads((root / cli.RECORD_JSON).read_text())
        del record["rho"]
        (root / cli.RECORD_JSON).write_text(json.dumps(record))
        capsys.readouterr()
        assert cli.main([verb] + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "record" in err and "incomplete" in err and "re-run `fit`" in err


class TestRecord:
    """fit's record: what the later verbs read in place of learning again."""

    GROUPED = ["--fairness", "maximin_outcome:race:0.0"]

    @staticmethod
    def _assert_codes_are_unique_inverse(a):
        values, inverse = np.unique(a, return_inverse=True)
        want = cli._compact(inverse.reshape(a.shape))
        got_values, got = cli._codes(a)
        assert np.array_equal(got_values, values)     # 0.0 == -0.0
        assert got.dtype == want.dtype and got.shape == a.shape
        assert np.array_equal(got, want)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_codes_are_unique_inverse(self, data):
        """Blocks of a few entries, so arrays span none, one or many blocks
        and end inside or at the end of one."""
        block = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(0, 4 * block + 1))
        shape = data.draw(st.sampled_from([(n,), (n, 3)]))
        pool = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.25, -3.5, 1e-300])
                                  | st.floats(-2, 2), min_size=1, max_size=5))
        a = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=int(np.prod(shape)),
                                        max_size=int(np.prod(shape)))),
                     dtype=float).reshape(shape)
        with mock.patch.object(cli, "_CODE_BLOCK", block):
            self._assert_codes_are_unique_inverse(a)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * cli._CODE_BLOCK + 5])
    def test_codes_are_unique_inverse_across_blocks(self, extra):
        """The block size in use, with 300 distinct values, so two-byte codes."""
        rng = np.random.default_rng(extra + 1)
        a = rng.integers(-150, 150, cli._CODE_BLOCK + extra) / 7
        a[rng.random(len(a)) < 0.1] = -0.0
        self._assert_codes_are_unique_inverse(a)
        self._assert_codes_are_unique_inverse(a[:len(a) // 3 * 3].reshape(-1, 3))

    def test_byte_identical_across_fits(self, workspace, tmp_path):
        root, base = workspace_copy(workspace, tmp_path)
        first = {name: (root / name).read_bytes()
                 for name in (cli.RECORD_JSON, cli.RECORD_ARRAYS)}
        for name in first:
            (root / name).unlink()
        assert cli.main(["fit"] + base) == 0
        assert {name: (root / name).read_bytes() for name in first} == first

    @pytest.mark.parametrize("verb, flags", [
        ("optimize", []), ("optimize", ["--oracle"]), ("evaluate", []),
        ("optimize", GROUPED), ("evaluate", ["--non-affirmative"])])
    def test_another_dataset_asks_for_fit(self, workspace, tmp_path, capsys, verb, flags):
        root, base = workspace_copy(workspace, tmp_path, fairness={"dimension": "race"})
        lines = (root / "dataset.csv").read_text().splitlines(keepends=True)
        (root / "dataset.csv").write_text("".join(lines[:-1]))     # one record fewer
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        capsys.readouterr()
        assert cli.main([verb] + flags + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "dataset.csv is not the dataset `fit` learned from" in err
        assert "re-run `fit`" in err
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("damage", ["no json", "no arrays", "short json",
                                        "short arrays", "other arrays"])
    @pytest.mark.parametrize("verb", ["optimize", "evaluate"])
    def test_missing_or_truncated_record_asks_for_fit(self, workspace, tmp_path, capsys,
                                                      damage, verb):
        root, base = workspace_copy(workspace, tmp_path)
        name = cli.RECORD_JSON if "json" in damage else cli.RECORD_ARRAYS
        path = root / name
        if damage.startswith("no"):
            path.unlink()
        elif damage.startswith("short"):
            path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
        else:
            arrays = dict(np.load(path))
            arrays["pbar"] = arrays["pbar"][::-1]
            np.savez(path, **arrays)
        capsys.readouterr()
        assert cli.main([verb] + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "`fit`" in err
        assert (f"{name} not found" in err if damage.startswith("no")
                else "incomplete; re-run `fit`" in err)

    @pytest.mark.parametrize("flags", [[], ["--non-affirmative"]])
    def test_resources_other_than_fits_are_refused(self, workspace, tmp_path, capsys,
                                                   flags):
        """The order of ``resources`` fixes the baseline, so a config whose
        list is not fit's, order included, exits 2 and names fit's list."""
        root, base = workspace_copy(workspace, tmp_path, fairness={"dimension": "race"},
                                    resources=["RRH", "SO", "PSH"])
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        capsys.readouterr()
        assert cli.main(["optimize"] + flags + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "resources must be fit's ['SO', 'RRH', 'PSH']" in err
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    def test_grouped_verbs_read_only_the_record_and_labels(self, tmp_path, monkeypatch):
        """Fairness, non-affirmative and oracle runs split fit's recorded rows
        by label: with ``models.json`` gone and no tree walked, they write
        the bytes of a run that has it."""
        root = tmp_path / "with"
        root.mkdir()
        (root / "config.json").write_text(json.dumps({
            "synth": {"n": 6000, "group_probs": {"race": {"A": 0.5, "B": 0.5}}},
            "tree_params": {"min_node_size": 1500, "max_depth": 1},
            "fairness": {"dimension": "race"}}))
        base = ["--config", str(root / "config.json"), "--out", str(root),
                "--dataset", str(root / "dataset.csv")]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["fit"] + base) == 0
        runs = [("optimize", ["--fairness", "maximin_outcome:race:0.3"]),
                ("evaluate", ["--fairness", "maximin_outcome:race:0.3"]),
                ("optimize", ["--non-affirmative", "--oracle"]),
                ("evaluate", ["--non-affirmative"])]
        outputs = []
        for name in ("with", "without"):
            run = tmp_path / f"run-{name}"
            shutil.copytree(root, run)
            args = ["--config", str(run / "config.json"), "--out", str(run),
                    "--dataset", str(run / "dataset.csv")]
            if name == "without":
                (run / "models.json").unlink()

                def refuse(*args, **kwargs):
                    raise AssertionError("a grouped verb read the models")
                monkeypatch.setattr(causal, "load_models", refuse)
                monkeypatch.setattr(causal.DecisionTree, "leaf_ids", refuse)
                monkeypatch.setattr(causal.DecisionTree, "predict", refuse)
            files = {}
            for verb, flags in runs:
                assert cli.main([verb] + flags + args) == 0
                files.update({p.name: p.read_bytes() for p in run.iterdir()
                              if p.name != "models.json"})
            outputs.append(files)
        assert len(json.loads(outputs[0]["topology.json"])["queues"]) * 3 <= 16
        assert outputs[0] == outputs[1]

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6), share=st.sampled_from([0.3, 0.5, 1.0]))
    def test_grouped_verbs_split_what_learn_splits(self, seed, share):
        """A grouped verb splits fit's queues by label from the record and
        the saved trees; its queues, rates, effects (bit for bit), score cells
        and groups are those of ``causal.learn`` with the group dimension."""
        probs = {"A": share, "B": 1 - share} if share < 1 else {"A": 1.0}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "config.json").write_text(json.dumps({
                "seed": seed % 7,
                "tree_params": {"min_node_size": 200, "max_depth": 2, "honest": True},
                "fairness": {"dimension": "race"}, "non_affirmative": True}))
            dataset = synth.generate(synth.SynthParams(n=3000, seed=seed,
                                                       group_probs={"race": probs}))
            dataset.to_csv(root / "dataset.csv")
            cfg = cli.load_config(root / "config.json", {
                "out_dir": str(root), "dataset": str(root / "dataset.csv")})
            assert cli.main(["fit", "--config", str(root / "config.json"),
                             "--out", str(root),
                             "--dataset", str(root / "dataset.csv")]) == 0
            fitted = cli._fitted(cfg, ["DR"])
            learned = causal.learn(cli._load_dataset(cfg), cli._pipeline_params(cfg),
                                   seed % 7, group_dimension="race")
        assert fitted.instance == learned.instance
        tau = causal.effects(fitted.table, fitted.instance.n_queues)
        assert np.array_equal(tau.tau, learned.tau.tau)
        assert tau.baseline_mean == learned.tau.baseline_mean
        assert fitted.score_cells == learned.partition.score_cells
        assert fitted.groups == learned.groups
        assert (len(fitted.groups) == 2) == (share < 1)


class TestNonAffirmative:
    def test_score_cells_share_eligibility_rows(self, workspace, tmp_path):
        root, base = workspace_copy(workspace, tmp_path, fairness={"dimension": "race"})
        assert cli.main(["optimize", "--non-affirmative"] + base) == 0
        payload = json.loads((root / "topology.json").read_text())
        rows = {q: set() for q in payload["queues"]}
        for q, r in payload["edges"]:
            rows[q].add(r)
        cells = {}
        for q in payload["queues"]:
            cells.setdefault(q.rsplit(":", 1)[0], []).append(rows[q])
        shared = [c for c in cells.values() if len(c) > 1]
        assert shared
        assert all(row == cell[0] for cell in shared for row in cell)
        assert cli.main(["evaluate", "--non-affirmative"] + base) == 0
        assert {"A", "B"} <= {row["group"] for row in read_estimates(root)}

    def test_oracle_routes_keep_the_links(self, tmp_path, oracles):
        """The cross-check's oracle searches the linked topologies only, so it
        finds the linked MIO's topology."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "synth": {"n": 6000, "group_probs": {"race": {"A": 0.5, "B": 0.5}}},
            "tree_params": {"min_node_size": 1500, "max_depth": 1},
            "fairness": {"dimension": "race"}}))
        base = ["--config", str(cfg), "--out", str(tmp_path),
                "--dataset", str(tmp_path / "dataset.csv")]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["fit"] + base) == 0
        assert cli.main(["optimize", "--oracle", "--non-affirmative"] + base) == 0
        milp = json.loads((tmp_path / "topology.json").read_text())
        assert len(milp["queues"]) > 1 and milp["oracle_match"] is True
        [oracle] = oracles
        assert [[milp["queues"][q], milp["resources"][r]]
                for q, r in zip(*np.nonzero(oracle.topology.m))] == milp["edges"]
        assert oracle.policy_value == milp["policy_value"]

    @pytest.mark.parametrize("verb", ["optimize", "evaluate"])
    def test_missing_dimension_names_the_key(self, workspace, capsys, verb):
        _, base = workspace
        capsys.readouterr()
        assert cli.main([verb, "--non-affirmative"] + base) == cli.EXIT_CONFIG
        assert "fairness.dimension" in capsys.readouterr().err


class TestStatusQuo:
    def test_admissible_cuts_add_one_row_per_estimator(self, workspace, tmp_path):
        root, base = workspace_copy(workspace, tmp_path, sq_cuts={
            "SO": [-1, 1], "RRH": [-1, 1], "PSH": [0.2, 1]})
        assert cli.main(["evaluate"] + base) == 0
        sq = Counter(row["estimator"] for row in read_estimates(root)
                     if row["scope"] == "sq")
        assert sq == Counter(ope.ESTIMATORS)

    def test_inadmissible_cuts_are_skipped(self, workspace, tmp_path, capsys):
        root, base = workspace_copy(workspace, tmp_path, sq_cuts={
            "SO": [-1, 0], "RRH": [0, 0.5], "PSH": [0.5, 1]})
        capsys.readouterr()
        assert cli.main(["evaluate"] + base) == 0
        assert ("status-quo topology has no steady-state flow; skipped"
                in capsys.readouterr().err)
        assert all(row["scope"] != "sq" for row in read_estimates(root))

    def test_unknown_resource_is_config_error(self, workspace, tmp_path, capsys):
        _, base = workspace_copy(workspace, tmp_path, sq_cuts={"PHS": [0.5, 1]})
        capsys.readouterr()
        assert cli.main(["evaluate"] + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'PHS'" in err and "['SO', 'RRH', 'PSH']" in err

    def test_cuts_not_an_object_is_config_error(self, workspace, tmp_path, capsys):
        _, base = workspace_copy(workspace, tmp_path, sq_cuts=[["PSH", [0.5, 1]]])
        capsys.readouterr()
        assert cli.main(["evaluate"] + base) == cli.EXIT_CONFIG
        assert "sq_cuts must map resource names" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [[0.5], [0.5, 1, 2], ["0", 1], [True, 1], 0.5,
                                     {"lo": 0, "hi": 1}])
    def test_cut_not_a_pair_is_config_error(self, workspace, tmp_path, capsys, cut):
        _, base = workspace_copy(workspace, tmp_path, sq_cuts={"PSH": cut})
        capsys.readouterr()
        assert cli.main(["evaluate"] + base) == cli.EXIT_CONFIG
        assert "sq_cuts['PSH'] must be a [lo, hi] pair" in capsys.readouterr().err


class TestExperiment:
    def test_alpha_sweep_csv(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "experiment": {"alphas": [0.3], "n": 2000, "n_seeds": 1},
        }))
        assert cli.main(["experiment", "alpha", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "alpha_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep_param,seed,estimator,value,n_queues,min_propensity"
        assert len(lines) == 6


class TestExitCodes:
    def test_invalid_json_config(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert cli.main(["fit", "--config", str(bad)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("config, key", [
        ({"mystery_knob": 1}, "mystery_knob"),
        ({"estimators": ["DR"]}, "estimators"),
        ({"fairness": {"baseline_value": 0.3}}, "baseline_value"),
        ({"group_dimensions": ["race"]}, "group_dimensions"),
    ], ids=["mystery_knob", "estimators", "baseline_value", "group_dimensions"])
    def test_unknown_config_key(self, tmp_path, config, key):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(config))
        with pytest.raises(cli.ConfigError, match=key):
            cli.load_config(bad)
        assert cli.main(["fit", "--config", str(bad)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section", ["tree_params", "nuisance_params", "fairness",
                                         "solver", "simulate", "synth", "experiment"])
    def test_unknown_nested_config_key(self, tmp_path, section):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({section: {"min_node_sise": 100}}))
        with pytest.raises(cli.ConfigError, match="min_node_sise"):
            cli.load_config(bad)
        assert cli.main(["fit", "--config", str(bad)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("value", [None, 5])
    @pytest.mark.parametrize("section", ["tree_params", "nuisance_params", "fairness",
                                         "solver", "simulate", "synth", "experiment"])
    def test_config_section_not_an_object(self, tmp_path, section, value):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({section: value}))
        with pytest.raises(cli.ConfigError, match=f"{section} must be an object"):
            cli.load_config(bad)
        assert cli.main(["fit", "--config", str(bad)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("top", [None, 5, "x", [], ["rho"]])
    def test_config_not_an_object(self, tmp_path, top):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps(top))
        with pytest.raises(cli.ConfigError, match="config must be a JSON object"):
            cli.load_config(bad)
        assert cli.main(["fit", "--config", str(bad)]) == cli.EXIT_CONFIG

    def test_group_probs_contents_are_free_form(self, tmp_path):
        path = tmp_path / "cfg.json"
        probs = {"race": {"A": 0.3, "B": 0.7}}
        path.write_text(json.dumps({"synth": {"group_probs": probs},
                                    "tree_params": {"min_node_size": 100}}))
        cfg = cli.load_config(path)
        assert cfg["synth"]["group_probs"] == probs
        assert cfg["tree_params"] == {**cli.DEFAULT_CONFIG["tree_params"],
                                      "min_node_size": 100}

    def test_missing_dataset(self, tmp_path):
        assert cli.main(["fit", "--dataset", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_bad_rho(self, tmp_path):
        assert cli.main(["fit", "--rho", "1.5",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("verb", ["synth", "fit", "simulate"])
    @pytest.mark.parametrize("flags, config, shown", [
        (["--seed", "-1"], {}, "-1"),
        ([], {"seed": "abc"}, "'abc'"),
        ([], {"seed": 1.7}, "1.7"),
        ([], {"seed": True}, "True"),
    ], ids=["negative", "string", "float", "bool"])
    def test_bad_seed(self, workspace, tmp_path, capsys, verb, flags, config, shown):
        root, base = workspace_copy(workspace, tmp_path, **config)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        capsys.readouterr()
        assert cli.main([verb] + flags + base) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"configuration error: seed must be a non-negative integer, not {shown}\n"
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("flags, config, shown", [
        (["--alpha", "5"], {}, "5.0"),
        (["--alpha", "-1"], {}, "-1.0"),
        (["--alpha", "nan"], {}, "nan"),
        ([], {"synth": {"alpha": "0.1"}}, "'0.1'"),
    ], ids=["above", "negative", "nan", "string"])
    def test_bad_alpha(self, tmp_path, capsys, flags, config, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)] + flags) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"configuration error: synth.alpha must lie in (0, 0.7), not {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, shown", [
        (["synth"], {"synth": {"n": 2.7}}, "synth.n must be a positive integer, not 2.7"),
        (["synth"], {"synth": {"n": 0}}, "synth.n must be a positive integer, not 0"),
        (["synth"], {"synth": {"n": "ten"}}, "synth.n must be a positive integer, not 'ten'"),
        (["experiment", "alpha"], {"experiment": {"n": True}},
         "experiment.n must be a positive integer, not True"),
        (["experiment", "queues"], {"experiment": {"n_seeds": "x"}},
         "experiment.n_seeds must be a positive integer, not 'x'"),
        (["experiment", "alpha"], {"experiment": {"n_seeds": 0}},
         "experiment.n_seeds must be a positive integer, not 0"),
        (["optimize"], {"solver": {"time_limit_s": "abc"}},
         "solver.time_limit_s must be null or a number >= 0, not 'abc'"),
        (["optimize"], {"solver": {"time_limit_s": float("nan")}},
         "solver.time_limit_s must be null or a number >= 0, not nan"),
        (["optimize"], {"solver": {"time_limit_s": True}},
         "solver.time_limit_s must be null or a number >= 0, not True"),
        (["optimize"], {"solver": {"time_limit_s": -1}},
         "solver.time_limit_s must be null or a number >= 0, not -1"),
        (["optimize"], {"solver": {"node_limit": "x"}},
         "solver.node_limit must be null or an integer in [0, 2147483647], not 'x'"),
        (["optimize"], {"solver": {"node_limit": 2.5}},
         "solver.node_limit must be null or an integer in [0, 2147483647], not 2.5"),
        (["optimize"], {"solver": {"node_limit": True}},
         "solver.node_limit must be null or an integer in [0, 2147483647], not True"),
        (["optimize"], {"solver": {"node_limit": -1}},
         "solver.node_limit must be null or an integer in [0, 2147483647], not -1"),
        # these once ended in a traceback, exit 1
        (["optimize"], {"solver": {"time_limit_s": 10**400}},
         f"solver.time_limit_s must be null or a number >= 0, not {10**400}"),
        (["optimize"], {"solver": {"node_limit": 2**31}},
         "solver.node_limit must be null or an integer in [0, 2147483647], not 2147483648"),
    ], ids=["synth-float", "synth-zero", "synth-string", "experiment-bool",
            "seeds-string", "seeds-zero", "time-string", "time-nan", "time-bool",
            "time-negative", "nodes-string", "nodes-float", "nodes-bool",
            "nodes-negative", "time-beyond-float", "nodes-beyond-int32"])
    def test_bad_count_or_limit(self, tmp_path, capsys, argv, config, shown):
        """Checked before anything is read or written: ``optimize`` names the
        solver key, not the missing record."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, shown", [
        # each of these once exited 0, 1, 3 or 4, or ran another setting
        (["fit"], {"positivity_threshold": "0.1"},
         "positivity_threshold must lie in [0, 1), not '0.1'"),
        (["fit"], {"positivity_threshold": True},
         "positivity_threshold must lie in [0, 1), not True"),
        (["fit"], {"tree_params": {"min_node_size": "400"}},
         "tree_params.min_node_size must be a positive integer, not '400'"),
        (["fit"], {"tree_params": {"min_node_size": True}},
         "tree_params.min_node_size must be a positive integer, not True"),
        (["fit"], {"nuisance_params": {"max_depth": 2.5}},
         "nuisance_params.max_depth must be null or a non-negative integer, not 2.5"),
        (["fit"], {"tree_params": {"honest": "no"}},
         "tree_params.honest must be true or false, not 'no'"),
        (["fit"], {"features": "al"}, 'features must be "score" or "all", not \'al\''),
        (["simulate"], {"simulate": {"horizon_days": True}},
         "simulate.horizon_days must be finite and > 0, not True"),
        (["simulate"], {"simulate": {"horizon_days": "500"}},
         "simulate.horizon_days must be finite and > 0, not '500'"),
        (["simulate"], {"simulate": {"horizon_days": 10**400}},
         f"simulate.horizon_days must be finite and > 0, not {10**400}"),
        (["simulate"], {"simulate": {"warmup_fraction": False}},
         "simulate.warmup_fraction must lie in [0, 1), not False"),
        (["optimize"], {"fairness": {"kind": "maximin_outcome", "dimension": "race",
                                     "bound": True}},
         "fairness.bound must be a finite number, not True"),
        (["optimize", "--fairness", "maximin_outcome:race:nan"], {},
         "fairness.bound must be a finite number, not nan"),
        (["optimize", "--fairness", "maximin_outcome:race:inf"], {},
         "fairness.bound must be a finite number, not inf"),
        (["optimize"], {"fairness": {"kind": "maximin_outcome", "dimension": "race",
                                     "bound": "0.3"}},
         "fairness.bound must be a finite number, not '0.3'"),
        (["optimize"], {"fairness": {"kind": "maximin_outcome", "dimension": "race",
                                     "bound": -10**400}},
         f"fairness.bound must be a finite number, not {-10**400}"),
        (["optimize"], {"non_affirmative": "no", "fairness": {"dimension": "race"}},
         "non_affirmative must be true or false, not 'no'"),
        # a bool, or an int for a flag, and a numeric string for each other key
        (["experiment", "alpha"], {"positivity_threshold": False},
         "positivity_threshold must lie in [0, 1), not False"),
        (["fit"], {"features": True}, 'features must be "score" or "all", not True'),
        (["experiment", "queues"], {"features": "1"},
         'features must be "score" or "all", not \'1\''),
        (["fit"], {"nuisance_params": {"min_node_size": True}},
         "nuisance_params.min_node_size must be a positive integer, not True"),
        (["fit"], {"nuisance_params": {"min_node_size": "50"}},
         "nuisance_params.min_node_size must be a positive integer, not '50'"),
        (["fit"], {"tree_params": {"max_depth": True}},
         "tree_params.max_depth must be null or a non-negative integer, not True"),
        (["fit"], {"tree_params": {"max_depth": "3"}},
         "tree_params.max_depth must be null or a non-negative integer, not '3'"),
        (["fit"], {"nuisance_params": {"max_depth": False}},
         "nuisance_params.max_depth must be null or a non-negative integer, not False"),
        (["fit"], {"nuisance_params": {"max_depth": "10"}},
         "nuisance_params.max_depth must be null or a non-negative integer, not '10'"),
        (["fit"], {"tree_params": {"honest": 1}},
         "tree_params.honest must be true or false, not 1"),
        (["fit"], {"tree_params": {"honest": "1"}},
         "tree_params.honest must be true or false, not '1'"),
        (["optimize"], {"fairness": {"kind": "parity_outcome", "dimension": "race",
                                     "bound": "1"}},
         "fairness.bound must be a finite number, not '1'"),
        (["evaluate"], {"non_affirmative": 1, "fairness": {"dimension": "race"}},
         "non_affirmative must be true or false, not 1"),
        (["evaluate"], {"non_affirmative": "0"},
         "non_affirmative must be true or false, not '0'"),
        (["optimize"], {"fairness": {"kind": "maximin"}},
         "fairness.kind must be one of none, maximin_allocation, parity_allocation, "
         "maximin_outcome, parity_outcome, not 'maximin'"),
        (["evaluate", "--fairness", "true:race:0"], {},
         "fairness.kind must be one of none, maximin_allocation, parity_allocation, "
         "maximin_outcome, parity_outcome, not 'true'"),
    ], ids=["threshold-string", "threshold-bool", "size-string", "size-bool",
            "nuisance-depth-float", "honest-string", "features-typo", "horizon-bool",
            "horizon-string", "horizon-beyond-float", "warmup-bool", "bound-bool",
            "bound-nan", "bound-inf", "bound-string", "bound-beyond-float", "linked-string", "experiment-threshold-bool",
            "features-bool", "experiment-features-string", "nuisance-size-bool",
            "nuisance-size-string", "depth-bool", "depth-string",
            "nuisance-depth-bool", "nuisance-depth-string", "honest-int",
            "honest-numeric-string", "parity-bound-string", "evaluate-linked-int",
            "evaluate-linked-string", "kind-unknown", "evaluate-kind-unknown"])
    def test_bad_setting_names_the_key(self, workspace, tmp_path, capsys, argv, config,
                                       shown):
        """A verb checks each setting it reads before it reads or writes a
        file; no bool or numeric string passes as a number."""
        root, base = workspace_copy(workspace, tmp_path, **config)
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        capsys.readouterr()
        assert cli.main(argv + base) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"configuration error: {shown}\n")
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("argv, config, shown", [
        # each of these once ended in a traceback, exit 1, or in exit 3
        (["fit"], {"resources": 5}, "resources must be a list of distinct strings, not 5"),
        (["fit"], {"resources": None},
         "resources must be a list of distinct strings, not None"),
        (["optimize"], {"resources": ["SO", "RRH", "SO"]},
         "resources must be a list of distinct strings, not ['SO', 'RRH', 'SO']"),
        (["fit"], {"feature_names": 5}, "feature_names must be a list of strings, not 5"),
        (["fit"], {"feature_names": None}, "feature_names must be a list of strings, not None"),
        (["evaluate"], {"feature_names": [1]},
         "feature_names must be a list of strings, not [1]"),
        (["synth"], {"synth": {"group_probs": 5}}, "synth.group_probs must map each "
         "dimension to an object of label weights >= 0, not all 0, not 5"),
        (["synth"], {"synth": {"group_probs": ["race"]}}, "synth.group_probs must map each "
         "dimension to an object of label weights >= 0, not all 0, not ['race']"),
        (["synth"], {"synth": {"group_probs": {"race": 5}}}, "synth.group_probs must map "
         "each dimension to an object of label weights >= 0, not all 0, not {'race': 5}"),
        (["synth"], {"synth": {"group_probs": {"race": {"A": -1, "B": 2}}}},
         "synth.group_probs must map each dimension to an object of label weights >= 0, "
         "not all 0, not {'race': {'A': -1, 'B': 2}}"),
        (["synth"], {"synth": {"group_probs": {"race": {"A": 0, "B": 0.0}}}},
         "synth.group_probs must map each dimension to an object of label weights >= 0, "
         "not all 0, not {'race': {'A': 0, 'B': 0.0}}"),
        (["synth"], {"synth": {"group_probs": {"race": {"A": "0.5"}}}},
         "synth.group_probs must map each dimension to an object of label weights >= 0, "
         "not all 0, not {'race': {'A': '0.5'}}"),
        (["experiment", "alpha"], {"experiment": {"alphas": 5}},
         "experiment.alphas must be a list of numbers in (0, 0.7), not 5"),
        (["experiment", "queues"], {"experiment": {"alphas": [0.1, 0.7]}},
         "experiment.alphas must be a list of numbers in (0, 0.7), not [0.1, 0.7]"),
        (["experiment", "queues"], {"experiment": {"min_node_sizes": "x"}},
         "experiment.min_node_sizes must be a list of positive integers, not 'x'"),
        (["experiment", "alpha"], {"experiment": {"min_node_sizes": [400, 0]}},
         "experiment.min_node_sizes must be a list of positive integers, not [400, 0]"),
        (["fit"], {"fairness": {"dimension": 5}}, "fairness.dimension must be a string, not 5"),
        (["optimize"], {"fairness": {"kind": "maximin_outcome", "dimension": 5,
                                     "bound": 0.3}},
         "fairness.dimension must be a string, not 5"),
        (["evaluate"], {"fairness": {"dimension": None}},
         "fairness.dimension must be a string, not None"),
    ], ids=["resources-int", "resources-null", "resources-repeated", "features-int",
            "features-null", "evaluate-features-int", "probs-int", "probs-list",
            "probs-dimension-int", "probs-negative", "probs-zero", "probs-string",
            "alphas-int", "alphas-out-of-range", "sizes-string", "sizes-zero",
            "dimension-int", "optimize-dimension-int", "evaluate-dimension-null"])
    def test_malformed_setting_names_the_key(self, workspace, tmp_path, capsys, argv,
                                             config, shown):
        """Settings that are lists or objects have rules too, checked before
        any file is read or written."""
        root, base = workspace_copy(
            workspace, tmp_path, **{"fairness": {"dimension": "race"}, **config})
        before = {p.name: p.read_bytes() for p in root.iterdir()}
        capsys.readouterr()
        assert cli.main(argv + base) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"configuration error: {shown}\n")
        assert {p.name: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("argv, config, shown", [
        (["synth"], {"out_dir": None}, "out_dir must be a string, not None"),
        (["simulate"], {"out_dir": 5}, "out_dir must be a string, not 5"),
        (["fit", "--out", "out"], {"dataset": None}, "dataset must be a string, not None"),
        (["fit", "--out", "out"], {"dataset": ["dataset.csv"]},
         "dataset must be a string, not ['dataset.csv']"),
    ], ids=["out-null", "out-int", "dataset-null", "dataset-list"])
    def test_malformed_path_names_the_key(self, tmp_path, monkeypatch, capsys, argv,
                                          config, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        capsys.readouterr()
        assert cli.main(argv + ["--config", "cfg.json"]) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"configuration error: {shown}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_each_config_key_has_a_rule(self):
        """No setting reaches the code unchecked. ``sq_cuts`` alone is checked
        where it is read, against the fitted instance's resources."""
        leaves = set()
        for key, value in cli.DEFAULT_CONFIG.items():
            leaves |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
        assert leaves == set(cli.SETTINGS) | {"sq_cuts"}

    @pytest.mark.parametrize("verb, config", [
        ("simulate", {"tree_params": {"honest": "no"}}),
        ("fit", {"fairness": {"bound": "x"}}),
        ("fit", {"fairness": {"kind": "x"}, "non_affirmative": "no"}),
        ("optimize", {"features": "al", "positivity_threshold": True}),
    ])
    def test_verbs_ignore_the_settings_they_do_not_read(self, workspace, tmp_path,
                                                        verb, config):
        _, base = workspace_copy(workspace, tmp_path, **config)
        assert cli.main([verb] + base) == 0

    def test_readme_lists_each_setting_with_the_verbs_that_check_it(
            self, workspace, tmp_path, monkeypatch):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = text.split("| setting | allowed values | read by |\n|---|---|---|\n")[1]
        documented = {}
        for row in table.split("\n\n")[0].splitlines():
            keys, _, verbs = row.strip("|").split(" | ")
            for key in re.findall(r"`(.+?)`", keys):
                documented[key] = set(re.findall(r"`(.+?)`", verbs))
        checked, setting = {}, cli._setting

        def recorded(cfg, key):
            checked.setdefault(key, set()).add(verb)
            return setting(cfg, key)
        monkeypatch.setattr(cli, "_setting", recorded)
        _, base = workspace_copy(
            workspace, tmp_path,
            fairness={"kind": "maximin_outcome", "dimension": "race", "bound": 0.0},
            experiment={"n": 2000, "n_seeds": 1, "alphas": [0.1]})
        for verb in cli.VERB_FLAGS:
            argv = [verb] + (["alpha"] if verb == "experiment" else [])
            assert cli.main(argv + base) == 0
        assert set(documented) == set(cli.SETTINGS)
        assert checked == documented

    @pytest.mark.parametrize("source", ["README", "cli docstring"])
    def test_each_exit_code_is_documented_with_its_meaning(self, source):
        meaning = {0: "success", 1: "the `optimize --oracle` cross-check disagreed",
                   cli.EXIT_CONFIG: "configuration error", cli.EXIT_DATA: "data error",
                   cli.EXIT_INFEASIBLE: "infeasible model",
                   cli.EXIT_LIMITS: "HiGHS stopped without a proven optimum, with or "
                                    "without an incumbent",
                   cli.EXIT_POSTSOLVE: "post-solve check failed"}
        assert len(meaning) == 2 + sum(name.startswith("EXIT_") for name in vars(cli))
        text = ((Path(__file__).parents[1] / "README.md").read_text()
                if source == "README" else cli.__doc__)
        text = " ".join(text.split())
        sentence = re.search(r"Exit codes: (.+?)\. ", text).group(1)
        documented = dict(item.split(" ", 1) for item in re.split(r", (?=\d )", sentence))
        assert list(documented) == [str(code) for code in sorted(meaning)]
        for code, words in meaning.items():
            assert documented[str(code)].startswith(words)
        assert f"On exits {cli.EXIT_INFEASIBLE} to {cli.EXIT_POSTSOLVE}" in text

    def test_malformed_dataset_is_data_error(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("id,score\n0,0.5\n")
        assert cli.main(["fit", "--dataset", str(path),
                         "--out", str(tmp_path)]) == cli.EXIT_DATA

    def test_non_numeric_score_is_data_error(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("id,score,treatment,outcome,arrival_time\n0,high,PSH,1,0.5\n")
        assert cli.main(["fit", "--dataset", str(path),
                         "--out", str(tmp_path)]) == cli.EXIT_DATA

    @pytest.mark.parametrize("verb, flag", [
        ("synth", "--rho"), ("synth", "--fairness"), ("synth", "--non-affirmative"),
        ("fit", "--fairness"), ("fit", "--non-affirmative"),
        ("optimize", "--seed"), ("optimize", "--rho"),
        ("simulate", "--rho"), ("simulate", "--fairness"),
        ("simulate", "--non-affirmative"),
        ("evaluate", "--seed"), ("evaluate", "--rho"),
        ("experiment", "--seed"), ("experiment", "--fairness"),
        ("experiment", "--non-affirmative"),
    ])
    def test_flag_the_verb_does_not_read_is_a_usage_error(self, tmp_path, capsys,
                                                          verb, flag):
        value = {"--seed": ["1"], "--rho": ["0.8"], "--non-affirmative": [],
                 "--fairness": ["maximin_outcome:race:0"]}[flag]
        argv = [verb] + (["alpha"] if verb == "experiment" else []) + [flag] + value
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"fairmatch {verb}: error: unrecognized arguments: {flag}" in err
        # the usage is the verb's own and lists every flag it takes
        usage = " ".join(err.split("error:")[0].split())
        assert usage.startswith(f"usage: fairmatch {verb} ")
        for taken in ("--config", "--out", "--dataset") + cli.VERB_FLAGS[verb]:
            assert f"[{taken}" in usage
        assert list(tmp_path.iterdir()) == []

    def test_oracle_is_not_a_verb(self, tmp_path, capsys):
        """``optimize --oracle`` is the one oracle route."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'oracle'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert len(cli.VERB_FLAGS) == 6
        assert sum(3 + len(flags) for flags in cli.VERB_FLAGS.values()) == 30

    @pytest.mark.parametrize("argv", [["--rho", "0.8", "simulate"],
                                      ["--rho=0.8", "fit"],
                                      ["--non-affirmative", "optimize"]])
    def test_flag_before_the_verb_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = argv[0].split("=")[0]
        assert f"fairmatch: error: {flag} is not a top-level flag; flags follow the verb" in err
        assert "invalid choice" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb", ["fit", "experiment"])
    def test_bad_rho_in_config_for_the_verbs_that_read_it(self, tmp_path, capsys, verb):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 1.5}))
        out = tmp_path / "out"
        capsys.readouterr()
        argv = [verb] + (["alpha"] if verb == "experiment" else [])
        assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: rho must lie in (0, 1], not 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("rho", [1.5, "high"])
    def test_verbs_that_do_not_read_rho_ignore_it(self, workspace, tmp_path, rho):
        root, base = workspace_copy(workspace, tmp_path, rho=rho)
        assert cli.load_config(root / "config.json")["rho"] == rho
        assert cli.main(["optimize"] + base) == 0
        assert json.loads((root / "topology.json").read_text())["rho"] == 0.99

    def test_oracle_cross_check_above_cell_limit_is_skipped(self, tmp_path, capsys,
                                                           monkeypatch):
        """On a 15-queue, 3-resource instance ``optimize --oracle`` solves the
        MIO and skips the cross-check without enumerating anything."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "synth": {"n": 6000},
            "tree_params": {"min_node_size": 30, "max_depth": 3, "honest": True},
        }))
        base = ["--config", str(cfg_path), "--out", str(tmp_path),
                "--dataset", str(tmp_path / "dataset.csv")]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["fit"] + base) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert len(report["queues"]) * len(report["mu"]) == 45

        def enumerate_nothing(*args, **kwargs):
            raise AssertionError("the oracle enumerated")
        monkeypatch.setattr(optimizer, "enumerate_oracle", enumerate_nothing)
        capsys.readouterr()
        assert cli.main(["optimize", "--oracle"] + base) == 0
        assert capsys.readouterr().err == \
            "instance too large for the oracle cross-check; skipped\n"
        payload = json.loads((tmp_path / "topology.json").read_text())
        assert "oracle_match" not in payload and "oracle_objective" not in payload

    def test_bad_fairness_flag(self, tmp_path):
        assert cli.main(["optimize", "--fairness", "maximin_outcome",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("error", [optimizer.InexactFlowError,
                                       optimizer.PoolingCutLimitError])
    def test_post_solve_failure(self, workspace, monkeypatch, capsys, error):
        _, base = workspace

        def fail(*args, **kwargs):
            raise error("planted")
        monkeypatch.setattr(optimizer, "solve", fail)
        capsys.readouterr()
        assert cli.main(["optimize"] + base) == cli.EXIT_POSTSOLVE
        assert capsys.readouterr().err.splitlines() == ["post-solve check failed: planted"]

    @pytest.mark.parametrize("flags, config, key", [
        (["--horizon", "inf"], {}, "simulate.horizon_days"),
        (["--horizon", "nan"], {}, "simulate.horizon_days"),
        (["--horizon", "-5"], {}, "simulate.horizon_days"),
        ([], {"simulate": {"horizon_days": "long"}}, "simulate.horizon_days"),
        ([], {"simulate": {"warmup_fraction": 1.5}}, "simulate.warmup_fraction"),
    ], ids=["inf", "nan", "negative", "string", "warmup"])
    def test_bad_simulate_setting(self, workspace, tmp_path, capsys, flags, config, key):
        root, base = workspace_copy(workspace, tmp_path, **config)
        (root / "simulation.csv").unlink(missing_ok=True)
        capsys.readouterr()
        assert cli.main(["simulate"] + flags + base) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err
        assert not (root / "simulation.csv").exists()

    def test_solver_limit(self, workspace, tmp_path, capsys):
        _, base = workspace_copy(workspace, tmp_path, solver={"time_limit_s": 0})
        capsys.readouterr()
        assert cli.main(["optimize"] + base) == cli.EXIT_LIMITS
        assert capsys.readouterr().err.startswith("solver limit:")

    def test_fairness_over_one_label_is_data_error(self, tmp_path):
        # with one observed label the queues are not split by group, so there
        # are no groups to constrain
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "synth": {"n": 3000, "group_probs": {"race": {"A": 1.0}}},
            "tree_params": {"min_node_size": 300, "max_depth": 2, "honest": True},
        }))
        base = ["--config", str(cfg_path), "--out", str(tmp_path),
                "--dataset", str(tmp_path / "dataset.csv")]
        assert cli.main(["synth"] + base) == 0
        assert cli.main(["fit"] + base) == 0
        assert cli.main(["optimize", "--fairness", "maximin_outcome:race:0"]
                        + base) == cli.EXIT_DATA

    def test_infeasible_fairness_bound(self, workspace):
        _, base = workspace
        code = cli.main(["optimize", "--fairness", "maximin_outcome:race:10"]
                        + base)
        assert code == cli.EXIT_INFEASIBLE
