import csv
import json
import shutil
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fairmatch import causal, cli, ope, optimizer


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset with fitted models and an optimized topology."""
    root = tmp_path_factory.mktemp("ws")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "synth": {"n": 8000, "group_probs": {"race": {"A": 0.5, "B": 0.5}}},
        "group_dimensions": ["race"],
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

    def test_oracle_verb_matches_milp_route(self, workspace, tmp_path):
        root, base = workspace
        milp = json.loads((root / "topology.json").read_text())
        assert cli.main(["oracle"] + base) == 0
        oracle = json.loads((root / "topology.json").read_text())
        assert oracle["objective"] == pytest.approx(milp["objective"], abs=1e-6)
        # restore the MILP payload for later tests
        (root / "topology.json").write_text(json.dumps(milp, indent=1,
                                                       sort_keys=True) + "\n")


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
    ], ids=["mystery_knob", "estimators", "baseline_value"])
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
            "group_dimensions": ["race"],
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
