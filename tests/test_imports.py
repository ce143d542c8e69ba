"""What ``import fairmatch`` gives and loads. Every exported name resolves.
scipy is loaded by the first MIO solve, not by the import: the verbs that
solve no MIO run without it."""

import json
import subprocess
import sys

import fairmatch
from conftest import subprocess_env

RUN_VERBS = """
import json, sys
import fairmatch, fairmatch.cli
for argv in json.loads(sys.argv[1]):
    if fairmatch.cli.main(argv) != 0:
        sys.exit(1)
print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""


def scipy_modules_after(*argvs, cwd):
    """The scipy modules a fresh interpreter holds after importing fairmatch
    and running ``cli.main`` on each argv in turn."""
    proc = subprocess.run([sys.executable, "-c", RUN_VERBS, json.dumps(argvs)],
                          cwd=cwd, env=subprocess_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_exports_resolve_once():
    assert len(set(fairmatch.__all__)) == len(fairmatch.__all__)
    missing = [name for name in fairmatch.__all__ if not hasattr(fairmatch, name)]
    assert missing == []


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after(cwd=tmp_path) == []


def test_only_the_mio_solve_loads_scipy(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"synth": {"n": 3000},
                               "tree_params": {"min_node_size": 300, "max_depth": 2}}))
    base = ["--config", str(cfg), "--out", str(tmp_path),
            "--dataset", str(tmp_path / "dataset.csv")]
    assert scipy_modules_after(["synth"] + base, ["fit"] + base, cwd=tmp_path) == []
    assert "scipy.optimize" in scipy_modules_after(["optimize"] + base, cwd=tmp_path)
    assert scipy_modules_after(["evaluate"] + base,
                               ["simulate", "--horizon", "1500"] + base,
                               cwd=tmp_path) == []
