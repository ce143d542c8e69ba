"""What ``import fairmatch`` gives and loads. Every exported name resolves.
The first MIO solve loads HiGHS's binding from scipy and nothing else of
scipy; the import loads none of it, so the verbs that solve no MIO run
without it."""

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
    solved = scipy_modules_after(["optimize"] + base, cwd=tmp_path)
    assert "scipy.optimize._highspy._core" in solved
    assert "scipy.optimize" not in solved
    assert not [m for m in solved if m.startswith("scipy.sparse")]
    assert scipy_modules_after(["evaluate"] + base,
                               ["simulate", "--horizon", "1500"] + base,
                               cwd=tmp_path) == []


BOTH_ORDERS = """
import json, sys
from fractions import Fraction
import numpy as np
from fairmatch import core, optimizer

def solve():
    inst = core.MCMSInstance(("q0", "q1"), ("r0", "r1"), (Fraction(6, 5), Fraction(4, 5)),
                             (Fraction(101, 100), Fraction(101, 100)), 0.99)
    tau = core.CATEMatrix(np.array([[0.0, 0.4], [0.0, -0.2]]))
    result = optimizer.solve(optimizer.build_mio(inst, tau))
    return [result.topology.m.tolist(), result.objective, result.solver_stats]

def milp():
    from scipy import optimize
    res = optimize.milp([-1.0, -3.0], integrality=[1, 1], bounds=optimize.Bounds(0, 3),
                        constraints=optimize.LinearConstraint([[2.0, 3.0]], -np.inf, 7.5))
    return [res.x.tolist(), res.message]

steps = {"solve": solve, "milp": milp}
print(json.dumps({name: steps[name]() for name in sys.argv[1:]}, sort_keys=True))
"""


def test_solve_and_scipy_optimize_share_the_binding(tmp_path):
    """A solve, then ``import scipy.optimize`` and a ``milp`` call, in a fresh
    interpreter; and the other way round. Each succeeds and gives the same."""
    outputs = []
    for order in (["solve", "milp"], ["milp", "solve"]):
        proc = subprocess.run([sys.executable, "-c", BOTH_ORDERS, *order], cwd=tmp_path,
                              env=subprocess_env(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0]["milp"][0] == [0.0, 2.0]
