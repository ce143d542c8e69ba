"""perfbench's traced mode, run end to end on a small dataset."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verbs_exit_0_and_count_every_layer(tmp_path):
    """The traced run wraps the library in place, in its own process. Under
    those wrappers every verb still exits 0 through `cli.main`, and the trace
    counts tree rows, simulator events and MIO solves."""
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        import spans
        from fairmatch import cli
        tracer = spans.Tracer()
        spans.instrument(tracer)
        base = ["--config", "config.json", "--out", ".", "--dataset", "dataset.csv"]
        codes = {{verb: cli.main([verb] + base + extra) for verb, extra in [
            ("synth", []), ("fit", []), ("optimize", []), ("evaluate", []),
            ("simulate", ["--horizon", "2000"])]}}
        metrics = {{name: value for name, (value, _) in tracer.metrics(1).items()}}
        with open("trace.json", "w") as fh:
            json.dump({{"codes": codes, "metrics": metrics}}, fh)
    """)
    (tmp_path / "config.json").write_text(
        '{"synth": {"n": 3000}, "tree_params": {"min_node_size": 300, "max_depth": 2}}')
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, check=True, timeout=300,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["codes"] == dict.fromkeys(["synth", "fit", "optimize", "evaluate",
                                            "simulate"], 0)
    for name in ("causal.tree_rows", "desim.events", "optimizer.solves"):
        assert trace["metrics"][name] > 0, name
