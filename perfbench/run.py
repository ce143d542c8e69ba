"""Benchmark entry point.

    python3 perfbench/run.py --workload cli-50k --seed 0 --seconds 20 --trace 0

Run from the root of a fairmatch checkout. Each workload runs in one worker
process (worker.py) that imports fairmatch from ``src/``. With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics
``setup_s``, ``pass_s`` and ``peak_rss_mb``; with ``--trace 1`` it holds the
per-layer metrics of a run with spans around every call into a layer.
Human-readable progress goes to stderr. Run outputs land in
``.perfbench_runs/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fairness-sweep", "cli-50k")
SETUP_SAMPLES = 3         # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0       # the whole run, set-ups included


class RunError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, cores)
    return env


class Worker:
    """A worker process and the pipe it reports on, timed from its start."""

    def __init__(self, args, workdir, deadline, setup_only):
        read_fd, write_fd = os.pipe()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir), "--report-fd", str(write_fd)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), pass_fds=(write_fd,),
                                     stdin=subprocess.DEVNULL, stdout=sys.stderr)
        os.close(write_fd)
        self.fd = read_fd
        self.buffer = b""

    def message(self):
        """Next JSON line from the worker, with its arrival time."""
        while b"\n" not in self.buffer:
            left = self.deadline - time.perf_counter()
            ready, _, _ = select.select([self.fd], [], [], max(left, 0))
            if not ready:
                raise RunError(f"run exceeded {RUN_LIMIT_S:.0f} s")
            chunk = os.read(self.fd, 65536)
            if not chunk:
                raise RunError(f"worker exited with code {self.proc.wait()} "
                               "before reporting")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line), time.perf_counter()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        os.close(self.fd)
        if self.proc.returncode:
            raise RunError(f"worker exited with code {self.proc.returncode}")


def _setup(args, workdir, deadline, setup_only):
    worker = Worker(args, workdir, deadline, setup_only)
    try:
        ready, at = worker.message()
        if setup_only:
            return at - worker.start, ready, None
        result, _ = worker.message()
        return at - worker.start, ready, result
    finally:
        worker.close()


def run(args):
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "fairmatch" / "__init__.py").is_file():
        raise RunError(f"no fairmatch sources under {ROOT / 'src'}")
    workdir = ROOT / ".perfbench_runs" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # Warm the file cache as a repeated user of the pipeline has it.
    subprocess.run([sys.executable, "-c", "import fairmatch"], cwd=ROOT, env=_env(),
                   check=True, timeout=60, stdout=sys.stderr)
    samples, imports = [], []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        setup_s, ready, _ = _setup(args, workdir, deadline, setup_only=True)
        samples.append(setup_s)
        imports.append(ready["import_s"])
    setup_s, ready, result = _setup(args, workdir, deadline, setup_only=False)
    samples.append(setup_s)
    imports.append(ready["import_s"])
    print(f"{args.workload}: set-ups {', '.join(f'{s:.3f}' for s in samples)} s "
          f"(import {', '.join(f'{s:.3f}' for s in imports)} s); passes "
          f"{', '.join(f'{s:.3f}' for s in result['passes'])} s", file=sys.stderr)
    for error in result["errors"]:
        print(f"wrong result: {error}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s"},
                   "pass_s": {"value": result["pass_s"], "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = run(args)
    except (RunError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
