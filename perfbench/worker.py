"""One workload process: set up, run timed passes, check them, report.

Started by run.py, which times this process from its start to the "ready"
message. Messages go as JSON lines to the file descriptor given by
``--report-fd``; file descriptor 1 is pointed at stderr before anything is
imported, so solver console output never reaches the benchmark's result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--report-fd", type=int, required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()
    os.dup2(2, 1)
    with os.fdopen(args.report_fd, "w", buffering=1) as report:
        run(args, report)


def run(args, report):
    """Set up, report ready, then (unless set-up only) run and report passes."""
    import spans
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    with tracer.span("import"):
        import fairmatch  # noqa: F401  (the import itself is what is timed)
    import_s = time.perf_counter() - start
    if args.trace:
        spans.instrument(tracer)
    import checks
    import workloads
    # Every pipeline instance trips the library's pooling-perturbation
    # warning; one line per solve would bury the benchmark's own messages.
    warnings.filterwarnings("ignore", message="rate denominators")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
    report.write(json.dumps({"event": "ready", "import_s": import_s}) + "\n")
    if args.setup_only:
        return

    times, attempted, failed, wrong = [], 0, 0, []
    begin = time.perf_counter()
    while len(times) < workload.min_passes or (
            time.perf_counter() - begin + statistics.median(times) <= args.seconds):
        tracer.phase(f"pass{len(times)}")
        t0 = time.perf_counter()
        outputs = workload.run_pass()
        times.append(time.perf_counter() - t0)
        try:
            with tracer.paused():
                failed += workload.check(outputs)
        except checks.CheckError as exc:
            wrong.append(f"pass {len(times) - 1}: {exc}")
            print(f"check failed: {wrong[-1]}", file=sys.stderr)
        attempted += workload.ops_per_pass
        del outputs
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"event": "result", "correct": not wrong, "errors": wrong,
              "attempted": attempted, "failed": failed,
              "pass_s": statistics.median(times), "passes": times,
              "peak_rss_mb": peak_mb, "import_s": import_s}
    if args.trace:
        metrics = tracer.metrics(len(times))
        metrics["trace.pass_s"] = (statistics.median(times), "s")
        result["per_layer"] = metrics
        tracer.dump(workdir / "spans.json")
    report.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
