"""Smoke test of the benchmark itself.  From the repository root:

    python3 perfbench/smoke.py

For every workload at seed 0 it runs one untraced and one traced pass and
checks that every config passes and reproduces its summary, that the
per-layer metrics are exactly those of BENCHMARK.json, that every traced
span nests inside its parent, and that the self times sum to no more than
the traced pass's wall time.  It then runs the command line once and
checks the result line, and checks that the command fails without output
in a directory holding only BENCHMARK.json and the benchmark.  Exits
non-zero at the first failed check.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: {message}")


def check_spans(workload, tracer, wall):
    spans = tracer.spans
    for name, start, end, parent in spans:
        check(end is not None and start <= end, f"{workload}: span {name} is not closed")
        if parent is not None:
            pname, pstart, pend, _ = spans[parent]
            check(pstart <= start and end <= pend,
                  f"{workload}: span {name} escapes its parent {pname}")
    total = sum(tracer.self_times().values())
    check(total <= wall, f"{workload}: self times sum to {total} s > traced wall {wall} s")


def check_command(spec):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", "kernel_generic",
           "--seed", "0", "--seconds", "0", "--trace", "0"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    check(out.returncode == 0, f"run.py exited {out.returncode}: {out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"command-line run failed: {result}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    check(units == {m["name"]: m["unit"] for m in spec["end_to_end"]}, f"metrics {units}")
    check(all(m["value"] > 0 for m in result["metrics"].values()),
          f"an end-to-end metric is not positive: {result['metrics']}")


def check_bare_directory(work):
    """Without the sources next to it, run.py must fail and print no result."""
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns(".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, str(bare / run.HERE.name / "run.py"), "--workload", "presets",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          f"run.py in a bare directory exited {out.returncode} with {out.stdout!r}")


def main():
    run.bootstrap()
    import workloads
    from warmup import warm_up

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.WORK))
    try:
        warm_up(str(work / "warm_up"))
        for workload in workloads.WORKLOADS:
            summary, traced = run.run_workload(workload, 0, 0, 1, work / workload)
            check(summary["failed"] == 0, f"{workload}: {summary['failed']} configs failed")
            check(summary["gate_margin"] is not None, f"{workload}: no gated residual")
            check(set(run.layer_metrics(summary, traced)) == per_layer,
                  f"{workload}: per-layer metrics differ from BENCHMARK.json")
            for wall, tracer in traced:
                check_spans(workload, tracer, wall)
        check_command(spec)
        check_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while a run uses it
            run.WORK.rmdir()
    print("smoke: ok")


if __name__ == "__main__":
    main()
