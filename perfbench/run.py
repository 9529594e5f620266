"""Benchmark harness for redbergman.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process per run, driving the public pipelines from outside as a
closed loop with one client: each pass runs the workload's configs
(workloads.py) back to back through ``redbergman.cli.execute`` into a
scratch output directory, and the next pass starts when it ends.  Passes
start while the time left is at least a typical pass, and there are at
least two: the first is the reference that later passes must reproduce.

With ``--trace 0`` the end-to-end metrics are reported:

- ``setup_s``: median over fresh processes of importing redbergman plus
  the first-call warm-up (warmup.py).  One process is run and discarded
  first, so a cold file cache lands in no sample.
- ``wall_s``: median wall time of one pass, outputs written included.
- ``peak_rss_mb``: peak resident memory of the process through the first
  pass, which runs each config once as a user would.
- ``gate_margin_decades``: minimum over the gated residuals the pass writes
  to summary.txt (``gate_value`` and each ``check_<name>``) of
  log10(tolerance / residual); zero residuals are skipped.

A config fails if it raises, exits non-zero or writes a summary.txt that
differs byte for byte from the first pass's; ``failed`` / ``attempted`` in
the result is the failed fraction.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of tracer.py are reported as medians over the traced passes,
together with ``trace.wall_s`` (median traced pass) and
``trace.overhead_s`` (median traced minus median untraced pass).

BLAS is pinned to one thread.  The machine record is printed before the
result; the last line of stdout is the JSON result.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
MIN_PASSES = 2


def bootstrap():
    """Pin BLAS to one thread and import redbergman from this checkout."""
    if not (SRC / "redbergman" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no redbergman sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import redbergman

    if Path(redbergman.__file__).resolve().parent != SRC / "redbergman":
        raise SystemExit(f"perfbench: imported redbergman from {redbergman.__file__}")


def machine():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(work):
    """Set-up seconds of SETUP_SAMPLES fresh processes, after a discarded one."""
    cmd = [sys.executable, str(HERE / "warmup.py"), str(SRC), str(work)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return samples[1:]


def _execute(cli, command, cfg, out_root):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.execute(command, cfg, out_root)
    except Exception:
        traceback.print_exc()
        return None


def run_pass(cfgs, work, tracer=None):
    """Runs the configs once; returns (wall seconds, exit codes, summary bytes)."""
    from redbergman import cli

    roots = [work / label for label, _, _ in cfgs]
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        codes = [_execute(cli, command, cfg, str(root))
                 for (_, command, cfg), root in zip(cfgs, roots)]
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    summaries = []
    for root in roots:
        found = sorted(root.glob("*/summary.txt"))
        summaries.append(found[0].read_bytes() if len(found) == 1 else None)
    return wall, codes, summaries


def gate_margin(cfgs, summaries):
    """min log10(tolerance / residual) over the gated residuals, or None."""
    margins = []
    for (_, _, cfg), text in zip(cfgs, summaries):
        if text is None:
            continue
        fields = dict(line.split(" = ", 1) for line in text.decode().splitlines())
        gated = [("gate_value", fields.get("gate_tolerance"))]
        gated += [(f"check_{name}", tol) for name, tol in cfg.get("checks", {}).items()]
        for key, tol in gated:
            if tol is None or key not in fields:
                continue
            residual = float(fields[key])
            if 0.0 < residual < math.inf:
                margins.append(math.log10(float(tol) / residual))
    return min(margins) if margins else None


def run_workload(workload, seed, seconds, trace, work):
    """Closed-loop passes until ``seconds`` run out.

    Returns (summary dict, [(wall, Tracer)] of the traced passes)."""
    import workloads
    from tracer import Tracer

    deadline = time.perf_counter() + seconds
    walls = {False: [], True: []}
    traced_passes = []
    reference = None
    attempted = failed = 0
    while True:
        traced = bool(trace) and len(walls[False]) > len(walls[True])
        cfgs = workloads.WORKLOADS[workload](seed)
        tracer = Tracer() if traced else None
        wall, codes, summaries = run_pass(cfgs, work, tracer)
        if reference is None:
            reference = summaries
            # later passes add allocator history that one invocation never sees
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for (label, _, _), code, text, ref in zip(cfgs, codes, summaries, reference):
            attempted += 1
            if code != 0 or text is None or text != ref:
                failed += 1
                print(f"failed: {label} (exit {code}, summary "
                      f"{'missing' if text is None else 'matches' if text == ref else 'differs'})")
        walls[traced].append(wall)
        if traced:
            traced_passes.append((wall, tracer))
        print(f"pass {attempted // len(cfgs) - 1}: {'traced' if traced else 'untraced'} "
              f"{wall:.4f} s")
        every = walls[False] + walls[True]
        if len(every) >= MIN_PASSES and time.perf_counter() + statistics.median(every) > deadline:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "gate_margin": gate_margin(cfgs, reference),
    }, traced_passes


def layer_metrics(summary, traced_passes):
    per_pass = [tracer.layer_metrics() for _, tracer in traced_passes]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced = statistics.median(summary["walls"][True])
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(summary["walls"][False])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="redbergman benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    import workloads
    from warmup import warm_up

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    print("machine", json.dumps(machine()))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        setup = None if args.trace else measure_setup(work / "setup")
        warm_up(str(work / "warm_up"))
        summary, traced_passes = run_workload(args.workload, args.seed, args.seconds,
                                              args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    margin = summary["gate_margin"]
    correct = summary["failed"] == 0 and margin is not None
    if args.trace:
        values = layer_metrics(summary, traced_passes)
    else:
        print("setup samples", " ".join(f"{s:.4f}" for s in setup))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(summary["walls"][False]),
            "peak_rss_mb": summary["peak_rss_mb"],
            "gate_margin_decades": margin if margin is not None else 0.0,
        }
    names = [m["name"] for m in section]
    if set(values) != set(names):
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
