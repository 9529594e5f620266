"""Write the outputs of every benchmark config, for a byte-for-byte diff.

    python3 tools/workload_outputs.py SRC OUT

Runs each config of the four benchmark workloads (perfbench/workloads.py)
at seeds 0 and 7 through ``redbergman.cli.execute``, with redbergman
imported from the source directory SRC and BLAS pinned to one thread, and
writes each run under OUT/<workload>-seed<seed>/<label>/.  Two source
trees write the same bytes when ``diff -r`` of their OUT directories is
empty.  Exits 1 when any config exits non-zero.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (0, 7)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.dont_write_bytecode = True  # import workloads.py without writing beside it
    sys.path[:0] = [str(src), str(PERFBENCH)]
    from redbergman import cli
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != src / "redbergman":
        raise SystemExit(f"imported redbergman from {cli.__file__}, not from {src}")
    failed = []
    for workload, configs in WORKLOADS.items():
        for seed in SEEDS:
            for label, command, cfg in configs(seed):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.execute(command, cfg, str(out / f"{workload}-seed{seed}" / label))
                if code != 0:
                    failed.append(f"{workload} seed {seed} {label}: exit {code}")
    print("\n".join(failed) or "every config exited 0")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
