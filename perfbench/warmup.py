"""The benchmark's set-up: import redbergman and make one small call of
each kind a pass makes (YAML dump, quadrature, Gram, pivoted Cholesky and
solve, companion-matrix roots, CSV), so that first-call costs land here
and not in the first timed pass.

Run as a script, it does the set-up in a fresh process and prints its
duration in seconds:  python3 perfbench/warmup.py SRC_DIR OUT_DIR
"""

import time

_T0 = time.perf_counter()  # first statement: a fresh process times its own imports

import contextlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402

WARM_UP_CONFIG = {
    "seed": 0,
    "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
    "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
    "quadrature": {"n_radial": 8, "n_angular": 16},
    "quadrature2": {"n_radial": 8, "n_angular": 16},
    "basis": {"type": "monomial", "degree": 4, "reduced": True},
    "basis2": {"type": "monomial", "degree": 4, "reduced": True},
    "map": {"type": "power", "m": 2},
    "grid": {"z": {"kind": "cartesian", "rmax": 0.5, "n": 3},
             "w": {"kind": "cartesian", "rmax": 0.25, "n": 3}},
    "output": {"csv": True},
}


def warm_up(out_root):
    from redbergman import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.execute("verify", dict(WARM_UP_CONFIG), out_root)
    if code != 0:
        raise RuntimeError(f"warm-up run exited with {code}")


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    warm_up(sys.argv[2])
    print(time.perf_counter() - _T0)
