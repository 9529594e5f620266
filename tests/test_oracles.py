"""The annulus series oracle against an extended-precision sum.

The reference sums every term x^n / ||z^n||^2 in ``np.clongdouble``
(64-bit mantissa on x86-64), with the norms and x = z conj(w) formed in
that precision too.  Near a zero of the kernel no double-precision
summation has a small relative error, so the error is measured against
the sum of the terms' moduli; on the diagonal z = w every term is
positive, and that is the plain relative error.
"""

import numpy as np
import pytest

from redbergman.oracles import annulus_kernel

LD = np.longdouble
PI = np.arccos(LD(-1.0))


def extended_series(z, w, r_in, r_out, n_min, n_max, reduced):
    """(sum, sum of moduli) of the window's terms in extended precision."""
    x = np.asarray(z, dtype=np.clongdouble) * np.conj(np.asarray(w, dtype=np.clongdouble))
    total = np.zeros(x.shape, dtype=np.clongdouble)
    moduli = np.zeros(x.shape, dtype=LD)
    r_in, r_out = LD(r_in), LD(r_out)
    for n in range(n_min, n_max + 1):
        if n == -1:
            if reduced:
                continue
            norm = 2 * PI * np.log(r_out / r_in)
        else:
            norm = 2 * PI * (r_out ** (2 * n + 2) - r_in ** (2 * n + 2)) / (2 * n + 2)
        term = x ** n / norm
        total += term
        moduli += np.abs(term)
    return total, moduli


def annulus_points(r_in, r_out, n, seed):
    rng = np.random.default_rng(seed)
    r = r_in + (r_out - r_in) * (0.02 + 0.96 * rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


WINDOWS = {
    "[-60, 60] on (0.5, 1)": (0.5, 1.0, -60, 60),
    "[-40, 40] on (0.2, 1)": (0.2, 1.0, -40, 40),
    "[3, 40], n_min > 0": (0.5, 1.0, 3, 40),
    "[-40, -3], n_max < -1": (0.5, 1.0, -40, -3),
    "[-1, 20]": (0.5, 1.0, -1, 20),
    "[-20, -1]": (0.5, 1.0, -20, -1),
    "[-30, 30] on (0.3, 2)": (0.3, 2.0, -30, 30),
}


@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "full"])
@pytest.mark.parametrize("window", WINDOWS)
def test_annulus_kernel_matches_extended_precision(window, reduced):
    r_in, r_out, n_min, n_max = WINDOWS[window]
    z = annulus_points(r_in, r_out, 60, seed=1)
    w = annulus_points(r_in, r_out, 50, seed=2)
    got = annulus_kernel(z[:, None], w[None, :], r_in, r_out, n_min, n_max, reduced=reduced)
    assert got.shape == (len(z), len(w))
    want, moduli = extended_series(z[:, None], w[None, :], r_in, r_out, n_min, n_max, reduced)
    assert np.max(np.abs(got - want) / moduli) <= 1e-14

    diag = annulus_kernel(z, z, r_in, r_out, n_min, n_max, reduced=reduced)
    want_diag, _ = extended_series(z, z, r_in, r_out, n_min, n_max, reduced)
    assert np.max(np.abs(diag - want_diag) / np.abs(want_diag)) <= 1e-14

    one = annulus_kernel(z[3], w[7], r_in, r_out, n_min, n_max, reduced=reduced)
    assert np.shape(one) == ()
    assert abs(one - want[3, 7]) <= 1e-14 * moduli[3, 7]
