"""Closed-form reference kernels from analytic norm integrals.

Everything here is independent of the quadrature/Gram pipeline: the
coefficients are exact monomial norms,
    ||z^n||^2 on the unit disc           = pi / (n + 1),
    ||z^n||^2 with weight |z|^(2a)       = pi / (n + a + 1),
    ||z^n||^2 on an annulus (r_in,r_out) = 2 pi (r_out^(2n+2) - r_in^(2n+2)) / (2n+2),
    ||z^-1||^2 on an annulus             = 2 pi log(r_out / r_in),
and the kernels are the corresponding orthonormal series.  The annulus
series is truncated to the same index window as the basis under test:
the reproducing kernel of a truncated family is the truncated sum, and
comparing against the infinite series would conflate truncation with
discretization error.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "disc_kernel",
    "disc_kernel_dbar",
    "disc_power_weight_kernel",
    "annulus_norm_sq",
    "annulus_kernel",
]


def disc_kernel(z, w):
    """Bergman (= reduced Bergman) kernel of the unit disc,
    1 / (pi (1 - z conj(w))^2)."""
    x = np.asarray(z, dtype=complex) * np.conj(np.asarray(w, dtype=complex))
    return 1.0 / (math.pi * (1.0 - x) ** 2)


def disc_kernel_dbar(z, w):
    """d/d(conj w) of the unit-disc kernel: 2z / (pi (1 - z conj(w))^3)."""
    z = np.asarray(z, dtype=complex)
    x = z * np.conj(np.asarray(w, dtype=complex))
    return 2.0 * z / (math.pi * (1.0 - x) ** 3)


def disc_power_weight_kernel(z, w, alpha: float):
    """Weighted kernel of the unit disc for nu = |.|^(2 alpha):
    ((alpha+1) - alpha x) / (pi (1 - x)^2) with x = z conj(w)."""
    x = np.asarray(z, dtype=complex) * np.conj(np.asarray(w, dtype=complex))
    return ((alpha + 1.0) - alpha * x) / (math.pi * (1.0 - x) ** 2)


def annulus_norm_sq(n: int, r_in: float, r_out: float) -> float:
    """Exact squared norm of z^n on the annulus r_in < |z| < r_out."""
    if n == -1:
        return 2.0 * math.pi * math.log(r_out / r_in)
    return 2.0 * math.pi * (r_out ** (2 * n + 2) - r_in ** (2 * n + 2)) / (2 * n + 2)


def annulus_kernel(z, w, r_in: float, r_out: float, n_min: int, n_max: int,
                   reduced: bool = True):
    """Truncated orthonormal series for the annulus kernel over the index
    window [n_min, n_max]; ``reduced`` skips the n = -1 term.  With x = z conj(w),
    Horner's rule sums n >= 0 in x and n < 0 in 1/x: no high power of x is formed."""
    x = np.asarray(z, dtype=complex) * np.conj(np.asarray(w, dtype=complex))
    pos = neg = 0.0
    for n in range(n_max, max(n_min, 0) - 1, -1):
        pos = pos * x + 1.0 / annulus_norm_sq(n, r_in, r_out)
    for n in range(n_min, min(n_max, -1) + 1):
        neg = neg / x + (0.0 if reduced and n == -1 else 1.0 / annulus_norm_sq(n, r_in, r_out))
    return pos * x ** max(n_min, 0) + (neg * x ** min(n_max, -1) if n_min < 0 else 0.0)
