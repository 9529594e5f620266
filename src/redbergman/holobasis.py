"""Raw holomorphic basis families, weight functions, and the
reduced-space filter.

A raw basis is one centre c and an ordered family of powers (z - c)^n,
n possibly negative (Laurent); its values and derivatives are power
columns built by cumulative products.  The reduced subspace keeps exactly the
elements admitting a single-valued primitive.  By residue calculus the
only power (z - c)^n without one is n = -1 with c in a hole of the
domain, and of the domains here only an annulus has a hole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Annulus, Disc, GenericDomain, PlanarDomain, require_finite
from .propermaps import PowerMap

__all__ = [
    "RawBasis",
    "monomial_basis",
    "laurent_basis",
    "reduced_filter",
    "numerical_period",
    "WeightFn",
    "ConstantWeight",
    "PowerWeight",
    "RadialPolyWeight",
    "PullbackWeight",
    "pullback_weight",
]


@dataclass(frozen=True)
class RawBasis:
    """The powers (z - center)^n for n in ``powers``, distinct and in
    order, over one domain."""

    center: complex
    powers: tuple
    domain: Optional[PlanarDomain] = None

    def __post_init__(self):
        if len(set(self.powers)) != len(self.powers):
            raise ValueError("raw basis powers must be pairwise distinct")

    def __len__(self):
        return len(self.powers)

    def name(self, k) -> str:
        """Element k as text, (z - c)^n."""
        return f"(z - {self.center})^{self.powers[k]}"

    def values(self, pts) -> np.ndarray:
        """(npts, n_elements) matrix of element values."""
        return _power_columns(pts, self.center, self.powers)

    def value_rows(self, pts):
        """Yields the columns of ``values(pts)`` one element at a time, as
        flat rows with the same bits.  Each row lives in one reused buffer,
        valid only until the next is drawn."""
        return _power_rows(pts, self.center, self.powers)

    def deriv_values(self, pts, order: int) -> np.ndarray:
        """(npts, n_elements) matrix of order-th derivatives: the falling
        factorial n (n - 1) ... (n - order + 1) times (z - c)^(n - order),
        zero for 0 <= n < order (a zero coefficient on a unit power)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self.values(pts)
        powers = [0 if 0 <= n < order else n - order for n in self.powers]
        coeffs = np.array([math.prod(range(n - order + 1, n + 1)) for n in self.powers],
                          dtype=float)
        out = _power_columns(pts, self.center, powers)
        out *= coeffs
        return out


def _power_columns(pts, center, powers) -> np.ndarray:
    """(npts, len(powers)) matrix whose column k is (z - center)^powers[k].

    A power that is the next non-negative power after the one before it
    is that column times (z - c): cumulative products are cheaper and
    more accurate than complex ``**``.  Every other power is evaluated on
    its own.
    """
    pts = np.asarray(pts, dtype=complex)
    out = np.empty((len(powers), pts.size), dtype=complex)
    for _ in _power_rows(pts, center, powers, out):
        pass
    return out.T.reshape(pts.shape + (len(powers),))


def _power_rows(pts, center, powers, out=None):
    """Yields the rows (z - center)^n of ``_power_columns(pts, center,
    powers).T`` one power at a time, with the same arithmetic, written
    into the rows of ``out`` or, without it, into one reused buffer that
    holds a row only until the next is drawn."""
    shift = np.asarray(pts, dtype=complex).reshape(-1) - center
    rows = out if out is not None else itertools.repeat(np.empty(shift.size, dtype=complex))
    prev = -1  # the power before the first: none to multiply
    for row, n in zip(rows, powers):
        if prev >= 0 and n == prev + 1:
            np.multiply(prev_row, shift, out=row)
        else:
            row[:] = shift ** n
        prev, prev_row = n, row
        yield row


def monomial_basis(center, degree: int, domain: Optional[PlanarDomain] = None) -> RawBasis:
    """Monomials (z-c)^0 .. (z-c)^degree, each with a single-valued primitive."""
    require_finite(center)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    c = complex(center)
    return RawBasis(c, tuple(range(degree + 1)), domain)


def laurent_basis(center, n_min: int, n_max: int,
                  domain: Optional[PlanarDomain] = None) -> RawBasis:
    """Laurent monomials (z-c)^n for n_min <= n <= n_max.

    Intended for an annulus centered at ``center``; the period of the
    n = -1 element around the hole is exactly 1 there.  With a negative
    power the center must lie off the closed domain, in an annulus's hole
    or outside it (otherwise the element has a pole in the domain).
    Generic domains are refused: their
    bases are restricted to entire elements so the reduced filter stays
    trivially correct.
    """
    require_finite(center)
    if n_min > n_max:
        raise ValueError(f"need n_min <= n_max, got ({n_min}, {n_max})")
    c = complex(center)
    if isinstance(domain, GenericDomain) and n_min < 0:
        raise ValueError("Laurent elements on generic domains are not supported")
    if isinstance(domain, Disc) and n_min < 0 and abs(c - domain.center) <= domain.radius:
        raise ValueError("Laurent center inside a disc domain is not holomorphic there")
    if (isinstance(domain, Annulus) and n_min < 0
            and domain.r_inner <= abs(c - domain.center) <= domain.r_outer):
        raise ValueError("Laurent center in the closed body of an annulus is not "
                         "holomorphic there")
    return RawBasis(c, tuple(range(n_min, n_max + 1)), domain)


def reduced_filter(basis: RawBasis) -> RawBasis:
    """Sub-basis of the elements with a single-valued primitive: all but
    (z - c)^-1 with c in an annulus domain's hole, the one power with a
    nonzero period (laurent_basis admits no other pole that a hole could
    enclose).  Order preserved."""
    dom = basis.domain
    if isinstance(dom, Annulus) and abs(basis.center - dom.center) < dom.r_inner:
        return RawBasis(basis.center, tuple(n for n in basis.powers if n != -1), dom)
    return basis


def numerical_period(power: int, center, circle_center, circle_radius,
                     n_points: int = 256) -> complex:
    """Discrete contour integral of (z - center)^power over a circle,
    divided by 2*pi*i.  Trapezoid rule; spectrally accurate for powers."""
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    gamma = circle_center + circle_radius * np.exp(1j * t)
    # (1/2pi i) * sum e(gamma) * i R e^{it} * (2pi/N)
    return complex(np.sum((gamma - center) ** power * np.exp(1j * t))
                   * circle_radius / n_points)


# ---------------------------------------------------------------------------
# weights

class WeightFn:
    """Positive weight on a domain; callable on scalars or arrays."""

    def __call__(self, z):
        raise NotImplementedError

    def ring_values(self, center, radii):
        """nu on the circles |z - center| = radii in closed form, or None."""
        return None


class ConstantWeight(WeightFn):
    def __init__(self, value: float = 1.0):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"constant weight must be positive, got {value}")
        self.value = float(value)

    def __call__(self, z):
        return np.full(np.shape(z), self.value)

    def ring_values(self, center, radii):
        return np.full(np.shape(radii), self.value)


class PowerWeight(WeightFn):
    """nu(z) = |z - center|^(2*alpha), alpha >= 0 and finite."""

    def __init__(self, alpha: float, center=0.0):
        if not 0 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        require_finite(center)
        self.alpha = float(alpha)
        self.center = complex(center)

    def __call__(self, z):
        return np.abs(np.asarray(z) - self.center) ** (2.0 * self.alpha)

    def ring_values(self, center, radii):
        return np.power(radii, 2.0 * self.alpha) if center == self.center else None


class RadialPolyWeight(WeightFn):
    """nu(z) = sum_k a_k |z - center|^(2k) with finite a_k >= 0, a_0 > 0."""

    def __init__(self, coeffs, center=0.0):
        coeffs = [float(a) for a in coeffs]
        if not coeffs or not all(0 <= a < math.inf for a in coeffs) or coeffs[0] <= 0:
            raise ValueError(f"radial_poly needs finite a_k >= 0 and a_0 > 0, got {coeffs}")
        require_finite(center)
        self.coeffs = tuple(coeffs)
        self.center = complex(center)

    def __call__(self, z):
        r2 = np.abs(np.asarray(z) - self.center) ** 2
        return np.polynomial.polynomial.polyval(r2, self.coeffs)

    def ring_values(self, center, radii):
        if center == self.center:
            return np.polynomial.polynomial.polyval(np.square(radii), self.coeffs)
        return None


class PullbackWeight(WeightFn):
    """Composite weight nu(f(z)); positivity is checked on quadrature
    nodes at the use sites, not here."""

    def __init__(self, base: WeightFn, mapping):
        self.base = base
        self.mapping = mapping

    def __call__(self, z):
        return self.base(self.mapping(z))

    def ring_values(self, center, radii):
        # z^m maps the circle |z| = r onto |w| = r^m
        if isinstance(self.mapping, PowerMap) and center == 0:
            return self.base.ring_values(0, np.power(radii, self.mapping.m))
        return None


def pullback_weight(weight: WeightFn, mapping) -> WeightFn:
    """Form nu connected through a holomorphic map: z -> nu(f(z)); a
    constant weight is its own pull-back."""
    if isinstance(weight, ConstantWeight):
        return weight
    return PullbackWeight(weight, mapping)
