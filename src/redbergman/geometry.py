"""Bounded planar domains and area-measure quadrature rules.

Domains are open subsets of the complex plane: discs, annuli, or generic
simply connected regions given by a vectorized membership predicate over
a finite bounding box.  Quadrature rules approximate integrals against
area Lebesgue measure.

Disc and annulus rules are tensor products in polar coordinates:
Gauss-Legendre in radius (polar Jacobian r folded into the weights;
nodes are built once per count and shared read-only) and equispaced
trapezoid in angle.  The trapezoid rule is exact for trigonometric
polynomials of degree below the number of angular nodes, so inner
products of (Laurent) monomials are angularly exact; that is the
accuracy backbone of the whole library.  A polar rule carries this
structure in ``QuadratureRule.polar``; other rules leave it ``None``.

Generic domains get a first-order midpoint rule on a uniform cell grid;
good enough for coarse property checks, not for tight tolerances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import EmptyDomainError

__all__ = [
    "Disc",
    "Annulus",
    "GenericDomain",
    "PlanarDomain",
    "PolarStructure",
    "QuadratureRule",
    "build_disc_quadrature",
    "build_annulus_quadrature",
    "build_generic_quadrature",
    "disc_grid",
    "annulus_grid",
]


def require_finite(*values):
    """Reject NaN/inf complex inputs before they enter a computation."""
    for v in values:
        z = complex(v)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite complex value: {v!r}")


@dataclass(frozen=True)
class Disc:
    """Open disc |z - center| < radius."""

    center: complex
    radius: float

    def __post_init__(self):
        require_finite(self.center)
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"disc radius must be positive, got {self.radius}")

    def area(self) -> float:
        return math.pi * self.radius**2

    def contains(self, z, margin: float = 0.0):
        """Membership test; ``margin > 0`` shrinks the domain by that
        distance from the boundary.  Accepts scalars or arrays."""
        return np.abs(np.asarray(z) - self.center) < self.radius - margin


@dataclass(frozen=True)
class Annulus:
    """Open annulus r_inner < |z - center| < r_outer."""

    center: complex
    r_inner: float
    r_outer: float

    def __post_init__(self):
        require_finite(self.center)
        if not (0 < self.r_inner < self.r_outer and math.isfinite(self.r_outer)):
            raise ValueError(
                f"annulus radii must satisfy 0 < r_inner < r_outer, "
                f"got ({self.r_inner}, {self.r_outer})"
            )

    def area(self) -> float:
        return math.pi * (self.r_outer**2 - self.r_inner**2)

    def contains(self, z, margin: float = 0.0):
        r = np.abs(np.asarray(z) - self.center)
        return (r > self.r_inner + margin) & (r < self.r_outer - margin)


@dataclass(frozen=True)
class GenericDomain:
    """Predicate-defined bounded, simply connected region.

    ``inside`` is a membership predicate vectorized over numpy arrays of
    points; it may return one bool for all of them.  ``bbox`` is (xmin,
    xmax, ymin, ymax), finite, and must contain every point where
    ``inside`` holds.
    """

    inside: Callable
    bbox: tuple

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.bbox
        if not (all(map(math.isfinite, self.bbox)) and xmin < xmax and ymin < ymax):
            raise ValueError(f"bbox must be finite and non-degenerate, got {self.bbox}")

    def contains(self, z, margin: float = 0.0):
        # margin is ignored: a predicate carries no distance information
        z = np.asarray(z)
        return np.broadcast_to(np.asarray(self.inside(z), dtype=bool), z.shape)


PlanarDomain = Union[Disc, Annulus, GenericDomain]


@dataclass(frozen=True)
class PolarStructure:
    """Node ``i * n_angular + j`` of a polar rule is center + radii[i] *
    exp(2 pi i j / n_angular), with weight ring_weights[i]."""

    center: complex
    radii: np.ndarray
    ring_weights: np.ndarray
    n_angular: int


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights approximating integration against dA."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: PlanarDomain
    polar: Optional[PolarStructure] = None

    def __post_init__(self):
        if len(self.nodes) != len(self.weights) or len(self.nodes) < 1:
            raise ValueError("rule needs matching, nonempty nodes and weights")
        if not np.all(self.weights > 0):
            raise ValueError("all quadrature weights must be positive")

    def __len__(self):
        return len(self.nodes)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@functools.lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _polar_rule(center, r_lo, r_hi, n_radial, n_angular, domain, area):
    if n_radial < 1 or n_angular < 1:
        raise ValueError("node counts must be >= 1")
    x, w = _gauss_legendre(n_radial)
    radii = 0.5 * (r_hi + r_lo) + 0.5 * (r_hi - r_lo) * x
    # weight = GL weight * interval scale * polar Jacobian r
    wr = w * 0.5 * (r_hi - r_lo) * radii
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular

    nodes = (center + radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
    polar = PolarStructure(center, radii, wr * wt, n_angular)
    rule = QuadratureRule(nodes=nodes, weights=np.repeat(polar.ring_weights, n_angular),
                          domain=domain, polar=polar)
    if not abs(rule.total_weight - area) <= 1e-10 * area:
        raise ValueError(f"polar rule weights sum to {rule.total_weight}, not the area {area}")
    if not np.all(domain.contains(nodes)):
        raise ValueError("polar rule has a node outside its domain")
    return rule


def build_disc_quadrature(center, radius, n_radial: int, n_angular: int) -> QuadratureRule:
    """Tensor-product polar rule on a disc.

    Parameters
    ----------
    center, radius : disc parameters, radius > 0.
    n_radial : number of Gauss-Legendre nodes on (0, radius).
    n_angular : number of equispaced angular nodes.

    The total weight reproduces pi*radius**2 to relative 1e-10 by
    construction, and monomial inner products are angularly exact for
    frequency differences below ``n_angular``.
    """
    domain = Disc(complex(center), float(radius))
    return _polar_rule(domain.center, 0.0, domain.radius, n_radial, n_angular,
                       domain, domain.area())


def build_annulus_quadrature(center, r_inner, r_outer, n_radial: int,
                             n_angular: int) -> QuadratureRule:
    """Tensor-product polar rule on an annulus; see build_disc_quadrature."""
    domain = Annulus(complex(center), float(r_inner), float(r_outer))
    return _polar_rule(domain.center, domain.r_inner, domain.r_outer,
                       n_radial, n_angular, domain, domain.area())


def build_generic_quadrature(domain: GenericDomain, n_grid: int) -> QuadratureRule:
    """Midpoint rule on the n_grid x n_grid cell grid over the bbox.

    Cells whose center satisfies the membership predicate are kept with
    weight equal to the cell area.  First-order accurate in the cell
    size; not suitable for tight-tolerance work.
    """
    if n_grid < 8:
        raise ValueError(f"n_grid must be >= 8, got {n_grid}")
    xmin, xmax, ymin, ymax = domain.bbox
    hx = (xmax - xmin) / n_grid
    hy = (ymax - ymin) / n_grid
    xs = xmin + hx * (np.arange(n_grid) + 0.5)
    ys = ymin + hy * (np.arange(n_grid) + 0.5)
    centers = (xs[:, None] + 1j * ys[None, :]).ravel()
    keep = domain.contains(centers)
    nodes = centers[keep]
    if nodes.size == 0:
        raise EmptyDomainError("no cell centers inside the domain")
    weights = np.full(nodes.shape, hx * hy)
    return QuadratureRule(nodes=nodes, weights=weights, domain=domain)


def disc_grid(radius, n: int, center=0.0) -> np.ndarray:
    """n x n Cartesian grid over the bounding square, masked to the
    closed disc |z - center| <= radius.  Used for kernel sampling."""
    t = np.linspace(-radius, radius, n)
    pts = center + (t[:, None] + 1j * t[None, :]).ravel()
    return pts[np.abs(pts - center) <= radius + 1e-15]


def annulus_grid(r_min, r_max, n_radial: int, n_angular: int, center=0.0) -> np.ndarray:
    """Polar sample grid with radii in [r_min, r_max]."""
    if r_min > r_max:
        raise ValueError(f"need r_min <= r_max, got ({r_min}, {r_max})")
    radii = np.linspace(r_min, r_max, n_radial)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    return (center + radii[:, None] * np.exp(1j * theta)[None, :]).ravel()
