"""Proper holomorphic maps and algebraic correspondences.

Maps are restricted to algebraic families (powers, Blaschke products,
polynomials) so that properness is certifiable and branch solving
reduces to polynomial root finding.  A map f = numer/denom is solved as
its graph correspondence numer(z) - w*denom(z) = 0.

Correspondences are bivariate polynomials Q(z, w); forward branches are
the roots of Q(z, .), backward branches of Q(., w), with derivatives by
implicit differentiation.  Singular sets are the discriminant loci
(plus leading-coefficient zeros), computed by evaluating the Sylvester
determinant on scaled roots of unity and interpolating.

One batched engine solves all fibres of a query array: their
companion matrices (as numpy's polycompanion builds them) go through one
stacked ``np.linalg.eigvals`` call, and each row of roots is sorted as
``polyroots`` sorts it and polished by one Newton step.  Every query gets
a reason code: OK, NEAR_CRITICAL (near a map's critical value),
SINGULAR_LOCUS (near a correspondence's singular set, or two roots
closer than 1e-7) or BRANCH_COUNT (a branch is outside the domain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    BranchCountError,
    NearCriticalError,
    NumericalFailureError,
    SingularLocusError,
)
from .geometry import Disc, PlanarDomain, require_finite

__all__ = [
    "BranchSet",
    "ProperMap",
    "PowerMap",
    "BlaschkeProduct",
    "PolynomialMap",
    "CorrespondenceModel",
]

MEMBERSHIP_MARGIN = 1e-12
NEAR_CRITICAL_RADIUS = 1e-8
CRITICAL_DEDUP_TOL = 1e-9
MULTIPLE_ROOT_GAP = 1e-7

OK, NEAR_CRITICAL, SINGULAR_LOCUS, BRANCH_COUNT = range(4)
_FAILURES = {
    NEAR_CRITICAL: (NearCriticalError, f"is within {NEAR_CRITICAL_RADIUS} of a critical value"),
    SINGULAR_LOCUS: (SingularLocusError, "lies on or near the singular set"),
    BRANCH_COUNT: (BranchCountError, "does not have all its branches in the domain"),
}


@dataclass(frozen=True)
class BranchSet:
    """Branch points and branch derivatives of n queries, each of shape
    (n, k); ``reason`` holds one code per query, and rows whose reason
    is not OK are NaN.
    """

    points: np.ndarray
    derivatives: np.ndarray
    reason: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.reason == OK

    def require_ok(self, queries):
        """Raise the error matching the first query whose reason is not OK."""
        bad = np.flatnonzero(self.reason != OK)
        if bad.size:
            error, what = _FAILURES[int(self.reason[bad[0]])]
            raise error(f"query {complex(queries[bad[0]])} {what}")


def far_from(points, bad, radius) -> np.ndarray:
    """Mask of the points farther than ``radius`` from every point of
    ``bad``; a non-finite point counts as far, so the solver rejects it."""
    if bad.size == 0:
        return np.ones(len(points), dtype=bool)
    return ~(np.min(np.abs(points[:, None] - bad[None, :]), axis=1) <= radius)


def _distinct(points) -> np.ndarray:
    """The points without near-duplicates (within CRITICAL_DEDUP_TOL)."""
    out = []
    for p in points:
        if all(abs(p - v) > CRITICAL_DEDUP_TOL for v in out):
            out.append(complex(p))
    return np.array(out, dtype=complex)


def _roots(fibres) -> np.ndarray:
    """Roots of each row of ascending coefficients (n, d+1), exactly as
    ``P.polyroots`` returns them, after one Newton step.  Every leading
    coefficient must be nonzero."""
    n, d = fibres.shape[0], fibres.shape[1] - 1
    if d < 1:
        return np.empty((n, 0), dtype=complex)
    if d == 1:
        roots = -fibres[:, :1] / fibres[:, 1:]
    else:
        mat = np.zeros((n, d, d), dtype=complex)
        mat[:, np.arange(1, d), np.arange(d - 1)] = 1
        mat[:, :, -1] -= fibres[:, :-1] / fibres[:, -1:]
        try:
            roots = np.linalg.eigvals(mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"companion eigenvalues failed for {n} fibres") from exc
        roots.sort(axis=1)
    # a tiny leading coefficient puts a root far outside every domain; its
    # Newton step may overflow, and membership discards it
    with np.errstate(over="ignore", invalid="ignore"):
        val = P.polyval(roots.T, fibres.T, tensor=False).T
        dval = P.polyval(roots.T, (fibres[:, 1:] * np.arange(1, d + 1)).T, tensor=False).T
        ok = np.abs(dval) > 1e-30
        roots[ok] = roots[ok] - val[ok] / dval[ok]
    return roots


def _poly_roots(coeffs_ascending) -> np.ndarray:
    """Companion-matrix roots of one polynomial with one Newton polish step."""
    c = np.trim_zeros(np.asarray(coeffs_ascending, dtype=complex), "b")
    if c.size <= 1:
        return np.array([], dtype=complex)
    return _roots(c[None, :])[0]


def _solve_branches(coeffs, axis, x, domain, near_set, near_reason, derivative,
                    min_gap=0.0) -> BranchSet:
    """Branches of ``coeffs`` (c[i, j] multiplies z^i w^j) over the
    queries ``x`` of the variable on ``axis``, with ``derivative(x, roots)``.

    Queries within NEAR_CRITICAL_RADIUS of ``near_set`` get
    ``near_reason``; with ``min_gap`` > 0, fibres with two roots closer
    than it get SINGULAR_LOCUS.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError(f"branch queries must be a 1-D array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite query point")
    c = coeffs if axis == 0 else coeffs.T
    fibres = P.polyval(x, c).T
    d = fibres.shape[1] - 1
    reason = np.full(len(x), OK, dtype=np.int8)
    reason[~far_from(x, near_set, NEAR_CRITICAL_RADIUS)] = near_reason
    # a vanishing leading coefficient loses a root
    reason[(reason == OK) & (fibres[:, -1] == 0) & (d > 0)] = BRANCH_COUNT
    todo = reason == OK
    roots = np.full((len(x), d), np.nan, dtype=complex)
    roots[todo] = _roots(fibres[todo])
    if min_gap and d > 1:
        gaps = np.abs(roots[:, :, None] - roots[:, None, :])
        gaps[:, np.arange(d), np.arange(d)] = np.inf
        reason[todo & (np.min(gaps, axis=(1, 2)) < min_gap)] = SINGULAR_LOCUS
    inside = domain.contains(roots, MEMBERSHIP_MARGIN)
    reason[(reason == OK) & ~np.all(inside, axis=1)] = BRANCH_COUNT
    ok = reason == OK
    roots[~ok] = np.nan
    derivs = np.full_like(roots, np.nan)
    derivs[ok] = derivative(x[ok, None], roots[ok])
    return BranchSet(points=roots, derivatives=derivs, reason=reason)


class ProperMap:
    """Common behavior of the algebraic proper-map families f = numer/denom.

    ``numer``/``denom`` are ascending coefficient arrays (denom = [1] for
    polynomial families).  ``graph`` holds the coefficients of the graph
    correspondence numer(z) - w*denom(z) in CorrespondenceModel layout;
    the multiplicity is its degree in z.
    """

    def __init__(self, numer, denom, source: PlanarDomain, target: PlanarDomain):
        self._numer = numer
        self._denom = denom
        self.source = source
        self.target = target
        self.multiplicity = max(len(numer), len(denom)) - 1
        self.graph = np.zeros((self.multiplicity + 1, 2), dtype=complex)
        self.graph[:len(numer), 0] = numer
        self.graph[:len(denom), 1] = -denom
        self._dnumer = P.polysub(P.polymul(P.polyder(numer), denom),
                                 P.polymul(numer, P.polyder(denom)))
        # f'' = (dnumer' denom - 2 dnumer denom') / denom^3
        self._d2numer = P.polysub(P.polymul(P.polyder(self._dnumer), denom),
                                  2.0 * P.polymul(self._dnumer, P.polyder(denom)))
        # singular sets of the graph: the single forward branch never
        # collides; the backward ones collide over the critical values
        self.v1 = np.array([], dtype=complex)
        self.v2 = _distinct([complex(self(z0)) for z0 in self.critical_points()])

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return P.polyval(z, self._numer) / P.polyval(z, self._denom)

    def deriv(self, z):
        z = np.asarray(z, dtype=complex)
        return P.polyval(z, self._dnumer) / P.polyval(z, self._denom) ** 2

    def deriv2(self, z):
        z = np.asarray(z, dtype=complex)
        return P.polyval(z, self._d2numer) / P.polyval(z, self._denom) ** 3

    def critical_points(self) -> np.ndarray:
        """Zeros of the f' numerator inside the source; a multiple zero stays
        the cluster of roots the solver returns (their images are deduplicated)."""
        pts = _poly_roots(self._dnumer)
        return pts[self.source.contains(pts, MEMBERSHIP_MARGIN)] if pts.size else pts

    def critical_values(self) -> np.ndarray:
        """Images of the critical points, deduplicated."""
        return self.v2

    def local_inverses(self, w) -> BranchSet:
        """All multiplicity-many solutions of f(z) = w in the source,
        with derivatives 1/f', over an array of w."""
        return _solve_branches(self.graph, 1, w, self.source, self.v2,
                               NEAR_CRITICAL, lambda w0, z: 1.0 / self.deriv(z))

    def branches(self, x, forward: bool) -> BranchSet:
        """Forward: the single branch (f, f') over an array of z;
        backward: the local inverses over an array of w."""
        if not forward:
            return self.local_inverses(x)
        x = np.asarray(x, dtype=complex)
        return BranchSet(self(x)[:, None], self.deriv(x)[:, None],
                         np.full(len(x), OK, dtype=np.int8))


class PowerMap(ProperMap):
    """f(z) = z^m.  The identity map is PowerMap(1)."""

    def __init__(self, m: int, source: PlanarDomain | None = None,
                 target: PlanarDomain | None = None):
        if m < 1:
            raise ValueError(f"power must be >= 1, got {m}")
        self.m = m
        numer = np.zeros(m + 1, dtype=complex)
        numer[m] = 1.0
        super().__init__(numer, np.ones(1, dtype=complex),
                         source if source is not None else Disc(0.0, 1.0),
                         target if target is not None else Disc(0.0, 1.0))

    def __repr__(self):
        return f"PowerMap(m={self.m})"


class BlaschkeProduct(ProperMap):
    """Finite Blaschke product prod_k (z - a_k)/(1 - conj(a_k) z) on the
    unit disc; a proper self-map of multiplicity len(zeros)."""

    def __init__(self, zeros):
        zeros = [complex(a) for a in zeros]
        if not zeros:
            raise ValueError("need at least one zero")
        for a in zeros:
            require_finite(a)
            if abs(a) >= 1:
                raise ValueError(f"Blaschke zero must satisfy |a| < 1, got {a}")
        self.zeros = tuple(zeros)
        numer = np.ones(1, dtype=complex)
        denom = np.ones(1, dtype=complex)
        for a in zeros:
            numer = P.polymul(numer, np.asarray([-a, 1.0]))
            denom = P.polymul(denom, np.asarray([1.0, -np.conj(a)]))
        super().__init__(numer, denom, Disc(0.0, 1.0), Disc(0.0, 1.0))

    def __repr__(self):
        return f"BlaschkeProduct(zeros={list(self.zeros)})"


class PolynomialMap(ProperMap):
    """Polynomial map given by ascending coefficients; the caller is
    responsible for choosing domains on which it is proper."""

    def __init__(self, coeffs, source: PlanarDomain, target: PlanarDomain):
        coeffs = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
        if coeffs.size < 2:
            raise ValueError("polynomial map must be non-constant")
        super().__init__(coeffs, np.ones(1, dtype=complex), source, target)

    def __repr__(self):
        return f"PolynomialMap(coeffs={list(self._numer)})"


# ---------------------------------------------------------------------------
# correspondences

def _interp_determinant_poly(sylvester_at, degree_bound: int) -> np.ndarray:
    """Coefficients of z -> det(S(z)) by evaluation at scaled roots of
    unity and an FFT-style Vandermonde solve."""
    npts = degree_bound + 1
    radius = 1.3
    zs = radius * np.exp(2j * np.pi * np.arange(npts) / npts)
    vals = np.array([np.linalg.det(sylvester_at(z)) for z in zs])
    # inverse DFT recovers c_k r^k from samples on the scaled circle
    ck = np.fft.ifft(vals)
    coeffs = ck / radius ** np.arange(npts)
    return coeffs


def _sylvester(pc, qc):
    """Sylvester matrix of two ascending-coefficient polynomials."""
    pdeg = len(pc) - 1
    qdeg = len(qc) - 1
    n = pdeg + qdeg
    s = np.zeros((n, n), dtype=complex)
    for i in range(qdeg):
        s[i, i:i + pdeg + 1] = pc[::-1]
    for i in range(pdeg):
        s[qdeg + i, i:i + qdeg + 1] = qc[::-1]
    return s


@dataclass(frozen=True)
class CorrespondenceModel:
    """Algebraic proper correspondence with graph Q(z, w) = 0.

    ``coeffs[i, j]`` multiplies z^i w^j.  p (forward branch count) is
    the degree in w, q (backward) the degree in z.  The singular sets
    v1, v2 are the discriminant loci together with the zeros of the
    relevant leading coefficient, intersected with the domains; they can
    be strict supersets of the true singular sets, which only makes the
    exclusion zones larger.
    """

    coeffs: np.ndarray
    d1: PlanarDomain
    d2: PlanarDomain

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if c.shape[0] < 2 and c.shape[1] < 2:
            raise ValueError("correspondence polynomial must depend on z or w")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_cz", P.polyder(c, axis=0) if c.shape[0] > 1
                           else np.zeros((1, 1)))
        object.__setattr__(self, "_cw", P.polyder(c, axis=1) if c.shape[1] > 1
                           else np.zeros((1, 1)))
        object.__setattr__(self, "_v1", self._singular_set(axis=0))
        object.__setattr__(self, "_v2", self._singular_set(axis=1))

    @property
    def p(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def q(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def v1(self) -> np.ndarray:
        return self._v1

    @property
    def v2(self) -> np.ndarray:
        return self._v2

    @staticmethod
    def _val2d(z, w, c):
        z, w = np.broadcast_arrays(np.asarray(z, dtype=complex),
                                   np.asarray(w, dtype=complex))
        return P.polyval2d(z, w, c)

    def qval(self, z, w):
        return self._val2d(z, w, self.coeffs)

    def qz(self, z, w):
        return self._val2d(z, w, self._cz)

    def qw(self, z, w):
        return self._val2d(z, w, self._cw)

    def _singular_set(self, axis: int) -> np.ndarray:
        """Discriminant locus of Q solved along ``axis`` (0: roots in w
        for given z, 1: roots in z for given w), in the matching domain."""
        c = self.coeffs if axis == 0 else self.coeffs.T
        domain = self.d1 if axis == 0 else self.d2
        deg = c.shape[1] - 1
        if deg < 2:
            # linear fibers never collide; only a vanishing leading
            # coefficient can reduce the branch count
            lead = c[:, -1]
            pts = _poly_roots(lead)
        else:
            def sylvester_at(x):
                fiber = P.polyval(x, c)        # ascending coefficients along the fiber
                dfiber = P.polyder(fiber)
                return _sylvester(fiber, dfiber)

            other_deg = c.shape[0] - 1
            bound = other_deg * (2 * deg - 1)
            disc = _interp_determinant_poly(sylvester_at, bound)
            disc[np.abs(disc) < 1e-9 * max(np.max(np.abs(disc)), 1e-30)] = 0.0
            pts = _poly_roots(disc)
            lead_roots = _poly_roots(c[:, -1])
            pts = np.concatenate([pts, lead_roots]) if lead_roots.size else pts
        return _distinct(pts[domain.contains(pts)] if pts.size else pts)

    def forward_branches(self, z) -> BranchSet:
        """Roots w of Q(z, .) in d2 with derivatives -Q_z/Q_w, over an
        array of z."""
        return _solve_branches(self.coeffs, 0, z, self.d2, self.v1, SINGULAR_LOCUS,
                               lambda z0, w: -self.qz(z0, w) / self.qw(z0, w),
                               MULTIPLE_ROOT_GAP)

    def backward_branches(self, w) -> BranchSet:
        """Roots z of Q(., w) in d1 with derivatives -Q_w/Q_z, over an
        array of w."""
        return _solve_branches(self.coeffs, 1, w, self.d1, self.v2, SINGULAR_LOCUS,
                               lambda w0, z: -self.qw(z, w0) / self.qz(z, w0),
                               MULTIPLE_ROOT_GAP)

    def branches(self, x, forward: bool) -> BranchSet:
        """Forward branches over an array of z, or backward ones over w."""
        return self.forward_branches(x) if forward else self.backward_branches(x)
