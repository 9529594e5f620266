"""Proper holomorphic maps and algebraic correspondences.

Maps are algebraic families (powers, Blaschke products, polynomials); a map
f = numer/denom is its graph correspondence numer(z) - w*denom(z) = 0.  A
correspondence Q(z, w) has forward branches the roots of Q(z, .), backward
ones those of Q(., w), derivatives by implicit differentiation, and
singular sets from the resultant Res(Q, dQ/dy), y the fibre variable.  One
batched engine solves all fibres of a query array through one stacked
``np.linalg.eigvals`` call.  Every query gets a reason code: OK,
SINGULAR_LOCUS (near the singular set, or two roots closer than 1e-7) or
BRANCH_COUNT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import BranchCountError, NumericalFailureError, SingularLocusError
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
SINGULAR_RADIUS = 1e-8
DEDUP_TOL = 1e-9
MULTIPLE_ROOT_GAP = 1e-7
CLUSTER_RADIUS = 0.1
POLISH_STEPS = 10
POLISH_TOL = 1e-14
STEP_TOL = 1e-12

OK, SINGULAR_LOCUS, BRANCH_COUNT = range(3)
_FAILURES = {SINGULAR_LOCUS: (SingularLocusError, "lies on or near the singular set"),
             BRANCH_COUNT: (BranchCountError, "does not have all its branches in the domain")}


@dataclass(frozen=True)
class BranchSet:
    """Branch points and branch derivatives of n queries, each (n, k);
    ``reason`` holds one code per query, and rows not OK are NaN."""

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


def _poly_roots(coeffs_ascending, rtol=np.finfo(float).eps) -> np.ndarray:
    """Roots of one polynomial by ``_roots`` without trailing coefficients of
    at most ``rtol`` times the largest; by default those within rounding of
    zero, which would spoil or overflow the companion (Blaschke([1e-44]))."""
    c = np.asarray(coeffs_ascending, dtype=complex)
    big = np.flatnonzero(np.abs(c) > rtol * np.max(np.abs(c), initial=0.0))
    return _roots(c[None, :big[-1] + 1])[0] if big.size and big[-1] else np.array([], complex)


class ProperMap:
    """Common behavior of the algebraic proper-map families f = numer/denom
    (ascending coefficients).  ``graph`` is numer(z) - w*denom(z), of degree
    multiplicity in z, whose branches and singular sets ``v1``, ``v2`` (the
    critical values) the map uses."""

    def __init__(self, numer, denom, source: PlanarDomain, target: PlanarDomain):
        self._numer, self._denom = numer, denom
        self.source, self.target = source, target
        self.multiplicity = max(len(numer), len(denom)) - 1
        graph = np.zeros((self.multiplicity + 1, 2), dtype=complex)
        graph[:len(numer), 0] = numer
        graph[:len(denom), 1] = -denom
        self.graph = CorrespondenceModel(graph, source, target)
        self.v1, self.v2 = self.graph.v1, self.graph.v2
        self._dnumer = P.polysub(P.polymul(P.polyder(numer), denom),
                                 P.polymul(numer, P.polyder(denom)))
        # f'' = (dnumer' denom - 2 dnumer denom') / denom^3
        self._d2numer = P.polysub(P.polymul(P.polyder(self._dnumer), denom),
                                  2.0 * P.polymul(self._dnumer, P.polyder(denom)))

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
        """Zeros of the f' numerator inside the source, found apart from
        the graph; a multiple zero stays a cluster of roots."""
        pts = _poly_roots(self._dnumer)
        return pts[self.source.contains(pts, MEMBERSHIP_MARGIN)]

    def local_inverses(self, w) -> BranchSet:
        """The solutions of f(z) = w in the source over an array of w."""
        return self.graph.backward_branches(w)

    def branches(self, x, forward: bool) -> BranchSet:
        return self.graph.branches(x, forward)


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


def _resultant_roots(c, center, radius) -> np.ndarray:
    """Roots x of Res_y(Q, dQ/dy), c[i, j] multiplying x^i y^j, from the DFT
    (a matrix product, sparing the numpy.fft import) of its Sylvester
    determinants at center + radius e^{2 pi i j/n}; no noise is trimmed."""
    deg = c.shape[1] - 1
    npts = (c.shape[0] - 1) * (2 * deg - 1) + 1
    k = np.arange(npts)
    fibres = P.polyval(center + radius * np.exp(2j * np.pi * k / npts), c).T
    syl = np.zeros((npts, 2 * deg - 1, 2 * deg - 1), dtype=complex)
    for i in range(deg - 1):
        syl[:, i, i:i + deg + 1] = fibres[:, ::-1]
    for i in range(deg):
        syl[:, deg - 1 + i, i:i + deg] = (fibres[:, 1:] * np.arange(1, deg + 1))[:, ::-1]
    dft = np.exp(-2j * np.pi * np.outer(k, k) / npts) / npts
    return center + radius * _poly_roots(np.linalg.det(syl) @ dft, rtol=0.0)


def _clusters(points, radius) -> list:
    """Index groups of the points within ``radius`` of each group's first."""
    groups, left = [], np.arange(len(points))
    while left.size:
        near = np.abs(points[left] - points[left[0]]) <= radius
        groups, left = groups + [left[near]], left[~near]
    return groups


def _newton(derivs, x, y, node):
    """Newton's method from each (x, y) on Q = Q_y = 0, or where ``node`` on
    Q_x = Q_y = 0; the mask marks the points that stop within POLISH_STEPS,
    on residuals below POLISH_TOL of their scale or an x-step below STEP_TOL."""
    scale = P.polyval2d(np.maximum(np.abs(x), 1.0), np.maximum(np.abs(y), 1.0), np.abs(derivs))
    v, n, k = np.abs(P.polyval2d(x, y, derivs)), np.arange(len(x)), node.astype(int)
    done = (v[k, n] <= POLISH_TOL * scale[k, n]) & (v[2] <= POLISH_TOL * scale[2])
    with np.errstate(all="ignore"):     # a diverging point never stops
        for _ in range(POLISH_STEPS):
            t = np.flatnonzero(~done)
            if not t.size:
                break
            v, n, kt = P.polyval2d(x[t], y[t], derivs), np.arange(len(t)), k[t]
            f, fx, fy, g, gx, gy = v[kt, n], v[1 + 2 * kt, n], v[2 + 2 * kt, n], v[2], v[4], v[5]
            det = fx * gy - fy * gx
            dx = (fy * g - gy * f) / det
            x[t], y[t] = x[t] + dx, y[t] + (gx * f - fx * g) / det
            done[t] = np.abs(dx) <= STEP_TOL * np.maximum(np.abs(x[t]), 1.0)
    return x, y, done


def _polish(derivs, x, node):
    """The points x polished onto double roots of their fibres from the mean
    of each fibre's closest root pair, as single roots or, where ``node``,
    as nodes (where Q = Q_x = Q_y = 0), and the mask of those found."""
    roots = _roots(P.polyval(x, derivs[..., 0]).T)
    gaps = np.abs(roots[:, :, None] - roots[:, None, :]) + np.diag(np.full(roots.shape[1], np.inf))
    i, j = np.unravel_index(np.argmin(gaps.reshape(len(x), roots.shape[1] ** 2), axis=1),
                            gaps.shape[1:])
    y = (roots[np.arange(len(x)), i] + roots[np.arange(len(x)), j]) / 2
    x, y, found = _newton(derivs, x, y, node)
    with np.errstate(all="ignore"):
        q = derivs[..., 0]
        scale = P.polyval2d(np.maximum(np.abs(x), 1.0), np.maximum(np.abs(y), 1.0), np.abs(q))
        on_curve = np.abs(P.polyval2d(x, y, q)) <= POLISH_TOL * scale
    return x, found & (~node | on_curve)


def _branch_points(derivs, cand, lead, rho=0.0) -> list:
    """The resultant's roots ``cand`` whose fibre has a double root.  A k-fold
    root, or roots the samples cannot resolve, come out as k roots on a circle
    about eps^(1/k) of the sampling radius around an accurate mean.  So roots
    cluster (within CLUSTER_RADIUS, or a tenth of a resampled circle's radius
    ``rho``, whose roots are tried as one cluster first), each mean off the
    lead's zeros is polished (a cluster's as a node first).  A resampled
    cluster equidistant from that within a factor 2 is that point; any other
    is resampled on twice its radius, where distinct roots part."""
    groups = [cand[g] for g in _clusters(cand, rho / 10 or CLUSTER_RADIUS)]
    groups = ([cand] if rho and len(groups) > 1 else []) + groups
    groups = [g for g in groups if far_from(np.array([g.mean()]), lead, DEDUP_TOL)[0]]
    m = np.array([g.mean() for g in groups], dtype=complex)
    spread = np.array([np.max(np.abs(g - c)) for g, c in zip(groups, m)])
    node = np.tile([False, True], len(m)) & np.repeat((spread > 0) | bool(rho), 2)
    x, found = (a.reshape(-1, 2) for a in _polish(derivs, np.repeat(m, 2), node))
    # a node polish lands on a singular point, which a cluster's spread holds
    reach = np.where(spread[:, None] > 0, spread[:, None] * [0.1, 1.0], rho or CLUSTER_RADIUS)
    found &= np.abs(x - m[:, None]) <= reach
    out, pts = [], np.where(found[:, 1] & ((spread > 0) | ~found[:, 0]), x[:, 1], x[:, 0])
    for g, c, s, p, ok in zip(groups, m, spread, pts, found.any(axis=1)):
        d = np.abs(g - c)
        one = (rho or s <= 1e3 * DEDUP_TOL) and ok and d.max() <= 2 * d.min()
        if g is cand:
            if one:
                return [p]
        elif len(g) == 1 or s <= DEDUP_TOL or one:
            out += [p] if ok else [c] if len(g) > 1 else []
        else:
            local = _resultant_roots(derivs[..., 0], c, 2 * s)
            out += _branch_points(derivs, local[np.abs(local - c) < 2 * s], lead, 2 * s)
    return out


@dataclass(frozen=True)
class CorrespondenceModel:
    """Algebraic proper correspondence with graph Q(z, w) = 0, ``coeffs[i,
    j]`` multiplying z^i w^j.  p (forward branch count) is the degree in
    w, q (backward) the degree in z.  The singular sets v1 in d1 and v2 in
    d2 hold the points over which forward (backward) branches collide,
    wherever the colliding roots lie, or escape to infinity."""

    coeffs: np.ndarray
    d1: PlanarDomain
    d2: PlanarDomain

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if c.shape[0] < 2 and c.shape[1] < 2:
            raise ValueError("correspondence polynomial must depend on z or w")
        i, j = np.ogrid[:c.shape[0], :c.shape[1]]
        cz, cw = np.roll(c * i, -1, axis=0), np.roll(c * j, -1, axis=1)
        # Q, Q_z, Q_w, Q_zz, Q_zw, Q_ww, each in the shape of c
        d = np.stack([c, cz, cw, np.roll(cz * i, -1, axis=0), np.roll(cw * i, -1, axis=0),
                      np.roll(cw * j, -1, axis=1)], axis=-1)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_derivs", d)
        object.__setattr__(self, "v1", _singular_set(d, self.d1))
        object.__setattr__(self, "v2", _singular_set(d.transpose(1, 0, 2)[..., [0, 2, 1, 5, 4, 3]],
                                                     self.d2))

    @property
    def p(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def q(self) -> int:
        return self.coeffs.shape[0] - 1

    def qval(self, z, w, k=0):
        """Q (or with k = 1, 2 its z- or w-derivative) at z, w broadcast."""
        z, w = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(w, dtype=complex))
        return P.polyval2d(z, w, self._derivs[..., k])

    def _branches(self, axis: int, x) -> BranchSet:
        """Roots of Q(x, .) in the other domain, with derivatives -Q_x/Q_y,
        over an array of x on ``axis`` (0: z, 1: w).  Queries near the
        singular set or with two roots closer than MULTIPLE_ROOT_GAP get
        SINGULAR_LOCUS."""
        x = np.asarray(x, dtype=complex)
        if x.ndim != 1:
            raise ValueError(f"branch queries must be a 1-D array, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite query point")
        c, near, domain = ((self.coeffs, self.v1, self.d2) if axis == 0
                           else (self.coeffs.T, self.v2, self.d1))
        fibres = P.polyval(x, c).T
        d = fibres.shape[1] - 1
        reason = np.full(len(x), OK, dtype=np.int8)
        reason[~far_from(x, near, SINGULAR_RADIUS)] = SINGULAR_LOCUS
        # a vanishing leading coefficient loses a root
        reason[(reason == OK) & (fibres[:, -1] == 0) & (d > 0)] = BRANCH_COUNT
        todo = reason == OK
        roots = np.full((len(x), d), np.nan, dtype=complex)
        roots[todo] = _roots(fibres[todo])
        if d > 1:
            gaps = np.abs(roots[:, :, None] - roots[:, None, :])
            gaps[:, np.arange(d), np.arange(d)] = np.inf
            reason[todo & (np.min(gaps, axis=(1, 2)) < MULTIPLE_ROOT_GAP)] = SINGULAR_LOCUS
        inside = domain.contains(roots, MEMBERSHIP_MARGIN)
        reason[(reason == OK) & ~np.all(inside, axis=1)] = BRANCH_COUNT
        ok = reason == OK
        roots[~ok] = np.nan
        derivs = np.full_like(roots, np.nan)
        z, w = (x[ok, None], roots[ok]) if axis == 0 else (roots[ok], x[ok, None])
        qz, qw = self.qval(z, w, 1), self.qval(z, w, 2)
        derivs[ok] = -qz / qw if axis == 0 else -qw / qz
        return BranchSet(points=roots, derivatives=derivs, reason=reason)

    def forward_branches(self, z) -> BranchSet:
        """Roots w of Q(z, .) in d2, derivatives -Q_z/Q_w, over an array of z."""
        return self._branches(0, z)

    def backward_branches(self, w) -> BranchSet:
        """Roots z of Q(., w) in d1, derivatives -Q_w/Q_z, over an array of w."""
        return self._branches(1, w)

    def branches(self, x, forward: bool) -> BranchSet:
        """Forward branches over an array of z, or backward ones over w."""
        return self.forward_branches(x) if forward else self.backward_branches(x)


def _singular_set(derivs, domain) -> np.ndarray:
    """The points in ``domain`` over which Q(x, .) loses a root or has a
    double root; ``derivs`` stacks Q, Q_x, Q_y, Q_xx, Q_xy, Q_yy in x, y."""
    c = derivs[..., 0]
    pts = lead = _poly_roots(c[:, -1])
    if c.shape[1] > 2:
        # Res(Q, dQ/dy) = +-lead * disc(Q): the lead's zeros are roots too
        cand = _resultant_roots(c, 0.0, 1.3)
        cand = cand[domain.contains(cand, -CLUSTER_RADIUS)]
        pts = np.concatenate([lead, _branch_points(derivs, cand, lead)])
    pts = pts[domain.contains(pts)]
    return pts[[g[0] for g in _clusters(pts, DEDUP_TOL)]]
