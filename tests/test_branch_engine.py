"""Seeded property tests of the batched branch engine.

The oracle is the per-point solve kept below: each fibre's roots by
``P.polyroots`` plus one Newton step, filtered by domain membership.
The engine builds the same companion matrices and the same fibres, so
its rows must equal the oracle's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from redbergman import BlaschkeProduct, CorrespondenceModel, Disc, PolynomialMap
from redbergman.propermaps import MEMBERSHIP_MARGIN, OK, SINGULAR_RADIUS
from redbergman.transform import _second_derivatives

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)

# query disc |w| <= 0.9, away from the origin where several maps below
# have their critical value
_T = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
QUERIES = np.concatenate([r * np.exp(1j * (_T + 3.0 * r)) for r in (0.15, 0.45, 0.7, 0.9)])


def reference_branches(coeffs, axis, x, domain):
    """Per-point oracle: roots of one fibre in the domain, or None when
    a branch is missing."""
    c = coeffs if axis == 0 else coeffs.T
    fibre = np.trim_zeros(P.polyval(x, c), "b")
    roots = P.polyroots(fibre)
    val = P.polyval(roots, fibre)
    dval = P.polyval(roots, P.polyder(fibre))
    ok = np.abs(dval) > 1e-30
    roots[ok] = roots[ok] - val[ok] / dval[ok]
    inside = roots[domain.contains(roots, MEMBERSHIP_MARGIN)]
    return inside if len(inside) == len(fibre) - 1 else None


def far_from(points, bad, radius):
    if bad.size == 0:
        return np.ones(len(points), dtype=bool)
    return np.min(np.abs(points[:, None] - bad[None, :]), axis=1) > radius


def near_points(centres):
    """Queries within SINGULAR_RADIUS of each centre."""
    offsets = 0.5 * SINGULAR_RADIUS * np.exp(2j * np.pi * np.arange(3) / 3)
    return (centres[:, None] + offsets[None, :]).ravel()


def implicit_derivative(graph, z, w):
    """dz/dw = -Q_w/Q_z on the graph Q(z, w) = 0."""
    z, w = np.broadcast_arrays(z, w)
    qz, qw = (P.polyval2d(z, w, P.polyder(graph, axis=a)) for a in (0, 1))
    return -qw / qz


@st.composite
def blaschke_products(draw):
    """Degree 2-6 with zeros up to |a| = 0.97, one per angular sector so
    that no two zeros coincide."""
    n = draw(st.integers(2, 6))
    radii = draw(st.lists(st.floats(0.0, 0.97), min_size=n, max_size=n))
    turns = draw(st.lists(st.floats(0.0, 0.6), min_size=n, max_size=n))
    zeros = [r * np.exp(2j * np.pi * (k + t) / n) for k, (r, t) in enumerate(zip(radii, turns))]
    return BlaschkeProduct(zeros)


@st.composite
def polynomial_maps(draw):
    """Monic degree 2-5 with lower coefficients up to 0.3: every
    preimage of |w| <= 0.9 lies in |z| < 2, inside the source disc."""
    m = draw(st.integers(2, 5))
    lower = draw(st.lists(st.complex_numbers(max_magnitude=0.3), min_size=m, max_size=m))
    return PolynomialMap(lower + [1.0], Disc(0.0, 2.0), Disc(0.0, 1.0))


def check_map(f):
    crit = f.v2
    table = f.local_inverses(QUERIES)
    regular = far_from(QUERIES, crit, SINGULAR_RADIUS)
    # completeness: every regular query has all multiplicity-many branches
    assert np.array_equal(table.ok, regular)
    pts, der = table.points[regular], table.derivatives[regular]
    w = QUERIES[regular, None]
    assert pts.shape == (regular.sum(), f.multiplicity)
    assert np.max(np.abs(f(pts) - w)) <= 1e-12
    for x, row in zip(QUERIES[regular], pts):
        assert np.array_equal(row, reference_branches(f.graph.coeffs, 1, x, f.source))
    # derivatives against implicit differentiation of the graph, away
    # from critical values where both lose relative accuracy
    far = far_from(w[:, 0], crit, 1e-4)
    want = implicit_derivative(f.graph.coeffs, pts[far], w[far])
    assert np.max(np.abs(der[far] / want - 1.0)) <= 1e-10
    # a single-query array returns the matching row
    b = f.local_inverses(w[:1, 0])
    assert np.array_equal(b.points[0], pts[0]) and np.array_equal(b.derivatives[0], der[0])
    if crit.size:
        assert not np.any(f.local_inverses(near_points(crit)).ok)


@SETTINGS
@given(blaschke_products())
def test_blaschke_branches(f):
    check_map(f)


@SETTINGS
@given(polynomial_maps())
def test_polynomial_map_branches(f):
    check_map(f)


def near_set(got, want, tol):
    """Every point of each set lies within tol of the other set."""
    if not (got.size and want.size):
        return got.size == want.size
    d = np.abs(got[:, None] - want[None, :])
    return max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))) <= tol


@SETTINGS
@given(st.one_of(blaschke_products(), polynomial_maps()))
def test_graph_singular_set_is_critical_values(f):
    # v2 of the graph, from its resultant, against f at the zeros of f'
    # found apart from it; 2e-9 is about 2x the largest distance over 800
    # seeded draws (9.0e-10, where critical values cluster at 0)
    crit = f(f.critical_points())
    assert near_set(f.graph.v2, crit[f.target.contains(crit)], 2e-9)
    # the graph's single forward branch is (f, f')
    zs = f.local_inverses(QUERIES[far_from(QUERIES, f.v2, 1e-4)]).points.ravel()
    fwd = f.branches(zs, forward=True)
    assert np.all(fwd.ok)
    assert np.max(np.abs(fwd.points[:, 0] - f(zs))) <= 1e-12
    assert np.max(np.abs(fwd.derivatives[:, 0] / f.deriv(zs) - 1.0)) <= 1e-10


@st.composite
def maps_with_quotients(draw):
    """(f, numer, denom) with f = numer/denom: a Blaschke product with 1-5
    zeros, |a| < 0.9, one per angular sector, or a polynomial map drawn
    as in polynomial_maps."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        radii = draw(st.lists(st.floats(0.0, 0.9, exclude_max=True), min_size=n, max_size=n))
        turns = draw(st.lists(st.floats(0.0, 0.6), min_size=n, max_size=n))
        zeros = [r * np.exp(2j * np.pi * (k + t) / n) for k, (r, t) in enumerate(zip(radii, turns))]
        numer, denom = np.ones(1), np.ones(1)
        for a in zeros:
            numer, denom = P.polymul(numer, [-a, 1.0]), P.polymul(denom, [1.0, -np.conj(a)])
        return BlaschkeProduct(zeros), numer, denom
    m = draw(st.integers(2, 5))
    lower = draw(st.lists(st.complex_numbers(max_magnitude=0.3), min_size=m, max_size=m))
    return PolynomialMap(lower + [1.0], Disc(0.0, 2.0), Disc(0.0, 1.0)), lower + [1.0], [1.0]


def second_derivative_error(f, numer, denom):
    """Distances of the local inverses' F'' read off the graph from
    -f''(F) F'^3, with F' = 1/f'(F) and f', f'' by the quotient rule on
    numpy derivatives of numer and denom, and the magnitude of that
    reference's terms; queries within 1e-4 of a critical value, where
    both lose relative accuracy, are left out."""
    table = f.local_inverses(QUERIES)
    keep = table.ok & far_from(QUERIES, f.v2, 1e-4)
    pts, der = table.points[keep], table.derivatives[keep]
    got = _second_derivatives(f.graph, pts, der, QUERIES[keep, None])
    n0, n1, n2, d0, d1, d2 = (P.polyval(pts, P.polyder(c, k))
                              for c in (numer, denom) for k in range(3))
    fp = (n1 * d0 - n0 * d1) / d0 ** 2
    fpp = ((n2 * d0 - n0 * d2) * d0 - 2.0 * d1 * (n1 * d0 - n0 * d1)) / d0 ** 3
    terms = (abs(n2 * d0) + abs(n0 * d2)) * abs(d0) + 2.0 * abs(d1) * (abs(n1 * d0) + abs(n0 * d1))
    return np.abs(got + fpp / fp ** 3), terms / abs(d0) ** 3 / abs(fp) ** 3


@SETTINGS
@given(maps_with_quotients())
def test_graph_second_derivatives_of_local_inverses(case):
    # 1e-14 is about 3x the largest error over 800 seeded draws (2.9e-15
    # of the terms' magnitude; the median is 1e-15)
    err, scale = second_derivative_error(*case)
    assert np.all(err <= 1e-14 * scale)


def double_root_residual(coeffs, x):
    """Per point x, the larger of |Q| and |dQ/dy| (relative to the sum of
    |coefficients|) at the mean y of the closest root pair of Q(x, .),
    coefficients c[i, j] of x^i y^j."""
    out = []
    for x0 in x:
        fibre = np.trim_zeros(P.polyval(x0, coeffs), "b")
        roots = P.polyroots(fibre)
        gaps = np.abs(roots[:, None] - roots[None, :]) + np.diag(np.full(len(roots), np.inf))
        i, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        y = (roots[i] + roots[j]) / 2
        out.append(max(abs(P.polyval(y, fibre)), abs(P.polyval(y, P.polyder(fibre)))))
    return np.array(out) / np.sum(np.abs(coeffs))


@st.composite
def known_branch_points(draw):
    """(Q, v1, v2) on unit discs with known singular sets: w^2 - p(z) with
    p's roots drawn, or the union of the graphs of two Blaschke products."""
    zeros = st.lists(st.complex_numbers(max_magnitude=0.9), min_size=1, max_size=3)
    if draw(st.booleans()):
        roots = draw(st.lists(st.complex_numbers(max_magnitude=0.9), min_size=1, max_size=4))
        p = P.polyfromroots(roots)
        c = np.zeros((len(p), 3), dtype=complex)
        c[:, 0], c[0, 2] = -p, 1.0
        crit = P.polyroots(P.polyder(p)) if len(roots) > 1 else np.array([])
        # p(c) as a product of differences keeps a multiple root of p exact
        v2 = np.sqrt(np.prod(crit[:, None] - np.array(roots)[None, :], axis=1))
        return c, np.array(roots, dtype=complex), np.concatenate([v2, -v2])
    f, g = BlaschkeProduct(draw(zeros)), BlaschkeProduct(draw(zeros))
    assume(sorted(f.zeros, key=lambda a: (a.real, a.imag))
           != sorted(g.zeros, key=lambda a: (a.real, a.imag)))    # a square-free Q
    (n1, d1), (n2, d2) = (f._numer, f._denom), (g._numer, g._denom)
    c = np.zeros((len(n1) + len(n2) - 1, 3), dtype=complex)   # (n1 - w d1)(n2 - w d2)
    for j, terms in enumerate([[(n1, n2)], [(n1, d2), (n2, d1)], [(d1, d2)]]):
        for a, b in terms:
            c[:len(a) + len(b) - 1, j] += (-1) ** j * np.convolve(a, b)
    # where the graphs meet; a multiple root comes out as a cluster whose
    # mean is accurate
    meet = P.polyroots(P.polysub(P.polymul(n1, d2), P.polymul(n2, d1)))
    meet = np.array([np.mean(meet[np.abs(meet - z) < 1e-6]) for z in meet])
    meet = meet[np.abs(meet) < 1]
    v2 = [f(meet)] + [h(h.critical_points()) for h in (f, g)]
    return c, meet, np.concatenate(v2)


@SETTINGS
@given(known_branch_points())
def test_singular_sets_of_known_branch_points(case):
    coeffs, v1, v2 = case
    corr = CorrespondenceModel(coeffs, Disc(0.0, 1.0), Disc(0.0, 1.0))
    for got, want, c in ((corr.v1, v1, coeffs), (corr.v2, v2, coeffs.T)):
        # every returned point has a fibre with a double root, or loses a root
        lead = np.abs(P.polyval(got, c[:, -1])) <= 1e-10
        assert np.all(lead | (double_root_residual(c, got) <= 1e-10))
        # every known branch point inside the disc is returned
        want = want[np.abs(want) < 1 - 1e-9]
        if want.size:
            d = np.abs(want[:, None] - got[None, :])
            assert got.size and np.max(np.min(d, axis=1)) <= 1e-10


@pytest.mark.parametrize("zeros", [[0.97] * 3, [0.9] * 4, [0.8] * 5],
                         ids=["0.97x3", "0.9x4", "0.8x5"])
def test_coincident_blaschke_zeros_keep_critical_value(zeros):
    # a k-fold zero is a (k-1)-fold critical point with value 0
    f = BlaschkeProduct(zeros)
    assert f.local_inverses(np.array([0.0])).reason[0] != OK
