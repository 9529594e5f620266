"""Seeded property tests of the batched branch engine.

The oracle is the per-point solve kept below: each fibre's roots by
``P.polyroots`` plus one Newton step, filtered by domain membership.
The engine builds the same companion matrices and the same fibres, so
its rows must equal the oracle's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from redbergman import BlaschkeProduct, CorrespondenceModel, Disc, PolynomialMap
from redbergman.propermaps import (
    MEMBERSHIP_MARGIN,
    NEAR_CRITICAL_RADIUS,
    OK,
)

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
    """Queries within NEAR_CRITICAL_RADIUS of each centre."""
    offsets = 0.5 * NEAR_CRITICAL_RADIUS * np.exp(2j * np.pi * np.arange(3) / 3)
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
    regular = far_from(QUERIES, crit, NEAR_CRITICAL_RADIUS)
    # completeness: every regular query has all multiplicity-many branches
    assert np.array_equal(table.ok, regular)
    pts, der = table.points[regular], table.derivatives[regular]
    w = QUERIES[regular, None]
    assert pts.shape == (regular.sum(), f.multiplicity)
    assert np.max(np.abs(f(pts) - w)) <= 1e-12
    for x, row in zip(QUERIES[regular], pts):
        assert np.array_equal(row, reference_branches(f.graph, 1, x, f.source))
    # derivatives against implicit differentiation of the graph, away
    # from critical values where both lose relative accuracy
    far = far_from(w[:, 0], crit, 1e-4)
    want = implicit_derivative(f.graph, pts[far], w[far])
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


@SETTINGS
@given(st.one_of(blaschke_products(), polynomial_maps()))
def test_graph_correspondence_matches_map(f):
    corr = CorrespondenceModel(f.graph, f.source, f.target)
    assert (corr.p, corr.q) == (1, f.multiplicity)

    bwd = corr.backward_branches(QUERIES)
    inv = f.local_inverses(QUERIES)
    both = bwd.ok & inv.ok
    # the regular queries of the map stay regular on its graph
    assert np.array_equal(both, inv.ok & far_from(QUERIES, corr.v2, NEAR_CRITICAL_RADIUS))
    assert np.array_equal(bwd.points[both], inv.points[both])
    for x, row in zip(QUERIES[bwd.ok], bwd.points[bwd.ok]):
        assert np.array_equal(row, reference_branches(corr.coeffs, 1, x, corr.d1))
    far = far_from(QUERIES, f.v2, 1e-4) & both
    assert np.max(np.abs(bwd.derivatives[far] / inv.derivatives[far] - 1.0)) <= 1e-10

    zs = inv.points[inv.ok].ravel()
    fwd = corr.forward_branches(zs)
    assert np.all(fwd.ok)
    assert np.max(np.abs(fwd.points[:, 0] - f(zs))) <= 1e-12
    assert np.max(np.abs(fwd.derivatives[:, 0] / f.deriv(zs) - 1.0)) <= 1e-10

    if corr.v2.size:
        assert not np.any(corr.backward_branches(near_points(corr.v2)).ok)


@pytest.mark.parametrize("zeros", [[0.97] * 3, [0.9] * 4, [0.8] * 5],
                         ids=["0.97x3", "0.9x4", "0.8x5"])
def test_coincident_blaschke_zeros_keep_critical_value(zeros):
    # a k-fold zero is a (k-1)-fold critical point with value 0
    f = BlaschkeProduct(zeros)
    assert f.local_inverses(np.array([0.0])).reason[0] != OK
