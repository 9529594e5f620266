"""Basis families, periods, the reduced filter, and weights."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redbergman import (
    Annulus,
    BasisElement,
    BlaschkeProduct,
    ConstantWeight,
    Disc,
    GenericDomain,
    PowerMap,
    PowerWeight,
    PullbackWeight,
    RadialPolyWeight,
    build_annulus_quadrature,
    build_disc_quadrature,
    laurent_basis,
    monomial_basis,
    numerical_period,
    pullback_weight,
    reduced_filter,
)
from redbergman.holobasis import RawBasis

DISC = Disc(0.0, 1.0)
ANN = Annulus(0.0, 0.5, 1.0)


def test_monomial_basis_elements():
    basis = monomial_basis(0.0, 2, DISC)
    assert [e.power for e in basis.elements] == [0, 1, 2]
    assert all(e.center == 0.0 for e in basis.elements)
    assert [f.name for f in dataclasses.fields(BasisElement)] == ["power", "center"]


def test_monomial_derivative_value():
    basis = monomial_basis(0.0, 2, DISC)
    assert basis.deriv_values(0.3, 1)[2] == pytest.approx(0.6)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    basis = laurent_basis(0.0, -3, 4, ANN)
    pts = 0.7 * np.exp(2j * np.pi * rng.random(8))
    h = 1e-6
    for order in (1, 2):
        fd = (basis.deriv_values(pts + h, order - 1)
              - basis.deriv_values(pts - h, order - 1)) / (2 * h)
        exact = basis.deriv_values(pts, order)
        assert np.max(np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-12)) < 1e-6


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_values_match_extended_precision(order):
    rng = np.random.default_rng(11)
    pts = 0.95 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
    got = monomial_basis(0.0, 60, DISC).deriv_values(pts, order)
    # n (n-1) ... (n-order+1) z^(n-order), powers by repeated long-double products
    z = pts.astype(np.clongdouble)
    power = np.ones_like(z)
    want = np.zeros((len(pts), 61), dtype=np.clongdouble)
    for k in range(61 - order):
        n = k + order
        want[:, n] = np.prod(np.arange(k + 1, n + 1, dtype=np.longdouble)) * power
        power = power * z
    assert np.array_equal(got[:, :order], np.zeros((len(pts), order)))
    rel = np.abs(got[:, order:] - want[:, order:]) / np.abs(want[:, order:])
    # cumulative products measure 1.4e-15 here, complex ** 6e-15
    assert float(np.max(rel)) <= 3e-15


def test_laurent_basis_powers_and_periods():
    basis = laurent_basis(0.0, -2, 1, ANN)
    assert [e.power for e in basis.elements] == [-2, -1, 0, 1]
    periods = {e.power: numerical_period(e, 0.0, 0.75, 256) for e in basis.elements}
    assert abs(periods[-1] - 1.0) < 1e-10
    assert abs(periods[-2]) < 1e-10
    assert abs(periods[0]) < 1e-10


def test_reduced_filter_drops_exactly_the_elements_with_a_period():
    # the period around the hole is 1 for (z - c)^-1 with c in the hole, else 0
    for centre, in_hole in ((0.1 + 0.2j, True), (1.5j, False)):
        basis = laurent_basis(centre, -3, 3, ANN)
        periods = [numerical_period(e, 0.0, 0.75, 256) for e in basis.elements]
        for e, p in zip(basis.elements, periods):
            assert abs(p - (1.0 if in_hole and e.power == -1 else 0.0)) < 1e-10
        kept = [e for e, p in zip(basis.elements, periods) if abs(p) < 0.5]
        assert list(reduced_filter(basis).elements) == kept
        assert len(kept) == (6 if in_hole else 7)


def test_reduced_filter_drops_only_residue_term():
    basis = laurent_basis(0.0, -2, 1, ANN)
    red = reduced_filter(basis)
    assert [e.power for e in red.elements] == [-2, 0, 1]


def test_reduced_filter_identity_on_monomials():
    basis = monomial_basis(0.0, 6, DISC)
    assert reduced_filter(basis).elements == basis.elements


def test_reduced_filter_idempotent_and_empty():
    basis = laurent_basis(0.0, -2, 2, ANN)
    once = reduced_filter(basis)
    twice = reduced_filter(once)
    assert once.elements == twice.elements
    assert reduced_filter(RawBasis((), ANN)).elements == ()


def test_laurent_center_inside_disc_rejected():
    with pytest.raises(ValueError):
        laurent_basis(0.0, -2, 2, DISC)


@pytest.mark.parametrize("centre, refused", [
    (0.75j, True), (0.5, True), (-1.0j, True), (0.2 + 0.1j, False), (1.5, False),
], ids=["body", "inner-circle", "outer-circle", "hole", "outside"])
def test_laurent_center_in_an_annulus_body_rejected(centre, refused):
    if refused:
        with pytest.raises(ValueError, match="closed body"):
            laurent_basis(centre, -1, 2, ANN)
    else:
        assert len(laurent_basis(centre, -1, 2, ANN)) == 4
    # without a negative power every centre is holomorphic
    assert len(laurent_basis(centre, 0, 2, ANN)) == 3


def test_laurent_on_generic_rejected():
    dom = GenericDomain(inside=lambda z: np.abs(z) < 1, bbox=(-1, 1, -1, 1))
    with pytest.raises(ValueError):
        laurent_basis(0.0, -1, 1, dom)


def test_weights_positive_and_parameterized():
    nu = PowerWeight(1.0)
    assert nu(2.0) == pytest.approx(4.0)
    one = ConstantWeight()
    assert np.all(one(np.array([0.1, 0.9j])) == 1.0)
    rp = RadialPolyWeight([1.0, 2.0])
    assert rp(1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        RadialPolyWeight([0.0, 1.0])
    with pytest.raises(ValueError):
        PowerWeight(-1.0)


def test_pullback_weight_compositions():
    nu = PowerWeight(1.0)          # |w|^2
    f = PowerMap(2)
    comp = pullback_weight(nu, f)  # |z|^4
    assert isinstance(comp, PullbackWeight)
    z = 0.6 + 0.2j
    assert comp(z) == pytest.approx(abs(z) ** 4)

    one = ConstantWeight()
    assert pullback_weight(one, f)(0.3) == 1.0

    b = BlaschkeProduct([0.5])
    assert pullback_weight(nu, b)(0.0) == pytest.approx(0.25)



RING_WEIGHTS = {
    "constant": ConstantWeight(2.5),
    "power": PowerWeight(1.0),
    "radial_poly": RadialPolyWeight([1.0, 0.5, 2.0]),
    "z^2 pull-back": pullback_weight(PowerWeight(1.0), PowerMap(2)),
    "z^3 pull-back of radial_poly": pullback_weight(RadialPolyWeight([1.0, 0.5]), PowerMap(3)),
}


@pytest.mark.parametrize("name", RING_WEIGHTS)
@pytest.mark.parametrize("rule", [build_disc_quadrature(0.0, 1.0, 12, 40),
                                  build_annulus_quadrature(0.0, 0.5, 1.0, 12, 40)],
                         ids=["disc", "annulus"])
def test_ring_values_match_the_weight_at_the_nodes(name, rule):
    weight = RING_WEIGHTS[name]
    polar = rule.polar
    ring = weight.ring_values(polar.center, polar.radii)
    at_nodes = weight(rule.nodes).reshape(len(polar.radii), polar.n_angular)
    assert ring.shape == polar.radii.shape
    # the nodes' own rounding, raised to the weight's power, is all that differs
    eps = np.finfo(float).eps
    assert np.all(np.abs(at_nodes - ring[:, None]) <= 4 * eps * ring[:, None])


@pytest.mark.parametrize("weight, center", [
    (PowerWeight(1.0, 0.3), 0.0),
    (PowerWeight(1.0), 0.3),
    (RadialPolyWeight([1.0, 2.0], 0.1j), 0.0),
    (pullback_weight(PowerWeight(1.0), PowerMap(2)), 0.2),
    (pullback_weight(PowerWeight(1.0), lambda z: z ** 2), 0.0),
    (pullback_weight(PowerWeight(1.0), BlaschkeProduct([0.0, 0.0])), 0.0),
], ids=["power off-centre", "rings off the weight's centre", "radial_poly off-centre",
        "power-map pull-back off 0", "lambda pull-back", "Blaschke pull-back"])
def test_ring_values_are_none_where_rings_are_not_level_sets(weight, center):
    assert weight.ring_values(center, np.array([0.3, 0.7])) is None

def stacked_values(basis, pts):
    """Reference: every element evaluated on its own by ``**``."""
    pts = np.asarray(pts, dtype=complex)
    return np.stack([e.eval(pts) for e in basis.elements], axis=-1)


def stacked_derivs(basis, pts, order):
    """Reference: every element's falling factorial n (n - 1) ... (n - order + 1)
    times (z - c)^(n - order) by ``**``; the factorial is 0 for 0 <= n < order."""
    pts = np.asarray(pts, dtype=complex)
    return np.stack([math.prod(range(e.power - order + 1, e.power + 1))
                     * (pts - e.center) ** (e.power - order) for e in basis.elements], axis=-1)


# the sample points lie in 0.4 <= |z| <= 0.9, inside SAMPLE_ANN and at least
# 0.29 from every centre; the first two centres lie in its hole, the others
# outside it, so the reduced filter drops (z - c)^-1 of the first two only
SAMPLE_ANN = Annulus(0.0, 0.3, 1.0)
CENTRES = (0.0, 0.1 - 0.05j, 1.6 + 0.4j, -1.2j)


@st.composite
def families(draw, centre):
    kind = draw(st.sampled_from(["monomial", "laurent", "reduced"]))
    if kind == "monomial":
        return list(monomial_basis(centre, draw(st.integers(0, 25)), SAMPLE_ANN).elements)
    n_min = draw(st.integers(-8, 3))
    basis = laurent_basis(centre, n_min, draw(st.integers(max(n_min, 0), 25)), SAMPLE_ANN)
    return list((reduced_filter(basis) if kind == "reduced" else basis).elements)


@st.composite
def bases(draw):
    n_families = draw(st.integers(1, len(CENTRES)))
    elements = sum((draw(families(c)) for c in CENTRES[:n_families]), [])
    if draw(st.booleans()):
        elements = draw(st.permutations(elements))
    return RawBasis(tuple(elements), SAMPLE_ANN)


@st.composite
def points(draw):
    shape = draw(st.sampled_from([(), (1,), (5,), (2, 3), (4, 1)]))
    n = int(np.prod(shape))
    r = draw(st.lists(st.floats(0.4, 0.9), min_size=n, max_size=n))
    t = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n))
    return (np.array(r) * np.exp(1j * np.array(t))).reshape(shape)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(basis=bases(), pts=points())
def test_values_match_per_element_powers(basis, pts):
    got = basis.values(pts)
    want = stacked_values(basis, pts)
    assert got.shape == want.shape == np.shape(pts) + (len(basis),)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(basis=bases(), pts=points(), order=st.integers(1, 3))
def test_deriv_values_match_per_element_derivatives(basis, pts, order):
    got = basis.deriv_values(pts, order)
    want = stacked_derivs(basis, pts, order)
    assert got.shape == want.shape == np.shape(pts) + (len(basis),)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_values_of_high_powers_match_extended_precision():
    # repeated multiplication in long double is the reference; complex
    # ``**`` is off by up to ~6e-14 relative at degree 120 on these points
    rng = np.random.default_rng(5)
    z = np.sqrt(rng.uniform(0.25, 0.99, 1000)) * np.exp(2j * np.pi * rng.random(1000))
    got = monomial_basis(0.0, 120).values(z).astype(np.clongdouble)
    zl = z.astype(np.clongdouble)
    ref = np.ones((len(z), 121), dtype=np.clongdouble)
    for n in range(1, 121):
        ref[:, n] = ref[:, n - 1] * zl
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4e-15
