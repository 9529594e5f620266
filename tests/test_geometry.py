"""Quadrature construction and domain membership checks."""

import math

import numpy as np
import pytest

from redbergman import (
    Annulus,
    Disc,
    GenericDomain,
    build_annulus_quadrature,
    build_disc_quadrature,
    build_generic_quadrature,
)
from redbergman.errors import EmptyDomainError
from redbergman.geometry import _gauss_legendre, _polar_rule


def quad_integral(rule, f):
    return np.sum(rule.weights * f(rule.nodes))


def test_single_node_disc_rule_total_weight():
    rule = build_disc_quadrature(0.0, 1.0, 1, 1)
    assert len(rule) == 1
    # the 1-point Gauss node sits at the radial midpoint, angle 0
    assert rule.nodes[0] == pytest.approx(0.5 + 0.0j)
    assert rule.total_weight == pytest.approx(math.pi, rel=1e-12)


def test_disc_rule_node_count_and_area():
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    assert len(rule) == 3200
    assert abs(rule.total_weight - math.pi) <= 1e-10 * math.pi


def test_disc_rule_integrates_abs_square():
    # oracle: int_0^1 r^2 * 2 pi r dr = pi/2
    rule = build_disc_quadrature(0.0, 1.0, 40, 80)
    val = quad_integral(rule, lambda z: np.abs(z) ** 2)
    assert val == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_annulus_rule_area():
    rule = build_annulus_quadrature(0.0, 0.5, 1.0, 40, 80)
    assert abs(rule.total_weight - 0.75 * math.pi) <= 1e-10 * 0.75 * math.pi


def test_annulus_rule_integrates_inverse_square():
    # oracle: 2 pi int_{1/2}^1 dr/r = 2 pi ln 2
    rule = build_annulus_quadrature(0.0, 0.5, 1.0, 40, 80)
    val = quad_integral(rule, lambda z: 1.0 / np.abs(z) ** 2)
    assert val == pytest.approx(2.0 * math.pi * math.log(2.0), rel=1e-8)


def test_gauss_legendre_memo_is_exact_and_read_only():
    rules = [build_disc_quadrature(0.0, 1.0, 37, 16) for _ in range(2)]
    assert np.array_equal(rules[0].nodes, rules[1].nodes)
    assert np.array_equal(rules[0].weights, rules[1].weights)
    x, w = _gauss_legendre(37)
    assert _gauss_legendre(37)[0] is x
    want_x, want_w = np.polynomial.legendre.leggauss(37)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    # the radii of the rule are exactly those of a fresh leggauss call
    assert np.array_equal(rules[0].polar.radii, 0.5 + 0.5 * want_x)
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_polar_rule_checks_raise():
    disc = Disc(0.0, 1.0)
    with pytest.raises(ValueError, match="area"):
        _polar_rule(0.0, 0.0, 1.0, 8, 16, disc, 2.0 * disc.area())
    # radii up to 1 on a disc of radius 0.5, with that disc's area claimed
    with pytest.raises(ValueError, match="outside"):
        _polar_rule(0.0, 0.0, 1.0, 8, 16, Disc(0.0, 0.5), disc.area())


def test_annulus_rejects_reversed_radii():
    with pytest.raises(ValueError):
        build_annulus_quadrature(0.0, 1.0, 0.5, 8, 8)


def test_invalid_counts_and_radius_rejected():
    with pytest.raises(ValueError):
        build_disc_quadrature(0.0, 1.0, 0, 8)
    with pytest.raises(ValueError):
        build_disc_quadrature(0.0, 1.0, 8, 0)
    with pytest.raises(ValueError):
        build_disc_quadrature(0.0, -1.0, 8, 8)
    with pytest.raises(ValueError):
        build_disc_quadrature(complex("nan"), 1.0, 8, 8)


def test_generic_square_fills_own_bbox():
    square = GenericDomain(inside=lambda z: True, bbox=(0.0, 1.0, 0.0, 1.0))
    rule = build_generic_quadrature(square, 10)
    assert len(rule) == 100
    assert rule.total_weight == pytest.approx(1.0, abs=1e-14)


def test_generic_disc_area_first_order():
    disc = GenericDomain(inside=lambda z: np.abs(z) < 1.0, bbox=(-1.0, 1.0, -1.0, 1.0))
    rule = build_generic_quadrature(disc, 400)
    # midpoint-cell area converges at first order; 1e-2 measured with margin
    assert abs(rule.total_weight - math.pi) <= 1e-2 * math.pi


def test_generic_empty_predicate_raises():
    empty = GenericDomain(inside=lambda z: False, bbox=(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(EmptyDomainError):
        build_generic_quadrature(empty, 10)


def test_generic_small_grid_rejected():
    square = GenericDomain(inside=lambda z: True, bbox=(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        build_generic_quadrature(square, 4)


@pytest.mark.parametrize("rule", [
    build_disc_quadrature(0.3 + 0.1j, 2.0, 12, 24),
    build_annulus_quadrature(0.0, 0.5, 1.0, 12, 24),
])
def test_weights_positive_nodes_inside(rule):
    assert np.all(rule.weights > 0)
    assert np.all(rule.domain.contains(rule.nodes))


def test_angular_exactness_of_mixed_monomials():
    # z^a conj(z)^b integrates to 0 for a != b, a, b <= n_angular/2 - 1
    for rule in (build_disc_quadrature(0.0, 1.0, 16, 32),
                 build_annulus_quadrature(0.0, 0.5, 1.0, 16, 32)):
        kmax = 32 // 2 - 1
        for a in range(kmax + 1):
            for b in range(kmax + 1):
                if a == b:
                    continue
                val = quad_integral(rule, lambda z: z**a * np.conj(z) ** b)
                assert abs(val) < 1e-12


def test_refinement_monotonicity_on_abs_square():
    exact = math.pi / 2.0
    errs = []
    for k in (4, 8, 16):
        rule = build_disc_quadrature(0.0, 1.0, k, 2 * k)
        errs.append(abs(quad_integral(rule, lambda z: np.abs(z) ** 2) - exact))
    assert errs[1] <= errs[0] + 1e-15
    assert errs[2] <= errs[1] + 1e-15


def test_domain_invariants():
    with pytest.raises(ValueError):
        Disc(0.0, 0.0)
    with pytest.raises(ValueError):
        Annulus(0.0, 0.7, 0.7)
    ann = Annulus(0.0, 0.5, 1.0)
    assert not ann.contains(0.0)
    assert ann.contains(0.75)
    assert Disc(0.0, 1.0).contains(0.75)


@pytest.mark.parametrize("bbox", [
    (-math.inf, 1.0, -0.71, 0.71), (-1.0, math.inf, -0.71, 0.71), (-1.0, 1.0, math.nan, 0.71),
    (0.0, 0.0, 0.0, 1.0),
], ids=["-inf", "inf", "nan", "degenerate"])
def test_generic_bbox_must_be_finite_and_non_degenerate(bbox):
    with pytest.raises(ValueError, match="bbox must be finite and non-degenerate"):
        GenericDomain(inside=lambda z: np.abs(z) < 1.0, bbox=bbox)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_constant_predicate_broadcasts(value, shape):
    dom = GenericDomain(inside=lambda z: value, bbox=(0.0, 1.0, 0.0, 1.0))
    got = dom.contains(np.full(shape, 0.5 + 0.5j))
    assert got.shape == shape and got.dtype == bool
    assert np.all(got == value)


def test_scalar_only_predicate_raises_instead_of_looping():
    calls = []

    def unit_square(z):
        calls.append(z)
        return (0 < z.real < 1) and (0 < z.imag < 1)

    dom = GenericDomain(inside=unit_square, bbox=(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="truth value of an array"):
        build_generic_quadrature(dom, 10)
    # one call on every cell centre at once, none point by point
    assert len(calls) == 1 and np.shape(calls[0]) == (100,)
