"""Shared builders for the test suite."""

from functools import lru_cache

import numpy as np

from redbergman import (
    ConstantWeight,
    CorrespondenceModel,
    Disc,
    KernelEvaluator,
    PowerWeight,
    branch_table,
    build_annulus_quadrature,
    build_disc_quadrature,
    laurent_basis,
    monomial_basis,
    orthonormalize,
    pullback_weight,
    reduced_filter,
)

DISC = Disc(0.0, 1.0)


def corr_from_terms(terms, d1=DISC, d2=DISC):
    """Build a correspondence from (deg_z, deg_w, coeff) triples."""
    nz = max(t[0] for t in terms) + 1
    nw = max(t[1] for t in terms) + 1
    c = np.zeros((nz, nw), dtype=complex)
    for i, j, a in terms:
        c[i, j] = a
    return CorrespondenceModel(coeffs=c, d1=d1, d2=d2)


W2_MINUS_Z = corr_from_terms([(0, 2, 1.0), (1, 0, -1.0)])      # w^2 - z
W2_MINUS_Z2 = corr_from_terms([(0, 2, 1.0), (2, 0, -1.0)])     # w^2 - z^2
W_MINUS_Z = corr_from_terms([(0, 1, 1.0), (1, 0, -1.0)])       # identity


def branches_at(model, x, forward):
    """Branch points and derivatives of the single query x, as 1-D rows;
    raises the error of an unresolved query."""
    pts, der = branch_table(model, [x], forward)
    return pts[0], der[0]


@lru_cache(maxsize=None)
def disc_evaluator(degree=40, n_radial=40, n_angular=160, weight_kind="one"):
    """Cached unit-disc evaluator; weight_kind in {one, abs2, abs4,
    pullback_one, pullback_abs2_sq}."""
    weights = {
        "one": lambda: ConstantWeight(),
        "abs2": lambda: PowerWeight(1.0),
        "pullback_one": lambda: pullback_weight(ConstantWeight(), lambda z: z**2),
        "pullback_abs2_sq": lambda: pullback_weight(PowerWeight(1.0), lambda z: z**2),
    }
    weight = weights[weight_kind]()
    rule = build_disc_quadrature(0.0, 1.0, n_radial, n_angular)
    basis = monomial_basis(0.0, degree, rule.domain)
    return KernelEvaluator(orthonormalize(basis, rule, weight), rule, weight)


@lru_cache(maxsize=None)
def annulus_evaluator(r_in, r_out, n_min, n_max, n_radial=48, n_angular=192):
    """Cached reduced-Laurent annulus evaluator."""
    rule = build_annulus_quadrature(0.0, r_in, r_out, n_radial, n_angular)
    basis = reduced_filter(laurent_basis(0.0, n_min, n_max, rule.domain))
    one = ConstantWeight()
    return KernelEvaluator(orthonormalize(basis, rule, one), rule, one)
