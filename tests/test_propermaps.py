"""Maps, correspondences, branch solving, and derivative reciprocity."""

import numpy as np
import pytest

from conftest import DISC, W2_MINUS_Z, W2_MINUS_Z2, W_MINUS_Z, branches_at, corr_from_terms
from redbergman import Annulus, BlaschkeProduct, Disc, PolynomialMap, PowerMap, branch_table
from redbergman.errors import BranchCountError, NearCriticalError, SingularLocusError


def test_power_map_values_and_derivative():
    f = PowerMap(2)
    assert f(0.5) == pytest.approx(0.25)
    assert f.deriv(0.5) == pytest.approx(1.0)


def test_blaschke_value_and_derivative():
    f = BlaschkeProduct([0.5])
    assert f(0.0) == pytest.approx(-0.5)
    # (1 - |a|^2)/(1 - conj(a) z)^2 at z = 0
    assert f.deriv(0.0) == pytest.approx(0.75)


def test_polynomial_derivative_matches_finite_differences():
    f = PolynomialMap([0.0, -1.0, 1.0], DISC, Disc(0.0, 3.0))   # z^2 - z
    rng = np.random.default_rng(5)
    pts = 0.8 * np.sqrt(rng.random(10)) * np.exp(2j * np.pi * rng.random(10))
    h = 1e-6
    fd = (f(pts + h) - f(pts - h)) / (2 * h)
    assert np.max(np.abs(fd - f.deriv(pts)) / np.abs(f.deriv(pts))) < 1e-6


def test_critical_values():
    assert list(PowerMap(2).critical_values()) == [0.0]
    assert PowerMap(1).critical_values().size == 0

    f = BlaschkeProduct([0.0, 0.5])     # z(z - 0.5)/(1 - 0.5 z)
    crit = f.critical_values()
    assert len(crit) == 1
    # residual check: f' vanishes at the preimage inside the disc
    pts = f.critical_points()
    assert len(pts) == 1
    assert abs(f.deriv(pts[0])) < 1e-10
    assert abs(f(pts[0]) - crit[0]) < 1e-12
    zs, _ = branches_at(f, crit[0] + 0.05, False)   # nearby regular point solves fine
    assert len(zs) == 2

    # a power map with the critical point outside the source has no
    # critical values at all
    ann = Annulus(0.0, 0.5, 1.0)
    f = PowerMap(2, source=ann, target=Annulus(0.0, 0.25, 1.0))
    assert f.critical_values().size == 0


def test_local_inverses_power2():
    pts, der = branches_at(PowerMap(2), 0.25, False)
    assert sorted(np.round(pts, 12).tolist(), key=lambda s: s.real) == [-0.5, 0.5]
    for z0, d in zip(pts, der):
        assert d == pytest.approx(1.0 / (2.0 * z0))


def test_local_inverses_power3():
    pts, der = branches_at(PowerMap(3), 0.008, False)
    assert len(pts) == 3
    want = 0.2 * np.exp(2j * np.pi * np.arange(3) / 3)
    for r in want:
        assert np.min(np.abs(pts - r)) < 1e-12
    for z0, d in zip(pts, der):
        assert abs(d - 1.0 / (3.0 * z0**2)) < 1e-10


def test_local_inverses_blaschke_roundtrip():
    f = BlaschkeProduct([0.0, 0.5])
    rng = np.random.default_rng(9)
    crit = f.critical_values()
    ws = np.array([0.9 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
                   for _ in range(20)])
    ws = ws[np.min(np.abs(crit[None, :] - ws[:, None]), axis=1) >= 1e-3]
    pts, der = branch_table(f, ws, forward=False)
    assert pts.shape == (len(ws), 2)
    assert np.max(np.abs(f(pts) - ws[:, None])) < 1e-10
    # derivative reciprocity F_k'(w) f'(F_k(w)) = 1
    assert np.max(np.abs(der * f.deriv(pts) - 1.0)) < 1e-8


def test_local_inverses_near_critical_rejected():
    with pytest.raises(NearCriticalError):
        branch_table(PowerMap(2), [1e-9], forward=False)


def test_branch_completeness_on_grid():
    f = BlaschkeProduct([0.3, -0.2])
    crit = f.critical_values()
    t = np.linspace(-0.85, 0.85, 15)
    grid = (t[:, None] + 1j * t[None, :]).ravel()
    grid = grid[np.abs(grid) < 0.85]
    grid = grid[np.min(np.abs(grid[:, None] - crit[None, :]), axis=1) > 1e-6]
    b = f.local_inverses(grid)
    assert np.all(b.ok)
    assert np.max(np.abs(f(b.points) - grid[:, None])) < 1e-10


def test_correspondence_counts_and_singular_sets():
    assert (W2_MINUS_Z.p, W2_MINUS_Z.q) == (2, 1)
    assert (W2_MINUS_Z2.p, W2_MINUS_Z2.q) == (2, 2)
    assert np.allclose(W2_MINUS_Z.v1, [0.0])
    assert W2_MINUS_Z.v2.size == 0
    assert np.allclose(W2_MINUS_Z2.v1, [0.0])
    assert np.allclose(W2_MINUS_Z2.v2, [0.0])


def test_forward_backward_mirror_correspondence():
    pts, der = branches_at(W2_MINUS_Z2, 0.3, True)
    assert np.max(np.abs(np.sort_complex(pts) - np.asarray([-0.3, 0.3]))) < 1e-12
    order = np.argsort(pts.real)
    assert np.allclose(der[order], [-1.0, 1.0])


def test_forward_backward_sqrt_correspondence():
    fwd, _ = branches_at(W2_MINUS_Z, 0.25, True)
    assert np.max(np.abs(np.sort_complex(fwd) - np.asarray([-0.5, 0.5]))) < 1e-12
    pts, der = branches_at(W2_MINUS_Z, 0.5, False)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(0.25)
    assert der[0] == pytest.approx(1.0)      # dz/dw = 2w at w = 0.5


def test_identity_correspondence():
    pts, der = branches_at(W_MINUS_Z, 0.3 + 0.2j, True)
    assert pts[0] == pytest.approx(0.3 + 0.2j)
    assert der[0] == pytest.approx(1.0)


def test_branch_derivative_matches_finite_difference():
    rng = np.random.default_rng(13)
    zs = np.array([0.2 + 0.5 * rng.random() + 0.2j * rng.random() for _ in range(10)])
    h = 1e-6
    pts, der = branch_table(W2_MINUS_Z, zs, forward=True)
    plus, _ = branch_table(W2_MINUS_Z, zs + h, forward=True)
    minus, _ = branch_table(W2_MINUS_Z, zs - h, forward=True)
    # match branches by proximity before differencing
    for row, drow, prow, mrow in zip(pts, der, plus, minus):
        for pt, d in zip(row, drow):
            p_plus = prow[np.argmin(np.abs(prow - pt))]
            p_minus = mrow[np.argmin(np.abs(mrow - pt))]
            fd = (p_plus - p_minus) / (2 * h)
            assert abs(fd - d) / abs(d) < 1e-6


def test_graph_residual_and_symmetry():
    rng = np.random.default_rng(17)
    zs = 0.2 + 0.6 * rng.random(12) + 0.5j * (rng.random(12) - 0.5)
    for corr in (W2_MINUS_Z, W2_MINUS_Z2):
        fwd, _ = branch_table(corr, zs, forward=True)
        assert np.max(np.abs(corr.qval(zs[:, None], fwd))) < 1e-10
        # each forward pair appears among the backward branches of its w
        z = np.repeat(zs, fwd.shape[1])
        w = fwd.ravel()
        if corr.v2.size:
            far = np.min(np.abs(corr.v2[None, :] - w[:, None]), axis=1) >= 1e-6
            z, w = z[far], w[far]
        back, _ = branch_table(corr, w, forward=False)
        assert np.max(np.min(np.abs(back - z[:, None]), axis=1)) < 1e-9


def test_singular_locus_query_rejected():
    with pytest.raises(SingularLocusError):
        branch_table(W2_MINUS_Z, [0.0], forward=True)
    with pytest.raises(SingularLocusError):
        branch_table(W2_MINUS_Z2, [1e-10], forward=False)


def test_branch_count_error_outside_domain():
    # Q = w^2 - 4 z^2 pushes branches outside the unit disc for |z| > 1/2
    corr = corr_from_terms([(0, 2, 1.0), (2, 0, -4.0)])
    with pytest.raises(BranchCountError):
        branch_table(corr, [0.7], forward=True)


def test_variable_leading_coefficient_correspondence():
    # Q = (1 - z) w^2 - z: the w-leading coefficient varies with z
    corr = corr_from_terms([(0, 2, 1.0), (1, 2, -1.0), (1, 0, -1.0)])
    assert (corr.p, corr.q) == (2, 1)
    assert np.allclose(np.sort_complex(corr.v1), [0.0])
    pts, _ = branches_at(corr, 0.2, True)       # w = +-sqrt(z/(1-z)) = +-0.5
    assert np.max(np.abs(np.sort_complex(pts) - np.asarray([-0.5, 0.5]))) < 1e-10
    with pytest.raises(BranchCountError):
        branches_at(corr, 0.6, True)       # branches escape the unit disc
