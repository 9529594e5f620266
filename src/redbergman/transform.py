"""Transformation-formula verification through batched branch sums.

Every operator here is a derivative-weighted branch sum: for a
correspondence with forward branches f_i and backward branches F_j,
    sum_i f_i'(z) u(f_i(z))   and   sum_j F_j'(w) v(F_j(w)),
and for a proper map f (solved as its graph) the single forward branch
f and the local inverses F_k.  ``branch_table`` solves all branches of a
query array at once, so the sums over many functions and points share
one solve.  The adjointness and operator-bound checks, the verify
sweeps and the map recovery are built on those tables; they measure the
residuals of exact identities, where all remaining error is
discretization.

Sweeps exclude the samples within GRID_EXCLUSION of the singular sets
(critical values, discriminant loci) and count them; a query outside
those zones whose branches cannot be resolved raises its error.  Map
recovery differentiates the kernel branch sum exactly in conj(w), from
the analytic kernel derivative and the second derivatives of the local
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearCriticalError
from .holobasis import WeightFn
from .kernel import KernelEvaluator
from .propermaps import CorrespondenceModel, ProperMap, far_from

__all__ = [
    "TransformReport",
    "MapRecovery",
    "branch_table",
    "adjoint_residual_matrix",
    "operator_bound_check",
    "verify_proper",
    "verify_correspondence",
    "recover_map",
]

GRID_EXCLUSION = 1e-6
REL_FLOOR = 1e-300
ABS_FALLBACK_SCALE = 1e-10


@dataclass(frozen=True)
class TransformReport:
    """Per-sample record of one verification sweep and its statistics.

    ``lhs``/``rhs`` have shape (len(z), len(w)); ``kept`` marks the
    samples outside every exclusion zone, and the other entries are NaN.
    ``max_rel_residual`` normalizes each sample by |LHS| but falls back
    to the absolute residual where |LHS| < 1e-10 (identity checks near
    kernel zeros would otherwise divide noise by noise).
    """

    n_samples: int
    excluded: int
    max_abs_residual: float
    max_rel_residual: float
    lhs_scale: float
    z: np.ndarray
    w: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    kept: np.ndarray


# ---------------------------------------------------------------------------
# branch sums

def branch_table(model, points, forward: bool):
    """Branch points and derivatives over many query points at once.

    Returns (pts, der) of shape (len(points), k) where k is the branch
    count; the solve is done once so several functions can be summed
    over the same branches.  For proper maps the forward direction is
    the single branch (f, f').  Raises the error of the first query
    whose branches cannot be resolved.
    """
    points = np.asarray(points, dtype=complex)
    table = model.branches(points, forward)
    table.require_ok(points)
    return table.points, table.derivatives


def _branch_sum(func, pts, der) -> np.ndarray:
    return np.einsum("nk,nk->n", der, func(pts))


def adjoint_residual_matrix(model, us, vs, rule1, rule2,
                            weight: WeightFn | None = None,
                            backward=None) -> np.ndarray:
    """Residuals |<op1 u, v>_1 - <u, op2 v>_2| for all (u, v) pairs.

    op1 u = sum_i f_i' u(f_i) is the forward and op2 v = sum_j F_j' v(F_j)
    the backward branch sum.  For correspondences the inner products are
    unweighted.  For proper maps (op1 u = f' u(f)) they are
    <.,.>_{nu o f} on the source and <.,.>_nu on the target; pass
    ``weight`` as nu (None means nu = 1) for maps only.  Branch solving
    is shared across all functions; pass ``backward`` to reuse a solved
    ``branch_table(model, rule2.nodes, forward=False)``.
    """
    fpts, fder = branch_table(model, rule1.nodes, forward=True)
    if backward is None:
        backward = branch_table(model, rule2.nodes, forward=False)
    bpts, bder = backward
    if weight is None:
        nu1 = np.ones(len(rule1))
        nu2 = np.ones(len(rule2))
    else:
        nu1 = np.asarray(weight(model(rule1.nodes)), dtype=float)
        nu2 = np.asarray(weight(rule2.nodes), dtype=float)
    op1u = np.stack([_branch_sum(u, fpts, fder) for u in us])       # (nu, n1)
    op2v = np.stack([_branch_sum(v, bpts, bder) for v in vs])       # (nv, n2)
    v1 = np.stack([np.asarray(v(rule1.nodes)) for v in vs])         # (nv, n1)
    u2 = np.stack([np.asarray(u(rule2.nodes)) for u in us])         # (nu, n2)
    lhs = (op1u * (rule1.weights * nu1)) @ v1.conj().T              # (nu, nv)
    rhs = (u2 * (rule2.weights * nu2)) @ op2v.conj().T
    return np.abs(lhs - rhs)


def operator_bound_check(corr: CorrespondenceModel, v, rule1, rule2, backward=None):
    """Both sides of <op2 v, op2 v>_2 <= p*q*<v, v>_1 by quadrature, op2
    the backward branch sum; the caller asserts lhs <= rhs*(1 + 1e-6).
    ``backward`` as in adjoint_residual_matrix."""
    if backward is None:
        backward = branch_table(corr, rule2.nodes, forward=False)
    bpts, bder = backward
    g2v = _branch_sum(v, bpts, bder)
    lhs = float(np.sum(rule2.weights * np.abs(g2v) ** 2))
    rhs = corr.p * corr.q * float(np.sum(rule1.weights * np.abs(v(rule1.nodes)) ** 2))
    return lhs, rhs


# ---------------------------------------------------------------------------
# transformation-formula sweeps

def verify_proper(f: ProperMap, ev1: KernelEvaluator, ev2: KernelEvaluator,
                  z_grid, w_grid) -> TransformReport:
    """Residuals of f'(z) K2(f(z), w) = sum_k K1(z, F_k(w)) conj(F_k'(w))
    over the grid product; ev1 lives on the source, ev2 on the target.
    For weighted kernels ev2 carries a weight nu and ev1 its pull-back
    nu o f (``pullback_weight``)."""
    return verify_correspondence(f, ev1, ev2, z_grid, w_grid)


def verify_correspondence(corr: CorrespondenceModel | ProperMap, ev1: KernelEvaluator,
                          ev2: KernelEvaluator, z_grid, w_grid) -> TransformReport:
    """Residuals of sum_i f_i'(z) K2(f_i(z), w) = sum_j K1(z, F_j(w)) conj(F_j'(w))
    over the grid product; a proper map is swept as its graph.  Samples
    within GRID_EXCLUSION of the singular sets are excluded; any other
    query whose branches cannot be resolved raises its error."""
    zs = np.asarray(z_grid, dtype=complex)
    ws = np.asarray(w_grid, dtype=complex)
    kz = far_from(zs, corr.v1, GRID_EXCLUSION)
    kw = far_from(ws, corr.v2, GRID_EXCLUSION)
    fp, fd = branch_table(corr, zs[kz], forward=True)       # (nz, p)
    bp, bd = branch_table(corr, ws[kw], forward=False)      # (nw, q)
    kept = kz[:, None] & kw[None, :]
    lhs = np.full(kept.shape, np.nan, dtype=complex)
    rhs = np.full(kept.shape, np.nan, dtype=complex)
    if kept.any():
        nz, nw = len(fp), len(bp)
        k2 = ev2.eval_kernel_grid(fp.ravel(), ws[kw]).reshape(nz, -1, nw)
        if fd.shape[1] == 1:
            # a map's single branch f'(z) K2(f(z), w) as the multiply ufunc
            # rounds it; einsum rounds complex products differently
            lhs[np.ix_(kz, kw)] = fd * k2[:, 0, :]
        else:
            lhs[np.ix_(kz, kw)] = np.einsum("zp,zpw->zw", fd, k2)
        k1 = ev1.eval_kernel_grid(zs[kz], bp.ravel()).reshape(nz, nw, -1)
        rhs[np.ix_(kz, kw)] = np.einsum("zwq,wq->zw", k1, bd.conj())
    absres = np.abs(lhs[kept] - rhs[kept])
    lhs_mag = np.abs(lhs[kept])
    rel = np.where(lhs_mag >= ABS_FALLBACK_SCALE,
                   absres / np.maximum(lhs_mag, REL_FLOOR), absres)
    return TransformReport(
        n_samples=kept.size,
        excluded=kept.size - int(np.count_nonzero(kept)),
        max_abs_residual=float(np.max(absres)) if absres.size else 0.0,
        max_rel_residual=float(np.max(rel)) if rel.size else 0.0,
        lhs_scale=float(np.max(lhs_mag)) if lhs_mag.size else 0.0,
        z=zs, w=ws, lhs=lhs, rhs=rhs, kept=kept,
    )


# ---------------------------------------------------------------------------
# map recovery

@dataclass(frozen=True)
class MapRecovery:
    """Per-point output of the kernel-ratio map recovery.

    ``ratio_half`` is g1/(2*g0), the raw half-ratio of the
    differentiated and plain branch sums at the probe.  With probe 0 it
    equals the map itself; at a shifted probe w0 the identity becomes
    ratio_half = f/(1 - f*conj(w0)), and ``map_estimate`` inverts that.
    Samples with |g0| below the degeneracy floor are masked out and
    counted in ``excluded``.
    """

    points: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    ratio_half: np.ndarray
    map_estimate: np.ndarray
    probe: complex
    probe_shifted: bool
    valid: np.ndarray
    excluded: int


def recover_map(f: ProperMap, ev: KernelEvaluator, z_grid, probe=0.0,
                fallback_probe=0.1) -> MapRecovery:
    """Recover f from the source kernel via the transformation formula.

    Evaluates g0(z) = sum_k K(z, F_k(w0)) conj(F_k'(w0)) and its exact
    derivative in conj(w) at w0,
        g1(z) = sum_k dK(z, F_k) conj(F_k')^2 + K(z, F_k) conj(F_k''),
    where dK is the analytic conj-slot kernel derivative and
    F_k'' = -f''(F_k) F_k'^3, then forms g1/(2*g0).  The target must be
    the unit disc.  If the probe hits a critical value it moves to
    fallback_probe.
    """
    zs = np.asarray(z_grid, dtype=complex)
    crit = f.v2   # the critical values
    w0 = complex(probe)
    shifted = False
    if crit.size and np.min(np.abs(crit - w0)) <= GRID_EXCLUSION:
        w0 = complex(fallback_probe)
        shifted = True
        if crit.size and np.min(np.abs(crit - w0)) <= GRID_EXCLUSION:
            raise NearCriticalError(
                f"both probe {probe} and fallback {fallback_probe} sit near critical values"
            )

    pts, der = (a[0] for a in branch_table(f, [w0], forward=False))
    der2 = -f.deriv2(pts) * der ** 3
    k = ev.eval_kernel_grid(zs, pts)
    g0 = k @ der.conj()
    g1 = ev.eval_kernel_dbar(zs, pts, 1) @ (der ** 2).conj() + k @ der2.conj()

    valid = np.abs(g0) >= 1e-12
    ratio = np.full(zs.shape, np.nan + 0j)
    ratio[valid] = g1[valid] / (2.0 * g0[valid])
    estimate = ratio.copy()
    if w0 != 0:
        estimate[valid] = ratio[valid] / (1.0 + ratio[valid] * np.conj(w0))
    return MapRecovery(
        points=zs, g0=g0, g1=g1, ratio_half=ratio, map_estimate=estimate,
        probe=w0, probe_shifted=shifted, valid=valid,
        excluded=int(np.sum(~valid)),
    )

