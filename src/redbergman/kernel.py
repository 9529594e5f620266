"""Gram assembly, orthonormalization, and kernel evaluation.

The (weighted, reduced or full) Bergman kernel of a truncated basis is
computed as an orthonormal series K(z, w) = sum_k phi_k(z) *
conj(phi_k(w)).  Orthonormal coefficients come from a left-looking
pivoted Cholesky factorization of the discrete Gram matrix, and the
orthonormal system keeps its rule and weight for the evaluator.  Kernel
values are the order-0 case of the analytic derivatives in the
conjugated slot (no finite differences).

The weight at the nodes has one definition, ``node_nu``, which each
orthonormal system evaluates once, on first read, for its node sums (in
orthonormal coordinates) and adjointness sums: the exact ring values of
a polar rule whose rings the weight knows, weight(nodes) otherwise.  On
a polar rule with every basis element centred at the rule's centre, the
angular trapezoid sum in a Gram entry is a DFT of the weight on one
ring, so the rings' spectra and one product with the radial moments
r^(n+m) give the same discrete sum, reordered (aliasing included).
A weight constant on each ring has the exact spectrum
n_angular * nu_i at frequency 0 alone, so a span below n_angular has a
diagonal Gram; other weights take one FFT per ring.  Generic rules and
off-centre bases take the dense sum over all nodes, block by block: a
block writes its weighted power rows, split into real and imaginary
parts, straight into a reused real buffer and forms one real symmetric
product (BLAS syrk).  The blocks run on up to two
threads, one per core, and their products are added in block order, so
only one block's rows per thread are ever held, the Gram comes out
exactly Hermitian, and its bits do not depend on the thread count.

The Gram matrix is prescaled to unit diagonal before pivoting.  Raw
power bases can span many decades in norm (Laurent families on thin
annuli) while being perfectly orthogonal; pivoting the scaled matrix
makes the drop test detect near-dependence instead of scale.  A
prescaled Gram with nothing off its diagonal and no pivot to drop is
factored in closed form as the loop would factor it, and its diagonal
coefficients scale the raw power columns instead of multiplying them.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, EvaluationError
from .geometry import PolarStructure, QuadratureRule
from .holobasis import RawBasis, WeightFn

__all__ = ["OrthonormalBasis", "KernelEvaluator", "gram_matrix", "node_nu",
           "orthonormalize"]

# nodes per block of the dense Gram and of the checks' node sums.  Their bits
# depend on it (block products are summed in block order).  On a 78,508-node
# rule with 61 elements and two cores, the dense Gram takes 95, 62, 56 and
# 46 ms at 1024, 2048, 4096 and 8192 nodes: a block's per-row Python work
# holds the interpreter lock, and each thread holds a (2m, GRAM_BLOCK) buffer
GRAM_BLOCK = 4096
# threads that form the dense Gram's node blocks, never more than the
# cores: the gain is measured on two cores, and each thread's buffer (4 MB
# at 61 elements) matches the serial loop's real and complex blocks at two
GRAM_THREADS = 2


def _polar_gram(powers, polar: PolarStructure, nu) -> np.ndarray:
    """G[a, b] = sum_i w_i r_i^(n_a + n_b) F_i[(n_b - n_a) mod n_angular]
    for centred powers n, where F_i is the DFT of nu on ring i, taken only
    at the distinct frequency differences the gather reads.  A nu constant
    on each ring has F_i = n_angular nu_i at frequency 0 and exactly 0
    elsewhere; any other takes one FFT per ring, and the real radial
    moments multiply F's real and imaginary parts in one real product."""
    s = np.arange(2 * powers.min(), 2 * powers.max() + 1)
    span = int(powers.max() - powers.min())
    # cols: the distinct frequencies (b - a) mod n_angular over the offsets
    # b - a + span, frequency 0 first; pos: each offset's column among them
    cols, pos = np.unique(np.arange(-span, span + 1) % polar.n_angular,
                          return_inverse=True)
    rings = nu.reshape(len(polar.radii), polar.n_angular)
    r_s = polar.radii[:, None] ** s
    if np.all(rings == rings[:, :1]):
        m = np.zeros((len(s), len(cols)), dtype=complex)
        m[:, 0] = r_s.T @ (polar.n_angular * polar.ring_weights * rings[:, 0])
    else:
        f = np.take(np.fft.fft(rings, axis=1), cols, axis=1)
        m = ((polar.ring_weights[:, None] * r_s).T @ f.view(float)).view(complex)
    return m[powers[:, None] + powers[None, :] - s[0],
             pos[powers[None, :] - powers[:, None] + span]]


def _require_finite_values(vals, basis: RawBasis, nodes):
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        raise EvaluationError(
            f"element {basis.elements[bad[1]]!r} is non-finite at node "
            f"{nodes[bad[0]]}"
        )


def _pool_map(fn, items):
    """Yields fn(item) for each item, in item order, formed on up to
    GRAM_THREADS threads but on no more threads than this process has
    cores; with one, in this thread.  Closing the generator early (an
    error in the caller's loop) cancels the items not yet started and
    waits for the running ones."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cores, GRAM_THREADS, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def _dense_gram(basis: RawBasis, nodes, wq) -> np.ndarray:
    """G = sum_q wq_q e(node_q) e(node_q)^H over node blocks.  With
    d = sqrt(wq) e split into real rows a and imaginary rows b, each block's
    [a; b] [a; b]^T is one real symmetric product (BLAS syrk), and
    G = (aa^T + bb^T) + i (ba^T - ab^T) is exactly Hermitian.

    The block products run on up to GRAM_THREADS threads (``_pool_map``)
    and are added in block order, so the bits do not depend on the
    number of threads.  A block writes its power rows
    (``RawBasis.value_rows``) straight into a reused real buffer and
    calls nothing that the benchmark tracer wraps (``RawBasis.values``),
    whose one span stack is not thread-safe."""
    m = len(basis)
    sqrt_wq = np.sqrt(wq)
    free = []  # reused block buffers, at most one per worker

    def block_product(start):
        try:
            d = free.pop()
        except IndexError:
            d = np.empty((2 * m, GRAM_BLOCK))
        try:
            block = nodes[start:start + GRAM_BLOCK]
            scale = sqrt_wq[start:start + GRAM_BLOCK]
            rows = d[:, :len(block)]
            # the finiteness check below reports what these states would warn about
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for k, row in enumerate(basis.value_rows(block)):
                    np.multiply(row.real, scale, out=rows[k])
                    np.multiply(row.imag, scale, out=rows[m + k])
                return rows @ rows.T
        finally:
            free.append(d)

    p = np.zeros((2 * m, 2 * m))
    starts = range(0, len(nodes), GRAM_BLOCK)
    for start, product in zip(starts, _pool_map(block_product, starts)):
        p += product
        # a non-finite value leaves its row's diagonal entry non-finite, so
        # the diagonal screens each block for the element-and-node check
        if not np.all(np.isfinite(np.diagonal(p))):
            block = nodes[start:start + GRAM_BLOCK]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                _require_finite_values(basis.values(block), basis, block)
    return (p[:m, :m] + p[m:, m:]) + 1j * (p[m:, :m] - p[:m, m:])


def node_nu(rule: QuadratureRule, weight: WeightFn) -> np.ndarray:
    """nu at the rule's nodes for the Gram, the node sums and the
    adjointness sums: the weight's ring values repeated around each ring
    of a polar rule when it has them, weight(nodes) otherwise."""
    polar = rule.polar
    ring = None if polar is None else weight.ring_values(polar.center, polar.radii)
    nu = weight(rule.nodes) if ring is None else np.repeat(ring, polar.n_angular)
    return np.asarray(nu, dtype=float)


def gram_matrix(basis: RawBasis, rule: QuadratureRule, weight: WeightFn) -> np.ndarray:
    """G[i, j] = sum_q w_q nu_q e_i(node_q) conj(e_j(node_q)) of a raw
    basis on a rule (structured or dense, see the module docstring).  An
    element whose norm under- or overflows (named), or any other
    non-finite entry, raises DegenerateBasisError."""
    if len(basis) == 0:
        raise DegenerateBasisError("cannot assemble a Gram matrix for an empty basis")
    nu = node_nu(rule, weight)
    if not np.all(nu > 0):
        raise EvaluationError("weight is non-positive at a quadrature node")
    polar = rule.polar
    if polar is not None and all(e.center == polar.center for e in basis.elements):
        # on ring i each element is r_i^n times a unimodular factor
        powers = np.array([e.power for e in basis.elements])
        # the finiteness checks report what these states would warn about
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _require_finite_values(polar.radii[:, None] ** powers, basis,
                                   rule.nodes[::polar.n_angular])
            g = _polar_gram(powers, polar, nu)
            g = 0.5 * (g + g.conj().T)
    else:
        g = _dense_gram(basis, rule.nodes, rule.weights * nu)
    for e, norm in zip(basis.elements, np.real(np.diag(g))):
        if not 0.0 < norm < np.inf:
            raise DegenerateBasisError(f"element {e!r} has Gram norm {norm}: its "
                                       "values under- or overflow on the rule")
    if not np.all(np.isfinite(g)):
        raise DegenerateBasisError("Gram matrix has a non-finite entry")
    return g


def _pivoted_cholesky(a: np.ndarray, drop_tol: float):
    """Pivoted Cholesky of a Hermitian PSD matrix with unit-ish diagonal.

    Returns (order, L, pivots): retained column indices in pivot order,
    the corresponding lower-triangular factor rows, and the pivot values
    at selection time.  Stops when the largest remaining pivot falls
    below drop_tol times the first pivot.

    Pivoting is stabilized: the earliest index within a factor 2 of the
    max pivot wins, so well-conditioned families keep their given order
    while near-dependent elements are still deferred and dropped.

    Left-looking and unblocked (Hammarling, Higham & Lucas 2007): step k
    forms only pivot j's column, a[:, j] minus one product with the k
    factor columns so far (stored as contiguous rows), and subtracts its
    |entries|^2 from the remaining pivots.
    """
    n = a.shape[0]
    d = np.real(np.diag(a)).copy()
    cutoff = max(drop_tol * d.max(), 0.0)
    active = np.ones(n, dtype=bool)
    cols = np.zeros((n, n), dtype=complex)
    order = []
    pivots = []
    for k in range(n):
        dmax = d.max(where=active, initial=-np.inf)
        if dmax <= cutoff:
            break
        j = int(np.argmax(active & (d >= max(0.5 * dmax, cutoff))))
        piv = d[j]
        col = (a[:, j] - cols[:k, j].conj() @ cols[:k]) / np.sqrt(piv)
        # eliminated rows stay exactly zero, as in the right-looking form
        col[~active] = 0.0
        cols[k] = col
        d -= col.real ** 2 + col.imag ** 2
        active[j] = False
        order.append(j)
        pivots.append(piv)
    if not order:
        raise DegenerateBasisError("all Gram pivots fell below the drop tolerance")
    r = len(order)
    return order, cols[:r, order].T, np.array(pivots)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Truncated orthonormal system phi_k = sum_j coeffs[k, j] * raw_j
    in the inner product of ``rule`` weighted by ``weight``.

    ``coeffs`` has one row per retained element and one column per raw
    element (zero columns for dropped ones); ``gram_condition`` is the
    max/min retained pivot ratio of the prescaled Gram factorization.
    Only this module reads ``coeffs`` and ``raw``; callers work in
    orthonormal coordinates, where phi_j is e_j and K(., P) conj(phi(P)).
    """

    raw: RawBasis
    coeffs: np.ndarray
    retained_count: int
    gram_condition: float
    rule: QuadratureRule
    weight: WeightFn

    def _combine(self, vals, n=None) -> np.ndarray:
        """vals @ coeffs[:n].T for raw columns ``vals``: a scaling of the
        first n columns when ``coeffs`` is diagonal with no zero on it."""
        d = np.diagonal(self.coeffs)
        if np.count_nonzero(self.coeffs) == np.count_nonzero(d) == vals.shape[-1]:
            return vals[..., :n] * d[:n]
        return vals @ self.coeffs[:n].T

    def phi_values(self, pts, n=None) -> np.ndarray:
        """(npts, n) matrix of the values of the first n orthonormal
        elements (all retained ones by default)."""
        return self._combine(self.raw.values(pts), n)

    def phi_deriv_values(self, pts, order: int) -> np.ndarray:
        return self._combine(self.raw.deriv_values(pts, order))

    @functools.cached_property
    def node_nu(self) -> np.ndarray:
        """nu at the rule's nodes (``node_nu``), evaluated on first read
        and then held for the system's node sums and adjointness sums."""
        return node_nu(self.rule, self.weight)

    def node_sums(self, rows, extra=()) -> np.ndarray:
        """(k, k) matrix S[a, b] = sum_q w_q nu_q f_a(node_q) conj(f_b(node_q))
        of the functions rows @ phi, for (k_rows, retained_count) rows in
        orthonormal coordinates, followed by the callables ``extra`` of a
        node block.  S[a, b] is the discrete inner product <f_a, f_b>:
        against K(., zeta) the reproducing integral, f_a(zeta) when f_a is
        in the span.  One product maps the rows to raw coefficients; then
        per GRAM_BLOCK nodes: one evaluation of the raw basis, one
        (k_rows x n_raw)(n_raw x block) product into a reused buffer, and
        one (k x block)(block x k) product added to S in block order."""
        raw_rows = np.asarray(rows) @ self.coeffs
        nodes = self.rule.nodes
        k = len(raw_rows) + len(extra)
        f = np.empty((k, min(GRAM_BLOCK, len(nodes))), dtype=complex)
        s = np.zeros((k, k), dtype=complex)
        for start in range(0, len(nodes), GRAM_BLOCK):
            blk = slice(start, start + GRAM_BLOCK)
            block = nodes[blk]
            fb = f[:, :len(block)]
            np.matmul(raw_rows, self.raw.values(block).T, out=fb[:len(raw_rows)])
            for a, fn in enumerate(extra, len(raw_rows)):
                fb[a] = fn(block)
            s += (fb * (self.rule.weights[blk] * self.node_nu[blk])) @ fb.conj().T
        return s

    def orthonormality_residual(self) -> float:
        """max |<phi_i, phi_j> - delta_ij| in the discrete inner product."""
        eye = np.eye(self.retained_count)
        return float(np.max(np.abs(self.node_sums(eye) - eye)))


def orthonormalize(basis: RawBasis, rule: QuadratureRule, weight: WeightFn,
                   drop_tol: float = 1e-10) -> OrthonormalBasis:
    """Orthonormalize a raw basis in the discrete weighted inner product.

    Pivoted Cholesky on the diagonally-prescaled Gram matrix; elements
    whose scaled pivot falls below drop_tol times the largest are
    dropped as near-dependent.  An exactly diagonal prescaled Gram with
    no pivot to drop takes the loop's result in closed form.
    """
    if drop_tol <= 0:
        raise ValueError("drop_tol must be positive")
    g = gram_matrix(basis, rule, weight)
    scale = np.sqrt(np.real(np.diag(g)))
    corr = g / np.outer(scale, scale)
    pivots = np.real(np.diag(corr))
    if np.count_nonzero(corr) == len(corr) and np.all(pivots > drop_tol * pivots.max()):
        # unit-ish pivots lie within the loop's factor 2: it takes them in
        # order, and L is diag(piv / sqrt(piv))
        coeffs = np.diag((1.0 / scale) / (pivots / np.sqrt(pivots))).astype(complex)
    else:
        order, L, pivots = _pivoted_cholesky(corr, drop_tol)
        # phi = L^{-1} applied to the scaled, pivot-ordered raw elements
        coeffs = np.linalg.solve(L, np.eye(len(basis))[order] / scale)
    return OrthonormalBasis(raw=basis, coeffs=coeffs, retained_count=len(coeffs),
                            gram_condition=float(pivots.max() / pivots.min()),
                            rule=rule, weight=weight)


class KernelEvaluator:
    """Evaluates the kernel of an orthonormal system and its
    anti-holomorphic derivatives.

    Evaluation methods are pure and safe to call concurrently.  The
    quadrature checks read the nodes through the system's own
    ``onb.node_sums``, in orthonormal coordinates, with the weight at
    the nodes held once per system (``onb.node_nu``).
    """

    def __init__(self, onb: OrthonormalBasis):
        self.onb = onb

    # perfbench/tracer.py, which changes only with the benchmark, reads both _node_*
    @property
    def _node_nu(self) -> np.ndarray:
        return self.onb.node_nu

    @functools.cached_property
    def _node_phi(self) -> np.ndarray:
        return self.onb.phi_values(self.onb.rule.nodes)

    def eval_kernel(self, z, w) -> complex:
        """K(z, w), one entry of eval_kernel_grid.  Exactly
        conjugate-symmetric: the arguments are put in a canonical order
        before summing, so swapping them conjugates the result bitwise."""
        z = complex(z)
        w = complex(w)
        if (w.real, w.imag) < (z.real, z.imag):
            return np.conj(self.eval_kernel(w, z))
        return complex(self.eval_kernel_grid(z, w)[0, 0])

    def eval_kernel_grid(self, zs, ws) -> np.ndarray:
        """(len(zs), len(ws)) matrix of kernel values."""
        return self.eval_kernel_dbar(zs, ws, 0)

    def eval_kernel_dbar(self, zs, ws, beta: int) -> np.ndarray:
        """(len(zs), len(ws)) matrix of the beta-th derivative in conj(w),
        sum_k phi_k(z) conj(phi_k^(beta)(w)), by analytic differentiation
        of the conjugated factor; a negative beta raises ValueError."""
        pz = self.onb.phi_values(np.atleast_1d(np.asarray(zs, dtype=complex)))
        pw = self.onb.phi_deriv_values(np.atleast_1d(np.asarray(ws, dtype=complex)), beta)
        return pz @ pw.conj().T
