"""Command-line front end.

One declarative YAML config per experiment; subcommands pick which
pipeline runs on it.  Outputs (CSV + a plain-text summary record) land
in a directory namespaced by the hash of the effective config, so
concurrent runs never collide.  A summary is written even when the
residual gate fails.

Exit codes: 0 success, 1 gated-residual failure, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources

import numpy as np
import yaml

from . import oracles
from .errors import ConfigError, RedBergmanError
from .geometry import (
    Annulus,
    Disc,
    GenericDomain,
    annulus_grid,
    build_annulus_quadrature,
    build_disc_quadrature,
    build_generic_quadrature,
    disc_grid,
)
from .holobasis import (
    ConstantWeight,
    PowerWeight,
    RadialPolyWeight,
    laurent_basis,
    monomial_basis,
    pullback_weight,
    reduced_filter,
)
from .kernel import KernelEvaluator, orthonormalize
from .propermaps import BlaschkeProduct, CorrespondenceModel, PolynomialMap, PowerMap
from .transform import (
    adjoint_residual_matrix,
    branch_table,
    operator_bound_check,
    recover_map,
    verify_correspondence,
    verify_proper,
)

OUTPUT_ENV = "REDBERGMAN_OUT"
DEFAULT_OUT = "redbergman-out"

KNOWN_CHECKS = ("conjugate_symmetry", "diagonal_positivity", "reproduce_basis",
                "self_reproduction", "dirichlet_pairing")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config access helpers

_MISSING = object()


def cfg_get(cfg, path, default=_MISSING):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ConfigError(f"missing config field '{path}'")
            return default
        node = node[part]
    return node


def as_complex(value, path):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"'{path}' must be a number or [re, im] pair, got {value!r}")


def _positive_int(value, path):
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"'{path}' must be a positive integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# builders

def build_domain(cfg, key):
    spec = cfg_get(cfg, key)
    kind = cfg_get(spec, "type")
    center = as_complex(spec.get("center", 0.0), f"{key}.center")
    try:
        if kind == "disc":
            return Disc(center, float(cfg_get(spec, "radius")))
        if kind == "annulus":
            return Annulus(center, float(cfg_get(spec, "r_inner")),
                           float(cfg_get(spec, "r_outer")))
        if kind == "generic":
            return _generic_domain(spec, key)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.type must be disc, annulus or generic, got {kind!r}")


def _generic_domain(spec, key):
    bbox = cfg_get(spec, "bbox")
    if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
        raise ConfigError(f"{key}.bbox must be [xmin, xmax, ymin, ymax]")
    ineqs = []
    for n, entry in enumerate(cfg_get(spec, "inequalities")):
        terms = cfg_get(entry, "poly")
        if not all(isinstance(e, int) and e >= 0 for t in terms for e in t[:2]):
            raise ConfigError(f"{key}.inequalities[{n}].poly exponents must be "
                              "non-negative integers")
        imax = max(t[0] for t in terms)
        jmax = max(t[1] for t in terms)
        c = np.zeros((imax + 1, jmax + 1))
        for i, j, a in terms:
            c[i, j] = float(a)
        sign = cfg_get(entry, "sign")
        if sign not in ("<", ">"):
            raise ConfigError(f"{key}.inequalities[{n}].sign must be '<' or '>'")
        ineqs.append((c, sign))

    def inside(z):
        z = np.asarray(z)
        x, y = z.real, z.imag
        ok = np.ones(z.shape, dtype=bool)
        for c, sign in ineqs:
            val = np.polynomial.polynomial.polyval2d(x, y, c)
            ok &= (val < 0) if sign == "<" else (val > 0)
        return ok if z.shape else bool(ok)

    holes = tuple(as_complex(h, f"{key}.holes") for h in spec.get("holes", []))
    return GenericDomain(inside=inside, bbox=tuple(float(v) for v in bbox), holes=holes)


def build_rule(cfg, domain, qkey):
    spec = cfg_get(cfg, qkey)
    if isinstance(domain, GenericDomain):
        n_grid = cfg_get(spec, "n_grid")
        if not isinstance(n_grid, int) or n_grid < 8:
            raise ConfigError(f"'{qkey}.n_grid' must be an integer >= 8")
        return build_generic_quadrature(domain, n_grid)
    n_radial = _positive_int(cfg_get(spec, "n_radial"), f"{qkey}.n_radial")
    n_angular = _positive_int(cfg_get(spec, "n_angular"), f"{qkey}.n_angular")
    if isinstance(domain, Disc):
        return build_disc_quadrature(domain.center, domain.radius, n_radial, n_angular)
    return build_annulus_quadrature(domain.center, domain.r_inner, domain.r_outer,
                                    n_radial, n_angular)


def build_basis(cfg, domain, key):
    """Returns (basis, prefilter_size); the reduced filter may shrink it."""
    spec = cfg_get(cfg, key)
    kind = cfg_get(spec, "type")
    center = as_complex(spec.get("center", 0.0), f"{key}.center")
    if kind == "monomial":
        degree = cfg_get(spec, "degree")
        if not isinstance(degree, int) or degree < 0:
            raise ConfigError(f"'{key}.degree' must be a non-negative integer")
        basis = monomial_basis(center, degree, domain)
    elif kind == "laurent":
        if not isinstance(domain, Annulus):
            raise ConfigError(f"{key}: a laurent basis requires an annulus domain")
        basis = laurent_basis(center, int(cfg_get(spec, "n_min")),
                              int(cfg_get(spec, "n_max")), domain)
    else:
        raise ConfigError(f"{key}.type must be monomial or laurent, got {kind!r}")
    n_prefilter = len(basis)
    if spec.get("reduced", False):
        basis = reduced_filter(basis)
    return basis, n_prefilter


def build_weight(cfg, key="weight"):
    spec = cfg_get(cfg, key, {"type": "constant"})
    kind = cfg_get(spec, "type")
    try:
        if kind == "constant":
            return ConstantWeight(float(spec.get("value", 1.0)))
        if kind == "power":
            return PowerWeight(float(cfg_get(spec, "alpha")),
                               as_complex(spec.get("center", 0.0), f"{key}.center"))
        if kind == "radial_poly":
            return RadialPolyWeight(cfg_get(spec, "coeffs"),
                                    as_complex(spec.get("center", 0.0), f"{key}.center"))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.type must be constant, power or radial_poly, got {kind!r}")


def build_map(cfg, source, target, key="map"):
    spec = cfg_get(cfg, key)
    kind = cfg_get(spec, "type")
    try:
        if kind in ("power", "identity"):
            m = 1 if kind == "identity" else _positive_int(cfg_get(spec, "m"), f"{key}.m")
            return PowerMap(m, source=source, target=target)
        if kind == "blaschke":
            for dom, name in ((source, "domain"), (target, "domain2")):
                _require_unit_disc(dom, f"a blaschke {key} ('{name}')")
            zeros = [as_complex(a, f"{key}.zeros") for a in cfg_get(spec, "zeros")]
            return BlaschkeProduct(zeros)
        if kind == "polynomial":
            coeffs = [as_complex(a, f"{key}.coeffs") for a in cfg_get(spec, "coeffs")]
            return PolynomialMap(coeffs, source, target)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"{key}.type must be power, identity, blaschke or polynomial")


def build_correspondence(cfg, d1, d2, key="correspondence"):
    spec = cfg_get(cfg, key)
    terms = cfg_get(spec, "terms")
    try:
        nz = max(int(t[0]) for t in terms) + 1
        nw = max(int(t[1]) for t in terms) + 1
        c = np.zeros((nz, nw), dtype=complex)
        for t in terms:
            if len(t) == 3:
                dz, dw, re = t
                im = 0.0
            else:
                dz, dw, re, im = t
            c[int(dz), int(dw)] = complex(float(re), float(im))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"{key}.terms entries must be [deg_z, deg_w, re(, im)]") from exc
    return CorrespondenceModel(coeffs=c, d1=d1, d2=d2)


def build_grid(cfg, key, seed=0):
    spec = cfg_get(cfg, key)
    kind = cfg_get(spec, "kind")
    center = as_complex(spec.get("center", 0.0), f"{key}.center")
    try:
        if kind == "cartesian":
            pts = disc_grid(float(cfg_get(spec, "rmax")),
                            _positive_int(cfg_get(spec, "n"), f"{key}.n"), center)
        elif kind == "polar":
            pts = annulus_grid(float(cfg_get(spec, "r_min")), float(cfg_get(spec, "r_max")),
                               _positive_int(cfg_get(spec, "n_radial"), f"{key}.n_radial"),
                               _positive_int(cfg_get(spec, "n_angular"), f"{key}.n_angular"),
                               center)
        elif kind == "random_disc":
            rng = np.random.default_rng(seed)
            n = _positive_int(cfg_get(spec, "n"), f"{key}.n")
            rmax = float(cfg_get(spec, "rmax"))
            pts = center + rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        elif kind == "points":
            pts = np.asarray([as_complex(p, f"{key}.values") for p in cfg_get(spec, "values")])
        else:
            raise ConfigError(f"{key}.kind must be cartesian, polar, random_disc or points")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    if pts.size == 0:
        raise ConfigError(f"{key} has no sample points")
    return pts


def build_side(cfg, suffix=""):
    """(domain, rule, orthonormal, prefilter basis size) of one side, each
    built once from domain<suffix>, quadrature<suffix> and basis<suffix>;
    orthonormal(weight) orthonormalizes the basis on the rule."""
    domain = build_domain(cfg, "domain" + suffix)
    rule = build_rule(cfg, domain, "quadrature" + suffix)
    basis, n_prefilter = build_basis(cfg, domain, "basis" + suffix)
    drop_tol = float(cfg_get(cfg, "drop_tol", 1e-10))
    return domain, rule, lambda weight: orthonormalize(basis, rule, weight, drop_tol), n_prefilter


# ---------------------------------------------------------------------------
# output plumbing

class RunDir:
    def __init__(self, out_root, subcommand, cfg):
        canonical = json.dumps(cfg, sort_keys=True, default=str).encode()
        digest = hashlib.sha256(canonical).hexdigest()[:12]
        self.hash = digest
        self.path = os.path.join(out_root, f"{subcommand}-{digest}")
        os.makedirs(self.path, exist_ok=True)
        self.summary = {"config_hash": digest}

    def file(self, name):
        return os.path.join(self.path, name)

    def add(self, **fields):
        self.summary.update(fields)

    def write_summary(self, status):
        lines = [f"status = {status}"]
        for k, v in self.summary.items():
            if isinstance(v, float):
                v = _fmt(v)
            lines.append(f"{k} = {v}")
        with open(self.file("summary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return lines


def write_csv(path, header, table):
    """Write ``header`` and the rows of the ``(n_rows, len(header))``
    float array ``table`` as CSV: excel dialect (CRLF, nothing quoted),
    each value as ``.17g``.  Each column formats each distinct bit
    pattern once, so 0.0 and -0.0 keep their own strings."""
    table = np.asarray(table, dtype=np.float64)
    cols = []
    for bits in table.view(np.int64).T:
        distinct, inverse = np.unique(bits, return_inverse=True)
        strs = np.array([_fmt(x) for x in distinct.view(np.float64).tolist()], dtype=object)
        cols.append(strs[inverse].tolist())
    row = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.__mod__, zip(*cols)))


# ---------------------------------------------------------------------------
# oracle and check evaluation for the kernel pipeline

def _oracle_values(cfg, ev, zs, ws):
    spec = cfg_get(cfg, "oracle")
    kind = cfg_get(spec, "type")
    dom = ev.rule.domain
    zs = zs[:, None]
    ws = ws[None, :]
    if kind == "disc":
        _require_unit_disc(dom, "oracle.type = disc")
        return oracles.disc_kernel(zs, ws)
    if kind == "disc_power_weight":
        _require_unit_disc(dom, "oracle.type = disc_power_weight")
        return oracles.disc_power_weight_kernel(zs, ws, float(cfg_get(spec, "alpha")))
    if kind in ("annulus_reduced", "annulus_full"):
        if not isinstance(dom, Annulus):
            raise ConfigError(f"oracle.type = {kind} requires an annulus domain")
        bspec = cfg_get(cfg, "basis")
        reduced_basis = bool(bspec.get("reduced", False))
        if reduced_basis != (kind == "annulus_reduced"):
            raise ConfigError("oracle reduced/full flavor must match basis.reduced")
        return oracles.annulus_kernel(zs, ws, dom.r_inner, dom.r_outer,
                                      int(cfg_get(bspec, "n_min")),
                                      int(cfg_get(bspec, "n_max")),
                                      reduced=reduced_basis)
    raise ConfigError(f"unknown oracle.type {kind!r}")


def _require_unit_disc(dom, what):
    if not (isinstance(dom, Disc) and dom.center == 0 and dom.radius == 1.0):
        raise ConfigError(f"{what} requires the unit disc domain")


def _run_checks(cfg, ev, zs, run):
    """Structural-invariant checks, each gated on its own tolerance.

    ``checks`` maps check name -> tolerance.  Returns 0.0 when every
    check passes and inf otherwise, so any overall ``tolerance`` gates
    the run on check success.
    """
    checks = cfg_get(cfg, "checks", {})
    if not isinstance(checks, dict):
        raise ConfigError("'checks' must map check names to tolerances")
    for name in checks:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"unknown check {name!r}; known: {', '.join(KNOWN_CHECKS)}")
    sample = zs[:: max(1, len(zs) // 8)][:8]
    if {"conjugate_symmetry", "diagonal_positivity"} & set(checks):
        k = ev.eval_kernel_grid(sample, sample)
    all_ok = True
    for name, tol in checks.items():
        if name == "conjugate_symmetry":
            res = float(np.max(np.abs(k - k.conj().T)))
        elif name == "diagonal_positivity":
            res = 0.0 if np.all(np.diagonal(k).real > 0) else float("inf")
        elif name == "reproduce_basis":
            zeta = complex(sample[len(sample) // 2])
            m = min(5, ev.onb.retained_count)
            got = ev.reproduce(ev.node_phi_columns(m), zeta)
            want = ev.onb.phi_values(np.asarray(zeta))[:m]
            res = float(np.max(np.abs(got - want)))
        elif name == "self_reproduction":
            res = float(np.max(ev.self_reproduction_residual(sample[:4], sample[:4])))
        elif name == "dirichlet_pairing":
            c0 = getattr(ev.rule.domain, "center", 0.0)
            xi = complex(sample[len(sample) // 2])
            pairing = ev.reproduce(2.0 * (ev.rule.nodes - c0), xi)
            res = abs(pairing - 2.0 * (xi - c0))
            res = max(res, abs(ev.kernel_primitive(xi, xi)))
        ok = res <= float(tol)
        all_ok = all_ok and ok
        run.add(**{f"check_{name}": float(res), f"check_{name}_ok": ok})
    return 0.0 if all_ok else float("inf")


# ---------------------------------------------------------------------------
# pipelines

def run_kernel(cfg, run: RunDir):
    _, _, orthonormal, n_raw = build_side(cfg)
    ev = KernelEvaluator(orthonormal(build_weight(cfg)))
    run.add(n_raw=n_raw, retained_count=ev.onb.retained_count,
            gram_condition=ev.onb.gram_condition)

    seed = cfg_get(cfg, "seed", 0)
    zs = build_grid(cfg, "grid.z", seed)
    ws = build_grid(cfg, "grid.w", seed)
    if cfg_get(cfg, "output.csv", True):
        k = ev.eval_kernel_grid(zs, ws)
        z, w = np.meshgrid(zs, ws, indexing="ij")
        table = np.stack((z.real, z.imag, w.real, w.imag, k.real, k.imag), axis=-1)
        write_csv(run.file("kernel.csv"),
                  ["re_z", "im_z", "re_w", "im_w", "re_k", "im_k"], table.reshape(-1, 6))

    gate = 0.0
    if cfg_get(cfg, "oracle", None) is not None:
        ozs = build_grid(cfg, "oracle.grid.z", seed) if cfg_get(cfg, "oracle.grid", None) else zs
        ows = build_grid(cfg, "oracle.grid.w", seed) if cfg_get(cfg, "oracle.grid", None) else ws
        got = ev.eval_kernel_grid(ozs, ows)
        want = _oracle_values(cfg, ev, ozs, ows)
        rel = float(np.max(np.abs(got - want) / np.abs(want)))
        run.add(oracle_max_rel_err=rel)
        gate = max(gate, rel)
    gate = max(gate, _run_checks(cfg, ev, zs, run))
    return gate


def run_verify(cfg, run: RunDir):
    weight = build_weight(cfg)
    has_map = cfg_get(cfg, "map", None) is not None
    has_corr = cfg_get(cfg, "correspondence", None) is not None
    if has_map == has_corr:
        raise ConfigError("verify needs exactly one of 'map' or 'correspondence'")

    d1, _, orthonormal1, _ = build_side(cfg)
    d2, _, orthonormal2, _ = build_side(cfg, "2")
    if has_map:
        model = build_map(cfg, d1, d2)
    else:
        model = build_correspondence(cfg, d1, d2)
        if weight.kind != "constant":
            raise ConfigError("weighted verification is defined for maps only")

    ev1 = KernelEvaluator(orthonormal1(pullback_weight(weight, model)))
    ev2 = KernelEvaluator(orthonormal2(weight))
    zs = build_grid(cfg, "grid.z", cfg_get(cfg, "seed", 0))
    ws = build_grid(cfg, "grid.w", cfg_get(cfg, "seed", 0))

    if has_map:
        report = verify_proper(model, ev1, ev2, zs, ws)
    else:
        report = verify_correspondence(model, ev1, ev2, zs, ws)
    run.add(n_samples=report.n_samples, excluded=report.excluded,
            max_abs_residual=report.max_abs_residual,
            max_rel_residual=report.max_rel_residual, lhs_scale=report.lhs_scale)

    if cfg_get(cfg, "output.csv", True):
        _write_residual_csv(run, report)
    return report.max_rel_residual


def _write_residual_csv(run, report):
    """One row per kept sample of the sweep, w-major."""
    j, i = np.nonzero(report.kept.T)
    z, w, lhs = report.z[i], report.w[j], report.lhs[i, j]
    cols = (z.real, z.imag, w.real, w.imag, np.abs(lhs - report.rhs[i, j]), np.abs(lhs))
    write_csv(run.file("samples.csv"),
              ["re_z", "im_z", "re_w", "im_w", "abs_residual", "abs_lhs"], np.column_stack(cols))


def run_adjoint(cfg, run: RunDir):
    """Adjointness residuals over the first few orthonormal elements of
    each space, plus the p*q operator bound for correspondences.  The
    gamma block pairs unweighted elements; the lambda block pairs the
    nu- and (nu o f)-orthonormal ones."""
    weight = build_weight(cfg)
    d1, rule1, orthonormal1, _ = build_side(cfg)
    d2, rule2, orthonormal2, _ = build_side(cfg, "2")
    n_el = int(cfg_get(cfg, "adjoint.n_elements", 5))

    def first_phis(orthonormal, w):
        onb = orthonormal(w)
        return [onb.phi_function(k) for k in range(min(n_el, onb.retained_count))]

    worst = 0.0
    if cfg_get(cfg, "correspondence", None) is not None:
        corr = build_correspondence(cfg, d1, d2)
        one = ConstantWeight()
        us = first_phis(orthonormal2, one)
        vs = first_phis(orthonormal1, one)
        backward = branch_table(corr, rule2.nodes, forward=False)
        res = adjoint_residual_matrix(corr, us, vs, rule1, rule2, backward=backward)
        worst = max(worst, float(np.max(res)))
        bound_ratio = 0.0
        for v in vs:
            lhs, rhs = operator_bound_check(corr, v, rule1, rule2, backward=backward)
            bound_ratio = max(bound_ratio, lhs / rhs)
        run.add(gamma_max_residual=float(np.max(res)), bound_max_ratio=bound_ratio)
        if bound_ratio > 1 + 1e-6:
            worst = float("inf")
    if cfg_get(cfg, "map", None) is not None:
        f = build_map(cfg, d1, d2)
        us = first_phis(orthonormal2, weight)
        vs = first_phis(orthonormal1, pullback_weight(weight, f))
        nu = None if weight.kind == "constant" else weight
        res = adjoint_residual_matrix(f, us, vs, rule1, rule2, weight=nu)
        worst = max(worst, float(np.max(res)))
        run.add(lambda_max_residual=float(np.max(res)))
    if cfg_get(cfg, "correspondence", None) is None and cfg_get(cfg, "map", None) is None:
        raise ConfigError("adjoint needs 'map' and/or 'correspondence'")
    run.add(max_adjoint_residual=worst)
    return worst


def run_recover(cfg, run: RunDir):
    if cfg_get(cfg, "recover.stencil", None) is not None:
        raise ConfigError("'recover.stencil' is no longer used: the recovery "
                          "derivative is now exact; remove the key")
    d1, _, orthonormal, _ = build_side(cfg)
    d2 = build_domain(cfg, "domain2")
    _require_unit_disc(d2, "recover")
    f = build_map(cfg, d1, d2)
    ev = KernelEvaluator(orthonormal(build_weight(cfg)))
    zs = build_grid(cfg, "grid.z", cfg_get(cfg, "seed", 0))
    rec = recover_map(
        f, ev, zs,
        probe=as_complex(cfg_get(cfg, "recover.probe", 0.0), "recover.probe"),
        fallback_probe=as_complex(cfg_get(cfg, "recover.fallback", 0.1), "recover.fallback"),
    )
    fz = f(zs)
    err = np.abs(rec.map_estimate - fz)
    sup_err = float(np.max(err[rec.valid])) if np.any(rec.valid) else float("inf")
    run.add(probe=str(rec.probe), probe_shifted=rec.probe_shifted,
            excluded=rec.excluded, sup_map_error=sup_err)
    if cfg_get(cfg, "output.csv", True):
        v = rec.valid
        z, g, fv = zs[v], rec.map_estimate[v], fz[v]
        write_csv(run.file("recover.csv"),
                  ["re_z", "im_z", "re_ghat", "im_ghat", "re_f", "im_f", "abs_err"],
                  np.column_stack((z.real, z.imag, g.real, g.imag, fv.real, fv.imag, err[v])))
    return sup_err


PIPELINES = {
    "kernel": run_kernel,
    "verify": run_verify,
    "adjoint": run_adjoint,
    "recover": run_recover,
}


# ---------------------------------------------------------------------------
# config loading / presets / entry point

def load_config(path, overrides):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: '{part}' is not a mapping")
        node[parts[-1]] = yaml.safe_load(raw)
    return cfg


def preset_names():
    pkg = resources.files("redbergman") / "presets"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def preset_text(name):
    path = resources.files("redbergman") / "presets" / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(f"no preset named {name!r}; try 'presets list'")
    return path.read_text(encoding="utf-8")


def execute(subcommand, cfg, out_root, verbose=False):
    run = RunDir(out_root, subcommand, cfg)
    with open(run.file("config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    run.add(seed=cfg_get(cfg, "seed", 0))
    tolerance = cfg_get(cfg, "tolerance", None)
    try:
        gate_value = PIPELINES[subcommand](cfg, run)
    except ConfigError:
        raise
    except (RedBergmanError, np.linalg.LinAlgError) as exc:
        run.add(error=f"{type(exc).__name__}: {exc}")
        lines = run.write_summary("error")
        if verbose:
            print("\n".join(lines))
        print(f"{subcommand}: numerical failure: {exc}", file=sys.stderr)
        return 3
    gated = tolerance is not None and gate_value > float(tolerance)
    if tolerance is not None:
        run.add(gate_value=float(gate_value), gate_tolerance=float(tolerance))
    lines = run.write_summary("gate_failed" if gated else "ok")
    if verbose:
        print("\n".join(lines))
    print(f"{subcommand}: {'FAIL' if gated else 'ok'} "
          f"(gate {_fmt(gate_value)}{'' if tolerance is None else ' vs tol ' + _fmt(float(tolerance))}) "
          f"-> {run.path}")
    return 1 if gated else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="redbergman",
        description="Reduced/weighted Bergman kernels and transformation-formula checks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the summary record to stdout")
    parser.add_argument("--output-dir", default=None,
                        help=f"output root (default ${OUTPUT_ENV} or ./{DEFAULT_OUT})")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline on a config")
        p.add_argument("config", help="YAML experiment config")
        p.add_argument("--set", action="append", dest="overrides", metavar="KEY=VALUE",
                       help="override a config field (dotted path)")
    pp = sub.add_parser("presets", help="list, show or run shipped preset configs")
    pp.add_argument("action", choices=["list", "show", "run"])
    pp.add_argument("name", nargs="?", help="preset name (or 'all' with run)")

    args = parser.parse_args(argv)
    out_root = args.output_dir or os.environ.get(OUTPUT_ENV) or DEFAULT_OUT

    try:
        if args.command == "presets":
            return _presets_cmd(args, out_root)
        cfg = load_config(args.config, getattr(args, "overrides", None))
        return execute(args.command, cfg, out_root, args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _presets_cmd(args, out_root) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
        return 0
    if args.action == "show":
        if not args.name:
            raise ConfigError("presets show needs a name")
        print(preset_text(args.name), end="")
        return 0
    names = preset_names() if args.name in (None, "all") else [args.name]
    worst = 0
    for name in names:
        cfg = yaml.safe_load(preset_text(name))
        command = cfg.pop("run", None)
        if command not in PIPELINES:
            raise ConfigError(f"preset {name} lacks a valid 'run' field")
        print(f"[preset {name}]")
        worst = max(worst, execute(command, cfg, out_root))
    return worst


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
