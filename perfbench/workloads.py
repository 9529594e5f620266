"""The benchmark's workloads: each maps a seed to a fresh list of
(label, subcommand, config) handed to ``redbergman.cli.execute`` back to
back.

Why each workload exists:

- ``presets``: the ten shipped presets as shipped, the health check users
  run.  Dominated by scalar branch solving in ``adjoint_disc``.
- ``verify_csv``: two verify presets with per-sample CSV output on seeded
  random sample grids; dominated by the per-sample CSV path.
- ``kernel_scaled``: two kernel oracles and the weighted verify preset at
  3x size with CSV off; dominated by basis evaluation, dense Gram assembly
  and evaluator set-up, with almost no branch solving.
- ``kernel_generic``: the kernel pipeline with structural checks on a
  predicate-defined ellipse, where the midpoint rule and near-dependence
  dropping run and no polar-rule structure exists.
"""

import yaml

from redbergman.cli import preset_names, preset_text

# Random sample grids of the verify_csv workload: ~90 z by ~70 w points.
CSV_NZ = 90
CSV_NW = 70


def _preset(name):
    cfg = yaml.safe_load(preset_text(name))
    return cfg.pop("run"), cfg


def presets(seed):
    del seed  # shipped as-is: the presets fix their own seeds and grids
    return [(name, *_preset(name)) for name in preset_names()]


def verify_csv(seed):
    out = []
    for name in ("proper_square_disc", "corr_sqrt_disc"):
        cmd, cfg = _preset(name)
        cfg["seed"] = seed
        cfg["output"] = {"csv": True}
        for axis, n in (("z", CSV_NZ), ("w", CSV_NW)):
            rmax = cfg["grid"][axis]["rmax"]
            cfg["grid"][axis] = {"kind": "random_disc", "rmax": rmax, "n": n}
        out.append((name, cmd, cfg))
    return out


def _scale_polar(cfg, qkeys):
    for q in qkeys:
        cfg[q] = {"n_radial": 120, "n_angular": 480}


def kernel_scaled(seed):
    del seed  # fixed sizes and grids; nothing here is sampled
    out = []

    cmd, cfg = _preset("disc_kernel_oracle")
    _scale_polar(cfg, ["quadrature"])
    cfg["basis"]["degree"] = 120
    cfg["output"] = {"csv": False}
    out.append(("disc_kernel_oracle", cmd, cfg))

    cmd, cfg = _preset("weighted_square_disc")
    _scale_polar(cfg, ["quadrature", "quadrature2"])
    cfg["basis"]["degree"] = 120
    cfg["basis2"]["degree"] = 120
    out.append(("weighted_square_disc", cmd, cfg))

    cmd, cfg = _preset("annulus_reduced_oracle")
    _scale_polar(cfg, ["quadrature"])
    cfg["basis"]["n_min"] = -60
    cfg["basis"]["n_max"] = 60
    cfg["output"] = {"csv": False}
    out.append(("annulus_reduced_oracle", cmd, cfg))
    return out


def kernel_generic(seed):
    del seed  # the checks' sample points are fixed, so the gate margin is too
    cmd, cfg = _preset("invariants_disc")
    # x^2 + 2 y^2 < 0.98 inside a bbox that the ellipse nearly fills
    cfg["domain"] = {
        "type": "generic",
        "bbox": [-1.0, 1.0, -0.71, 0.71],
        "inequalities": [{"poly": [[2, 0, 1.0], [0, 2, 2.0], [0, 0, -0.98]],
                          "sign": "<"}],
        "holes": [],
    }
    cfg["quadrature"] = {"n_grid": 320}
    cfg["basis"]["degree"] = 60
    cfg["grid"] = {axis: {"kind": "cartesian", "rmax": 0.6, "n": 9} for axis in ("z", "w")}
    return [("ellipse_invariants", cmd, cfg)]


WORKLOADS = {
    "presets": presets,
    "verify_csv": verify_csv,
    "kernel_scaled": kernel_scaled,
    "kernel_generic": kernel_generic,
}
