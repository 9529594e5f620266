"""CLI behavior: exit codes, determinism, summaries, presets."""

import csv
import dataclasses
import io
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import redbergman
from conftest import generic_ellipse_config
from redbergman.cli import CSV_BLOCK_ROWS, main, preset_names, preset_text

DISC_KERNEL_CFG = """
run: kernel
seed: 0
tolerance: 1.0e-6
domain: {type: disc, center: [0.0, 0.0], radius: 1.0}
quadrature: {n_radial: 24, n_angular: 64}
basis: {type: monomial, center: [0.0, 0.0], degree: 12, reduced: true}
weight: {type: constant}
grid:
  z: {kind: cartesian, rmax: 0.5, n: 5}
  w: {kind: cartesian, rmax: 0.5, n: 5}
oracle: {type: disc}
"""

ANNULUS_CFG = """
run: kernel
seed: 0
tolerance: 1.0e-5
domain: {type: annulus, center: [0.0, 0.0], r_inner: 0.5, r_outer: 1.0}
quadrature: {n_radial: 32, n_angular: 64}
basis: {type: laurent, center: [0.0, 0.0], n_min: -6, n_max: 6, reduced: true}
weight: {type: constant}
grid:
  z: {kind: polar, r_min: 0.6, r_max: 0.9, n_radial: 3, n_angular: 4}
  w: {kind: polar, r_min: 0.6, r_max: 0.9, n_radial: 3, n_angular: 4}
oracle: {type: annulus_reduced}
"""

# the disc kernel for the weight |z|^2, gated on its closed form
POWER_WEIGHT_CFG = (
    DISC_KERNEL_CFG.replace("weight: {type: constant}", "weight: {type: power, alpha: 1.0}")
    .replace("oracle: {type: disc}", "oracle: {type: disc_power_weight, alpha: 1.0}"))


def write_cfg(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, *args):
    return main(["--output-dir", str(tmp_path / "out"), *args])


def only_run_dir(tmp_path, prefix):
    out = tmp_path / "out"
    dirs = [d for d in os.listdir(out) if d.startswith(prefix)]
    assert len(dirs) >= 1
    return out / dirs[0]


def test_kernel_run_with_oracle_passes(tmp_path):
    cfg = write_cfg(tmp_path, DISC_KERNEL_CFG)
    assert run_cli(tmp_path, "kernel", cfg) == 0
    rd = only_run_dir(tmp_path, "kernel-")
    summary = (rd / "summary.txt").read_text()
    assert "status = ok" in summary
    assert "oracle_max_rel_err" in summary
    header = (rd / "kernel.csv").read_text().splitlines()[0]
    assert header == "re_z,im_z,re_w,im_w,re_k,im_k"


def test_byte_identical_reruns(tmp_path):
    cfg = write_cfg(tmp_path, DISC_KERNEL_CFG)
    assert run_cli(tmp_path, "kernel", cfg) == 0
    rd = only_run_dir(tmp_path, "kernel-")
    first = (rd / "kernel.csv").read_bytes()
    assert run_cli(tmp_path, "kernel", cfg) == 0
    assert (rd / "kernel.csv").read_bytes() == first


def test_annulus_summary_reports_dropped_residue_term(tmp_path):
    cfg = write_cfg(tmp_path, ANNULUS_CFG)
    assert run_cli(tmp_path, "kernel", cfg) == 0
    summary = (only_run_dir(tmp_path, "kernel-") / "summary.txt").read_text()
    fields = dict(line.split(" = ") for line in summary.splitlines())
    assert int(fields["retained_count"]) == int(fields["n_raw"]) - 1


def test_malformed_config_laurent_on_disc(tmp_path, capsys):
    bad = yaml.safe_load(DISC_KERNEL_CFG)
    bad["basis"] = {"type": "laurent", "n_min": -2, "n_max": 2, "reduced": True}
    cfg = write_cfg(tmp_path, yaml.safe_dump(bad))
    assert run_cli(tmp_path, "kernel", cfg) == 2
    assert "laurent basis requires an annulus" in capsys.readouterr().err


def test_missing_field_reports_path(tmp_path, capsys):
    bad = yaml.safe_load(DISC_KERNEL_CFG)
    del bad["quadrature"]
    cfg = write_cfg(tmp_path, yaml.safe_dump(bad))
    assert run_cli(tmp_path, "kernel", cfg) == 2
    assert "quadrature" in capsys.readouterr().err


def test_impossible_tolerance_fails_but_writes_summary(tmp_path):
    cfg = write_cfg(tmp_path, DISC_KERNEL_CFG)
    assert run_cli(tmp_path, "kernel", cfg, "--set", "tolerance=0") == 1
    dirs = os.listdir(tmp_path / "out")
    assert len(dirs) == 1
    summary = (tmp_path / "out" / dirs[0] / "summary.txt").read_text()
    assert "status = gate_failed" in summary


def test_set_override_changes_hash(tmp_path):
    cfg = write_cfg(tmp_path, DISC_KERNEL_CFG)
    assert run_cli(tmp_path, "kernel", cfg) == 0
    assert run_cli(tmp_path, "kernel", cfg, "--set", "basis.degree=16") == 0
    assert len(os.listdir(tmp_path / "out")) == 2


def test_verify_pipeline_map(tmp_path):
    cfg_dict = {
        "run": "verify", "seed": 0, "tolerance": 1e-6,
        "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "quadrature": {"n_radial": 30, "n_angular": 120},
        "quadrature2": {"n_radial": 30, "n_angular": 120},
        "basis": {"type": "monomial", "degree": 30, "reduced": True},
        "basis2": {"type": "monomial", "degree": 30, "reduced": True},
        "weight": {"type": "constant"},
        "map": {"type": "power", "m": 2},
        "grid": {"z": {"kind": "cartesian", "rmax": 0.6, "n": 7},
                 "w": {"kind": "cartesian", "rmax": 0.4, "n": 6}},
    }
    cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict))
    assert run_cli(tmp_path, "verify", cfg) == 0
    rd = only_run_dir(tmp_path, "verify-")
    assert (rd / "samples.csv").exists()
    summary = (rd / "summary.txt").read_text()
    assert "max_rel_residual" in summary
    assert "excluded" in summary


def test_recover_pipeline_csv(tmp_path):
    cfg_dict = {
        "run": "recover", "seed": 0, "tolerance": 1e-4,
        "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "quadrature": {"n_radial": 40, "n_angular": 160},
        "basis": {"type": "monomial", "degree": 40, "reduced": True},
        "weight": {"type": "constant"},
        "map": {"type": "identity"},
        "grid": {"z": {"kind": "cartesian", "rmax": 0.5, "n": 5}},
        "recover": {"probe": [0.0, 0.0], "fallback": [0.1, 0.0]},
    }
    cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict))
    assert run_cli(tmp_path, "recover", cfg) == 0
    rd = only_run_dir(tmp_path, "recover-")
    lines = (rd / "recover.csv").read_text().splitlines()
    assert lines[0] == "re_z,im_z,re_ghat,im_ghat,re_f,im_f,abs_err"
    assert len(lines) > 1


def test_generic_domain_config(tmp_path):
    cfg_dict = {
        "run": "kernel", "seed": 0,
        "domain": {
            "type": "generic",
            "bbox": [-1.0, 1.0, -1.0, 1.0],
            # x^2 + y^2 - 1 < 0, the unit disc as a predicate
            "inequalities": [{"poly": [[2, 0, 1.0], [0, 2, 1.0], [0, 0, -1.0]],
                              "sign": "<"}],
            "holes": [],
        },
        "quadrature": {"n_grid": 40},
        "basis": {"type": "monomial", "degree": 6, "reduced": True},
        "weight": {"type": "constant"},
        "grid": {"z": {"kind": "cartesian", "rmax": 0.4, "n": 3},
                 "w": {"kind": "cartesian", "rmax": 0.4, "n": 3}},
    }
    cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict))
    assert run_cli(tmp_path, "kernel", cfg) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_dense_gram_summary_does_not_depend_on_the_core_count(tmp_path):
    """The dense Gram forms its node blocks on up to two threads, one per
    core; a run pinned to one core writes the same summary as this
    process."""
    command, cfg = generic_ellipse_config()
    path = write_cfg(tmp_path, yaml.safe_dump(cfg))
    assert main(["--output-dir", str(tmp_path / "in"), command, path]) == 0
    src = os.path.dirname(os.path.dirname(redbergman.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "redbergman.cli", "--output-dir",
                           str(tmp_path / "pinned"), command, path],
                          env=dict(os.environ, PYTHONPATH=pythonpath),
                          preexec_fn=lambda: os.sched_setaffinity(0, {0}),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (run_dir,) = os.listdir(tmp_path / "in")
    got = (tmp_path / "pinned" / run_dir / "summary.txt").read_bytes()
    assert got == (tmp_path / "in" / run_dir / "summary.txt").read_bytes()


def test_presets_list_and_show(tmp_path, capsys):
    assert main(["presets", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "disc_kernel_oracle" in names
    assert set(names) == set(preset_names())
    assert len(names) >= 9

    assert main(["presets", "show", "recover_blaschke"]) == 0
    assert "run: recover" in capsys.readouterr().out

    assert main(["presets", "show", "no_such_preset"]) == 2


def test_presets_run_one(tmp_path):
    assert run_cli(tmp_path, "presets", "run", "invariants_disc") == 0


def test_output_env_var_and_config_echo(tmp_path, monkeypatch):
    monkeypatch.setenv("REDBERGMAN_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, DISC_KERNEL_CFG)
    assert main(["kernel", cfg]) == 0
    dirs = os.listdir(tmp_path / "envout")
    assert len(dirs) == 1
    echoed = (tmp_path / "envout" / dirs[0] / "config.yaml").read_text()
    assert yaml.safe_load(echoed)["basis"]["degree"] == 12
    assert echoed == yaml.safe_dump(yaml.safe_load(DISC_KERNEL_CFG), sort_keys=True)


def test_numerical_failure_exit_code_and_summary(tmp_path):
    # probe and fallback both sit on the critical value of z^2
    cfg_dict = {
        "run": "recover", "seed": 0, "tolerance": 1e-4,
        "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "quadrature": {"n_radial": 20, "n_angular": 60},
        "basis": {"type": "monomial", "degree": 15, "reduced": True},
        "weight": {"type": "constant"},
        "map": {"type": "power", "m": 2},
        "grid": {"z": {"kind": "cartesian", "rmax": 0.5, "n": 5}},
        "recover": {"probe": [0.0, 0.0], "fallback": [0.0, 0.0]},
    }
    cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict))
    assert run_cli(tmp_path, "recover", cfg) == 3
    summary = (only_run_dir(tmp_path, "recover-") / "summary.txt").read_text()
    assert "status = error" in summary
    assert "NearCriticalError" in summary


@pytest.mark.parametrize("radius, degree, norm", [(0.02, 120, "0.0"), (100, 100, "inf")],
                         ids=["underflow", "overflow"])
def test_gram_norm_out_of_range_is_a_numerical_failure(tmp_path, radius, degree, norm):
    # z^n on a tiny disc underflows to a zero norm, on a huge one it overflows;
    # the preset's grids are scaled with the disc, so they stay inside it
    cfg = write_cfg(tmp_path, preset_text("disc_kernel_oracle"))
    assert run_cli(tmp_path, "kernel", cfg, "--set", f"domain.radius={radius}",
                   "--set", f"grid.z.rmax={0.7 * radius}", "--set", f"grid.w.rmax={0.7 * radius}",
                   "--set", f"basis.degree={degree}", "--set", "oracle=null") == 3
    summary = (only_run_dir(tmp_path, "kernel-") / "summary.txt").read_text()
    assert "status = error" in summary
    assert "DegenerateBasisError: element BasisElement((z - 0j)^" in summary
    assert f"has Gram norm {norm}:" in summary


def test_constant_weight_verify_matches_unweighted(tmp_path):
    base = {
        "run": "verify", "seed": 0, "tolerance": 1e-6,
        "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "quadrature": {"n_radial": 30, "n_angular": 120},
        "quadrature2": {"n_radial": 30, "n_angular": 120},
        "basis": {"type": "monomial", "degree": 30, "reduced": True},
        "basis2": {"type": "monomial", "degree": 30, "reduced": True},
        "map": {"type": "power", "m": 2},
        "grid": {"z": {"kind": "cartesian", "rmax": 0.6, "n": 7},
                 "w": {"kind": "cartesian", "rmax": 0.4, "n": 6}},
        "output": {"csv": False},
    }
    weighted = dict(base, weight={"type": "constant"})
    cfg_a = write_cfg(tmp_path, yaml.safe_dump(base), "a.yaml")
    cfg_b = write_cfg(tmp_path, yaml.safe_dump(weighted), "b.yaml")
    assert run_cli(tmp_path, "verify", cfg_a) == 0
    assert run_cli(tmp_path, "verify", cfg_b) == 0
    out = tmp_path / "out"
    summaries = []
    for d in sorted(os.listdir(out)):
        fields = dict(line.split(" = ")
                      for line in (out / d / "summary.txt").read_text().splitlines())
        summaries.append((fields["max_rel_residual"], fields["max_abs_residual"]))
    assert summaries[0] == summaries[1]


def test_random_grid_is_seed_deterministic(tmp_path):
    base = yaml.safe_load(DISC_KERNEL_CFG)
    base["grid"] = {"z": {"kind": "random_disc", "rmax": 0.5, "n": 12},
                    "w": {"kind": "random_disc", "rmax": 0.5, "n": 12}}
    base["seed"] = 7
    del base["oracle"]
    cfg = write_cfg(tmp_path, yaml.safe_dump(base))
    assert run_cli(tmp_path, "kernel", cfg) == 0
    rd = only_run_dir(tmp_path, "kernel-")
    first = (rd / "kernel.csv").read_bytes()
    assert run_cli(tmp_path, "kernel", cfg) == 0
    assert (rd / "kernel.csv").read_bytes() == first


def test_residual_csv_rows_are_the_summary_samples(tmp_path):
    # z = 5e-7 lies inside the 1e-6 grid exclusion around the singular
    # set {0} of w^2 - z, yet its forward branches still solve
    cfg_dict = {
        "run": "verify", "seed": 0,
        "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "quadrature": {"n_radial": 20, "n_angular": 60},
        "quadrature2": {"n_radial": 20, "n_angular": 60},
        "basis": {"type": "monomial", "degree": 15, "reduced": True},
        "basis2": {"type": "monomial", "degree": 15, "reduced": True},
        "weight": {"type": "constant"},
        "correspondence": {"terms": [[0, 2, 1.0], [1, 0, -1.0]]},
        "grid": {"z": {"kind": "points", "values": [5.0e-7, 0.3, [0.2, 0.2]]},
                 "w": {"kind": "points", "values": [0.4, [0.1, -0.3]]}},
        "output": {"csv": True},
    }
    cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict))
    assert run_cli(tmp_path, "verify", cfg) == 0
    rd = only_run_dir(tmp_path, "verify-")
    fields = dict(line.split(" = ") for line in (rd / "summary.txt").read_text().splitlines())
    rows = (rd / "samples.csv").read_text().splitlines()[1:]
    assert (fields["n_samples"], fields["excluded"]) == ("6", "2")
    assert len(rows) == int(fields["n_samples"]) - int(fields["excluded"])
    assert max(float(r.split(",")[4]) for r in rows) == float(fields["max_abs_residual"])


# z = 0 is the singular set of both correspondences; w = 0 only of w^2 - z^2,
# since w^2 - z has one backward branch and so no discriminant in w
@pytest.mark.parametrize("preset, excluded", [("corr_sqrt_disc", 3), ("corr_mirror_disc", 6)])
def test_residual_csv_is_the_sweep_record_w_major(tmp_path, monkeypatch, preset, excluded):
    from redbergman import cli

    reports = []
    sweep = cli.verify_correspondence
    monkeypatch.setattr(cli, "verify_correspondence",
                        lambda *args: reports.append(sweep(*args)) or reports[-1])
    cfg = write_cfg(tmp_path, preset_text(preset))
    assert run_cli(tmp_path, "verify", cfg, "--set", "output.csv=true",
                   "--set", "grid.z={kind: points, values: [0.3, [0, 0], [0.2, 0.2], [-0.1, 0.5]]}",
                   "--set", "grid.w={kind: points, values: [0.4, [0, 0], [0.1, -0.3]]}") == 0
    (rep,) = reports
    assert (rep.n_samples, rep.excluded) == (12, excluded)
    rd = only_run_dir(tmp_path, "verify-")
    fields = dict(line.split(" = ") for line in (rd / "summary.txt").read_text().splitlines())
    assert (fields["n_samples"], fields["excluded"]) == ("12", str(excluded))
    with open(rd / "samples.csv", newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert len(rows) == rep.n_samples - rep.excluded
    res, mag = np.abs(rep.lhs - rep.rhs), np.abs(rep.lhs)
    assert rows == [[z.real, z.imag, w.real, w.imag, res[i, j], mag[i, j]]
                    for j, w in enumerate(rep.w) for i, z in enumerate(rep.z)]


@pytest.mark.parametrize("command, preset, override", [
    ("adjoint", "adjoint_disc", "adjoint.n_elements=50"),
    ("kernel", "annulus_reduced_oracle", "tolerance=.nan"),
], ids=["adjoint elements", "nan tolerance"])
def test_a_config_error_writes_no_run_directory(tmp_path, capsys, command, preset, override):
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(tmp_path, command, write_cfg(tmp_path, preset_text(preset)),
                   "--set", override) == 2
    assert "config error" in capsys.readouterr().err
    assert os.listdir(out) == []


def shifted_annulus_oracle(center):
    """annulus_reduced_oracle on the annulus and grids about 0.3 + 0.2i,
    its basis about ``center``."""
    cfg = yaml.safe_load(preset_text("annulus_reduced_oracle"))
    for block in (cfg["domain"], *cfg["grid"].values(), *cfg["oracle"]["grid"].values()):
        block["center"] = [0.3, 0.2]
    cfg["basis"]["center"] = center
    return yaml.safe_dump(cfg)


def test_annulus_oracle_is_taken_about_the_annulus_centre(tmp_path):
    cfg = write_cfg(tmp_path, shifted_annulus_oracle([0.3, 0.2]))
    assert run_cli(tmp_path, "kernel", cfg) == 0
    summary = (only_run_dir(tmp_path, "kernel-") / "summary.txt").read_text()
    fields = dict(line.split(" = ") for line in summary.splitlines())
    assert float(fields["oracle_max_rel_err"]) < 1e-12


def test_annulus_oracle_with_the_basis_off_the_centre_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, shifted_annulus_oracle([0.0, 0.0]))
    assert run_cli(tmp_path, "kernel", cfg) == 2
    assert "basis.center at the annulus centre" in capsys.readouterr().err


def test_branch_failure_outside_the_exclusions_is_a_numerical_failure(tmp_path):
    # Q = w^2 - 4 z^2: for |z| > 1/2 the branches w = +-2z leave the unit
    # disc, far from the singular set {0}, so the sweep reports the failure
    # instead of counting those samples as excluded
    cfg_dict = {
        "run": "verify", "seed": 0, "tolerance": 1e-6,
        "domain": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "domain2": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
        "quadrature": {"n_radial": 20, "n_angular": 60},
        "quadrature2": {"n_radial": 20, "n_angular": 60},
        "basis": {"type": "monomial", "degree": 15, "reduced": True},
        "basis2": {"type": "monomial", "degree": 15, "reduced": True},
        "weight": {"type": "constant"},
        "correspondence": {"terms": [[0, 2, 1.0], [2, 0, -4.0]]},
        "grid": {"z": {"kind": "cartesian", "rmax": 0.7, "n": 7},
                 "w": {"kind": "cartesian", "rmax": 0.5, "n": 5}},
    }
    cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict))
    assert run_cli(tmp_path, "verify", cfg) == 3
    summary = (only_run_dir(tmp_path, "verify-") / "summary.txt").read_text()
    assert "status = error" in summary
    assert "BranchCountError" in summary


def test_recover_rejects_the_stencil_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, preset_text("recover_blaschke"))
    assert run_cli(tmp_path, "recover", cfg, "--set", "recover.stencil=1.0e-4") == 2
    assert "recover.stencil" in capsys.readouterr().err


def test_adjoint_honours_drop_tol(tmp_path, monkeypatch):
    from redbergman import cli

    seen = []
    real = cli.orthonormalize

    def spy(basis, rule, weight, drop_tol=1e-10):
        seen.append(drop_tol)
        return real(basis, rule, weight, drop_tol)

    monkeypatch.setattr(cli, "orthonormalize", spy)
    cfg_dict = yaml.safe_load(cli.preset_text("adjoint_disc"))
    cfg_dict.update(drop_tol=1e-9, quadrature={"n_radial": 16, "n_angular": 32},
                    quadrature2={"n_radial": 16, "n_angular": 32})
    del cfg_dict["tolerance"]
    assert run_cli(tmp_path, "adjoint", write_cfg(tmp_path, yaml.safe_dump(cfg_dict))) == 0
    assert seen and all(tol == 1e-9 for tol in seen)


@pytest.mark.parametrize("excess, code", [(None, 0), (1e-10, 1)],
                         ids=["adjoint_disc as shipped", "ratio 1 + 1e-10"])
def test_operator_bound_gate_allows_only_rounding_above_one(tmp_path, monkeypatch, excess, code):
    from redbergman import cli

    if excess is not None:
        monkeypatch.setattr(cli, "operator_bound_check",
                            lambda *args: np.array([1.0, 1.0 + excess]))
    assert run_cli(tmp_path, "adjoint", write_cfg(tmp_path, preset_text("adjoint_disc"))) == code
    summary = (only_run_dir(tmp_path, "adjoint-") / "summary.txt").read_text()
    fields = dict(line.split(" = ", 1) for line in summary.splitlines())
    ratio = float(fields["bound_max_ratio"])
    assert (ratio > 1 + cli.BOUND_SLACK) == (excess is not None)
    assert ratio <= 1 + (excess or 1e-13)


@pytest.mark.parametrize("command, preset, target, fake, gate", [
    ("kernel", "annulus_reduced_oracle", "annulus_kernel",
     lambda zs, ws, *args, **kwargs: np.full(np.broadcast(zs, ws).shape, np.nan + 0j), "nan"),
    ("adjoint", "adjoint_disc", "adjoint_residual_matrix",
     lambda model, onb1, onb2, n, source: np.full((n, n), np.nan), "nan"),
    ("adjoint", "adjoint_disc", "operator_bound_check",
     lambda model, onb1, onb2, n, source: np.array([1.0, np.nan]), "inf"),
], ids=["oracle", "adjoint residual", "bound ratio"])
def test_a_nan_residual_fails_its_gate(tmp_path, monkeypatch, command, preset, target, fake,
                                       gate):
    from redbergman import cli

    owner = cli.oracles if target == "annulus_kernel" else cli
    monkeypatch.setattr(owner, target, fake)
    assert run_cli(tmp_path, command, write_cfg(tmp_path, preset_text(preset))) == 1
    summary = (only_run_dir(tmp_path, f"{command}-") / "summary.txt").read_text()
    fields = dict(line.split(" = ", 1) for line in summary.splitlines())
    assert fields["status"] == "gate_failed"
    assert fields["gate_value"] == gate


def test_adjoint_n_elements_above_the_retained_counts_is_a_config_error(tmp_path, capsys):
    # adjoint_disc keeps 9 elements on each side
    cfg = write_cfg(tmp_path, preset_text("adjoint_disc"))
    assert run_cli(tmp_path, "adjoint", cfg, "--set", "adjoint.n_elements=9") == 0
    assert run_cli(tmp_path, "adjoint", cfg, "--set", "adjoint.n_elements=10") == 2
    err = capsys.readouterr().err
    assert "adjoint.n_elements = 10" in err and "counts 9, 9 (source, target)" in err


def test_drop_tol_above_one_is_a_numerical_failure(tmp_path):
    # the disc's Gram is exactly diagonal, and still every pivot drops
    cfg = write_cfg(tmp_path, preset_text("disc_kernel_oracle"))
    assert run_cli(tmp_path, "kernel", cfg, "--set", "drop_tol=2.0") == 3
    summary = (only_run_dir(tmp_path, "kernel-") / "summary.txt").read_text()
    assert "all Gram pivots fell below the drop tolerance" in summary


def test_adjoint_model_errors_come_before_the_numerics(tmp_path, capsys, monkeypatch):
    # the gamma block runs first; a malformed map must still fail before it
    from redbergman import cli

    calls = []
    monkeypatch.setattr(cli, "orthonormalize", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, preset_text("adjoint_disc"))
    assert run_cli(tmp_path, "adjoint", cfg, "--set", "map.type=bogus") == 2
    assert "map.type" in capsys.readouterr().err
    assert calls == []


def test_oracle_grid_follows_seed(tmp_path, monkeypatch):
    from redbergman import cli

    grids = {}
    real = cli.build_grid

    def spy(cfg, key, seed=0):
        out = real(cfg, key, seed)
        grids[(cfg["seed"], key)] = out
        return out

    monkeypatch.setattr(cli, "build_grid", spy)
    cfg_dict = yaml.safe_load(DISC_KERNEL_CFG)
    cfg_dict["oracle"]["grid"] = {axis: {"kind": "random_disc", "rmax": 0.5, "n": 6}
                                  for axis in ("z", "w")}
    for seed in (1, 2):
        cfg_dict["seed"] = seed
        cfg = write_cfg(tmp_path, yaml.safe_dump(cfg_dict), f"seed{seed}.yaml")
        assert run_cli(tmp_path, "kernel", cfg) == 0
    assert not np.array_equal(grids[(1, "oracle.grid.z")], grids[(2, "oracle.grid.z")])
    assert not np.array_equal(grids[(1, "oracle.grid.w")], grids[(2, "oracle.grid.w")])


def multi_block_ellipse_checks(n_grid=128):
    """The invariants preset's checks on the ellipse x^2 + 2 y^2 < 0.98 with
    41 raw elements and about 0.77 n_grid^2 midpoint nodes (at 128, three
    node blocks and a remainder); returns (config, evaluator, check sample
    grid, raw basis size)."""
    from redbergman import cli

    cfg = yaml.safe_load(cli.preset_text("invariants_disc"))
    cfg.update(
        domain={"type": "generic", "bbox": [-1.0, 1.0, -0.71, 0.71],
                "inequalities": [{"poly": [[2, 0, 1.0], [0, 2, 2.0], [0, 0, -0.98]],
                                  "sign": "<"}],
                "holes": []},
        quadrature={"n_grid": n_grid},
    )
    cfg["basis"]["degree"] = 40
    assert set(cfg["checks"]) == set(cli.KNOWN_CHECKS)
    _, orthonormal, n_raw = cli.build_side(cfg)
    ev = cli.KernelEvaluator(orthonormal(cli.build_weight(cfg)))
    return cfg, ev, cli.build_grid(cfg, "grid.z"), n_raw


def test_checks_evaluate_the_raw_basis_on_the_nodes_once(tmp_path, monkeypatch):
    from redbergman import cli
    from redbergman.holobasis import RawBasis
    from redbergman.kernel import GRAM_BLOCK

    cfg, ev, zs, _ = multi_block_ellipse_checks()
    nodes = ev.onb.rule.nodes
    assert len(nodes) > 3 * GRAM_BLOCK
    calls = []
    real = RawBasis.values

    def counting(self, pts):
        calls.append(pts)
        return real(self, pts)

    scalar_calls = []
    real_scalar = cli.KernelEvaluator.eval_kernel

    def counting_scalar(self, z, w):
        scalar_calls.append((z, w))
        return real_scalar(self, z, w)

    monkeypatch.setattr(RawBasis, "values", counting)
    monkeypatch.setattr(cli.KernelEvaluator, "eval_kernel", counting_scalar)
    run = cli.RunDir(str(tmp_path), "kernel", cfg)
    assert cli._run_checks(cli.build_checks(cfg), ev, zs, run) == 0.0
    assert max(np.size(pts) for pts in calls) <= GRAM_BLOCK
    # the node blocks, in call order, are the nodes, each exactly once
    node_blocks = [pts for pts in calls if np.shares_memory(pts, nodes)]
    assert len(node_blocks) == -(-len(nodes) // GRAM_BLOCK)
    assert np.array_equal(np.concatenate(node_blocks), nodes)
    assert scalar_calls == []


def test_checks_never_hold_a_node_by_basis_array(tmp_path):
    import tracemalloc

    from redbergman import cli
    from redbergman.kernel import GRAM_BLOCK

    for n_grid, blocks in ((128, 3), (256, 12)):
        cfg, ev, zs, n_raw = multi_block_ellipse_checks(n_grid)
        assert len(ev.onb.rule.nodes) > blocks * GRAM_BLOCK
        run = cli.RunDir(str(tmp_path), "kernel", cfg)
        tracemalloc.start()
        try:
            assert cli._run_checks(cli.build_checks(cfg), ev, zs, run) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of raw values and three blocks of the (at most 11) check
        # functions: a bound in GRAM_BLOCK, not in the node count
        assert peak < 16 * GRAM_BLOCK * (n_raw + 3 * 11), n_grid


# sides: the suffixes whose domain, quadrature and basis blocks are built;
# a side 2 whose blocks equal side 1's is side 1
@pytest.mark.parametrize("preset, sides", [
    ("proper_square_disc", ("",)),
    ("corr_sqrt_disc", ("",)),
    ("adjoint_disc", ("",)),
    ("recover_blaschke", ("",)),
    ("proper_square_annulus", ("", "2")),
])
def test_pipelines_build_each_side_once(tmp_path, monkeypatch, preset, sides):
    from redbergman import cli

    calls = Counter()

    def spy(name, key_at):
        real = getattr(cli, name)

        def wrapped(*args):
            calls[name, args[key_at]] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, wrapped)

    spy("build_domain", 1)
    spy("build_rule", 2)
    spy("build_basis", 2)
    cfg = yaml.safe_load(preset_text(preset))
    command = cfg.pop("run")
    assert run_cli(tmp_path, command, write_cfg(tmp_path, yaml.safe_dump(cfg))) == 0
    want = Counter()
    for suffix in sides:
        want.update({("build_domain", "domain" + suffix): 1,
                     ("build_rule", "quadrature" + suffix): 1,
                     ("build_basis", "basis" + suffix): 1})
    if command == "recover":
        # recover reads the target domain alone
        want["build_domain", "domain2"] += 1
    assert calls == want


def count_systems(monkeypatch):
    """Counts cli.orthonormalize calls, in the returned list."""
    from redbergman import cli

    built = []
    real = cli.orthonormalize

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "orthonormalize", counting)
    return built


@pytest.mark.parametrize("preset, systems", [
    ("corr_sqrt_disc", 1),
    ("proper_square_disc", 1),
    # the weight on the target and its pull-back on the source
    ("weighted_square_disc", 2),
    # gamma in weight 1 on both sides, lambda in nu o f and nu
    ("adjoint_disc", 3),
])
def test_equal_sides_build_one_system_per_weight(tmp_path, monkeypatch, preset, systems):
    built = count_systems(monkeypatch)
    cfg = yaml.safe_load(preset_text(preset))
    command = cfg.pop("run")
    assert run_cli(tmp_path, command, write_cfg(tmp_path, yaml.safe_dump(cfg))) == 0
    assert len(built) == systems


def test_a_side_spelt_differently_is_built_again_with_the_same_results(tmp_path, monkeypatch):
    built = count_systems(monkeypatch)
    cfg = yaml.safe_load(preset_text("corr_sqrt_disc"))
    command = cfg.pop("run")
    spelt = yaml.safe_load(yaml.safe_dump(cfg))
    del spelt["basis2"]["center"]                 # [0.0, 0.0] is the default
    runs = []  # (systems built, summary lines but the config hash, which names the config)
    for name, c in (("reused", cfg), ("spelt", spelt)):
        built.clear()
        assert main(["--output-dir", str(tmp_path / name), command,
                     write_cfg(tmp_path, yaml.safe_dump(c), name + ".yaml")]) == 0
        summary = next((tmp_path / name).iterdir()) / "summary.txt"
        runs.append((len(built), [line for line in summary.read_bytes().splitlines()
                                  if not line.startswith(b"config_hash")]))
    assert [n for n, _ in runs] == [1, 2]
    assert runs[0][1] == runs[1][1]


def test_verify_with_no_kept_sample_fails_its_gate(tmp_path):
    # w = 0 is the critical value of z^2: every sample is excluded
    cfg = write_cfg(tmp_path, preset_text("proper_square_disc"))
    assert run_cli(tmp_path, "verify", cfg, "--set", "grid.w={kind: points, values: [[0, 0]]}",
                   "--set", "output.csv=true") == 1
    rd = only_run_dir(tmp_path, "verify-")
    fields = dict(line.split(" = ") for line in (rd / "summary.txt").read_text().splitlines())
    assert fields["status"] == "gate_failed"
    assert fields["excluded"] == fields["n_samples"] == "317"
    assert fields["gate_value"] == "inf"
    assert (rd / "samples.csv").read_text().splitlines() == [
        "re_z,im_z,re_w,im_w,abs_residual,abs_lhs"]


def generic_domain_with(term):
    """Overrides for DISC_KERNEL_CFG: the unit disc as a predicate whose
    first polynomial term is ``term``, without the disc oracle."""
    return {"domain": {"type": "generic", "bbox": [-1.0, 1.0, -1.0, 1.0],
                       "inequalities": [{"poly": [term, [0, 2, 1.0], [0, 0, -1.0]],
                                         "sign": "<"}]},
            "quadrature": {"n_grid": 16}, "oracle": None}


GOOD_GRID = {"kind": "cartesian", "rmax": 0.5, "n": 3}


@pytest.mark.parametrize("overrides", [
    {"grid": {"z": {"kind": "cartesian", "rmax": 0.7, "n": 1}, "w": GOOD_GRID}},
    {"grid": {"z": {"kind": "points", "values": []}, "w": GOOD_GRID}},
    {"grid": {"z": GOOD_GRID, "w": {"kind": "cartesian", "rmax": "x", "n": 3}}},
    generic_domain_with([2.0, 0, 1.0]),
    generic_domain_with([-1, 0, 1.0]),
    generic_domain_with([2, 0, None]),
], ids=["masked-cartesian", "no-points", "rmax-not-a-number", "float-exponent",
        "negative-exponent", "null-coefficient"])
def test_malformed_grids_and_generic_domains_are_config_errors(tmp_path, capsys, overrides):
    cfg = yaml.safe_load(DISC_KERNEL_CFG)
    cfg.update(overrides)
    assert run_cli(tmp_path, "kernel", write_cfg(tmp_path, yaml.safe_dump(cfg))) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, override, key", [
    ("kernel", ANNULUS_CFG, "basis.n_min=a", "basis.n_min"),
    ("kernel", ANNULUS_CFG, "basis.n_max=[6]", "basis.n_max"),
    ("kernel", ANNULUS_CFG, "basis.n_min=7", "basis"),
    # (z - 0.75i)^-6 has a pole in the annulus
    ("kernel", ANNULUS_CFG, "basis.center=[0.0, 0.75]", "basis: Laurent center in the closed"),
    ("adjoint", preset_text("adjoint_disc"), "adjoint.n_elements=x", "adjoint.n_elements"),
    ("kernel", DISC_KERNEL_CFG, "checks.conjugate_symmetry=abc", "checks.conjugate_symmetry"),
    ("kernel", DISC_KERNEL_CFG, "drop_tol=x", "drop_tol"),
    ("kernel", DISC_KERNEL_CFG, "drop_tol=0", "drop_tol"),
    ("kernel", DISC_KERNEL_CFG, "tolerance=x", "tolerance"),
    # a NaN bound would pass every residual
    ("kernel", DISC_KERNEL_CFG, "tolerance=.nan", "'tolerance' must be a number, got nan"),
    ("kernel", DISC_KERNEL_CFG, "checks.reproduce_basis=nan",
     "'checks.reproduce_basis' must be a number, got 'nan'"),
    ("kernel", POWER_WEIGHT_CFG, "weight.alpha=[1]", "'weight.alpha'"),
    ("kernel", DISC_KERNEL_CFG, "weight.value=[1]", "'weight.value'"),
    ("kernel", DISC_KERNEL_CFG, "weight={type: radial_poly, coeffs: 3}", "'weight.coeffs'"),
    ("kernel", DISC_KERNEL_CFG, "weight={type: radial_poly, coeffs: [1, x]}",
     "'weight.coeffs[1]'"),
    ("kernel", POWER_WEIGHT_CFG, "oracle.alpha=abc", "'oracle.alpha'"),
    ("kernel", DISC_KERNEL_CFG, "basis.degree=true", "'basis.degree'"),
    ("kernel", DISC_KERNEL_CFG, "grid.z.n=true", "'grid.z.n'"),
    ("verify", preset_text("proper_square_disc"), "map.m=2.5", "'map.m'"),
    ("kernel", DISC_KERNEL_CFG, "domain.radius=abc", "'domain.radius'"),
    ("kernel", DISC_KERNEL_CFG, 'output.csv="false"', "'output.csv'"),
    ("kernel", DISC_KERNEL_CFG, "basis.reduced=1", "'basis.reduced'"),
    ("verify", preset_text("corr_sqrt_disc"), "correspondence.terms=[[0, 0, 1.0]]",
     "correspondence"),
    ("verify", preset_text("corr_sqrt_disc"), "correspondence.terms=[[0, 2, 1], [-1, 0, -1]]",
     "'correspondence.terms[1]'"),
    # equal to side 1's value in Python, so a reused side 1 would hide the error
    ("verify", preset_text("proper_square_disc"), "basis2.reduced=1", "'basis2.reduced'"),
    ("verify", preset_text("proper_square_disc"), "quadrature2.n_radial=40.0",
     "'quadrature2.n_radial'"),
], ids=["n_min-text", "n_max-list", "n_min-above-n_max", "laurent-centre-in-body",
        "n_elements-text", "check-tolerance-text", "drop_tol-text", "drop_tol-zero",
        "tolerance-text", "tolerance-nan", "check-tolerance-nan-text",
        "weight-alpha-list", "weight-value-list", "radial-coeffs-scalar",
        "radial-coeffs-entry-text", "oracle-alpha-text", "degree-bool", "grid-n-bool",
        "map-m-float", "radius-text", "csv-string", "reduced-int", "constant-correspondence",
        "negative-degree", "side2-reduced-int", "side2-n_radial-float"])
def test_malformed_numeric_fields_are_config_errors(tmp_path, capsys, command, text,
                                                    override, key):
    assert run_cli(tmp_path, command, write_cfg(tmp_path, text), "--set", override) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_cfg_get_kinds():
    from redbergman.cli import POSITIVE_INT, cfg_get, cfg_list
    from redbergman.errors import ConfigError

    # PyYAML reads a number without a dot as text
    cfg = yaml.safe_load("a: {x: 25e-1, n: 3, t: true, z: [1, -2e0], nil: null}\n"
                         "list: [1, '2', 3.5]")
    assert (cfg["a"]["x"], cfg["a"]["z"][1]) == ("25e-1", "-2e0")
    assert cfg_get(cfg, "a.x", kind=float) == 2.5
    assert cfg_get(cfg, "a.n", kind=float) == 3.0
    assert cfg_get(cfg, "a.n", kind=POSITIVE_INT) == 3
    assert cfg_get(cfg, "a.t", kind=bool) is True
    assert cfg_get(cfg, "a.z", kind=complex) == 1 - 2j
    assert cfg_get(cfg, "a.x", kind=complex) == 2.5
    assert cfg_get(cfg, "a.nil", 7, int) == 7       # null reads as absent
    assert cfg_get(cfg, "a.gone.deeper", None) is None
    assert cfg_list(cfg, "list", float) == [1.0, 2.0, 3.5]
    for path, kind in [("a.t", float), ("a.t", int), ("a.t", complex), ("a.n", bool),
                       ("a.x", int), ("a.z", float), ("list", complex), ("a.nil", int)]:
        with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
            cfg_get(cfg, path, kind=kind)
    # integer fields take no numeric text
    with pytest.raises(ConfigError, match=r"'list\[1\]' must be an integer, got '2'"):
        cfg_list(cfg, "list", int)
    with pytest.raises(ConfigError, match="positive"):
        cfg_get({"n": 0}, "n", kind=POSITIVE_INT)


@pytest.mark.parametrize("override, key", [
    ("checks.conjugate_symetry=1.0e-12", "conjugate_symetry"),
    ("checks.conjugate_symmetry=abc", "checks.conjugate_symmetry"),
    ("checks.conjugate_symmetry=.nan", "'checks.conjugate_symmetry' must be a number, got nan"),
    ("grid.w.rmax=abc", "grid.w.rmax"),
    ("oracle.grid={z: {kind: cartesian, rmax: 0.5, n: 3}, w: {kind: polar}}", "oracle.grid.w"),
    ('output.csv="no"', "output.csv"),
    ("oracle.type=bogus", "oracle.type 'bogus'"),
    ("oracle={type: disc_power_weight, alpha: abc}", "'oracle.alpha'"),
    ("domain.radius=2.0", "oracle.type = disc requires the unit disc"),
    ("oracle={type: annulus_reduced}", "oracle.type = annulus_reduced requires an annulus"),
], ids=["misspelt-check", "tolerance-text", "tolerance-nan", "grid-w-text",
        "oracle-grid-w-missing", "csv-string", "oracle-type-unknown", "oracle-alpha-text",
        "oracle-off-unit-disc", "annulus-oracle-on-disc"])
def test_checks_are_config_errors_before_the_numerics(tmp_path, capsys, monkeypatch,
                                                      override, key):
    from redbergman import cli

    calls = []
    real = cli.orthonormalize

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "orthonormalize", counting)
    cfg = write_cfg(tmp_path, DISC_KERNEL_CFG)
    assert run_cli(tmp_path, "kernel", cfg, "--set", "checks.conjugate_symmetry=1.0e-12") == 0
    assert len(calls) == 1
    calls.clear()
    assert run_cli(tmp_path, "kernel", cfg, "--set", override) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert calls == []


@pytest.mark.parametrize("basis", [
    "{type: laurent, center: [0.0, 0.0], n_min: -6, n_max: 6, reduced: true}",
    "{type: laurent, center: [0.0, 0.0], n_min: -6, n_max: 6, reduced: false}",
    # (z - 2)^-1 has no period around the hole, so the reduced filter keeps it
    "{type: laurent, center: [2.0, 0.0], n_min: -3, n_max: 6, reduced: true}",
], ids=["reduced-basis", "full-basis", "centre-outside"])
def test_dirichlet_pairing_on_an_inverse_power_passes(tmp_path, basis):
    # the pairing is the reproducing integral of 2 (z - c0), which reads only the kernel
    cfg = write_cfg(tmp_path, ANNULUS_CFG + "checks: {dirichlet_pairing: 1.0e-5}\n")
    assert run_cli(tmp_path, "kernel", cfg, "--set", f"basis={basis}",
                   "--set", "oracle=null") == 0
    rd = only_run_dir(tmp_path, "kernel-")
    fields = dict(line.split(" = ") for line in (rd / "summary.txt").read_text().splitlines())
    assert fields["check_dirichlet_pairing_ok"] == "True"


@pytest.mark.parametrize("command, preset", [
    ("kernel", "disc_kernel_oracle"),
    ("verify", "corr_sqrt_disc"),
    ("verify", "proper_square_disc"),
])
def test_a_non_finite_grid_point_is_a_config_error(tmp_path, capsys, command, preset):
    assert run_cli(tmp_path, command, write_cfg(tmp_path, preset_text(preset)),
                   "--set", "grid.z={kind: points, values: [[.inf, 0.0]]}") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid.z" in err


POLAR_0_9_TO_0_6 = "{kind: polar, r_min: 0.9, r_max: 0.6, n_radial: 3, n_angular: 4}"


@pytest.mark.parametrize("command, preset, override, message", [
    ("kernel", "disc_kernel_oracle", "grid.z={kind: points, values: [[5.0, 0.0]]}",
     "grid.z has a sample point outside its domain: (5+0j)"),
    ("kernel", "disc_kernel_oracle", "oracle.grid.w={kind: cartesian, rmax: 1.2, n: 5}",
     "oracle.grid.w has a sample point outside its domain"),
    # side 1 is the annulus 0.707 < |z| < 1, side 2 the annulus 0.5 < |w| < 1
    ("verify", "proper_square_annulus", "grid.z={kind: points, values: [[0.6, 0.0]]}",
     "grid.z has a sample point outside its domain"),
    ("verify", "proper_square_annulus", "grid.w={kind: points, values: [[0.3, 0.0]]}",
     "grid.w has a sample point outside its domain"),
    ("recover", "recover_blaschke", "grid.z={kind: cartesian, rmax: 1.2, n: 5}",
     "grid.z has a sample point outside its domain"),
    ("kernel", "annulus_reduced_oracle", f"grid.z={POLAR_0_9_TO_0_6}",
     "grid.z: need r_min <= r_max, got (0.9, 0.6)"),
], ids=["kernel", "kernel-oracle", "verify-z", "verify-w", "recover", "reversed-polar"])
def test_a_grid_point_outside_its_domain_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           command, preset, override, message):
    from redbergman import cli

    calls = []
    monkeypatch.setattr(cli, "orthonormalize", lambda *args: calls.append(args))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(tmp_path, command, write_cfg(tmp_path, preset_text(preset)),
                   "--set", override) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert calls == []
    assert os.listdir(out) == []


def test_verify_takes_each_grid_in_its_own_domain(tmp_path):
    # |w| = 0.6 lies in side 2's annulus and outside side 1's
    cfg = write_cfg(tmp_path, preset_text("proper_square_annulus"))
    assert run_cli(tmp_path, "verify", cfg,
                   "--set", "grid.w={kind: points, values: [[0.6, 0.0], [0.0, 0.6]]}") == 0


@pytest.mark.parametrize("field, value, message", [
    ("holes", [[0.0, 0.0]], "'domain.holes': generic domains with holes wait for ROADMAP item 2"),
    ("bbox", [-np.inf, 1.0, -0.71, 0.71], "domain: bbox must be finite and non-degenerate"),
], ids=["holes", "non-finite-bbox"])
def test_generic_holes_and_non_finite_bboxes_are_config_errors(tmp_path, capsys, field, value,
                                                               message):
    command, cfg = generic_ellipse_config()
    cfg["domain"][field] = value
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(tmp_path, command, write_cfg(tmp_path, yaml.safe_dump(cfg))) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert os.listdir(out) == []


def test_adjoint_lambda_residual_is_in_the_weighted_inner_product(tmp_path):
    """A constant weight c scales both orthonormal systems by 1/sqrt(c) and
    the inner product by c, so the lambda residual does not depend on c.
    The coarse source rule makes it a quadrature error, not rounding."""
    cfg = yaml.safe_load(preset_text("adjoint_disc"))
    for key in ("run", "tolerance", "correspondence"):
        del cfg[key]
    cfg["quadrature"] = {"n_radial": 4, "n_angular": 9}
    residual = {}
    for value in (1.0, 100.0):
        cfg["weight"] = {"type": "constant", "value": value}
        out = tmp_path / f"out-{value}"
        assert main(["--output-dir", str(out), "adjoint",
                     write_cfg(tmp_path, yaml.safe_dump(cfg))]) == 0
        (summary,) = out.glob("*/summary.txt")
        fields = dict(line.split(" = ") for line in summary.read_text().splitlines())
        residual[value] = float(fields["lambda_max_residual"])
    assert residual[1.0] > 0.1
    assert residual[100.0] == pytest.approx(residual[1.0], rel=1e-12)


def csv_writer_oracle(header, rows):
    """The per-row ``csv.writer`` output that ``write_csv`` must match."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    return buf.getvalue().encode("utf-8")


MAX_FLOAT = 1.7976931348623157e308
# signed zeros and NaNs, infinities, two subnormals and the largest finite floats
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
                  5e-324, -2.2250738585072e-308, MAX_FLOAT, -MAX_FLOAT]


@st.composite
def float_tables(draw):
    # a few values per table, so columns repeat them as grid coordinates do
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6))
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 4))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_cols,
                          max_size=n_rows * n_cols))
    return np.array(cells, dtype=float).reshape(n_rows, n_cols)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=float_tables())
@example(table=np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]]).T)
@example(table=np.array([[-0.0], [0.0], [-0.0]]))
@example(table=np.zeros((0, 3)))
def test_write_csv_matches_csv_writer(tmp_path, table):
    from redbergman.cli import write_csv

    header = [f"c{k}" for k in range(table.shape[1])]
    path = tmp_path / "t.csv"
    write_csv(path, header, table)
    assert path.read_bytes() == csv_writer_oracle(header, table.tolist())


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                    CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS + 7],
                         ids=["0", "1", "B-1", "B", "B+1", "3B+7"])
def test_write_csv_row_blocks_match_csv_writer(tmp_path, n_rows):
    """Tables around the row-block size B: every block boundary keeps each
    row whole and in order.  The last column mixes residual-scale values
    with magnitudes of 1e17 and more, so rows laid out in scientific form
    and rows formatted by format() itself cross the boundaries."""
    from redbergman.cli import write_csv

    rows = np.arange(n_rows)
    rng = np.random.default_rng(n_rows)
    distinct = rng.standard_normal(n_rows)
    grid = np.linspace(-0.9, 0.9, 7)[rows % 7]
    special = np.resize(np.array(SPECIAL_FLOATS), n_rows)
    scientific = np.where(rows % 3, 10.0 ** rng.uniform(-18, -12, n_rows),
                          10.0 ** rng.uniform(17, 19, n_rows)) * np.where(rows % 2, -1.0, 1.0)
    table = np.column_stack((distinct, grid, special, scientific))
    assert len(np.unique(distinct)) == n_rows
    header = ["distinct", "grid", "special", "scientific"]
    path = tmp_path / "t.csv"
    write_csv(path, header, table)
    assert path.read_bytes() == csv_writer_oracle(header, table.tolist())


def format_edge_cases():
    """Floats at the seams of a bulk .17g: powers of ten and their
    neighbours (the switches to scientific form at 1e-4 and 1e17 among
    them), exact decimal ties and their neighbours, subnormals, and the
    signed zeros, infinities, NaNs and largest floats."""
    powers = np.array([float(f"1e{k}") for k in range(-30, 21)])
    # k * 2**-j is k * 5**j * 10**-j exactly: with k odd and k * 5**j of 18
    # digits, its 18th significant digit is a final 5
    rng = np.random.default_rng(5)
    ties = np.array([k * 2.0 ** -j for j in range(3, 26)
                     for k in rng.integers(10 ** 17 // 5 ** j, min(10 ** 18 // 5 ** j, 2 ** 53), 40)
                     if k % 2 and 10 ** 17 <= k * 5 ** j < 10 ** 18])
    subnormals = rng.integers(1, 2 ** 52, 200, dtype=np.uint64).view(np.float64)
    seams = np.concatenate([powers, ties, subnormals, [2.2250738585072009e-308]])
    seams = np.concatenate([seams, np.nextafter(seams, 0), np.nextafter(seams, np.inf)])
    return np.concatenate([seams, -seams, SPECIAL_FLOATS])


def test_format_17g_matches_format():
    """The CSV writer's bulk formatter against format(x, ".17g") on 200,000
    seeded raw bit patterns, half of them with exponents in the range the
    formatter certifies, and on the edge cases above."""
    from redbergman.cli import _format_17g, _round17

    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64 - 1, 100_000, dtype=np.uint64, endpoint=True)
    # sign and mantissa kept, biased exponent for 2**-96 .. 2**59
    exponent = rng.integers(1023 - 96, 1023 + 60, bits.size, dtype=np.uint64)
    certified = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    random = np.concatenate([bits, certified]).view(np.float64)
    values = np.concatenate([random, format_edge_cases()])
    assert _format_17g(values).tolist() == [format(x, ".17g").encode() for x in values.tolist()]
    # the bulk path, not format(), formats nearly every random value in its
    # range; it leaves exact ties, common among floats above 1e10 whose
    # binary fractions end within 17 digits, to format()
    in_range = random[(np.abs(random) >= 1e-28) & (np.abs(random) < 1e17)]
    assert len(in_range) > 100_000 and np.mean(_round17(in_range)[2]) > 0.98


PRINTABLE_ASCII = "".join(map(chr, range(32, 127)))
# outside printable ASCII the two emitters differ: libyaml writes keys of
# 123 to 128 characters as simple keys where PyYAML writes "? " explicit
# keys (an empty key likewise), and the two wrap long escaped strings
# (tabs, line breaks, non-ASCII) at different places
config_keys = st.text(PRINTABLE_ASCII, min_size=1, max_size=122)
config_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                  | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
                  | st.text(PRINTABLE_ASCII, max_size=400))
config_values = st.recursive(
    config_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(config_keys, inner, max_size=4),
    max_leaves=20)
config_mappings = st.dictionaries(config_keys, config_values, max_size=6)
needs_libyaml = pytest.mark.skipif(not getattr(yaml, "__with_libyaml__", False),
                                   reason="PyYAML built without libyaml")


@needs_libyaml
def test_libyaml_loader_matches_pyyaml_on_presets():
    from redbergman.cli import CONFIG_LOADER

    assert CONFIG_LOADER is yaml.CSafeLoader
    for name in preset_names():
        text = preset_text(name)
        assert yaml.load(text, Loader=CONFIG_LOADER) == yaml.safe_load(text), name


@pytest.mark.parametrize("args", [
    ("kernel", "bad.yaml"),
    ("kernel", "good.yaml", "--set", "grid.z=[1"),
], ids=["config-file", "set-value"])
def test_invalid_yaml_is_a_config_error(tmp_path, capsys, args):
    write_cfg(tmp_path, "domain: {type: disc\n", "bad.yaml")
    write_cfg(tmp_path, DISC_KERNEL_CFG, "good.yaml")
    args = [str(tmp_path / a) if a.endswith(".yaml") else a for a in args]
    assert run_cli(tmp_path, *args) == 2
    assert "not valid YAML" in capsys.readouterr().err


@needs_libyaml
def test_libyaml_dumper_matches_pyyaml_on_presets():
    for name in preset_names():
        cfg = yaml.safe_load(preset_text(name))
        assert (yaml.dump(cfg, Dumper=yaml.CSafeDumper, sort_keys=True)
                == yaml.safe_dump(cfg, sort_keys=True)), name


@needs_libyaml
@settings(derandomize=True, max_examples=200, deadline=None)
@given(cfg=config_mappings)
@example(cfg={"k" * 122: {"'#: " * 30: ["x y" * 100, "- '\"a\\ " * 60, "#x: " * 50]}})
@example(cfg={"n": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, None, True]})
def test_libyaml_dumper_matches_pyyaml_on_ascii_configs(cfg):
    """The config echo's bytes do not depend on libyaml for configs whose
    strings are printable ASCII and whose keys have 1 to 122 characters;
    the explicit example's long strings cross the 80-column wrap."""
    assert (yaml.dump(cfg, Dumper=yaml.CSafeDumper, sort_keys=True)
            == yaml.safe_dump(cfg, sort_keys=True))


def test_kernel_and_recover_csv_rows_keep_grid_order(tmp_path, monkeypatch):
    from redbergman import cli

    seen = {}
    real_grid = cli.KernelEvaluator.eval_kernel_grid

    def spy_grid(self, zs, ws):
        out = real_grid(self, zs, ws)
        seen.setdefault("kernel", (zs, ws, out))
        return out

    real_recover = cli.recover_map

    def spy_recover(f, ev, zs, **kw):
        rec = real_recover(f, ev, zs, **kw)
        # drop every third point so the CSV has to skip rows
        valid = rec.valid & (np.arange(len(zs)) % 3 != 0)
        rec = dataclasses.replace(rec, valid=valid, excluded=int(np.sum(~valid)))
        seen["recover"] = (f, zs, rec)
        return rec

    monkeypatch.setattr(cli.KernelEvaluator, "eval_kernel_grid", spy_grid)
    monkeypatch.setattr(cli, "recover_map", spy_recover)

    kcfg = yaml.safe_load(DISC_KERNEL_CFG)
    kcfg["grid"] = {"z": {"kind": "random_disc", "rmax": 0.5, "n": 7},
                    "w": {"kind": "cartesian", "rmax": 0.5, "n": 3}}
    assert run_cli(tmp_path, "kernel", write_cfg(tmp_path, yaml.safe_dump(kcfg), "k.yaml")) == 0
    zs, ws, kgrid = seen["kernel"]
    assert len(zs) != len(ws)
    rows = []
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            k = kgrid[i, j]
            rows.append((float(z.real), float(z.imag), float(w.real),
                         float(w.imag), float(k.real), float(k.imag)))
    want = csv_writer_oracle(["re_z", "im_z", "re_w", "im_w", "re_k", "im_k"], rows)
    assert (only_run_dir(tmp_path, "kernel-") / "kernel.csv").read_bytes() == want

    rcfg = yaml.safe_load(cli.preset_text("recover_blaschke"))
    del rcfg["run"]
    rcfg.update(quadrature={"n_radial": 24, "n_angular": 96},
                grid={"z": {"kind": "cartesian", "rmax": 0.6, "n": 5}})
    rcfg["basis"]["degree"] = 24
    assert run_cli(tmp_path, "recover", write_cfg(tmp_path, yaml.safe_dump(rcfg), "r.yaml")) == 0
    f, zs, rec = seen["recover"]
    fz = f(zs)
    err = np.abs(rec.map_estimate - fz)
    rows = []
    for i, z in enumerate(zs):
        if not rec.valid[i]:
            continue
        g = rec.map_estimate[i]
        rows.append((float(z.real), float(z.imag), float(g.real), float(g.imag),
                     float(fz[i].real), float(fz[i].imag), float(err[i])))
    assert 0 < len(rows) < len(zs)
    want = csv_writer_oracle(["re_z", "im_z", "re_ghat", "im_ghat", "re_f", "im_f", "abs_err"],
                             rows)
    assert (only_run_dir(tmp_path, "recover-") / "recover.csv").read_bytes() == want


def test_verify_outputs_survive_python_O(tmp_path):
    from redbergman import cli

    cfg = yaml.safe_load(cli.preset_text("proper_square_disc"))
    cfg["output"] = {"csv": True}
    path = write_cfg(tmp_path, yaml.safe_dump(cfg))
    src = os.path.dirname(os.path.dirname(redbergman.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # the assert fails the run unless -O strips assertions
    script = ("import sys; from redbergman.cli import main; "
              "assert False, 'assertions are on'; "
              "sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-O", "-c", script, "--output-dir",
                           str(tmp_path / "opt"), "verify", path],
                          env=dict(os.environ, PYTHONPATH=pythonpath),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["--output-dir", str(tmp_path / "in"), "verify", path]) == 0
    (run_dir,) = os.listdir(tmp_path / "in")
    for name in ("summary.txt", "samples.csv"):
        got = (tmp_path / "opt" / run_dir / name).read_bytes()
        assert got == (tmp_path / "in" / run_dir / name).read_bytes(), name
