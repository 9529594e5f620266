"""The benchmark tracer finds every function and method it wraps.

``perfbench/tracer.py`` looks each target up by name on the module or
class that defines it and refuses a subclass override, so a rename,
move or override in the library breaks the traced benchmark run.  These
tests install and remove the tracer, and run a map and a correspondence
``verify`` and a multi-block dense Gram under it, to catch that in the
fast suite.
"""

from pathlib import Path

import pytest
import yaml

from conftest import generic_ellipse_config
from redbergman import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_tracer_installs_and_uninstalls(tracer):
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


@pytest.mark.parametrize("preset", ["proper_square_disc", "corr_sqrt_disc"])
def test_traced_verify_sweeps_once(tmp_path, tracer, preset):
    """verify_proper is an alias of verify_correspondence, so the tracer
    wraps the one sweep under both names; a run still counts one sweep."""
    cfg = yaml.safe_load(cli.preset_text(preset))
    command = cfg.pop("run")
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.execute(command, cfg, str(tmp_path)) == 0
    finally:
        t.uninstall()
    assert not t.failed
    assert t.calls["transform.sweep"] == 1
    assert t.counts["transform.samples"] > 0
    assert cli.verify_correspondence.__module__ == "redbergman.transform"
    assert not hasattr(cli.verify_correspondence, "__wrapped__")


def test_traced_dense_gram_keeps_spans_nested(tmp_path, tracer):
    """The dense Gram's node blocks run on pool threads, which call nothing
    traced: the tracer's one span stack sees one Gram span with no child
    span, and every span lies inside its parent's interval."""
    command, cfg = generic_ellipse_config()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.execute(command, cfg, str(tmp_path)) == 0
    finally:
        t.uninstall()
    assert not t.failed
    assert t.calls["kernel.gram"] == 1
    (gram,) = [i for i, span in enumerate(t.spans) if span[0] == "kernel.gram"]
    assert not [span[0] for span in t.spans if span[3] == gram]
    for name, start, end, parent in t.spans:
        assert end is not None and start <= end, name
        if parent is not None:
            _, parent_start, parent_end, _ = t.spans[parent]
            assert parent_start <= start and end <= parent_end, name
