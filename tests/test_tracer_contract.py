"""The benchmark tracer finds every function and method it wraps.

``perfbench/tracer.py`` looks each target up by name on the module or
class that defines it and refuses a subclass override, so a rename,
move or override in the library breaks the traced benchmark run.  This
test installs and removes the tracer to catch that in the fast suite.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
