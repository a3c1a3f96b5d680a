"""The benchmark tracer wraps every binding of a traced torcont function.

``perfbench/tracing.py`` installs its spans by replacing module attributes;
a traced run fails when a torcont module binds a traced function by a name
the tracer does not list (``Tracer.uncovered``).  This check runs the same
installation in-process, so such a binding fails here in seconds.
"""

import importlib
import pkgutil
from pathlib import Path

import torcont

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_covers_every_binding(monkeypatch):
    for mod in pkgutil.iter_modules(torcont.__path__):
        importlib.import_module(f"torcont.{mod.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        assert tracer.uncovered() == []
    finally:
        tracer.uninstall()
