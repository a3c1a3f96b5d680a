"""The benchmark tracer wraps every binding of a traced torcont function.

``perfbench/tracing.py`` installs its spans by replacing module attributes;
a traced run fails when a torcont module binds a traced function by a name
the tracer does not list (``Tracer.uncovered``).  This check runs the same
installation in-process, so such a binding fails here in seconds.  The
traced ``lu_factor`` returns a proxy of the factor; a factor attribute the
proxy does not forward fails here too.  The benchmark's per-layer step and
localization counts come from the span that encloses each correction; a
localizer called around its traced binding would move its corrections to
the walk's steps, which the attribution check catches.
"""

import importlib
import pkgutil
from pathlib import Path

import numpy as np

import torcont
from torcont import colloc, contin, linsys, odesys, po
from test_contin import pitchfork_problem
from util_systems import OM, langford_circle_traj

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def make_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing").Tracer()


def test_tracer_covers_every_binding(monkeypatch):
    for mod in pkgutil.iter_modules(torcont.__path__):
        importlib.import_module(f"torcont.{mod.name}")
    tracer = make_tracer(monkeypatch)
    try:
        tracer.install()
        assert tracer.uncovered() == []
    finally:
        tracer.uninstall()


def test_traced_factor_reads_as_the_plain_one(monkeypatch):
    vf = odesys.builtin_langford()
    orbit = po.solve_po(vf, langford_circle_traj(colloc.build_mesh(5, 3), 0.6),
                        np.array([OM, 0.6, 0.0]))
    problem, u0 = po.continuation_problem(vf, orbit, ["rho"])
    rng = np.random.default_rng(4)
    B = linsys.bordered_matrix(problem.jacobian(u0), rng.standard_normal(u0.size))
    rhs = rng.standard_normal(u0.size)
    plain = linsys.lu_factor(B)
    tracer = make_tracer(monkeypatch)
    try:
        tracer.install()
        traced = linsys.lu_factor(B)
        sign_log = linsys.det_sign_log(traced)
        x = traced.solve(rhs)
        nnz = traced.nnz
    finally:
        tracer.uninstall()
    assert type(traced).__name__ == "_TimedFactor"
    assert sign_log == linsys.det_sign_log(plain)
    assert np.array_equal(x, plain.solve(rhs))
    assert nnz == plain.nnz
    assert tracer.span_table()["linsys.lu_solve"][0] == 1


def test_corrections_are_attributed_to_their_caller(monkeypatch):
    # the trivial branch x = 0 of x' = lam x - x^3 from lam = -1: an event at
    # lam = -0.5, the branch point at 0 and the bound lam <= 0.5
    problem = pitchfork_problem(bounds={"lam": (None, 0.5)},
                                events=[contin.EventSpec("ZZ", lambda u: u[1] + 0.5)])
    state = contin.ContinuationState(h=0.12, h_max=0.25, pt_max=30, bi_direct=False)
    tracer = make_tracer(monkeypatch)
    try:
        tracer.install()
        branch = contin.run(problem, np.array([0.0, -1.0]), state)
    finally:
        tracer.uninstall()
    assert [pt.ptype for pt in branch.points if pt.ptype != "RO"] == ["EP", "ZZ", "BP", "EP"]
    assert branch.termination == "bound lam=0.5"
    parents = {tracer.parent_name(rec) for rec in tracer.spans if rec[0] == "contin.correct"}
    assert parents == {"contin.run", "contin.walk", "contin.locate_event",
                       "contin.detect_branch_point"}
    # one correction per step: every point but the start and the two located ones
    steps = len(branch.points) - 3
    assert tracer.counts["contin.step_attempts"] == tracer.counts["contin.step_converged"] == steps
    assert tracer.counts["contin.locate_event.corrections"] > 0
    assert tracer.counts["contin.detect_branch_point.corrections"] > 0
