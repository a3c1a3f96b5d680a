"""The continuation adapters of orbits and tori on the shared builder.

Both kinds go through ``contin.collocation_problem``: these tests pin its
column rule (states, scalars, every parameter name; ``u`` keeps the active
ones), the monitor order, the start pin, the released-name check, and that
the problem's closures reach the kind's residual and Jacobian functions
through their module bindings at call time.
"""

import numpy as np
import pytest

from torcont import colloc, contin, odesys, po, torus
from torcont.errors import ConfigError
from util_systems import decoupled_torus, langford_circle_traj


def orbit_case():
    vf = odesys.builtin_langford()
    p = np.array([3.5, 0.8, 0.0])
    start = po.solve_po(vf, langford_circle_traj(colloc.build_mesh(8, 4), 0.8), p)

    def read(orbit):  # states, then every monitored name and its value
        return orbit.traj.x_bp, dict(zip(vf.param_names, orbit.p), T=orbit.period)
    return po, vf, start, ["rho", "eps"], read


def torus_case():
    vf, start = decoupled_torus(ntst=5, degree=3, N=2)

    def read(sol):
        return sol.x_seg, dict(zip(vf.param_names, sol.p), om1=sol.om1, om2=sol.om2,
                               varrho=sol.varrho, T0=sol.T0, T=sol.T)
    return torus, vf, start, ["w1", "om1", "om2", "varrho", "gam"], read


CASES = {"orbit": orbit_case, "torus": torus_case}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]()


def test_builder_contract(case):
    kind, vf, start, released, read = case
    problem, u0 = kind.continuation_problem(vf, start, released)
    x0, values = read(start)
    params, scalars = kind.names(vf)
    X, S = x0.size, x0.size + len(scalars)

    # u = [states, scalars, active names]; one active name for orbits, four for tori
    n_active = 1 if kind is po else 4
    assert problem.active == released[:n_active]
    assert problem.n_unknowns == u0.size == S + n_active
    assert np.array_equal(u0[:X], x0.ravel())
    assert list(u0[X:]) == [values[name] for name in scalars + problem.active]

    # embed(u0) reproduces the start under the start's section
    sol = problem.embed(u0)
    x, vals = read(sol)
    assert np.array_equal(x, x0) and vals == values
    assert sol.reference is start.reference

    # monitors: parameter names, then scalars
    assert problem.monitor_names == params + scalars
    assert list(problem.monitors(u0)) == problem.monitor_names
    assert problem.monitors(u0) == values

    # the start correction holds the first active column
    assert problem.start_border is None and problem.start_tangent is None
    border = contin._initial_border(problem)
    assert border[S] == 1.0 and np.count_nonzero(border) == 1


@pytest.mark.parametrize("extra", [["nope"], None], ids=["unknown", "duplicate"])
def test_released_names_checked(case, extra):
    kind, vf, start, released, _ = case
    with pytest.raises(ConfigError):
        kind.continuation_problem(vf, start, released + (extra or released[:1]))


def counting(monkeypatch, module, attr, calls):
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


def test_closures_bind_late(case, monkeypatch):
    """A wrapper installed after the problem is built sees every call."""
    kind, vf, start, released, _ = case
    problem, u0 = kind.continuation_problem(vf, start, released)
    names = (["po_residual", "po_jacobian", "floquet"] if kind is po
             else ["torus_residual", "torus_jacobian"])
    calls = {}
    for attr in names:
        counting(monkeypatch, kind, attr, calls)
    problem.residual(u0)
    problem.jacobian(u0)
    problem.jacobian(u0)
    assert calls == {names[0]: 1, names[1]: 2}
    for event in problem.events:  # the orbit's TR test
        event.fn(u0)
    assert calls.get("floquet", 0) == len(problem.events) == (kind is po)
