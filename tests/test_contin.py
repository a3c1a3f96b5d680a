"""Continuation engine on algebraic normal forms and textbook manifolds."""

import numpy as np
import pytest
from scipy.optimize import brentq

from torcont import contin, linsys
from torcont.errors import BranchPointError, ConfigError, ConvergenceError
from torcont.linsys import bordered_matrix, det_sign_log, lu_factor


def algebraic_problem(residual, jac, names, released=None, **kw):
    names = list(names)
    released = released if released is not None else [names[-1]]
    return contin.ContinuationProblem(
        n_unknowns=len(names),
        residual=lambda u: np.atleast_1d(residual(u)),
        jacobian=lambda u: np.atleast_2d(jac(u)),
        monitors=lambda u: dict(zip(names, (float(v) for v in u))),
        monitor_names=names,
        released=released,
        active=released,
        embed=lambda u: u,
        kind="algebraic",
        **kw,
    )


def circle_problem(**kw):
    return algebraic_problem(
        lambda u: u[0] ** 2 + u[1] ** 2 - 1.0,
        lambda u: [[2 * u[0], 2 * u[1]]],
        names=["x", "y"],
        **kw,
    )


class TestCircle:
    def test_traverses_full_circle(self):
        problem = circle_problem()
        state = contin.ContinuationState(h=0.1, h_min=1e-3, h_max=0.2, pt_max=100,
                                         bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        pts = np.array([pt.u for pt in branch.points])
        assert np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1).max() < 1e-8
        angles = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
        swept = np.abs(angles - angles[0]).max()
        assert swept > 2 * np.pi  # went all the way around
        iters = [pt.corrector_iters for pt in branch.points if pt.ptype == "RO"]
        assert max(iters) <= 4
        # the released parameter y reverses at the circle's top and bottom:
        # folds are annotated (not localized, not labeled)
        folds = [ev for ev in branch.events if ev["type"] == "FO"]
        assert len(folds) >= 2
        assert not branch.by_type("FO")  # no bd rows for folds

    def test_deterministic_repeat(self):
        runs = []
        for _ in range(2):
            problem = circle_problem()
            state = contin.ContinuationState(h=0.07, h_max=0.15, pt_max=40, bi_direct=True)
            branch = contin.run(problem, np.array([1.0, 0.0]), state)
            runs.append(np.array([pt.u for pt in branch.points]))
        assert runs[0].shape == runs[1].shape
        assert np.array_equal(runs[0], runs[1])

    def test_fold_names_a_label_of_its_own_direction(self):
        # from just right of the circle's top the second direction crosses
        # the fold in y on its first step, before it has written a label:
        # the fold is near the start (label 1), not the first direction's end
        state = contin.ContinuationState(h=0.1, h_min=1e-3, h_max=0.1, pt_max=3, bi_direct=True)
        branch = contin.run(circle_problem(), np.array([np.sin(0.05), np.cos(0.05)]), state)
        assert [pt.ptype for pt in branch.points] == ["EP", "RO", "RO", "EP", "RO", "RO", "EP"]
        assert branch.points[3].u[0] > 0.0 > branch.points[4].u[0]
        assert branch.events == [{"type": "FO", "status": "annotated", "monitor": "y",
                                  "near_label": 1}]

    def test_bound_terminates_with_ep_at_bound(self):
        problem = circle_problem(bounds={"y": (None, 0.5)})
        state = contin.ContinuationState(h=0.1, h_max=0.15, pt_max=100, bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        last = branch.points[-1]
        assert branch.termination == "bound y=0.5"
        assert last.ptype == "EP"
        assert abs(last.monitors["y"] - 0.5) < 1e-7

    def test_bound_on_unknown_monitor_rejected(self):
        # a misspelt bound name would never end the run
        problem = circle_problem(bounds={"yy": (None, 0.5)})
        with pytest.raises(ConfigError, match=r"unknown monitor\(s\) yy; known: x, y"):
            contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState())

    def test_over_determined_rejected_before_newton(self):
        calls = {"n": 0}

        def res(u):
            calls["n"] += 1
            return np.array([u[0] ** 2 + u[1] ** 2 - 1.0, u[0] - 0.5])

        problem = algebraic_problem(
            lambda u: res(u),
            lambda u: [[2 * u[0], 2 * u[1]], [1.0, 0.0]],
            names=["x", "y"],
            released=[],
        )
        with pytest.raises(ConfigError, match="over-determined"):
            contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState())

    # a start vector that is zero, not finite or not one entry per unknown
    # is refused before any correction, naming its field
    @pytest.mark.parametrize("field,vec", [
        ("start_border", [0.0, 0.0]), ("start_border", [np.nan, 1.0]),
        ("start_border", [1.0, 0.0, 0.0]), ("start_tangent", [0.0, 0.0]),
        ("start_tangent", [np.nan, 1.0]), ("start_tangent", [1.0, 0.0, 0.0]),
    ], ids=["zero-border", "nan-border", "long-border", "zero-tangent", "nan-tangent",
            "long-tangent"])
    def test_bad_start_vector_rejected(self, field, vec):
        problem = circle_problem(**{field: np.array(vec)})
        with pytest.raises(ConfigError, match=field):
            contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState())

    def test_start_failure_reported(self):
        problem = algebraic_problem(
            lambda u: u[0] ** 2 + u[1] ** 2 + 1.0,  # empty zero set
            lambda u: [[2 * u[0], 2 * u[1]]],
            names=["x", "y"],
        )
        with pytest.raises(ConvergenceError, match="initial correction"):
            contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState())


class TestWalkTests:
    """Each test of the walk keeps its own crossing rule and its own records."""

    STATE = dict(h=0.1, h_min=1e-3, h_max=0.2, pt_max=40, bi_direct=False)

    def test_start_on_a_bound_edge_ends_there(self):
        # the first stage of the vdp chain in small: the start lies on the
        # edge of its own bound and outside the interval of the second one
        problem = circle_problem(bounds={"y": (-0.5, 0.0), "x": (2.0, 3.0)})
        branch = contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState(**self.STATE))
        assert branch.termination == "bound y=0.0"
        assert [pt.ptype for pt in branch.points] == ["EP", "EP"]
        assert np.array_equal(branch.points[1].u, branch.points[0].u)  # not localized
        assert branch.events == []

    def test_localization_takes_the_bracket_values_from_the_walk(self):
        # the walk has evaluated the event at both bracket ends: localizing
        # the crossing evaluates it only at trial points
        calls = {}

        def counted(u):
            calls[u.tobytes()] = calls.get(u.tobytes(), 0) + 1
            return u[1] - 0.37

        problem = circle_problem()
        problem.events = [contin.EventSpec("ZZ", counted)]
        branch = contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState(**self.STATE))
        located = branch.by_type("ZZ")
        assert located and all(abs(pt.u[1] - 0.37) < contin.EVENT_VALUE_TOL for pt in located)
        assert max(calls.values()) == 1
        accepted = [pt.u.tobytes() for pt in branch.points if pt.ptype != "ZZ"]
        assert all(u in calls for u in accepted)  # each accepted point once, by the walk

    def test_entering_a_bound_interval_does_not_end_the_direction(self):
        # y climbs into [0.5, 2] from 0 and leaves it at 0.5 past the top
        problem = circle_problem(bounds={"y": (0.5, 2.0)})
        branch = contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState(**self.STATE))
        assert branch.termination == "bound y=0.5"
        last = branch.points[-1]
        assert last.ptype == "EP" and last.u[0] < 0.0 and abs(last.u[1] - 0.5) < 1e-7
        assert max(pt.u[1] for pt in branch.points) > 0.9

    def test_unlocated_bound_ends_on_the_step_end(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ConvergenceError("injected localization failure")

        monkeypatch.setattr(contin, "locate_event", failing)
        problem = circle_problem(bounds={"y": (None, 0.5)})
        branch = contin.run(problem, np.array([1.0, 0.0]), contin.ContinuationState(**self.STATE))
        assert branch.termination == "bound y=0.5"
        (ev,) = branch.events
        assert list(ev) == ["type", "status", "monitor", "reason", "bracket"]
        assert (ev["type"], ev["status"], ev["monitor"], ev["reason"]) == (
            "EP", "unlocated", "y", "injected localization failure")
        u_a, u_b = ev["bracket"]
        assert [pt.ptype for pt in branch.points[-2:]] == ["RO", "EP"]
        assert np.array_equal(branch.points[-2].u, u_a) and np.array_equal(branch.points[-1].u, u_b)
        assert u_a[1] < 0.5 < u_b[1]

    @pytest.mark.parametrize("fn", [lambda u: u[1], lambda u: None if u[1] == 0.0 else u[1]],
                             ids=["zero", "none"])
    def test_event_without_a_signed_earlier_value_is_not_localized(self, monkeypatch, fn):
        # y is exactly 0 at the start (the zero case's value; None in the
        # other) and positive after it
        calls = []
        monkeypatch.setattr(contin, "locate_event", lambda *args, **kwargs: calls.append(args))
        problem = circle_problem()
        problem.events = [contin.EventSpec("ZZ", fn)]
        state = contin.ContinuationState(**dict(self.STATE, pt_max=3))
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        assert calls == [] and branch.events == []
        assert [pt.ptype for pt in branch.points] == ["EP", "RO", "RO", "EP"]

    def test_event_and_fold_of_one_step_are_recorded_in_test_order(self):
        state = contin.ContinuationState(**dict(self.STATE, pt_max=14))
        plain = contin.run(circle_problem(), np.array([1.0, 0.0]), state)
        # the step over the circle's top, where y starts to fall: an event
        # placed inside it is located on the step that annotates the fold
        a, b = next((a, b) for a, b in zip(plain.points, plain.points[1:]) if b.u[1] < a.u[1])
        c = 0.5 * (a.u[0] + b.u[0])
        problem = circle_problem()
        problem.events = [contin.EventSpec("ZZ", lambda u: u[0] - c)]
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        (pt,) = branch.by_type("ZZ")
        assert abs(pt.u[0] - c) < contin.EVENT_VALUE_TOL
        assert [list(ev.items()) for ev in branch.events] == [
            [("type", "ZZ"), ("status", "located"), ("label", pt.label)],
            [("type", "FO"), ("status", "annotated"), ("monitor", "y"), ("near_label", pt.label)],
        ]


def pitchfork_problem(**kw):
    # equilibria of x' = lam x - x^3; unknowns (x, lam), released lam
    return algebraic_problem(
        lambda u: u[1] * u[0] - u[0] ** 3,
        lambda u: [[u[1] - 3 * u[0] ** 2, u[0]]],
        names=["x", "lam"],
        detect_bp=True,
        **kw,
    )


def transcritical_problem(**kw):
    return algebraic_problem(
        lambda u: u[1] * u[0] - u[0] ** 2,
        lambda u: [[u[1] - 2 * u[0], u[0]]],
        names=["x", "lam"],
        detect_bp=True,
        **kw,
    )


def curved_pitchfork_problem(**kw):
    # x' = lam y - y^3 with y = x - sin(lam): a pitchfork at the origin whose
    # trivial branch x = sin(lam) is curved, so no chord lies on it
    def y(u):
        return u[0] - np.sin(u[1])

    return algebraic_problem(
        lambda u: u[1] * y(u) - y(u) ** 3,
        lambda u: [[u[1] - 3 * y(u) ** 2, y(u) - (u[1] - 3 * y(u) ** 2) * np.cos(u[1])]],
        names=["x", "lam"],
        **kw,
    )


def counted_factorizations(monkeypatch):
    """A list that grows by one entry per ``lu_factor`` call, at the
    ``contin`` and the ``linsys`` binding (Newton and null-space tangent)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(contin, "lu_factor", counted)
    monkeypatch.setattr(linsys, "lu_factor", counted)
    return calls


def singular_factorization(monkeypatch, at):
    """Make the ``at``-th ``lu_factor`` call (counted as by
    :func:`counted_factorizations`) fail as on an exactly singular system."""
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == at:
            raise ConvergenceError("linear solve failed: injected singular system")
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(contin, "lu_factor", failing)
    monkeypatch.setattr(linsys, "lu_factor", failing)


class TestBranchPoints:
    @pytest.mark.parametrize("make,loc", [(pitchfork_problem, 0.0),
                                          (transcritical_problem, 0.0)])
    def test_bp_detected_at_origin(self, make, loc):
        problem = make()
        state = contin.ContinuationState(h=0.12, h_max=0.25, pt_max=30, bi_direct=False)
        branch = contin.run(problem, np.array([0.0, -1.0]), state)
        bps = branch.by_type("BP")
        assert len(bps) >= 1
        assert abs(bps[0].monitors["x"] - 0.0) < 1e-6
        assert abs(bps[0].monitors["lam"] - loc) < 1e-6

    def test_pitchfork_switch_leaves_trivial_branch(self):
        problem = pitchfork_problem()
        state = contin.ContinuationState(h=0.12, h_max=0.25, pt_max=30, bi_direct=False)
        branch = contin.run(problem, np.array([0.0, -1.0]), state)
        bp = branch.by_type("BP")[0]
        psi = contin.switch_branch(problem, bp.u, bp.tangent)
        assert abs(psi @ bp.tangent) < 1e-8
        state2 = contin.ContinuationState(h=0.05, h_max=0.1, pt_max=10, bi_direct=False)
        problem.start_tangent = psi
        branch2 = contin.run(problem, bp.u, state2)
        xs = [abs(pt.monitors["x"]) for pt in branch2.points[1:]]
        assert max(xs) > 1e-2  # immediately off the trivial branch

    def test_secant_locates_curved_pitchfork_in_few_factorizations(self, monkeypatch):
        problem = curved_pitchfork_problem()
        state = contin.ContinuationState(h=0.12, h_max=0.25, pt_max=30, bi_direct=False)
        branch = contin.run(problem, np.array([np.sin(-1.0), -1.0]), state)
        a, b = next((a, b) for a, b in zip(branch.points, branch.points[1:])
                    if a.u[1] < 0.0 < b.u[1])
        ends = [det_sign_log(lu_factor(bordered_matrix(problem.jacobian(pt.u), a.tangent)))
                for pt in (a, b)]
        assert ends[0][0] != ends[1][0]
        calls = counted_factorizations(monkeypatch)
        u_bp, evaluations = contin.detect_branch_point(
            problem, a.u, b.u, a.tangent, ends[0][0], ends[1][0], ends[0][1], ends[1][1])
        # the residual tolerance 1e-8 of a quadratic normal form fixes the
        # point only to about its square root
        assert np.abs(u_bp).max() < 1e-4
        assert np.abs(problem.residual(u_bp)).max() < contin.CORRECTOR_TOL
        # bisection down to the 1e-8 bracket would take over 20 corrections
        assert evaluations <= 6 and len(calls) <= 8

    # on the line x = lam every prediction is already a solution: the start
    # correction reads no determinant and factors nothing, so call 1 factors
    # the start tangent's bordered system, call 2 the start of the walk and
    # call 3 the first step's point, which converged without an update
    @pytest.mark.parametrize("at,where", [(2, "start point"), (3, "accepted point")],
                             ids=["start point", "accepted point"])
    def test_skipped_bp_test_is_recorded(self, monkeypatch, at, where):
        problem = algebraic_problem(lambda u: u[0] - u[1], lambda u: [[1.0, -1.0]],
                                    names=["x", "lam"], detect_bp=True)
        singular_factorization(monkeypatch, at)
        state = contin.ContinuationState(h=0.1, h_max=0.1, pt_max=4, bi_direct=False)
        branch = contin.run(problem, np.zeros(2), state)
        assert len(branch.points) == 5
        skipped = [ev for ev in branch.events if ev["status"] == "skipped"]
        assert len(skipped) == 1
        assert skipped[0]["type"] == "BP" and skipped[0]["near_label"] == 1
        assert skipped[0]["reason"].startswith(where)

    # on the same line each point is factored once, for its determinant: the
    # start of each direction and every accepted point, besides the start
    # tangent's factor
    @pytest.mark.parametrize("bi_direct,count", [(False, 6), (True, 11)],
                             ids=["one-way", "two-way"])
    def test_point_without_an_update_is_factored_once(self, monkeypatch, bi_direct, count):
        problem = algebraic_problem(lambda u: u[0] - u[1], lambda u: [[1.0, -1.0]],
                                    names=["x", "lam"], detect_bp=True)
        calls = counted_factorizations(monkeypatch)
        state = contin.ContinuationState(h=0.1, h_max=0.1, pt_max=4, bi_direct=bi_direct)
        branch = contin.run(problem, np.zeros(2), state)
        assert [pt.corrector_iters for pt in branch.points] == [0] * (1 + 4 * (1 + bi_direct))
        assert len(calls) == count

    def test_switch_at_an_exact_branch_point_shifts_once(self, monkeypatch):
        # at the origin J = 0, so [J; t^T] is exactly singular: the first
        # solve finds it and one shifted factor serves the inverse iteration
        problem = pitchfork_problem()
        calls = counted_factorizations(monkeypatch)
        psi = contin.switch_branch(problem, np.zeros(2), np.array([0.0, 1.0]))
        assert np.abs(np.abs(psi) - [1.0, 0.0]).max() < 1e-12
        assert len(calls) == 2
        # the BP test reads no determinant there and keeps the reason
        det = contin._det(problem, np.zeros(2), np.array([0.0, 1.0]))
        assert isinstance(det, ConvergenceError) and "exactly singular" in str(det)

    def test_switch_requires_two_dimensional_null_space(self):
        problem = circle_problem()
        u = np.array([1.0, 0.0])
        with pytest.raises(BranchPointError):
            contin.switch_branch(problem, u, np.array([0.0, 1.0]))


def bordered_arctan_correction():
    problem = algebraic_problem(
        lambda u: np.arctan(u[0] - u[1]),
        lambda u: [[1 / (1 + (u[0] - u[1]) ** 2), -1 / (1 + (u[0] - u[1]) ** 2)]],
        names=["x", "lam"],
    )
    u0 = np.array([1.5, 0.0])
    contin._correct(problem, u0, np.array([0.0, 1.0]), u0)


def square_arctan_newton():
    linsys.newton_square(np.arctan, lambda x: np.array([[1 / (1 + x[0] ** 2)]]),
                         np.array([1.5]), contin.CORRECTOR_TOL, contin.CORRECTOR_MAX_ITER)


class TestCorrector:
    @pytest.mark.parametrize("newton", [bordered_arctan_correction, square_arctan_newton],
                             ids=["bordered", "square"])
    def test_correction_that_stops_contracting_ends_early(self, monkeypatch, newton):
        # Newton on arctan diverges from |x - lam| = 1.5 (x = 1.5 in the
        # square case): every update makes the residual larger, so the
        # second one already ends the iteration
        calls = counted_factorizations(monkeypatch)
        with pytest.raises(ConvergenceError, match="stopped contracting after 2 iterations"):
            newton()
        assert len(calls) == 2 < contin.CORRECTOR_MAX_ITER


class TestLocateEvent:
    def test_fold_normal_form_matches_exact_crossing(self):
        # lam = x^2 around the fold at the origin; the event x = c crosses at
        # (c, c^2)
        problem = algebraic_problem(lambda u: u[1] - u[0] ** 2,
                                    lambda u: [[-2 * u[0], 1.0]], names=["x", "lam"])
        state = contin.ContinuationState(h=0.1, h_max=0.2, pt_max=20, bi_direct=False)
        problem.start_tangent = np.array([1.0, -2.0])  # towards the fold
        branch = contin.run(problem, np.array([-1.0, 1.0]), state)
        c = 0.3183
        a, b = next((a, b) for a, b in zip(branch.points, branch.points[1:])
                    if a.u[0] < c < b.u[0])
        u_loc, val, _ = contin.locate_event(problem, a.u, b.u, a.tangent, lambda u: u[0] - c)
        assert abs(val) < contin.EVENT_VALUE_TOL
        assert abs(u_loc[0] - c) < contin.EVENT_VALUE_TOL
        assert abs(u_loc[1] - c ** 2) < contin.EVENT_VALUE_TOL

    def test_linear_crossing_converges_fast(self):
        problem = circle_problem()
        state = contin.ContinuationState(h=0.05, h_max=0.1, pt_max=60, bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        pts = branch.points
        target = 0.37

        def test_fn(u):
            return u[1] - target

        for a, b in zip(pts, pts[1:]):
            va, vb = test_fn(a.u), test_fn(b.u)
            if va * vb < 0:
                u_loc, val, iters = contin.locate_event(problem, a.u, b.u, a.tangent, test_fn)
                assert iters <= 40
                assert abs(u_loc[1] - target) < 1e-6
                break
        else:
            pytest.fail("no bracket found")

    def test_monotone_cubic_matches_scalar_root_oracle(self):
        problem = circle_problem()
        state = contin.ContinuationState(h=0.05, h_max=0.1, pt_max=60, bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        pts = branch.points
        c = 0.4142

        def g(y):
            return (y - c) ** 3 + 0.2 * (y - c)

        def test_fn(u):
            return g(u[1])

        root = brentq(g, -1, 1, xtol=1e-14)
        for a, b in zip(pts, pts[1:]):
            if test_fn(a.u) * test_fn(b.u) < 0:
                u_loc, _, _ = contin.locate_event(
                    problem, a.u, b.u, a.tangent, test_fn,
                    value_tol=1e-14, bracket_tol=1e-11,
                )
                assert abs(u_loc[1] - root) < 1e-8
                break
        else:
            pytest.fail("no bracket found")

    def test_requires_sign_change(self):
        problem = circle_problem()
        with pytest.raises(ConvergenceError):
            contin.locate_event(problem, np.array([1.0, 0.0]), np.array([0.9, 0.43]),
                                np.array([0.0, 1.0]), lambda u: 1.0)

    def test_bracket_lost_when_test_function_vanishes(self):
        # a test function that becomes undefined near the crossing: bisection
        # must report the lost bracket instead of fabricating a root
        problem = circle_problem()
        state = contin.ContinuationState(h=0.05, h_max=0.1, pt_max=60, bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        pts = branch.points

        def test_fn(u):
            if 0.365 < u[1] < 0.375:
                return None  # pair disappears inside the bracket
            return u[1] - 0.37

        for a, b in zip(pts, pts[1:]):
            va, vb = test_fn(a.u), test_fn(b.u)
            if va is not None and vb is not None and va * vb < 0:
                with pytest.raises(ConvergenceError, match="bracket lost"):
                    contin.locate_event(problem, a.u, b.u, a.tangent, test_fn)
                break
        else:
            pytest.fail("no usable bracket found")

    def test_run_records_unlocated_event_with_bracket(self):
        problem = circle_problem()
        problem.events = [contin.EventSpec(
            name="ZZ",
            fn=lambda u: None if 0.365 < u[1] < 0.375 else u[1] - 0.37,
        )]
        state = contin.ContinuationState(h=0.05, h_max=0.1, pt_max=60, bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        unloc = [ev for ev in branch.events
                 if ev["type"] == "ZZ" and ev["status"] == "unlocated"]
        assert unloc
        ua, ub = unloc[0]["bracket"]
        assert ua.shape == (2,) and ub.shape == (2,)
        assert not branch.by_type("ZZ")  # nothing fabricated in the bd rows


class TestStepControl:
    def test_fast_corrector_doubles_step_until_h_max(self):
        problem = circle_problem()
        state = contin.ContinuationState(h=0.01, h_min=1e-3, h_max=0.5, pt_max=25,
                                         bi_direct=False)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        pts = branch.points
        gaps = [np.linalg.norm(b.u - a.u) for a, b in zip(pts, pts[1:])]
        assert max(gaps) > 0.2  # grew well beyond the initial h
        assert all(g <= 2 * 0.5 + 1e-9 for g in gaps)

    def test_failure_at_h_min_keeps_the_corrector_message(self):
        # y = x up to x = 1; beyond it F = 1 has no zeros and a zero Jacobian row
        problem = algebraic_problem(
            lambda u: u[1] - u[0] if u[0] < 1.0 else 1.0,
            lambda u: [[-1.0, 1.0]] if u[0] < 1.0 else [[0.0, 0.0]],
            names=["x", "y"],
        )
        state = contin.ContinuationState(h=0.1, h_min=1e-3, h_max=0.5, pt_max=200,
                                         bi_direct=False)
        branch = contin.run(problem, np.array([0.0, 0.0]), state)
        assert branch.termination == ("corrector failure at h_min: linear solve failed: the "
                                      "reduced 2x2 system is exactly singular (zero pivot 2)")
        last = branch.points[-1]
        assert last.ptype == "EP" and 1.0 - 1e-3 < last.u[0] < 1.0

    def test_consecutive_points_bounded_by_h_max(self):
        problem = circle_problem()
        state = contin.ContinuationState(h=0.1, h_max=0.3, pt_max=50, bi_direct=True)
        branch = contin.run(problem, np.array([1.0, 0.0]), state)
        # manifold consistency: every accepted point satisfies the residual
        for pt in branch.points:
            assert abs(problem.residual(pt.u)).max() < 1e-8


def recorded_corrections(monkeypatch, reject=()):
    """A list of (u_first, border, anchor, u) per ``contin._correct`` call;
    the calls numbered in ``reject`` (from 1) fail as a rejected correction."""
    calls = []
    correct = contin._correct

    def recorded(problem, u_first, border, anchor, *args, **kwargs):
        calls.append((u_first.copy(), border.copy(), anchor.copy(), None))
        if len(calls) in reject:
            raise ConvergenceError("injected rejection")
        out = correct(problem, u_first, border, anchor, *args, **kwargs)
        calls[-1] = calls[-1][:3] + (out[0],)
        return out

    monkeypatch.setattr(contin, "_correct", recorded)
    return calls


class TestNewtonStart:
    STATE = dict(h=0.1, h_min=1e-3, h_max=0.3, pt_max=40, bi_direct=False)

    def test_extrapolated_start_solves_the_secant_step(self, monkeypatch):
        calls = recorded_corrections(monkeypatch)
        contin.run(circle_problem(), np.array([1.0, 0.0]), contin.ContinuationState(**self.STATE))
        steps = calls[1:]  # call 1 corrects the start
        for k, (u_first, border, anchor, u) in enumerate(steps):
            # the start lies on the step's hyperplane, away from the
            # prediction from the third step on
            assert abs(border @ (u_first - anchor)) < 1e-14
            assert np.array_equal(u_first, anchor) == (k < 2)
            # the point is the circle's intersection with that hyperplane,
            # nearest to the prediction, up to the corrector tolerance
            n = np.array([-border[1], border[0]])
            p = anchor @ n
            roots = -p + np.array([1.0, -1.0]) * np.sqrt(p * p - anchor @ anchor + 1.0)
            exact = anchor + roots[np.argmin(np.abs(roots))] * n
            assert np.abs(u - exact).max() < contin.CORRECTOR_TOL

    def test_extrapolated_start_saves_newton_updates(self):
        branch = contin.run(circle_problem(), np.array([1.0, 0.0]),
                            contin.ContinuationState(**self.STATE))
        # starting every step at its secant prediction takes 119 updates
        assert sum(pt.corrector_iters for pt in branch.points) == 81

    def test_retry_after_rejection_starts_at_the_prediction(self, monkeypatch):
        calls = recorded_corrections(monkeypatch, reject=(5,))  # the walk's fourth step
        contin.run(circle_problem(), np.array([1.0, 0.0]), contin.ContinuationState(**self.STATE))
        u_prev = calls[3][3]
        rejected, retry, after = calls[4], calls[5], calls[6]
        assert not np.array_equal(rejected[0], rejected[2])  # extrapolated
        assert np.array_equal(retry[1], rejected[1])
        assert np.allclose(retry[2] - u_prev, 0.5 * (rejected[2] - u_prev), rtol=0, atol=1e-15)
        assert np.array_equal(retry[0], retry[2])
        assert not np.array_equal(after[0], after[2])  # the next step extrapolates again
