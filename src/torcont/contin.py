"""Pseudo-arclength continuation with events and branch switching.

The engine walks a one-dimensional solution manifold of a zero problem
F(u) = 0 with one more unknown than equations.  Each step of size h
predicts u_pred = u + h t along the secant t of the last step (the start
tangent on a direction's first step) and corrects with Newton on the
bordered system {F(u) = 0, <t, u - u_pred> = 0}.  From a direction's third
step on, Newton starts at the quadratic through the last three accepted
points, extrapolated in accumulated chord length to h past the last one
and projected onto that hyperplane: the step solves the same intersection
in fewer updates.  A retry after a rejected correction starts at u_pred.
The engine adapts the step size from the corrector iteration count.  Each
correction is the bordered case of the package's one Newton iteration,
:func:`linsys.newton_square`: an update that stops contracting the residual
ends it.  After each accepted point one table of tests runs (:func:`_tests`):
user events, branch points, folds and monitor bounds, each with its value
at a point, its crossing rule and what a crossing does (:class:`EventSpec`).
Events, monitor bounds and branch points share one localization: a
safeguarded (Illinois) secant in the chord parameter of the bracketing
step, whose trial points are predicted between the two corrected bracket
ends, so most of them need at most one Newton update.

Every bordered system is factored by condensation (:mod:`linsys`): the
collocation interiors are eliminated subinterval by subinterval, the
continuity rows chain the segments, and a small dense system in the
segment starts, T0, T and the active parameters remains; the dense
Jacobian of an algebraic problem (K = 0 segments) is that system itself.
Branch points are flagged by sign changes of the bordered determinant
(:func:`_det`: the corrector's last factorization, else one made at the point),
the product of the local block determinants, the reduced determinant and a
fixed structural sign, so sign and log-magnitude never under- or overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linsys  # newton_square by module attribute, where perfbench's tracer wraps it
from .errors import BranchPointError, ConfigError, ConvergenceError
from .linsys import bordered_matrix, det_sign_log, lu_factor, nullspace_tangent
from .odesys import VectorField

CORRECTOR_TOL = 1.0e-8
CORRECTOR_MAX_ITER = 8
START_MAX_ITER = 10  # without a predictor: a run's start, square orbit and torus solves
#: corrector iteration count at or below which the step size is doubled
FAST_ITERS = 4
EVENT_VALUE_TOL = 1.0e-6
EVENT_BRACKET_TOL = 1.0e-8
BP_DET_DROP = 1.0e-6  # relative |det| reduction that ends BP localization
NULL_TOL = 1.0e-4  # scaled |J psi| above which a switched direction is no null direction
#: residual below which a localization trial point that stops converging is
#: kept: near a branch point conditioning bounds the reachable residual
LOCALIZE_FLOOR = 5.0 * CORRECTOR_TOL


def _sign_change(v_a, v_b) -> bool:
    """An event's crossing rule: both values known, the earlier one not 0, signs differ."""
    return v_a is not None and v_b is not None and v_a != 0.0 and np.sign(v_a) != np.sign(v_b)


@dataclass
class EventSpec:
    """One test of the continuation walk (see :func:`run`).

    ``EventSpec(name, fn)`` is a scalar test function: a sign change of
    ``fn(u)`` (None: no event possible there) over a step is located by
    :func:`locate_event` on ``fn`` as a point of type ``name``.  The walk's
    own tests (:func:`_tests`) have no ``fn``: they set the ``value`` at a
    point (a returned ConvergenceError skips the test there), the ``locate``
    function (None: a crossing is only annotated), the termination a
    crossing ``ends`` with (an EP there) and the ``monitor`` of their records.
    """

    name: str  # point type of a located crossing (e.g. "TR"), and the records' type
    fn: Optional[Callable[[np.ndarray], Optional[float]]]
    value: Optional[Callable] = None  # (problem, u, t, border, lu) -> value at a point
    crossed: Callable = _sign_change  # (v_a, v_b) -> whether a step crosses
    locate: Optional[Callable] = None  # (problem, u_a, u_b, border, v_a, v_b) -> point
    ends: Optional[str] = None
    monitor: Optional[str] = None

    def __post_init__(self):
        if self.fn is not None:
            self.value = self.value or (lambda problem, u, *_: self.fn(u))
            self.locate = self.locate or (lambda problem, u_a, u_b, border, v_a, v_b: locate_event(
                problem, u_a, u_b, border, self.fn, values=(v_a, v_b))[0])


@dataclass
class ContinuationProblem:
    """A square-plus-one zero problem prepared for continuation.

    ``released`` is the requested ordered parameter list; only the first
    ``len(active)`` names are active unknowns, the rest are monitor-only
    (the usual continuation-toolbox convention, so extra names can
    ride along for monitoring).
    Each step of the walk (see :func:`run`) runs the ``events``, a BP test on
    the bordered determinant's sign with ``detect_bp``, and the ``bounds``
    (monitor name -> (lo, hi), None for an open end), whose edges end a
    direction that leaves them with an EP there.
    ``start_border`` (a vector in ``u``) borders the start correction; by
    default it holds the first active unknown, column ``n_unknowns - len(active)``.
    With a ``start_tangent`` the start is not corrected and the run leaves along it.
    ``jacobian`` returns a :class:`linsys.CollocationJacobian` for orbit and
    torus problems and a dense array for algebraic ones; ``vf`` is the
    vector field of orbit and torus problems.
    Orbit and torus problems come from :func:`collocation_problem`: their
    full unknowns are the segment states, the scalars (T, or T0 and T) and
    every parameter name, of which ``u`` keeps the active ones.
    """

    n_unknowns: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], object]
    monitors: Callable[[np.ndarray], dict]
    monitor_names: list
    released: list
    active: list
    embed: Callable[[np.ndarray], object]
    kind: str = "generic"
    vf: Optional[VectorField] = None
    bounds: dict = field(default_factory=dict)
    on_accept: Callable[[np.ndarray], None] = lambda u: None
    events: list = field(default_factory=list)
    detect_bp: bool = False
    start_border: Optional[np.ndarray] = None
    start_tangent: Optional[np.ndarray] = None


def check_released(released, known) -> list:
    """``released`` as a list; an unknown or repeated name raises ConfigError."""
    released = list(released)
    for i, name in enumerate(released):
        if name not in known:
            raise ConfigError(f"unknown parameter {name!r}; known: {', '.join(known)}")
        if name in released[:i]:
            raise ConfigError(f"parameter {name!r} released twice")
    return released


def active_columns(S, params, active) -> np.ndarray:
    """Full-unknown columns of ``u``: the first ``S``, then the ``active`` names."""
    return np.r_[:S, [S + params.index(name) for name in active]].astype(int)


def collocation_problem(kind, vf, start, full0, names, n_active, released, *,
                        build, residual, jacobian, pattern, reference,
                        bounds=None, detect_bp=False):
    """Continuation problem of an orbit or torus ``start``; returns (problem, u0).

    ``names`` is (parameter names, scalar names), and ``full0`` the start's
    full unknowns: its states, the scalars, then every parameter.  ``u``
    keeps the states, the scalars and the first ``n_active`` released names;
    further names are monitored only.  The kind makes a solution from full
    unknowns and a section reference (``build(full, ref)``), evaluates it
    (``residual(sol)``, ``jacobian(sol, pattern)``), lays out its Jacobian
    on the full columns ``keep`` past the states (``pattern(keep)``) and
    freezes a solution's section (``reference(sol)``), which moves to every
    accepted point.
    """
    params, scalars = names
    released = check_released(released, params)
    active = released[:n_active]
    S = full0.size - len(params)
    X = S - len(scalars)
    cols = active_columns(S, params, active)
    ref = [start.reference or reference(start)]

    def full_of(u):
        full = np.concatenate([u[:S], full0[S:]])
        full[cols[S:]] = u[S:]
        return full

    def embed(u):
        return build(full_of(u), ref[0])

    pat = pattern(cols[X:])

    def monitors(u):
        full = full_of(u)
        return dict(zip(params + scalars, full[S:].tolist() + full[X:S].tolist()))

    def on_accept(u):
        ref[0] = reference(embed(u))

    problem = ContinuationProblem(
        n_unknowns=cols.size, residual=lambda u: residual(embed(u)),
        jacobian=lambda u: jacobian(embed(u), pat), monitors=monitors,
        monitor_names=params + scalars, released=released, active=active, embed=embed,
        kind=kind, vf=vf, bounds=dict(bounds or {}), on_accept=on_accept, detect_bp=detect_bp)
    return problem, full0[cols]


@dataclass
class ContinuationState:
    """Step-size policy and run limits."""

    h: float = 0.1
    h_min: float = 1.0e-3
    h_max: float = 10.0
    pt_max: int = 50
    bi_direct: bool = True

    def __post_init__(self):
        if not (0 < self.h_min <= self.h_max):
            raise ConfigError("need 0 < h_min <= h_max")
        self.h = min(max(self.h, self.h_min), self.h_max)


@dataclass
class BranchPoint:
    label: int
    ptype: str  # EP, RO, TR, BP
    u: np.ndarray
    monitors: dict
    tangent: np.ndarray
    corrector_iters: int = 0


@dataclass
class Branch:
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)
    termination: str = ""

    def by_type(self, ptype: str):
        return [pt for pt in self.points if pt.ptype == ptype]


# -- bordered Newton ----------------------------------------------------------


def _correct(problem, u_first, border, anchor, max_iter=CORRECTOR_MAX_ITER, floor=0.0):
    """Newton from ``u_first`` on {F(u)=0, <border, u-anchor>=0}; returns (u, iters, lu).

    The bordered case of :func:`linsys.newton_square`, with its contraction
    test, residual ``floor`` and returned factorization or None, to
    ``CORRECTOR_TOL``.
    """
    return linsys.newton_square(
        lambda u: np.append(problem.residual(u), border @ (u - anchor)),
        lambda u: bordered_matrix(problem.jacobian(u), border),
        u_first, CORRECTOR_TOL, max_iter, floor=floor, context="corrector")


def _det(problem, u, border, lu=None):
    """(sign, log|det|) of [J(u); border^T] from the corrector's factor ``lu``,
    else from one made here; for an exactly singular system, the
    ConvergenceError of its factorization (returned: no determinant there)."""
    if lu is None:
        try:
            lu = lu_factor(bordered_matrix(problem.jacobian(u), border))
        except ConvergenceError as exc:
            return exc
    return det_sign_log(lu)


def _check_square_plus_one(problem, u0):
    J = problem.jacobian(u0)
    rows, cols = J.shape
    if cols != problem.n_unknowns:
        raise ConfigError(
            f"jacobian has {cols} columns but the layout declares {problem.n_unknowns}"
        )
    if cols < rows + 1:
        need = rows + 1 - cols
        raise ConfigError(
            f"zero problem is over-determined: {rows} equations, {cols} unknowns "
            f"({len(problem.active)} released); release {need} more parameter(s)"
        )
    if cols > rows + 1:
        raise ConfigError(
            f"zero problem is under-determined: {rows} equations, {cols} unknowns; "
            "too many released parameters for a one-dimensional manifold"
        )


def _initial_border(problem):
    """The normalized start border (see :class:`ContinuationProblem`)."""
    if problem.start_border is None:
        vec = np.zeros(problem.n_unknowns)
        vec[problem.n_unknowns - len(problem.active)] = 1.0
    else:
        vec = np.asarray(problem.start_border, dtype=float)
    return vec / np.linalg.norm(vec)


# -- the walk's tests and their localization ----------------------------------


def _localize(problem, u_a, u_b, border, value, f_a, f_b, value_tol, bracket_tol):
    """Illinois regula falsi for a sign change of ``value`` on [u_a, u_b].

    The secant places each trial point in the chord parameter (a little
    inside the bracket); it is predicted between the two corrected bracket
    ends, corrected with the frozen ``border`` down to ``LOCALIZE_FLOOR``,
    and ``value(u, lu)`` is taken there (None: the bracket is lost); ``lu``
    is the corrector's factorization or None (see :func:`_correct`).  The
    end kept twice in a row has its value halved (Dowell & Jarratt 1971).
    Stops when |value| < ``value_tol`` or the bracket is shorter than
    ``bracket_tol``; returns (u, value, evaluations) of the trial point
    with the smallest |value|.
    """
    width = np.linalg.norm(u_b - u_a)
    ends = [[0.0, f_a, u_a], [1.0, f_b, u_b]]  # [s, value, corrected point]
    moved = best = None
    for it in range(1, 61):
        (s_lo, f_lo, u_lo), (s_hi, f_hi, u_hi) = ends
        w = np.clip(f_lo / (f_lo - f_hi), 0.01, 0.99)
        u_pred = u_lo + w * (u_hi - u_lo)
        u, _, lu = _correct(problem, u_pred, border, u_pred, floor=LOCALIZE_FLOOR)
        val = value(u, lu)
        if val is None:
            raise ConvergenceError("bracket lost during localization (test function vanished)")
        if best is None or abs(val) < abs(best[1]):
            best = (u, val)
        if abs(val) < value_tol:
            break
        k = int(np.sign(val) != np.sign(f_lo))  # the end the trial point replaces
        ends[k] = [s_lo + w * (s_hi - s_lo), val, u]
        if k == moved:
            ends[1 - k][1] *= 0.5  # Illinois: the other end was kept twice
        moved = k
        if (ends[1][0] - ends[0][0]) * width < bracket_tol:
            break
    return best + (it,)


def locate_event(problem, u_a, u_b, border, test_fn,
                 value_tol=EVENT_VALUE_TOL, bracket_tol=EVENT_BRACKET_TOL, values=None):
    """Localize a sign change of ``test_fn`` between two points.

    Safeguarded secant (:func:`_localize`) on the test function; ``values``
    are its values at ``u_a`` and ``u_b`` when the caller has them (the
    walk does), else they are evaluated.  Returns (u_located, value,
    evaluations); raises :class:`ConvergenceError` when the bracket is lost
    (for example over a fold in the test function).
    """
    val_a, val_b = values if values is not None else (test_fn(u_a), test_fn(u_b))
    if val_a is None or val_b is None or np.sign(val_a) == np.sign(val_b):
        raise ConvergenceError("locate_event needs opposite-sign bracket values")
    return _localize(problem, u_a, u_b, border, lambda u, lu: test_fn(u),
                     val_a, val_b, value_tol, bracket_tol)


def detect_branch_point(problem, u_a, u_b, border, sign_a, sign_b, logdet_a, logdet_b):
    """Localize a branch point bracketed by a determinant sign change.

    ``sign_a``/``sign_b`` and ``logdet_a``/``logdet_b`` are the sign and
    log-magnitude of the bordered-Jacobian determinant at two consecutive
    accepted points (:func:`_det`, so magnitude under- or overflow cannot
    corrupt them); the signs must differ.  The secant runs on
    sign * exp(logdet - max(logdet_a, logdet_b)), linear through a simple
    branch point, and an exactly singular trial point has the value 0.  As
    at the accepted bracket ends, the determinant of a trial point that
    converged after updates belongs to the iterate one update before it.
    Stops once |det| has dropped by ``BP_DET_DROP`` or the bracket is
    tighter than the arclength tolerance.  Returns (u_bp, evaluations).
    """
    if sign_a == 0 or sign_b == 0 or sign_a == sign_b:
        raise ConvergenceError("detect_branch_point needs opposite determinant signs")
    scale = max(logdet_a, logdet_b)

    def scaled_det(u, lu):
        det = _det(problem, u, border, lu)
        return 0.0 if isinstance(det, ConvergenceError) else det[0] * np.exp(det[1] - scale)

    u, _, its = _localize(problem, u_a, u_b, border, scaled_det,
                          sign_a * np.exp(logdet_a - scale), sign_b * np.exp(logdet_b - scale),
                          BP_DET_DROP, EVENT_BRACKET_TOL)
    return u, its


def _bound_test(name, lo, hi, edge, side):
    """The test of ``edge`` (``side`` -1 for lo, 1 for hi) of the bound [lo, hi]
    on monitor ``name``: a step from inside the closed interval past the edge
    ends the direction on it, at once from a start on it (1e-12 relative)."""

    def locate(problem, u_a, u_b, border, v_a, v_b):
        if abs(v_a - edge) <= 1e-12 * max(1.0, abs(edge)):
            return u_a
        return locate_event(problem, u_a, u_b, border, lambda u: problem.monitors(u)[name] - edge,
                            value_tol=1e-9 * max(1.0, abs(edge)),
                            values=(v_a - edge, v_b - edge))[0]

    return EventSpec("EP", None, value=lambda problem, u, *_: problem.monitors(u)[name],
                     crossed=lambda v_a, v_b: (v_b < edge if side < 0 else v_b > edge) and (
                         (lo is None or v_a >= lo) and (hi is None or v_a <= hi)),
                     locate=locate, ends=f"bound {name}={edge}", monitor=name)


def _tests(problem) -> list:
    """The walk's tests of ``problem`` in the order a step runs them: its events,
    the BP determinant sign with ``detect_bp``, the fold of the first active
    parameter (only annotated), then each bound's ends."""
    tests = list(problem.events)
    if problem.detect_bp:
        tests.append(EventSpec(
            "BP", None, value=lambda problem, u, t, border, lu: _det(problem, u, border, lu),
            crossed=lambda v_a, v_b: v_a is not None and v_b is not None and v_a[0] * v_b[0] < 0,
            locate=lambda problem, u_a, u_b, border, v_a, v_b: detect_branch_point(
                problem, u_a, u_b, border, v_a[0], v_b[0], v_a[1], v_b[1])[0]))
    if problem.active:
        col = problem.n_unknowns - len(problem.active)
        tests.append(EventSpec("FO", None, value=lambda problem, u, t, *_: t[col],
                               crossed=lambda v_a, v_b: v_a * v_b < 0,
                               monitor=problem.active[0]))
    return tests + [_bound_test(name, lo, hi, edge, side)
                    for name, (lo, hi) in problem.bounds.items()
                    for edge, side in ((lo, -1), (hi, 1)) if edge is not None]


# -- branch switching ---------------------------------------------------------


def switch_branch(problem, u_bp: np.ndarray, incoming_tangent: np.ndarray):
    """Second branch direction at a localized branch point.

    At a simple branch point the Jacobian has a two-dimensional null space
    containing both branch tangents; bordering with the incoming tangent
    leaves exactly the null direction orthogonal to it, which inverse
    iteration on the near-singular bordered matrix extracts.  The result is
    orthogonalized against the incoming tangent and verified to be a null
    direction of J; failing that check means the point is not a simple
    branch point.
    """
    J = problem.jacobian(u_bp)
    B = bordered_matrix(J, incoming_tangent)
    try:
        lu = lu_factor(B)
    except ConvergenceError:
        # exactly singular at a perfectly localized BP: shift the reduced
        # system for the solve, the inverse iteration still converges to
        # the null direction
        lu = lu_factor(B, shift=1e-10)
    n = B.shape[0]
    psi = None
    # inverse iteration needs a start with a component along the null
    # direction; try a few deterministic seeds
    seeds = [np.ones(n), np.resize([1.0, -1.0], n)]
    for seed in seeds:
        x = seed / np.linalg.norm(seed)
        for _ in range(3):
            x = lu.solve(x)
            x = x / np.linalg.norm(x)
        cand = x - (x @ incoming_tangent) * incoming_tangent
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            psi = cand / nrm
            break
    if psi is None:
        raise BranchPointError("no independent null direction at the branch point")
    scale = max(1.0, linsys.max_abs(J))
    defect = np.abs(J @ psi).max() / scale
    if defect > NULL_TOL:
        raise BranchPointError(
            f"null space is not two-dimensional within tolerance (defect {defect:.2e})"
        )
    return psi


# -- main driver --------------------------------------------------------------


def run(problem: ContinuationProblem, u0: np.ndarray, state: ContinuationState,
        writer=None, progress: Optional[Callable] = None) -> Branch:
    """Trace the solution branch through ``u0``.

    The start is corrected with the problem's start border, or taken as it
    is when the problem has a start tangent (see
    :class:`ContinuationProblem`); then the branch is traversed by bordered
    Newton correction of secant predictions, each step's Newton iteration
    starting at the quadratic extrapolation of the last three accepted
    points of its direction (at the prediction on a direction's first two
    steps and on a retry after a rejected correction; see the module
    docstring).  After each accepted point the problem's ``on_accept`` hook
    runs (moving Poincare sections), and each step runs the tests of
    :func:`_tests` in order: a crossing is located as a labeled point, ends
    the direction with an EP or is annotated, and the records of a step's
    tests go to ``branch.events`` in that order.  A bound on a name that is
    not a monitor raises ConfigError.  With ``bi_direct`` both tangent
    orientations are explored; labels keep ascending across the two
    passes.  A ``writer`` stores every labeled point as it is emitted and
    the branch events when the run ends.
    """
    u0 = np.asarray(u0, dtype=float)
    _check_square_plus_one(problem, u0)
    unknown = [name for name in problem.bounds if name not in problem.monitor_names]
    if unknown:
        raise ConfigError(f"bounds on unknown monitor(s) {', '.join(unknown)}; "
                          f"known: {', '.join(problem.monitor_names)}")
    tests = _tests(problem)

    start_iters = 0
    if problem.start_tangent is None:
        border0 = _initial_border(problem)
        try:
            u_start, start_iters, _ = _correct(problem, u0, border0, u0, max_iter=START_MAX_ITER)
        except ConvergenceError as exc:
            raise ConvergenceError(f"initial correction failed: {exc}") from exc
        problem.on_accept(u_start)
        t0 = nullspace_tangent(problem.jacobian(u_start), border0)
    else:
        u_start = u0.copy()
        problem.on_accept(u_start)
        t0 = np.asarray(problem.start_tangent, dtype=float)
        t0 = t0 / np.linalg.norm(t0)

    branch = Branch()

    def emit(u, ptype, tangent, iters=0):
        pt = BranchPoint(len(branch.points) + 1, ptype, u.copy(), problem.monitors(u),
                         tangent.copy(), iters)
        branch.points.append(pt)
        if writer is not None:
            writer.write_point(pt)
        if progress is not None:
            progress(pt)
        return pt

    emit(u_start, "EP", t0, iters=start_iters)

    # reverse direction first so the run's last EP label ends the forward
    # (tangent-oriented) sweep, which restarts pick up by default
    directions = (-1.0, 1.0) if state.bi_direct else (1.0,)
    branch.termination = "; ".join(_walk(problem, branch, state, u_start, d * t0, emit, tests)
                                   for d in directions)
    if writer is not None:
        writer.write_events(branch.events)
    return branch


def _extrapolate(recent, h, t, u_pred):
    """Newton start of a step: the quadratic through the three ``recent``
    (chord length, point) pairs at chord length h past the last, projected
    onto the step's hyperplane {u : <t, u - u_pred> = 0} (``t`` a unit
    vector)."""
    (s0, u0), (s1, u1), (s2, u2) = recent
    s = s2 + h
    q = ((s - s1) * (s - s2) / ((s0 - s1) * (s0 - s2)) * u0
         + (s - s0) * (s - s2) / ((s1 - s0) * (s1 - s2)) * u1
         + (s - s0) * (s - s1) / ((s2 - s0) * (s2 - s1)) * u2)
    return q - (t @ (q - u_pred)) * t


def _walk(problem, branch, state, u_start, t0, emit, tests) -> str:
    """One direction of :func:`run` from ``u_start`` along ``t0``; returns its termination."""
    problem.on_accept(u_start)  # re-anchor moving sections at the start

    def record(test, status, **fields):
        # the one writer of branch.events; a test's monitor follows the status
        monitor = {} if test.monitor is None else {"monitor": test.monitor}
        branch.events.append({"type": test.name, "status": status, **monitor, **fields})

    def values(u, t, border, lu, where):
        out = [test.value(problem, u, t, border, lu) for test in tests]
        for test, v in zip(tests, out):
            if isinstance(v, ConvergenceError):  # no test on the steps next to this point
                record(test, "skipped", reason=f"{where}: {v}", near_label=branch.points[-1].label)
        return [None if isinstance(v, ConvergenceError) else v for v in out]

    u_prev, t_prev = u_start, t0
    v_prev = values(u_start, t0, t0, None, "start point")
    h = min(max(state.h, state.h_min), state.h_max)
    recent = [(0.0, u_start)]  # (chord length, point) of the last accepted points
    retry = False
    accepted = 0
    pending = None  # accepted point not yet emitted (may become the final EP)

    def flush(ptype="RO"):
        nonlocal pending
        if pending is not None:
            u, t, iters = pending
            emit(u, ptype, t, iters=iters)
            pending = None

    while accepted < state.pt_max:
        u_pred = u_prev + h * t_prev
        u_first = u_pred if retry or len(recent) < 3 else _extrapolate(recent, h, t_prev, u_pred)
        try:
            u_new, iters, lu = _correct(problem, u_first, t_prev, u_pred)
        except ConvergenceError as exc:
            if h <= state.h_min * (1 + 1e-12):
                flush("EP")
                return f"corrector failure at h_min: {exc}"
            h = max(0.5 * h, state.h_min)
            retry = True
            continue
        retry = False

        step = u_new - u_prev
        nrm = np.linalg.norm(step)
        if nrm == 0.0:
            flush("EP")
            return "stagnated"
        t_new = step / nrm
        v_new = values(u_new, t_new, t_prev, lu, "accepted point")
        for test, v_a, v_b in zip(tests, v_prev, v_new):
            if not test.crossed(v_a, v_b):
                continue
            if test.locate is None:
                record(test, "annotated", near_label=branch.points[-1].label)
                continue
            try:
                u_hit = test.locate(problem, u_prev, u_new, t_prev, v_a, v_b)
            except ConvergenceError as exc:
                record(test, "unlocated", reason=str(exc), bracket=(u_prev.copy(), u_new.copy()))
                if test.ends is None:
                    continue
                u_hit = u_new  # still ends, on the step's end
            flush("RO")
            if test.ends is not None:
                # the pending point went out under its own reference section;
                # re-anchor at the end point before emitting it
                problem.on_accept(u_hit)
                emit(u_hit, "EP", t_new, iters=iters)
                return test.ends
            record(test, "located", label=emit(u_hit, test.name, t_prev).label)

        # accept: emit the pending point while the moving sections are still
        # anchored at it, then advance the reference to the new point
        flush("RO")
        problem.on_accept(u_new)
        pending = (u_new, t_new, iters)
        recent = recent[-2:] + [(recent[-1][0] + nrm, u_new)]
        u_prev, t_prev, v_prev = u_new, t_new, v_new
        accepted += 1
        if iters <= FAST_ITERS:
            h = min(2.0 * h, state.h_max)

    flush("EP")
    return "pt_max"
