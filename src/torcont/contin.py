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
The engine adapts the step size from the corrector iteration count and
watches scalar test functions for sign changes.  Each correction is the
bordered case of the package's one Newton iteration,
:func:`linsys.newton_square`: an update that stops contracting the residual
ends it.
Events, monitor bounds and branch points share one localization: a
safeguarded (Illinois) secant in the chord parameter of the bracketing
step, whose trial points are predicted between the two corrected bracket
ends, so most of them need at most one Newton update.

Every bordered system is factored by condensation (:mod:`linsys`): the
collocation interiors are eliminated subinterval by subinterval, the
continuity rows chain the segments, and a small dense system in the
segment starts, T0, T and the active parameters remains; the dense
Jacobian of an algebraic problem (K = 0 segments) is that system itself.
Branch points are flagged by sign changes of the bordered determinant,
taken from the accepted corrector factorization as the product of the
local block determinants, the reduced determinant and a fixed structural
sign, so sign and log-magnitude never under- or overflow.
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


@dataclass
class EventSpec:
    """Scalar test function whose sign change triggers localization."""

    name: str  # bd point type for the located point (e.g. "TR")
    fn: Callable[[np.ndarray], Optional[float]]  # None means "no event possible here"


@dataclass
class ContinuationProblem:
    """A square-plus-one zero problem prepared for continuation.

    ``released`` is the requested ordered parameter list; only the first
    ``len(active)`` names are active unknowns, the rest are monitor-only
    (the usual continuation-toolbox convention, so extra names can
    ride along for monitoring).
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
    det_sign: int = 0
    corrector_iters: int = 0


@dataclass
class Branch:
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)
    termination: str = ""

    def by_type(self, ptype: str):
        return [pt for pt in self.points if pt.ptype == ptype]


# -- bordered Newton ----------------------------------------------------------


def _correct(problem, u_first, border, anchor, max_iter=CORRECTOR_MAX_ITER, floor=0.0,
             need_lu=False):
    """Newton from ``u_first`` on {F(u)=0, <border, u-anchor>=0}; returns (u, iters, lu).

    The bordered case of :func:`linsys.newton_square`, with its contraction
    test, residual ``floor``, ``need_lu`` and returned factorization, to
    ``CORRECTOR_TOL``.
    """
    return linsys.newton_square(
        lambda u: np.append(problem.residual(u), border @ (u - anchor)),
        lambda u: bordered_matrix(problem.jacobian(u), border),
        u_first, CORRECTOR_TOL, max_iter, floor=floor, need_lu=need_lu, context="corrector")


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


# -- event localization -------------------------------------------------------


def _localize(problem, u_a, u_b, border, value, f_a, f_b, value_tol, bracket_tol,
              need_lu=False):
    """Illinois regula falsi for a sign change of ``value`` on [u_a, u_b].

    The secant places each trial point in the chord parameter (a little
    inside the bracket); it is predicted between the two corrected bracket
    ends, corrected with the frozen ``border`` down to ``LOCALIZE_FLOOR``,
    and ``value(u, lu)`` is taken there (None: the bracket is lost); ``lu``
    is the corrector's factorization, made at every trial point only with
    ``need_lu`` (see :func:`_correct`).  The end kept twice in a row has
    its value halved (Dowell & Jarratt 1971).
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
        u, _, lu = _correct(problem, u_pred, border, u_pred, floor=LOCALIZE_FLOOR,
                            need_lu=need_lu)
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
                 value_tol=EVENT_VALUE_TOL, bracket_tol=EVENT_BRACKET_TOL):
    """Localize a sign change of ``test_fn`` between two points.

    Safeguarded secant (:func:`_localize`) on the test function.  Returns
    (u_located, value, evaluations); raises :class:`ConvergenceError` when
    the bracket is lost (for example over a fold in the test function).
    """
    val_a = test_fn(u_a)
    val_b = test_fn(u_b)
    if val_a is None or val_b is None or np.sign(val_a) == np.sign(val_b):
        raise ConvergenceError("locate_event needs opposite-sign bracket values")
    return _localize(problem, u_a, u_b, border, lambda u, lu: test_fn(u),
                     val_a, val_b, value_tol, bracket_tol)


def detect_branch_point(problem, u_a, u_b, border, sign_a, sign_b, logdet_a, logdet_b):
    """Localize a branch point bracketed by a determinant sign change.

    ``sign_a``/``sign_b`` and ``logdet_a``/``logdet_b`` are the sign and
    log-magnitude of the bordered-Jacobian determinant at two consecutive
    accepted points (from the scaled LU proxy, so magnitude under- or
    overflow cannot corrupt them); the signs must differ.  The secant runs
    on sign * exp(logdet - max(logdet_a, logdet_b)), linear through a
    simple branch point.  The determinant is that of the corrector's last
    factorization (see :func:`_correct`): for a trial point that converged
    after updates it belongs to the iterate one update before the point,
    as at the accepted bracket ends.  Stops once |det| has dropped by
    ``BP_DET_DROP`` or the bracket is tighter than the arclength tolerance.
    Returns (u_bp, evaluations).
    """
    if sign_a == 0 or sign_b == 0 or sign_a == sign_b:
        raise ConvergenceError("detect_branch_point needs opposite determinant signs")
    scale = max(logdet_a, logdet_b)

    def scaled_det(u, lu):
        if lu is None:
            return 0.0  # landed on an exactly singular point
        sign, logdet = det_sign_log(lu)
        return sign * np.exp(logdet - scale)

    u, _, its = _localize(problem, u_a, u_b, border, scaled_det,
                          sign_a * np.exp(logdet_a - scale), sign_b * np.exp(logdet_b - scale),
                          BP_DET_DROP, EVENT_BRACKET_TOL, need_lu=True)
    return u, its


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
    docstring).  After each accepted point
    the problem's ``on_accept`` hook runs (moving Poincare sections),
    monitors are recorded, events are tested and bounds are enforced.  A
    bound on a name that is not a monitor raises ConfigError.  With
    ``bi_direct`` both tangent orientations are explored; labels keep
    ascending across the two passes.  A ``writer`` stores every labeled
    point as it is emitted and the branch events when the run ends.
    """
    u0 = np.asarray(u0, dtype=float)
    _check_square_plus_one(problem, u0)
    unknown = [name for name in problem.bounds if name not in problem.monitor_names]
    if unknown:
        raise ConfigError(f"bounds on unknown monitor(s) {', '.join(unknown)}; "
                          f"known: {', '.join(problem.monitor_names)}")

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
    label_counter = [0]

    def emit(u, ptype, tangent, det_sign=0, iters=0):
        label_counter[0] += 1
        pt = BranchPoint(
            label=label_counter[0],
            ptype=ptype,
            u=u.copy(),
            monitors=problem.monitors(u),
            tangent=tangent.copy(),
            det_sign=det_sign,
            corrector_iters=iters,
        )
        branch.points.append(pt)
        if writer is not None:
            writer.write_point(pt)
        if progress is not None:
            progress(pt)
        return pt

    emit(u_start, "EP", t0, iters=start_iters)

    terminations = []
    # reverse direction first so the run's last EP label ends the forward
    # (tangent-oriented) sweep, which restarts pick up by default
    directions = (-1.0, 1.0) if state.bi_direct else (1.0,)
    for direction in directions:
        problem.on_accept(u_start)  # re-anchor moving sections at the start
        _walk(problem, branch, state, u_start, direction * t0, emit)
        terminations.append(branch.termination)
    branch.termination = "; ".join(terminations)
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


def _walk(problem, branch, state, u_start, t0, emit):
    u_prev = u_start
    t_prev = t0
    sign_prev, logdet_prev = 0, 0.0

    def bp_skipped(reason):
        # a point without a determinant sign drops the BP test of its steps
        branch.events.append({"type": "BP", "status": "skipped", "reason": reason,
                              "near_label": branch.points[-1].label if branch.points else 0})

    if problem.detect_bp:
        try:
            lu0 = lu_factor(bordered_matrix(problem.jacobian(u_start), t0))
            sign_prev, logdet_prev = det_sign_log(lu0)
        except ConvergenceError as exc:  # e.g. a restart exactly at a BP
            bp_skipped(f"start point: {exc}")
    event_prev = [ev.fn(u_prev) for ev in problem.events]
    mon_prev = problem.monitors(u_prev)
    h = min(max(state.h, state.h_min), state.h_max)
    recent = [(0.0, u_start)]  # (chord length, point) of the last accepted points
    retry = False
    accepted = 0
    pending = None  # accepted point not yet emitted (may become the final EP)

    def flush(ptype="RO"):
        nonlocal pending
        if pending is not None:
            u, t, sign, iters = pending
            emit(u, ptype, t, det_sign=sign, iters=iters)
            pending = None

    def located(u, ptype):
        flush("RO")
        pt = emit(u, ptype, t_prev)
        branch.events.append({"type": ptype, "status": "located", "label": pt.label})

    def unlocated(ptype, exc, **fields):
        branch.events.append({"type": ptype, "status": "unlocated", **fields, "reason": str(exc),
                              "bracket": (u_prev.copy(), u_new.copy())})

    branch.termination = "pt_max"
    while accepted < state.pt_max:
        u_pred = u_prev + h * t_prev
        u_first = u_pred if retry or len(recent) < 3 else _extrapolate(recent, h, t_prev, u_pred)
        try:
            u_new, iters, lu = _correct(problem, u_first, t_prev, u_pred,
                                        need_lu=problem.detect_bp)
        except ConvergenceError as exc:
            if h <= state.h_min * (1 + 1e-12):
                flush("EP")
                branch.termination = f"corrector failure at h_min: {exc}"
                return
            h = max(0.5 * h, state.h_min)
            retry = True
            continue
        retry = False

        step = u_new - u_prev
        nrm = np.linalg.norm(step)
        if nrm == 0.0:
            flush("EP")
            branch.termination = "stagnated"
            return
        t_new = step / nrm
        sign_new, logdet_new = 0, 0.0
        if problem.detect_bp:
            if lu is None:
                bp_skipped("accepted point: the bordered system is exactly singular")
            else:
                sign_new, logdet_new = det_sign_log(lu)
        mon_new = problem.monitors(u_new)

        # scalar-event sign changes between the previous and the new point
        event_new = [ev.fn(u_new) for ev in problem.events]
        for k, ev in enumerate(problem.events):
            va, vb = event_prev[k], event_new[k]
            if va is None or vb is None or va == 0.0 or np.sign(va) == np.sign(vb):
                continue
            try:
                located(locate_event(problem, u_prev, u_new, t_prev, ev.fn)[0], ev.name)
            except ConvergenceError as exc:
                unlocated(ev.name, exc)

        # branch points: determinant sign change of the bordered Jacobian
        if problem.detect_bp and sign_prev != 0 and sign_new != 0 and sign_new != sign_prev:
            try:
                located(detect_branch_point(problem, u_prev, u_new, t_prev, sign_prev, sign_new,
                                            logdet_prev, logdet_new)[0], "BP")
            except ConvergenceError as exc:
                unlocated("BP", exc)

        # fold annotation: first active parameter reverses along the branch
        if problem.active:
            col = problem.n_unknowns - len(problem.active)
            if t_prev[col] * t_new[col] < 0:
                branch.events.append(
                    {"type": "FO", "status": "annotated", "monitor": problem.active[0],
                     "near_label": branch.points[-1].label if branch.points else 0}
                )

        # monitor bounds terminate the direction with an EP at the bound:
        # trigger when the new point exits the closed interval from inside
        # (a start exactly on an edge counts as inside)
        bound_hit = None
        for name, interval in problem.bounds.items():
            lo, hi = interval
            va, vb = mon_prev[name], mon_new[name]
            inside_a = (lo is None or va >= lo) and (hi is None or va <= hi)
            if not inside_a:
                continue
            if lo is not None and vb < lo:
                bound_hit = (name, lo)
            elif hi is not None and vb > hi:
                bound_hit = (name, hi)
            if bound_hit:
                break
        if bound_hit is not None:
            name, edge = bound_hit
            if abs(mon_prev[name] - edge) <= 1e-12 * max(1.0, abs(edge)):
                u_ep = u_prev  # started exactly on the bound, stop there
            else:
                try:
                    u_ep, _, _ = locate_event(
                        problem, u_prev, u_new, t_prev,
                        lambda u: problem.monitors(u)[name] - edge,
                        value_tol=1e-9 * max(1.0, abs(edge)),
                    )
                except ConvergenceError as exc:
                    unlocated("EP", exc, monitor=name)  # still ends, on the step's end
                    u_ep = u_new
            # flush the pending point under its own reference section, then
            # re-anchor at the endpoint before emitting it
            flush("RO")
            problem.on_accept(u_ep)
            emit(u_ep, "EP", t_new, iters=iters)
            branch.termination = f"bound {name}={edge}"
            return

        # accept: emit the pending point while the moving sections are still
        # anchored at it, then advance the reference to the new point
        flush("RO")
        problem.on_accept(u_new)
        pending = (u_new, t_new, sign_new, iters)
        recent = recent[-2:] + [(recent[-1][0] + nrm, u_new)]
        u_prev, t_prev = u_new, t_new
        sign_prev, logdet_prev = sign_new, logdet_new
        event_prev = event_new
        mon_prev = mon_new
        accepted += 1
        if iters <= FAST_ITERS:
            h = min(2.0 * h, state.h_max)

    flush("EP")
