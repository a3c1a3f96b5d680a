"""Periodic-orbit boundary-value problem, Floquet data and TR detection.

The zero problem couples segment collocation with periodicity and, for
autonomous systems, a Poincare phase condition anchored at a frozen
reference point (moving section: the reference is replaced by the previous
accepted solution during continuation).  Floquet multipliers come from the
same discretization: the monodromy matrix is the product of the
per-subinterval transition maps of the orbit's collocation Jacobian.
The continuation adapter is a thin kind on :func:`contin.collocation_problem`:
the full unknowns are the states x_bp, T and every parameter, of which ``u``
keeps the active one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import colloc, contin
from .errors import ConvergenceError
# transition_matrix is not called here; perfbench/tracing.py wraps this binding
from .ivp import IvpOptions, transition_matrix
from .linsys import CollocationJacobian, CollocationPattern, monodromy, newton_square
from .odesys import VectorField, eval_rhs

#: complex pairs need |Im mu| above this to count for TR testing
IMAG_TOL = 1.0e-6
#: floquet warns when eps*max|mu|/min|mu|, the smallest multiplier's rounding bound, exceeds this
ROUNDING_TOL = 1.0e-6


def names(vf: VectorField):
    """(releasable parameter names, scalar names) of an orbit, in full-column order."""
    return list(vf.param_names), ["T"]


@dataclass(frozen=True)
class PoReference:
    """Phase-condition anchor: section point and flow direction at t=0."""

    x0: np.ndarray
    f0: np.ndarray


@dataclass(frozen=True)
class PeriodicOrbit:
    traj: colloc.Trajectory
    p: np.ndarray
    reference: PoReference

    @property
    def period(self) -> float:
        return self.traj.duration


def make_reference(vf: VectorField, traj: colloc.Trajectory, p) -> PoReference:
    x0 = traj.x_bp[0].copy()
    return PoReference(x0=x0, f0=eval_rhs(vf, traj.t_offset, x0, p))


def po_residual(vf: VectorField, traj: colloc.Trajectory, p, reference: PoReference) -> np.ndarray:
    """Segment residual + periodicity + (autonomous) Poincare phase row.

    Ordering: collocation and continuity rows from
    :func:`colloc.segment_residual`, then x(T) - x(0), then for autonomous
    systems the scalar <f(0, x*(0), p*), x(0) - x*(0)>.  Non-autonomous
    orbits pin the period to the forcing period 2*pi/Omega instead.
    """
    res = colloc.segment_residual(vf, traj.mesh, traj.x_bp, traj.duration, traj.t_offset, p)
    periodicity = traj.x_bp[-1] - traj.x_bp[0]
    if vf.autonomous:
        phase = np.array([reference.f0 @ (traj.x_bp[0] - reference.x0)])
    else:
        p = np.asarray(p, dtype=float)
        omega = p[vf.param_index(vf.forcing_param)]
        phase = np.array([traj.duration - 2.0 * np.pi / omega])
    return np.concatenate([res, periodicity, phase])


def po_jacobian_pattern(vf: VectorField, mesh: colloc.SegmentMesh,
                        keep=None) -> CollocationPattern:
    """Layout of :func:`po_jacobian` on the full columns [x_bp, T, p_0 ..
    p_{q-1}], of which ``keep`` lists the extra ones to use (default all).

    The tail rows are x(T) - x(0), then the phase row: <f0, x(0)> for
    autonomous systems, T - 2 pi / Omega otherwise.  On x(T) they are I_n.
    """
    n, q = vf.dim_state, vf.dim_params
    return CollocationPattern(mesh, n, 1, [0] + [2 + i for i in range(q)], np.eye(n + 1, n), keep)


def po_jacobian(vf: VectorField, traj: colloc.Trajectory, p, reference: PoReference,
                pattern: CollocationPattern) -> CollocationJacobian:
    """Jacobian of :func:`po_residual` in the layout of ``pattern``."""
    n = vf.dim_state
    seg = colloc.segment_jacobian(vf, traj.mesh, traj.x_bp, traj.duration, traj.t_offset, p)
    start = np.zeros((n + 1, n + 1 + vf.dim_params))  # on x(0), T, p_0 .. p_{q-1}
    start[:n, :n] = -np.eye(n)
    if vf.autonomous:
        start[n, :n] = reference.f0
    else:
        i = vf.param_index(vf.forcing_param)
        start[n, [n, n + 1 + i]] = 1.0, 2.0 * np.pi / np.asarray(p, dtype=float)[i]**2
    return CollocationJacobian(pattern, seg, start[:, pattern.start_cols])


def solve_po(vf: VectorField, traj_guess: colloc.Trajectory, p,
             reference: Optional[PoReference] = None) -> PeriodicOrbit:
    """Newton-correct a near-periodic trajectory at fixed parameters, to a
    residual max-norm below ``contin.CORRECTOR_TOL`` (:func:`linsys.newton_square`)."""
    problem, u0 = continuation_problem(vf, PeriodicOrbit(traj_guess, np.asarray(p, dtype=float),
                                                         reference), [], detect_tr=False)
    u, _, _ = newton_square(problem.residual, problem.jacobian, u0, contin.CORRECTOR_TOL,
                            contin.START_MAX_ITER, context="periodic orbit")
    orbit = problem.embed(u)
    if orbit.period <= 1e-6 * abs(traj_guess.duration):
        # constants with T = 0 satisfy the discretized problem; reject them
        raise ConvergenceError(
            f"orbit correction collapsed to a zero-period solution "
            f"(T = {orbit.period:.3e}); the initial guess does not bracket an orbit"
        )
    return replace(orbit, reference=make_reference(vf, orbit.traj, orbit.p))


@dataclass
class FloquetData:
    """Monodromy eigendata of a periodic orbit.

    ``tr_angle``/``tr_eigvec`` describe the complex pair closest to the unit
    circle (the TR candidate), with the trivial flow multiplier excluded for
    autonomous systems.  ``warning`` flags an ill-conditioned eigenproblem
    and small multipliers lost to rounding.
    """

    multipliers: np.ndarray
    monodromy: np.ndarray
    trivial_index: Optional[int]
    tr_angle: Optional[float] = None
    tr_eigvec: Optional[np.ndarray] = None
    tr_distance: Optional[float] = None  # | |mu| - 1 | of the candidate pair
    warning: Optional[str] = None


def floquet(vf: VectorField, po: PeriodicOrbit,
            pattern: Optional[CollocationPattern] = None) -> FloquetData:
    """Multipliers of the monodromy matrix of a converged orbit.

    M comes from the orbit's own collocation Jacobian: the product of the
    per-subinterval transition maps from x(0) to x(T)
    (:func:`linsys.monodromy`), exact for the discretized variational
    equation.  A plain product loses the small multipliers of a strongly
    unstable orbit to rounding (Fairgrieve & Jepson 1991); ``warning`` says
    so when that error's bound eps*max|mu|/min|mu| exceeds ``ROUNDING_TOL``.
    The trivial multiplier (autonomous systems) is the one closest to 1 and
    is excluded from TR candidacy.  ``pattern`` is the orbit's
    :func:`po_jacobian_pattern` with ``keep=[]``, built here when not given.
    """
    pattern = pattern or po_jacobian_pattern(vf, po.traj.mesh, keep=[])
    M = monodromy(po_jacobian(vf, po.traj, po.p, po.reference, pattern))
    warnings = []
    try:
        mu, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        mu = np.linalg.eigvals(M)
        vecs = None
        warnings.append(f"eigenvector computation failed: {exc}")

    trivial = int(np.argmin(np.abs(mu - 1.0))) if vf.autonomous else None

    # one member of each non-trivial conjugate pair
    pairs = [i for i in range(mu.size) if i != trivial and mu[i].imag > IMAG_TOL]
    tr_angle = tr_eigvec = tr_distance = None
    if pairs:
        i = min(pairs, key=lambda i: abs(abs(mu[i]) - 1.0))
        tr_angle, tr_distance = float(np.angle(mu[i])), abs(abs(mu[i]) - 1.0)
        tr_eigvec = vecs[:, i].copy() if vecs is not None else None
    if vecs is not None:
        cond = np.linalg.cond(vecs)
        if cond > 1e12:
            warnings.append(f"ill-conditioned eigenvector basis (cond {cond:.2e})")
    amp = np.abs(mu)
    bound = np.finfo(float).eps * amp.max() / max(amp.min(), np.finfo(float).tiny)
    if bound > ROUNDING_TOL:
        warnings.append(f"small multipliers lost to rounding (eps*max|mu|/min|mu| = {bound:.1e})")
    return FloquetData(
        multipliers=mu,
        monodromy=M,
        trivial_index=trivial,
        tr_angle=tr_angle,
        tr_eigvec=tr_eigvec,
        tr_distance=tr_distance,
        warning="; ".join(warnings) or None,
    )


def tr_test_function(floq: FloquetData) -> Optional[float]:
    """max(|mu| - 1) over non-trivial complex pairs, or None when no pair.

    A sign change of this value along a branch brackets a torus (TR)
    bifurcation; the continuation engine treats ``None`` as "no event".
    """
    vals = [abs(mu) - 1.0 for i, mu in enumerate(floq.multipliers)
            if i != floq.trivial_index and abs(mu.imag) > IMAG_TOL]
    return float(max(vals)) if vals else None


def continuation_problem(
    vf: VectorField,
    start: PeriodicOrbit,
    released,
    bounds=None,
    detect_bp: bool = False,
    detect_tr: bool = True,
):
    """Wrap a periodic orbit as a ContinuationProblem; returns (problem, u0).

    The orbit kind of :func:`contin.collocation_problem`: the full unknowns
    are [x_bp, T, p_0 .. p_{q-1}].  The zero problem has dimension deficit
    0, so the first released name becomes active and any further names are
    monitor-only.  A TR event function (Floquet test) is attached unless
    ``detect_tr`` is false.
    """
    traj = start.traj
    X = traj.x_bp.size

    def build(full, ref):
        return PeriodicOrbit(replace(traj, x_bp=full[:X].reshape(traj.x_bp.shape),
                                     duration=full[X]), full[X + 1:], ref)

    problem, u0 = contin.collocation_problem(
        "po", vf, start, np.concatenate([traj.x_bp.ravel(), [traj.duration], start.p]),
        names(vf), 1, released, bounds=bounds, detect_bp=detect_bp,
        build=build,
        residual=lambda orbit: po_residual(vf, orbit.traj, orbit.p, orbit.reference),
        jacobian=lambda orbit, pattern: po_jacobian(vf, orbit.traj, orbit.p, orbit.reference,
                                                    pattern),
        pattern=lambda keep: po_jacobian_pattern(vf, traj.mesh, keep),
        reference=lambda orbit: make_reference(vf, orbit.traj, orbit.p),
    )
    if detect_tr:
        tr_pattern = po_jacobian_pattern(vf, traj.mesh, keep=[])
        problem.events.append(contin.EventSpec(
            "TR", lambda u: tr_test_function(floquet(vf, problem.embed(u), tr_pattern))))
    return problem, u0


def sample_orbit(vf: VectorField, y0, p, mesh: colloc.SegmentMesh, duration: float,
                 t_offset: float = 0.0, rel_tol: float = 1.0e-10) -> colloc.Trajectory:
    """Integrate from ``y0`` and sample the flow at the mesh base points.

    The integration runs over the distinct base-point times
    ``t_offset + duration * tau`` of :func:`colloc.distinct_basepoints`, and
    its ``index`` scatters the states back, so each subinterval's last base
    point equals the next one's first.
    """
    from .ivp import integrate

    tau, index = colloc.distinct_basepoints(mesh)
    sol = integrate(vf, t_offset + duration * tau, np.asarray(y0, dtype=float), p,
                    IvpOptions(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2))
    return colloc.Trajectory(mesh=mesh, x_bp=sol.y[index], duration=duration,
                             t_offset=t_offset)
