"""The torus boundary-value problem: 2N+1 coupled collocation segments.

A two-dimensional invariant torus is discretized as one trajectory segment
per angle ``phi_j = 2(j-1)pi/(2N+1)``, all sharing one time mesh and one
(T0, T).  The segments are tied together by the discrete all-to-all
boundary condition (Fourier transform + coefficient rotation), two scalar
frequency couplings, and Poincare phase conditions anchored at a frozen
reference section that moves with the continuation.

Residual ordering (normative, matching the Jacobian row layout):

  (a) per segment j = 1..2N+1: collocation rows, then continuity rows
  (b) all-to-all coupling, n*(2N+1) rows
  (c) T0 - 0
  (d) T - 2*pi/om2
  (e) varrho - om1/om2
  (f) < v*_phi(0,0), v(0,0) - v*(0,0) >
  (g) autonomous only:     < v*_t(0,0), v(0,0) - v*(0,0) >
  (h) non-autonomous only: Omega_2 - om2   (declared forcing parameter)

Full Jacobian columns: [all x_bp segment-major, T0, T, p_1..p_q, om1, om2,
varrho], that is the states, the scalars and every parameter name.  The
zero problem with no released parameters therefore has three fewer
unknowns than equations (dimension deficit -3); releasing four parameters
yields a one-dimensional solution manifold.  The continuation adapter is a
thin kind on :func:`contin.collocation_problem`, which holds this column
rule for orbits and tori: ``u`` keeps the states, T0, T and the active names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import colloc, contin
from .errors import ConfigError, InputError
from .fourier import (
    CouplingMatrices,
    coupling_residual,
    dft_matrix,
    rotation_matrix,
    rotation_matrix_deriv,
    trig_interpolate,
)
from .ivp import IvpOptions, integrate, transition_matrix
from .linsys import CollocationJacobian, CollocationPattern
from .odesys import VectorField, eval_rhs

#: extended parameter names every torus problem exposes beyond the system's
EXTRA_PARAMS = ("om1", "om2", "varrho")


def names(vf: VectorField):
    """(releasable parameter names, scalar names) of a torus, in full-column order."""
    return list(vf.param_names) + list(EXTRA_PARAMS), ["T0", "T"]


@dataclass(frozen=True)
class ReferenceSection:
    """Frozen data of the moving Poincare sections.

    ``v00`` is v*(0,0) (first segment's initial point of the previous
    accepted solution), ``vphi`` its phi-derivative obtained from the
    phase-derivative weights across segments, ``vt`` the flow direction
    f(0, v*(0,0), p*) for autonomous systems (None otherwise).
    """

    v00: np.ndarray
    vphi: np.ndarray
    vt: Optional[np.ndarray]


@dataclass(frozen=True)
class TorusSolution:
    """All unknowns of the discretized torus plus the frozen reference."""

    mesh: colloc.SegmentMesh
    coupling: CouplingMatrices
    x_seg: np.ndarray  # (2N+1, n_base, n)
    T0: float
    T: float
    p: np.ndarray
    om1: float
    om2: float
    varrho: float
    reference: Optional[ReferenceSection]

    @property
    def n_seg(self) -> int:
        return self.x_seg.shape[0]

    @property
    def dim_state(self) -> int:
        return self.x_seg.shape[2]

    @property
    def N(self) -> int:
        return self.coupling.N


def reference_from_solution(vf: VectorField, sol: TorusSolution) -> ReferenceSection:
    """Freeze the Poincare-section data from a solution's own states."""
    v00 = sol.x_seg[0, 0].copy()
    vphi = sol.coupling.phase_weights @ sol.x_seg[:, 0, :]
    vt = eval_rhs(vf, sol.T0, v00, sol.p) if vf.autonomous else None
    return ReferenceSection(v00=v00, vphi=vphi, vt=vt)


def update_reference(vf: VectorField, sol: TorusSolution) -> TorusSolution:
    """Re-anchor the moving sections at the solution itself (idempotent)."""
    return replace(sol, reference=reference_from_solution(vf, sol))


def _layout(sol: TorusSolution, vf: VectorField):
    n_seg, nbp, n = sol.x_seg.shape
    X_seg = nbp * n
    X = n_seg * X_seg
    q = vf.dim_params
    rows_seg = sol.mesh.n_coll * n + (sol.mesh.ntst - 1) * n
    rows = n_seg * rows_seg + n_seg * n + 4 + 1
    return X_seg, X, q, rows_seg, rows


def dimension_deficit(vf: VectorField, sol: TorusSolution) -> int:
    """Unknowns minus equations of the zero problem with nothing released."""
    _, X, _, _, rows = _layout(sol, vf)
    return (X + 2) - rows


def torus_residual(vf: VectorField, sol: TorusSolution) -> np.ndarray:
    """Residual blocks (a)-(h) in the normative order."""
    if sol.reference is None:
        raise InputError("torus solution carries no reference section")
    # (a) collocation + continuity of all segments
    res_a = colloc.segment_residual(vf, sol.mesh, sol.x_seg, sol.T, sol.T0, sol.p)

    # (b) all-to-all coupling
    R = rotation_matrix(sol.N, sol.varrho)
    v0 = sol.x_seg[:, 0, :].ravel()
    vT = sol.x_seg[:, -1, :].ravel()
    res_b = coupling_residual(v0, vT, R, sol.coupling.F, sol.dim_state)

    # (c)-(h) scalars
    ref = sol.reference
    dv = sol.x_seg[0, 0] - ref.v00
    scalars = [sol.T0, sol.T - 2.0 * np.pi / sol.om2, sol.varrho - sol.om1 / sol.om2,
               ref.vphi @ dv]
    if vf.autonomous:
        scalars.append(ref.vt @ dv)
    else:
        scalars.append(sol.p[vf.param_index(vf.forcing_param)] - sol.om2)
    return np.concatenate([res_a, res_b, np.asarray(scalars)])


def torus_jacobian_pattern(vf: VectorField, sol: TorusSolution,
                           keep=None) -> CollocationPattern:
    """Layout of :func:`torus_jacobian` for the shape of ``sol``; ``keep``
    lists the extra columns to use (full column numbers, default all).

    The tail rows are blocks (b)-(h); their values follow in this order:
    F on the vT columns and -R F on the v0 columns of every segment, the
    varrho column of (b), then the scalar rows.
    """
    n_seg, nbp, n = sol.x_seg.shape
    X_seg, X, q, rows_seg, rows = _layout(sol, vf)
    col_T0, col_T = X, X + 1
    col_om1, col_om2, col_rho = X + 2 + q, X + 2 + q + 1, X + 2 + q + 2

    # (b) coupling rows (i, d): F on the vT columns and -R F on the v0
    # columns of every segment j, then the varrho column
    seg, d = np.arange(n_seg), np.arange(n)
    r_b = np.broadcast_to((seg[:, None, None] * n + d), (n_seg, n_seg, n)).ravel()
    c_v0 = np.broadcast_to(seg[None, :, None] * X_seg + d, (n_seg, n_seg, n)).ravel()
    r = [r_b, r_b, np.arange(n_seg * n)]
    c = [c_v0 + (nbp - 1) * n, c_v0, np.full(n_seg * n, col_rho)]

    # (c)-(h) scalar rows
    off_c = n_seg * n
    r.append(off_c + np.array([0, 1, 1, 2, 2, 2]))
    c.append([col_T0, col_T, col_om2, col_rho, col_om1, col_om2])
    r.append(np.full(n, off_c + 3))
    c.append(d)  # segment 1, first base point
    if vf.autonomous:
        r.append(np.full(n, off_c + 4))
        c.append(d)
    else:
        r.append(np.full(2, off_c + 4))
        c.append([X + 2 + vf.param_index(vf.forcing_param), col_om2])
    # an autonomous field has d/dT0 = -T f_t = 0 on the collocation rows
    extra_src = [-1 if vf.autonomous else 1, 0] + [2 + i for i in range(q)] \
        + [-1] * len(EXTRA_PARAMS)
    return CollocationPattern(sol.mesh, n, n_seg, extra_src, np.concatenate(r),
                              np.concatenate(c), rows - n_seg * rows_seg, keep)


def torus_jacobian(vf: VectorField, sol: TorusSolution,
                   pattern: Optional[CollocationPattern] = None) -> CollocationJacobian:
    """Jacobian of :func:`torus_residual` in the layout of ``pattern``
    (default: all columns)."""
    n = sol.dim_state
    seg = colloc.segment_jacobian(vf, sol.mesh, sol.x_seg, sol.T, sol.T0, sol.p)
    F = sol.coupling.F
    RF = rotation_matrix(sol.N, sol.varrho) @ F
    dcoup = -(rotation_matrix_deriv(sol.N, sol.varrho) @ F) @ sol.x_seg[:, 0, :]
    scalars = [1.0, 1.0, 2.0 * np.pi / sol.om2**2, 1.0, -1.0 / sol.om2, sol.om1 / sol.om2**2]
    phase_t = sol.reference.vt if vf.autonomous else [1.0, -1.0]
    tail = np.concatenate([
        np.repeat(F.ravel(), n), np.repeat(-RF.ravel(), n), dcoup.ravel(),
        scalars, sol.reference.vphi, phase_t,
    ])
    return CollocationJacobian(pattern or torus_jacobian_pattern(vf, sol), seg, tail)


# -- initial solutions --------------------------------------------------------


def init_from_samples(vf: VectorField, samples, params: dict,
                      mesh: colloc.SegmentMesh) -> TorusSolution:
    """Torus guess from the states of every segment at the mesh's base points.

    ``samples`` has shape (2N+1, ntst*degree + 1, n): segment j's states at
    the times T * :func:`colloc.distinct_basepoints` of one return period
    T = 2*pi/om2.  ``params`` maps every system parameter name plus
    om1/om2/varrho to its value; negative om1 and varrho are preserved
    (opposite rotation direction).  The reference section is frozen from
    the samples themselves.
    """
    samples = np.asarray(samples, dtype=float)
    tau, index = colloc.distinct_basepoints(mesh)
    if samples.ndim != 3 or samples.shape[1:] != (tau.size, vf.dim_state):
        raise InputError(f"samples have shape {samples.shape}, expected (segments, "
                         f"{tau.size} base-point times, {vf.dim_state} states)")
    n_seg = samples.shape[0]
    if n_seg < 3 or n_seg % 2 == 0:
        raise InputError(f"segment count must be odd and >= 3 (2N+1), got {n_seg}")
    missing = [k for k in list(vf.param_names) + list(EXTRA_PARAMS) if k not in params]
    if missing:
        raise InputError(f"params missing entries for: {', '.join(missing)}")
    om1, om2, varrho = (float(params[k]) for k in EXTRA_PARAMS)
    if om2 <= 0:
        raise InputError("om2 must be positive (it sets the return period T = 2*pi/om2)")
    p = np.array([float(params[name]) for name in vf.param_names])
    sol = TorusSolution(mesh=mesh, coupling=dft_matrix((n_seg - 1) // 2), x_seg=samples[:, index],
                        T0=0.0, T=2.0 * np.pi / om2, p=p, om1=om1, om2=om2, varrho=varrho,
                        reference=None)
    return update_reference(vf, sol)


def default_tr_eps(po) -> float:
    """Default perturbation size: 0.1 x RMS amplitude of the orbit."""
    x = po.traj.x_bp
    dev = x - x.mean(axis=0)
    return 0.1 * float(np.sqrt((dev**2).sum(axis=1).mean()))


def rotate_eigvec(v: np.ndarray) -> np.ndarray:
    """Rescale a complex eigenvector so <Re v, Im v> = 0.

    The eigenvector keeps its span under multiplication by e^{i theta};
    the orthogonalizing angle solves tan(2 theta) = 2<vR,vI> / (<vI,vI> -
    <vR,vR>) via the two-argument arctangent.
    """
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    vR, vI = v.real, v.imag
    theta = 0.5 * np.arctan2(2.0 * (vR @ vI), (vI @ vI) - (vR @ vR))
    v = v * np.exp(1j * theta)
    return v


def init_from_TR(
    vf: VectorField,
    po,
    floq,
    N: int,
    eps: Optional[float] = None,
) -> TorusSolution:
    """Torus guess from a Neimark-Sacker (TR) periodic orbit.

    Builds the complex Floquet function u(t) = e^{-i alpha (t-t0)/T}
    M(t, t0) v at the distinct base-point times t0 + T * tau
    (:func:`colloc.distinct_basepoints`), turns it into the perturbation
    surface uhat(theta1, t) = cos(theta1) Re u - sin(theta1) Im u, and
    seeds segment j with x_p(t) + eps * uhat(phi_j + om1 (t - t0), t),
    where om1 = alpha/T, om2 = 2*pi/T and varrho = alpha/(2*pi).  x_p is
    the orbit's first base point at each of those times, so eps = 0 gives
    the collocated orbit; :func:`init_from_samples` builds the guess.
    Continuing it needs the problem's ``start_border`` set to the
    amplitude direction (:func:`tr_perturbation_direction`, padded with
    zeros), as ``store.restart_TR2tor`` does: the default border stalls the
    start correction at a residual of 1.096e-8 at every N tried (5 to 50).
    """
    if floq.tr_eigvec is None or floq.tr_angle is None:
        raise InputError("Floquet data carries no TR pair (complex multiplier + eigenvector)")
    if N < 1:
        raise InputError("need at least one Fourier mode")
    mesh = po.traj.mesh
    T = po.period
    t0 = po.traj.t_offset
    alpha = abs(float(floq.tr_angle))
    v = rotate_eigvec(floq.tr_eigvec)
    if eps is None:
        eps = default_tr_eps(po)

    tau, index = colloc.distinct_basepoints(mesh)
    # transition_matrix records t0 + T too, after the times asked for
    Phi = transition_matrix(vf, t0, T, po.traj.x_bp[0], po.p, sample_times=t0 + T * tau).Phi
    u_t = np.exp(-1j * alpha * tau)[:, None] * (Phi[:tau.size] @ v)
    theta1 = dft_matrix(N).angles[:, None] + alpha * tau  # (2N+1, times)
    uhat = np.cos(theta1)[:, :, None] * u_t.real - np.sin(theta1)[:, :, None] * u_t.imag
    x_p = po.traj.x_bp[np.flatnonzero(np.diff(index, prepend=-1))]
    params = dict(zip(vf.param_names, po.p), om1=alpha / T, om2=2.0 * np.pi / T,
                  varrho=alpha / (2.0 * np.pi))
    return init_from_samples(vf, x_p + eps * uhat, params, mesh)


def tr_perturbation_direction(sol: TorusSolution) -> np.ndarray:
    """Amplitude direction of a TR-initialized torus (states part only).

    The segment mean over the uniform angle grid recovers the underlying
    periodic orbit exactly (the perturbation is a pure first harmonic), so
    the deviation from the mean is the d/d(eps) direction used to seed the
    first continuation tangent.  Padded with zeros to ``n_unknowns`` it is
    the ``start_border`` of a TR-seeded torus problem; the default border
    (the first active name) stalls at 1.096e-8 at every N tried (5 to 50).
    """
    mean = sol.x_seg.mean(axis=0, keepdims=True)
    return (sol.x_seg - mean).ravel()


# -- evaluation, export, validation -------------------------------------------


def eval_circle(sol: TorusSolution, t) -> np.ndarray:
    """States of all segments at physical time t, shape (2N+1, n), or at
    every time of an array t, shape (len(t), 2N+1, n)."""
    side_by_side = sol.x_seg.swapaxes(0, 1).reshape(sol.mesh.n_base, -1)
    x = colloc.interpolate(colloc.Trajectory(sol.mesh, side_by_side, sol.T, sol.T0), t)
    return x.reshape(x.shape[:-1] + (sol.n_seg, sol.dim_state))


def eval_torus(sol: TorusSolution, theta1, theta2: float) -> np.ndarray:
    """Torus function u(theta1, theta2) via the characteristic transform.

    Evaluates v(theta1 - varrho*theta2, theta2/om2): trigonometric
    interpolation across segments in phi, Lagrange interpolation in t.
    """
    t = sol.T0 + float(theta2) / sol.om2
    circle = eval_circle(sol, t)
    phi = np.asarray(theta1, dtype=float) - sol.varrho * float(theta2)
    return trig_interpolate(sol.coupling, circle, phi)


@dataclass
class TorusGrid:
    theta1: np.ndarray  # (2N+1,)
    theta2: np.ndarray  # (theta2_count,)
    values: np.ndarray  # (2N+1, theta2_count, n)


def export_torus_mesh(sol: TorusSolution, theta2_count: int) -> TorusGrid:
    """Surface grid u(theta1, theta2) on the segment angles x [0, 2*pi]."""
    if theta2_count < 2:
        raise InputError("theta2_count must be at least 2")
    theta1 = sol.coupling.angles.copy()
    theta2 = np.linspace(0.0, 2.0 * np.pi, theta2_count)
    values = np.empty((sol.n_seg, theta2_count, sol.dim_state))
    for i, th2 in enumerate(theta2):
        values[:, i, :] = eval_torus(sol, theta1, th2)
    return TorusGrid(theta1=theta1, theta2=theta2, values=values)


def invariance_deviation(
    vf: VectorField,
    sol: TorusSolution,
    n_returns: int = 20,
    opts: Optional[IvpOptions] = None,
) -> np.ndarray:
    """Forward-simulation test of torus invariance.

    Integrates from v(phi_1, 0) over ``n_returns`` return periods; after k
    returns the trajectory should sit on the initial circle at angle
    phi_1 + 2*pi*k*varrho.  Returns the Euclidean deviations per return,
    measured against the trigonometric interpolant of the initial circle.
    Each figure includes the integration's own error at ``opts`` besides
    the discretization and correction error of the torus.
    """
    if n_returns < 1:
        raise InputError(f"n_returns must be >= 1, got {n_returns}")
    opts = opts or IvpOptions(rel_tol=1.0e-10, abs_tol=1.0e-12)
    y0 = sol.x_seg[0, 0]
    times = sol.T0 + sol.T * np.arange(n_returns + 1)
    res = integrate(vf, times, y0, sol.p, opts)
    circle0 = sol.x_seg[:, 0, :]
    devs = np.empty(n_returns)
    phi1 = sol.coupling.angles[0]
    for k in range(1, n_returns + 1):
        expected = trig_interpolate(sol.coupling, circle0,
                                    np.mod(phi1 + 2.0 * np.pi * k * sol.varrho, 2.0 * np.pi))
        devs[k - 1] = np.linalg.norm(res.y[k] - expected)
    return devs


def solve_fixed(vf: VectorField, sol: TorusSolution, released=("om1", "om2", "varrho"),
                tol: float = contin.CORRECTOR_TOL) -> TorusSolution:
    """Newton-correct a torus guess as an isolated (square) problem.

    Releasing exactly three parameters balances the -3 dimension deficit,
    so the system is square: the torus at the remaining fixed parameters is
    isolated (the phase conditions pin both phases).  The reference section
    stays frozen at the guess during the solve and is re-anchored at the
    result.  Used to re-converge a solution on a finer discretization.
    :func:`linsys.newton_square` runs to a residual max-norm below ``tol``.
    """
    from .linsys import newton_square

    if len(released) != 3:
        raise ConfigError("solve_fixed needs exactly three released parameters")
    problem, u0 = continuation_problem(vf, sol, released, detect_bp=False)
    u, _, _ = newton_square(problem.residual, problem.jacobian, u0, tol, contin.START_MAX_ITER,
                            context="torus correction")
    return update_reference(vf, problem.embed(u))


# -- continuation adapter ------------------------------------------------------


def continuation_problem(
    vf: VectorField,
    start: TorusSolution,
    released,
    bounds: Optional[dict] = None,
    detect_bp: bool = True,
):
    """Wrap a torus solution as a ContinuationProblem; returns (problem, u0).

    The torus kind of :func:`contin.collocation_problem`.  ``released`` is
    the ordered list of parameter names to free; the first four become
    unknowns, any further names are monitored only.  The reference section
    moves: after each accepted point it is re-frozen at that point.
    """
    X, q = start.x_seg.size, vf.dim_params

    def build(full, ref):
        return TorusSolution(start.mesh, start.coupling, full[:X].reshape(start.x_seg.shape),
                             full[X], full[X + 1], full[X + 2:X + 2 + q], *full[X + 2 + q:], ref)

    full0 = np.concatenate([start.x_seg.ravel(), [start.T0, start.T], start.p,
                            [start.om1, start.om2, start.varrho]])
    return contin.collocation_problem(
        "torus", vf, start, full0, names(vf), 4, released,
        bounds=bounds, detect_bp=detect_bp,
        build=build,
        residual=lambda sol: torus_residual(vf, sol),
        jacobian=lambda sol, pattern: torus_jacobian(vf, sol, pattern),
        pattern=lambda keep: torus_jacobian_pattern(vf, start, keep),
        reference=lambda sol: reference_from_solution(vf, sol),
    )
