"""Piecewise-polynomial collocation of K trajectory segments on one mesh.

A segment lives on normalized time tau in [0, 1]; its physical duration T
and offset T0 are separate unknowns so they can carry Jacobian entries in
the torus problem.  Each of ``ntst`` uniform subintervals holds a polynomial
of degree ``m`` through m+1 uniformly spaced base points (endpoints
included); the ODE is enforced at the m Gauss-Legendre nodes of every
subinterval and continuity is imposed as explicit equations between the
duplicated endpoint unknowns, which keeps the Jacobian block structure
uniform across segments: an orbit is K = 1, a torus K = 2N+1.
A samples file's torus seed reaches the base points through the not-a-knot
cubic spline of :func:`sample_onto_basepoints`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .odesys import VectorField, eval_jac_params, eval_jac_state, eval_jac_time, eval_rhs

_MAX_DEGREE = 7


def _bary_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.ones_like(nodes)
    for j in range(nodes.size):
        for k in range(nodes.size):
            if k != j:
                w[j] /= nodes[j] - nodes[k]
    return w


def _lagrange_matrices(nodes: np.ndarray, x: np.ndarray):
    """Values W[i, j] = L_j(x_i) and derivatives D[i, j] = L'_j(x_i).

    Barycentric form; x_i must not coincide with a node for D (Gauss nodes
    never hit the uniform base points for degree <= 7).
    """
    w = _bary_weights(nodes)
    W = np.empty((x.size, nodes.size))
    D = np.empty((x.size, nodes.size))
    for i, xi in enumerate(x):
        d = xi - nodes
        t = w / d
        S = t.sum()
        Sp = -(w / d**2).sum()
        L = t / S
        W[i] = L
        D[i] = L * (-1.0 / d - Sp / S)
    return W, D


def _lagrange_values(nodes: np.ndarray, bw: np.ndarray, xi: float) -> np.ndarray:
    d = xi - nodes
    hit = np.nonzero(d == 0.0)[0]
    out = np.zeros(nodes.size)
    if hit.size:
        out[hit[0]] = 1.0
        return out
    t = bw / d
    return t / t.sum()


@dataclass(frozen=True)
class SegmentMesh:
    """Normalized-time mesh shared by every segment of a problem.

    ``basepoints`` lists the ntst*(degree+1) base-point times (interior
    subinterval endpoints duplicated); ``collnodes`` the ntst*degree
    Gauss-Legendre collocation times.  ``W`` and ``D`` are the per-
    subinterval Lagrange value and derivative matrices in local
    coordinates, identical for all subintervals of the uniform mesh.
    """

    ntst: int
    degree: int
    subinterval_bounds: np.ndarray
    basepoints: np.ndarray
    collnodes: np.ndarray
    local_nodes: np.ndarray  # m+1 uniform base nodes on [0, 1]
    gauss_nodes: np.ndarray  # m Gauss nodes on [0, 1]
    W: np.ndarray  # (m, m+1) values of base polynomials at gauss nodes
    D: np.ndarray  # (m, m+1) local derivatives at gauss nodes
    bary: np.ndarray  # barycentric weights of the local base nodes

    @property
    def n_base(self) -> int:
        return self.ntst * (self.degree + 1)

    @property
    def n_coll(self) -> int:
        return self.ntst * self.degree

    @property
    def h(self) -> float:
        return 1.0 / self.ntst


def build_mesh(ntst: int, degree: int = 4) -> SegmentMesh:
    """Uniform mesh with Gauss-Legendre collocation nodes of given degree."""
    if ntst < 1:
        raise InputError(f"ntst must be >= 1, got {ntst}")
    if not 1 <= degree <= _MAX_DEGREE:
        raise InputError(f"degree must be in [1, {_MAX_DEGREE}], got {degree}")
    bounds = np.linspace(0.0, 1.0, ntst + 1)
    local = np.linspace(0.0, 1.0, degree + 1)
    g, _ = np.polynomial.legendre.leggauss(degree)
    gauss = 0.5 * (g + 1.0)
    W, D = _lagrange_matrices(local, gauss)
    h = 1.0 / ntst
    basepoints = (bounds[:-1, None] + h * local[None, :]).ravel()
    collnodes = (bounds[:-1, None] + h * gauss[None, :]).ravel()
    return SegmentMesh(
        ntst=ntst,
        degree=degree,
        subinterval_bounds=bounds,
        basepoints=basepoints,
        collnodes=collnodes,
        local_nodes=local,
        gauss_nodes=gauss,
        W=W,
        D=D,
        bary=_bary_weights(local),
    )


@dataclass(frozen=True)
class Trajectory:
    """States at the base points of one segment plus its time scaling."""

    mesh: SegmentMesh
    x_bp: np.ndarray  # (ntst*(degree+1), n)
    duration: float
    t_offset: float = 0.0

    @property
    def dim_state(self) -> int:
        return self.x_bp.shape[1]


def n_residual_rows(mesh: SegmentMesh, n: int) -> int:
    return mesh.n_coll * n + (mesh.ntst - 1) * n


def _at_nodes(M: np.ndarray, mesh: SegmentMesh, x: np.ndarray) -> np.ndarray:
    """Per-subinterval combinations M @ (base points) of K segments.

    ``x`` has shape (K, n_base, n); with M = W (values) or D/h (normalized-
    time derivatives) this gives the interpolants at the collocation nodes,
    shape (K, ntst*m, n).
    """
    K, _, n = x.shape
    return (M @ x.reshape(K, mesh.ntst, mesh.degree + 1, n)).reshape(K, -1, n)


def _segments(vf: VectorField, mesh: SegmentMesh, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if n != vf.dim_state:
        raise InputError(f"trajectory carries {n}-dim states, field expects {vf.dim_state}")
    return x.reshape(-1, mesh.n_base, n)


def segment_residual(vf: VectorField, mesh: SegmentMesh, x, T: float, T0: float,
                     p) -> np.ndarray:
    """Collocation and continuity residuals of K segments sharing (T, T0, p).

    ``x`` holds the base-point states, shape (K, n_base, n) or (n_base, n)
    for K = 1.  Per segment: the collocation rows, where at collocation time
    tau the residual is x'(tau) - T f(T0 + T tau, x(tau), p) in normalized
    time, then the continuity rows equating the duplicated base points of
    adjacent subintervals.  Segments follow each other.
    """
    x = _segments(vf, mesh, x)
    K, _, n = x.shape
    Xc = _at_nodes(mesh.W, mesh, x)
    dXc = _at_nodes(mesh.D / mesh.h, mesh, x)
    tc = np.tile(T0 + T * mesh.collnodes, K)
    fc = eval_rhs(vf, tc, Xc.reshape(-1, n).T, p).T
    res_coll = dXc - T * fc.reshape(K, -1, n)
    Xb = x.reshape(K, mesh.ntst, mesh.degree + 1, n)
    res_cont = Xb[:, :-1, -1, :] - Xb[:, 1:, 0, :]
    return np.concatenate([res_coll.reshape(K, -1), res_cont.reshape(K, -1)], axis=1).ravel()


@dataclass
class SegmentJacobian:
    """Values of d(segment_residual) for K segments, in a fixed order.

    ``J_x`` follows the entry order of :func:`segment_pattern`; ``J_T``,
    ``J_T0`` and the columns of ``J_p`` follow :func:`collocation_rows`.
    """

    J_x: np.ndarray  # (K * entries per segment,)
    J_T: np.ndarray  # (K * ntst*m*n,)
    J_T0: np.ndarray  # (K * ntst*m*n,)
    J_p: np.ndarray  # (K * ntst*m*n, q)


def segment_jacobian(vf: VectorField, mesh: SegmentMesh, x, T: float, T0: float,
                     p) -> SegmentJacobian:
    """Jacobian values of :func:`segment_residual` (same arguments); ``J_x``
    runs along the subintervals fastest, as :func:`segment_pattern` lists."""
    x = _segments(vf, mesh, x)
    K, _, n = x.shape
    q = vf.dim_params
    m, m1 = mesh.degree, mesh.degree + 1
    ntst = mesh.ntst

    Yc = np.ascontiguousarray(_at_nodes(mesh.W, mesh, x).reshape(-1, n).T)  # (n, k)
    tau = np.tile(mesh.collnodes, K)
    tc = T0 + T * tau
    fc = eval_rhs(vf, tc, Yc, p)  # (n, k)
    A = eval_jac_state(vf, tc, Yc, p)  # (n, n, k)
    fp = eval_jac_params(vf, tc, Yc, p)  # (n, q, k)
    ft = eval_jac_time(vf, tc, Yc, p)  # (n, k)

    # collocation blocks D/h (x) I_n - T * W (x) f_y of every subinterval, stored
    # (node c, row comp i, base point j, col comp l, subinterval) so each pass runs
    # along the K*ntst subintervals; the continuity entries follow
    subs = K * ntst
    Ac = np.ascontiguousarray(A.reshape(n, n, subs, m).transpose(3, 0, 1, 2))
    DI = (mesh.D / mesh.h)[:, None, :, None] * np.eye(n)[None, :, None, :]
    J_x = np.empty(m * m1 * n * n * subs + K * 2 * (ntst - 1) * n)
    blocks = J_x[: m * m1 * n * n * subs].reshape(m, n, m1, n, subs)
    np.multiply((T * mesh.W)[:, None, :, None, None], Ac[:, :, None], out=blocks)
    np.subtract(DI[..., None], blocks, out=blocks)
    J_x[blocks.size:] = np.tile(np.repeat([1.0, -1.0], (ntst - 1) * n), K)
    # d/dT = -f - T tau f_t ; d/dT0 = -T f_t ; d/dp = -T f_p
    J_T = (-fc.T - (T * tau)[:, None] * ft.T).ravel()
    J_T0 = (-T * ft.T).ravel()
    J_p = (-T * fp.transpose(2, 0, 1)).reshape(tau.size * n, q)
    return SegmentJacobian(J_x=J_x, J_T=J_T, J_T0=J_T0, J_p=J_p)


def segment_pattern(mesh: SegmentMesh, n: int, K: int = 1):
    """(rows, cols) of the ``J_x`` values of :func:`segment_jacobian`.

    Segment s owns rows s*rows_seg... and base-point columns s*n_base*n....
    The dense subinterval blocks come first, indexed (collocation node, row
    component, base point, column component, subinterval of all segments),
    so one subinterval's block, rows (node, row component) by columns (base
    point, column component), is a strided view; then per segment the +1
    and the -1 entries of its continuity rows.
    """
    ntst, m, m1 = mesh.ntst, mesh.degree, mesh.degree + 1
    rows_seg, X_seg = n_residual_rows(mesh, n), mesh.n_base * n
    seg, sub = np.divmod(np.arange(K * ntst), ntst)
    c, i, j, l = np.ix_(range(m), range(n), range(m1), range(n))
    shape = (m, n, m1, n, K * ntst)
    rows_b = np.broadcast_to((c * n + i)[..., None] + seg * rows_seg + sub * m * n, shape)
    cols_b = np.broadcast_to((j * n + l)[..., None] + seg * X_seg + sub * m1 * n, shape)
    k = np.arange(ntst - 1)[:, None]
    cont_rows = (ntst * m * n + k * n + np.arange(n)).ravel()
    last_cols = ((k + 1) * m1 * n - n + np.arange(n)).ravel()
    seg = np.arange(K)[:, None]
    rows_c = seg * rows_seg + np.concatenate([cont_rows, cont_rows])
    cols_c = seg * X_seg + np.concatenate([last_cols, last_cols + n])
    return (np.concatenate([rows_b.ravel(), rows_c.ravel()]),
            np.concatenate([cols_b.ravel(), cols_c.ravel()]))


def collocation_rows(mesh: SegmentMesh, n: int, K: int = 1) -> np.ndarray:
    """Rows of the collocation equations of K segments, in residual order."""
    seg = np.arange(K)[:, None]
    return (seg * n_residual_rows(mesh, n) + np.arange(mesh.n_coll * n)).ravel()


def interpolate(traj: Trajectory, t):
    """Lagrange interpolation of the segment at physical time(s) ``t``.

    Evaluates on the containing subinterval's base points; base-point times
    reproduce the stored values exactly.
    """
    mesh = traj.mesh
    scalar = np.isscalar(t) or np.asarray(t).ndim == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if traj.duration > 0:
        tau = (ts - traj.t_offset) / traj.duration
    else:
        if np.any(np.abs(ts - traj.t_offset) > 1e-12):
            raise InputError("interpolation time outside the segment domain")
        tau = np.zeros_like(ts)
    if np.any(tau < -1e-12) or np.any(tau > 1.0 + 1e-12):
        raise InputError("interpolation time outside the segment domain")
    tau = np.clip(tau, 0.0, 1.0)
    m1 = mesh.degree + 1
    n = traj.x_bp.shape[1]
    out = np.empty((ts.size, n))
    Xb = traj.x_bp.reshape(mesh.ntst, m1, n)
    ks = np.minimum((tau * mesh.ntst).astype(int), mesh.ntst - 1)
    for i, (ti, k) in enumerate(zip(tau, ks)):
        loc = ti * mesh.ntst - k
        L = _lagrange_values(mesh.local_nodes, mesh.bary, loc)
        out[i] = L @ Xb[k]
    return out[0] if scalar else out


def distinct_basepoints(mesh: SegmentMesh):
    """(tau, index): the ntst*degree + 1 increasing distinct base-point times
    in [0, 1] and, for every base point, the position of its time in ``tau``.

    A subinterval's last base point takes the next one's first time, which
    ``np.unique(mesh.basepoints)`` can keep twice, an ulp apart."""
    m = mesh.degree
    index = (m * np.arange(mesh.ntst)[:, None] + np.arange(m + 1)).ravel()
    tau = np.append(mesh.basepoints.reshape(mesh.ntst, m + 1)[:, :-1], mesh.basepoints[-1])
    return tau, index


def sample_onto_basepoints(mesh: SegmentMesh, t_grid, values, duration):
    """Cubic-spline resample of (t_grid, values) at the distinct base-point
    times ``duration * tau`` (:func:`distinct_basepoints`) of a samples file.

    The grid needs at least 3 strictly increasing, finite times and finite
    values (:class:`InputError` otherwise).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if t_grid.ndim != 1 or values.shape[0] != t_grid.size:
        raise InputError("samples must be given as (t_grid, values) with matching lengths")
    if t_grid.size < 3:
        raise InputError(f"a sample grid needs at least 3 times, got {t_grid.size}")
    if not np.all(np.isfinite(t_grid)):
        raise InputError("sample times must be finite")
    if not np.all(np.isfinite(values)):
        raise InputError("sample values must be finite")
    stalled = np.flatnonzero(np.diff(t_grid) <= 0)
    if stalled.size:
        i = stalled[0]
        raise InputError(f"sample times must be strictly increasing; time {i + 1} is "
                         f"{t_grid[i + 1]!r} after {t_grid[i]!r}")
    tb = duration * distinct_basepoints(mesh)[0]
    lo, hi = t_grid[0], t_grid[-1]
    span = max(hi - lo, 1.0)
    if tb.min() < lo - 1e-9 * span or tb.max() > hi + 1e-9 * span:
        raise InputError("sample grid does not cover the segment time span")
    return _spline_eval(t_grid, _spline_coefficients(t_grid, values), np.clip(tb, lo, hi))


def _spline_coefficients(x, y):
    """Coefficients c (4, n-1, ...) of the not-a-knot cubic spline through (x, y).

    scipy's ``CubicSpline(x, y, axis=0)`` construction: the slopes s solve its
    3x3 system for n = 3 and its tridiagonal system otherwise, then the
    Hermite form.  ``np.linalg.solve`` takes the system as a dense n x n
    matrix (8 MB at n = 1,000), so the spline agrees with scipy's banded
    solve to rounding, not bit for bit.
    """
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape([dx.shape[0]] + [1] * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    A = np.zeros((n, n))
    b = np.empty((n,) + y.shape[1:])
    i = np.arange(1, n - 1)
    A[i, i - 1] = dx[1:]
    A[i, i] = 2 * (dx[:-1] + dx[1:])
    A[i, i + 1] = dx[:-1]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    if n == 3:  # the parabola through the points
        A[0, :2] = A[2, 1:] = 1
        b[0], b[2] = 2 * slope[0], 2 * slope[1]
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        A[0, :2] = dx[1], d0
        A[-1, -2:] = d1, dx[-2]
        b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d0
        b[-1] = (dxr[-1]**2 * slope[-2] + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    s = np.linalg.solve(A, b.reshape(n, -1)).reshape(b.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _spline_eval(x, c, t):
    """The spline of breakpoints ``x`` and coefficients ``c`` at ``t`` in [x[0], x[-1]].

    In ``PPoly``'s order: the ascending power sum on the interval with
    x[i] <= t < x[i+1], closed on the right at the last interval.
    """
    i = np.minimum(np.searchsorted(x, t, "right") - 1, x.size - 2)
    s = (t - x[i]).reshape((-1,) + (1,) * (c.ndim - 2))
    c = c[:, i]
    # PPoly's sum starts at 0.0, which turns a -0.0 coefficient into +0.0
    return 0.0 + c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)
