"""Adaptive explicit initial-value integration and transition matrices.

Wraps scipy's Dormand-Prince 5(4) pair (``RK45``: embedded error estimate,
PI step control, quartic dense output) behind the package's vector-field
abstraction.  It serves simulation (start data, the invariance oracle) and
:func:`transition_matrix`, which propagates the TR eigenvector in
``torus.init_from_TR`` and is the reference the collocation Floquet
multipliers of ``po.floquet`` are tested against.  The variational equation
is integrated jointly with the state as an augmented system of size n + n^2,
so it never inherits interpolation error from a frozen reference.

:func:`integrate` also takes a (k, n) block of initial states as one RK45
system of size k n and returns ``y`` of shape (len(t), k, n).  RK45 tests
the RMS of the scaled error over all components, and a member's own RMS is
at most sqrt(k) times the block's, so the tolerances are divided by
sqrt(k): each member then meets the tolerance it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import InputError, IntegrationError
from .odesys import VectorField, eval_jac_state, eval_rhs


@dataclass
class IvpOptions:
    rel_tol: float = 1.0e-8
    abs_tol: float = 1.0e-10
    dense_output: bool = False

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InputError("tolerances must be positive")


@dataclass
class IvpResult:
    t: np.ndarray  # requested times
    y: np.ndarray  # states, shape (len(t), n), or (len(t), k, n) for a block
    interpolant: Optional[object] = None  # scipy dense-output callable

    def __call__(self, t):
        """States at ``t``, shape y.shape[1:] + shape(t)."""
        if self.interpolant is None:
            raise InputError("integration was run without dense_output")
        return np.asarray(self.interpolant(t)).reshape(self.y.shape[1:] + np.shape(t))


@dataclass
class TransitionMatrixResult:
    times: np.ndarray
    Phi: np.ndarray  # (len(times), n, n) raw transition matrices
    monodromy: np.ndarray  # Phi(t0+T, t0)


def integrate(vf: VectorField, t_span, y0, p, opts: Optional[IvpOptions] = None) -> IvpResult:
    """Integrate the field through the ordered times in ``t_span``.

    The first entry is the initial time; states are returned at every
    requested time.  ``y0`` is one state (n,) or a block (k, n) integrated
    as one system (module docstring).  Raises :class:`IntegrationError`
    carrying the last valid time when the integrator gives up (stiffness,
    blow-up).
    """
    opts = opts or IvpOptions()
    ts = np.asarray(t_span, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise InputError("t_span must contain at least two times")
    d = np.diff(ts)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise InputError("t_span must be strictly monotone")
    n = vf.dim_state
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim not in (1, 2) or y0.shape[-1] != n:
        raise InputError(f"y0 has shape {y0.shape}, expected ({n},) or (k, {n})")
    p = np.asarray(p, dtype=float)

    if y0.ndim == 1:
        rhs, scale = (lambda t, y: eval_rhs(vf, t, y, p)), 1.0
    else:
        k = y0.shape[0]
        rhs, scale = (lambda t, y: eval_rhs(vf, t, y.reshape(k, n).T, p).T.ravel()), np.sqrt(k)
    sol = solve_ivp(
        rhs,
        (ts[0], ts[-1]),
        y0.ravel(),
        method="RK45",
        t_eval=ts,
        rtol=opts.rel_tol / scale,
        atol=opts.abs_tol / scale,
        dense_output=opts.dense_output,
    )
    if not sol.success:
        last = sol.t[-1] if sol.t.size else ts[0]
        raise IntegrationError(f"integration failed at t={last}: {sol.message}", last_time=last)
    return IvpResult(t=sol.t, y=sol.y.T.reshape((-1,) + y0.shape), interpolant=sol.sol)


def transition_matrix(
    vf: VectorField,
    t0: float,
    T: float,
    y0,
    p,
    sample_times=None,
    opts: Optional[IvpOptions] = None,
) -> TransitionMatrixResult:
    """Solve the variational equation Phi' = f_x Phi along the flow.

    The state starts at ``y0`` at time ``t0`` and is integrated jointly with
    Phi over [t0, t0+T].  ``sample_times`` (absolute times within that
    window) select where Phi is recorded; the monodromy M = Phi(t0+T, t0)
    is always returned.
    """
    opts = opts or IvpOptions(rel_tol=1.0e-10, abs_tol=1.0e-12)
    if T <= 0:
        raise InputError("transition_matrix needs a positive duration T")
    n = vf.dim_state
    p = np.asarray(p, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (n,):
        raise InputError(f"y0 has shape {y0.shape}, expected ({n},)")

    if sample_times is None:
        ts = np.array([t0, t0 + T])
    else:
        ts = np.asarray(sample_times, dtype=float)
        if ts.min() < t0 - 1e-12 or ts.max() > t0 + T + 1e-12:
            raise InputError("sample_times must lie within [t0, t0+T]")
        ts = np.unique(np.concatenate([ts, [t0, t0 + T]]))

    def aug(t, z):
        y = z[:n]
        Phi = z[n:].reshape(n, n)
        fy = eval_jac_state(vf, t, y, p)
        return np.concatenate([eval_rhs(vf, t, y, p), (fy @ Phi).ravel()])

    z0 = np.concatenate([y0, np.eye(n).ravel()])
    sol = solve_ivp(
        aug,
        (t0, t0 + T),
        z0,
        method="RK45",
        t_eval=ts,
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
    )
    if not sol.success:
        last = sol.t[-1] if sol.t.size else t0
        raise IntegrationError(
            f"variational integration failed at t={last}: {sol.message}", last_time=last
        )
    Phi_hist = sol.y[n:, :].T.reshape(-1, n, n).copy()
    return TransitionMatrixResult(times=sol.t, Phi=Phi_hist, monodromy=Phi_hist[-1])
