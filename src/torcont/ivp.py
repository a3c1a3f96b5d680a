"""Adaptive explicit initial-value integration and transition matrices.

Runs ``DOP853``, the explicit Runge-Kutta method of order 8 of Dormand &
Prince (Hairer, Norsett & Wanner, *Solving ODEs I*; error estimates of
orders 5 and 3, dense output of order 7), behind the package's vector-field
abstraction.  It serves simulation (start data, the invariance oracle) and
:func:`transition_matrix`, which propagates the TR eigenvector in
``torus.init_from_TR`` and is the reference the collocation Floquet
multipliers of ``po.floquet`` are tested against.  The variational equation
is integrated jointly with the state as an augmented system of size n + n^2,
so it never inherits interpolation error from a frozen reference.

The integrator is :mod:`torcont._dop853`, a port of the code that scipy
1.17.1's ``solve_ivp(fun, t_span, y0, method="DOP853", t_eval=...)`` runs:
from ``scipy/integrate/_ivp/rk.py`` the functions ``rk_step``,
``RungeKutta._step_impl``, ``DOP853._estimate_error_norm`` and the DOP853
dense output, from ``_ivp/common.py`` ``select_initial_step`` and ``norm``,
the tables of ``_ivp/dop853_coefficients.py`` and the ``t_eval`` loop of
``solve_ivp`` in ``_ivp/ivp.py``.  It returns bit-identical states after
the same right-hand-side evaluations.  ``scipy.integrate`` is not imported:
it loads ``scipy.optimize`` and ``scipy.special``, about 0.3 s of every
run's start-up on a 2-vCPU host.

DOP853 is used because the package integrates at tight tolerances
(``rel_tol`` 1e-8 to 1e-10), where an eighth-order method takes far longer
steps than the fifth-order pair ``RK45``: the 100-period Langford transient
of the ``po1`` start needs about a quarter of RK45's right-hand-side
evaluations.  It is not more accurate at a given tolerance in general: on
the exact Langford circle (eps = 0, rho = 1.5, 20 periods, ``rel_tol``
1e-10) it deviates by 6.6e-10, RK45 by 2.4e-10.

:func:`integrate` also takes a (k, n) block of initial states as one
system of size N = k n and returns ``y`` of shape (len(t), k, n).  DOP853
accepts a step when

    |h| ||e5||^2 / sqrt(N (||e5||^2 + 0.01 ||e3||^2)) <= 1,

with e5 and e3 the fifth- and third-order error estimates scaled by the
tolerances.  The norm is of degree one in the scaled errors, so dividing
the tolerances by sqrt(k) multiplies it by sqrt(k).  Write a and b for a
member's squared norms of e5 and e3 and A = a / alpha, B = b / beta for the
block's.  The member would pass its own test whenever the block passes if
A / sqrt(A + 0.01 B) >= a / sqrt(a + 0.01 b), that is, if

    0.01 (alpha^2 - beta) B <= alpha (1 - alpha) A.

This holds whenever beta >= alpha^2: a member's share of the block's
third-order estimate is at least the square of its share of the
fifth-order one, as for members of similar size (alpha = beta = 1/k).  It
is not guaranteed otherwise: a large third-order estimate elsewhere in the
block damps the norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _dop853
from .errors import InputError, IntegrationError
from .odesys import VectorField, eval_jac_state, eval_rhs


@dataclass
class IvpOptions:
    rel_tol: float = 1.0e-8
    abs_tol: float = 1.0e-10

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InputError("tolerances must be positive")


@dataclass
class IvpResult:
    t: np.ndarray  # requested times
    y: np.ndarray  # states, shape (len(t), n), or (len(t), k, n) for a block


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
    carrying the time where the integrator gave up (stiffness, blow-up).
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
    if y0.ndim not in (1, 2) or y0.shape[-1] != n or y0.size == 0:
        raise InputError(f"y0 has shape {y0.shape}, expected ({n},) or (k, {n}) with k >= 1")
    p = np.asarray(p, dtype=float)

    if y0.ndim == 1:
        rhs, scale = (lambda t, y: eval_rhs(vf, t, y, p)), 1.0
    else:
        k = y0.shape[0]
        rhs, scale = (lambda t, y: eval_rhs(vf, t, y.reshape(k, n).T, p).T.ravel()), np.sqrt(k)
    y = _solve(rhs, ts, y0.ravel(), opts.rel_tol / scale, opts.abs_tol / scale, "integration")
    return IvpResult(t=ts.copy(), y=y.T.reshape((-1,) + y0.shape))


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
    z = _solve(aug, ts, z0, opts.rel_tol, opts.abs_tol, "variational integration")
    Phi_hist = z[n:, :].T.reshape(-1, n, n).copy()
    return TransitionMatrixResult(times=ts, Phi=Phi_hist, monodromy=Phi_hist[-1])


def _solve(fun, ts, z0, rtol, atol, what):
    """States at the times ``ts`` by DOP853, shape (len(z0), len(ts)).

    On failure the :class:`IntegrationError` carries the last time ``fun``
    was evaluated, which is where the integrator gave up.
    """
    if not np.all(np.isfinite(z0)):
        raise InputError("initial states must be finite")
    last = ts[0]

    def field(t, z):
        nonlocal last
        last = t
        return fun(t, z)

    status, message, z = _dop853.solve(field, ts, z0, rtol, atol)
    if status < 0:
        t = float(last)
        raise IntegrationError(f"{what} failed at t={t}: {message}", last_time=t)
    return z
