"""Vector-field abstraction and the built-in example systems.

A :class:`VectorField` bundles the right-hand side of an autonomous or
periodically forced ODE with its analytic Jacobians.  Parameters travel as a
flat vector alongside a parallel name list; names are resolved to indices
once per run.  Fields without analytic Jacobians fall back to central finite
differences.  Evaluation is pure, instances are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InputError, NotFoundError

# step used by the finite-difference fallbacks: max(1e-7, 1e-7*|value|)
_FD_EPS = 1.0e-7


@dataclass(frozen=True)
class VectorField:
    """ODE right-hand side f(t, y, p) with optional analytic Jacobians.

    ``rhs`` maps (t, y, p) to an array of length ``dim_state``. ``jac_state``,
    ``jac_params`` and ``jac_time`` return df/dy (n, n), df/dp (n, q) and
    df/dt (n,).  For autonomous systems the t argument is ignored and
    jac_time is identically zero.  Vectorized fields additionally accept a
    (n, k) state block with t scalar or (k,), returning (n, k) values and
    (n, n, k) / (n, q, k) Jacobian stacks; the engine batches collocation
    evaluations through that path.

    Non-autonomous fields must name the parameter that carries the forcing
    frequency (``forcing_param``) so the torus problem can impose the
    frequency coupling automatically.
    """

    dim_state: int
    dim_params: int
    param_names: tuple
    autonomous: bool
    rhs: Callable
    jac_state: Optional[Callable] = None
    jac_params: Optional[Callable] = None
    jac_time: Optional[Callable] = None
    forcing_param: Optional[str] = None
    vectorized: bool = False
    name: Optional[str] = None

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_params < 0:
            raise InputError("dim_state must be >= 1 and dim_params >= 0")
        if len(self.param_names) != self.dim_params:
            raise InputError(
                f"param_names has {len(self.param_names)} entries, expected {self.dim_params}"
            )
        if self.forcing_param is not None and self.forcing_param not in self.param_names:
            raise ConfigError(
                f"forcing parameter {self.forcing_param!r} is not among {self.param_names}"
            )
        if not self.autonomous and self.forcing_param is None:
            raise ConfigError(
                "non-autonomous fields must declare which parameter is the forcing frequency"
            )

    def param_index(self, pname: str) -> int:
        try:
            return self.param_names.index(pname)
        except ValueError:
            raise ConfigError(
                f"unknown parameter {pname!r}; known parameters: {', '.join(self.param_names)}"
            ) from None


def _check_args(vf: VectorField, y, p):
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    if y.shape[0] != vf.dim_state:
        raise InputError(f"state has length {y.shape[0]}, expected {vf.dim_state}")
    if p.shape != (vf.dim_params,):
        raise InputError(f"parameter vector has shape {p.shape}, expected ({vf.dim_params},)")
    return y, p


def eval_rhs(vf: VectorField, t: float, y, p) -> np.ndarray:
    """Evaluate f(t, y, p); t is ignored for autonomous systems.

    A (n, k) block of states gives the (n, k) values (:func:`rhs_batch`).
    """
    y, p = _check_args(vf, y, p)
    if y.ndim == 2:
        return rhs_batch(vf, t, y, p)
    return np.asarray(vf.rhs(t, y, p), dtype=float)


def eval_jac_state(vf: VectorField, t: float, y, p) -> np.ndarray:
    y, p = _check_args(vf, y, p)
    if vf.jac_state is not None:
        return np.asarray(vf.jac_state(t, y, p), dtype=float)
    n = vf.dim_state
    J = np.empty((n, n))
    for j in range(n):
        h = max(_FD_EPS, _FD_EPS * abs(y[j]))
        yp = y.copy()
        ym = y.copy()
        yp[j] += h
        ym[j] -= h
        J[:, j] = (vf.rhs(t, yp, p) - vf.rhs(t, ym, p)) / (2.0 * h)
    return J


def eval_jac_params(vf: VectorField, t: float, y, p) -> np.ndarray:
    y, p = _check_args(vf, y, p)
    if vf.jac_params is not None:
        return np.asarray(vf.jac_params(t, y, p), dtype=float)
    n, q = vf.dim_state, vf.dim_params
    J = np.empty((n, q))
    for j in range(q):
        h = max(_FD_EPS, _FD_EPS * abs(p[j]))
        pp = p.copy()
        pm = p.copy()
        pp[j] += h
        pm[j] -= h
        J[:, j] = (vf.rhs(t, y, pp) - vf.rhs(t, y, pm)) / (2.0 * h)
    return J


def eval_jac_time(vf: VectorField, t: float, y, p) -> np.ndarray:
    y, p = _check_args(vf, y, p)
    if vf.autonomous:
        return np.zeros(vf.dim_state)
    if vf.jac_time is not None:
        return np.asarray(vf.jac_time(t, y, p), dtype=float)
    h = max(_FD_EPS, _FD_EPS * abs(t))
    return (vf.rhs(t + h, y, p) - vf.rhs(t - h, y, p)) / (2.0 * h)


# -- batched evaluation helpers (collocation assembly hot path) --------------


def rhs_batch(vf: VectorField, ts: np.ndarray, Y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """f at k points; Y is (n, k), ts scalar or (k,); returns (n, k)."""
    if vf.vectorized:
        return np.asarray(vf.rhs(ts, Y, p), dtype=float)
    k = Y.shape[1]
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (k,))
    out = np.empty_like(Y)
    for i in range(k):
        out[:, i] = vf.rhs(ts[i], Y[:, i], p)
    return out


def jac_state_batch(vf: VectorField, ts, Y, p) -> np.ndarray:
    """df/dy at k points; returns (n, n, k)."""
    if vf.vectorized and vf.jac_state is not None:
        return np.asarray(vf.jac_state(ts, Y, p), dtype=float)
    n, k = Y.shape
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (k,))
    out = np.empty((n, n, k))
    for i in range(k):
        out[:, :, i] = eval_jac_state(vf, ts[i], Y[:, i], p)
    return out


def jac_params_batch(vf: VectorField, ts, Y, p) -> np.ndarray:
    """df/dp at k points; returns (n, q, k)."""
    if vf.vectorized and vf.jac_params is not None:
        return np.asarray(vf.jac_params(ts, Y, p), dtype=float)
    n, k = Y.shape
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (k,))
    out = np.empty((n, vf.dim_params, k))
    for i in range(k):
        out[:, :, i] = eval_jac_params(vf, ts[i], Y[:, i], p)
    return out


def jac_time_batch(vf: VectorField, ts, Y, p) -> np.ndarray:
    """df/dt at k points; returns (n, k)."""
    n, k = Y.shape
    if vf.autonomous:
        return np.zeros((n, k))
    if vf.vectorized and vf.jac_time is not None:
        return np.asarray(vf.jac_time(ts, Y, p), dtype=float)
    ts = np.broadcast_to(np.asarray(ts, dtype=float), (k,))
    out = np.empty((n, k))
    for i in range(k):
        out[:, i] = eval_jac_time(vf, ts[i], Y[:, i], p)
    return out


# -- built-in systems ---------------------------------------------------------


def builtin_langford() -> VectorField:
    """Three-state autonomous system with parameters (om, rho, eps).

    x1' = (x3 - 0.7) x1 - om x2
    x2' = om x1 + (x3 - 0.7) x2
    x3' = 0.6 + x3 - x3^3/3 - (x1^2 + x2^2)(1 + rho x3) + eps x3 x1^3

    At eps = 0 the system is equivariant under rotations of the (x1, x2)
    plane and carries a family of circular periodic orbits.
    """

    # cubes as products: numpy's x**3 on an array calls pow() per element,
    # about 50x slower than x*x*x at the 8,080 nodes of an N = 50 torus;
    # np.array rather than np.stack, whose overhead triples a one-state call
    def rhs(t, y, p):
        x1, x2, x3 = y[0], y[1], y[2]
        om, rho, eps = p[0], p[1], p[2]
        return np.array(
            [
                (x3 - 0.7) * x1 - om * x2,
                om * x1 + (x3 - 0.7) * x2,
                0.6 + x3 - x3 * x3 * x3 / 3.0 - (x1**2 + x2**2) * (1.0 + rho * x3)
                + eps * x3 * (x1 * x1 * x1),
            ]
        )

    def jac_state(t, y, p):
        x1, x2, x3 = y[0], y[1], y[2]
        om, rho, eps = p[0], p[1], p[2]
        J = np.empty((3, 3) + np.shape(x1))
        J[0, 0] = J[1, 1] = x3 - 0.7
        J[0, 1], J[0, 2] = -om, x1
        J[1, 0], J[1, 2] = om, x2
        J[2, 0] = -2.0 * x1 * (1.0 + rho * x3) + 3.0 * eps * x3 * x1**2
        J[2, 1] = -2.0 * x2 * (1.0 + rho * x3)
        J[2, 2] = 1.0 - x3**2 - rho * (x1**2 + x2**2) + eps * (x1 * x1 * x1)
        return J

    def jac_params(t, y, p):
        x1, x2, x3 = y[0], y[1], y[2]
        J = np.zeros((3, 3) + np.shape(x1))
        J[0, 0], J[1, 0] = -x2, x1
        J[2, 1] = -x3 * (x1**2 + x2**2)
        J[2, 2] = x3 * (x1 * x1 * x1)
        return J

    return VectorField(
        dim_state=3,
        dim_params=3,
        param_names=("om", "rho", "eps"),
        autonomous=True,
        rhs=rhs,
        jac_state=jac_state,
        jac_params=jac_params,
        vectorized=True,
        name="langford",
    )


def builtin_vdp() -> VectorField:
    """Harmonically forced Van der Pol oscillator in first-order form.

    x'' - c (1 - x^2) x' + x = a cos(Om2 t), states (x, x'), parameters
    (Om2, c, a) with Om2 the forcing frequency.
    """

    def rhs(t, y, p):
        x, xd = y[0], y[1]
        om, c, a = p[0], p[1], p[2]
        return np.array([xd, c * (1.0 - x**2) * xd - x + a * np.cos(om * t)])

    def jac_state(t, y, p):
        x, xd = y[0], y[1]
        c = p[1]
        J = np.empty((2, 2) + np.shape(x))
        J[0, 0], J[0, 1] = 0.0, 1.0
        J[1, 0] = -2.0 * c * x * xd - 1.0
        J[1, 1] = c * (1.0 - x**2)
        return J

    def jac_params(t, y, p):
        x, xd = y[0], y[1]
        om, _, a = p[0], p[1], p[2]
        t = np.asarray(t, dtype=float)
        J = np.zeros((2, 3) + np.shape(x))
        J[1, 0] = -a * t * np.sin(om * t)
        J[1, 1] = (1.0 - x**2) * xd
        J[1, 2] = np.cos(om * t)
        return J

    def jac_time(t, y, p):
        om, a = p[0], p[2]
        z = np.zeros_like(y[0])
        return np.stack([z, -a * om * np.sin(om * np.asarray(t, dtype=float)) + z])

    return VectorField(
        dim_state=2,
        dim_params=3,
        param_names=("Om2", "c", "a"),
        autonomous=False,
        rhs=rhs,
        jac_state=jac_state,
        jac_params=jac_params,
        jac_time=jac_time,
        forcing_param="Om2",
        vectorized=True,
        name="vdp",
    )


_BUILTINS = {"langford": builtin_langford, "vdp": builtin_vdp}


def get_builtin(sysname: str) -> VectorField:
    """Look up a built-in system by name."""
    try:
        factory = _BUILTINS[sysname]
    except KeyError:
        raise NotFoundError(
            f"unknown builtin system {sysname!r}; available: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return factory()
