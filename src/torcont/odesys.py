"""Vector-field abstraction and the built-in example systems.

A :class:`VectorField` bundles the right-hand side of an autonomous or
periodically forced ODE with its analytic Jacobians.  Parameters travel as a
flat vector alongside a parallel name list; names are resolved to indices
once per run.  Four evaluators, :func:`eval_rhs`, :func:`eval_jac_state`,
:func:`eval_jac_params` and :func:`eval_jac_time`, take one state or an
(n, k) block of states; a missing Jacobian falls back to one central
finite-difference helper, which perturbs a whole block at once.  Evaluation
is pure, instances are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InputError, NotFoundError

# step of the finite-difference fallback: max(1e-7, 1e-7*|value|)
_FD_EPS = 1.0e-7


@dataclass(frozen=True)
class VectorField:
    """ODE right-hand side f(t, y, p) with optional analytic Jacobians.

    ``rhs`` maps (t, y, p) to an array of length ``dim_state``. ``jac_state``,
    ``jac_params`` and ``jac_time`` return df/dy (n, n), df/dp (n, q) and
    df/dt (n,); a missing one is taken by central differences of ``rhs``.
    For autonomous systems the t argument is ignored and jac_time is
    identically zero.  The evaluators also take an (n, k) block of states
    with t scalar or (k,) and append the k axis to each result.  A
    vectorized field receives the block whole; any other field is called
    column by column.

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


def _call(vf: VectorField, fun: Callable, t, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """fun(t, y, p) as a float array; column by column on a block unless vectorized."""
    if y.ndim == 1 or vf.vectorized:
        return np.asarray(fun(t, y, p), dtype=float)
    ts = np.broadcast_to(np.asarray(t, dtype=float), y.shape[1:])
    return np.stack([np.asarray(fun(ts[i], y[:, i], p), dtype=float)
                     for i in range(y.shape[1])], axis=-1)


def _central_difference(g: Callable, x: np.ndarray, shape: tuple) -> np.ndarray:
    """Central differences of g, whose values have ``shape``, in each x[j].

    Returns (n, len(x)) or, on a block, (n, len(x), k).  Row x[j] moves by
    max(_FD_EPS, _FD_EPS |x[j]|), per column when x[j] is (k,), so a block
    takes 2 len(x) calls of g and each column equals its single-state result.
    """
    out = np.empty((shape[0], x.shape[0]) + shape[1:])
    for j in range(x.shape[0]):
        h = np.maximum(_FD_EPS, _FD_EPS * np.abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (g(xp) - g(xm)) / (2.0 * h)
    return out


def eval_rhs(vf: VectorField, t, y, p) -> np.ndarray:
    """f(t, y, p): (n,) at a state, (n, k) on a block; t is ignored if autonomous."""
    y, p = _check_args(vf, y, p)
    return _call(vf, vf.rhs, t, y, p)


def eval_jac_state(vf: VectorField, t, y, p) -> np.ndarray:
    """df/dy: (n, n) at a state, (n, n, k) on a block."""
    y, p = _check_args(vf, y, p)
    if vf.jac_state is not None:
        return _call(vf, vf.jac_state, t, y, p)
    return _central_difference(lambda yy: _call(vf, vf.rhs, t, yy, p), y, y.shape)


def eval_jac_params(vf: VectorField, t, y, p) -> np.ndarray:
    """df/dp: (n, q) at a state, (n, q, k) on a block."""
    y, p = _check_args(vf, y, p)
    if vf.jac_params is not None:
        return _call(vf, vf.jac_params, t, y, p)
    return _central_difference(lambda pp: _call(vf, vf.rhs, t, y, pp), p, y.shape)


def eval_jac_time(vf: VectorField, t, y, p) -> np.ndarray:
    """df/dt: (n,) at a state, (n, k) on a block; zero if autonomous."""
    y, p = _check_args(vf, y, p)
    if vf.autonomous:
        return np.zeros(y.shape)
    if vf.jac_time is not None:
        return _call(vf, vf.jac_time, t, y, p)
    ts = np.asarray(t, dtype=float)[None]
    return _central_difference(lambda s: _call(vf, vf.rhs, s[0], y, p), ts, y.shape)[:, 0]


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
