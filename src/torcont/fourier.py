"""Discrete Fourier transform, rotation and phase-weight matrices.

The torus boundary-value problem couples 2N+1 trajectory segments through
trigonometric interpolation in the angle ``phi``.  Per state component the
sample vector ``(chi(phi_1), ..., chi(phi_{2N+1}))`` on the uniform angle
grid ``phi_j = 2(j-1)pi/(2N+1)`` maps to real Fourier coefficients
``(a_0, a_1, b_1, ..., a_N, b_N)`` through the matrix ``F``; shifting the
angle by ``2*pi*varrho`` acts on the coefficients through the block-diagonal
rotation ``R(varrho)``.  All matrices are dense; they never exceed a few
hundred rows and Kronecker products with the state identity are applied
blockwise instead of being materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class CouplingMatrices:
    """Transform data shared by all segments of one torus discretization."""

    N: int
    angles: np.ndarray  # (2N+1,) uniform angle grid
    F: np.ndarray  # samples -> coefficients (a0, a1, b1, ..., aN, bN)
    Finv: np.ndarray  # coefficients -> samples
    phase_weights: np.ndarray  # row w with w @ samples = d(chi)/d(phi) at phi=0

    @property
    def n_seg(self) -> int:
        return 2 * self.N + 1


def _trig_basis(N: int, phi: np.ndarray) -> np.ndarray:
    """Columns 1, cos(phi), sin(phi), ..., cos(N phi), sin(N phi) at each angle."""
    basis = np.empty((phi.size, 2 * N + 1))
    basis[:, 0] = 1.0
    for k in range(1, N + 1):
        basis[:, 2 * k - 1] = np.cos(k * phi)
        basis[:, 2 * k] = np.sin(k * phi)
    return basis


def dft_matrix(N: int) -> CouplingMatrices:
    """Build the real DFT pair (F, Finv) and phase weights for N modes.

    The columns of Finv evaluate the trigonometric basis on the angle grid.
    F = (2/(2N+1)) Finv^T except for row 0, which averages the samples (a0),
    so F @ Finv = I to round-off.
    """
    if N < 1:
        raise InputError(f"number of Fourier modes must be >= 1, got {N}")
    m = 2 * N + 1
    phi = 2.0 * np.pi * np.arange(m) / m
    Finv = _trig_basis(N, phi)
    # C-contiguous: the layout of F sets the BLAS summation order of F @ V
    F = np.ascontiguousarray((2.0 / m) * Finv.T)
    F[0, :] = 1.0 / m
    # w @ samples = sum_k k b_k = d(chi)/d(phi) at phi = 0
    w = np.zeros(m)
    for k in range(1, N + 1):
        w += k * F[2 * k, :]
    return CouplingMatrices(N=N, angles=phi, F=F, Finv=Finv, phase_weights=w)


def rotation_matrix(N: int, varrho: float) -> np.ndarray:
    """Coefficient-space action of the angle shift phi -> phi + 2*pi*varrho.

    Block diagonal: a scalar 1 on the a0 mode, then for each harmonic k the
    2x2 block [[cos, sin], [-sin, cos]] with angle 2*pi*k*varrho acting on
    (a_k, b_k).  The sign convention is pinned by the conjugation identity
    Finv @ R @ F @ samples(chi) == samples(chi shifted by 2*pi*varrho).
    """
    if N < 1:
        raise InputError(f"number of Fourier modes must be >= 1, got {N}")
    m = 2 * N + 1
    R = np.zeros((m, m))
    R[0, 0] = 1.0
    k = np.arange(1, N + 1)
    c = np.cos(2.0 * np.pi * k * varrho)
    s = np.sin(2.0 * np.pi * k * varrho)
    R[2 * k - 1, 2 * k - 1] = c
    R[2 * k - 1, 2 * k] = s
    R[2 * k, 2 * k - 1] = -s
    R[2 * k, 2 * k] = c
    return R


def rotation_matrix_deriv(N: int, varrho: float) -> np.ndarray:
    """d R(varrho) / d varrho, needed by the torus Jacobian."""
    m = 2 * N + 1
    dR = np.zeros((m, m))
    k = np.arange(1, N + 1)
    w = 2.0 * np.pi * k
    c = np.cos(w * varrho)
    s = np.sin(w * varrho)
    dR[2 * k - 1, 2 * k - 1] = -w * s
    dR[2 * k - 1, 2 * k] = w * c
    dR[2 * k, 2 * k - 1] = -w * c
    dR[2 * k, 2 * k] = -w * s
    return dR


def coupling_residual(
    v0: np.ndarray, vT: np.ndarray, R: np.ndarray, F: np.ndarray, n: int
) -> np.ndarray:
    """All-to-all boundary condition (F (x) I_n) vT - ((R F) (x) I_n) v0.

    ``v0`` and ``vT`` stack the segment states at t=0 and t=T segment-major,
    so reshaping to (2N+1, n) lets the Kronecker products act as plain
    matrix products on the segment axis.
    """
    m = F.shape[0]
    v0 = np.asarray(v0, dtype=float)
    vT = np.asarray(vT, dtype=float)
    if v0.shape != (m * n,) or vT.shape != (m * n,):
        raise InputError(
            f"expected segment endpoint stacks of length {m * n}, "
            f"got {v0.shape} and {vT.shape}"
        )
    V0 = v0.reshape(m, n)
    VT = vT.reshape(m, n)
    return (F @ VT - (R @ F) @ V0).ravel()


def trig_interpolate(coupling: CouplingMatrices, samples: np.ndarray, phi) -> np.ndarray:
    """Evaluate the trigonometric interpolant of per-segment data at angle phi.

    ``samples`` has shape (2N+1, ...) over the segment angle grid; ``phi``
    may be a scalar or an array.  Exact for trigonometric polynomials of
    degree <= N.
    """
    samples = np.asarray(samples, dtype=float)
    coef = np.tensordot(coupling.F, samples, axes=(1, 0))  # (2N+1, ...)
    basis = _trig_basis(coupling.N, np.atleast_1d(np.asarray(phi, dtype=float)))
    out = np.tensordot(basis, coef, axes=(1, 0))
    if np.isscalar(phi) or np.asarray(phi).ndim == 0:
        return out[0]
    return out
