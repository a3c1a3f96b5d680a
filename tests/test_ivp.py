"""Integrator accuracy and transition-matrix properties."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from torcont import ivp, odesys
from torcont.errors import InputError


def linear_field(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return odesys.VectorField(
        dim_state=n,
        dim_params=0,
        param_names=(),
        autonomous=True,
        rhs=lambda t, y, p: A @ y,
        jac_state=lambda t, y, p: A,
        jac_params=lambda t, y, p: np.zeros((n, 0)),
    )


def test_scalar_decay():
    vf = linear_field([[-1.0]])
    res = ivp.integrate(vf, [0.0, 1.0], [1.0], [])
    assert abs(res.y[-1, 0] - np.exp(-1.0)) < 1e-7


def test_harmonic_oscillator_closes():
    vf = linear_field([[0.0, 1.0], [-1.0, 0.0]])
    res = ivp.integrate(vf, np.linspace(0, 2 * np.pi, 5), [1.0, 0.0], [])
    assert np.linalg.norm(res.y[-1] - res.y[0]) < 1e-6


def test_tolerance_scaling_monotone():
    # halving tolerances never increases the error beyond a factor 2
    vf = linear_field([[-1.0]])
    errs = []
    for k in range(6):
        opts = ivp.IvpOptions(rel_tol=1e-6 / 2**k, abs_tol=1e-8 / 2**k)
        res = ivp.integrate(vf, [0.0, 1.0], [1.0], [], opts)
        errs.append(abs(res.y[-1, 0] - np.exp(-1.0)))
    for a, b in zip(errs, errs[1:]):
        assert b <= 2.0 * a + 1e-15


def test_langford_settles_on_closed_curve():
    # after a long transient, successive returns to the plane x2 = 0
    # (crossing upward) converge to a single point
    vf = odesys.builtin_langford()
    p = np.array([3.5, 1.5, 0.0])
    T = 2 * np.pi / 3.5
    res = ivp.integrate(vf, [0.0, 100 * T], np.array([0.3, 0.4, 0.0]), p)
    y_end = res.y[-1]
    fine = ivp.integrate(
        vf, np.linspace(0.0, 3 * T, 3001), y_end, p, ivp.IvpOptions(rel_tol=1e-10)
    )
    crossings = []
    for a, b, ta, tb in zip(fine.y[:-1], fine.y[1:], fine.t[:-1], fine.t[1:]):
        if a[1] < 0 <= b[1]:
            w = -a[1] / (b[1] - a[1])
            crossings.append(a + w * (b - a))
    assert len(crossings) >= 2
    gaps = [np.linalg.norm(c2 - c1) for c1, c2 in zip(crossings, crossings[1:])]
    assert gaps[-1] < 1e-3


def test_monotonicity_check():
    vf = linear_field([[-1.0]])
    with pytest.raises(InputError):
        ivp.integrate(vf, [0.0, 1.0, 0.5], [1.0], [])


def test_dense_output_interpolant():
    vf = linear_field([[-1.0]])
    res = ivp.integrate(vf, [0.0, 1.0], [1.0], [],
                        ivp.IvpOptions(dense_output=True))
    ts = np.linspace(0.1, 0.9, 7)
    vals = np.array([res(t)[0] for t in ts])
    assert np.abs(vals - np.exp(-ts)).max() < 1e-7
    res2 = ivp.integrate(vf, [0.0, 1.0], [1.0], [])
    with pytest.raises(InputError):
        res2(0.5)


def blowup_field():
    # x' = x^2, x(0) = 1 has the solution 1 / (1 - t), which blows up at t = 1
    return odesys.VectorField(
        dim_state=1, dim_params=0, param_names=(), autonomous=True,
        rhs=lambda t, y, p: y**2,
        jac_state=lambda t, y, p: np.array([[2.0 * y[0]]]),
    )


def test_blowup_reports_last_time():
    with pytest.raises(ivp.IntegrationError) as err:
        ivp.integrate(blowup_field(), [0.0, 2.0], [1.0], [])
    assert abs(err.value.last_time - 1.0) < 1e-3


def test_variational_blowup_reports_last_time():
    with pytest.raises(ivp.IntegrationError) as err:
        ivp.transition_matrix(blowup_field(), 0.0, 2.0, np.array([1.0]), [])
    assert abs(err.value.last_time - 1.0) < 1e-3


def test_monodromy_rotation_is_identity():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    vf = linear_field(A)
    res = ivp.transition_matrix(vf, 0.0, 2 * np.pi, np.array([1.0, 0.0]), [])
    assert np.abs(res.monodromy - np.eye(2)).max() < 1e-6


def test_monodromy_matches_matrix_exponential():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3)) * 0.6
    vf = linear_field(A)
    T = 1.3
    res = ivp.transition_matrix(vf, 0.0, T, np.zeros(3), [])
    assert np.abs(res.monodromy - expm(A * T)).max() < 1e-6


def test_phi_starts_at_identity_and_semigroup():
    vf = odesys.builtin_langford()
    p = np.array([3.5, 1.0, 0.0])
    # a point near the circular orbit (exact orbit: x3=0.7, r^2=K/(1+0.7 rho))
    r = np.sqrt((3.557 / 3) / (1 + 0.7 * 1.0))
    y0 = np.array([r, 0.0, 0.7])
    T = 2 * np.pi / 3.5
    res = ivp.transition_matrix(vf, 0.0, T, y0, p, sample_times=[0.0, T / 2, T])
    assert np.abs(res.Phi[0] - np.eye(3)).max() < 1e-12
    # semigroup: Phi(3T/2, 0) = Phi(T/2 + T, ...) = Phi_half_after_T @ M
    M = res.monodromy
    half = res.Phi[1]
    res2 = ivp.transition_matrix(vf, 0.0, 1.5 * T, y0, p, sample_times=[1.5 * T])
    lhs = res2.Phi[-1]
    assert np.abs(half @ M - lhs).max() < 1e-6


def test_liouville_positive_determinant():
    vf = odesys.builtin_langford()
    p = np.array([3.5, 0.8, 0.0])
    res = ivp.transition_matrix(vf, 0.0, 1.7952, np.array([0.7, 0.1, 0.6]), p)
    assert np.linalg.det(res.monodromy) > 0


# -- a block of initial states as one system ----------------------------------

VDP_P = np.array([1.5111, 0.11, 0.1])
VDP_T = 2 * np.pi / VDP_P[0]


def circle_seeds(k=21, radius=2.0):
    angles = 2 * np.pi * np.arange(k) / k
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def test_one_member_block_equals_single_state():
    # same system, same tolerances (divided by sqrt(1)); vdp's rhs gives the
    # same values on a (2, 1) block as on a state
    vf = odesys.builtin_vdp()
    ts = np.linspace(0.0, 3 * VDP_T, 40)
    y0 = np.array([2.0, 0.3])
    single = ivp.integrate(vf, ts, y0, VDP_P)
    block = ivp.integrate(vf, ts, y0[None], VDP_P)
    assert np.array_equal(block.y[:, 0], single.y)


def test_block_result_shape():
    vf = odesys.builtin_vdp()
    ts = np.linspace(0.0, VDP_T, 7)
    seeds = circle_seeds(5)
    res = ivp.integrate(vf, ts, seeds, VDP_P, ivp.IvpOptions(dense_output=True))
    assert res.y.shape == (7, 5, 2)
    assert np.array_equal(res.y[0], seeds)
    assert res(0.5 * VDP_T).shape == (5, 2) and res(ts[1:3]).shape == (5, 2, 2)
    with pytest.raises(InputError):
        ivp.integrate(vf, ts, np.zeros((5, 3)), VDP_P)


def test_block_members_meet_their_own_tolerance():
    # each of the 21 circle seeds of configs/vdp.json stays as close to a
    # rel_tol 1e-12 reference as when it is integrated alone
    vf = odesys.builtin_vdp()
    ts = np.linspace(0.0, 2 * VDP_T, 50)
    seeds = circle_seeds()
    tight = ivp.IvpOptions(rel_tol=1e-12, abs_tol=1e-14)
    ref = np.array([ivp.integrate(vf, ts, s, VDP_P, tight).y for s in seeds])
    alone = np.array([ivp.integrate(vf, ts, s, VDP_P).y for s in seeds])
    block = ivp.integrate(vf, ts, seeds, VDP_P).y.swapaxes(0, 1)
    dev = np.abs(block - ref).max(axis=(1, 2))
    assert np.all(dev <= np.abs(alone - ref).max(axis=(1, 2)))


def test_block_of_non_vectorized_field_matches_vectorized_twin():
    vf = odesys.builtin_vdp()
    loop = dataclasses.replace(vf, vectorized=False)
    ts = np.linspace(0.0, 3 * VDP_T, 40)
    seeds = circle_seeds()
    a = ivp.integrate(vf, ts, seeds, VDP_P).y
    b = ivp.integrate(loop, ts, seeds, VDP_P).y
    assert np.abs(a - b).max() < 1e-12
