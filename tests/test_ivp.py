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
    res = ivp.integrate(vf, ts, seeds, VDP_P)
    assert res.y.shape == (7, 5, 2)
    assert np.array_equal(res.y[0], seeds)
    with pytest.raises(InputError):
        ivp.integrate(vf, ts, np.zeros((5, 3)), VDP_P)


def test_empty_block_rejected():
    # the tolerances of a (0, n) block would be divided by sqrt(0): a
    # RuntimeWarning, then an integration that never ends
    with pytest.raises(InputError, match=r"\(0, 2\), expected \(2,\) or \(k, 2\) with k >= 1"):
        ivp.integrate(odesys.builtin_vdp(), [0.0, VDP_T], np.zeros((0, 2)), VDP_P)


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


# -- the in-package DOP853 against scipy's solve_ivp -------------------------


def counted(rhs):
    """``rhs`` with a call counter in ``.calls``."""
    def f(t, y, p):
        f.calls += 1
        return rhs(t, y, p)
    f.calls = 0
    return f


def scipy_reference(fun, ts, z0, rtol, atol):
    """solve_ivp's DOP853 result and the last time it evaluated ``fun``."""
    from scipy.integrate import solve_ivp

    last = [ts[0]]

    def field(t, z):
        last[0] = t
        return fun(t, z)

    sol = solve_ivp(field, (ts[0], ts[-1]), z0, method="DOP853", t_eval=ts,
                    rtol=rtol, atol=atol)
    return sol, float(last[0])


@pytest.mark.parametrize("case", ["single", "block", "decreasing"])
def test_integrate_is_scipy_dop853(case):
    vf = odesys.builtin_vdp()
    seeds = circle_seeds() if case == "block" else np.array([2.0, 0.3])
    ts = np.linspace(0.0, 2 * VDP_T, 30)
    if case == "decreasing":
        ts = ts[::-1]
    rhs = counted(vf.rhs)
    vf = dataclasses.replace(vf, rhs=rhs)
    res = ivp.integrate(vf, ts, seeds, VDP_P)
    ours = rhs.calls
    k = seeds.size // 2
    scale = np.sqrt(k) if seeds.ndim == 2 else 1.0

    def fun(t, z):
        if seeds.ndim == 1:
            return odesys.eval_rhs(vf, t, z, VDP_P)
        return odesys.eval_rhs(vf, t, z.reshape(k, 2).T, VDP_P).T.ravel()

    rhs.calls = 0
    sol, _ = scipy_reference(fun, ts, seeds.ravel(), 1e-8 / scale, 1e-10 / scale)
    assert sol.success and rhs.calls == ours
    assert np.array_equal(res.y.reshape(len(ts), -1), sol.y.T)
    assert np.array_equal(res.t, sol.t)


def test_transition_matrix_is_scipy_dop853():
    vf = odesys.builtin_langford()
    p = np.array([3.5, 1.0, 0.0])
    y0 = np.array([0.7, 0.1, 0.6])
    T = 2 * np.pi / 3.5
    jac = counted(vf.jac_state)
    vf = dataclasses.replace(vf, jac_state=jac)
    res = ivp.transition_matrix(vf, 0.0, T, y0, p, sample_times=[T / 3, T / 2])
    ours = jac.calls

    def aug(t, z):
        fy = odesys.eval_jac_state(vf, t, z[:3], p)
        return np.concatenate([odesys.eval_rhs(vf, t, z[:3], p), (fy @ z[3:].reshape(3, 3)).ravel()])

    jac.calls = 0
    ts = np.array([0.0, T / 3, T / 2, T])
    sol, _ = scipy_reference(aug, ts, np.concatenate([y0, np.eye(3).ravel()]), 1e-10, 1e-12)
    assert sol.success and jac.calls == ours
    assert np.array_equal(res.Phi, sol.y[3:].T.reshape(-1, 3, 3))


def test_blowup_is_reported_as_scipy_reports_it():
    vf = blowup_field()
    rhs = counted(vf.rhs)
    vf = dataclasses.replace(vf, rhs=rhs)
    with pytest.raises(ivp.IntegrationError) as err:
        ivp.integrate(vf, [0.0, 2.0], [1.0], [])
    ours = rhs.calls
    rhs.calls = 0
    sol, last = scipy_reference(lambda t, y: vf.rhs(t, y, []), np.array([0.0, 2.0]),
                                np.array([1.0]), 1e-8, 1e-10)
    assert not sol.success and rhs.calls == ours
    assert err.value.last_time == last
    assert str(err.value) == f"integration failed at t={last}: {sol.message}"
