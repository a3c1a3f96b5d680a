"""Built-in vector fields: hand oracles, Jacobian consistency, symmetry."""

import numpy as np
import pytest

from torcont import odesys
from torcont.errors import ConfigError, InputError, NotFoundError

RNG = np.random.default_rng(42)


def langford_by_hand(y, p):
    """Independent scalar evaluation of the three Langford equations."""
    x1, x2, x3 = y
    om, rho, eps = p
    f1 = (x3 - 0.7) * x1 - om * x2
    f2 = om * x1 + (x3 - 0.7) * x2
    f3 = 0.6 + x3 - x3**3 / 3 - (x1**2 + x2**2) * (1 + rho * x3) + eps * x3 * x1**3
    return np.array([f1, f2, f3])


def fd_jacobian(fun, x, scale=1e-6):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = scale * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((fun(xp) - fun(xm)) / (2 * h))
    return np.column_stack(cols)


class TestLangford:
    vf = odesys.builtin_langford()

    def test_origin_value(self):
        f = odesys.eval_rhs(self.vf, 0.0, (0, 0, 0), (3.5, 1.5, 0))
        assert np.allclose(f, [0, 0, 0.6], atol=1e-15)

    def test_hand_evaluation(self):
        y, p = (1.0, 0.0, 0.7), (2.2, 0.9, 0.0)
        f = odesys.eval_rhs(self.vf, 0.0, y, p)
        expected = np.array([0.0, 2.2, 0.6 + 0.7 - 0.7**3 / 3 - (1 + 0.7 * 0.9)])
        assert np.allclose(f, expected, atol=1e-14)

    def test_matches_scalar_script(self):
        y, p = np.array([0.3, 0.4, 0.0]), np.array([3.5, 1.5, 0.0])
        assert np.allclose(
            odesys.eval_rhs(self.vf, 1.23, y, p), langford_by_hand(y, p), atol=1e-14
        )

    def test_jac_params_entry_from_eps_term(self):
        # d f3 / d eps = x3 * x1^3
        y, p = np.array([1.3, -0.2, 0.8]), np.array([3.5, 1.5, 0.1])
        Jp = odesys.eval_jac_params(self.vf, 0.0, y, p)
        assert np.isclose(Jp[2, 2], y[2] * y[0] ** 3, atol=1e-14)

    def test_rotational_equivariance_at_eps0(self):
        # rhs commutes with rotations of the (x1, x2) plane when eps = 0
        p = np.array([3.1, 0.8, 0.0])
        for _ in range(5):
            y = RNG.standard_normal(3)
            beta = RNG.uniform(0, 2 * np.pi)
            c, s = np.cos(beta), np.sin(beta)
            Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            lhs = odesys.eval_rhs(self.vf, 0.0, Rz @ y, p)
            rhs = Rz @ odesys.eval_rhs(self.vf, 0.0, y, p)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestVdp:
    vf = odesys.builtin_vdp()

    def test_rest_state(self):
        f = odesys.eval_rhs(self.vf, 0.0, (0.0, 0.0), (1.7, 0.3, 0.25))
        assert np.allclose(f, [0.0, 0.25], atol=1e-15)

    def test_damping_vanishes_at_zero_velocity(self):
        f = odesys.eval_rhs(self.vf, 0.0, (1.0, 0.0), (1.5111, 0.11, 0.1))
        assert np.allclose(f, [0.0, -1.0 + 0.1], atol=1e-15)

    def test_not_autonomous(self):
        assert self.vf.autonomous is False
        assert self.vf.forcing_param == "Om2"

    def test_jac_time_is_forcing_derivative(self):
        p = np.array([1.5111, 0.11, 0.1])
        t = 0.73
        ft = odesys.eval_jac_time(self.vf, t, np.array([0.4, -0.2]), p)
        assert np.allclose(ft, [0.0, -p[2] * p[0] * np.sin(p[0] * t)], atol=1e-14)


@pytest.mark.parametrize("make", [odesys.builtin_langford, odesys.builtin_vdp])
def test_jacobians_match_finite_differences(make):
    # spec invariant: 100 random draws, relative error < 1e-5 (abs floor 1e-8)
    vf = make()
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = rng.uniform(0, 10)
        y = rng.uniform(-1.5, 1.5, vf.dim_state)
        p = rng.uniform(0.2, 2.0, vf.dim_params)
        Jy = odesys.eval_jac_state(vf, t, y, p)
        Jy_fd = fd_jacobian(lambda yy: odesys.eval_rhs(vf, t, yy, p), y)
        assert np.abs(Jy - Jy_fd).max() <= 1e-5 * max(np.abs(Jy_fd).max(), 1e-3) + 1e-8
        Jp = odesys.eval_jac_params(vf, t, y, p)
        Jp_fd = fd_jacobian(lambda pp: odesys.eval_rhs(vf, t, y, pp), p)
        assert np.abs(Jp - Jp_fd).max() <= 1e-5 * max(np.abs(Jp_fd).max(), 1e-3) + 1e-8
        if not vf.autonomous:
            ft = odesys.eval_jac_time(vf, t, y, p)
            h = 1e-6 * max(1.0, abs(t))
            ft_fd = (odesys.eval_rhs(vf, t + h, y, p) - odesys.eval_rhs(vf, t - h, y, p)) / (2 * h)
            assert np.abs(ft - ft_fd).max() <= 1e-5 * max(np.abs(ft_fd).max(), 1e-3) + 1e-8


def test_autonomous_field_ignores_time():
    vf = odesys.builtin_langford()
    y, p = np.array([0.5, -0.3, 0.9]), np.array([3.5, 1.5, 0.2])
    f1 = odesys.eval_rhs(vf, 0.0, y, p)
    f2 = odesys.eval_rhs(vf, 17.3, y, p)
    assert np.array_equal(f1, f2)
    assert np.array_equal(odesys.eval_jac_time(vf, 2.0, y, p), np.zeros(3))


def test_dimension_mismatch_raises():
    vf = odesys.builtin_langford()
    with pytest.raises(InputError):
        odesys.eval_rhs(vf, 0.0, np.zeros(2), np.zeros(3))
    with pytest.raises(InputError):
        odesys.eval_rhs(vf, 0.0, np.zeros(3), np.zeros(4))


def test_fd_fallback_for_user_field():
    # field without analytic Jacobians gets central differences
    vf = odesys.VectorField(
        dim_state=2,
        dim_params=1,
        param_names=("mu",),
        autonomous=True,
        rhs=lambda t, y, p: np.array([y[1], -p[0] * y[0] ** 3]),
    )
    y, p = np.array([0.7, -0.4]), np.array([2.0])
    Jy = odesys.eval_jac_state(vf, 0.0, y, p)
    assert np.allclose(Jy, [[0, 1], [-3 * p[0] * y[0] ** 2, 0]], rtol=1e-6)
    Jp = odesys.eval_jac_params(vf, 0.0, y, p)
    assert np.allclose(Jp, [[0], [-y[0] ** 3]], rtol=1e-6)


def test_nonautonomous_requires_forcing_param():
    with pytest.raises(ConfigError):
        odesys.VectorField(
            dim_state=1,
            dim_params=1,
            param_names=("w",),
            autonomous=False,
            rhs=lambda t, y, p: -y,
        )


def test_builtin_lookup():
    assert odesys.get_builtin("langford").name == "langford"
    assert odesys.get_builtin("vdp").name == "vdp"
    with pytest.raises(NotFoundError):
        odesys.get_builtin("lorenz")


def test_batched_evaluation_matches_pointwise():
    for vf in (odesys.builtin_langford(), odesys.builtin_vdp()):
        rng = np.random.default_rng(3)
        k = 7
        Y = rng.standard_normal((vf.dim_state, k))
        ts = rng.uniform(0, 5, k)
        p = rng.uniform(0.5, 1.5, vf.dim_params)
        fb = odesys.rhs_batch(vf, ts, Y, p)
        Ab = odesys.jac_state_batch(vf, ts, Y, p)
        for i in range(k):
            assert np.allclose(fb[:, i], odesys.eval_rhs(vf, ts[i], Y[:, i], p), atol=1e-14)
            assert np.allclose(Ab[:, :, i], odesys.eval_jac_state(vf, ts[i], Y[:, i], p), atol=1e-14)


@pytest.mark.parametrize("make", [odesys.builtin_langford, odesys.builtin_vdp])
def test_builtin_batched_jacobians_equal_pointwise_exactly(make):
    vf = make()
    rng = np.random.default_rng(5)
    k = 9
    Y = rng.standard_normal((vf.dim_state, k))
    ts = rng.uniform(0, 5, k)
    p = rng.uniform(0.5, 1.5, vf.dim_params)
    n, q = vf.dim_state, vf.dim_params
    for jac, shape in ((vf.jac_state, (n, n)), (vf.jac_params, (n, q))):
        batch = jac(ts, Y, p)
        assert batch.shape == shape + (k,)
        for i in range(k):
            point = jac(ts[i], Y[:, i], p)
            assert point.shape == shape
            assert np.array_equal(batch[..., i], point)
