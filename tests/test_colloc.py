"""Collocation mesh, residual, Jacobian and interpolation properties."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from torcont import colloc, odesys
from torcont.errors import InputError

RNG = np.random.default_rng(21)


def linear_field(lam):
    return odesys.VectorField(
        dim_state=1, dim_params=0, param_names=(), autonomous=True,
        rhs=lambda t, y, p: lam * y,
        jac_state=lambda t, y, p: np.array([[lam]]) if np.ndim(y) == 1
        else np.full((1, 1, y.shape[1]), lam),
        jac_params=lambda t, y, p: np.zeros((1, 0)),
    )


def residual(vf, traj, p):
    return colloc.segment_residual(vf, traj.mesh, traj.x_bp, traj.duration, traj.t_offset, p)


def dense_jacobian(vf, traj, p):
    """Kernel values of one segment placed by a fresh COO assembly:
    (J_x, J_T, J_T0, J_p) over all residual rows."""
    mesh, n = traj.mesh, traj.x_bp.shape[1]
    jac = colloc.segment_jacobian(vf, mesh, traj.x_bp, traj.duration, traj.t_offset, p)
    rows = colloc.n_residual_rows(mesh, n)
    J_x = sp.coo_matrix((jac.J_x, colloc.segment_pattern(mesh, n)),
                        shape=(rows, mesh.n_base * n)).toarray()
    coll = colloc.collocation_rows(mesh, n)
    J_T, J_T0, J_p = np.zeros(rows), np.zeros(rows), np.zeros((rows, vf.dim_params))
    J_T[coll], J_T0[coll], J_p[coll] = jac.J_T, jac.J_T0, jac.J_p
    return J_x, J_T, J_T0, J_p


def exp_traj(mesh, lam, T):
    x = np.exp(lam * T * mesh.basepoints)[:, None]
    return colloc.Trajectory(mesh=mesh, x_bp=x, duration=T)


class TestBuildMesh:
    def test_single_gauss_node_is_midpoint(self):
        mesh = colloc.build_mesh(1, 1)
        assert np.allclose(mesh.collnodes, [0.5])

    def test_two_by_two_gauss_nodes(self):
        mesh = colloc.build_mesh(2, 2)
        g = 0.25 / np.sqrt(3)
        expected = np.sort([0.25 - g, 0.25 + g, 0.75 - g, 0.75 + g])
        assert np.allclose(np.sort(mesh.collnodes), expected, atol=1e-15)

    def test_counts(self):
        mesh = colloc.build_mesh(10, 4)
        assert mesh.collnodes.size == 40
        assert mesh.basepoints.size == 50

    def test_distinct_basepoints(self):
        # np.unique keeps both copies of 7 shared subinterval ends at ntst 40,
        # which differ by an ulp; each shared end takes the later copy
        mesh = colloc.build_mesh(40, 4)
        assert np.unique(mesh.basepoints).size == 168
        tau, index = colloc.distinct_basepoints(mesh)
        assert tau.size == 161 and np.all(np.diff(tau) > 0)
        assert np.abs(tau[index] - mesh.basepoints).max() < 1e-15
        starts = np.arange(40) * 5
        assert np.array_equal(tau[index[starts]], mesh.basepoints[starts])
        assert tau[index[-1]] == mesh.basepoints[-1]

    def test_bounds_monotone_and_nodes_interior(self):
        mesh = colloc.build_mesh(7, 3)
        assert np.all(np.diff(mesh.subinterval_bounds) > 0)
        assert mesh.subinterval_bounds[0] == 0.0 and mesh.subinterval_bounds[-1] == 1.0
        for k in range(7):
            lo, hi = mesh.subinterval_bounds[k], mesh.subinterval_bounds[k + 1]
            nodes = mesh.collnodes[k * 3 : (k + 1) * 3]
            assert np.all(nodes > lo) and np.all(nodes < hi)

    def test_degree_range(self):
        with pytest.raises(InputError):
            colloc.build_mesh(4, 0)
        with pytest.raises(InputError):
            colloc.build_mesh(4, 8)


class TestSegmentResidual:
    def test_constant_solution_of_trivial_ode(self):
        vf = odesys.VectorField(
            dim_state=2, dim_params=0, param_names=(), autonomous=True,
            rhs=lambda t, y, p: np.zeros_like(y),
        )
        mesh = colloc.build_mesh(4, 3)
        traj = colloc.Trajectory(mesh=mesh, x_bp=np.tile([1.5, -2.0], (mesh.n_base, 1)),
                                 duration=2.0)
        res = residual(vf, traj, [])
        assert np.abs(res).max() < 1e-14

    def test_linear_ramp_exact(self):
        vf = odesys.VectorField(
            dim_state=1, dim_params=0, param_names=(), autonomous=True,
            rhs=lambda t, y, p: np.ones_like(y),
        )
        mesh = colloc.build_mesh(3, 2)
        T = 1.7
        traj = colloc.Trajectory(mesh=mesh, x_bp=(T * mesh.basepoints)[:, None], duration=T)
        res = residual(vf, traj, [])
        assert np.abs(res).max() < 1e-13

    def test_residual_order_on_exact_exponential(self):
        # residual of exact samples decays as O(h^m)
        lam, T, m = 1.0, 1.0, 4
        errs = []
        for ntst in (2, 4, 8, 16):
            mesh = colloc.build_mesh(ntst, m)
            res = residual(linear_field(lam), exp_traj(mesh, lam, T), [])
            errs.append(np.abs(res).max())
        slope = np.polyfit(np.log2([2, 4, 8, 16]), np.log2(errs), 1)[0]
        assert abs(-slope - m) < 0.5


class TestSegmentJacobian:
    def test_linear_field_jacobian_constant(self):
        vf = linear_field(-0.7)
        mesh = colloc.build_mesh(3, 3)
        t1 = colloc.Trajectory(mesh=mesh, x_bp=RNG.standard_normal((mesh.n_base, 1)),
                               duration=1.2)
        t2 = replace(t1, x_bp=RNG.standard_normal((mesh.n_base, 1)))
        J1 = dense_jacobian(vf, t1, [])[0]
        J2 = dense_jacobian(vf, t2, [])[0]
        assert np.abs(J1 - J2).max() < 1e-14

    def test_finite_difference_consistency(self):
        vf = odesys.builtin_langford()
        p = np.array([3.5, 1.2, 0.05])
        mesh = colloc.build_mesh(4, 4)
        traj = colloc.Trajectory(
            mesh=mesh, x_bp=0.5 * RNG.standard_normal((mesh.n_base, 3)), duration=1.3,
            t_offset=0.0,
        )
        J_x, J_T, _, J_p = dense_jacobian(vf, traj, p)

        def res_of(x_flat, T, p_):
            tr = colloc.Trajectory(mesh=mesh, x_bp=x_flat.reshape(-1, 3), duration=T)
            return residual(vf, tr, p_)

        x0 = traj.x_bp.ravel()
        # 20 random direction checks of J_x
        for _ in range(20):
            d = RNG.standard_normal(x0.size)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (res_of(x0 + h * d, 1.3, p) - res_of(x0 - h * d, 1.3, p)) / (2 * h)
            Jd = J_x @ d
            denom = max(np.abs(fd).max(), 1e-6)
            assert np.abs(Jd - fd).max() / denom < 1e-5
        # duration and parameter columns
        h = 1e-6
        fd_T = (res_of(x0, 1.3 + h, p) - res_of(x0, 1.3 - h, p)) / (2 * h)
        assert np.abs(J_T - fd_T).max() / max(np.abs(fd_T).max(), 1e-9) < 1e-5
        for ip in range(3):
            dp = np.zeros(3)
            dp[ip] = h
            fd_p = (res_of(x0, 1.3, p + dp) - res_of(x0, 1.3, p - dp)) / (2 * h)
            assert np.abs(J_p[:, ip] - fd_p).max() <= 1e-5 * max(np.abs(fd_p).max(), 1e-3)

    def test_autonomous_t_offset_column_is_zero(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(3, 3)
        traj = colloc.Trajectory(mesh=mesh, x_bp=RNG.standard_normal((mesh.n_base, 3)),
                                 duration=0.9)
        J_T0 = dense_jacobian(vf, traj, np.array([3.5, 1.0, 0.0]))[2]
        assert np.abs(J_T0).max() == 0.0

    def test_nonautonomous_t_offset_column(self):
        vf = odesys.builtin_vdp()
        p = np.array([1.5, 0.2, 0.3])
        mesh = colloc.build_mesh(3, 3)
        traj = colloc.Trajectory(mesh=mesh, x_bp=RNG.standard_normal((mesh.n_base, 2)),
                                 duration=1.1, t_offset=0.4)
        J_T0 = dense_jacobian(vf, traj, p)[2]
        h = 1e-6

        def res_at(T0):
            tr = colloc.Trajectory(mesh=mesh, x_bp=traj.x_bp, duration=1.1, t_offset=T0)
            return residual(vf, tr, p)

        fd = (res_at(0.4 + h) - res_at(0.4 - h)) / (2 * h)
        assert np.abs(J_T0 - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-3)


class TestInterpolate:
    def test_base_point_values_exact(self):
        mesh = colloc.build_mesh(3, 4)
        x = RNG.standard_normal((mesh.n_base, 2))
        traj = colloc.Trajectory(mesh=mesh, x_bp=x, duration=2.5, t_offset=0.3)
        # query distinct base points (interior duplicates share a time)
        for idx in (0, 4, 7, mesh.n_base - 1):
            t = 0.3 + 2.5 * mesh.basepoints[idx]
            got = colloc.interpolate(traj, t)
            stored = x[idx]
            # duplicated times may return the twin value; compare to either
            twin = np.nonzero(np.abs(mesh.basepoints - mesh.basepoints[idx]) < 1e-14)[0]
            assert any(np.array_equal(got, x[j]) for j in twin)

    def test_polynomial_reproduction(self):
        m = 4
        mesh = colloc.build_mesh(2, m)
        coeffs = RNG.standard_normal(m + 1)
        poly = np.polynomial.Polynomial(coeffs)
        traj = colloc.Trajectory(mesh=mesh, x_bp=poly(mesh.basepoints)[:, None], duration=1.0)
        ts = RNG.uniform(0, 1, 23)
        got = colloc.interpolate(traj, ts)[:, 0]
        assert np.abs(got - poly(ts)).max() < 1e-12

    def test_interior_interpolation_order(self):
        lam, T, m = 1.0, 1.0, 4
        rng = np.random.default_rng(5)
        tq = rng.uniform(0, 1, 200)
        errs = []
        for ntst in (2, 4, 8, 16):
            mesh = colloc.build_mesh(ntst, m)
            traj = exp_traj(mesh, lam, T)
            got = colloc.interpolate(traj, tq)[:, 0]
            errs.append(np.abs(got - np.exp(lam * tq)).max())
        slope = np.polyfit(np.log2([2, 4, 8, 16]), np.log2(errs), 1)[0]
        assert abs(-slope - (m + 1)) < 0.5

    def test_domain_check(self):
        mesh = colloc.build_mesh(2, 2)
        traj = colloc.Trajectory(mesh=mesh, x_bp=np.zeros((mesh.n_base, 1)), duration=1.0)
        with pytest.raises(InputError):
            colloc.interpolate(traj, 1.5)


def solve_linear_bvp(ntst, m, lam=1.0, T=1.0):
    """Fixed-initial-value BVP for y' = lam y via the collocation blocks."""
    vf = linear_field(lam)
    mesh = colloc.build_mesh(ntst, m)
    traj = colloc.Trajectory(mesh=mesh, x_bp=np.ones((mesh.n_base, 1)), duration=T)
    A = dense_jacobian(vf, traj, [])[0]
    # linear problem: residual(x) = A x (collocation + continuity rows)
    rows = [A]
    bc = np.zeros((1, mesh.n_base))
    bc[0, 0] = 1.0
    rows.append(bc)
    M = np.vstack(rows)
    b = np.zeros(M.shape[0])
    b[-1] = 1.0
    return np.linalg.solve(M, b)


def test_endpoint_superconvergence_degree3():
    # Gauss collocation: endpoint error O(h^{2m}); degree 3 gives slope ~6
    m = 3
    errs = []
    for ntst in (2, 4, 8, 16):
        x = solve_linear_bvp(ntst, m)
        errs.append(abs(x[-1] - np.e))
    slope = -np.polyfit(np.log2([2, 4, 8, 16]), np.log2(errs), 1)[0]
    assert abs(slope - 2 * m) < 0.5


class TestSampleSpline:
    """The not-a-knot spline of ``sample_onto_basepoints`` against scipy's CubicSpline.

    ``colloc._tridiagonal_solve`` solves the spline's system where scipy runs
    a banded solver, so the two agree to rounding: within ``REL`` of the
    largest value.
    """

    REL = 1e-13

    @classmethod
    def close(cls, ours, ref):
        return np.abs(ours - ref).max() <= cls.REL * np.abs(ref).max()

    @staticmethod
    def both(x, y, t):
        from scipy.interpolate import CubicSpline

        ours = colloc._spline_eval(x, colloc._spline_coefficients(x, y), t)
        return ours, CubicSpline(x, y, axis=0)(t)

    @pytest.mark.parametrize("x", [
        [0.0, 0.4, 1.0],
        [0.0, 0.3, 0.5, 1.0],
        np.linspace(0.0, 2.0, 12),
        np.cumsum(np.random.default_rng(3).uniform(0.05, 1.0, 17)),
    ], ids=["n3", "n4", "uniform", "nonuniform"])
    def test_equals_scipy_cubic_spline(self, x):
        x = np.asarray(x)
        y = np.random.default_rng(4).standard_normal((x.size, 3))
        t = np.concatenate([x, np.linspace(x[0], x[-1], 101), x[::-1]])
        ours, ref = self.both(x, y, t)
        assert self.close(ours, ref)

    def test_resample_equals_scipy(self):
        from scipy.interpolate import CubicSpline

        mesh = colloc.build_mesh(4, 3)
        t_grid = np.linspace(0.0, 2.0, 9) ** 1.5
        values = np.sin(np.outer(t_grid, [1.0, 2.0]))
        duration = t_grid[-1]
        ours = colloc.sample_onto_basepoints(mesh, t_grid, values, duration)
        tau = colloc.distinct_basepoints(mesh)[0]
        ref = CubicSpline(t_grid, values, axis=0)(np.clip(duration * tau, 0, duration))
        assert self.close(ours, ref)

    def test_long_grid_resamples_in_linear_memory(self):
        # a dense n x n spline system would take 3.2 GB here
        import tracemalloc

        from scipy.interpolate import CubicSpline

        mesh = colloc.build_mesh(40, 4)
        rng = np.random.default_rng(5)
        t_grid = np.cumsum(rng.uniform(0.5, 1.5, 20_000)) * 1e-3
        values = np.stack([np.sin(t_grid), np.cos(3 * t_grid), t_grid**2], axis=-1)
        duration = t_grid[-1] - t_grid[0]
        tracemalloc.start()
        try:
            ours = colloc.sample_onto_basepoints(mesh, t_grid - t_grid[0], values, duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        tau = colloc.distinct_basepoints(mesh)[0]
        ref = CubicSpline(t_grid - t_grid[0], values, axis=0)(np.clip(duration * tau, 0, duration))
        assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("t_grid, values, message", [
        ([0.0, 1.0], [[0.0], [1.0]], "at least 3 times"),
        ([0.0, 0.5, 0.5, 1.0], [[0.0], [1.0], [2.0], [3.0]], "strictly increasing"),
        ([0.0, 1.0, 0.5], [[0.0], [1.0], [2.0]], "strictly increasing"),
        ([0.0, np.nan, 1.0], [[0.0], [1.0], [2.0]], "times must be finite"),
        ([0.0, 0.5, 1.0], [[0.0], [np.inf], [2.0]], "values must be finite"),
    ], ids=["two-samples", "repeated-time", "decreasing", "nan-time", "inf-value"])
    def test_bad_sample_grid_rejected(self, t_grid, values, message):
        with pytest.raises(InputError, match=message):
            colloc.sample_onto_basepoints(colloc.build_mesh(2, 2), t_grid, values, 1.0)
