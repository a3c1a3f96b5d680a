"""Torus problem assembly: residual blocks, Jacobian, initializers, export."""

import numpy as np
import pytest

from torcont import colloc, fourier, odesys, po, torus
from torcont.errors import ConfigError, InputError
from util_systems import (
    ALPHA_STAR,
    OM,
    T_LANG,
    VARRHO_STAR,
    decoupled_exact_samples,
    decoupled_field,
    decoupled_torus,
    dense,
    langford_circle_traj,
    seams,
)

RNG = np.random.default_rng(33)


def langford_torus_guess(N=5, ntst=6, degree=4, rho=0.61):
    """TR-initialized Langford torus guess at modest resolution."""
    vf = odesys.builtin_langford()
    mesh = colloc.build_mesh(ntst, degree)
    p = np.array([OM, rho, 0.0])
    orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), p)
    floq = po.floquet(vf, orbit)
    sol = torus.init_from_TR(vf, orbit, floq, N=N, eps=0.05)
    return vf, sol


class TestResidualBlocks:
    def test_exact_product_torus_all_blocks_tiny(self):
        # degree 7, 80 subintervals: the only inexact block (collocation on
        # exact samples) drops below 1e-10
        vf, sol = decoupled_torus(ntst=80, degree=7, N=2)
        res = torus.torus_residual(vf, sol)
        assert np.abs(res).max() < 1e-10

    def test_varrho_zero_periodic_segments(self):
        # all segments the same periodic orbit and varrho = 0: coupling zero
        vf, sol0 = decoupled_torus(ntst=8, degree=4, N=2, om1=0.0)
        x = sol0.x_seg.copy()
        x[:] = x[:1]  # identical segments
        sol = torus.update_reference(
            vf,
            torus.TorusSolution(
                mesh=sol0.mesh, coupling=sol0.coupling, x_seg=x, T0=0.0, T=sol0.T,
                p=sol0.p, om1=0.0, om2=sol0.om2, varrho=0.0, reference=None,
            ),
        )
        res = torus.torus_residual(vf, sol)
        n_a = sol.n_seg * (sol.mesh.n_coll * 4 + (sol.mesh.ntst - 1) * 4)
        coupling_rows = res[n_a : n_a + sol.n_seg * 4]
        assert np.abs(coupling_rows).max() < 1e-13

    def test_phase_rows_zero_at_reference(self):
        vf, sol = decoupled_torus(ntst=6, degree=3, N=2)
        res = torus.torus_residual(vf, sol)
        assert abs(res[-2]) < 1e-14  # phi phase row
        assert abs(res[-1]) < 1e-14  # t phase row (autonomous)

    def test_scalar_rows_values(self):
        vf, sol0 = decoupled_torus(ntst=4, degree=3, N=1)
        sol = torus.update_reference(
            vf,
            torus.TorusSolution(
                mesh=sol0.mesh, coupling=sol0.coupling, x_seg=sol0.x_seg,
                T0=0.3, T=sol0.T + 0.1, p=sol0.p, om1=sol0.om1 + 0.2,
                om2=sol0.om2, varrho=sol0.varrho - 0.05, reference=None,
            ),
        )
        res = torus.torus_residual(vf, sol)
        n_a = sol.n_seg * (sol.mesh.n_coll * 4 + (sol.mesh.ntst - 1) * 4)
        off = n_a + sol.n_seg * 4
        assert np.isclose(res[off], 0.3)  # T0 - 0
        assert np.isclose(res[off + 1], sol.T - 2 * np.pi / sol.om2)
        assert np.isclose(res[off + 2], sol.varrho - sol.om1 / sol.om2)

    def test_missing_reference_rejected(self):
        vf, sol = decoupled_torus(ntst=4, degree=3, N=1)
        bare = torus.TorusSolution(
            mesh=sol.mesh, coupling=sol.coupling, x_seg=sol.x_seg, T0=0.0, T=sol.T,
            p=sol.p, om1=sol.om1, om2=sol.om2, varrho=sol.varrho, reference=None,
        )
        with pytest.raises(InputError):
            torus.torus_residual(vf, bare)


class TestJacobian:
    def test_finite_difference_consistency_langford(self):
        vf, sol = langford_torus_guess(N=5, ntst=4, degree=3)
        # randomize the state a little so no special structure hides errors
        sol = torus.update_reference(
            vf,
            torus.TorusSolution(
                mesh=sol.mesh, coupling=sol.coupling,
                x_seg=sol.x_seg + 0.01 * RNG.standard_normal(sol.x_seg.shape),
                T0=0.02, T=sol.T * 1.01, p=sol.p + [0.01, -0.02, 0.03],
                om1=sol.om1 * 0.99, om2=sol.om2 * 1.02, varrho=sol.varrho + 0.01,
                reference=None,
            ),
        )
        J = dense(torus.torus_jacobian(vf, sol))
        X = sol.x_seg.size

        def res_of(vec):
            x_seg = vec[:X].reshape(sol.x_seg.shape)
            p = vec[X + 2 : X + 5]
            s = torus.TorusSolution(
                mesh=sol.mesh, coupling=sol.coupling, x_seg=x_seg, T0=vec[X],
                T=vec[X + 1], p=p, om1=vec[X + 5], om2=vec[X + 6], varrho=vec[X + 7],
                reference=sol.reference,
            )
            return torus.torus_residual(vf, s)

        v0 = np.concatenate([sol.x_seg.ravel(), [sol.T0, sol.T], sol.p,
                             [sol.om1, sol.om2, sol.varrho]])
        rng = np.random.default_rng(8)
        for _ in range(12):
            d = rng.standard_normal(v0.size)
            d /= np.linalg.norm(d)
            h = 1e-6
            fd = (res_of(v0 + h * d) - res_of(v0 - h * d)) / (2 * h)
            Jd = J @ d
            assert np.abs(Jd - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-5

    def test_dT_dom2_entry(self):
        vf, sol = decoupled_torus(ntst=4, degree=3, N=1)
        J = dense(torus.torus_jacobian(vf, sol))
        X = sol.x_seg.size
        n_a = sol.n_seg * (sol.mesh.n_coll * 4 + (sol.mesh.ntst - 1) * 4)
        row_d = n_a + sol.n_seg * 4 + 1
        col_om2 = X + 2 + 3 + 1
        assert np.isclose(J[row_d, col_om2], 2 * np.pi / sol.om2**2)
        assert np.isclose(J[row_d, X + 1], 1.0)

    def test_coupling_block_is_minus_RF_kron_eye(self):
        vf, sol = decoupled_torus(ntst=3, degree=2, N=2)
        n, n_seg = 4, sol.n_seg
        J = dense(torus.torus_jacobian(vf, sol))
        n_a = n_seg * (sol.mesh.n_coll * n + (sol.mesh.ntst - 1) * n)
        RF = fourier.rotation_matrix(sol.N, sol.varrho) @ sol.coupling.F
        X_seg = sol.mesh.n_base * n
        block = np.zeros((n_seg * n, n_seg * n))
        for j in range(n_seg):
            block[:, j * n : (j + 1) * n] = J[n_a : n_a + n_seg * n,
                                              j * X_seg : j * X_seg + n]
        expected = np.kron(RF, np.eye(n))
        assert np.abs(block + expected).max() < 1e-12

    def test_dimension_deficit_minus_three(self):
        # autonomous (Langford-style product system)
        vf, sol = decoupled_torus(ntst=4, degree=3, N=2)
        assert torus.dimension_deficit(vf, sol) == -3
        J = torus.torus_jacobian(vf, sol)
        rows, cols = J.shape
        assert (sol.x_seg.size + 2) - rows == -3
        # non-autonomous: forced Van der Pol seeded from a crude sample set
        vdp = odesys.builtin_vdp()
        mesh = colloc.build_mesh(6, 3)
        tb = 2 * np.pi / 1.5111 * colloc.distinct_basepoints(mesh)[0]
        samples = np.zeros((5, tb.size, 2))
        samples[:, :, 0] = np.cos(tb)[None, :]
        samples[:, :, 1] = np.sin(tb)[None, :]
        sol2 = torus.init_from_samples(
            vdp, samples,
            params={"Om2": 1.5111, "c": 0.11, "a": 0.1, "om1": -1.0, "om2": 1.5111,
                    "varrho": -1 / 1.5111},
            mesh=mesh,
        )
        assert torus.dimension_deficit(vdp, sol2) == -3

    def test_four_released_gives_square_bordered_system(self):
        vf, sol = decoupled_torus(ntst=4, degree=3, N=1)
        problem, u0 = torus.continuation_problem(
            vf, sol, released=["gam", "om1", "om2", "varrho"])
        J = problem.jacobian(u0)
        assert J.shape[1] == J.shape[0] + 1  # +1 tangent border row makes it square


class TestInitFromSamples:
    def test_round_trip_is_fixed_point(self):
        vf, sol = decoupled_torus(ntst=8, degree=4, N=2)
        # converge tightly so duplicated base points agree to round-off
        sol = torus.solve_fixed(vf, sol, tol=1e-12)
        _, index = colloc.distinct_basepoints(sol.mesh)
        first = np.unique(index, return_index=True)[1]
        samples = sol.x_seg[:, first, :]
        sol2 = torus.init_from_samples(
            vf, samples,
            params={"gam": sol.p[0], "w1": sol.p[1], "w2": sol.p[2], "om1": sol.om1,
                    "om2": sol.om2, "varrho": sol.varrho},
            mesh=sol.mesh,
        )
        assert np.abs(sol2.x_seg - sol.x_seg).max() < 1e-11
        res = torus.torus_residual(vf, sol2)
        assert np.abs(res).max() < 1e-8

    def test_segment_count_validation(self):
        vf = decoupled_field()
        mesh = colloc.build_mesh(3, 3)  # 10 distinct base-point times
        with pytest.raises(InputError, match="odd"):
            torus.init_from_samples(
                vf, np.zeros((4, 10, 4)),
                params={"gam": 1, "w1": 1, "w2": 1, "om1": 1, "om2": 1, "varrho": 1}, mesh=mesh)
        with pytest.raises(InputError, match="odd"):
            torus.init_from_samples(
                vf, np.zeros((1, 10, 4)),
                params={"gam": 1, "w1": 1, "w2": 1, "om1": 1, "om2": 1, "varrho": 1}, mesh=mesh)

    @pytest.mark.parametrize("shape", [(5, 12, 4), (5, 10, 2), (5, 10)])
    def test_samples_off_the_base_points_rejected(self, shape):
        with pytest.raises(InputError, match="10 base-point times, 4 states"):
            torus.init_from_samples(
                decoupled_field(), np.zeros(shape),
                params={"gam": 1, "w1": 1, "w2": 1, "om1": 1, "om2": 1, "varrho": 1},
                mesh=colloc.build_mesh(3, 3))

    def test_negative_rotation_preserved(self):
        vf = decoupled_field()
        om1, om2 = -0.7, 1.3
        mesh = colloc.build_mesh(5, 3)
        cm = fourier.dft_matrix(2)
        tb = 2 * np.pi / om2 * colloc.distinct_basepoints(mesh)[0]
        samples = decoupled_exact_samples(cm.angles, tb, om1, om2)
        sol = torus.init_from_samples(
            vf, samples,
            params={"gam": 1.0, "w1": om1, "w2": om2, "om1": om1, "om2": om2,
                    "varrho": om1 / om2},
            mesh=mesh,
        )
        assert sol.om1 == om1 and sol.varrho == om1 / om2 < 0

    def test_missing_param_reported(self):
        vf = decoupled_field()
        with pytest.raises(InputError, match="varrho"):
            torus.init_from_samples(
                vf, np.zeros((5, 10, 4)),
                params={"gam": 1, "w1": 1, "w2": 1, "om1": 1, "om2": 1},
                mesh=colloc.build_mesh(3, 3))


class TestInitFromTR:
    def test_rotated_eigvec_orthogonal_parts(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = torus.rotate_eigvec(v)
        assert abs(w.real @ w.imag) < 1e-12
        # same invariant subspace
        span0 = np.linalg.matrix_rank(np.column_stack([v.real, v.imag, w.real, w.imag]))
        assert span0 == 2

    def test_eps_zero_degenerates_to_orbit(self):
        vf, sol = None, None
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(8, 4)
        rho = 0.6
        orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), np.array([OM, rho, 0.0]))
        floq = po.floquet(vf, orbit)
        sol = torus.init_from_TR(vf, orbit, floq, N=3, eps=0.0)
        for j in range(sol.n_seg):
            assert np.abs(sol.x_seg[j] - orbit.traj.x_bp).max() < 1e-12
        res = torus.torus_residual(vf, sol)
        n_a = sol.n_seg * (sol.mesh.n_coll * 3 + (sol.mesh.ntst - 1) * 3)
        assert np.abs(res[n_a : n_a + sol.n_seg * 3]).max() < 1e-8

    def test_frequency_bookkeeping(self):
        vf, sol = langford_torus_guess(N=3, ntst=8, degree=4, rho=0.6154465)
        assert np.isclose(sol.om2, OM, atol=1e-6)  # 2*pi/T with T = 2*pi/om
        assert np.isclose(sol.om1, ALPHA_STAR / T_LANG, atol=1e-3)
        assert np.isclose(sol.varrho, VARRHO_STAR, atol=1e-3)
        assert np.isclose(sol.varrho * sol.om2, sol.om1, atol=1e-10)

    def test_plus_minus_eps_half_turn(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(6, 4)
        rho = 0.6
        orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), np.array([OM, rho, 0.0]))
        floq = po.floquet(vf, orbit)
        a = torus.init_from_TR(vf, orbit, floq, N=2, eps=0.04)
        b = torus.init_from_TR(vf, orbit, floq, N=2, eps=-0.04)
        # theta1 -> theta1 + pi maps the +eps perturbation onto the -eps one
        pa = a.x_seg - a.x_seg.mean(axis=0, keepdims=True)
        pb = b.x_seg - b.x_seg.mean(axis=0, keepdims=True)
        shifted = -pa  # cos(th+pi) = -cos th, sin(th+pi) = -sin th
        assert np.abs(shifted - pb).max() < 1e-12

    def test_segments_join_exactly_at_subinterval_ends(self):
        vf, sol = langford_torus_guess(N=3, ntst=20, degree=4, rho=0.6154465)
        assert np.array_equal(*seams(sol.mesh, sol.x_seg))

    def test_requires_tr_pair(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(6, 4)
        orbit = po.solve_po(vf, langford_circle_traj(mesh, 0.8), np.array([OM, 0.8, 0.0]))
        floq = po.FloquetData(multipliers=np.array([1.0, 0.5, 0.2]),
                              monodromy=np.eye(3), trivial_index=0)
        with pytest.raises(InputError):
            torus.init_from_TR(vf, orbit, floq, N=3)

    def test_newton_converges_small_problem(self):
        vf, sol = langford_torus_guess(N=5, ntst=10, degree=4, rho=0.6154465)
        problem, u0 = torus.continuation_problem(
            vf, sol, released=["varrho", "rho", "om1", "om2"])
        problem.start_border = np.concatenate(
            [torus.tr_perturbation_direction(sol), np.zeros(6)])
        from torcont.contin import _correct, _initial_border

        border = _initial_border(problem)
        u, iters, _ = _correct(problem, u0, border, u0, max_iter=10)
        assert iters <= 10
        assert np.abs(problem.residual(u)).max() < 1e-8


class TestReference:
    def test_update_reference_idempotent(self):
        vf, sol = decoupled_torus(ntst=5, degree=3, N=2)
        s1 = torus.update_reference(vf, sol)
        s2 = torus.update_reference(vf, s1)
        assert np.array_equal(s1.reference.v00, s2.reference.v00)
        assert np.array_equal(s1.reference.vphi, s2.reference.vphi)
        assert np.array_equal(s1.reference.vt, s2.reference.vt)

    def test_phase_rows_zero_after_update(self):
        vf, sol = langford_torus_guess(N=3, ntst=5, degree=3)
        res = torus.torus_residual(vf, torus.update_reference(vf, sol))
        assert abs(res[-2]) < 1e-14 and abs(res[-1]) < 1e-14

    def test_vphi_uses_phase_weights(self):
        vf, sol = decoupled_torus(ntst=4, degree=3, N=2)
        ref = torus.reference_from_solution(vf, sol)
        manual = sol.coupling.phase_weights @ sol.x_seg[:, 0, :]
        assert np.array_equal(ref.vphi, manual)


class TestExport:
    def test_theta2_zero_column_matches_segment_starts(self):
        vf, sol = decoupled_torus(ntst=6, degree=4, N=2)
        grid = torus.export_torus_mesh(sol, theta2_count=9)
        assert np.abs(grid.values[:, 0, :] - sol.x_seg[:, 0, :]).max() < 1e-12

    def test_closure_in_theta2(self):
        vf, sol = decoupled_torus(ntst=6, degree=4, N=2)
        sol = torus.solve_fixed(vf, sol)
        grid = torus.export_torus_mesh(sol, theta2_count=17)
        assert np.abs(grid.values[:, -1, :] - grid.values[:, 0, :]).max() < 1e-7

    def test_degenerate_torus_exports_orbit_sweep(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(8, 4)
        rho = 0.6
        orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), np.array([OM, rho, 0.0]))
        floq = po.floquet(vf, orbit)
        sol = torus.init_from_TR(vf, orbit, floq, N=2, eps=0.0)
        grid = torus.export_torus_mesh(sol, theta2_count=7)
        for i, th2 in enumerate(grid.theta2):
            x_orbit = colloc.interpolate(orbit.traj, th2 / sol.om2)
            for j in range(sol.n_seg):
                assert np.abs(grid.values[j, i] - x_orbit).max() < 1e-10


    def test_circle_at_several_times_is_the_circle_at_each(self):
        vf, sol = decoupled_torus(ntst=6, degree=4, N=2)
        ts = sol.T0 + sol.T * np.array([0.0, 0.3, 1.0])
        assert np.array_equal(torus.eval_circle(sol, ts),
                              np.stack([torus.eval_circle(sol, t) for t in ts]))


class TestInvariance:
    def test_deviation_small_on_converged_product_torus(self):
        vf, sol = decoupled_torus(ntst=12, degree=5, N=2)
        sol = torus.solve_fixed(vf, sol)
        devs = torus.invariance_deviation(vf, sol, n_returns=5)
        assert devs.max() < 1e-6

    def test_corrupted_solution_flagged(self):
        vf, sol = decoupled_torus(ntst=12, degree=5, N=2)
        sol = torus.solve_fixed(vf, sol)
        good = torus.invariance_deviation(vf, sol, n_returns=3).max()
        import dataclasses

        bad_sol = dataclasses.replace(sol, x_seg=sol.x_seg * 1.1)
        bad = torus.invariance_deviation(vf, bad_sol, n_returns=3).max()
        assert bad > 100 * max(good, 1e-12)
