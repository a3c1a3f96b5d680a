"""Periodic-orbit problem and Floquet machinery.

The Langford system at eps=0 admits an exact analytic oracle: rotational
symmetry reduces it to a corotating frame where the circular orbit
x3 = 0.7, r^2 = K/(1 + 0.7 rho), K = 3.557/3 becomes a fixed point, so the
monodromy over T = 2*pi/om is exactly expm(A T) with

    A = [[0, 0, r], [0, 0, 0], [-2 r (1 + 0.7 rho), 0, 0.51 - rho r^2]].

This pins the Floquet multipliers, the TR location rho* = 0.51/(K - 0.357)
and the TR angle alpha = sqrt(2K) * T without touching the code under test.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from torcont import colloc, ivp, odesys, po
from util_systems import linear_zero_orbit, seams

K_LANG = 3.557 / 3.0
OM = 3.5
T_LANG = 2 * np.pi / OM
RHO_STAR = 0.51 / (K_LANG - 0.357)  # 0.6154465...
ALPHA_STAR = np.sqrt(2 * K_LANG) * T_LANG  # 2.7644461...


def langford_circle_radius(rho):
    return np.sqrt(K_LANG / (1 + 0.7 * rho))


def langford_reduced_matrix(rho):
    r = langford_circle_radius(rho)
    return np.array(
        [[0.0, 0.0, r], [0.0, 0.0, 0.0],
         [-2 * r * (1 + 0.7 * rho), 0.0, 0.51 - rho * r**2]]
    )


def langford_circle_traj(mesh, rho):
    r = langford_circle_radius(rho)
    t = T_LANG * mesh.basepoints
    x = np.column_stack([r * np.cos(OM * t), r * np.sin(OM * t), np.full(t.size, 0.7)])
    return colloc.Trajectory(mesh=mesh, x_bp=x, duration=T_LANG)


def reanchor(vf, orbit, t_shift):
    """Same orbit re-anchored so the section sits at time ``t_shift``.

    Rebuilds the base-point states by integrating from the interpolated
    shifted point; used to check phase-anchor invariance of the multipliers.
    """
    T = orbit.period
    y0 = colloc.interpolate(orbit.traj, orbit.traj.t_offset + (t_shift % T))
    traj = po.sample_orbit(vf, y0, orbit.p, orbit.traj.mesh, T)
    return po.solve_po(vf, traj, orbit.p)


def rotation_field():
    return odesys.VectorField(
        dim_state=2, dim_params=0, param_names=(), autonomous=True,
        rhs=lambda t, y, p: np.stack([-y[1], y[0]]),
        jac_state=lambda t, y, p: np.array([[0.0, -1.0], [1.0, 0.0]])
        if np.ndim(y) == 1 else
        np.broadcast_to(np.array([[0.0, -1.0], [1.0, 0.0]])[:, :, None],
                        (2, 2, y.shape[1])).copy(),
        vectorized=True,
    )


class TestPoResidual:
    def test_exact_circle_small_residual(self):
        vf = rotation_field()
        mesh = colloc.build_mesh(40, 4)
        t = 2 * np.pi * mesh.basepoints
        traj = colloc.Trajectory(
            mesh=mesh, x_bp=np.column_stack([np.cos(t), np.sin(t)]), duration=2 * np.pi
        )
        ref = po.make_reference(vf, traj, [])
        res = po.po_residual(vf, traj, [], ref)
        # exact samples leave only the O(h^degree) interpolation-derivative error
        assert np.abs(res).max() < 1e-5

    def test_phase_row_linear_in_flow_perturbation(self):
        vf = rotation_field()
        mesh = colloc.build_mesh(6, 3)
        t = 2 * np.pi * mesh.basepoints
        traj = colloc.Trajectory(
            mesh=mesh, x_bp=np.column_stack([np.cos(t), np.sin(t)]), duration=2 * np.pi
        )
        ref = po.make_reference(vf, traj, [])
        f0 = ref.f0
        vals = []
        for scale in (1e-3, 2e-3, 4e-3):
            x = traj.x_bp.copy()
            x[0] += scale * f0
            res = po.po_residual(vf, replace(traj, x_bp=x), [], ref)
            vals.append(res[-1])
        assert np.isclose(vals[1] / vals[0], 2.0, rtol=1e-9)
        assert np.isclose(vals[2] / vals[0], 4.0, rtol=1e-9)

    def test_langford_newton_from_integrated_guess(self):
        # transient simulation -> near-periodic guess -> Newton below 1e-8
        vf = odesys.builtin_langford()
        p = np.array([3.5, 1.5, 0.0])
        res = ivp.integrate(vf, [0.0, 100 * T_LANG], np.array([0.3, 0.4, 0.0]), p)
        mesh = colloc.build_mesh(20, 4)
        traj0 = po.sample_orbit(vf, res.y[-1], p, mesh, T_LANG)
        orbit = po.solve_po(vf, traj0, p)
        final = po.po_residual(vf, orbit.traj, p, orbit.reference)
        # converged orbit re-anchored at itself keeps a tiny residual
        assert np.abs(final[:-1]).max() < 1e-8
        r = langford_circle_radius(1.5)
        assert abs(np.linalg.norm(orbit.traj.x_bp[0][:2]) - r) < 1e-6
        assert abs(orbit.traj.x_bp[0][2] - 0.7) < 1e-6

    @pytest.mark.parametrize("ntst", [20, 40])
    def test_sampled_orbit_joins_exactly_at_subinterval_ends(self, ntst):
        # integrating over np.unique of the base-point times left 4 of the 19
        # shared ends of the 20 x 4 mesh (7 of 39 at 40 x 4) an ulp or so apart
        mesh = colloc.build_mesh(ntst, 4)
        traj = po.sample_orbit(odesys.builtin_langford(), [0.3, 0.4, 0.0],
                               np.array([3.5, 1.5, 0.0]), mesh, 1.7951958020513104)
        assert np.array_equal(*seams(mesh, traj.x_bp))


class TestFloquet:
    def test_constant_linear_system_matches_expm(self):
        rng = np.random.default_rng(77)
        A = 0.5 * rng.standard_normal((3, 3))
        T = 1.1
        vf, orbit = linear_zero_orbit(A, T)
        mu = np.sort_complex(po.floquet(vf, orbit).multipliers)
        mu_ref = np.sort_complex(np.linalg.eigvals(expm(A * T)))
        assert np.abs(mu - mu_ref).max() < 1e-6

    @pytest.mark.parametrize("lam, lost", [(10.0, False), (15.0, True), (20.0, True)])
    def test_rounding_loss_warned(self, lam, lost):
        # x' = Q diag(lam, 0.3, -lam) Q^T x: the product form loses e^-lam to
        # rounding once eps e^(2 lam) exceeds ROUNDING_TOL (error 1e-4 at lam = 15)
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        vf, orbit = linear_zero_orbit(Q @ np.diag([lam, 0.3, -lam]) @ Q.T, 1.0)
        warning = po.floquet(vf, orbit).warning
        assert (warning is not None and "rounding" in warning) == lost

    def test_no_rounding_warning_on_langford(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(20, 4)
        orbit = po.solve_po(vf, langford_circle_traj(mesh, 0.2), np.array([OM, 0.2, 0.0]))
        assert po.floquet(vf, orbit).warning is None

    @pytest.mark.parametrize("rho", [1.5, 0.9, RHO_STAR])
    def test_langford_multipliers_against_analytic_oracle(self, rho):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(20, 4)
        orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), np.array([OM, rho, 0.0]))
        floq = po.floquet(vf, orbit)
        mu_ref = np.sort_complex(np.linalg.eigvals(expm(langford_reduced_matrix(rho) * T_LANG)))
        mu = np.sort_complex(floq.multipliers)
        assert np.abs(mu - mu_ref).max() < 1e-6

    def test_trivial_multiplier_close_to_one(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(20, 4)
        orbit = po.solve_po(vf, langford_circle_traj(mesh, 1.2), np.array([OM, 1.2, 0.0]))
        floq = po.floquet(vf, orbit)
        assert abs(floq.multipliers[floq.trivial_index] - 1.0) < 1e-4

    def test_tr_pair_on_unit_circle_at_rho_star(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(20, 4)
        rho = 0.61545  # the reported location
        orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), np.array([OM, rho, 0.0]))
        floq = po.floquet(vf, orbit)
        assert floq.tr_angle is not None
        assert floq.tr_distance < 5e-3
        assert abs(floq.tr_angle - ALPHA_STAR) < 1e-3

    def test_multiplier_product_equals_determinant(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(16, 4)
        orbit = po.solve_po(vf, langford_circle_traj(mesh, 0.8), np.array([OM, 0.8, 0.0]))
        floq = po.floquet(vf, orbit)
        prod = np.prod(floq.multipliers)
        det = np.linalg.det(floq.monodromy)
        assert abs(prod - det) / abs(det) < 1e-6

    def test_anchor_invariance(self):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(20, 4)
        p = np.array([OM, 1.1, 0.0])
        orbit = po.solve_po(vf, langford_circle_traj(mesh, 1.1), p)
        mu0 = np.sort_complex(po.floquet(vf, orbit).multipliers)
        for shift in (0.3 * T_LANG, 0.7 * T_LANG):
            orbit2 = reanchor(vf, orbit, shift)
            mu1 = np.sort_complex(po.floquet(vf, orbit2).multipliers)
            assert np.abs(mu1 - mu0).max() < 1e-5


class TestFloquetAgainstIvp:
    """The collocation monodromy against the variational IVP."""

    @staticmethod
    def assert_multipliers_match_ivp(vf, orbit):
        ref = ivp.transition_matrix(vf, orbit.traj.t_offset, orbit.period,
                                    orbit.traj.x_bp[0], orbit.p)
        mu = np.sort_complex(po.floquet(vf, orbit).multipliers)
        mu_ref = np.sort_complex(np.linalg.eigvals(ref.monodromy))
        assert np.abs(mu - mu_ref).max() < 1e-8

    @pytest.mark.parametrize("rho", [1.5, 0.9, 0.61545])
    def test_langford(self, rho):
        vf = odesys.builtin_langford()
        mesh = colloc.build_mesh(20, 4)
        orbit = po.solve_po(vf, langford_circle_traj(mesh, rho), np.array([OM, rho, 0.0]))
        self.assert_multipliers_match_ivp(vf, orbit)

    def test_forced_vdp(self):
        vf = odesys.builtin_vdp()
        p = np.array([1.5111, 0.11, 0.3])
        T = 2 * np.pi / p[0]
        res = ivp.integrate(vf, [0.0, 30 * T], np.array([0.5, 0.0]), p)
        mesh = colloc.build_mesh(20, 4)
        orbit = po.solve_po(vf, po.sample_orbit(vf, res.y[-1], p, mesh, T), p)
        self.assert_multipliers_match_ivp(vf, orbit)


class TestForcedOrbit:
    def test_vdp_forced_period_pinned(self):
        # non-autonomous orbits drop the phase row and pin T = 2*pi/Omega
        vf = odesys.builtin_vdp()
        p = np.array([1.5111, 0.11, 0.3])
        T = 2 * np.pi / p[0]
        res = ivp.integrate(vf, [0.0, 30 * T], np.array([0.5, 0.0]), p)
        mesh = colloc.build_mesh(12, 4)
        traj0 = po.sample_orbit(vf, res.y[-1], p, mesh, T)
        orbit = po.solve_po(vf, traj0, p)
        assert abs(orbit.period - T) < 1e-12
        rr = po.po_residual(vf, orbit.traj, p, orbit.reference)
        assert np.abs(rr).max() < 1e-8
        floq = po.floquet(vf, orbit)
        assert floq.trivial_index is None  # no flow multiplier when forced
        prod = np.prod(floq.multipliers)
        det = np.linalg.det(floq.monodromy)
        assert abs(prod - det) / abs(det) < 1e-6

    def test_zero_period_collapse_rejected(self):
        # a wildly wrong period guess lands on the constant T = 0 solution,
        # which must be rejected rather than returned
        vf = odesys.builtin_langford()
        p = np.array([3.5, 0.65, 0.0])
        res = ivp.integrate(vf, [0.0, 0.55], np.array([0.3, 0.4, 0.0]), p)
        mesh = colloc.build_mesh(10, 4)
        traj0 = po.sample_orbit(vf, res.y[-1], p, mesh, 0.11)
        from torcont.errors import ConvergenceError

        with pytest.raises(ConvergenceError, match="zero-period"):
            po.solve_po(vf, traj0, p)


class TestTrTest:
    def test_stable_pair(self):
        mu = np.array([1.0, 0.5 * np.exp(1j * np.pi / 3), 0.5 * np.exp(-1j * np.pi / 3)])
        floq = po.FloquetData(multipliers=mu, monodromy=np.eye(3), trivial_index=0)
        assert np.isclose(po.tr_test_function(floq), -0.5)

    def test_unstable_pair(self):
        mu = np.array([1.0, 1.2 * np.exp(1j), 1.2 * np.exp(-1j)])
        floq = po.FloquetData(multipliers=mu, monodromy=np.eye(3), trivial_index=0)
        assert np.isclose(po.tr_test_function(floq), 0.2)

    def test_no_pair_sentinel(self):
        mu = np.array([1.0, 0.3, -0.2])
        floq = po.FloquetData(multipliers=mu, monodromy=np.eye(3), trivial_index=0)
        assert po.tr_test_function(floq) is None

    def test_sign_change_brackets_rho_star(self):
        # analytic oracle: |mu| = exp(Re(lam) T), Re(lam) = (0.51 - rho r^2)/2
        vals = {}
        for rho in (0.55, 0.65):
            lam = np.linalg.eigvals(langford_reduced_matrix(rho))
            lam_c = lam[np.abs(lam.imag) > 1e-9][0]
            vals[rho] = np.exp(lam_c.real * T_LANG) - 1.0
        assert vals[0.55] * vals[0.65] < 0
        assert 0.55 < RHO_STAR < 0.65
