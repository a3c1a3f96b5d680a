"""Cached-pattern Jacobians, bordered systems and determinant signs."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

from torcont import colloc, linsys, odesys, po, torus
from util_systems import OM, decoupled_torus, langford_circle_traj


def test_perm_parity_matches_dense_determinant():
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        for _ in range(12):
            perm = rng.permutation(n).astype(np.int32)
            assert linsys._perm_parity(perm) == np.sign(np.linalg.det(np.eye(n)[perm]))


def test_k_segment_kernel_matches_single_segments():
    vf = odesys.builtin_vdp()
    mesh = colloc.build_mesh(3, 3)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, mesh.n_base, 2))
    args = (1.3, 0.2, np.array([1.5, 0.2, 0.3]))

    def dense_x(xs):
        K = len(xs)
        shape = (K * colloc.n_residual_rows(mesh, 2), K * mesh.n_base * 2)
        vals = colloc.segment_jacobian(vf, mesh, xs, *args).J_x
        return sp.coo_matrix((vals, colloc.segment_pattern(mesh, 2, K)), shape=shape).toarray()

    res = colloc.segment_residual(vf, mesh, x, *args)
    jac = colloc.segment_jacobian(vf, mesh, x, *args)
    singles = [colloc.segment_jacobian(vf, mesh, xk, *args) for xk in x]
    assert np.array_equal(res, np.concatenate(
        [colloc.segment_residual(vf, mesh, xk, *args) for xk in x]))
    assert np.array_equal(dense_x(x), block_diag(*[dense_x(xk[None]) for xk in x]))
    for name in ("J_T", "J_T0", "J_p"):
        assert np.array_equal(getattr(jac, name),
                              np.concatenate([getattr(s, name) for s in singles]))


# -- the four problem kinds: pattern, values and the columns each keeps -------


def autonomous_orbit():
    vf = odesys.builtin_langford()
    mesh = colloc.build_mesh(5, 3)
    orbit = po.solve_po(vf, langford_circle_traj(mesh, 0.6), np.array([OM, 0.6, 0.0]))
    problem, u0 = po.continuation_problem(vf, orbit, ["rho"])
    return problem, u0, _po_fresh(vf, problem, [1])


def forced_orbit():
    vf = odesys.builtin_vdp()
    p = np.array([1.5111, 0.11, 0.3])
    mesh = colloc.build_mesh(6, 3)
    traj = po.sample_orbit(vf, [0.5, 0.0], p, mesh, 2 * np.pi / p[0])
    orbit = po.PeriodicOrbit(traj=traj, p=p, reference=po.make_reference(vf, traj, p))
    problem, u0 = po.continuation_problem(vf, orbit, ["Om2"], detect_tr=False)
    return problem, u0, _po_fresh(vf, problem, [0])


def kernel_values(pattern, J_all):
    """Values in assembly order, read back from a Jacobian whose pattern
    keeps every column (its gather is then a permutation)."""
    values = np.empty(pattern.gather.size)
    values[pattern.gather] = J_all.data
    return values


def _po_fresh(vf, problem, active_idx):
    def fresh(u):
        orbit = problem.embed(u)
        rows, cols, shape = po.po_jacobian_index(vf, orbit.traj.mesh)
        full = linsys.CscPattern(rows, cols, shape)
        vals = kernel_values(full, po.po_jacobian(vf, orbit.traj, orbit.p, orbit.reference,
                                                  full))
        X = orbit.traj.x_bp.size
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsc()[
            :, list(range(X + 1)) + [X + 1 + i for i in active_idx]]
    return fresh


def autonomous_torus():
    vf, sol = decoupled_torus(ntst=4, degree=3, N=2)
    return _torus_case(vf, sol, ["gam", "om1", "om2", "varrho"])


def forced_torus():
    vf = odesys.builtin_vdp()
    tg = np.linspace(0.0, 2 * np.pi / 1.5111, 40)
    samples = np.zeros((5, 40, 2))
    samples[:, :, 0] = np.cos(tg)[None, :]
    samples[:, :, 1] = np.sin(tg)[None, :]
    sol = torus.init_from_samples(
        vf, tg, samples,
        params={"Om2": 1.5111, "c": 0.11, "a": 0.1, "om1": -1.0, "om2": 1.5111,
                "varrho": -1 / 1.5111},
        mesh=colloc.build_mesh(5, 3),
    )
    return _torus_case(vf, sol, ["a", "Om2", "om2", "varrho"])


def _torus_case(vf, sol, released):
    problem, u0 = torus.continuation_problem(vf, sol, released, detect_bp=False)
    X = sol.x_seg.size
    keep = list(range(X + 2)) + [torus.param_column(vf, X, name) for name in released]

    def fresh(u):
        s = problem.embed(u)
        rows, cols, shape = torus.torus_jacobian_index(vf, s)
        full = linsys.CscPattern(rows, cols, shape)
        vals = kernel_values(full, torus.torus_jacobian(vf, s, full))
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsc()[:, keep]
    return problem, u0, fresh


def is_canonical(M):
    """Sorted, duplicate-free row indices, judged from the arrays alone."""
    return sp.csc_matrix((M.data, M.indices, M.indptr), shape=M.shape).has_canonical_format


@pytest.mark.parametrize("case", [autonomous_orbit, forced_orbit, autonomous_torus,
                                  forced_torus])
def test_cached_pattern_matches_fresh_coo_assembly(case):
    problem, u0, fresh = case()
    rng = np.random.default_rng(12)
    u1 = u0 + 1e-2 * rng.standard_normal(u0.size)  # moves states and parameters
    patterns = []
    for u in (u0, u1):
        J = problem.jacobian(u)
        assert J.format == "csc" and J.shape == (u0.size - 1, u0.size)
        assert np.array_equal(J.toarray(), fresh(u).toarray())
        border = rng.standard_normal(u0.size)
        border[::3] = 0.0  # zeros stay explicit entries of the border row
        B = linsys.bordered_matrix(J, border)
        assert B.nnz == J.nnz + u0.size
        assert is_canonical(J) and is_canonical(B)
        B_plain = linsys.bordered_matrix(J.copy(), border)  # layout worked out afresh
        assert np.array_equal(B.indices, B_plain.indices)
        assert np.array_equal(B.indptr, B_plain.indptr)
        assert np.array_equal(B.data, B_plain.data)
        assert np.array_equal(B.toarray(), np.vstack([fresh(u).toarray(), border]))
        patterns.append((J.indices, J.indptr))
        problem.on_accept(u1)  # re-anchor the sections at the moved point
    assert all(np.array_equal(a, b) for a, b in zip(*patterns))
