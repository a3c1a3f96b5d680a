"""Collocation Jacobians, their condensed factorization and determinant signs."""

import sys
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import block_diag

from torcont import colloc, contin, linsys, odesys, po, torus
from torcont.errors import ConvergenceError
from util_systems import OM, decoupled_torus, dense, langford_circle_traj


def test_k_segment_kernel_matches_single_segments():
    vf = odesys.builtin_vdp()
    mesh = colloc.build_mesh(3, 3)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, mesh.n_base, 2))
    args = (1.3, 0.2, np.array([1.5, 0.2, 0.3]))

    def dense_x(xs):
        K = len(xs)
        shape = (K * colloc.n_residual_rows(mesh, 2), K * mesh.n_base * 2)
        out = np.zeros(shape)
        vals = colloc.segment_jacobian(vf, mesh, xs, *args).J_x
        np.add.at(out, colloc.segment_pattern(mesh, 2, K), vals)
        return out

    res = colloc.segment_residual(vf, mesh, x, *args)
    jac = colloc.segment_jacobian(vf, mesh, x, *args)
    singles = [colloc.segment_jacobian(vf, mesh, xk, *args) for xk in x]
    assert np.array_equal(res, np.concatenate(
        [colloc.segment_residual(vf, mesh, xk, *args) for xk in x]))
    assert np.array_equal(dense_x(x), block_diag(*[dense_x(xk[None]) for xk in x]))
    for name in ("J_T", "J_T0", "J_p"):
        assert np.array_equal(getattr(jac, name),
                              np.concatenate([getattr(s, name) for s in singles]))


# -- the problem kinds: pattern, values and the columns each keeps -----------


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


def _po_fresh(vf, problem, active_idx):
    """Jacobian on the full columns, sliced to the kept ones."""
    def fresh(u):
        orbit = problem.embed(u)
        full = po.po_jacobian_pattern(vf, orbit.traj.mesh)
        J = dense(po.po_jacobian(vf, orbit.traj, orbit.p, orbit.reference, full))
        X = orbit.traj.x_bp.size
        return J[:, list(range(X + 1)) + [X + 1 + i for i in active_idx]]
    return fresh


def autonomous_torus(N=2):
    vf, sol = decoupled_torus(ntst=4, degree=3, N=N)
    return _torus_case(vf, sol, ["gam", "om1", "om2", "varrho"])


def autonomous_torus_n3():
    return autonomous_torus(N=3)


def autonomous_torus_n12():
    """Reduced system of 106 unknowns, factored in column panels."""
    return autonomous_torus(N=12)


def forced_torus():
    vf = odesys.builtin_vdp()
    mesh = colloc.build_mesh(5, 3)
    tb = 2 * np.pi / 1.5111 * colloc.distinct_basepoints(mesh)[0]
    samples = np.zeros((5, tb.size, 2))
    samples[:, :, 0] = np.cos(tb)[None, :]
    samples[:, :, 1] = np.sin(tb)[None, :]
    sol = torus.init_from_samples(
        vf, samples,
        params={"Om2": 1.5111, "c": 0.11, "a": 0.1, "om1": -1.0, "om2": 1.5111,
                "varrho": -1 / 1.5111},
        mesh=mesh,
    )
    return _torus_case(vf, sol, ["a", "Om2", "om2", "varrho"])


def _torus_case(vf, sol, released):
    problem, u0 = torus.continuation_problem(vf, sol, released, detect_bp=False)
    X = sol.x_seg.size
    names = torus.names(vf)[0]
    keep = list(range(X + 2)) + [X + 2 + names.index(name) for name in released]

    def fresh(u):
        return dense(torus.torus_jacobian(vf, problem.embed(u)))[:, keep]
    return problem, u0, fresh


@pytest.mark.parametrize("case", [autonomous_orbit, forced_orbit, autonomous_torus,
                                  forced_torus])
def test_cached_pattern_matches_fresh_coo_assembly(case):
    """The active-column Jacobian, as the product J @ v, equals the full
    Jacobian's columns, for a vector, a block of columns and the border."""
    problem, u0, fresh = case()
    rng = np.random.default_rng(12)
    u1 = u0 + 1e-2 * rng.standard_normal(u0.size)  # moves states and parameters
    for u in (u0, u1):
        J = problem.jacobian(u)
        assert isinstance(J, linsys.CollocationJacobian)
        assert J.shape == (u0.size - 1, u0.size)
        ref = fresh(u)
        assert np.array_equal(dense(J), ref)
        assert J.nnz >= np.count_nonzero(ref)
        assert linsys.max_abs(J) == np.abs(ref).max()
        v = rng.standard_normal(u0.size)
        assert np.abs(J @ v - ref @ v).max() <= 1e-13 * np.abs(ref).max() * np.abs(v).sum()
        border = rng.standard_normal(u0.size)
        border[::3] = 0.0  # zeros stay explicit entries of the border row
        B = linsys.bordered_matrix(J, border)
        assert B.nnz == J.nnz + u0.size and B.shape == (u0.size, u0.size)
        assert np.array_equal(dense(B), np.vstack([ref, border]))
        problem.on_accept(u1)  # re-anchor the sections at the moved point


@pytest.mark.parametrize("case", [autonomous_orbit, autonomous_torus])
def test_blocks_are_a_view_of_the_kernel_values(case):
    problem, u0 = case()[:2]
    J = problem.jacobian(u0)
    assert np.shares_memory(J.blocks(), J.seg.J_x)


def test_tail_blocks_reach_the_reduced_system():
    """Factor, solve, J @ v and max_abs read the tail's two blocks: the
    pattern's constant one on x(T) and the Jacobian's on x(0) and the extras."""
    problem, u0 = autonomous_torus_n3()[:2]
    rng = np.random.default_rng(4)
    J = problem.jacobian(u0 + 1e-3 * rng.standard_normal(u0.size))
    p = J.pattern
    Kn = p.K * p.n
    assert p.end.shape == (p.n_tail, Kn) and J.start.shape == (p.n_tail, Kn + p.n_extra)
    # the tail touches x(T) and x(0) of every segment and the extras
    for block in (p.end, J.start):
        assert np.unique(np.nonzero(block[:, :Kn])[1] // p.n).size == p.K > 1
    assert np.any(J.start[:, Kn:])
    B = linsys.bordered_matrix(J, rng.standard_normal(u0.size))
    ref_B, ref_J = dense(B), dense(J)
    v, rhs = rng.standard_normal(u0.size), rng.standard_normal(u0.size)
    x = linsys.lu_factor(B).solve(rhs)
    assert np.abs(ref_B @ x - rhs).max() <= 1e-10 * np.abs(rhs).max()
    assert np.abs(J @ v - ref_J @ v).max() <= 1e-13 * np.abs(ref_J).max() * np.abs(v).sum()
    assert linsys.max_abs(B) == np.abs(ref_B).max()


@pytest.mark.parametrize("case", [autonomous_orbit, forced_orbit, autonomous_torus,
                                  forced_torus])
def test_tail_rows_are_the_two_blocks(case):
    """The tail rows of J are its start block on x(0) of every segment and
    the kept extras, the pattern's end block on x(T), and zero elsewhere."""
    problem, u0 = case()[:2]
    J = problem.jacobian(u0)
    p = J.pattern
    tail = dense(J)[-p.n_tail:]
    x = tail[:, : p.n_x].reshape(p.n_tail, p.K, -1, p.n)  # (row, segment, base point, state)
    assert np.array_equal(x[:, :, 0].reshape(p.n_tail, -1), J.start[:, : p.K * p.n])
    assert np.array_equal(x[:, :, -1].reshape(p.n_tail, -1), p.end)
    assert not x[:, :, 1:-1].any()
    assert np.array_equal(tail[:, p.n_x:], J.start[:, p.K * p.n:])


# -- condensed factorization against a sparse LU reference --------------------


def _parity(perm):
    """Sign of a permutation from its cycle count."""
    seen = np.zeros(perm.size, dtype=bool)
    cycles = 0
    for i in range(perm.size):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if (perm.size - cycles) % 2 else 1


def reference_factor(B):
    """(solve, sign, log|det|) of B from SuperLU."""
    lu = spla.splu(sp.csc_matrix(B))
    d = lu.U.diagonal()
    sign = int(np.prod(np.sign(d))) * _parity(lu.perm_r) * _parity(lu.perm_c)
    return lu.solve, sign, float(np.sum(np.log(np.abs(d))))


def assert_matches_reference(B, seed=0):
    ref_solve, ref_sign, ref_logdet = reference_factor(dense(B))
    lu = linsys.lu_factor(B)
    rhs = np.random.default_rng(seed).standard_normal(B.shape[0])
    x, x_ref = lu.solve(rhs), ref_solve(rhs)
    assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()
    sign, logdet = linsys.det_sign_log(lu)
    assert sign == ref_sign
    assert abs(logdet - ref_logdet) <= 1e-9 * abs(ref_logdet)
    assert lu.U.shape == (B.shape[0],)


def linear_forced_orbit(multiplier=1.0e3):
    """Forced linear system whose orbit has Floquet multipliers
    ``multiplier`` and exp(-pi/2) (x1' = lam x1 + a cos(Om t), x2' = x1 - x2/2)."""
    Om = 2.0
    lam = np.log(multiplier) / (2 * np.pi / Om)

    def rhs(t, y, p):
        return np.array([p[1] * y[0] + p[2] * np.cos(p[0] * t), y[0] - 0.5 * y[1]])

    vf = odesys.VectorField(
        dim_state=2, dim_params=3, param_names=("Om", "lam", "a"), autonomous=False,
        rhs=rhs,
        jac_state=lambda t, y, p: np.array([[p[1], 0.0], [1.0, -0.5]]),
        jac_params=lambda t, y, p: np.array([[-p[2] * t * np.sin(p[0] * t), y[0],
                                              np.cos(p[0] * t)], [0.0, 0.0, 0.0]]),
        jac_time=lambda t, y, p: np.array([-p[2] * p[0] * np.sin(p[0] * t), 0.0]),
        forcing_param="Om",
    )
    p = np.array([Om, lam, 1.0])
    mesh = colloc.build_mesh(8, 4)
    traj = colloc.Trajectory(mesh=mesh, x_bp=np.zeros((mesh.n_base, 2)), duration=np.pi)
    orbit = po.solve_po(vf, traj, p)
    assert np.abs(po.floquet(vf, orbit).multipliers).max() == pytest.approx(multiplier, rel=1e-6)
    problem, u0 = po.continuation_problem(vf, orbit, ["a"], detect_tr=False)
    return problem, u0


@pytest.fixture
def eliminated(monkeypatch):
    """Step 1 of every factorization eliminates the blocks, whatever their
    number.  The list returned records each elimination: True when its
    pivots stood, False when it fell back to ``np.linalg.solve``."""
    outcomes, eliminate = [], linsys._eliminate

    def recorded(work, mn):
        piv = eliminate(work, mn)
        outcomes.append(piv is not None)
        return piv

    monkeypatch.setattr(linsys, "ELIMINATION_MIN_BLOCKS", 0)
    monkeypatch.setattr(linsys, "_eliminate", recorded)
    return outcomes


CONDENSED_CASES = [autonomous_orbit, forced_orbit, autonomous_torus_n3, autonomous_torus_n12,
                   forced_torus, linear_forced_orbit]


@pytest.mark.parametrize("case", CONDENSED_CASES)
def test_condensed_factor_matches_sparse_lu(case):
    problem, u0 = case()[:2]
    rng = np.random.default_rng(3)
    u = u0 + 1e-3 * rng.standard_normal(u0.size)
    B = linsys.bordered_matrix(problem.jacobian(u), rng.standard_normal(u0.size))
    assert_matches_reference(B)
    # the tangent bordering of a continuation step
    t = linsys.nullspace_tangent(problem.jacobian(u0), rng.standard_normal(u0.size))
    assert_matches_reference(linsys.bordered_matrix(problem.jacobian(u0), t), seed=1)


@pytest.mark.parametrize("case", CONDENSED_CASES)
def test_condensed_factor_matches_sparse_lu_eliminated(case, eliminated):
    test_condensed_factor_matches_sparse_lu(case)
    assert eliminated and all(eliminated)


MESH_SHAPES = [(1, 1, 1), (2, 1, 1), (1, 3, 2), (3, 2, 1), (2, 4, 3)]


@pytest.mark.parametrize("ntst,degree,N", MESH_SHAPES)
def test_determinant_sign_over_mesh_shapes(ntst, degree, N):
    vf, sol = decoupled_torus(ntst=ntst, degree=degree, N=N)
    problem, u0 = torus.continuation_problem(vf, sol, ["gam", "om1", "om2", "varrho"],
                                             detect_bp=False)
    rng = np.random.default_rng(ntst * 10 + degree)
    B = linsys.bordered_matrix(problem.jacobian(u0 + 1e-2 * rng.standard_normal(u0.size)),
                               rng.standard_normal(u0.size))
    sign, logdet = np.linalg.slogdet(dense(B))
    assert linsys.det_sign_log(linsys.lu_factor(B)) == pytest.approx((sign, logdet), rel=1e-9)
    assert_matches_reference(B)


@pytest.mark.parametrize("ntst,degree,N", MESH_SHAPES)
def test_determinant_sign_over_mesh_shapes_eliminated(ntst, degree, N, eliminated):
    # the coarse meshes (2, 1, 1) and (1, 3, 2) have multipliers above
    # MAX_MULTIPLIER and fall back; the others keep their pivots
    test_determinant_sign_over_mesh_shapes(ntst, degree, N)
    assert eliminated and all(eliminated) == ((ntst, degree, N) not in [(2, 1, 1), (1, 3, 2)])


@pytest.mark.parametrize("degree", range(1, 8))
def test_elimination_matches_the_batched_solve(degree, monkeypatch):
    """Step 1 by elimination and by ``np.linalg.solve`` give the same
    solution and determinant on collocation blocks of every degree; a
    regular block whose first pivot is zero falls back to the solve."""
    vf, sol = decoupled_torus(ntst=5, degree=degree, N=2)
    problem, u0 = torus.continuation_problem(vf, sol, ["gam", "om1", "om2", "varrho"],
                                             detect_bp=False)
    rng = np.random.default_rng(degree)
    B = linsys.bordered_matrix(problem.jacobian(u0 + 1e-2 * rng.standard_normal(u0.size)),
                               rng.standard_normal(u0.size))
    rhs = rng.standard_normal(B.shape[0])

    def factored(min_blocks):
        monkeypatch.setattr(linsys, "ELIMINATION_MIN_BLOCKS", min_blocks)
        lu = linsys.lu_factor(B)
        return lu.solve(rhs), linsys.det_sign_log(lu), lu._LU is not None

    for zero_pivot in (False, True):
        if zero_pivot:
            # adding a multiple of a later row keeps the determinant of block 7
            n, block = B.pattern.n, B.blocks()[7]
            r = 1 + np.argmax(np.abs(block[1:, n]))
            block[0] -= block[0, n] / block[r, n] * block[r]
            block[0, n] = 0.0
        x, (sign, logdet), by_pivots = factored(0)
        x_ref, (sign_ref, logdet_ref), solved_by_pivots = factored(sys.maxsize)
        assert by_pivots != zero_pivot and not solved_by_pivots
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
        assert sign == sign_ref != 0
        assert logdet == pytest.approx(logdet_ref, rel=1e-12)


def test_square_system_without_border():
    vf = odesys.builtin_langford()
    mesh = colloc.build_mesh(5, 3)
    traj = langford_circle_traj(mesh, 0.6)
    X = traj.x_bp.size
    p = np.array([OM, 0.6, 0.0])
    pattern = po.po_jacobian_pattern(vf, mesh, keep=[X])
    J = po.po_jacobian(vf, traj, p, po.make_reference(vf, traj, p), pattern)
    assert J.shape == (X + 1, X + 1)
    assert_matches_reference(J)


def test_plain_sparse_matrix_is_the_k0_case():
    """A plain matrix, half of it zeros, is factored as its own reduced system."""
    rng = np.random.default_rng(6)
    for n in (7, 150, 333):
        J = rng.standard_normal((n - 1, n)) * (rng.random((n - 1, n)) < 0.5) + np.eye(n - 1, n)
        border = rng.standard_normal(n)
        B = linsys.bordered_matrix(J, border)
        assert isinstance(B, np.ndarray) and np.array_equal(B, np.vstack([J, border]))
        assert_matches_reference(B)


def test_exactly_singular_dense_system_names_its_zero_pivot():
    # LAPACK's getrf stops at the first column the columns before it span
    B = np.random.default_rng(7).standard_normal((333, 333))
    B[:, 200] = 0.0
    with pytest.raises(ConvergenceError, match=r"reduced 333x333 system is exactly "
                                               r"singular \(zero pivot 201\)"):
        linsys.det_sign_log(linsys.lu_factor(B))


def test_exactly_singular_local_block_is_named():
    problem, u0 = autonomous_torus()[:2]
    J = problem.jacobian(u0)
    p = J.pattern
    # zero the interior columns of segment 1, subinterval 2, through the view
    J.blocks()[1 * p.ntst + 2, :, p.n:] = 0.0
    B = linsys.bordered_matrix(J, np.ones(u0.size))
    with pytest.raises(ConvergenceError, match="segment 1, subinterval 2"):
        linsys.lu_factor(B)


def test_exactly_singular_local_block_is_named_eliminated(eliminated):
    test_exactly_singular_local_block_is_named()
    assert eliminated == [False]


def test_exactly_singular_reduced_system_is_reported_and_shift_solves():
    problem, u0 = autonomous_orbit()[:2]
    B = linsys.bordered_matrix(problem.jacobian(u0), np.zeros(u0.size))
    with pytest.raises(ConvergenceError, match="reduced"):
        linsys.lu_factor(B).solve(np.ones(u0.size))
    x = linsys.lu_factor(B, shift=1e-10).solve(np.ones(u0.size))
    assert np.all(np.isfinite(x))


# -- one factor, many right-hand sides -----------------------------------------


def dense_system():
    rng = np.random.default_rng(8)
    return rng.standard_normal((60, 60)) + 8 * np.eye(60)


def bordered_orbit():
    problem, u0 = autonomous_orbit()[:2]
    border = np.random.default_rng(2).standard_normal(u0.size)
    return linsys.bordered_matrix(problem.jacobian(u0), border)


def bordered_torus_n10():
    problem, u0 = autonomous_torus(N=10)[:2]
    rng = np.random.default_rng(2)
    return linsys.bordered_matrix(problem.jacobian(u0 + 1e-3 * rng.standard_normal(u0.size)),
                                  rng.standard_normal(u0.size))


RHS_CASES = dict(argvalues=[bordered_orbit, bordered_torus_n10, dense_system],
                 ids=["orbit", "torus-N10", "dense"])


@pytest.mark.parametrize("case", **RHS_CASES)
def test_factor_given_rhs_solves_as_a_plain_factor(case):
    B = case()
    rng = np.random.default_rng(11)
    rhs, rhs2 = rng.standard_normal((2, B.shape[0]))
    given = linsys.lu_factor(B)
    for r in (rhs, rhs2):  # the factor's first solve, then a later one
        x, x_ref = given.solve(r), linsys.lu_factor(B).solve(r)
        assert np.abs(x - x_ref).max() <= 1e-12 * np.abs(x_ref).max()
    sign, logdet = linsys.det_sign_log(given)
    sign_ref, logdet_ref = linsys.det_sign_log(linsys.lu_factor(B))
    assert sign == sign_ref != 0
    assert abs(logdet - logdet_ref) <= 1e-10


@pytest.mark.parametrize("case", **RHS_CASES)
def test_factor_given_rhs_solves_as_a_plain_factor_eliminated(case, eliminated):
    test_factor_given_rhs_solves_as_a_plain_factor(case)
    assert all(eliminated) and (case is dense_system) != bool(eliminated)


def test_exactly_singular_reduced_system_given_rhs_names_its_zero_pivot():
    B = np.random.default_rng(7).standard_normal((333, 333))
    B[:, 200] = 0.0
    with pytest.raises(ConvergenceError, match=r"reduced 333x333 system is exactly "
                                               r"singular \(zero pivot 201\)"):
        linsys.lu_factor(B).solve(np.ones(333))
    problem, u0 = autonomous_orbit()[:2]
    B = linsys.bordered_matrix(problem.jacobian(u0), np.zeros(u0.size))
    with pytest.raises(ConvergenceError) as plain:
        linsys.det_sign_log(linsys.lu_factor(B))
    with pytest.raises(ConvergenceError) as given:
        linsys.lu_factor(B).solve(np.ones(u0.size))
    assert "reduced" in str(plain.value) and str(given.value) == str(plain.value)


def test_later_solve_substitutes_on_the_kept_blocks(eliminated, monkeypatch):
    """A later right-hand side reuses the blocks' L and U: it solves no
    block again (the one ``np.linalg.solve`` is R's) and gives a fresh
    factor's first solution bit for bit."""
    B = bordered_torus_n10()
    rhs, rhs2 = np.random.default_rng(12).standard_normal((2, B.shape[0]))
    lu = linsys.lu_factor(B)
    lu.solve(rhs)
    solved, solve = [], np.linalg.solve

    def counted_solve(a, b):
        solved.append(np.ndim(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    x = lu.solve(rhs2)
    assert solved == [2]
    assert np.array_equal(x, linsys.lu_factor(B).solve(rhs2))
    assert eliminated == [True, True]


def test_continuation_without_bp_detection_takes_no_reduced_determinant(monkeypatch):
    """Nothing reads a determinant with detect_bp off: the run factors and
    solves, but no slogdet of R runs."""
    factor, slogdet = linsys.lu_factor, np.linalg.slogdet
    counts = Counter()

    def lu_factor(A, shift=0.0):
        counts["lu_factor"] += 1
        return factor(A, shift)

    def counted_slogdet(a):
        counts["slogdet of R"] += np.ndim(a) == 2
        return slogdet(a)

    monkeypatch.setattr(linsys, "lu_factor", lu_factor)
    monkeypatch.setattr(contin, "lu_factor", lu_factor)
    monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
    problem, u0 = autonomous_torus()[:2]
    branch = contin.run(problem, u0, contin.ContinuationState(
        h=0.1, h_max=0.2, pt_max=4, bi_direct=False))
    assert len(branch.points) == 5
    assert counts["slogdet of R"] == 0 and counts["lu_factor"] > 4
