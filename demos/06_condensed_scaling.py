"""Condensed factorization as the torus grows, checked by its residual.

Seeds Langford tori at the TR point of the circular orbit family (eps = 0,
rho = 0.6154, 20 x 4 mesh) with N = 10, 25, 50 and 100 Fourier modes,
borders each Jacobian with the torus perturbation direction and times one
factorization and one solve by condensation (``linsys.lu_factor``).  Their
sum is split into the batched local inverse (``np.linalg.inv`` of the
collocation blocks, read in place from the kernel's values), the reduced
system R (``np.linalg.slogdet`` in the factorization, ``np.linalg.solve``
in the solve) and the rest: the segment chain, the assembly of R and the
replay of the solve.  BLAS and OpenMP threads are capped at the usable CPUs
before numpy loads, as in ``perfbench/run.py``.  Each solve is checked by
its relative residual max|B x - rhs| / max|rhs|, with B x taken from the
Jacobian's blocks (``B @ x``); the demo exits with status 1 when one is
above 1e-8.  Then it runs three continuation steps of the N = 100 family,
60,306 unknowns.

One run on a shared 2-vCPU host (Python 3.11.7, numpy 2.4.6, scipy
1.17.1, two BLAS threads), best of 5, in ms; local inv + reduced + rest =
factor + solve.  Other runs on that host read higher: of three runs, one
read N = 25 at 105 ms (rest 97.5 ms).

   N  unknowns    R  factor ms  solve  local inv  reduced   rest  residual
  10      6306   69        3.5   0.54        2.4      0.1    1.5   1.7e-12
  25     15306  159        8.6   1.35        6.0      0.7    3.2   1.0e-11
  50     30306  309       18.8   3.43       11.7      3.1    7.4   1.1e-11
 100     60306  609       45.1  12.47       23.6     15.3   18.7   3.2e-11

Expect a few seconds.
"""

import os
import sys
from time import perf_counter

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(CPUS)

import numpy as np  # noqa: E402

from torcont import colloc, contin, linsys, odesys, po, torus  # noqa: E402

OM, RHO = 3.5, 0.6154
REPEATS = 5
#: largest relative residual of a solve
MAX_RESIDUAL = 1e-8


def tr_orbit(vf, mesh):
    """Corrected circular orbit at the TR point, seeded analytically."""
    r = np.sqrt(3.557 / 3.0 / (1.0 + 0.7 * RHO))
    t = 2 * np.pi / OM * mesh.basepoints
    x = np.column_stack([r * np.cos(OM * t), r * np.sin(OM * t), np.full(t.size, 0.7)])
    traj = colloc.Trajectory(mesh=mesh, x_bp=x, duration=2 * np.pi / OM)
    return po.solve_po(vf, traj, np.array([OM, RHO, 0.0]))


def problem_at(vf, orbit, floq, N):
    sol = torus.init_from_TR(vf, orbit, floq, N)
    problem, u0 = torus.continuation_problem(vf, sol, ["varrho", "rho", "om1", "om2"],
                                             detect_bp=False)
    seed = np.zeros(u0.size)
    seed[: sol.x_seg.size] = torus.tr_perturbation_direction(sol)
    problem.start_border = seed
    return problem, u0, seed / np.linalg.norm(seed)


def best_of(fn):
    """(smallest wall time in ms, result) over REPEATS calls."""
    times, out = [], None
    for _ in range(REPEATS):
        t0 = perf_counter()
        out = fn()
        times.append(1e3 * (perf_counter() - t0))
    return min(times), out


vf = odesys.builtin_langford()
orbit = tr_orbit(vf, colloc.build_mesh(20, 4))
floq = po.floquet(vf, orbit)

print(f"{'N':>4} {'unknowns':>9} {'R':>4} {'factor ms':>10} {'solve':>6} {'local inv':>10} "
      f"{'reduced':>8} {'rest':>6} {'residual':>9}")
worst = 0.0
for N in (10, 25, 50, 100):
    problem, u0, seed = problem_at(vf, orbit, floq, N)
    B = linsys.bordered_matrix(problem.jacobian(u0), seed)
    rhs = np.random.default_rng(N).standard_normal(B.shape[0])
    t_fac, lu = best_of(lambda: linsys.lu_factor(B))
    p = B.pattern
    t_inv, _ = best_of(lambda: np.linalg.inv(B.blocks()[:, :, p.n:]))
    R, g = lu._R, rhs[-lu._R.shape[0]:]
    t_red, _ = best_of(lambda: (np.linalg.slogdet(R), np.linalg.solve(R, g)))
    t_sol, x = best_of(lambda: lu.solve(rhs))
    residual = np.abs(B @ x - rhs).max() / np.abs(rhs).max()
    worst = max(worst, residual)
    print(f"{N:4d} {B.shape[0]:9d} {R.shape[0]:4d} {t_fac:10.1f} {t_sol:6.2f} {t_inv:10.1f} "
          f"{t_red:8.1f} {t_fac + t_sol - t_inv - t_red:6.1f} {residual:9.1e}")

print("\nthree continuation steps of the N = 100 family:")
t0 = perf_counter()
branch = contin.run(problem, u0, contin.ContinuationState(h=0.5, h_min=1e-3, h_max=10.0,
                                                          pt_max=3, bi_direct=False))
for pt in branch.points:
    print(f"  label {pt.label} {pt.ptype}: varrho {pt.monitors['varrho']:.6f} "
          f"rho {pt.monitors['rho']:.6f}, {pt.corrector_iters} corrector iterations")
print(f"  {perf_counter() - t0:.1f} s, termination: {branch.termination}")
if worst > MAX_RESIDUAL:
    sys.exit(f"relative solve residual {worst:.1e} above {MAX_RESIDUAL:.0e}")
