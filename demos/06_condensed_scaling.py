"""Condensed factorization as the torus grows, checked by its residual.

Seeds Langford tori at the TR point of the circular orbit family (eps = 0,
rho = 0.6154, 20 x 4 mesh) with N = 10, 25, 50 and 100 Fourier modes,
borders each Jacobian with the torus perturbation direction and times one
factorization by condensation that solves for a right-hand side on the
way, ``linsys.lu_factor(B, rhs=rhs)``, as each Newton update does.  Its
time is split into the local elimination (``linsys._eliminate``: every
collocation block at once, along the subinterval axis, carrying the
initial-point columns, the extra columns with collocation values and the
right-hand side; these meshes have 420 to 4020 blocks, all above
``linsys.ELIMINATION_MIN_BLOCKS``), the one solve of the reduced system
R (``np.linalg.solve``) and the rest: filling the elimination's array,
the segment chain, the assembly of R and the replay of the right-hand
side.  "later" times a second right-hand side on the same factor, which
solves the kept blocks again by ``np.linalg.solve``; "det" times
``linsys.det_sign_log``, whose local determinants are the elimination's
pivots.
BLAS and OpenMP threads are capped at the usable CPUs before numpy loads,
as in ``perfbench/run.py``.  Both solutions are checked by their relative
residual max|B x - rhs| / max|rhs|, with B x taken from the Jacobian's
blocks (``B @ x``); the demo exits with status 1 when one is above 1e-8.
Then it runs three continuation steps of the N = 100 family, 60,306
unknowns.

One run on a shared 2-vCPU host (Python 3.11.7, numpy 2.4.6, OpenBLAS
0.3.31, two BLAS threads), best of 5, in ms; local + R solve + rest =
factor, which includes the solve for its right-hand side.  The rest
includes the assembly of R, which adds the tail's block on x(0) and the
extras to the products of its constant x(T) block.  Runs on this host
spread widely: at N = 50 the previous build, which scattered the tail
values into R one by one, read factor 5.6 ms (local 2.4, rest 2.2) in an
earlier run and 7.0 ms (local 3.5, rest 1.9) in a run made just after
this one, which read N = 25 at 140.1 ms; three later runs of this build
on a quieter host read 4.3 to 4.5 ms, one of them N = 25 at 143.9 ms.
Such an N = 25 figure is the one solve of R inside the factorization
taking about 140 ms on every repetition of a run, at two BLAS threads.

   N  unknowns    R  factor ms  local  R solve   rest  later    det  residual
  10      6306   69        1.8    0.7      0.0    1.0   1.00   0.16   1.0e-12
  25     15306  159        3.7    1.6      0.3    1.8   2.86   0.55   9.5e-12
  50     30306  309        7.3    2.9      1.1    3.3   5.19   1.49   3.7e-11
 100     60306  609       19.1    5.2      5.6    8.3  14.57   6.37   2.8e-11

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

print(f"{'N':>4} {'unknowns':>9} {'R':>4} {'factor ms':>10} {'local':>6} {'R solve':>8} "
      f"{'rest':>6} {'later':>6} {'det':>6} {'residual':>9}")
worst = 0.0
for N in (10, 25, 50, 100):
    problem, u0, seed = problem_at(vf, orbit, floq, N)
    B = linsys.bordered_matrix(problem.jacobian(u0), seed)
    rhs, rhs2 = np.random.default_rng(N).standard_normal((2, B.shape[0]))
    t_fac, lu = best_of(lambda: linsys.lu_factor(B, rhs=rhs))
    p = B.pattern
    mn = p.m * p.n
    work = np.ones((mn, mn + p.n + p.coll_extra.size + 1, p.K * p.ntst))
    work[:, :mn] = B.blocks()[:, :, p.n:].transpose(1, 2, 0)
    t_loc, _ = best_of(lambda: linsys._eliminate(work.copy(), mn))
    R, g = lu._R, rhs[-lu._R.shape[0]:]
    t_red, _ = best_of(lambda: np.linalg.solve(R, g))
    t_sol, x2 = best_of(lambda: lu.solve(rhs2))
    fresh = [linsys.lu_factor(B, rhs=rhs) for _ in range(REPEATS)]  # U is cached
    t_det, _ = best_of(lambda: linsys.det_sign_log(fresh.pop()))
    residual = max(np.abs(B @ x - r).max() / np.abs(r).max()
                   for x, r in ((lu.solve(rhs), rhs), (x2, rhs2)))
    worst = max(worst, residual)
    print(f"{N:4d} {B.shape[0]:9d} {R.shape[0]:4d} {t_fac:10.1f} {t_loc:6.1f} {t_red:8.1f} "
          f"{t_fac - t_loc - t_red:6.1f} {t_sol:6.2f} {t_det:6.2f} {residual:9.1e}")

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
