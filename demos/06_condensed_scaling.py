"""Condensed factorization as the torus grows, checked by its residual.

Seeds Langford tori at the TR point of the circular orbit family (eps = 0,
rho = 0.6154, 20 x 4 mesh) with N = 10, 25, 50 and 100 Fourier modes,
borders each Jacobian with the torus perturbation direction and times one
factorization by condensation, ``linsys.lu_factor(B)``, its first solve,
as each Newton update makes, and a later solve on the same factor.  The
factorization's time is split into the local elimination
(``linsys._eliminate``: the L and U of every collocation block at once,
along the subinterval axis; these meshes have 420 to 4020 blocks, all
above ``linsys.ELIMINATION_MIN_BLOCKS``) and the rest: the substitution
for the initial-point and extra columns, the segment chain and the
assembly of R.  A solve substitutes the right-hand side on the kept L and
U, replays the chain, solves the reduced system R (``np.linalg.solve``,
"R solve") and substitutes back; "first" takes each time a fresh factor,
"later" a second right-hand side on one factor.  "det" times
``linsys.det_sign_log``, whose local determinants are the elimination's
pivots.
BLAS and OpenMP threads are capped at the usable CPUs before numpy loads,
as in ``perfbench/run.py``.  Both solutions are checked by their relative
residual max|B x - rhs| / max|rhs|, with B x taken from the Jacobian's
blocks (``B @ x``); the demo exits with status 1 when one is above 1e-8.
Then it runs three continuation steps of the N = 100 family, 60,306
unknowns.

One run on a shared 2-vCPU host (Python 3.11.7, numpy 2.4.6, OpenBLAS
0.3.31, two BLAS threads), best of 5, in ms; local + rest = factor.  A
Newton update costs factor + first: 6.8 ms at N = 50, where the previous
build, which solved the update's right-hand side inside the factorization
and re-solved every block by ``np.linalg.solve`` for a later one, read
7.2 to 7.4 ms and a later solve 5.6 to 5.8 ms in runs alternated with
this build's (later 2.2 to 2.6 ms).  Runs on this host spread widely.  In
some runs one solve of R at N = 25 takes about 140 ms on every
repetition, at two BLAS threads; it showed in 1 of 6 runs of this build
("first" 139.9 ms) and 1 of 2 of the previous one.

   N  unknowns    R  factor ms  local   rest  first  later  R solve    det  residual
  10      6306   69        1.0    0.6    0.4   0.58   0.44     0.04   0.13   1.0e-12
  25     15306  159        2.1    0.7    1.4   1.05   0.95     0.25   0.41   9.5e-12
  50     30306  309        4.1    1.5    2.6   2.65   2.31     1.06   1.52   3.2e-11
 100     60306  609       10.7    2.7    7.9   9.93   8.56     5.63   7.27   2.6e-11

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

print(f"{'N':>4} {'unknowns':>9} {'R':>4} {'factor ms':>10} {'local':>6} {'rest':>6} "
      f"{'first':>6} {'later':>6} {'R solve':>8} {'det':>6} {'residual':>9}")
worst = 0.0
for N in (10, 25, 50, 100):
    problem, u0, seed = problem_at(vf, orbit, floq, N)
    B = linsys.bordered_matrix(problem.jacobian(u0), seed)
    rhs, rhs2 = np.random.default_rng(N).standard_normal((2, B.shape[0]))
    t_fac, lu = best_of(lambda: linsys.lu_factor(B))
    p = B.pattern
    mn = p.m * p.n
    blocks = B.blocks()[:, :, p.n:].transpose(1, 2, 0).copy()
    t_loc, _ = best_of(lambda: linsys._eliminate(blocks.copy(), mn))
    fresh = [linsys.lu_factor(B) for _ in range(REPEATS)]  # nothing cached
    t_first, x = best_of(lambda: fresh.pop().solve(rhs))
    t_later, x2 = best_of(lambda: lu.solve(rhs2))
    R, g = lu._R, rhs[-lu._R.shape[0]:]
    t_red, _ = best_of(lambda: np.linalg.solve(R, g))
    fresh = [linsys.lu_factor(B) for _ in range(REPEATS)]  # U is cached
    t_det, _ = best_of(lambda: linsys.det_sign_log(fresh.pop()))
    residual = max(np.abs(B @ y - r).max() / np.abs(r).max() for y, r in ((x, rhs), (x2, rhs2)))
    worst = max(worst, residual)
    print(f"{N:4d} {B.shape[0]:9d} {R.shape[0]:4d} {t_fac:10.1f} {t_loc:6.1f} {t_fac - t_loc:6.1f} "
          f"{t_first:6.2f} {t_later:6.2f} {t_red:8.2f} {t_det:6.2f} {residual:9.1e}")

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
