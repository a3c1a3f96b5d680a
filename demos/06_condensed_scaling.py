"""Condensed factorization as the torus grows, checked by its residual.

Seeds Langford tori at the TR point of the circular orbit family (eps = 0,
rho = 0.6154, 20 x 4 mesh) with N = 10, 25, 50 and 100 Fourier modes,
borders each Jacobian with the torus perturbation direction and times one
factorization by condensation that solves for a right-hand side on the
way, ``linsys.lu_factor(B, rhs=rhs)``, as each Newton update does.  Its
time is split into the batched local solve (``np.linalg.solve`` of the
collocation blocks, read in place from the kernel's values, for the
initial-point columns, the extra columns with collocation values and the
right-hand side), the one solve of the reduced system R
(``np.linalg.solve``) and the rest: the segment chain, the assembly of R
and the replay of the right-hand side.  "later" times a second
right-hand side on the same factor, which solves the kept blocks again.
BLAS and OpenMP threads are capped at the usable CPUs before numpy loads,
as in ``perfbench/run.py``.  Both solutions are checked by their relative
residual max|B x - rhs| / max|rhs|, with B x taken from the Jacobian's
blocks (``B @ x``); the demo exits with status 1 when one is above 1e-8.
Then it runs three continuation steps of the N = 100 family, 60,306
unknowns.

One run on a shared 2-vCPU host (Python 3.11.7, numpy 2.4.6, two BLAS
threads), best of 5, in ms; local + R solve + rest = factor, which
includes the solve for its right-hand side.  On the same host, inverting
the local blocks (``np.linalg.inv``) and taking slogdet of R in the
factorization, then solving separately, read N = 50 at 11.7 + 2.2 ms and
N = 100 at 31.5 + 8.6 ms.  Other runs read higher: of four runs, one read
N = 25 at 157.1 ms (rest 152.7 ms), and the inverting code had such a run
too.

   N  unknowns    R  factor ms  local  R solve   rest  later  residual
  10      6306   69        1.8    1.1      0.0    0.7   0.86   8.8e-13
  25     15306  159        4.6    2.8      0.3    1.6   2.32   9.4e-12
  50     30306  309       10.1    5.3      1.1    3.7   5.43   3.5e-11
 100     60306  609       30.5   12.7      6.6   11.3  16.52   2.7e-11

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
      f"{'rest':>6} {'later':>6} {'residual':>9}")
worst = 0.0
for N in (10, 25, 50, 100):
    problem, u0, seed = problem_at(vf, orbit, floq, N)
    B = linsys.bordered_matrix(problem.jacobian(u0), seed)
    rhs, rhs2 = np.random.default_rng(N).standard_normal((2, B.shape[0]))
    t_fac, lu = best_of(lambda: linsys.lu_factor(B, rhs=rhs))
    p = B.pattern
    A = B.blocks()[:, :, p.n:]
    cols = np.ones(A.shape[:2] + (p.n + p.coll_extra.size + 1,))
    t_loc, _ = best_of(lambda: np.linalg.solve(A, cols))
    R, g = lu._R, rhs[-lu._R.shape[0]:]
    t_red, _ = best_of(lambda: np.linalg.solve(R, g))
    t_sol, x2 = best_of(lambda: lu.solve(rhs2))
    residual = max(np.abs(B @ x - r).max() / np.abs(r).max()
                   for x, r in ((lu.solve(rhs), rhs), (x2, rhs2)))
    worst = max(worst, residual)
    print(f"{N:4d} {B.shape[0]:9d} {R.shape[0]:4d} {t_fac:10.1f} {t_loc:6.1f} {t_red:8.1f} "
          f"{t_fac - t_loc - t_red:6.1f} {t_sol:6.2f} {residual:9.1e}")

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
