"""Convergence orders of the collocation segment on y' = y.

Gauss-Legendre collocation of degree m superconverges at the mesh points:
the endpoint error of a fixed-initial-value solve decays like h^(2m),
while interior interpolation carries the usual h^(m+1) and the residual of
exact-solution samples h^m.
"""

import numpy as np
import scipy.sparse as sp

from torcont import colloc, odesys

vf = odesys.VectorField(
    dim_state=1, dim_params=0, param_names=(), autonomous=True,
    rhs=lambda t, y, p: y,
    jac_state=lambda t, y, p: np.ones((1, 1)),
)

degree = 3
print(f"degree m = {degree}; expect endpoint slope {2*degree}, "
      f"interior slope {degree+1}, residual slope {degree}\n")
print(f"{'ntst':>5} {'endpoint':>12} {'interior':>12} {'residual':>12}")

rows = []
for ntst in (2, 4, 8, 16):
    mesh = colloc.build_mesh(ntst, degree)
    x_exact = np.exp(mesh.basepoints)[:, None]
    traj = colloc.Trajectory(mesh=mesh, x_bp=x_exact, duration=1.0)

    # residual of exact samples
    res = np.abs(colloc.segment_residual(vf, mesh, x_exact, 1.0, 0.0, [])).max()

    # solve the collocation system with x(0) = 1 pinned
    jac = colloc.segment_jacobian(vf, mesh, x_exact, 1.0, 0.0, [])
    A = sp.coo_matrix((jac.J_x, colloc.segment_pattern(mesh, 1)),
                      shape=(colloc.n_residual_rows(mesh, 1), mesh.n_base)).toarray()
    bc = np.zeros((1, mesh.n_base))
    bc[0, 0] = 1.0
    M = np.vstack([A, bc])
    b = np.zeros(M.shape[0])
    b[-1] = 1.0
    x = np.linalg.solve(M, b)
    err_end = abs(x[-1] - np.e)

    # interior interpolation of the exact samples
    tq = np.random.default_rng(1).uniform(0, 1, 300)
    err_int = np.abs(colloc.interpolate(traj, tq)[:, 0] - np.exp(tq)).max()

    rows.append((ntst, err_end, err_int, res))
    print(f"{ntst:>5} {err_end:12.3e} {err_int:12.3e} {res:12.3e}")

logs = np.log2(np.asarray([[r[1], r[2], r[3]] for r in rows]))
slopes = -np.polyfit(np.log2([r[0] for r in rows]), logs, 1)[0]
print(f"\nfitted slopes: endpoint {slopes[0]:.2f}, interior {slopes[1]:.2f}, "
      f"residual {slopes[2]:.2f}")
