"""Shared analytic oracles and test systems.

Langford circle-family oracle (eps = 0): rotational symmetry reduces the
system to a corotating frame where the circular orbit x3 = 0.7,
r^2 = K/(1 + 0.7 rho), K = 3.557/3, period T = 2*pi/om is a fixed point;
the monodromy is exactly expm(A T).  The TR point and angle follow in
closed form: rho* = 0.51/(K - 0.357), alpha = sqrt(2 K) * T.

Linear field x' = A x: its zero solution is a periodic orbit of any period
T, whose monodromy is expm(A T).

Decoupled product system: two independent Hopf normal forms carry an exact
torus u(th1, th2) = (cos th2, sin th2, cos th1, sin th1) with frequencies
(om1, om2), giving exact sample data for the torus residual blocks.

``dense(J)`` is the dense reference of a Jacobian: the product J @ I.
"""

import numpy as np

from torcont import colloc, odesys, po

K_LANG = 3.557 / 3.0
OM = 3.5
T_LANG = 2 * np.pi / OM
RHO_STAR = 0.51 / (K_LANG - 0.357)
ALPHA_STAR = np.sqrt(2 * K_LANG) * T_LANG
VARRHO_STAR = ALPHA_STAR / (2 * np.pi)


def dense(J):
    """Dense copy of a Jacobian, as the product J @ I."""
    return J @ np.eye(J.shape[1])


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


def seams(mesh, x):
    """(last base point of every subinterval but the last, first base point of
    the next) of base-point states ``x``, shape (..., n_base, n)."""
    xb = x.reshape(x.shape[:-2] + (mesh.ntst, mesh.degree + 1, x.shape[-1]))
    return xb[..., :-1, -1, :], xb[..., 1:, 0, :]


def linear_zero_orbit(A, T):
    """(vf, orbit): x' = A x without parameters and its zero solution with
    period T on a 20 x 4 mesh."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    vf = odesys.VectorField(
        dim_state=n, dim_params=0, param_names=(), autonomous=True,
        rhs=lambda t, y, p: A @ y, jac_state=lambda t, y, p: A,
    )
    mesh = colloc.build_mesh(20, 4)
    traj = colloc.Trajectory(mesh=mesh, x_bp=np.zeros((mesh.n_base, n)), duration=T)
    return vf, po.PeriodicOrbit(traj=traj, p=np.zeros(0),
                                reference=po.make_reference(vf, traj, np.zeros(0)))


def decoupled_field():
    """Two uncoupled Hopf normal forms; params (gam, w1, w2)."""

    def rhs(t, y, p):
        gam, w1, w2 = p[0], p[1], p[2]
        r2a = y[0] ** 2 + y[1] ** 2
        r2b = y[2] ** 2 + y[3] ** 2
        return np.stack([
            gam * (1 - r2a) * y[0] - w2 * y[1],
            w2 * y[0] + gam * (1 - r2a) * y[1],
            gam * (1 - r2b) * y[2] - w1 * y[3],
            w1 * y[2] + gam * (1 - r2b) * y[3],
        ])

    def jac_state(t, y, p):
        gam, w1, w2 = p[0], p[1], p[2]
        z = np.zeros_like(y[0])
        r2a = y[0] ** 2 + y[1] ** 2
        r2b = y[2] ** 2 + y[3] ** 2
        rows = [
            [gam * (1 - r2a) - 2 * gam * y[0] ** 2, -w2 - 2 * gam * y[0] * y[1], z, z],
            [w2 - 2 * gam * y[0] * y[1], gam * (1 - r2a) - 2 * gam * y[1] ** 2, z, z],
            [z, z, gam * (1 - r2b) - 2 * gam * y[2] ** 2, -w1 - 2 * gam * y[2] * y[3]],
            [z, z, w1 - 2 * gam * y[2] * y[3], gam * (1 - r2b) - 2 * gam * y[3] ** 2],
        ]
        return np.array(rows)

    def jac_params(t, y, p):
        gam, w1, w2 = p[0], p[1], p[2]
        z = np.zeros_like(y[0])
        r2a = y[0] ** 2 + y[1] ** 2
        r2b = y[2] ** 2 + y[3] ** 2
        rows = [
            [(1 - r2a) * y[0], z, -y[1] + z],
            [(1 - r2a) * y[1], z, y[0] + z],
            [(1 - r2b) * y[2], -y[3] + z, z],
            [(1 - r2b) * y[3], y[2] + z, z],
        ]
        return np.array(rows)

    return odesys.VectorField(
        dim_state=4, dim_params=3, param_names=("gam", "w1", "w2"), autonomous=True,
        rhs=rhs, jac_state=jac_state, jac_params=jac_params, vectorized=True,
        name="decoupled",
    )


def decoupled_exact_samples(angles, tb, om1, om2):
    """Exact v(phi_j, t) of the product torus on given angle/time grids."""
    th2 = om2 * tb
    th1 = angles[:, None] + om1 * tb[None, :]
    n_seg, nbp = th1.shape
    x = np.empty((n_seg, nbp, 4))
    x[:, :, 0] = np.cos(th2)[None, :]
    x[:, :, 1] = np.sin(th2)[None, :]
    x[:, :, 2] = np.cos(th1)
    x[:, :, 3] = np.sin(th1)
    return x


def decoupled_torus(ntst=8, degree=4, N=2, om1=np.sqrt(2.0), om2=1.0, gam=1.0):
    """Exactly sampled TorusSolution of the product system."""
    from torcont import fourier, torus

    mesh = colloc.build_mesh(ntst, degree)
    coupling = fourier.dft_matrix(N)
    T = 2 * np.pi / om2
    tb = T * mesh.basepoints
    x_seg = decoupled_exact_samples(coupling.angles, tb, om1, om2)
    sol = torus.TorusSolution(
        mesh=mesh, coupling=coupling, x_seg=x_seg, T0=0.0, T=T,
        p=np.array([gam, om1, om2]), om1=om1, om2=om2, varrho=om1 / om2,
        reference=None,
    )
    return decoupled_field(), torus.update_reference(decoupled_field(), sol)
