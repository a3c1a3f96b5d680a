"""Condensed factorization of collocation Jacobians and Newton iteration.

The Jacobian of an orbit (K = 1 segment) or a torus (K = 2N+1 segments) is a
:class:`CollocationJacobian`: the values of the collocation kernel per
segment, the dense columns of the extra unknowns (T0, T and the active
parameters) on the collocation rows, and a few *tail* rows (periodicity or
Fourier coupling, phase and frequency conditions) that, as in COCO's
collocation toolbox, touch the states only at the segment ends x(0) and
x(T).  :func:`bordered_matrix` appends the dense border row of
pseudo-arclength continuation; ``J @ v`` multiplies from the blocks.

:func:`lu_factor` factors a square system by condensation of parameters
(block elimination as in AUTO, with the border carried along as in Keller's
bordering algorithm):

1. *Local elimination.*  Each of the K*ntst subintervals has an (m n)x(m n)
   block on the m base points after its first; all of them are inverted in
   one batched call that reads them in place from the kernel's values; the
   inverses times the initial-point and extra columns, written into one
   array, map each subinterval's interior base points affinely from its
   initial point and the extra unknowns.
2. *Segment chain.*  The continuity rows carry these maps from subinterval
   to subinterval, ntst batched steps across all segments, so every base
   point becomes an affine map of (v0 of its segment, extra unknowns).
   For an orbit the map to the last point is the monodromy matrix
   (:func:`monodromy`).
3. *Reduced system.*  The tail rows and the border form a dense system in
   (v0 of every segment, extra unknowns) of size K n + n_extra (309 on the
   N = 50 Langford torus).  Tail values on x(0) (v0 itself) and on the
   extras go straight into it; those on x(T) meet the chain's last maps in
   one batched and one plain product.  numpy gives its determinant
   (``slogdet``) and, in a solve, its solution (``np.linalg.solve``), each
   by its own LAPACK LU of R.  A Newton update solves once per
   factorization, so an LU kept for later solves would save only that
   second LU, and numpy exposes none to keep.  A solve replays the steps on
   the right-hand side and substitutes back.

The determinant obeys det B = s * prod det(local blocks) * (-1)^(continuity
rows) * det(reduced), where s is the sign of the row and column
permutations that put B into this block order; s depends only on the mesh
and K.  The factor exposes the identity as ``U``, an array of one pivot per
row of B, which :func:`det_sign_log` turns into (sign, log|det|).

A dense matrix is the case K = 0: the whole matrix is the reduced system.
Only small algebraic problems take that path.

:func:`newton_square` is the package's one Newton iteration, for the
bordered continuation corrector (``contin._correct``) and the square orbit
and torus solves (``po.solve_po``, ``torus.solve_fixed``).  It converges on
the max-norm of the whole residual; from the second update on, each update
must shrink the residual by ``CONTRACTION``.  It also stops when an update
leaves an optional residual floor that an earlier iterate was below (near a
branch point such an update runs along the near-null direction).  Stopped
unconverged, it returns its best iterate if that is below the floor and
fails otherwise, as on divergence.  Each update factors the Jacobian once,
and a solution comes with the factor made before its last update.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

import numpy as np

from .colloc import n_residual_rows
from .errors import ConvergenceError

#: residual ratio a Newton update must reach from the second update on
CONTRACTION = 0.5


class CollocationPattern:
    """Layout of the Jacobians of one collocation problem, built once.

    Columns: the K*ntst*(m+1)*n base-point states (segment-major, as in
    :mod:`colloc`), then the extra columns ``keep`` (full column numbers,
    in that order).  Rows: the K segment blocks of
    :func:`colloc.segment_residual`, then ``n_tail`` tail rows.

    ``extra_src`` maps every full extra column (full column ``n_x + i``) to
    its kernel column on the collocation rows: 0 for T, 1 for T0, 2 + i for
    parameter i, -1 for none.  The tail values come in the order of
    (``tail_rows``, ``tail_cols``), full column numbers; entries in columns
    that are not kept are dropped.  A tail entry off the segment ends raises
    ValueError.  The values on x(0) and the extras (``start_src``) land at
    ``start_slot`` of the reduced system's flat tail rows, those on x(T)
    (``end_src``) at ``end_slot`` of an (n_tail, K n) block.
    """

    def __init__(self, mesh, n, K, extra_src, tail_rows, tail_cols, n_tail, keep=None):
        self.mesh, self.n, self.K = mesh, n, K
        self.ntst, self.m = mesh.ntst, mesh.degree
        self.rows_seg = n_residual_rows(mesh, n)
        self.n_x = n_x = K * mesh.n_base * n
        n_full = n_x + len(extra_src)
        keep = np.arange(n_x, n_full) if keep is None else np.asarray(keep, dtype=np.int64)
        self.n_extra = len(keep)
        self.shape = (K * self.rows_seg + n_tail, n_x + self.n_extra)
        self.n_tail = n_tail
        # kept extra columns carrying collocation values, and their sources
        src = np.asarray(extra_src, dtype=np.int64)[keep - n_x]
        self.coll_extra = np.flatnonzero(src >= 0)
        self.coll_src = src[self.coll_extra]

        # tail entries in kept columns, renumbered
        new_col = np.full(n_full, -1, dtype=np.int64)
        new_col[:n_x] = np.arange(n_x)
        new_col[keep] = n_x + np.arange(self.n_extra)
        tail_cols = new_col[tail_cols]
        self.tail_keep = np.flatnonzero(tail_cols >= 0)
        t_rows, t_cols = np.asarray(tail_rows)[self.tail_keep], tail_cols[self.tail_keep]

        on_x = t_cols < n_x
        seg, j = np.divmod(t_cols // n, mesh.n_base)
        inner = on_x & (j > 0) & (j < mesh.n_base - 1)
        if inner.any():
            raise ValueError(
                f"tail column {t_cols[inner][0]} is on interior base point {j[inner][0]} of "
                f"segment {seg[inner][0]}; tail rows may touch only x(0) and x(T)")
        at_end = on_x & (j > 0)
        col = np.where(on_x, seg * n + t_cols % n, K * n + t_cols - n_x)
        self.start_src, self.end_src = self.tail_keep[~at_end], self.tail_keep[at_end]
        self.start_slot = (t_rows * (K * n + self.n_extra) + col)[~at_end]
        self.end_slot = (t_rows * K * n + col)[at_end]
        self.parity = self._parity()

    def _parity(self) -> int:
        """Sign of the row and column permutations into block order.

        Rows go to (collocation rows of every subinterval, continuity rows,
        tail rows); columns to (interior base points of every subinterval,
        initial points of subintervals 2..ntst, initial point of every
        segment, extra columns).  Swapping adjacent row blocks of sizes a
        and b has sign (-1)^(a b); two base points swap with sign (-1)^n.
        """
        K, ntst, m, n = self.K, self.ntst, self.m, self.n
        row_swaps = (ntst * m * n) * ((ntst - 1) * n) * (K * (K - 1) // 2)
        bp_swaps = ((ntst * m + ntst - 1) * (K * (K + 1) // 2)
                    + m * (ntst * (ntst - 1) // 2) * K
                    + m * ntst * (ntst - 1) * (K * (K - 1) // 2))
        return -1 if (row_swaps + n * bp_swaps) % 2 else 1


class CollocationJacobian:
    """Jacobian of a collocation problem in the layout of its pattern.

    ``seg`` is the :class:`colloc.SegmentJacobian` of all K segments as the
    kernel returns it, ``tail`` the tail values in pattern order and
    ``border`` (None, or one value per column) an appended last row.
    """

    def __init__(self, pattern: CollocationPattern, seg, tail, border=None):
        self.pattern, self.seg, self.tail, self.border = pattern, seg, tail, border
        self.shape = (pattern.shape[0] + (border is not None), pattern.shape[1])

    @property
    def nnz(self) -> int:
        p = self.pattern
        coll_extra = p.coll_extra.size * self.seg.J_T.size
        border = 0 if self.border is None else self.border.size
        return self.seg.J_x.size + coll_extra + p.tail_keep.size + border

    def extra_block(self) -> np.ndarray:
        """Values of the extra columns on the collocation rows, (rows, n_extra)."""
        p, seg = self.pattern, self.seg
        G = np.zeros((seg.J_T.size, p.n_extra))
        kernel = (seg.J_T, seg.J_T0) + tuple(seg.J_p.T)
        for col, src in zip(p.coll_extra, p.coll_src):
            G[:, col] = kernel[src]
        return G

    def blocks(self) -> np.ndarray:
        """Collocation blocks of every subinterval, (K ntst, m n, (m+1) n):
        rows (node, component), columns (base point, component); a strided
        view of ``seg.J_x``."""
        p = self.pattern
        subs, mn = p.K * p.ntst, p.m * p.n
        blk = self.seg.J_x[: subs * mn * (mn + p.n)].reshape(mn, mn + p.n, subs)
        return blk.transpose(2, 0, 1)

    def tail_ends(self) -> np.ndarray:
        """The tail values on x(T) of every segment, (n_tail, K n)."""
        p = self.pattern
        ends = np.zeros(p.n_tail * p.K * p.n)
        ends[p.end_slot] = self.tail[p.end_src]
        return ends.reshape(p.n_tail, -1)

    def __matmul__(self, v) -> np.ndarray:
        """J v for a vector or a matrix of columns v, from the blocks."""
        p, seg = self.pattern, self.seg
        K, ntst, m, n = p.K, p.ntst, p.m, p.n
        V = np.asarray(v, dtype=float).reshape(len(v), -1)
        k = V.shape[1]
        x, e = V[: p.n_x].reshape(K, ntst, m + 1, n, k), V[p.n_x:]
        blocks = self.blocks()
        coll = (blocks @ x.reshape(K * ntst, -1, k)).reshape(K, -1, k)
        coll += (self.extra_block() @ e).reshape(K, -1, k)
        # continuity rows: +1 on a subinterval's last point, -1 on the next one's first
        pm = seg.J_x[blocks.size:].reshape(K, 2, ntst - 1, n, 1)
        cont = (pm[:, 0] * x[:, :-1, -1] + pm[:, 1] * x[:, 1:, 0]).reshape(K, -1, k)
        x = x.reshape(K, -1, n, k)
        starts = np.zeros((p.n_tail, K * n + p.n_extra))
        starts.flat[p.start_slot] = self.tail[p.start_src]
        tail = (starts @ np.concatenate([x[:, 0].reshape(K * n, k), e])
                + self.tail_ends() @ x[:, -1].reshape(K * n, k))
        out = [np.concatenate([coll, cont], axis=1).reshape(K * p.rows_seg, k), tail]
        if self.border is not None:
            out.append((self.border @ V)[None])
        return np.concatenate(out).reshape(self.shape[:1] + np.shape(v)[1:])


def bordered_matrix(J, border: np.ndarray):
    """Square system [[J], [border^T]] for a (rows, rows+1) Jacobian J.

    A :class:`CollocationJacobian` keeps its blocks and carries the border
    as a dense last row; any other J is a dense matrix and stays one.
    """
    border = np.asarray(border, dtype=float)
    if isinstance(J, CollocationJacobian):
        if J.border is not None:
            raise ValueError("Jacobian is bordered already")
        return CollocationJacobian(J.pattern, J.seg, J.tail, border)
    return np.vstack([np.asarray(J, dtype=float), border[None, :]])


def max_abs(J) -> float:
    """Largest |entry| of a dense matrix or of a :class:`CollocationJacobian`."""
    if not isinstance(J, CollocationJacobian):
        return np.abs(J).max()
    values = [J.seg.J_x, J.extra_block(), J.tail[J.pattern.tail_keep],
              [] if J.border is None else J.border]
    return max(np.abs(v).max(initial=0.0) for v in values)


def _condense(B):
    """Steps 1 and 2 of the module docstring on the collocation rows of B.

    Returns (A, inv, LM, chain): the (m n)x(m n) local blocks and their
    inverses, LM = -inv [C | G] (the interior base points of every
    subinterval as a map of [its initial point; extras]) and chain, where
    chain[s, k] = [Phi | Psi] maps (v0 of segment s, extras) to the initial
    point of subinterval k and chain[s, ntst] to the segment's last point.
    """
    p = B.pattern
    K, ntst, m, n, ne = p.K, p.ntst, p.m, p.n, p.n_extra
    subs, mn = K * ntst, m * n
    blocks = B.blocks()
    A = blocks[:, :, n:]
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        bad = np.flatnonzero(np.linalg.slogdet(A)[0] == 0)
        where = (f"segment {bad[0] // ntst}, subinterval {bad[0] % ntst}" if bad.size
                 else "a subinterval")
        raise ConvergenceError(
            f"linear solve failed: collocation block of {where} is exactly singular"
        ) from None
    # interior base points = LM @ [initial point; extras] + inv @ rhs
    LM = np.empty((subs, mn, n + ne))
    np.matmul(inv, blocks[:, :, :n], out=LM[:, :, :n])
    np.matmul(inv, B.extra_block().reshape(subs, mn, ne), out=LM[:, :, n:])
    np.negative(LM, out=LM)
    last = LM.reshape(K, ntst, m, n, n + ne)[:, :, -1]
    chain = np.zeros((K, ntst + 1, n, n + ne))
    chain[:, 0, :, :n] = np.eye(n)
    for k in range(ntst):
        chain[:, k + 1] = last[:, k, :, :n] @ chain[:, k]
        chain[:, k + 1, :, n:] += last[:, k, :, n:]
    return A, inv, LM, chain


def monodromy(J: CollocationJacobian) -> np.ndarray:
    """Monodromy matrix of an orbit from the Jacobian of its collocation.

    The segment chain carries x(0) through the linearized collocation
    equations to x(T); its state block is the product of the
    per-subinterval transition maps, the collocation approximation of
    M = Phi(T, 0) of segment 0 (an orbit's only segment).
    """
    return _condense(J)[3][0, -1, :, :J.pattern.n]


class CondensedFactor:
    """Factorization of a square system by condensation (module docstring).

    It keeps the local inverses, ``LM``, the chain, the tail's x(T) block
    and the reduced system R with (sign, log|det R|) from numpy's slogdet,
    whose LU also finds an exactly singular R.  ``solve(rhs)`` returns
    B^{-1} rhs and solves R by ``np.linalg.solve``: a Newton update solves
    once per factorization, so a stored LU of R would be read only once.
    ``U`` lists one pivot per row whose product is det B (local blocks and
    R as their geometric-mean pivot with the determinant's sign on the
    first, R's also with the permutation signs; -1 per continuity row).
    """

    def __init__(self, B, shift: float = 0.0):
        self.shape = B.shape
        if B.shape[0] != B.shape[1]:
            raise ValueError(f"cannot factor a {B.shape[0]}x{B.shape[1]} system")
        if isinstance(B, CollocationJacobian):
            self.p = B.pattern
            self._A, self._inv, self._LM, self._chain = _condense(B)
            R = self._reduced(B)
        else:
            self.p = None
            R = np.array(B, dtype=float)
        if not np.all(np.isfinite(R)):
            raise ConvergenceError("linear solve failed: non-finite reduced system")
        if shift:
            R[np.diag_indices_from(R)] += shift * max(1.0, np.abs(R).max())
        self._R = R
        self._sign, self._logdet = np.linalg.slogdet(R)
        if self._sign == 0:
            # the zero pivot of getrf: the first column the columns before it span
            n = R.shape[0]
            k = 1 + bisect_left(range(1, n), True,
                                key=lambda k: np.linalg.matrix_rank(R[:, :k]) < k)
            raise ConvergenceError(
                f"linear solve failed: the reduced {n}x{n} system is "
                f"exactly singular (zero pivot {k})")
        self.nnz = R.size + (0 if self.p is None else self._inv.size + self._LM.size)

    # -- step 3: the reduced system --------------------------------------

    def _reduced(self, B):
        p = self.p
        K, n, ne = p.K, p.n, p.n_extra
        R = np.empty((K * n + ne,) * 2)
        # x(T) of a segment maps by the chain's last [Phi | Psi], x(0) is its v0
        self._ends = B.tail_ends()
        last = self._chain[:, -1]
        np.matmul(self._ends.reshape(p.n_tail, K, n).transpose(1, 0, 2), last[..., :n],
                  out=R[: p.n_tail, : K * n].reshape(p.n_tail, K, n).transpose(1, 0, 2))
        R[: p.n_tail, K * n:] = self._ends @ last[..., n:].reshape(K * n, ne)
        R.reshape(-1)[p.start_slot] += B.tail[p.start_src]
        self._border = B.border
        if B.border is not None:
            # border . x = sum_k beta_k . x_k0 + b_int,k . (LM_k^e e + w_k)
            b = B.border
            bx = b[: p.n_x].reshape(K * p.ntst, p.m + 1, n)
            self._b_int = bx[:, 1:].reshape(K * p.ntst, -1)
            bLM = np.einsum("sr,src->sc", self._b_int, self._LM)
            self._beta = bx[:, 0] + bLM[:, :n]
            red = np.einsum("ski,skic->sc", self._beta.reshape(K, p.ntst, n), self._chain[:, :-1])
            R[-1, : K * n] = red[:, :n].ravel()
            R[-1, K * n:] = b[p.n_x:] + red[:, n:].sum(axis=0) + bLM[:, n:].sum(axis=0)
        return R

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        if trans != "N":
            raise ValueError("only B x = rhs is supported")
        rhs = np.asarray(rhs, dtype=float)
        if self.p is None:
            return np.linalg.solve(self._R, rhs)
        p = self.p
        K, ntst, m, n, ne = p.K, p.ntst, p.m, p.n, p.n_extra
        subs = K * ntst
        seg_rows = rhs[: K * p.rows_seg].reshape(K, p.rows_seg)
        w = np.einsum("src,sc->sr", self._inv, seg_rows[:, : ntst * m * n].reshape(subs, m * n))
        # the particular solution: zero at x(0) and on the extras, the
        # continuity rows after every subinterval but a segment's last
        step = w.reshape(K, ntst, m, n)[:, :, -1].copy()
        step[:, :-1] -= seg_rows[:, ntst * m * n:].reshape(K, ntst - 1, n)
        last = self._LM.reshape(K, ntst, m, n, n + ne)[:, :, -1, :, :n]
        sigma = np.zeros((K, ntst + 1, n))  # its subinterval initial points, then x(T)
        for k in range(ntst):
            sigma[:, k + 1] = np.einsum("sij,sj->si", last[:, k], sigma[:, k]) + step[:, k]
        g = rhs[K * p.rows_seg:].copy()
        g[: p.n_tail] -= self._ends @ sigma[:, -1].ravel()
        if self._border is not None:
            g[-1] -= (np.einsum("si,si->", self._beta, sigma[:, :-1].reshape(subs, n))
                      + np.einsum("sr,sr->", self._b_int, w))
        z = np.linalg.solve(self._R, g)
        v0, e = z[: K * n].reshape(K, n), z[K * n:]
        chain = self._chain[:, :-1]
        x0 = (sigma[:, :-1] + np.einsum("skic,sc->ski", chain[..., :n], v0)
              + chain[..., n:] @ e).reshape(subs, n)
        inner = np.einsum("src,sc->sr", self._LM,
                          np.concatenate([x0, np.broadcast_to(e, (subs, ne))], axis=1)) + w
        return np.concatenate([np.concatenate([x0, inner], axis=1).ravel(), e])

    # -- determinant -------------------------------------------------------

    @cached_property
    def U(self) -> np.ndarray:
        """The pivots of the class docstring, one per row of B."""
        if self.p is None:
            return _pivots(self._sign, self._logdet, self._R.shape[0])
        p = self.p
        mn = p.m * p.n
        cont = np.full(p.K * (p.ntst - 1) * p.n, -1.0)
        return np.concatenate([_pivots(*np.linalg.slogdet(self._A), mn), cont,
                               _pivots(self._sign * p.parity, self._logdet, self._R.shape[0])])


def _pivots(sign, logabs, size) -> np.ndarray:
    """``size`` equal pivots per determinant (sign, log|det|), the sign on
    the first; one determinant or an array of them."""
    d = np.repeat(np.exp(np.asarray(logabs) / size), size).reshape(-1, size)
    d[:, 0] *= sign
    return d.ravel()


def lu_factor(A, shift: float = 0.0) -> CondensedFactor:
    """Condensed factorization of the square system ``A``.

    Raises :class:`ConvergenceError` naming the exactly singular local
    block or reduced system.  ``shift`` adds shift * max(1, max|R|) to the
    diagonal of the reduced system R (of the matrix itself when K = 0),
    which makes an exactly singular system solvable for inverse iteration.
    """
    return CondensedFactor(A, shift)


def det_sign_log(lu):
    """(sign, log|det|) of the factored matrix; sign 0 for exact singularity."""
    d = lu.U
    if np.any(d == 0.0):
        return 0, -np.inf
    return int(np.prod(np.sign(d))), float(np.sum(np.log(np.abs(d))))


def nullspace_tangent(J, seed: np.ndarray) -> np.ndarray:
    """Unit null vector of J oriented along ``seed``.

    Solves [[J], [seed^T]] t = e_last; the bordered system is regular as
    long as the seed has a component along the (one-dimensional) null space.
    """
    B = bordered_matrix(J, seed)
    rhs = np.zeros(B.shape[0])
    rhs[-1] = 1.0
    t = lu_factor(B).solve(rhs)
    nrm = np.linalg.norm(t)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise ConvergenceError("null-space tangent computation failed (singular bordering)")
    return t / nrm


def newton_square(residual_fn, jacobian_fn, u0: np.ndarray, tol: float, max_iter: int,
                  floor: float = 0.0, need_lu: bool = False, context: str = "Newton"):
    """Newton from ``u0`` on a square system; returns (u, iterations, lu).

    Policy and ``floor`` as in the module docstring.  A returned ``u`` that
    no update factored is factored only with ``need_lu``, for a caller that
    reads the determinant; otherwise, or when that system is exactly
    singular, ``lu`` is None.
    """
    def factor(v):
        return lu_factor(jacobian_fn(v))

    u = np.asarray(u0, dtype=float).copy()
    lu = None
    prev = np.inf
    best = (np.inf, None, None)  # (residual, iterate, its factorization)
    for it in range(max_iter + 1):
        res = residual_fn(u)
        nrm = np.abs(res).max()
        if nrm < tol:
            if lu is None and need_lu:
                try:
                    lu = factor(u)
                except ConvergenceError:
                    lu = None  # converged on a singular point (e.g. exactly at a BP)
            return u, it, lu
        if it == max_iter or (it >= 2 and nrm > CONTRACTION * prev) or best[0] < floor < nrm:
            break
        if not np.isfinite(nrm) or nrm > 1e8 * max(best[0], 1.0):
            raise ConvergenceError(f"{context} diverged (residual {nrm:.3e})")
        lu = factor(u)
        if nrm < best[0]:
            best = (nrm, u, lu)
        prev = nrm
        u = u - lu.solve(res)
    if min(nrm, best[0]) < floor:
        if nrm < best[0]:
            return u, it, factor(u) if need_lu else None
        return best[1], it, best[2]
    if it < max_iter:
        raise ConvergenceError(f"{context} stopped contracting after {it} iterations "
                               f"(residual {prev:.3e} -> {nrm:.3e})")
    raise ConvergenceError(f"{context} did not converge in {max_iter} iterations "
                           f"(residual {min(nrm, best[0]):.3e})")
