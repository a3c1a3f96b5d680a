"""Sparse bordered linear systems, determinant signs and Newton iteration."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError


def lu_factor(A) -> spla.SuperLU:
    try:
        return spla.splu(sp.csc_matrix(A))
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise ConvergenceError(f"linear solve failed: {exc}") from exc


def _perm_parity(perm: np.ndarray) -> int:
    """Sign of a permutation, (-1)^(n - cycles).

    The cycles of ``perm`` are the weakly connected components of the graph
    with one edge i -> perm[i].
    """
    n = perm.size
    graph = sp.csr_matrix((np.ones(n, dtype=np.int8), perm, np.arange(n + 1)), shape=(n, n))
    cycles = connected_components(graph, directed=True, connection="weak", return_labels=False)
    return -1 if (n - cycles) % 2 else 1


def det_sign_log(lu: spla.SuperLU):
    """(sign, log|det|) of the factored matrix; sign 0 for exact singularity."""
    du = lu.U.diagonal()
    if np.any(du == 0.0):
        return 0, -np.inf
    sign = int(np.prod(np.sign(du)))
    sign *= _perm_parity(lu.perm_r) * _perm_parity(lu.perm_c)
    return sign, float(np.sum(np.log(np.abs(du))))


class CscPattern:
    """Fixed sparsity pattern of a Jacobian, filled from values in assembly order.

    ``rows`` and ``cols`` give the position of every value an assembly
    routine produces, in the order it produces them; ``cols`` counts in the
    full column set of ``shape``.  Only the columns listed in ``keep`` (all
    by default) enter the matrix, in the order listed.  The pattern does not
    depend on values: an exact zero stays an explicit entry, so SuperLU sees
    the same structure at every Newton step.
    """

    def __init__(self, rows, cols, shape, keep=None):
        n_rows, n_cols = shape
        if keep is None:
            keep = np.arange(n_cols)
        new_col = np.full(n_cols, -1, dtype=np.int64)
        new_col[keep] = np.arange(len(keep))
        cols = new_col[cols]
        taken = np.nonzero(cols >= 0)[0]
        order = np.lexsort((rows[taken], cols[taken]))
        self.gather = taken[order]
        r, c = rows[self.gather], cols[self.gather]
        if np.any((np.diff(r) == 0) & (np.diff(c) == 0)):
            raise ValueError("Jacobian pattern lists an entry twice")
        self.shape = (n_rows, len(keep))
        self.indices = r.astype(np.int32)
        self.indptr = np.searchsorted(c, np.arange(len(keep) + 1)).astype(np.int32)
        # matrices share the index arrays, so nobody may sort them in place
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.border_layout = _border_layout(self.indices, self.indptr, n_rows)

    def matrix(self, values: np.ndarray) -> sp.csc_matrix:
        """CSC matrix holding ``values`` (assembly order) at the pattern."""
        J = sp.csc_matrix((np.take(values, self.gather), self.indices, self.indptr),
                          shape=self.shape)
        J.has_canonical_format = True
        J.border_layout = self.border_layout  # read by bordered_matrix
        return J


def _border_layout(indices, indptr, rows: int):
    """Where [[J], [border^T]] puts J's entries and the border, given J's
    canonical CSC structure: (mask of J's entries, positions of the border
    entries, indices, indptr); the last two are shared, so read-only."""
    indptr = indptr + np.arange(indptr.size, dtype=indptr.dtype)
    last = indptr[1:] - 1
    old = np.ones(indptr[-1], dtype=bool)
    old[last] = False
    b_indices = np.empty(indptr[-1], dtype=indices.dtype)
    b_indices[old], b_indices[last] = indices, rows
    b_indices.flags.writeable = indptr.flags.writeable = False
    return old, last, b_indices, indptr


def bordered_matrix(J, border: np.ndarray) -> sp.csc_matrix:
    """Square matrix [[J], [border^T]] for a (rows, rows+1) sparse J.

    The border is inserted as the last entry of every column of J's
    canonical CSC form, zeros included, so the result's pattern is J's plus
    one full row.  A Jacobian of a :class:`CscPattern` brings that layout
    along, so only the values are copied.
    """
    if not (sp.issparse(J) and J.format == "csc"):
        J = sp.csc_matrix(J)
    J.sum_duplicates()  # no-op for the canonical matrices of a CscPattern
    rows, cols = J.shape
    layout = getattr(J, "border_layout", None)
    old, last, indices, indptr = layout or _border_layout(J.indices, J.indptr, rows)
    data = np.empty(indptr[-1])
    data[old], data[last] = J.data, border
    B = sp.csc_matrix((data, indices, indptr), shape=(rows + 1, cols))
    B.has_canonical_format = True
    return B


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


def newton_square(residual_fn, jacobian_fn, u0: np.ndarray, tol: float = 1.0e-10,
                  max_iter: int = 20, context: str = "Newton"):
    """Plain Newton on a square sparse system; returns (u, iterations).

    Convergence is declared on the max-norm of the residual.  Raises
    :class:`ConvergenceError` when the iteration stalls or exhausts
    ``max_iter``.
    """
    u = np.asarray(u0, dtype=float).copy()
    res = residual_fn(u)
    best = np.inf
    for it in range(max_iter + 1):
        nrm = np.abs(res).max()
        if nrm < tol:
            return u, it
        if not np.isfinite(nrm) or nrm > 1e6 * max(best, 1.0):
            raise ConvergenceError(f"{context} diverged (residual {nrm:.3e})")
        best = min(best, nrm)
        if it == max_iter:
            break
        J = jacobian_fn(u)
        du = lu_factor(J).solve(-res)
        u = u + du
        res = residual_fn(u)
    raise ConvergenceError(
        f"{context} did not reach tolerance {tol:.1e} in {max_iter} iterations "
        f"(residual {np.abs(res).max():.3e})"
    )
