"""Every reduction and factorisation of the package, one function each.

A reduction's rounding is set by the numpy call that makes it, so each
function is one call on the operands it is given (no copy, no transpose):

* :func:`inner` (x . y), :func:`vecmat` (x^T M), :func:`matvec` (M x) and
  :func:`matmul` (A B) are stacked ``np.matmul``, which hands each slice to
  the BLAS call of its shape: ``ddot`` for a (1, k) @ (k, 1) slice,
  ``dgemv`` for a matrix times a vector, ``dgemm`` for two matrices.  BLAS's
  short dot is a chain of fused multiply-adds, so an elementwise product
  summed by numpy would round otherwise.
* :func:`a_b_abg` (x^a y^b L_ab^g, a bracket's structure term),
  :func:`abe_eg` (L_ab^e N_e^g, the curvature's), :func:`abe_b_e`
  (L_ab^e y^b p_e, the Euler-Lagrange twist) and :func:`e_ebg` (y^e R_eb^g,
  a frame's contracted curvature) are ``np.einsum`` of the subscripts their
  names spell, numpy's own sum-of-products loops, not BLAS.
* :func:`inverse` is LAPACK's ``dgesv`` (``np.linalg.inv``), with one
  Newton sweep (``matmul``) where the residual is large, behind a test of
  the 1-norm reciprocal condition number, which ``dgecon`` estimates
  (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 15);
  :func:`det` is ``np.linalg.det`` (``dgetrf``); :func:`cond` is the 2-norm
  condition number, ``np.linalg.cond``, from singular values (``dgesdd``).

Every function takes a stack of samples on the leading axes, and a stacked
call gives each sample slice the bits of the call on that slice alone, on
the BLAS kernel numpy loaded on this host (``tests/test_linalg.py`` checks
each function for ranks 1 to 16).  Another kernel (``OPENBLAS_CORETYPE``)
may round the BLAS and LAPACK calls otherwise.
"""

from functools import partial

import numpy as np

__all__ = [
    "inner", "vecmat", "matvec", "matmul", "a_b_abg", "abe_eg", "abe_b_e", "e_ebg",
    "inverse", "det", "cond",
]

matmul, cond = np.matmul, np.linalg.cond


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def vecmat(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    return matmul(x[..., None, :], M)[..., 0, :]


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    return matmul(M, x[..., None])[..., 0]


a_b_abg = partial(np.einsum, "...a,...b,...abg->...g")
abe_eg = partial(np.einsum, "...abe,...eg->...abg")
abe_b_e = partial(np.einsum, "...abe,...b,...e->...a")
e_ebg = partial(np.einsum, "...e,...ebg->...bg")
det = np.errstate(all="ignore")(np.linalg.det)  # NaN or inf, not a warning


def _norm1(g: np.ndarray) -> np.ndarray:
    return np.abs(g).sum(axis=-2).max(axis=-1)  # the largest column sum


@np.errstate(all="ignore")
def inverse(g) -> tuple[np.ndarray, int]:
    """``(inv, k)`` for a stack of square matrices ``g`` (P, m, m): ``k`` is
    the index of the first one that is not finite or singular (P if none),
    ``inv`` the inverses before it.  Singular means an exact zero pivot
    (where ``np.linalg.inv`` raises; the sign of ``np.linalg.slogdet``,
    which cannot underflow, finds each such matrix, made NaN) or rcond =
    1 / (|g|_1 |g^-1|_1) = 1 / ``cond(g, 1)`` below 1e-10, whatever the rank
    or the scale of ``g`` (NaN where g is not finite); a residual above
    1e-12 gets a Newton sweep."""
    g = np.asarray(g, dtype=float)
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:  # an exact zero pivot: NaN there, which inv passes through
        g = np.where((np.linalg.slogdet(g)[0] == 0.0)[:, None, None], np.nan, g)
        inv = np.linalg.inv(g)
    bad = ~(_norm1(g) * _norm1(inv) <= 1e10)  # the singularity cutoff: rcond < 1e-10
    k = int(np.argmax(bad)) if bad.any() else len(g)
    g, inv, eye = g[:k], inv[:k], np.eye(g.shape[-1])
    off = np.max(np.abs(matmul(g, inv) - eye), axis=(1, 2), initial=0.0) > 1e-12
    inv[off] = matmul(inv[off], 2.0 * eye - matmul(g[off], inv[off]))
    return inv, k
