"""Dense real symmetric eigendecomposition and SPD solves.

The eigensolver is LAPACK's symmetric driver (``numpy.linalg.eigh``) with
two conventions layered on top: eigenvalues in descending order (a stable
sort of LAPACK's ascending output) and each eigenvector signed so that its
largest-magnitude entry is positive.  Two calls on bit-identical input
therefore return bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, SingularMatrix

# SPD acceptance for solve_spd and for johansen_trace's lagged-level moments:
# the smallest eigenvalue must exceed this multiple of the largest.
SPD_RTOL = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    Attributes
    ----------
    values : ndarray, shape (p,)
        Eigenvalues, ``values[0] >= values[1] >= ... >= values[p-1]``.
    vectors : ndarray, shape (p, p)
        Column ``k`` is the unit eigenvector paired with ``values[k]``.

    :func:`eigh_desc` of a stack returns one system with a leading stack
    axis, ``values`` of shape ``(m, p)`` and ``vectors`` ``(m, p, p)``.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def p(self) -> int:
        return self.values.shape[-1]


def symmetrize(m) -> np.ndarray:
    """Return ``(M + M') / 2`` as a fresh float64 array.

    Raises
    ------
    InvalidMatrix
        If ``m`` is not square or contains non-finite entries.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    return _symmetrize_stack(a)


def _symmetrize_stack(a: np.ndarray) -> np.ndarray:
    """:func:`symmetrize` of each matrix of a float64 ``(..., p, p)`` stack."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix contains non-finite entries")
    return (a + a.swapaxes(-1, -2)) / 2.0


def _take_columns(vectors: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Columns of each ``(p, p)`` matrix of ``vectors`` in ``order`` (``(..., p)``).

    Each result matrix is laid out column-major, as a column permutation of
    a single matrix by fancy indexing is, so that a product such as
    ``y @ vectors`` goes through the same BLAS call, and rounds the same,
    whether the matrix came alone or in a stack.
    """
    rows = vectors.swapaxes(-1, -2)
    return np.take_along_axis(rows, order[..., None], axis=-2).swapaxes(-1, -2)


def eigh_desc(m) -> EigenSystem:
    """Eigendecompose a symmetric matrix, eigenvalues in descending order.

    The input is symmetrized as ``(M + M') / 2`` first.  Eigenvalue ties keep
    the order in which LAPACK returned them (stable sort), and each
    eigenvector is signed so that its largest-magnitude entry is positive,
    which makes the output reproducible.

    A stack of matrices is decomposed in one LAPACK call per matrix, and
    each matrix's result is bitwise the one it gets alone.

    Parameters
    ----------
    m : array_like, shape (p, p) or (m, p, p)
        Symmetric matrix, or a stack of them, with finite entries.

    Returns
    -------
    EigenSystem
        With a leading stack axis on ``values`` and ``vectors`` for a stack.

    Raises
    ------
    InvalidMatrix
        Non-square, empty or non-finite input.
    """
    a = _symmetrize_stack(np.asarray(m, dtype=float))
    if a.shape[-1] == 0:
        raise InvalidMatrix("empty matrix")
    values, vectors = np.linalg.eigh(a)
    order = np.argsort(-values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    vectors = _take_columns(vectors, order)
    # Sign convention: largest-magnitude entry of each column positive.
    lead = np.argmax(np.abs(vectors), axis=-2)
    flip = np.take_along_axis(vectors, lead[..., None, :], axis=-2) < 0.0
    np.negative(vectors, out=vectors, where=flip)
    return EigenSystem(values=values, vectors=vectors)


def solve_spd(m, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` for symmetric positive definite ``M``.

    Parameters
    ----------
    m : array_like, shape (p, p)
        Symmetric positive definite matrix: its smallest eigenvalue must
        exceed ``SPD_RTOL`` times its largest.
    rhs : array_like, shape (p,) or (p, k)

    Returns
    -------
    ndarray
        Solution with the same trailing shape as ``rhs``.

    Raises
    ------
    SingularMatrix
        If the matrix fails the positive-definiteness check; carries the
        condition estimate.
    """
    eig = eigh_desc(m)
    largest = eig.values[0]
    smallest = eig.values[-1]
    if largest <= 0.0 or smallest <= SPD_RTOL * largest:
        cond = np.inf if smallest <= 0.0 else largest / smallest
        raise SingularMatrix(
            "matrix is not positive definite within tolerance "
            f"(condition estimate {cond:.3e})",
            condition=cond,
        )
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != eig.p:
        raise InvalidMatrix(
            f"rhs has {b.shape[0]} rows, expected {eig.p}"
        )
    # M^-1 = Q diag(1/lambda) Q'
    y = eig.vectors.T @ b
    scale = eig.values if y.ndim == 1 else eig.values[:, None]
    return eig.vectors @ (y / scale)
