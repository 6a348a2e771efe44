"""Distances between column spaces, and the reference basis of a mixing matrix.

Both metrics compare the spans of two bases through projector-trace overlap:

* ``dist_d(ahat2, a2)``   = sqrt(1 - tr(ahat2 ahat2' a2 a2') / r)          -- both bases orthonormal, equal width r
* ``dist_d1(ahat2, b2)``  = sqrt(1 - tr(ahat2 ahat2' b2 (b2'b2)^-1 b2') / max(r, r*))

``dist_d1`` drops the orthonormality and equal-width requirements on the
second basis, which is what a simulation harness needs when the estimated
rank differs from the true one.  Values lie in [0, 1]: 0 for identical
spans, 1 for orthogonal spans.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    NotOrthonormal,
    SingularBasis,
    SingularMatrix,
)

#: Max-abs tolerance for the orthonormality check on estimated bases.
ORTHO_TOL = 1e-8
#: Relative singular-value floor below which a basis counts as rank deficient.
RANK_TOL = 1e-10


def _as_basis(b, name: str) -> np.ndarray:
    a = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D basis, got ndim={a.ndim}")
    return a


def _check_orthonormal(a: np.ndarray, name: str) -> None:
    g = a.T @ a
    dev = np.max(np.abs(g - np.eye(a.shape[1])))
    if dev > ORTHO_TOL:
        raise NotOrthonormal(
            f"{name} columns are not orthonormal (max deviation {dev:.3e})"
        )


def _pair(a_hat2, other, name: str):
    """Both bases as 2-D arrays over the same rows, plus the zero-width
    convention's distance (0 if both are empty, 1 if exactly one is), or
    None when neither is empty."""
    x = _as_basis(a_hat2, "a_hat2")
    y = _as_basis(other, name)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"bases live in different spaces: p={x.shape[0]} vs p={y.shape[0]}"
        )
    if x.shape[1] == 0 or y.shape[1] == 0:
        return x, y, float(x.shape[1] != y.shape[1])
    return x, y, None


def _distance(overlap: float, width: int) -> float:
    """``sqrt(1 - overlap / width)``, clamped to [0, 1]."""
    radicand = 1.0 - overlap / width
    return float(np.sqrt(min(max(radicand, 0.0), 1.0)))


def dist_d(a_hat2, a2) -> float:
    """Distance between the spans of two orthonormal bases of equal width.

    Parameters
    ----------
    a_hat2, a2 : array_like, shape (p, r)
        Bases with orthonormal columns (checked within ``ORTHO_TOL``).

    Returns
    -------
    float
        ``sqrt(1 - tr(ahat2 ahat2' a2 a2') / r)`` clamped to [0, 1].

    Raises
    ------
    NotOrthonormal
        Either basis fails the orthonormality check.
    DimensionMismatch
        Row or column counts differ.
    """
    x, y, empty = _pair(a_hat2, a2, "a2")
    if empty is not None:
        return empty
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"basis shapes differ: {x.shape} vs {y.shape}")
    _check_orthonormal(x, "a_hat2")
    _check_orthonormal(y, "a2")
    # tr(X X' Y Y') = ||X'Y||_F^2
    return _distance(np.sum((x.T @ y) ** 2), x.shape[1])


def dist_d1(a_hat2, b2) -> float:
    """Distance between an orthonormal basis and a general full-rank basis.

    The second basis enters only through its orthogonal projector
    ``b2 (b2'b2)^-1 b2'``, so rescaling its columns changes nothing.  The
    widths may differ; the trace overlap is normalized by ``max(r, r*)``
    where ``r*`` is the width of ``a_hat2`` and ``r`` that of ``b2``.

    Parameters
    ----------
    a_hat2 : array_like, shape (p, r*)
        Orthonormal columns (checked).
    b2 : array_like, shape (p, r)
        Full column rank (checked via singular values).

    Returns
    -------
    float
        Value in [0, 1]; equals :func:`dist_d` when ``r* == r`` and ``b2``
        is itself orthonormal.

    Raises
    ------
    NotOrthonormal, SingularBasis, DimensionMismatch
    """
    x, b, empty = _pair(a_hat2, b2, "b2")
    if empty is not None:
        return empty
    _check_orthonormal(x, "a_hat2")
    sv = np.linalg.svd(b, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise SingularBasis(
            f"b2 is rank deficient (singular-value ratio {sv[-1] / sv[0]:.3e})"
        )
    # Orthonormalize b2; its projector is q q' for the reduced QR factor q,
    # so tr(X X' P_b) = ||X'q||_F^2.
    q = np.linalg.qr(b)[0]
    return _distance(np.sum((x.T @ q) ** 2), max(x.shape[1], b.shape[1]))


def true_b2(mixing, r: int) -> np.ndarray:
    """Last ``r`` columns of the inverse transpose of a mixing matrix.

    If a panel was generated as ``y_t = A x_t`` with the last ``r`` latent
    components stationary, these columns map ``y_t`` back onto exactly those
    components, so their span is the true cointegration space to compare
    estimates against.

    Parameters
    ----------
    mixing : array_like, shape (p, p)
        Invertible matrix.
    r : int
        Number of trailing columns to keep, ``0 <= r <= p``.

    Returns
    -------
    ndarray, shape (p, r)

    Raises
    ------
    SingularMatrix
        If ``mixing`` is singular or too ill-conditioned to invert reliably.
    """
    a = np.asarray(mixing, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"mixing must be square, got shape {a.shape}")
    p = a.shape[0]
    r = int(r)
    if r < 0 or r > p:
        raise DimensionMismatch(f"r={r} out of range for p={p}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise SingularMatrix(
            f"mixing matrix is singular within tolerance (condition {cond:.3e})",
            condition=cond,
        )
    inv_t = np.linalg.inv(a).T
    return inv_t[:, p - r:].copy()
