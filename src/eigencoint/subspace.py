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

import numbers

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidMatrix,
    NotOrthonormal,
    SingularBasis,
    SingularMatrix,
)

#: Max-abs tolerance for the orthonormality check on estimated bases.
ORTHO_TOL = 1e-8
#: Relative singular-value floor below which a basis counts as rank deficient.
RANK_TOL = 1e-10


def _integer(name: str, value, positive: bool = False) -> int:
    """``value`` as an int: ``2.0`` gives ``2``; ``2.5``, ``"2"``, ``True`` and,
    with ``positive``, values below 1 raise ValueError."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()) and (value >= 1 or not positive):
        return int(value)
    raise ValueError(f"{name} must be {'a positive' if positive else 'an'} integer, got {value!r}")


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
    if not dev <= ORTHO_TOL:  # also when dev is nan
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


def _orthonormal_factors(b2s: np.ndarray) -> list:
    """What :func:`dist_d1` orthonormalizes each basis of a stack into.

    ``b2s`` has shape ``(m, p, r)`` with ``r >= 1``.  Entry ``j`` of the
    result is the reduced QR factor ``q`` of ``b2s[j]``, or the error
    :func:`dist_d1` raises for that basis instead: ``InvalidMatrix`` if it
    has a non-finite entry, ``SingularBasis`` if its smallest singular value
    is at most ``RANK_TOL`` times its largest.  The finite bases go through
    one stacked SVD and the full-rank ones through one stacked QR; each
    ``q`` is bitwise the factor ``np.linalg.qr`` gives that basis alone.
    """
    factors = [InvalidMatrix("b2 contains non-finite entries")
               if not ok else None for ok in np.isfinite(b2s).all(axis=(1, 2))]
    finite = [j for j, f in enumerate(factors) if f is None]
    sv = np.linalg.svd(b2s[finite], compute_uv=False)
    full = sv[:, -1] > RANK_TOL * sv[:, 0]
    for j, s, ok in zip(finite, sv, full):
        if not ok:
            factors[j] = SingularBasis(
                f"b2 is rank deficient (singular-value ratio {s[-1] / s[0]:.3e})"
            )
    ranked = [j for j, ok in zip(finite, full) if ok]
    for j, q in zip(ranked, np.linalg.qr(b2s[ranked])[0]):
        factors[j] = q
    return factors


def dist_d1(a_hat2, b2, *, b2_q=None) -> float:
    """Distance between an orthonormal basis and a general full-rank basis.

    The second basis enters only through its orthogonal projector
    ``b2 (b2'b2)^-1 b2'``, so rescaling its columns changes nothing.  The
    widths may differ; the trace overlap is normalized by ``max(r, r*)``
    where ``r*`` is the width of ``a_hat2`` and ``r`` that of ``b2``.  The
    projector is ``q q'`` for the reduced QR factor ``q`` of ``b2``, so the
    overlap is ``||a_hat2' q||_F^2``.

    Parameters
    ----------
    a_hat2 : array_like, shape (p, r*)
        Orthonormal columns (checked).
    b2 : array_like, shape (p, r)
        Finite, of full column rank (checked via singular values).
    b2_q : ndarray, shape (p, r), optional
        Keyword only: ``b2``'s factor ``q``, computed once for many calls.
        The harness passes :attr:`GeneratedPanel.b2_q
        <eigencoint.simgen.GeneratedPanel.b2_q>`.  ``b2`` is then neither
        checked nor factored again, and the result is bitwise that of the
        call without ``b2_q``.  The caller vouches that ``b2_q`` is
        ``np.linalg.qr(b2)[0]`` of a ``b2`` that passes the checks.

    Returns
    -------
    float
        Value in [0, 1]; equals :func:`dist_d` when ``r* == r`` and ``b2``
        is itself orthonormal.

    Raises
    ------
    NotOrthonormal, SingularBasis, DimensionMismatch
    InvalidMatrix
        ``b2`` has a non-finite entry.
    """
    x, b, empty = _pair(a_hat2, b2, "b2")
    if empty is not None:
        return empty
    _check_orthonormal(x, "a_hat2")
    if b2_q is None:
        b2_q = _orthonormal_factors(b[None])[0]
        if isinstance(b2_q, Exception):
            raise b2_q
    elif np.shape(b2_q) != b.shape:
        raise DimensionMismatch(f"b2_q has shape {np.shape(b2_q)}, b2 has {b.shape}")
    return _distance(np.sum((x.T @ b2_q) ** 2), max(x.shape[1], b.shape[1]))


def true_b2(mixing, r: int) -> np.ndarray:
    """Last ``r`` columns of the inverse transpose of a mixing matrix.

    If a panel was generated as ``y_t = A x_t`` with the last ``r`` latent
    components stationary, these columns map ``y_t`` back onto exactly those
    components, so their span is the true cointegration space to compare
    estimates against.

    ``mixing`` may also be a ``(m, p, p)`` stack, as :func:`gen_panel
    <eigencoint.simgen.gen_panel>` passes for a batch.  The stack then gets
    one singularity check (one stacked SVD) and one stacked ``inv``, and
    the result's ``[j]`` is bitwise ``true_b2(mixing[j], r)``.

    Parameters
    ----------
    mixing : array_like, shape (p, p) or (m, p, p)
        Invertible, finite matrix, or a stack of them.
    r : int
        Number of trailing columns to keep, a whole number with
        ``0 <= r <= p``.

    Returns
    -------
    ndarray, shape (p, r), or (m, p, r) for a stack

    Raises
    ------
    ValueError
        ``r`` is not a whole number, or is a bool.
    DimensionMismatch
        ``mixing`` is not square, or ``r`` is out of range.
    InvalidMatrix
        ``mixing`` has a non-finite entry.
    SingularMatrix
        If ``mixing`` (any matrix of a stack) is singular or too
        ill-conditioned to invert reliably.
    """
    a = np.asarray(mixing, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(
            f"mixing must be square or a stack of square matrices, got shape {a.shape}"
        )
    p = a.shape[-1]
    r = _integer("r", r)
    if r < 0 or r > p:
        raise DimensionMismatch(f"r={r} out of range for p={p}")
    if not np.isfinite(a).all():
        raise InvalidMatrix("mixing contains non-finite entries")
    sv = np.linalg.svd(a, compute_uv=False).reshape(-1, p)
    singular = sv[sv[:, -1] <= 1e-12 * sv[:, 0]]
    if len(singular):
        s = singular[0]
        cond = np.inf if s[-1] == 0.0 else s[0] / s[-1]
        raise SingularMatrix(
            f"mixing matrix is singular within tolerance (condition {cond:.3e})",
            condition=cond,
        )
    inv_t = np.swapaxes(np.linalg.inv(a), -2, -1)
    return inv_t[..., p - r:].copy()
