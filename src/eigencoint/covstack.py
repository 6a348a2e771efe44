"""Demeaned lag-j sample autocovariances and their quadratic accumulation.

For an ``n x p`` panel ``y`` (rows are time points) the lag-``j``
autocovariance used throughout the package is

    S_j = (1/n) * sum_{t=1}^{n-j} (y_{t+j} - ybar)(y_t - ybar)'

Note the divisor is ``n`` for every lag, never ``n - j``; many libraries use
the latter, so the convention is stated here once and relied on everywhere.
The quadratic accumulation

    W = sum_{j=0}^{j0} S_j S_j'

is symmetric positive semidefinite by construction; its large eigenvalues
pick out nonstationary directions of the panel and its small ones the
stationary (cointegrated) directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSeries, LagTooLarge
from .linalg import _symmetrize_stack
from .subspace import _integer

#: Default max lag for the quadratic accumulation.  Small values suffice for
#: integer-order integration; workflows targeting fractional orders should
#: raise this (20 is a reasonable default there) because low-order
#: autocovariances carry less of the long-memory signal.
DEFAULT_J0 = 5


def as_panel(data) -> np.ndarray:
    """Validate and return an observation panel as a float64 ``(n, p)`` array.

    Rows are time points, columns are component series.

    Raises
    ------
    InvalidSeries
        If the input is not 2-D with ``n >= 2`` and ``p >= 1``, or has
        non-finite entries.  Missing values are rejected, not imputed.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim != 2:
        raise InvalidSeries(f"panel must be 2-D (time x series), got ndim={y.ndim}")
    return _as_panels(y)


def _as_panels(data) -> np.ndarray:
    """:func:`as_panel` for a panel ``(n, p)`` or a stack ``(m, n, p)`` of them."""
    y = np.asarray(data, dtype=float)
    if y.ndim not in (2, 3):
        raise InvalidSeries(
            f"expected a panel (n, p) or a stack of panels (m, n, p), got ndim={y.ndim}"
        )
    n, p = y.shape[-2:]
    if n < 2 or p < 1:
        raise InvalidSeries(f"panel needs n >= 2 and p >= 1, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidSeries("panel contains non-finite entries")
    return y


@dataclass(frozen=True)
class LagCovStack:
    """Lag covariances ``S_0 .. S_j0`` plus their quadratic accumulation.

    Attributes
    ----------
    j0 : int
        Largest lag included.
    sigmas : tuple of ndarray
        ``j0 + 1`` matrices of shape ``(p, p)``; ``sigmas[j]`` is ``S_j``.
    w : ndarray, shape (p, p)
        ``sum_j S_j S_j'``, symmetrized.
    mean : ndarray, shape (p,)
        The panel mean removed before lagging.

    Built from a stack of ``m`` panels, every array carries a leading stack
    axis: ``sigmas[j]`` and ``w`` are ``(m, p, p)``, ``mean`` is ``(m, p)``.
    """

    j0: int
    sigmas: tuple
    w: np.ndarray
    mean: np.ndarray

    @property
    def p(self) -> int:
        return self.w.shape[-1]


def build_stack(series, j0: int = DEFAULT_J0) -> LagCovStack:
    """Compute ``S_0 .. S_j0`` and ``W = sum_j S_j S_j'`` for a panel.

    ``W`` is symmetrized as ``(W + W') / 2`` after accumulation to remove
    floating-point asymmetry before any eigenanalysis.  A stack of panels
    goes through the same operations with one stacked product per lag, and
    each panel's matrices are bitwise those it gets alone: a stacked matmul
    makes the same BLAS call for each matrix.

    Parameters
    ----------
    series : array_like, shape (n, p) or (m, n, p)
        A panel, or a stack of ``m`` panels of one shape.
    j0 : int, default DEFAULT_J0
        Largest lag, a whole number ``0 <= j0 <= n - 2`` (``ValueError``
        if it is not whole, :class:`LagTooLarge` out of range).

    Returns
    -------
    LagCovStack
    """
    y = _as_panels(series)
    n, p = y.shape[-2:]
    j0 = _integer("j0", j0)
    if j0 < 0 or j0 >= n - 1:
        raise LagTooLarge(f"j0={j0} out of range for n={n} (need 0 <= j0 <= n-2)")
    mean = y.mean(axis=-2)
    yc = y - mean[..., None, :]
    sigmas = []
    w = np.zeros(y.shape[:-2] + (p, p))
    for j in range(j0 + 1):
        s = (yc[..., j:, :].swapaxes(-1, -2) @ yc[..., : n - j, :]) / n
        sigmas.append(s)
        w += s @ s.swapaxes(-1, -2)
    return LagCovStack(j0=j0, sigmas=tuple(sigmas), w=_symmetrize_stack(w), mean=mean)
