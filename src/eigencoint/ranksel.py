"""Eigenanalysis of the quadratic lag-covariance matrix and rank selection.

Pipeline: :func:`fit` builds ``W = sum_j S_j S_j'`` for a panel,
eigendecomposes it, and returns the full orthogonal transform ``A_hat``
(eigenvectors, descending eigenvalues) together with the transformed panel
``x_hat = y @ A_hat``.  The rank rules then read the number of stationary
(cointegrated) directions off the eigenvalue profile.  Each rule's rank is
the leading run of positions that pass the rule's cutoff: the trailing
eigenvalues ``lambda_p, lambda_{p-1}, ...`` are counted up to the first
one that fails, and the rank is at least 1.

* :func:`rank_ratio`    -- ``lambda <= n * lambda_p``
* :func:`rank_ic`       -- ``lambda < omega``, the penalty
* :func:`rank_ratio_fractional` -- ``lambda <= n**(d_min + delta - 1) *
  lambda_p``, for fractionally integrated panels

:func:`_leading_run` is that one decision; the Johansen trace test in
:mod:`eigencoint.baselines` makes it over null ranks ``r0 = 0, 1, ...``.

``W`` is positive semidefinite in exact arithmetic, so its spectrum is
reported as ``lambda_1 >= ... >= lambda_p >= 0``.  In floating point the
trailing eigenvalues of strongly integrated panels sit at the eigensolver's
noise floor, where computed values can dip below zero; :func:`fit` therefore
takes eigenvalue magnitudes and re-sorts (the paired eigenvectors move with
their values).  The trailing eigenvector span is insensitive to this because
the spectral gap above it is many orders of magnitude wide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covstack import DEFAULT_J0, LagCovStack, _as_panels, build_stack
from .errors import DegenerateSpectrum, InvalidRank
from .linalg import EigenSystem, _take_columns, eigh_desc
from .subspace import _integer

#: Exponent on n in the named penalties omega1/omega2/omega3.
_PENALTY_EXPONENTS = {"omega1": 1.25, "omega2": 1.5, "omega3": 2.0 / 3.0}

PENALTY_VARIANTS = (*_PENALTY_EXPONENTS, "custom")


@dataclass(frozen=True)
class PenaltySpec:
    """Which penalty the information criterion uses.

    ``omega1``/``omega2``/``omega3`` scale the smallest eigenvalue by
    ``n**(5/4)``, ``n**(3/2)``, ``n**(2/3)`` respectively; ``custom`` uses
    ``custom_value``, a finite positive number, as-is.
    """

    variant: str = "omega2"
    custom_value: Optional[float] = None

    def __post_init__(self):
        if self.variant not in PENALTY_VARIANTS:
            raise ValueError(
                f"unknown penalty variant {self.variant!r}; "
                f"expected one of {PENALTY_VARIANTS}"
            )
        if self.variant == "custom":
            if self.custom_value is None or not 0 < self.custom_value < np.inf:
                raise ValueError("custom penalty requires a finite custom_value > 0")
        elif self.custom_value is not None:
            raise ValueError("custom_value only applies to the custom variant")


@dataclass(frozen=True)
class CointFit:
    """Eigenanalysis of a panel's quadratic lag-covariance matrix.

    Attributes
    ----------
    eigen : EigenSystem
        Spectrum of ``W``, descending, with paired orthonormal eigenvectors.
        ``eigen.vectors`` is the orthogonal transform ``A_hat``: column
        ``k`` is the eigenvector of the ``k``-th largest eigenvalue, and the
        trailing ``r`` columns span the estimated cointegration space once a
        rank ``r`` is chosen.
    x_hat : ndarray, shape (n, p)
        Transformed panel, row ``t`` equal to ``A_hat' y_t``.
    stack : LagCovStack
        The lag covariances and ``W`` the fit was computed from.
    n : int
        Sample size of the panel.

    A stacked :func:`fit` returns one ``CointFit`` per panel, shaped as
    above, without a stack axis; its arrays are views into the stacked
    results, so the fits of one stack keep all of them alive together.
    """

    eigen: EigenSystem
    x_hat: np.ndarray
    stack: LagCovStack
    n: int

    @property
    def p(self) -> int:
        return self.eigen.p


def fit(series, j0: int = DEFAULT_J0):
    """Eigenanalyze a panel: build ``W``, decompose, transform.

    A stack of panels is fitted with one stacked :func:`build_stack`, one
    stacked :func:`eigh_desc` and one stacked ``y @ A_hat``; each panel's
    fit is bitwise the one it gets alone.

    Parameters
    ----------
    series : array_like, shape (n, p) or (m, n, p)
        Observation panel, rows are time points, or a stack of ``m`` panels
        of one shape.
    j0 : int, default DEFAULT_J0
        Largest lag entering ``W``.

    Returns
    -------
    CointFit, or a list of ``m`` CointFit for a stack
        Apply :func:`rank_ratio` / :func:`rank_ic` to choose ranks.
    """
    y = _as_panels(series)
    stack = build_stack(y, j0)
    raw = eigh_desc(stack.w)
    # PSD reading of the spectrum: magnitudes, re-sorted descending, with
    # eigenvectors carried along.  See the module docstring.
    mags = np.abs(raw.values)
    order = np.argsort(-mags, axis=-1, kind="stable")
    values = np.take_along_axis(mags, order, axis=-1)
    vectors = _take_columns(raw.vectors, order)
    x_hat = y @ vectors
    n = y.shape[-2]
    if y.ndim == 2:
        return CointFit(eigen=EigenSystem(values, vectors), x_hat=x_hat, stack=stack, n=n)
    return [
        CointFit(
            eigen=EigenSystem(values[k], vectors[k]),
            x_hat=x_hat[k],
            stack=LagCovStack(
                j0=stack.j0,
                sigmas=tuple(s[k] for s in stack.sigmas),
                w=stack.w[k],
                mean=stack.mean[k],
            ),
            n=n,
        )
        for k in range(len(y))
    ]


def _validate_spectrum(eigen: EigenSystem) -> np.ndarray:
    values = np.asarray(eigen.values, dtype=float)
    if values.size < 1:
        raise InvalidRank("empty spectrum")
    if values[-1] <= 0.0:
        raise DegenerateSpectrum(
            f"smallest eigenvalue {float(values[-1])!r} is not strictly positive; "
            "the quadratic covariance matrix is rank deficient"
        )
    return values


def _leading_run(passed) -> int:
    """How many leading entries of the boolean array ``passed`` are true."""
    passed = np.asarray(passed, dtype=bool)
    return passed.size if passed.all() else int(np.argmin(passed))


def rank_ratio(eigen: EigenSystem, n: int) -> int:
    """Ratio rule: the leading run of trailing eigenvalues ``<= n * lambda_p``.

    The cutoff is ``n`` times the smallest eigenvalue.  Walking
    ``lambda_p, lambda_{p-1}, ...``, the rank counts the eigenvalues at or
    below it up to the first one above it.  ``lambda_p`` always passes, so
    the result is at least 1 — a zero rank cannot be detected by this rule
    and must be screened with the information criterion under a custom
    penalty, or with the unit-root baseline.

    Parameters
    ----------
    eigen : EigenSystem
        Descending spectrum with ``lambda_p > 0``.
    n : int
        Sample size the panel was observed over, a whole number ``>= 1``
        (``1000.0`` is ``1000``; ``True`` or ``2.5`` raise ``ValueError``).

    Returns
    -------
    int
        Estimated rank in ``1..p``.

    Raises
    ------
    DegenerateSpectrum
        If ``lambda_p <= 0``.
    """
    n = _integer("n", n, positive=True)
    values = _validate_spectrum(eigen)
    return max(1, _leading_run(values[::-1] <= float(n) * values[-1]))


def rank_ic(eigen: EigenSystem, omega: float) -> int:
    """Information criterion: the leading run of trailing eigenvalues ``< omega``.

    ``IC(l) = sum_{j=1}^{l} lambda_{p+1-j} + (p - l) * omega`` over
    ``l in 1..p``; ties go to the smallest ``l``.  Adding a direction to the
    stationary block costs its eigenvalue; leaving it out costs ``omega`` —
    so ``IC(l) - IC(l - 1) = lambda_{p+1-l} - omega``, and on a descending
    spectrum the minimizer is the leading run of trailing eigenvalues below
    the cutoff ``omega``, at least 1.  It is read from the eigenvalues, not
    from rounded partial sums.  The comparison is strict: at
    ``lambda == omega`` the criterion ties, and the tie goes to the smaller
    ``l``.

    Parameters
    ----------
    eigen : EigenSystem
    omega : float
        Positive, finite penalty; see :func:`penalty` for the named choices.

    Returns
    -------
    int
        Estimated rank in ``1..p``.
    """
    omega = float(omega)
    if not 0 < omega < np.inf:
        raise ValueError(f"penalty must be positive and finite, got {omega}")
    values = np.asarray(eigen.values, dtype=float)
    if values.size < 1:
        raise InvalidRank("empty spectrum")
    return max(1, _leading_run(values[::-1] < omega))


def penalty(spec: PenaltySpec, n: int, lambda_p: float) -> float:
    """Evaluate a penalty specification at sample size ``n``.

    Named variants scale the smallest eigenvalue:
    ``omega1 = n**(5/4) * lambda_p``, ``omega2 = n**(3/2) * lambda_p``,
    ``omega3 = n**(2/3) * lambda_p``.  ``custom`` ignores both arguments,
    but ``n`` is checked as in :func:`rank_ratio` for every variant.

    Raises
    ------
    DegenerateSpectrum
        A named variant with ``lambda_p <= 0``, or one that overflows.
    """
    n = _integer("n", n, positive=True)
    if spec.variant == "custom":
        return float(spec.custom_value)
    if not lambda_p > 0:
        raise DegenerateSpectrum(
            f"penalty {spec.variant} needs lambda_p > 0, got {lambda_p!r}"
        )
    omega = float(n) ** _PENALTY_EXPONENTS[spec.variant] * float(lambda_p)
    if omega == np.inf:
        raise DegenerateSpectrum(
            f"penalty {spec.variant} overflows at n={n}, lambda_p={lambda_p!r}"
        )
    return omega


def _check_fractional_args(d_min: float, delta: float) -> None:
    """Raise unless ``d_min > 1/2`` and ``0 <= delta < 1/2``."""
    if not d_min > 0.5:
        raise ValueError(f"d_min must exceed 1/2, got {d_min}")
    if not (0.0 <= delta < 0.5):
        raise ValueError(f"delta must lie in [0, 1/2), got {delta}")


def rank_ratio_fractional(
    eigen: EigenSystem, n: int, d_min: float, delta: float
) -> int:
    """Ratio rule with threshold ``n**(d_min + delta - 1) * lambda_p``.

    The rank is the leading run of trailing eigenvalues ``<=`` that cutoff,
    at least 1, as in :func:`rank_ratio`.  For panels whose nonstationary
    components are fractionally integrated of order at least ``d_min > 1/2``, the eigenvalue gap scales as a power of
    ``n`` determined by ``d_min``; ``delta`` is a slack exponent in
    ``[0, 1/2)``.  With ``d_min = 1, delta = 0`` the threshold degenerates
    to ``lambda_p`` itself and only eigenvalues tied with the smallest
    qualify.  ``n`` is checked as in :func:`rank_ratio`.

    Raises
    ------
    DegenerateSpectrum
        If ``lambda_p <= 0``.
    ValueError
        Parameters outside ``d_min > 1/2`` or ``0 <= delta < 1/2``.
    """
    n = _integer("n", n, positive=True)
    _check_fractional_args(d_min, delta)
    values = _validate_spectrum(eigen)
    exponent = d_min + delta - 1.0
    threshold = float(n) ** exponent * values[-1]
    if exponent <= 0.0 and threshold < values[-1]:
        # Shrinking threshold: nothing below lambda_p can exist, so the rule
        # can only return 1.  Not an error, but worth a diagnostic; the
        # message is constant so that the default filter shows it once.
        warnings.warn(
            "fractional ratio threshold n**(d_min + delta - 1) * lambda_p "
            "falls below lambda_p; the rule degenerates",
            RuntimeWarning,
            stacklevel=2,
        )
    return max(1, _leading_run(values[::-1] <= threshold))


def split(fit_result: CointFit, r: int):
    """Split ``eigen.vectors`` into leading and trailing blocks at rank ``r``.

    Parameters
    ----------
    fit_result : CointFit
    r : int
        Number of trailing (smallest-eigenvalue) columns, a whole number
        ``0 <= r <= p``.

    Returns
    -------
    (ndarray, ndarray)
        ``(a1, a2)`` with shapes ``(p, p-r)`` and ``(p, r)``: ``a2`` spans
        the estimated cointegration space, ``a1`` its orthocomplement.

    Raises
    ------
    InvalidRank
        ``r`` outside ``0..p``.
    ValueError
        ``r`` not a whole number (``2.0`` is ``2``).
    """
    p = fit_result.p
    r = _integer("r", r)
    if r < 0 or r > p:
        raise InvalidRank(f"rank {r} out of range for p={p}")
    a = fit_result.eigen.vectors
    return a[:, : p - r].copy(), a[:, p - r:].copy()
