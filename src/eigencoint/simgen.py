"""Seeded generation of simulation panels: ARIMA/ARFIMA latents mixed by A.

A panel is built as ``y_t = A x_t`` where the first ``p - r`` latent
components are integrated (ARIMA of order ``d >= 1``, or fractionally
integrated) and the last ``r`` are stationary AR(1).  The trailing rows of
``(A^-1)'`` then recover the stationary components from ``y``, which makes
their span the true cointegration space a benchmark compares against.

Conventions
-----------
* Pre-sample values are zero (truncated processes): the ARMA recursion
  starts from an all-zero state and integration is plain cumulative
  summation, with no burn-in discard.
* Innovations are i.i.d. standard normal.
* Randomness is driven by counter-based Philox streams derived from the
  scenario seed via ``SeedSequence(seed, spawn_key=...)``: spawn key
  ``(0,)`` draws coefficients, ``(1,)`` draws innovations, and ``(2, k)``
  draws the ``k``-th attempt at a mixing matrix.  The innovations are one
  ``(p, n)`` standard-normal block, row ``i`` feeding latent column ``i``
  (nonstationary blocks first, then the stationary block); these are the
  values that ``p`` successive length-``n`` draws would give.  Identical
  specs therefore produce bit-identical panels, and distinct replicates may
  run in parallel on independent streams.
* :func:`gen_panel` also takes a batch of specs that differ only in seed
  and filters every latent column of the batch in one recursion, in place
  in one ``(n, reps, p)`` array; each panel is bit-identical to generating
  its spec alone.
* A :class:`ScenarioSpec` whose ``n`` is left open describes a design, not
  a panel: the scenarios of an experiment plan are such specs, and each
  replicate closes one with ``dataclasses.replace(spec, n=..., seed=...)``.

Coefficient laws are small dicts so scenario specs serialize to JSON:
``{"kind": "uniform", "low": a, "high": b}`` draws one coefficient per
component; ``{"kind": "grid", "values": [...]}`` assigns listed values in
component order; ``{"kind": "none"}`` means the block has no AR (or MA)
part.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .baselines import derive_stream
from .errors import InvalidOrder, NonstationaryAR, SingularMixing
from .subspace import _integer, _orthonormal_factors, true_b2

#: Condition-number ceiling above which a drawn mixing matrix is rejected.
MIXING_COND_LIMIT = 1e10
#: How many deterministic redraws to attempt before giving up.
MIXING_RETRIES = 10


# ---------------------------------------------------------------------------
# elementary generators

def frac_coeffs(alpha: float, m: int) -> np.ndarray:
    """First ``m + 1`` coefficients of the truncated operator ``(1 - B)^-alpha``.

    ``a_0 = 1`` and ``a_j = a_{j-1} * (j - 1 + alpha) / j``, which equals the
    Gamma-ratio form ``Gamma(j + alpha) / (Gamma(alpha) * Gamma(j + 1))``.

    Parameters
    ----------
    alpha : float
        Any real except the negative integers (Gamma pole).  ``alpha = 0``
        returns ``(1, 0, 0, ...)`` — the identity filter — by convention.
    m : int
        Largest index, ``m >= 0``.

    Returns
    -------
    ndarray, shape (m + 1,)

    Raises
    ------
    InvalidOrder
        ``alpha`` a negative integer, or ``m < 0``.
    """
    alpha = float(alpha)
    m = int(m)
    if m < 0:
        raise InvalidOrder(f"need m >= 0, got {m}")
    if alpha.is_integer() and alpha < 0:
        raise InvalidOrder(f"alpha={alpha:g} is a pole of the coefficient formula")
    j = np.arange(m, dtype=float)
    factors = (j + alpha) / (j + 1.0)
    return np.concatenate(([1.0], np.cumprod(factors)))


def _check_stationary_ar(ar: np.ndarray) -> None:
    """Reject AR polynomials with roots on or inside the unit circle.

    One rule for every order ``k`` of ``phi(z) = 1 - sum_i ar_i z^i``:
    ``phi(1) > 0`` and ``phi(-1) > 0``, each a ``math.fsum`` so that its
    sign is exact, and ``|ar_k| < 1``.  That is the whole condition at
    orders 1 and 2.  From order 3 on, the companion matrix's spectral
    radius must also lie below 1.  That radius is rounded, so complex roots
    on the unit circle can still pass there; roots at 1 and -1 cannot.
    """
    coeffs = ar.tolist()
    k = len(coeffs)
    if k == 0:
        return
    try:
        ok = (abs(coeffs[-1]) < 1.0
              and math.fsum([1.0, *(-a for a in coeffs)]) > 0.0  # phi(1)
              and math.fsum([1.0, *coeffs[::2], *(-a for a in coeffs[1::2])]) > 0.0)  # phi(-1)
    except (OverflowError, ValueError):  # fsum of huge, or of +inf and -inf, coefficients
        ok = False
    if ok and k > 2:
        companion = np.zeros((k, k))
        companion[0, :] = ar
        companion[1:, :-1] = np.eye(k - 1)
        ok = np.max(np.abs(np.linalg.eigvals(companion))) < 1.0
    if not ok:
        raise NonstationaryAR(f"AR coefficients {tuple(ar)} are not stationary")


def gen_arima(n: int, ar=(), d: int = 0, ma=(), *, rng) -> np.ndarray:
    """Simulate a truncated ARIMA(len(ar), d, len(ma)) path of length ``n``.

    The stationary ARMA core follows the recursion
    ``v_t = sum_i ar_i v_{t-i} + eps_t + sum_i ma_i eps_{t-i}`` with zero
    pre-sample values, then is integrated ``d`` times by cumulative
    summation.

    Each call runs :func:`_arma_filter`'s per-step Python loop on one
    column, so its cost is about ``n`` small NumPy calls whatever the
    series (milliseconds at ``n = 2500``, far above a compiled filter).  A
    caller that needs many series should batch them through
    :func:`gen_panel`, which filters every column of a batch in one
    recursion.

    Parameters
    ----------
    n : int
        Length of the output series.
    ar, ma : sequence of float
        Autoregressive and moving-average coefficients.
    d : int
        Non-negative integration order.
    rng : numpy.random.Generator
        Innovation stream, required (keyword only); consumes exactly ``n``
        standard normals.

    Raises
    ------
    NonstationaryAR
        AR polynomial has a root on or inside the unit circle.
    InvalidOrder
        Negative or non-integer ``d``.
    """
    n = int(n)
    if n < 1:
        raise InvalidOrder(f"need n >= 1, got {n}")
    if int(d) != d or d < 0:
        raise InvalidOrder(f"integration order must be a non-negative integer, got {d}")
    ar = np.atleast_1d(np.asarray(ar, dtype=float))
    ma = np.atleast_1d(np.asarray(ma, dtype=float))
    _check_stationary_ar(ar)
    b = np.zeros((max(ar.size, ma.size, 1) + 1, 1))
    a = np.zeros_like(b)
    b[0] = a[0] = 1.0
    b[1 : ma.size + 1, 0] = ma
    a[1 : ar.size + 1, 0] = -ar
    return _integrate(_arma_filter(b, a, rng.standard_normal((n, 1)))[:, 0], d)


def _arma_filter(b: np.ndarray, a: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Filter each column of ``eps`` in place through its own ARMA polynomials.

    A time-major direct-form-II-transposed recursion from an all-zero
    state: ``eps`` has shape ``(n, m)`` (any strides); ``b`` and ``a``,
    shape ``(k, m)`` with ``k >= 2``, hold each column's MA and AR
    polynomials (``b[0] == a[0] == 1``, AR coefficients negated)
    zero-padded to the common length.  Each step saves ``x * b[i]`` of the
    input row in row-sized scratch, then overwrites the row with its
    output; the working memory beyond ``eps`` is ``O(k m)``.  The steps take
    the operations of ``scipy.signal.lfilter``'s loop in the same order
    (``b[0] * x`` is ``x``), so column ``j`` ends up equal to
    ``lfilter(b[:, j], a[:, j], eps[:, j])`` bit for bit.  Returns ``eps``.
    """
    m = eps.shape[1]
    b_tail, a = list(b)[1:], list(a)
    bx, z = list(np.empty((len(b_tail), m))), list(np.zeros((len(b_tail), m)))
    ay = np.empty(m)
    for x in eps:
        for row, coeff in zip(bx, b_tail):
            np.multiply(x, coeff, out=row)
        np.add(z[0], x, out=x)
        for i in range(len(z) - 1):
            np.add(z[i + 1], bx[i], out=z[i])
            np.subtract(z[i], np.multiply(x, a[i + 1], out=ay), out=z[i])
        np.subtract(bx[-1], np.multiply(x, a[-1], out=ay), out=z[-1])
    return eps


def gen_arfima(n: int, d: float, ar=(), ma=(), *, rng) -> np.ndarray:
    """Simulate a truncated, possibly fractionally integrated ARMA path.

    The ARMA core is built exactly as in :func:`gen_arima`; the integration
    operator is then ``x_t = sum_{j=0}^{t-1} a_j(d) * core_{t-j}`` with the
    coefficients of :func:`frac_coeffs`.  Integer ``d`` in {0, 1, 2} is
    iterated cumulative summation instead, which the all-ones coefficient
    identity makes the exact same series — so ``d=1`` here reproduces
    ``gen_arima(..., d=1, ...)`` on the same stream bit-for-bit.

    Like :func:`gen_arima`, each call filters one column with
    :func:`_arma_filter`'s per-step loop; generate many series in one
    :func:`gen_panel` batch instead.

    Parameters
    ----------
    n : int
    d : float
        Integration order in ``(-1/2, 2]``, excluding half-integers (where
        the filter's normalizing Gamma factor has a pole).
    ar, ma : sequence of float
    rng : numpy.random.Generator

    Raises
    ------
    InvalidOrder
        ``d`` outside ``(-1/2, 2]`` or at a half-integer.
    """
    d = float(d)
    if not (-0.5 < d <= 2.0):
        raise InvalidOrder(f"fractional order must lie in (-1/2, 2], got {d}")
    if (d - 0.5).is_integer():
        raise InvalidOrder(f"order {d:g} is a half-integer pole")
    return _integrate(gen_arima(n, ar=ar, d=0, ma=ma, rng=rng), d)


def _integrate(x: np.ndarray, d) -> np.ndarray:
    """Integrate every column of ``x`` (all axes but 0) in place to order ``d``
    along axis 0, and return ``x``.

    An integer ``d`` is ``d`` cumulative sums, each written over ``x``
    (``x`` may be a strided view).  Otherwise each column is convolved
    with :func:`frac_coeffs` ``(d, n - 1)``, truncated to its ``n`` rows and
    copied back.  This is the one place a simulated block is integrated.
    """
    if _is_integer_order(d):
        for _ in range(int(d)):
            np.cumsum(x, axis=0, out=x)
        return x
    n = x.shape[0]
    coeffs = frac_coeffs(d, n - 1)
    x[...] = np.apply_along_axis(lambda col: np.convolve(coeffs, col)[:n], 0, x)
    return x


# ---------------------------------------------------------------------------
# scenario specification

_LAW_KINDS = ("uniform", "grid", "none")


def _from_dict(cls, data: dict, what: str):
    """``cls(**data)``; a ValueError names the keys of ``data`` that are not
    fields of ``cls`` (``unknown plan fields: [...]``)."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    return cls(**data)


def _finite(value) -> bool:
    """True for a finite real number; False for a bool, a string, nan or inf."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _validate_law(law, count: int, what: str, allow_none: bool) -> None:
    if law is None or (isinstance(law, dict) and law.get("kind") == "none"):
        if not allow_none:
            raise ValueError(f"{what} requires a coefficient law")
        return
    if not isinstance(law, dict) or "kind" not in law:
        raise ValueError(f"{what} must be a law dict with a 'kind' key, got {law!r}")
    kind = law["kind"]
    if kind == "uniform":
        low, high = law.get("low"), law.get("high")
        if not (_finite(low) and _finite(high) and low < high):
            raise ValueError(
                f"{what}: uniform law needs finite numbers low < high, got {law!r}"
            )
    elif kind == "grid":
        values = law.get("values")
        if values is None or len(values) != count:
            raise ValueError(
                f"{what}: grid law needs exactly {count} values, got {law!r}"
            )
        if not all(map(_finite, values)):
            raise ValueError(f"{what}: grid law values must be finite numbers, got {law!r}")
    else:
        raise ValueError(f"{what}: unknown law kind {kind!r} (expected {_LAW_KINDS})")


def _draw_coeffs(law, count: int, rng) -> Optional[np.ndarray]:
    """One coefficient per component, or None when the law is absent."""
    if law is None or law.get("kind") == "none":
        return None
    if law["kind"] == "uniform":
        return rng.uniform(law["low"], law["high"], size=count)
    return np.asarray(law["values"], dtype=float)


def _is_integer_order(d) -> bool:
    return float(d).is_integer()


@dataclass(frozen=True)
class ProcessBlock:
    """A group of latent components sharing one generating recipe.

    Attributes
    ----------
    count : int
        How many components the block contributes.
    d : float
        Integration order: an integer ``>= 1``, or a non-integer in
        ``(1/2, 2]`` for fractional scenarios.
    ar_law, ma_law : dict or None
        Per-component coefficient laws (each component gets one AR and/or
        one MA coefficient).
    """

    count: int
    d: float
    ar_law: Optional[dict] = None
    ma_law: Optional[dict] = None

    def __post_init__(self):
        object.__setattr__(self, "count", _integer("block count", self.count, positive=True))
        if not _finite(self.d):
            raise ValueError(f"block order d must be a finite number, got {self.d!r}")
        d = float(self.d)
        if _is_integer_order(d):
            if d < 1:
                raise ValueError(f"integer block order must be >= 1, got {d:g}")
        elif not (0.5 < d <= 2.0):
            raise ValueError(
                f"fractional block order must lie in (1/2, 2], got {d:g}"
            )
        _validate_law(self.ar_law, self.count, "block ar_law", allow_none=True)
        _validate_law(self.ma_law, self.count, "block ma_law", allow_none=True)

    def to_dict(self) -> dict:
        return {"count": self.count, "d": self.d, "ar_law": self.ar_law, "ma_law": self.ma_law}

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessBlock":
        return _from_dict(cls, data, "block")


DEFAULT_MIXING_LAW = {"kind": "uniform", "low": -3.0, "high": 3.0}


@dataclass(frozen=True)
class ScenarioSpec:
    """Seeded description of one simulated panel, or of a design (``n`` None).

    Attributes
    ----------
    p : int
        Panel dimension.
    r : int
        Number of stationary latent components (the true cointegration
        rank).
    n : int or None
        Sample size, at least 10; None leaves it open.
    stationary_law : dict or None
        AR(1) coefficient law for the ``r`` stationary components.
    nonstationary_blocks : tuple of ProcessBlock
        Recipes for the ``p - r`` integrated components, used in order.
    mixing_law : dict
        ``{"kind": "uniform", "low": .., "high": ..}`` for i.i.d. entries,
        ``{"kind": "orthogonal"}`` for a random orthogonal matrix, or
        ``{"kind": "identity"}``.
    seed : int
        64-bit stream seed; with ``n``, fully determines the panel.
    name : str
        Label of the scenario in experiment reports.

    ``p``, ``r``, ``n`` and ``seed``, like a block's ``count``, must be whole
    numbers: ``4.0`` is stored as ``4``, and ``4.5`` raises ``ValueError``.
    :meth:`from_dict` rejects keys that are not fields, at every level.
    """

    p: int
    r: int
    n: Optional[int] = None
    stationary_law: Optional[dict] = None
    nonstationary_blocks: tuple = ()
    mixing_law: dict = field(default_factory=lambda: dict(DEFAULT_MIXING_LAW))
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        for name in ("p", "r", "seed") if self.n is None else ("p", "r", "n", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.p < 1 or not (0 <= self.r <= self.p):
            raise ValueError(f"need p >= 1 and 0 <= r <= p, got p={self.p} r={self.r}")
        if self.n is not None and self.n < 10:
            raise ValueError(f"need n >= 10, got {self.n}")
        blocks = tuple(
            b if isinstance(b, ProcessBlock) else ProcessBlock.from_dict(b)
            for b in self.nonstationary_blocks
        )
        object.__setattr__(self, "nonstationary_blocks", blocks)
        total = sum(b.count for b in blocks)
        if total != self.p - self.r:
            raise ValueError(
                f"block counts sum to {total}, expected p - r = {self.p - self.r}"
            )
        if self.r > 0:
            _validate_law(self.stationary_law, self.r, "stationary_law", allow_none=False)
        kind = self.mixing_law.get("kind") if isinstance(self.mixing_law, dict) else None
        if kind == "uniform":
            _validate_law(self.mixing_law, 0, "mixing_law", allow_none=False)
        elif kind not in ("orthogonal", "identity"):
            raise ValueError(f"unknown mixing law {self.mixing_law!r}")

    @property
    def is_fractional(self) -> bool:
        """True when any block order is non-integer."""
        return any(not _is_integer_order(b.d) for b in self.nonstationary_blocks)

    @property
    def d_min(self) -> float:
        """Smallest nonstationary integration order (inf when r == p)."""
        orders = [float(b.d) for b in self.nonstationary_blocks]
        return min(orders) if orders else float("inf")

    def to_dict(self) -> dict:
        """The JSON form; ``n`` and ``seed`` appear only when ``n`` is set."""
        data = {
            "name": self.name,
            "p": self.p,
            "r": self.r,
            "stationary_law": self.stationary_law,
            "nonstationary_blocks": [b.to_dict() for b in self.nonstationary_blocks],
            "mixing_law": self.mixing_law,
        }
        if self.n is not None:
            data.update(n=self.n, seed=self.seed)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return _from_dict(cls, data, "scenario")


@dataclass(frozen=True)
class GeneratedPanel:
    """A simulated panel together with its generating ground truth.

    The observed panel is not stored: :attr:`y` mixes it from ``x`` on
    each read, so a batch of panels holds one full-size array, its latents.

    Attributes
    ----------
    mixing : ndarray, shape (p, p)
    b2 : ndarray, shape (p, r)
        Last ``r`` columns of ``(mixing^-1)'`` — the true comparison basis.
    x : ndarray, shape (n, p)
        Latent components, nonstationary first.  A view into the
        ``(n, reps, p)`` latent array of the :func:`gen_panel` batch that
        made the panel, not a copy, so holding one panel keeps that whole
        array alive.
    true_r : int
    b2_q : ndarray of shape (p, r), or None
        The reduced QR factor of ``b2``, bitwise ``np.linalg.qr(b2)[0]``,
        which :func:`~eigencoint.subspace.dist_d1` takes as ``b2_q=`` so that
        it does not factor ``b2`` again.  None when ``r = 0`` (an empty basis
        needs no factor), when ``b2`` fails ``dist_d1``'s rank check (so
        ``dist_d1`` raises ``SingularBasis`` for it, as without a factor),
        and for a panel built by hand.
    """

    mixing: np.ndarray
    b2: np.ndarray
    x: np.ndarray
    true_r: int
    b2_q: Optional[np.ndarray] = None

    @property
    def y(self) -> np.ndarray:
        """Observed panel, shape ``(n, p)``: ``y_t = mixing @ x_t`` row by row.

        Mixed anew on every read, into a new array, so writing to it does
        not change the panel; bind it once to use it more than once.
        """
        return self.mix()

    def mix(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x @ mixing.T``, the one product that makes :attr:`y`, written
        into ``out`` (an ``(n, p)`` float array) when given."""
        return np.matmul(self.x, self.mixing.T, out=out)


def _draw_mixings(batch) -> np.ndarray:
    """The ``(reps, p, p)`` stack of the batch's mixing matrices.

    Member ``j``'s matrix depends on its own spec alone.  Uniform draws take
    attempt ``k`` from ``derive_stream(seed, 2, k)`` until one has a
    condition number of at most :data:`MIXING_COND_LIMIT`.  Each round draws
    only the members still pending and checks them with one stacked
    ``np.linalg.cond`` (one stacked SVD), which is bitwise the per-matrix
    check.

    Raises
    ------
    SingularMixing
        A member has no acceptable draw in :data:`MIXING_RETRIES` attempts.
    """
    spec = batch[0]
    p, kind = spec.p, spec.mixing_law["kind"]
    if kind == "identity":
        return np.tile(np.eye(p), (len(batch), 1, 1))
    if kind == "orthogonal":
        g = np.stack([derive_stream(member.seed, 2, 0).standard_normal((p, p))
                      for member in batch])
        q, rmat = np.linalg.qr(g)
        return q * np.sign(np.diagonal(rmat, axis1=1, axis2=2))[:, None, :]
    low, high = spec.mixing_law["low"], spec.mixing_law["high"]
    mixings = np.empty((len(batch), p, p))
    pending = list(range(len(batch)))
    for attempt in range(MIXING_RETRIES):
        for j in pending:
            mixings[j] = derive_stream(batch[j].seed, 2, attempt).uniform(low, high, size=(p, p))
        pending = [j for j, cond in zip(pending, np.linalg.cond(mixings[pending]))
                   if not cond <= MIXING_COND_LIMIT]
        if not pending:
            return mixings
    raise SingularMixing(
        f"no mixing draw with condition <= {MIXING_COND_LIMIT:g} in "
        f"{MIXING_RETRIES} attempts (seed {batch[pending[0]].seed})"
    )


def _latent_coeffs(spec: ScenarioSpec):
    """Per-column MA and negated AR coefficients of one spec, 0 where absent.

    Every latent column has at most one coefficient of each kind.

    Raises
    ------
    NonstationaryAR
        A drawn AR coefficient is not stationary.
    """
    rng = derive_stream(spec.seed, 0)
    recipes = [(b.count, b.ar_law, b.ma_law) for b in spec.nonstationary_blocks]
    if spec.r > 0:
        recipes.append((spec.r, spec.stationary_law, None))
    ma = np.zeros(spec.p)
    neg_ar = np.zeros(spec.p)
    lo = 0
    for count, ar_law, ma_law in recipes:
        ar_block = _draw_coeffs(ar_law, count, rng)
        ma_block = _draw_coeffs(ma_law, count, rng)
        if ar_block is not None:
            stationary = np.abs(ar_block) < 1.0  # the order-1 rule, every column at once
            if not stationary.all():
                _check_stationary_ar(ar_block[~stationary][:1])
            neg_ar[lo : lo + count] = -ar_block
        if ma_block is not None:
            ma[lo : lo + count] = ma_block
        lo += count
    return ma, neg_ar


def _design(spec: ScenarioSpec) -> tuple:
    """Every field of ``spec`` but its seed."""
    return tuple(getattr(spec, f.name) for f in fields(spec) if f.name != "seed")


def gen_panel(specs):
    """Generate the panel a :class:`ScenarioSpec` describes, or a batch of them.

    Deterministic given the spec (including its seed); see the module
    docstring for the exact stream layout.  Given a sequence of specs that
    differ only in ``seed``, returns the list of their panels, each
    bit-identical to generating that spec alone; the batch's latent columns
    go through one :func:`_arma_filter` recursion.

    The batch's innovations are drawn into one ``(n, reps, p)`` array,
    which is filtered and integrated in place and becomes the latents:
    each panel's ``x`` is its ``[:, j]`` view.  That array is the only
    full-size array made (each panel's ``y`` is mixed from its view when
    read), and holding any one panel keeps the whole array alive.

    The batch's small matrices are factored together, each stacked call
    bitwise the per-matrix one: one stacked SVD checks the condition of
    the mixing draws (only failing members are redrawn), one stacked
    :func:`~eigencoint.subspace.true_b2` gives every ``b2``, and one
    stacked SVD (the rank check of
    :func:`~eigencoint.subspace.dist_d1`) and one stacked QR give every
    ``b2_q``.  ``mixing``, ``b2`` and ``b2_q`` are views of those stacks.

    Raises
    ------
    ValueError
        The specs of a batch differ in more than ``seed``, or leave ``n``
        open.
    SingularMixing
        All redraw attempts for the mixing matrix were ill-conditioned.
    NonstationaryAR
        A drawn AR coefficient is not stationary.
    """
    single = isinstance(specs, ScenarioSpec)
    batch = [specs] if single else list(specs)
    if not batch:
        return []
    spec = batch[0]
    if any(_design(other) != _design(spec) for other in batch[1:]):
        raise ValueError("specs of one batch may differ only in seed")
    if spec.n is None:
        raise ValueError("spec leaves n open; set it with dataclasses.replace")
    n, p, reps = spec.n, spec.p, len(batch)

    b = np.ones((2, reps, p))
    a = np.ones_like(b)
    x = np.empty((n, reps, p))
    for j, member in enumerate(batch):
        b[1, j], a[1, j] = _latent_coeffs(member)
        x[:, j] = derive_stream(member.seed, 1).standard_normal((p, n)).T
    _arma_filter(b.reshape(2, -1), a.reshape(2, -1), x.reshape(n, -1))

    lo = 0
    for block in spec.nonstationary_blocks:
        _integrate(x[:, :, lo : lo + block.count], block.d)
        lo += block.count

    mixings = _draw_mixings(batch)
    b2s = true_b2(mixings, spec.r)
    factors = _orthonormal_factors(b2s) if spec.r else [None] * reps
    panels = [
        GeneratedPanel(
            mixing=mixings[j], b2=b2s[j], x=x[:, j], true_r=spec.r,
            b2_q=q if isinstance(q, np.ndarray) else None,
        )
        for j, q in enumerate(factors)
    ]
    return panels[0] if single else panels
