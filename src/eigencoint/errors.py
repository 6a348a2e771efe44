"""Exception types raised across the package.

Every error derives from :class:`EigencointError` so callers can catch the
package's failures with a single ``except`` clause while still being able to
distinguish the individual conditions.
"""


class EigencointError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# linear algebra

class InvalidMatrix(EigencointError):
    """Input matrix is not square, or contains non-finite entries."""


class SingularMatrix(EigencointError):
    """Matrix is singular or too ill-conditioned for a stable solve.

    Attributes
    ----------
    condition : float
        Estimated condition number (largest eigenvalue magnitude over
        smallest), ``inf`` when the smallest is zero.
    """

    def __init__(self, message, condition=float("inf")):
        super().__init__(message)
        self.condition = float(condition)


# ---------------------------------------------------------------------------
# panels and lag covariances

class InvalidSeries(EigencointError):
    """Observation panel is malformed (wrong shape, too short, or non-finite)."""


class LagTooLarge(EigencointError):
    """Requested lag leaves fewer than one summand in the autocovariance."""


# ---------------------------------------------------------------------------
# rank selection

class DegenerateSpectrum(EigencointError):
    """Smallest eigenvalue is not strictly positive.

    Signals a rank-deficient quadratic covariance matrix; the caller may
    perturb the panel or reduce its dimension.
    """


class InvalidRank(EigencointError):
    """Requested rank is outside 0..p."""


# ---------------------------------------------------------------------------
# subspace metrics

class NotOrthonormal(EigencointError):
    """Basis expected to have orthonormal columns does not."""


class DimensionMismatch(EigencointError):
    """Bases disagree in row or column dimension where they must match."""


class SingularBasis(EigencointError):
    """Basis matrix is rank deficient."""


# ---------------------------------------------------------------------------
# simulation

class InvalidOrder(EigencointError):
    """Integration/differencing order outside the supported domain."""


class NonstationaryAR(EigencointError):
    """Autoregressive polynomial has a root on or inside the unit circle."""


class SingularMixing(EigencointError):
    """Could not draw a well-conditioned mixing matrix within the retry cap."""


# ---------------------------------------------------------------------------
# baselines

class SingularMoments(EigencointError):
    """Product-moment matrix in a reduced-rank regression is singular."""


class DegenerateComponent(EigencointError):
    """A component series is constant where a test requires variation."""


# ---------------------------------------------------------------------------
# experiment harness

class ExperimentFailure(EigencointError):
    """Too many replicates of an experiment cell failed to run."""
