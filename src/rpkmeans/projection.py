"""Random projection construction, application, and distortion reporting.

SignMatrix is mailman.SignMatrix, re-exported; project_naive applies it by
the fixed-order reference product, project_mailman by bucketing and folding.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import mailman, rng as _rng
from .errors import ParameterError
from .mailman import SignMatrix
from .matrix import as_matrix, matmul, svd_thin

# Distances of exactly zero are preserved when the embedded distance stays
# below this absolute threshold.
ZERO_DISTANCE_TOL = 1e-12


def _validate_epsilon(epsilon: float):
    # The closed right end admits the float 1/3, which rounds below the
    # real number 1/3 and is therefore still inside the open interval.
    if not (0.0 < epsilon <= 1.0 / 3.0):
        raise ParameterError(f"epsilon={epsilon} outside (0, 1/3]")


def _validate_c(c: float):
    if not (0.0 < c < math.inf):
        raise ParameterError(f"c={c} must be positive and finite")


def target_dimension(k: int, epsilon: float, c: float = 1.0) -> int:
    """Projection dimension t = ceil(c * k / epsilon**2).

    Values within one part in 1e12 of an integer snap down before the
    ceiling, so boundary inputs like epsilon = 1/3 do not overshoot.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    _validate_epsilon(epsilon)
    _validate_c(c)
    if epsilon * epsilon == 0.0:
        raise ParameterError(f"epsilon={epsilon} squared underflows to 0")
    x = c * k / (epsilon * epsilon)
    if not math.isfinite(x):
        raise ParameterError(f"c * k / epsilon**2 overflows for c={c}, k={k}, "
                             f"epsilon={epsilon}")
    return max(1, math.ceil(x - 1e-12 * x))


@dataclass
class ProjectionConfig:
    """How to project before clustering: cluster count, accuracy, seed."""

    k: int
    epsilon: float = 1.0 / 3.0
    c: float = 1.0
    t_override: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError("k must be at least 1")
        _validate_epsilon(self.epsilon)
        _validate_c(self.c)
        if self.t_override is not None and self.t_override < 1:
            raise ParameterError("t_override must be at least 1")

    def resolve_t(self, d: int) -> int:
        """The projection dimension to use against d original columns."""
        t = self.t_override if self.t_override is not None else target_dimension(
            self.k, self.epsilon, self.c
        )
        if t > d:
            raise ParameterError(f"resolved t={t} exceeds input dimension d={d}")
        return t


def sample_sign_matrix(d: int, t: int, seed: int) -> SignMatrix:
    """Sample a d x t sign matrix scaled by 1/sqrt(t), packed by block."""
    if d < 1 or t < 1:
        raise ParameterError("d and t must be positive")
    return SignMatrix(d=d, t=t, blocks=mailman.plan_blocks(d, t, seed))


@dataclass
class GaussianMatrix:
    """A d x t matrix of independent N(0, 1/t) entries."""

    d: int
    t: int
    entries: np.ndarray = field(repr=False)

    def dense(self) -> np.ndarray:
        return self.entries


def sample_gaussian_matrix(d: int, t: int, seed: int) -> GaussianMatrix:
    if d < 1 or t < 1:
        raise ParameterError("d and t must be positive")
    entries = _rng.stream(seed, _rng.GAUSSIAN).standard_normal((d, t))
    entries /= math.sqrt(t)
    return GaussianMatrix(d=d, t=t, entries=entries)


def project_naive(a, r) -> np.ndarray:
    """Apply a projection matrix by plain (fixed-order) multiplication."""
    a = as_matrix(a)
    if a.shape[1] != r.d:
        raise ParameterError(f"a has {a.shape[1]} columns, projection expects {r.d}")
    return matmul(a, r.dense())


def svd_embed(a, k: int) -> np.ndarray:
    """Embed rows into k dimensions via the top-k left factors, u_k * sigma_k."""
    r = svd_thin(a, k)
    return r.u * r.sigma


@dataclass
class DistortionReport:
    fraction_ok: float
    worst_low: float
    worst_high: float


def jl_distortion_report(a, a_tilde, epsilon: float) -> DistortionReport:
    """Fraction of point pairs whose distance survives within (1 +- epsilon).

    Ratios are embedded distance over original distance.  Pairs at original
    distance zero count as preserved when the embedded distance is zero up
    to an absolute tolerance; they do not enter the worst-case ratios.
    """
    # imported here so that importing the package does not load scipy
    from scipy.spatial.distance import pdist

    a = as_matrix(a)
    a_tilde = as_matrix(a_tilde)
    if a.shape[0] != a_tilde.shape[0]:
        raise ParameterError("a and a_tilde must have the same number of rows")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if a.shape[0] < 2:
        return DistortionReport(fraction_ok=1.0, worst_low=1.0, worst_high=1.0)
    orig = pdist(a)
    emb = pdist(a_tilde)
    zero = orig == 0.0
    ok = np.empty(orig.shape, dtype=bool)
    ok[zero] = emb[zero] <= ZERO_DISTANCE_TOL
    ratios = emb[~zero] / orig[~zero]
    ok[~zero] = (ratios >= 1.0 - epsilon) & (ratios <= 1.0 + epsilon)
    if ratios.size:
        worst_low = float(ratios.min())
        worst_high = float(ratios.max())
    else:
        worst_low = worst_high = 1.0
    return DistortionReport(
        fraction_ok=float(np.mean(ok)), worst_low=worst_low, worst_high=worst_high
    )
