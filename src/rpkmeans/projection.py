"""Random projection construction, application, and distortion reporting.

A sign matrix is a mailman.SignMatrix; project_naive applies it by the
fixed-order reference product, project_mailman by bucketing and folding.
Its +-1 entries keep the Gaussian JL guarantee (Achlioptas, 2003).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import mailman
from .errors import ParameterError
from .matrix import _integer, _size, as_matrix, matmul, svd_thin

# Distances of exactly zero are preserved when the embedded distance stays
# below this absolute threshold.
ZERO_DISTANCE_TOL = 1e-12


def _validate_epsilon(epsilon: float):
    # The closed right end admits the float 1/3, which rounds below the
    # real number 1/3 and is therefore still inside the open interval.
    if not (0.0 < epsilon <= 1.0 / 3.0):
        raise ParameterError(f"epsilon={epsilon} outside (0, 1/3]")


def _snapped_ceil(x: float) -> int:
    """ceil(x), at least 1, after values within one part in 1e12 of an
    integer snap down, so boundary inputs like epsilon = 1/3 do not
    overshoot."""
    return max(1, math.ceil(x - 1e-12 * x))


def target_dimension(k: int, epsilon: float) -> int:
    """Projection dimension t = ceil(k / epsilon**2), snapped as in
    _snapped_ceil.  A k past the float range overflows like any other
    k / epsilon**2.
    """
    k = _size(k, "k")
    _validate_epsilon(epsilon)
    if epsilon * epsilon == 0.0:
        raise ParameterError(f"epsilon={epsilon} squared underflows to 0")
    x = k / (epsilon * epsilon) if k <= sys.float_info.max else math.inf
    if not math.isfinite(x):
        raise ParameterError(f"k / epsilon**2 overflows float64 at epsilon={epsilon}")
    return _snapped_ceil(x)


@dataclass
class ProjectionConfig:
    """How to project before clustering: cluster count, accuracy, seed."""

    k: int
    epsilon: float = 1.0 / 3.0
    t_override: int | None = None
    seed: int = 0

    def __post_init__(self):
        self.k, self.seed = _size(self.k, "k"), _integer(self.seed, "seed")
        _validate_epsilon(self.epsilon)
        if self.t_override is not None:
            self.t_override = _size(self.t_override, "t_override")

    def resolve_t(self, d: int) -> int:
        """The projection dimension to use against d original columns."""
        t = (self.t_override if self.t_override is not None
             else target_dimension(self.k, self.epsilon))
        if t > d:
            raise ParameterError(f"resolved t={t} exceeds input dimension d={d}")
        return t


def sample_sign_matrix(d: int, t: int, seed: int) -> mailman.SignMatrix:
    """Sample a d x t sign matrix scaled by 1/sqrt(t), packed by block:
    mailman._plan_blocks, which accepts integers 1 <= d < 2**32 and t >= 1."""
    return mailman._plan_blocks(d, t, seed)


def project_naive(a, sign: mailman.SignMatrix) -> np.ndarray:
    """Apply a sign matrix by plain (fixed-order) multiplication with its
    dense entries; matmul refuses a whose width is not sign.d.

    The dense entries are +-c, c = 1/sqrt(t), so matmul takes its BLAS
    rank-1 route: a_ri * c rounds as the triple loop's a_ri * (+-c) does up
    to sign, and adding it times +-1 is one exact term per element per
    step, so the result equals the scalar triple loop's bit for bit at any
    BLAS thread count.
    """
    return matmul(a, mailman.densify(sign, scaled=True))


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
    if not epsilon > 0:  # NaN fails every comparison
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
