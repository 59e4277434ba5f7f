"""Random sign projections for k-means clustering.

Project rows with a packed +-1 matrix (cheap to apply, distances preserved
within 1 +- epsilon), cluster in the low dimension, and keep a provable
factor of the original-space optimum.  Ships with an exhaustive solver for
tiny instances, a property-check suite, and a CLI.
"""

__version__ = "0.1.0"

from .dataio import Dataset, MixtureSpec, generate_mixture, load_image_dir, read_csv, write_csv
from .errors import CrossCheckError, DataFormatError, ParameterError
from .evaluation import (ExperimentRecord, PropertyReport, accuracy,
                         decomposition_residual_check, jl_distortion_check,
                         matmul_moment_check, moment_identity_check,
                         norm_bound_check, normalized_objective, property_suite,
                         pseudo_inverse_bound_check, singular_value_check,
                         theorem_distortion_trial)
from .kmeans import (Assignment, KMeansResult, PipelineResult, SolverSpec,
                     brute_force_optimal, lloyd, objective, project_and_cluster)
from .mailman import (SignMatrix, block_row_multiply_counted, build_plan,
                      densify, project_mailman)
from .matrix import (SvdResult, as_matrix, best_rank_k, frobenius_norm,
                     matmul, pseudo_inverse, spectral_norm, svd_thin)
from .projection import (DistortionReport, ProjectionConfig, jl_distortion_report,
                         project_naive, sample_sign_matrix, svd_embed,
                         target_dimension)

__all__ = [name for name in dir() if not name.startswith("_")]
