"""Output checks every benchmark job must pass.

Each check returns None when the output is fine and a one-line reason
when it is not; a job with any reason counts as failed.
"""

import hashlib
import re

import numpy as np

# Wall-time fields of the program's JSON output, masked before comparing
# bytes: "projection_ms": 12.3 -> "projection_ms": T.
_TIMING_FIELD = re.compile(rb'("[a-z_]+_ms"): -?[0-9][0-9.eE+-]*')


def partition(labels, k):
    """Labels lie in [0, k) and every cluster is used."""
    labels = np.asarray(labels)
    if labels.size == 0 or labels.min() < 0 or labels.max() >= k:
        return f"labels outside [0, {k})"
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if empty.size:
        return f"{empty.size} empty clusters, first {int(empty[0])}"
    return None


def descent(trace):
    """The objective trace is finite and never increases."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.size == 0 or not np.isfinite(trace).all():
        return "objective trace empty or not finite"
    rises = np.flatnonzero(np.diff(trace) > 0)
    if rises.size:
        return f"objective trace rises at step {int(rises[0]) + 1}"
    return None


def plugback(points, labels, k, reported, kmeans):
    """The reported plug-back objective equals kmeans.objective on the labels."""
    try:
        again = kmeans.objective(points, kmeans.Assignment.from_labels(np.asarray(labels), k))
    except ValueError as exc:
        return f"objective refused the labels: {exc}"
    if reported != again:
        return f"plug-back objective {reported!r} != recomputed {again!r}"
    return None


def same_partition(labels, reference):
    if not np.array_equal(np.asarray(labels), np.asarray(reference)):
        return "partition differs from the warm-up job"
    return None


def mask_timings(data):
    """Output bytes with every *_ms value replaced by T."""
    return _TIMING_FIELD.sub(rb'\1: T', data)


def same_bytes(data, reference_digest, what):
    if digest(data) != reference_digest:
        return f"{what} bytes differ from the warm-up job"
    return None


def digest(data):
    return hashlib.sha256(data).hexdigest()


def projection_matches(projected, reference, tol=1e-10):
    """Packed projection equals the dense product to tol relative."""
    gap = float(np.linalg.norm(projected - reference))
    scale = max(float(np.linalg.norm(reference)), 1e-300)
    if gap > tol * scale:
        return f"mailman projection off dense product by {gap / scale:.3e} relative"
    return None
