"""Seed derivation on top of numpy's counter-based Philox generator.

Every random draw in the library flows through a (seed, domain, index)
triple mapped to its own Philox stream.  Streams are independent of the
order in which they are opened, so any unit of work (a sign matrix, a
trial, a restart) can be sampled in isolation or in parallel without
changing the values drawn.  Philox is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): its counter
advances in steps of four 64-bit words, and any stretch of a stream can
be drawn alone after Philox.advance, as a sign matrix's column blocks are.
"""

import numpy as np

from .errors import ParameterError

# Domain tags keep unrelated consumers of the same user seed on disjoint
# streams.  The per-domain index must fit in 48 bits.  A tag's value keys
# every stream it owns: tags are never renumbered, and 1, 2, 3 and 9 are
# retired.  A sign matrix draws from its seed's SIGN_MATRIX stream, index 0.
MIXTURE_CENTERS = 4
MIXTURE_NOISE = 5
LLOYD_RESTART = 6
TRIAL = 7
INSTANCE = 8
BENCH = 10
SIGN_MATRIX = 11

_INDEX_BITS = 48


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for the (seed, domain, index) stream."""
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ParameterError(f"stream index {index} outside [0, 2**{_INDEX_BITS})")
    if domain < 0 or domain >= (1 << 15):
        raise ParameterError(f"domain tag {domain} outside [0, 2**15)")
    key = np.array([seed % (1 << 64), (domain << _INDEX_BITS) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, domain: int, index: int = 0) -> int:
    """A fresh 63-bit seed drawn from the named stream."""
    return int(stream(seed, domain, index).integers(0, 1 << 63))
