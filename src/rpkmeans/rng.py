"""Seed derivation on top of numpy's counter-based Philox generator.

Every random draw in the library flows through a (seed, domain, index)
triple mapped to its own Philox stream.  Streams are independent of the
order in which they are opened, so any unit of work (a column block, a
trial, a restart) can be sampled in isolation or in parallel without
changing the values drawn.
"""

import numpy as np

from .errors import ParameterError

# Domain tags keep unrelated consumers of the same user seed on disjoint
# streams.  The per-domain index must fit in 48 bits.  A tag's value keys
# every stream it owns: tags are never renumbered, and 2, 3 and 9 are retired.
SIGN_BLOCK = 1
MIXTURE_CENTERS = 4
MIXTURE_NOISE = 5
LLOYD_RESTART = 6
TRIAL = 7
INSTANCE = 8
BENCH = 10

_INDEX_BITS = 48


def _key_word(domain: int, index: int) -> int:
    """The second Philox key word of a (domain, index) stream, validated."""
    if index < 0 or index >= (1 << _INDEX_BITS):
        raise ParameterError(f"stream index {index} outside [0, 2**{_INDEX_BITS})")
    if domain < 0 or domain >= (1 << 15):
        raise ParameterError(f"domain tag {domain} outside [0, 2**15)")
    return (domain << _INDEX_BITS) | index


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for the (seed, domain, index) stream."""
    key = np.array([seed % (1 << 64), _key_word(domain, index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_words(seed: int, domain: int, indices, count: int) -> np.ndarray:
    """The first count raw 64-bit words of each (seed, domain, index) stream.

    Row i equals stream(seed, domain, indices[i]).bit_generator.random_raw(count).
    One Philox is re-keyed for each stream instead of a generator being
    built per stream, which costs more than drawing a few hundred words.
    """
    indices = list(indices)
    for index in (min(indices, default=0), max(indices, default=0)):
        _key_word(domain, index)  # the two ends bound every index
    words = np.empty((len(indices), count), dtype=np.uint64)
    bits = np.random.Philox(0)
    # a freshly keyed Philox (counter 0, buffer empty), in plain ints: the
    # setter reads each field by index, about 1 us a numpy scalar
    key = [seed % (1 << 64), 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, index in enumerate(indices):
        key[1] = (domain << _INDEX_BITS) | index
        bits.state = state
        words[row] = bits.random_raw(count)
    return words


def derive_seed(seed: int, domain: int, index: int = 0) -> int:
    """A fresh 63-bit seed drawn from the named stream."""
    return int(stream(seed, domain, index).integers(0, 1 << 63))
