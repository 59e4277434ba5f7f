"""Packed sign-matrix multiplication.

A d x t matrix with +-1 entries is stored in column blocks of width
p = floor(log2 d).  Each block keeps one integer pattern code per row
(bit b of the code is the sign of block column b: 1 -> +1, 0 -> -1).
Multiplying a row vector by one block then costs d bucket additions plus
a fold over the 2**p buckets, instead of d*p multiply-adds.

The matrix is sampled at p = floor(log2 d), as the paper's analysis
prescribes, and block_row_multiply_counted applies it at that width.
project_mailman applies the same matrix in bit-slices of at most
SLICE_BITS bits over row tiles: 2**p buckets per row (8192 at d = 10304)
would spill every cache, while 64 per slice do not.  Its bucket buffer is
bounded by TILE_BYTES, whatever the row count.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ParameterError
from .matrix import as_matrix

# project_mailman folds at most this many bits of a block at a time: 2**6
# buckets per slice keep the fold cheap and the bucket rows short.
SLICE_BITS = 6
# Bytes of one row tile's bucket buffer in project_mailman.  A buffer that
# fits in a core's L2 cache keeps the bucket scatter fast; 1 MiB measured
# fastest of 0.5-4 MiB on a 2 MiB-L2 Xeon.
TILE_BYTES = 1 << 20
# plan_blocks samples, and densify expands, blocks in batches whose
# temporaries stay near this many bytes: a batch shares one re-keyed Philox,
# one range check and one set of vector operations, and memory stays flat
# next to the plan or the dense output.
BATCH_BYTES = 1 << 16


@dataclass
class MailmanBlock:
    """One column block: width p, one pattern code per input row."""

    p: int
    codes: np.ndarray  # (d,) integers in [0, 2**p)
    scale: float = 1.0

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("block width p must be at least 1")
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if self.codes.ndim != 1 or self.codes.size == 0:
            raise ParameterError("codes must be a nonempty 1-D integer array")
        if self.codes.min() < 0 or self.codes.max() >= (1 << self.p):
            raise ParameterError(f"codes must lie in [0, 2**{self.p})")

    @classmethod
    def _checked(cls, p: int, codes: np.ndarray, scale: float):
        """A block of int64 codes that the caller has range-checked."""
        block = object.__new__(cls)
        block.p, block.codes, block.scale = p, codes, scale
        return block

    @property
    def d(self) -> int:
        return self.codes.size


@dataclass
class MailmanPlan:
    """Column blocks covering all t output coordinates of a d x t sign matrix."""

    d: int
    t: int
    blocks: list

    def __post_init__(self):
        if sum(b.p for b in self.blocks) != self.t:
            raise ParameterError("block widths must sum to t")
        for b in self.blocks:
            if b.d != self.d:
                raise ParameterError("all blocks must share the plan's d")


def block_widths(d: int, t: int) -> list:
    """Column-block widths: full blocks of floor(log2 d), then the remainder."""
    if d < 1 or t < 1:
        raise ParameterError("d and t must be positive")
    p_full = max(1, d.bit_length() - 1)
    widths = [p_full] * (t // p_full)
    if t % p_full:
        widths.append(t % p_full)
    return widths


def _sample_codes(d: int, widths: list, seed: int, first: int) -> np.ndarray:
    """Codes of blocks first, first + 1, ... (of the given widths), one row each.

    Each code is what (seed, block j) stream's Generator.integers(0, 2**p,
    size=d, dtype=np.int64) returns: for p <= 32 it draws 32-bit halves of the
    raw words, low half first, and above 32 bits whole words.  Lemire's method
    never rejects a draw when the range is a power of two, so each code is the
    top p bits of its draw.
    """
    p = np.array(widths, dtype=np.int64)[:, None]
    indices = range(first, first + len(widths))
    if max(widths) <= 32:
        words = _rng.stream_words(seed, _rng.SIGN_BLOCK, indices, (d + 1) // 2)
        draws, draw_bits = words.astype("<u8", copy=False).view("<u4")[:, :d], 32
    else:
        draws, draw_bits = _rng.stream_words(seed, _rng.SIGN_BLOCK, indices, d), 64
    codes = (draws >> (draw_bits - p).astype(draws.dtype)).astype(np.int64)
    # one range check for the batch: codes >> p is nonzero exactly for codes
    # outside [0, 2**p)
    if (codes >> p).any():
        raise ParameterError("sampled codes must lie in [0, 2**p) for block width p")
    return codes


def plan_blocks(d: int, t: int, seed: int) -> list:
    """Sample the pattern codes for every block of a d x t sign matrix.

    Block j draws from the (seed, block j) stream, so blocks can be
    generated independently and in any order.  Blocks are sampled in
    batches of BATCH_BYTES of codes; batching changes no code.
    """
    scale = 1.0 / math.sqrt(t)
    widths = block_widths(d, t)
    per_batch = max(1, BATCH_BYTES // (8 * d))
    blocks = []
    for first in range(0, len(widths), per_batch):
        batch = widths[first:first + per_batch]
        codes = _sample_codes(d, batch, seed, first)
        blocks.extend(MailmanBlock._checked(p, row, scale) for p, row in zip(batch, codes))
    return blocks


def build_plan(d: int, t: int, seed: int) -> MailmanPlan:
    """Sample a packed d x t sign matrix, scaled by 1/sqrt(t)."""
    if d < 2:
        raise ParameterError("d must be at least 2 to form column blocks")
    if t < 1:
        raise ParameterError("t must be at least 1")
    return MailmanPlan(d=d, t=t, blocks=plan_blocks(d, t, seed))


def fold_buckets(buckets: np.ndarray) -> np.ndarray:
    """Multiply bucket sums by the full 2**p x p sign-pattern matrix.

    Output column b carries sum(+buckets where bit b set) - sum(rest).
    Works on any leading shape; the last axis must have length 2**p.
    The top output uses the high/low halves directly; lower bits reuse
    the running total (merging halves preserves the overall sum), which
    keeps the addition count within 2**(p+1) per row.
    """
    m = buckets.shape[-1]
    p = m.bit_length() - 1
    if m < 2 or m != (1 << p):
        raise ParameterError("bucket axis must have length 2**p with p >= 1")
    out = np.empty(buckets.shape[:-1] + (p,))
    v = buckets
    for b in range(p - 1, 0, -1):
        half = v.shape[-1] // 2
        out[..., b] = v[..., half:].sum(axis=-1)
        v = v[..., :half] + v[..., half:]
    out[..., 0] = v[..., 1] - v[..., 0]
    if p > 1:
        total = v[..., 0] + v[..., 1]
        out[..., 1:] = 2.0 * out[..., 1:] - total[..., None]
    return out


def block_row_multiply(block: MailmanBlock, x) -> np.ndarray:
    """Multiply the row vector x by one packed block: bucket, fold, scale."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != block.d:
        raise ParameterError(f"x must be a length-{block.d} vector")
    buckets = np.zeros(1 << block.p)
    np.add.at(buckets, block.codes, x)
    return block.scale * fold_buckets(buckets)


def block_row_multiply_counted(block: MailmanBlock, x):
    """Scalar reference path for block_row_multiply that counts additions.

    Returns (y, additions) where additions is every floating-point add or
    subtract performed.  The count is at most d + 2**(p+1) per call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != block.d:
        raise ParameterError(f"x must be a length-{block.d} vector")
    adds = 0
    buckets = [0.0] * (1 << block.p)
    for code, value in zip(block.codes.tolist(), x.tolist()):
        buckets[code] += value
        adds += 1
    out = [0.0] * block.p
    v = buckets
    stashed = []
    for b in range(block.p - 1, 0, -1):
        half = len(v) // 2
        hi_sum = v[half]
        for u in v[half + 1:]:
            hi_sum += u
            adds += 1
        stashed.append((b, hi_sum))
        merged = []
        for lo_val, hi_val in zip(v[:half], v[half:]):
            merged.append(lo_val + hi_val)
            adds += 1
        v = merged
    out[0] = v[1] - v[0]
    adds += 1
    if block.p > 1:
        total = v[0] + v[1]
        adds += 1
        for b, hi_sum in stashed:
            out[b] = 2.0 * hi_sum - total
            adds += 1
    y = np.array([block.scale * value for value in out])
    return y, adds


def project_mailman(a, plan: MailmanPlan) -> np.ndarray:
    """Multiply every row of a by the packed sign matrix: a @ R, scaled.

    The plan is applied in bit-slices rather than whole p-bit blocks: each
    block's codes are cut into slices of at most SLICE_BITS bits, and every
    slice is bucketed and folded as a narrow block of its own.  Bits keep
    their order, so output columns do too.  The bucket step for all slices
    runs as one one-hot sparse product, built once per call and applied to
    row tiles whose bucket buffer stays within TILE_BYTES; slices of equal
    width fold together.  Besides the output, memory goes to the one-hot
    matrix (12 bytes per input column per slice) and, per tile, to the
    bucket buffer and a transposed copy of the tile's rows; none of it grows
    with n beyond one tile.  Each output row depends only on its input row,
    and bit-identically so: the result does not depend on the tiling.
    """
    # imported here so that importing the package does not load scipy
    from scipy import sparse

    a = as_matrix(a)
    if a.shape[1] != plan.d:
        raise ParameterError(f"a has {a.shape[1]} columns, plan expects {plan.d}")
    n = a.shape[0]
    # one row per slice, in output-column order: block, bit shift, width,
    # first output column
    slices = []
    col = 0
    for j, block in enumerate(plan.blocks):
        for shift in range(0, block.p, SLICE_BITS):
            slices.append((j, shift, min(SLICE_BITS, block.p - shift), col + shift))
        col += block.p
    ns = len(slices)
    # int32 indices when nonzeros and buckets (at most 64 per slice) fit;
    # scipy would otherwise convert them on every call
    index = np.int32 if (plan.d + 64) * ns < 2**31 else np.int64
    # widest first, so each width's buckets are contiguous and fold in one
    # call; the stable sort keeps the slices of one width in column order
    blk, shift, width, first = np.array(
        sorted(slices, key=lambda s: -s[2]), dtype=index).T
    offsets = np.concatenate(([0], np.cumsum(1 << width))).astype(index)
    codes = np.stack([b.codes for b in plan.blocks], axis=1, dtype=index)
    # one nonzero per (input column, slice): row j feeds its slice's bucket
    bucket_cols = ((codes[:, blk] >> shift) & ((1 << width) - 1)) + offsets[:-1]
    onehot = sparse.csr_matrix(
        (np.ones(plan.d * ns), bucket_cols.reshape(-1),
         np.arange(0, (plan.d + 1) * ns, ns, dtype=index)),
        shape=(plan.d, int(offsets[-1])),
    )
    slice_scale = np.array([b.scale for b in plan.blocks])[blk]
    groups = []  # (width, slice count, output columns, scales)
    for w in sorted(set(width.tolist()), reverse=True):
        same = width == w
        groups.append((w, int(same.sum()),
                       (first[same][:, None] + np.arange(w)).reshape(-1),
                       slice_scale[same][:, None]))
    tile = max(1, TILE_BYTES // (8 * int(offsets[-1])))
    out = np.empty((n, plan.t))
    for r0 in range(0, n, tile):
        # C order: the fold's sums then run in the same order for any tile
        buckets = np.ascontiguousarray(a[r0:r0 + tile] @ onehot)
        m = buckets.shape[0]
        start = 0
        for w, g, cols, scales in groups:
            folded = fold_buckets(buckets[:, start:start + (g << w)].reshape(m, g, 1 << w))
            folded *= scales
            out[r0:r0 + m, cols] = folded.reshape(m, g * w)
            start += g << w
    return out


def densify(plan_or_blocks, scaled: bool = False) -> np.ndarray:
    """Expand packed blocks into the dense d x t sign matrix.

    Entries are +-1 (bit b of a code set -> +1 in block column b), times
    the block scale when scaled=True.  Runs of blocks of one width are
    expanded in batches and copied into the output; besides the output,
    memory goes to one batch's codes, bits and entries: about BATCH_BYTES,
    or one block's when a block needs more.
    """
    blocks = plan_or_blocks.blocks if hasattr(plan_or_blocks, "blocks") else plan_or_blocks
    if not blocks:
        raise ParameterError("no blocks to densify")
    d = blocks[0].d
    t = sum(b.p for b in blocks)
    dense = np.empty((d, t))
    offset = 0
    for p, run in itertools.groupby(blocks, key=lambda b: b.p):
        run = list(run)
        # per block and row: an 8-byte code, p bytes of bits, p float entries
        per_batch = max(1, BATCH_BYTES // (d * (8 + 9 * p)))
        for first in range(0, len(run), per_batch):
            batch = run[first:first + per_batch]
            g = len(batch)
            codes = np.stack([b.codes for b in batch], axis=1).astype("<i8", copy=False)
            # the bytes of a little-endian code, least significant first,
            # unpack to its bits 0, 1, ..., p - 1
            bits = np.unpackbits(codes.view(np.uint8).reshape(d, g, 8), axis=2,
                                 count=p, bitorder="little")
            # a contiguous batch, then one copy: three passes over the strided
            # output columns measured slower
            entries = np.multiply(bits, 2.0)
            entries -= 1.0
            if scaled:
                entries *= np.array([b.scale for b in batch])[:, None]
            dense[:, offset:offset + g * p] = entries.reshape(d, g * p)
            offset += g * p
    return dense
