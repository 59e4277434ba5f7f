"""The packed sign matrix and the mailman multiply that applies it.

SignMatrix holds a d x t matrix of +-1/sqrt(t) entries in column blocks of
width p = floor(log2 d).  Each block keeps one integer pattern code per row
(bit b of the code is the sign of block column b: 1 -> +1, 0 -> -1).  The
scale 1/sqrt(t) is one number for the whole matrix, so no block stores it.
Multiplying a row vector by one block then costs d bucket additions plus
a fold over the 2**p buckets, instead of d*p multiply-adds (Liberty and
Zucker, "The Mailman algorithm", 2009).

The matrix is sampled at p = floor(log2 d), as the paper's analysis
prescribes, and block_row_multiply_counted applies it at that width.
project_mailman applies the same matrix in narrower pieces, because 2**p
buckets per row (8192 at d = 10304) would spill every cache.  Three
constants bound its pieces:

- SLICE_BITS bounds the width of a bit-slice.  Each block is cut into
  ceil(p / SLICE_BITS) slices of balanced width (bit_slices), so a row
  costs d bucket additions per slice and at most 2**(SLICE_BITS + 1) adds
  per slice to fold.
- ROW_TILE bounds the rows taken at once.  A row tile is transposed once,
  into 8 * d * ROW_TILE bytes, so that each input coordinate of the tile is
  one contiguous vector to add into a bucket.
- TILE_BYTES bounds a slice group's bucket buffer: slices of one width go
  in groups of at most TILE_BYTES // (8 * ROW_TILE * 2**width), each with
  its own one-hot sparse matrix (about 12 bytes per input column per slice,
  built once per call).  The fold's temporaries take about as much again.

None of these grow with n; the output is the only n-sized allocation.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import ParameterError
from .matrix import as_matrix

# project_mailman buckets and folds at most this many bits of a block at a
# time.  At d = 10304 (p = 13), 7 bits cut a block into 7 + 6-bit slices
# where 6 bits needed three (6 + 6 + 1): a third fewer bucket additions.
SLICE_BITS = 7
# Rows in one of project_mailman's row tiles.
ROW_TILE = 64
# Bytes of one slice group's bucket buffer in project_mailman.  A buffer
# that fits in a core's L2 cache keeps the bucket scatter fast; with 64-row
# tiles, 1 MiB measured as fast as 0.5 or 2 MiB, and 32 or 128-row tiles
# no faster, on a 2 MiB-L2 Xeon.
TILE_BYTES = 1 << 20


@dataclass
class MailmanBlock:
    """One column block: width p, one pattern code per input row."""

    p: int
    codes: np.ndarray  # (d,) integers in [0, 2**p)

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("block width p must be at least 1")
        self.codes = np.asarray(self.codes, dtype=np.int64)
        if self.codes.ndim != 1 or self.codes.size == 0:
            raise ParameterError("codes must be a nonempty 1-D integer array")
        if self.codes.min() < 0 or self.codes.max() >= (1 << self.p):
            raise ParameterError(f"codes must lie in [0, 2**{self.p})")

    @classmethod
    def _checked(cls, p: int, codes: np.ndarray):
        """A block of int64 codes that the caller has range-checked."""
        block = object.__new__(cls)
        block.p, block.codes = p, codes
        return block

    @property
    def d(self) -> int:
        return self.codes.size


@dataclass
class SignMatrix:
    """A d x t matrix of +-1/sqrt(t) entries, packed in column blocks."""

    d: int
    t: int
    blocks: list = field(repr=False)

    def __post_init__(self):
        if sum(b.p for b in self.blocks) != self.t:
            raise ParameterError("block widths must sum to t")
        for b in self.blocks:
            if b.d != self.d:
                raise ParameterError("all blocks must share the matrix's d")

    def signs(self) -> np.ndarray:
        """Dense +-1 entries."""
        return densify(self, scaled=False)

    def dense(self) -> np.ndarray:
        """Dense entries with the 1/sqrt(t) scale folded in."""
        return densify(self, scaled=True)


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
    generated independently and in any order.  All blocks are sampled in
    one pass, and each block's codes are a row view of one array.
    """
    widths = block_widths(d, t)
    codes = _sample_codes(d, widths, seed, 0)
    return [MailmanBlock._checked(p, row) for p, row in zip(widths, codes)]


def build_plan(d: int, t: int, seed: int) -> SignMatrix:
    """Sample a packed d x t sign matrix, scaled by 1/sqrt(t)."""
    if d < 2:
        raise ParameterError("d must be at least 2 to form column blocks")
    if t < 1:
        raise ParameterError("t must be at least 1")
    return SignMatrix(d=d, t=t, blocks=plan_blocks(d, t, seed))


def _halve(v: np.ndarray) -> np.ndarray:
    """Add the upper half of axis 0 onto the lower half."""
    half = v.shape[0] // 2
    return v[:half] + v[half:]


def fold_buckets(buckets: np.ndarray, axis: int = -1) -> np.ndarray:
    """Multiply bucket sums by the full 2**p x p sign-pattern matrix.

    The bucket axis (axis, of length 2**p) becomes an axis of length p
    whose entry b carries sum(+buckets where bit b set) - sum(rest); the
    other axes are kept.  The top output uses the high/low halves
    directly; lower bits reuse the running total (merging halves preserves
    the overall sum), which keeps the addition count within 2**(p+1) per
    bucket vector.  Every sum is a fixed sequence of elementwise adds of
    whole slices of the bucket axis, never a reduction, so each element
    along the other axes gets the same bits whatever their shape.
    """
    v = np.moveaxis(buckets, axis, 0)
    m = v.shape[0]
    p = m.bit_length() - 1
    if m < 2 or m != (1 << p):
        raise ParameterError("bucket axis must have length 2**p with p >= 1")
    out = np.empty((p,) + v.shape[1:])
    for b in range(p - 1, 0, -1):
        high = v[v.shape[0] // 2:]
        while high.shape[0] > 1:
            high = _halve(high)
        out[b] = high[0]
        v = _halve(v)
    out[0] = v[1] - v[0]
    if p > 1:
        out[1:] *= 2.0
        out[1:] -= v[0] + v[1]
    return np.moveaxis(out, 0, axis)


def block_row_multiply_counted(block: MailmanBlock, x):
    """Scalar reference multiply of the row vector x by one packed block's
    unscaled ±1 columns.

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
    return np.array(out), adds


def bit_slices(p: int) -> list:
    """The (shift, width) slices project_mailman cuts a p-bit block into.

    ceil(p / SLICE_BITS) slices in bit order, covering bits 0..p-1, with
    widths that differ by at most one bit, wider first: 13 bits split as
    7 + 6, and 15 as 5 + 5 + 5.
    """
    count = -(-p // SLICE_BITS)
    narrow, wide = divmod(p, count)
    slices = []
    shift = 0
    for i in range(count):
        width = narrow + (i < wide)
        slices.append((shift, width))
        shift += width
    return slices


def _slice_groups(plan: SignMatrix) -> list:
    """project_mailman's slice groups: (one-hot, width, output columns),
    one per group of equal-width slices."""
    # imported here so that importing the package does not load scipy
    from scipy import sparse

    d = plan.d
    # every slice, in output-column order, by width: (block, shift, first
    # output column)
    by_width = {}
    col = 0
    for j, block in enumerate(plan.blocks):
        for shift, width in bit_slices(block.p):
            by_width.setdefault(width, []).append((j, shift, col + shift))
        col += block.p
    chunks = []
    for w, slices in by_width.items():
        per_group = max(1, TILE_BYTES // (8 * ROW_TILE << w))
        chunks += [(w, c) for c in np.array_split(np.array(slices), -(-len(slices) // per_group))]
    # int32 indices when every group's rows and nonzeros fit; scipy would
    # otherwise convert them on every product
    index = np.int32 if max(max(d, 1 << w) * len(c) for w, c in chunks) < 2**31 else np.int64
    codes = np.stack([b.codes for b in plan.blocks], axis=1, dtype=index)
    # every one-hot entry is 1.0: the groups share one array of them
    ones = np.ones(d * max(len(c) for _, c in chunks))
    groups = []
    for w, chunk in chunks:
        blk, shift, first = chunk.T
        g = len(chunk)
        # column i (input coordinate i) holds one 1 per slice s, in row
        # code_s(i) * g + s: bucket-major, slice-minor
        rows = (codes[:, blk] >> shift.astype(index)) & index((1 << w) - 1)
        rows *= g
        rows += np.arange(g, dtype=index)
        onehot = sparse.csc_matrix(
            (ones[:d * g], rows.reshape(-1), np.arange(0, (d + 1) * g, g, dtype=index)),
            shape=(g << w, d))
        groups.append((onehot, w, (first[None, :] + np.arange(w)[:, None]).reshape(-1)))
    return groups


def project_mailman(a, plan: SignMatrix) -> np.ndarray:
    """Multiply every row of a by the packed sign matrix: a @ R, scaled by
    1/sqrt(t).

    The matrix is applied in bit-slices rather than whole p-bit blocks: each
    block's codes are cut by bit_slices into ceil(p / SLICE_BITS) slices of
    balanced width, and every slice is bucketed and folded as a narrow block
    of its own.  Bits keep their order, so output columns do too.

    The work is tiled two ways.  Rows go in tiles of at most ROW_TILE, each
    transposed once, so that one input coordinate of the whole tile is one
    contiguous vector.  Slices of one width go in groups whose bucket buffer
    (2**width buckets per slice, one ROW_TILE-long vector each) stays within
    TILE_BYTES.  Each group has its own one-hot sparse matrix, built once per
    call, that adds every coordinate's vector into its slice's bucket; the
    buckets come out bucket axis first and fold_buckets folds them along it
    with elementwise adds only.  Each output element is therefore computed
    by one fixed sequence of adds, and every row is bit-identical whatever
    the row count or tiling, n = 1 included.

    Besides the output, memory goes to the one-hot matrices (about 12 bytes
    per input column per slice), the transposed tile (8 * d * ROW_TILE
    bytes) and one group's buckets and fold (within about 2 * TILE_BYTES);
    none of it grows with n.
    """
    a = as_matrix(a)
    if a.shape[1] != plan.d:
        raise ParameterError(f"a has {a.shape[1]} columns, the sign matrix expects {plan.d}")
    n = a.shape[0]
    groups = _slice_groups(plan)
    scale = 1.0 / math.sqrt(plan.t)
    out = np.empty((n, plan.t))
    for r0 in range(0, n, ROW_TILE):
        tile = np.ascontiguousarray(a[r0:r0 + ROW_TILE].T)
        m = tile.shape[1]
        for onehot, w, cols in groups:
            # (2**w, g, m) buckets fold to (w, g, m): bit, slice, row
            folded = fold_buckets((onehot @ tile).reshape(1 << w, -1, m), axis=0)
            folded *= scale
            out[r0:r0 + m, cols] = folded.reshape(-1, m).T
    return out


def densify(sign: SignMatrix, scaled: bool = False) -> np.ndarray:
    """Expand a packed sign matrix into its dense d x t entries.

    Entries are +-1 (bit b of a code set -> +1 in block column b), times
    1/sqrt(t) when scaled=True.  Each run of blocks of one width is
    expanded in one pass, straight into its output columns; besides the
    output, memory goes to the run's codes and one byte per entry of bits.
    """
    dense = np.empty((sign.d, sign.t))
    offset = 0
    for p, run in itertools.groupby(sign.blocks, key=lambda b: b.p):
        run = list(run)
        width = len(run) * p
        # little-endian codes in the narrowest unsigned type that holds p
        # bits: their bytes, least significant first, unpack to bits 0..p-1
        code_type = np.dtype(f"<u{next(n for n in (1, 2, 4, 8) if 8 * n >= p)}")
        codes = np.stack([b.codes for b in run], axis=1, dtype=code_type, casting="unsafe")
        bits = np.unpackbits(codes.view(np.uint8).reshape(sign.d, len(run), -1), axis=2,
                             count=p, bitorder="little")
        # via the 2-D column slice: in-place ops on a 3-D view of these
        # strided columns allocate an output-sized temporary
        cols = dense[:, offset:offset + width]
        np.multiply(bits.reshape(sign.d, width), 2.0, out=cols)
        cols -= 1.0
        if scaled:
            cols *= 1.0 / math.sqrt(sign.t)
        offset += width
    return dense
