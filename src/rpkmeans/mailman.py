"""The packed sign matrix and the mailman multiply that applies it.

SignMatrix holds a d x t matrix of +-1/sqrt(t) entries in column blocks
whose widths it derives from (d, t) by block_widths, the one place the
layout is decided: p = floor(log2 d) bits (1 at d = 1), then the remainder.
Row j of its one codes array holds block j's pattern code for each input row
(bit b of a code is the sign of block column b: 1 -> +1, 0 -> -1); its
blocks are MailmanBlock views of those rows, made only when read, and
densify(sign, scaled=True) gives the dense entries, scaled by the one
number 1/sqrt(t).  Multiplying a row vector by one block costs d bucket
additions plus a fold over the 2**p buckets, instead of d*p multiply-adds
(Liberty and Zucker, "The Mailman algorithm", 2009).

Every block but the last is p = widths[0] bits wide, so one column rule
reads the matrix: column c is bit c mod p of block c div p's code.
densify and _slice_groups both read it by that rule.

The matrix is sampled at p = floor(log2 d), as the paper's analysis
prescribes, from one Philox stream per seed, each block at its own counter
offset (_plan_blocks), and block_row_multiply_counted applies it at that
width.
project_mailman applies the same matrix in narrower pieces, because 2**p
buckets per row (8192 at d = 10304) would spill every cache.  Three
constants bound its pieces:

- SLICE_BITS bounds the width of a bit-slice.  The t columns are cut in
  order into ceil(t / w) slices of balanced width (bit_slices), at most
  w = min(SLICE_BITS, max(1, floor(log2 d) - 4)) wide, so that a slice has
  at most d / 16 buckets.  A slice may span a block bound, and reads its
  code with shifts and masks from its first block and at most the next.  A
  row costs d bucket additions per slice and at most 2**(w + 1) adds per
  slice to fold.
- ROW_TILE bounds the rows taken at once.  Each row tile is transposed
  into one buffer of 8 * d * ROW_TILE bytes, made once per call, so that
  each input coordinate of the tile is one contiguous vector to add into a
  bucket.
- TILE_BYTES bounds a slice group's bucket buffer: slices go in groups of
  at most TILE_BYTES // (8 * ROW_TILE * 2**w), each with its own one-hot
  sparse matrix (about 12 bytes per input column per slice, built once per
  call).  A slice one bit narrower than w is bucketed as a w-bit one whose
  top bit is never set, so one width serves every group.  The fold runs
  in place in that buffer; only its outputs, w / 2**w of the buffer's
  size, are new.

None of these grow with n; the output is the only n-sized allocation.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import ParameterError
from .matrix import _dense, _integers, _size, as_matrix

# project_mailman buckets and folds at most this many sign columns at a
# time.  At d = 10304, 9-bit slices cut t = 360 into 40 slices where the
# 7 + 6-bit halves of each 13-bit block made 56: 29% fewer bucket additions.
SLICE_BITS = 9
# Rows in one of project_mailman's row tiles.  With 9-bit slices at
# 400 x 10304 x 360, 32-row tiles measured 10% faster than 64-row ones,
# and 16 or 24-row tiles no faster, on a 2 MiB-L2 Xeon.
ROW_TILE = 32
# Bytes of one slice group's bucket buffer in project_mailman: eight 9-bit
# slices of a 32-row tile.  A buffer that fits in a core's L2 cache keeps
# the bucket scatter fast: on the same Xeon, 2 MiB measured about 20%
# slower than 1 MiB.
TILE_BYTES = 1 << 20
# Bytes of gathered codes that densify holds at a time: one row chunk's
# code for every output column, in the narrowest type that holds p bits.
UNPACK_BYTES = 1 << 20
# Widest block: block_widths refuses d >= 2**32 (a 16 GiB codes row per
# block), so a code is the top bits of one 32-bit draw.
MAX_WIDTH = 31


def _checked_codes(codes, widths: np.ndarray, d: int) -> np.ndarray:
    """codes as int64 of shape widths.shape + (d,), every code of block j in
    [0, 2**widths[j]); int64 codes stay the caller's array."""
    codes = _integers(codes, "codes")
    if codes.shape != widths.shape + (d,):
        raise ParameterError(f"codes must have shape {widths.shape + (d,)}, not {codes.shape}")
    # codes >> p is nonzero exactly for codes outside [0, 2**p)
    if (codes >> widths[..., None]).any():
        raise ParameterError("codes must lie in [0, 2**p) for block width p")
    return codes


@dataclass(eq=False)
class MailmanBlock:
    """One column block: width p, one pattern code per input row.  A
    SignMatrix's blocks are these, over row views of its codes."""

    p: int
    codes: np.ndarray  # (d,) integers in [0, 2**p)

    def __post_init__(self):
        self.p = _size(self.p, "block width")
        if self.p > MAX_WIDTH:
            raise ParameterError(f"block widths must lie in [1, {MAX_WIDTH}]")
        # d = max(1, size): an empty row is refused by its shape
        self.codes = _checked_codes(self.codes, np.int64(self.p), max(1, np.size(self.codes)))


@dataclass(eq=False)
class SignMatrix:
    """A d x t matrix of +-1/sqrt(t) entries, packed in column blocks: row j
    of codes holds block j's pattern codes, one per input row.  The
    constructor checks every matrix passed to it; _plan_blocks builds the
    sampled ones, whose codes hold by construction, without it."""

    d: int
    t: int
    codes: np.ndarray = field(repr=False)  # (blocks, d) integers in [0, 2**widths[j])
    widths: np.ndarray = field(init=False)  # block_widths(d, t), never passed in

    def __post_init__(self):
        self.widths = np.array(block_widths(self.d, self.t), dtype=np.int64)
        self.d, self.t = int(self.d), int(self.t)
        self.codes = _checked_codes(self.codes, self.widths, self.d)

    @property
    def blocks(self) -> list:
        """The column blocks in order, each one's codes a row view of codes."""
        return [MailmanBlock(p, row) for p, row in zip(self.widths.tolist(), self.codes)]


def block_widths(d: int, t: int) -> list:
    """Column-block widths: full blocks of floor(log2 d), then the remainder,
    for integers (numpy's pass, bools do not) t >= 1 and 1 <= d < 2**32."""
    d, t = _size(d, "d"), _size(t, "t")
    if d >= 1 << (MAX_WIDTH + 1):
        raise ParameterError(f"d = {d} must be below 2**{MAX_WIDTH + 1}")
    p_full = max(1, d.bit_length() - 1)
    widths = [p_full] * (t // p_full)
    if t % p_full:
        widths.append(t % p_full)
    return widths


def _plan_blocks(d: int, t: int, seed: int) -> SignMatrix:
    """Sample the pattern codes of every block of a d x t sign matrix.

    The matrix draws from one stream, (seed, SIGN_MATRIX, 0), in one call.
    Block j reads half = ceil(d / 2) raw words from word j * span on, with
    span = 4 * ceil(half / 4): its Philox counter starts at j * span / 4, so
    a block can be drawn alone (advance by j * span / 4, then draw half
    words), and a matrix's first blocks do not depend on t.  block_widths
    refuses sizes before anything is drawn.  Each code is what
    Generator.integers(0, 2**p, size=d, dtype=np.int64) returns from block
    j's counter on: it draws 32-bit halves of the raw words, low half first,
    and Lemire's method never rejects a draw when the range is a power of
    two, so each code is the top p bits of its draw.

    The codes lie in [0, 2**p) by construction, so the matrix is built
    without the constructor's checks, in the form it holds: int64 widths and
    C-contiguous int64 codes of shape (blocks, d).
    """
    # block_widths refuses d or t that int() would coerce
    widths = np.array(block_widths(d, t), dtype=np.int64)
    d, t = int(d), int(t)
    span = -(-d // 8) * 4  # 4 * ceil(half / 4) = 4 * ceil(d / 8)
    words = _rng.stream(seed, _rng.SIGN_MATRIX).bit_generator.random_raw(widths.size * span)
    draws = words.astype("<u8", copy=False).view("<u4").reshape(widths.size, 2 * span)[:, :d]
    sign = object.__new__(SignMatrix)
    sign.d, sign.t, sign.widths = d, t, widths
    # uint32 >> int64 is a new C-order int64 array
    sign.codes = draws >> (32 - widths)[:, None]
    return sign


def build_plan(d: int, t: int, seed: int) -> SignMatrix:
    """Sample a packed d x t sign matrix, scaled by 1/sqrt(t): _plan_blocks."""
    return _plan_blocks(d, t, seed)


def _fold_in_place(v: np.ndarray, p: int) -> np.ndarray:
    """Multiply bucket sums by the 2**p x p sign-pattern matrix, p >= 1: v's
    bucket axis (axis 0, of length 2**p) becomes an axis of length p whose
    entry b is sum(buckets with bit b set) - sum(the rest).

    The top bit uses the high/low halves; lower bits reuse the running
    total (merging halves keeps the sum), so the adds stay within 2**(p+1)
    per bucket vector.  Every sum is a fixed sequence of elementwise adds of
    whole slices of the bucket axis, never a reduction, so each element
    along the other axes gets the same bits whatever their shape.  The adds
    overwrite v with partial sums.
    """
    out = np.empty((p,) + v.shape[1:])
    for b in range(p - 1, 0, -1):
        # merge the halves into the lower one, then add the upper half up
        # within itself: high[0] ends as the sum of every upper bucket
        half = 1 << b
        v[:half] += v[half:2 * half]
        high = v[half:2 * half]
        while high.shape[0] > 1:
            h = high.shape[0] // 2
            high[:h] += high[h:]
            high = high[:h]
        out[b] = high[0]
    out[0] = v[1] - v[0]
    if p > 1:
        v[0] += v[1]
        out[1:] *= 2.0
        out[1:] -= v[0]
    return out


def block_row_multiply_counted(block: MailmanBlock, x):
    """Scalar reference multiply of the row vector x by one packed block's
    unscaled ±1 columns.

    Returns (y, additions) where additions is every floating-point add or
    subtract performed.  The count is at most d + 2**(p+1) per call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != block.codes.size:
        raise ParameterError(f"x must be a length-{block.codes.size} vector")
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


def bit_slices(d: int, t: int) -> tuple:
    """The slices project_mailman cuts a d x t sign matrix's columns into:
    (first, width), each slice's first column and width.

    ceil(t / w) slices in column order, covering columns 0..t-1 whatever
    the blocks, with widths that differ by at most one bit, wider first,
    and w = min(SLICE_BITS, max(1, floor(log2 d) - 4)): t = 360 at
    d = 10304 splits as 40 slices of 9, and t = 100 at d = 1024 as 15 of 6
    and 2 of 5.
    """
    d, t = _size(d, "d"), _size(t, "t")
    w = min(SLICE_BITS, max(1, d.bit_length() - 5))
    count = -(-t // w)
    width = np.full(count, t // count)
    width[:t % count] += 1
    return np.cumsum(width) - width, width


def _slice_groups(plan: SignMatrix) -> list:
    """project_mailman's slice groups: (one-hot, width, output columns),
    one per group of at most TILE_BYTES of buckets."""
    # imported here so that importing the package does not load scipy
    from scipy import sparse

    d = plan.d
    first, width = bit_slices(d, plan.t)
    w = int(width[0])
    # groups of balanced size, at most g_max slices each
    parts = -(-first.size // max(1, TILE_BYTES // (8 * ROW_TILE << w)))
    g_max = -(-first.size // parts)
    bounds = np.arange(parts + 1) * first.size // parts
    # int32 indices when every group's rows and nonzeros fit; scipy would
    # otherwise convert them on every product
    index = np.int32 if max(d, 1 << w) * g_max < 2**31 else np.int64
    # by the module's column rule, a slice starts at bit `shift` of block
    # blk, which holds `held` of its bits; every block but the last is
    # floor(log2 d) >= w bits wide, so the rest are block blk + 1's low
    # bits.  Unsigned, so shifts drop the bits they push out, and the mask
    # drops the bits past the slice.
    codes = plan.codes.astype(np.uint32)
    blk, shift = np.divmod(first, plan.widths[0])
    held = (plan.widths[blk] - shift).astype(np.uint32)
    shift, masks = (v.astype(np.uint32)[:, None] for v in (shift, (1 << width) - 1))
    # every one-hot entry is 1.0: the groups share one array of them
    ones = np.ones(d * g_max)
    groups = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        s = slice(lo, hi)
        g = hi - lo
        # column i (input coordinate i) holds one 1 per slice, in row
        # code(i) * g + slice: bucket-major, slice-minor
        rows = codes[blk[s]] >> shift[s]
        cross = lo + np.flatnonzero(held[s] < width[s])
        rows[cross - lo] |= codes[blk[cross] + 1] << held[cross, None]
        rows &= masks[s]
        rows *= g
        rows += np.arange(g, dtype=np.uint32)[:, None]
        rows = rows.T.astype(index, order="C")
        onehot = sparse.csc_matrix(
            (ones[:d * g], rows.reshape(-1), np.arange(0, (d + 1) * g, g, dtype=index)),
            shape=(g << w, d))
        # bit-major output columns; a narrow slice's never-set top bit is
        # among the last, and has no column
        cols = (first[s][None, :] + np.arange(w)[:, None]).reshape(-1)
        groups.append((onehot, w, cols[:width[s].sum()]))
    return groups


def project_mailman(a, plan: SignMatrix) -> np.ndarray:
    """Multiply every row of a by the packed sign matrix: a @ R, scaled by
    1/sqrt(t).

    The columns are cut by bit_slices into slices of balanced width, across
    block bounds, and each slice is bucketed and folded as a narrow block of
    its own, by row tiles (ROW_TILE) and slice groups (TILE_BYTES), as the
    module docstring sets out; a is left as it was.  Each group's one-hot
    sparse matrix, built once per call, adds every coordinate's vector of a
    row tile into its slice's bucket, and _fold_in_place folds the buckets
    in place with elementwise adds only.  So each output element is one
    fixed sequence of adds, and every row is bit-identical whatever the row
    count or tiling, n = 1 included.

    a is not scanned: each output entry sums its row with signs (the fold's
    running total), so only a non-finite one runs as_matrix(a).
    """
    a = _dense(a)
    if a.shape[1] != plan.d:
        raise ParameterError(f"a has {a.shape[1]} columns, the sign matrix expects {plan.d}")
    n = a.shape[0]
    groups = _slice_groups(plan)
    scale = 1.0 / math.sqrt(plan.t)
    out = np.empty((n, plan.t))
    # every tile's transpose goes into the front of one flat buffer, so a
    # short last tile is contiguous too
    tiles = np.empty(plan.d * min(n, ROW_TILE))
    with np.errstate(invalid="ignore"):
        for r0 in range(0, n, ROW_TILE):
            rows = a[r0:r0 + ROW_TILE]
            m = rows.shape[0]
            tile = tiles[:plan.d * m].reshape(plan.d, m)
            tile[...] = rows.T
            for onehot, w, cols in groups:
                # (2**w, g, m) buckets fold to (w, g, m): bit, slice, row;
                # the product's own array takes the fold's partial sums
                folded = _fold_in_place((onehot @ tile).reshape(1 << w, -1, m), w)
                folded *= scale
                out[r0:r0 + m, cols] = folded.reshape(-1, m)[:cols.size].T
    if not np.isfinite(out).all():
        as_matrix(a)
    return out


def densify(sign: SignMatrix, scaled: bool = False) -> np.ndarray:
    """Expand a packed sign matrix into its dense d x t entries.

    Entries are +-1 (bit b of a code set -> +1 in block column b), times
    1/sqrt(t) when scaled=True.  Column c is read by the module's column
    rule, bit c mod p of block c div p, from the codes cast once, transposed,
    to the narrowest unsigned type that holds p bits.  A chunk of input rows
    at a time gathers each output column's code, shifts and masks it to its
    bit and writes the entries.  Besides the output, memory goes to the cast
    codes and one row chunk's gathered codes, within about UNPACK_BYTES.
    """
    dense = np.empty((sign.d, sign.t))
    # bit b maps to 2 * scale * b - scale: +-scale exactly, as 2 * scale is
    scale = 1.0 / math.sqrt(sign.t) if scaled else 1.0
    p = int(sign.widths[0])
    code_type = np.min_scalar_type((1 << p) - 1)
    # (d, blocks), laid out as codes is: a gathered column is one block's run
    codes = sign.codes.T.astype(code_type)
    blk, bit = np.divmod(np.arange(sign.t), p)
    bit = bit.astype(code_type)
    step = max(1, UNPACK_BYTES // (code_type.itemsize * sign.t))
    for r0 in range(0, sign.d, step):
        bits = codes[r0:r0 + step, blk]
        bits >>= bit
        bits &= 1
        np.multiply(bits, 2.0 * scale, out=dense[r0:r0 + step])
        dense[r0:r0 + step] -= scale
    return dense
