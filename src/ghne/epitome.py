"""Epitomes: grids of (g, s) pairs closed under hamming convolution.

A raw hamming convolution output loses the individual GHD summands; what
makes stacked convolutions mergeable is keeping, next to every
accumulated sum g, the number s of summands it came from.  An *epitome*
is exactly that bookkeeping: an N-dimensional grid of pairs (g, s).
Convolving two epitomes merges entries with the closed form

    merge((g, s), (g', s')) = (g (+) g' + (s'-1)g + (s-1)g',  s*s')

summed over the anti-diagonal index sets of a full convolution.  The
pair (g, s) algebra is associative even though summing plain GHD values
is not, which is the whole point: a stack of layers collapses into one
bank without touching any input.

Under t = s - 2g the merge is a plain product, t_out = t * t', just as
t(x) = 1 - 2x turns the scalar GHD into multiplication.  bank_convolve
uses that to evaluate a whole bank contraction as two plain
convolutions, one for t and one for the counts, each a windowed matrix
product (im2col), batched over groups of output rows, that runs in
BLAS; counts against an all-ones operand are box sums instead.

Counts are stored as int64, never floats, so they stay exact (a count
that would not fit raises CountOverflowError); g values are float64.
Epitomes are immutable after construction and every operation returns
a new one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ghd import fuzziness as _scalar_fuzziness
from .ghd import ghd

_INT64_MAX = 2**63 - 1
# Cap on the entries one im2col chunk of bank_convolve gathers (4 MiB of
# float64).  Smaller caps split large products into skinny, slow GEMMs;
# larger ones raise peak memory.
_IM2COL_ENTRIES = 2**19
# OpenBLAS runs a matrix product of at most this many multiply-adds on
# the calling thread, and splits a larger one across its threads;
# bank_convolve makes each product as many output rows wide as fit.
_ONE_THREAD_WORK = 2**18

__all__ = [
    "CountOverflowError",
    "Epitome",
    "Histogram",
    "make_normalized",
    "normalize",
    "merged_pair",
    "bank_convolve",
    "convolve",
    "add",
    "mean_fuzziness",
    "histogram",
]


class CountOverflowError(ValueError):
    """A summand count exceeds the int64 range that counts are stored in."""


class _PairGrid:
    """Validated, immutable float64 g and int64 s arrays of one shape.

    The shared core of Epitome and Bank.  A subclass sets _NAME for its
    messages, _MEMBER_AXES, the number of leading axes that index
    members (the rank is at least one more), and _RANK_ERROR, formatted
    with a lower rank found.  Counts that every member shares are kept
    once (see _distinct_counts), as a read-only broadcast of one grid.
    """

    __slots__ = ("g", "s")

    def __init__(self, g, s):
        g = np.array(g, dtype=np.float64)
        s = np.asarray(s)
        # numpy holds a list with an int past 2**64 - 1 as Python ints (dtype object)
        exact = s.dtype.kind in "biu" or (
            s.dtype.kind == "O" and all(isinstance(v, (int, np.integer)) for v in s.flat)
        )
        if not exact:
            # reject silent float counts; exact integer arithmetic is load-bearing
            raise TypeError(f"counts must be integers, got dtype {s.dtype}")
        if g.ndim < self._MEMBER_AXES + 1:
            raise ValueError(self._RANK_ERROR.format(g.ndim))
        if g.shape != s.shape:
            raise ValueError(f"g shape {g.shape} != s shape {s.shape}")
        if g.size == 0:
            raise ValueError(f"{self._NAME} must have at least one entry per axis")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite g value in {self._NAME}")
        s = _distinct_counts(s, self._MEMBER_AXES)
        # checked before the int64 copy, which a Python int below -2**63 overflows
        if np.any(s < 1):
            raise ValueError("every summand count must be >= 1")
        # one read-only copy, which the frozen arrays below depend on
        s = _int64_counts(s)
        g.setflags(write=False)
        self.g = g
        # shared counts stay one grid; the read-only broadcast copies nothing
        self.s = s if s.shape == g.shape else np.broadcast_to(s, g.shape)

    @property
    def is_normalized(self) -> bool:
        return bool(np.all(self.s == 1))

    def values(self) -> np.ndarray:
        """Normalized entries g/s (the mean GHDs), in the arrays' shape."""
        return self.g / self.s

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.g, other.g) and np.array_equal(self.s, other.s)

    __hash__ = None


class Epitome(_PairGrid):
    """An N-dimensional grid of (g, s) pairs.

    g accumulates GHD sums, s counts the summands behind each g.  A
    normalized epitome has s = 1 everywhere; its g values are the mean
    GHDs and read as fuzzy grades of fitness.
    """

    __slots__ = ()
    _NAME = "epitome"
    _MEMBER_AXES = 0
    _RANK_ERROR = "epitome rank must be >= 1 (got a bare scalar)"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.g.shape

    @property
    def rank(self) -> int:
        return self.g.ndim

    def __repr__(self):
        return f"Epitome(shape={self.shape}, normalized={self.is_normalized})"


@dataclass(frozen=True, eq=False)
class Histogram:
    """Histogram of normalized epitome entries.

    Bins are half-open [lo, hi) with the top edge closed; counts sum to
    the number of entries that fell inside the range.
    """

    bin_edges: np.ndarray
    counts: np.ndarray


def make_normalized(values) -> Epitome:
    """Wrap a grid of plain values (weights or inputs) as a normalized epitome.

    Raw data not yet involved in any convolution is an epitome with
    g = value and s = 1 everywhere.
    """
    g = np.asarray(values, dtype=np.float64)
    return Epitome(g, np.ones(g.shape, dtype=np.int64))


def normalize(e: Epitome) -> Epitome:
    """Replace every entry (g, s) with (g/s, 1).  Idempotent."""
    return Epitome(e.g / e.s, np.ones(e.shape, dtype=np.int64))


def merged_pair(gn, sn, gm, sm):
    """Merge two (g, s) entries into the pair covering all sn*sm GHD terms.

    Returns (ghd(gn, gm) + (sm-1)*gn + (sn-1)*gm, sn*sm): the sum of all
    pairwise GHDs of any decomposition of gn into sn summands and gm
    into sm summands, which is computable without knowing the summands.
    """
    try:
        sn, sm = operator.index(sn), operator.index(sm)
    except TypeError:
        raise TypeError(f"counts must be integers, got ({sn!r}, {sm!r})") from None
    if sn < 1 or sm < 1:
        raise ValueError(f"counts must be >= 1, got ({sn}, {sm})")
    return float(ghd(gn, gm) + (sm - 1) * gn + (sn - 1) * gm), sn * sm


def bank_convolve(ga, sa, gb, sb, window=None):
    """Hamming convolution of two banks given as arrays, over an output window.

    a = (ga, sa) has shape (k, c, *A) and b = (gb, sb) shape (m, k, *B),
    with float64 g and int64 s, as held by Bank and Epitome.
    Output member (i, j) is the entrywise epitome sum over k of the full
    convolution of a[k, j] with b[i, k], whose spatial shape is A + B - 1.
    window, one slice per spatial axis in those full-output coordinates
    (None for all of it), selects the entries computed and returned, so
    the result (g, s) has shape (m, c, *window extents); each slice must
    be slice(start, stop), of integers, non-empty and inside the full
    extent of its axis.  Both parts are
    the same contraction: with T = s - 2g,

        T_out = sum_k conv(T_a[k, j], T_b[i, k])
        s_out = sum_k conv(s_a[k, j], s_b[i, k])    (exact)
        g_out = (s_out - T_out) / 2
              = sum_k conv(T_a[k, j], -T_b[i, k] / 2) + s_out / 2

    The second form is the one computed: b's side of the product
    carries the -1/2 (g_b - s_b / 2 is -T_b / 2 exactly), so the product
    lands in the array returned as g, and one in-place addition of
    s_out / 2, from the count grid before it is broadcast, finishes it.
    Halving is exact in float64, so g has the bits of (s_out - T_out) / 2
    outside the subnormal range.

    Each contraction is one windowed matrix product (im2col): a is
    zero-padded by B_i - 1 on both ends of each axis, so output position
    p reads padded[p : p + B].  One read-only strided view of the padded
    buffer, starting at the window, holds those |B| entries for every
    position in the window; they are gathered next to it, and a matmul
    against the spatially flipped b, an m x (k * |B|) matrix, turns the
    whole convolution into BLAS products.  The gathered copy holds
    k * c * |B| entries per output position, so a is windowed when
    c * |B| <= m * |A|, and otherwise the roles swap (convolution
    commutes; the window, in output coordinates, is the same either
    way).  The output is produced in chunks of whole rows of its first
    spatial axis, each gathering at most _IM2COL_ENTRIES entries (or one
    row, if a row alone holds more), which bounds the memory of a large
    apply.

    The matmul is batched over output channels and over groups of
    output rows: each product is m x (k * |B|) by (k * |B|) x (rows *
    |rest|), for one channel and as many rows as divide the window's
    rows evenly while the product stays within _ONE_THREAD_WORK
    multiply-adds, which OpenBLAS runs on the calling thread.  The
    benchmark's fold and apply products are of this kind: a 28x28 apply
    of a 32x1x10x10 deep epitome runs 14 products of 2 rows, where 28
    one-row products took about 25% longer.  As one threaded product per
    chunk, the second BLAS thread spun a whole CPU between calls: on 2
    CPUs, collapse of a 1-16-32-32 stack ran about 20% slower, and its
    rate spread 4 times wider from run to run.  A row of more work, as
    in collapse of a 1-32-64 stack of 5x5 kernels, gets one product per
    chunk and channel, which the threads speed up.  Every product writes
    its m x (rows * |rest|) block straight into the result, through a
    view whose rows have unit stride, so nothing is copied after it.  A
    call repeats bit for bit.  Chunks hold whole products, so products
    of a few rows do not depend on the chunk size; a chunk-wide product
    may round g differently in the last bits for a different chunk
    size, never the counts.  A narrower window narrows each product,
    which may round g differently in the last bit from the same entries
    of the whole output (at most 1.8e-16 relative on the models
    measured).

    A stride-resized layer bank (see banks.layer_to_bank) keeps its
    taps, the K-entry kernel of T = 1 - 2w it was resized from, and
    composite_convolve contracts it through them.  With the stride d
    per axis, the replicate fill's T is box_d * dilate_d(T_w), the
    all-ones d-box convolved with the taps spread d apart, and the fuzzy
    fill's is dilate_d(T_w) followed by d - 1 zeros, as its 0.5 filler
    has T = 0.  So conv(T_a, T_b) is conv(box_d(T_a), dilate_d(T_w)) or
    conv(T_a, dilate_d(T_w)) zero-extended by d - 1: one windowed
    product over the |K| taps, read from the padded operand in steps of
    d, and the roles swap when c * |K_b| > m * |K_a|, with |K| the taps
    of an operand that has them and its grid otherwise.  Boxing adds d
    shifted copies, so g may differ from the dense product in the last
    bit; counts never do.

    Counts are contracted from the operands as given, before any role
    swap.  When one operand's counts are one grid of 1s, as a layer
    bank's and a normalized input's are, every output count is the other
    operand's counts summed over k and box-summed over the first
    operand's grid: one prefix sum per axis, in int64 when no prefix sum
    can reach 2**63, else in Python ints.  That grid depends only on the
    other operand's counts and on shapes, so when that operand is a Bank
    whose counts are one grid, composite_convolve lets the bank remember
    it (see banks.Bank); bank_convolve, given arrays, computes it on
    every call.  When sa and sb are both one other grid broadcast over
    the member axes (see _distinct_counts), every output member has the
    counts k * conv(grid_a, grid_b): the grid pair is contracted with
    weight k, at 1 / (m c) of the T contraction's cost.  Otherwise the
    per-member arrays are, with weight 1.  Either way counts are
    contracted in float64 when no partial sum can reach 2**53 (each is
    then an exact integer, in any summation order), else in int64 when
    none can reach 2**63, else in Python ints.  s is a read-only int64
    count array, broadcast to (m, c, *window).  A count past the int64
    maximum raises CountOverflowError, which the CLI reports with exit
    code 2.

    g = s / 2 - T / 2 has an absolute error of about eps * s, so g keeps
    its relative precision only while |g| / s is not much below 1:
    counts near 2**30 with g/s near 5e-10 were measured 7.7e-8 off the
    additive reference.  Data in [0, 1] stays far inside the 1e-9 gate.
    """
    return _bank_convolve(ga, sa, gb, sb, window)


class _Taps(NamedTuple):
    """The kernel a stride-resized layer bank was built from (see bank_convolve).

    w holds the layer's weights, (m, c, *K), each an entry of count 1;
    the bank's resized kernel spreads their T stride apart per axis,
    boxed for fill "replicate" and zero-extended for "fuzzy".
    """

    w: np.ndarray
    stride: tuple
    fill: str


# a g past float64's range becomes inf or nan without a numpy warning, and
# the non-finite check of the Bank or Epitome built from it names the failure
@np.errstate(over="ignore", invalid="ignore")
def _bank_convolve(ga, sa, gb, sb, window, banks=(None, None)):
    """bank_convolve, given the Bank (or None) each operand is from.

    A bank passes its _Taps to the T contraction and remembers count
    grids (see _counts); bank_convolve passes none.
    """
    window = _checked_window(window, tuple(x + y - 1 for x, y in zip(ga.shape[2:], gb.shape[2:])))
    g = _half_t(ga, sa, gb, sb, window, *(None if x is None else x._taps for x in banks))
    s = _counts(sa, sb, window, banks)
    g += 0.5 * s
    return g, np.broadcast_to(s, g.shape)


def _half_t(ga, sa, gb, sb, window, taps_a, taps_b):
    """-T_out / 2 over the window, a new float64 array (see bank_convolve)."""
    (k, c), grid_a = ga.shape[:2], ga.shape[2:]
    m, grid_b = gb.shape[0], gb.shape[2:]
    size_a, size_b = (
        math.prod(grid if taps is None else taps.w.shape[2:])
        for grid, taps in ((grid_a, taps_a), (grid_b, taps_b))
    )
    if c * size_b > m * size_a:
        # window b with a's kernel instead, the smaller gathered copy
        swapped = (x.swapaxes(0, 1) for x in (gb, sb, ga, sa))
        taps = (None if x is None else x._replace(w=x.w.swapaxes(0, 1)) for x in (taps_b, taps_a))
        return _half_t(*swapped, window, *taps).swapaxes(0, 1)
    ta = sa - 2.0 * ga
    # the kernel side carries the -1/2 (exactly: gb - sb/2 = -T_b/2), so the
    # product is -T/2, already in the array that is returned as g
    if taps_b is None:
        return _contract(ta, gb - 0.5 * sb, window, np.float64, (1,) * len(window))
    return _tap_contract(ta, taps_b, window)


def _checked_window(window, full):
    """window as slices of Python ints inside the full output extents, all of it for None.

    Anything but one slice(start, stop) per axis, of integers with
    0 <= start < stop <= the axis's full extent, raises ValueError
    naming the axis and that extent.
    """
    if window is None:
        return tuple(slice(0, n) for n in full)
    window = tuple(window)
    if len(window) != len(full):
        raise ValueError(
            f"window has {len(window)} slices for the {len(full)} axes of the full output {full}"
        )
    checked = []
    for axis, (w, n) in enumerate(zip(window, full)):
        try:
            start, stop = operator.index(w.start), operator.index(w.stop)
            inside = w.step is None and 0 <= start < stop <= n
        except (AttributeError, TypeError):
            inside = False
        if not inside:
            raise ValueError(
                f"window {w!r} on axis {axis} is not slice(start, stop) with integers "
                f"0 <= start < stop <= {n}, the full extent"
            )
        checked.append(slice(start, stop))
    return tuple(checked)


def _tap_contract(ta, taps, window):
    """sum_k conv(ta[k, j], -T[i, k] / 2) over the window, T the resized kernel of taps."""
    # -T_w / 2 of the taps, exactly
    kb = taps.w - 0.5
    if taps.fill == "replicate":
        ta = _box(ta, taps.stride)
    # conv(ta, dilate(kb)) ends here; the fuzzy kernel's zero tail extends it
    ends = tuple(x + (y - 1) * d for x, y, d in zip(ta.shape[2:], kb.shape[2:], taps.stride))
    inner = tuple(slice(w.start, min(w.stop, e)) for w, e in zip(window, ends))
    if inner == window:
        return _contract(ta, kb, window, np.float64, taps.stride)
    t = np.zeros((kb.shape[0], ta.shape[1]) + tuple(w.stop - w.start for w in window))
    if all(x.start < x.stop for x in inner):
        head = (slice(None), slice(None)) + tuple(slice(0, x.stop - x.start) for x in inner)
        t[head] = _contract(ta, kb, inner, np.float64, taps.stride)
    return t


def _box(x, widths):
    """Full convolution of every member of x (n, c, *grid) with an all-ones grid of widths.

    Shifted copies are added, not prefix sums differenced, which would
    cost T the precision of its largest partial sums.
    """
    for axis, w in enumerate(widths, 2):
        if w > 1:
            n = x.shape[axis]
            out = np.zeros(x.shape[:axis] + (n + w - 1,) + x.shape[axis + 1 :])
            for j in range(w):
                out[(slice(None),) * axis + (slice(j, j + n),)] += x
            x = out
    return x


def _counts(sa, sb, window, banks):
    """sum_k conv(sa[k, j], sb[i, k]) over the window: exact, read-only int64 counts.

    When one operand's counts are one grid of 1s (b's are tried first),
    the output counts are the other's box sums.  If that other operand
    is a bank, banks[side], whose counts are one grid too, the result
    depends only on shapes: the bank remembers it, keyed by its side,
    the all-ones grid's shape, k and the window, in one (key, grid)
    tuple that a new key replaces.  A CountOverflowError is never
    remembered.
    """
    (k, c), grid_a = sa.shape[:2], sa.shape[2:]
    grid_b = sb.shape[2:]
    sa, sb = (_distinct_counts(x, 2, compare=False) for x in (sa, sb))
    for side, s, ones, bank in ((1, sb, sa, banks[1]), (0, sa, sb, banks[0])):
        if ones.shape[:2] == (1, 1) and (ones == 1).all():
            break
    else:
        weight = k if sa.shape[:2] == sb.shape[:2] == (1, 1) else 1
        # an output entry sums at most k * prod(min(A_i, B_i)) terms, each at
        # most max(s_a) * max(s_b), so no weighted partial sum passes the bound
        terms = k * math.prod(min(x, y) for x, y in zip(grid_a, grid_b))
        bound = int(sa.max()) * int(sb.max()) * terms
        count_type = np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object
        return _int64_counts(weight * _contract(sa, sb, window, count_type, (1,) * len(window)))
    if bank is None or s.shape[:2] != (1, 1):
        return _int64_counts(_box_sums(s, side, k, ones.shape[2:], window))
    key = (side, ones.shape[2:], k, tuple((w.start, w.stop) for w in window))
    held = bank._counted
    if held is None or held[0] != key:
        held = bank._counted = (key, _int64_counts(_box_sums(s, side, k, ones.shape[2:], window)))
    return held[1]


def _box_sums(s, axis, k, widths, window):
    """s summed over its contracted axis and convolved with an all-ones grid of widths.

    s is a's counts (k, c, *grid) with axis 0 or b's (m, k, *grid) with
    axis 1; extent 1 there stands for k equal members.  Along each axis
    the full convolution is a prefix sum less itself w places back.
    """
    # no prefix sum passes the total count
    bound = int(s.max()) * k * math.prod(s.shape[2:])
    dtype = np.int64 if bound < 2**63 else object
    members = tuple(1 if i == axis else n for i, n in enumerate(s.shape[:2]))
    full = np.zeros(members + tuple(n + w - 1 for n, w in zip(s.shape[2:], widths)), dtype)
    head = (slice(None), slice(None)) + tuple(slice(0, n) for n in s.shape[2:])
    s.sum(axis=axis, keepdims=True, dtype=dtype, out=full[head])
    for ax, w in enumerate(widths, 2):
        np.cumsum(full, axis=ax, dtype=dtype, out=full)
        lead = (slice(None),) * ax
        full[lead + (slice(w, None),)] -= full[lead + (slice(0, -w),)]
    out = full[(slice(None), slice(None)) + tuple(window)]
    return k * out if s.shape[axis] == 1 else out


def _contract(a, b, window, dtype, step):
    """sum_k conv(a[k, j], dilate(b)[i, k]) over the window, as (m, c, *window) of dtype.

    The windowed matrix product of bank_convolve for one pair of
    operands, a (k, c, *A) windowed with the grid of b (m, k, *B) spread
    step apart per axis (1 everywhere for b's own grid).  a is zero-padded
    once and read through one strided view (see _window_view).  Each
    chunk of output rows is gathered from it as (products, c, k * |B|,
    rows * |rest|) and multiplied into its own rows of the returned
    array, so every entry is written once; the gathered copy is freed
    before the next chunk's.
    """
    (k, c), grid_a = a.shape[:2], a.shape[2:]
    m, grid_b = b.shape[0], b.shape[2:]
    rank = len(grid_a)
    span = tuple((y - 1) * d + 1 for y, d in zip(grid_b, step))
    # pad a by slice assignment into a zeroed buffer; np.pad made collapse of
    # a 1-16-32-32 stack about 20% slower
    padded = (k, c) + tuple(x + 2 * (y - 1) for x, y in zip(grid_a, span))
    inner = (slice(None), slice(None)) + tuple(
        slice(y - 1, y - 1 + x) for x, y in zip(grid_a, span)
    )
    pa = np.zeros(padded, dtype=dtype)
    pa[inner] = a
    flip = (slice(None), slice(None)) + (slice(None, None, -1),) * rank
    # b as a contiguous m x (k * |B|) matrix: matmul would run a strided
    # (flipped) operand in numpy's own loop instead of BLAS
    pb = np.ascontiguousarray(b[flip], dtype=dtype).reshape(m, -1)
    out_grid = tuple(w.stop - w.start for w in window)
    rows, rest = out_grid[0], out_grid[1:]
    depth, width = k * math.prod(grid_b), math.prod(rest)
    # rows per matrix product: the most that divide the rows evenly and
    # stay on the calling thread, else (one row alone is more) a whole chunk
    most = min(rows, _ONE_THREAD_WORK // (m * depth * width))
    chunk = max(1, _IM2COL_ENTRIES // (depth * c * width))
    if most:
        per_product = next(n for n in range(most, 0, -1) if rows % n == 0)
        # whole products per chunk, so the cap never moves a product boundary
        chunk = max(1, chunk // per_product) * per_product
    else:
        per_product = chunk
    # window axes (k, c, products, rows per product, *rest, *B) as
    # (products, c, k, *B, rows per product, *rest)
    order = (2, 1, 0, *range(3 + rank, 3 + 2 * rank), 3, *range(4, 3 + rank))

    def products(windows, target):
        # the gathered copy is freed on return, before the next chunk's is
        # gathered; keeping it alive raised the traced peak of a 64x64 rgb
        # apply from 4.8 to 6.9 MiB
        n = windows.shape[2]
        count = n // min(per_product, n)
        split = windows.reshape((k, c, count, n // count) + windows.shape[3:])
        gathered = split.transpose(order).reshape(count, c, depth, -1)
        # target (m, c, n, *rest) as (products, c, m, rows * |rest|): a view
        # whose every matrix has a unit inner stride, so BLAS writes it in place
        np.matmul(pb, gathered, out=target.reshape(m, c, count, -1).transpose(2, 1, 0, 3))

    out = np.empty((m, c) + out_grid, dtype=dtype)
    windows = _window_view(pa, window, grid_b, step)
    for r in range(0, rows, chunk):
        part = (slice(None), slice(None), slice(r, r + chunk))
        products(windows[part], out[part])
    return out


def _window_view(padded, window, taps, step):
    """The read-only view (k, c, *window extents, *taps) of padded (k, c, *grid).

    Output position p of the full convolution reads
    padded[p : p + span : step], with span = (taps - 1) * step + 1 per
    axis.  The view starts at the window's first position and steps
    through padded's own buffer, so nothing is copied; it equals
    sliding_window_view(padded, span)[window][..., ::step].
    """
    spatial = padded.strides[2:]
    view = np.ndarray(
        padded.shape[:2] + tuple(w.stop - w.start for w in window) + tuple(taps),
        padded.dtype,
        padded,
        sum(x * w.start for x, w in zip(spatial, window)),
        padded.strides + tuple(x * d for x, d in zip(spatial, step)),
    )
    view.setflags(write=False)
    return view


def _distinct_counts(s, member_axes, compare=True):
    """The grid every member of s shares, of extent 1 on the member axes, else s.

    The first member_axes axes of s index members.  A member axis of
    extent 1 or stride 0 (a broadcast) is shared; dense counts are then
    compared, unless compare is False, as for bank_convolve's operands.
    """
    grid = s[(slice(0, 1),) * member_axes]
    steps = zip(s.shape[:member_axes], s.strides[:member_axes])
    if all(n == 1 or step == 0 for n, step in steps) or (compare and np.all(s == grid)):
        return grid
    return s


def _int64_counts(s):
    """Exact counts (float64, signed, unsigned or Python ints) as a new read-only int64 array.

    A count past the int64 maximum raises CountOverflowError.
    """
    if s.dtype.kind in "uO" and s.max() > _INT64_MAX:
        raise CountOverflowError(
            f"summand count {s.max()} exceeds the int64 maximum {_INT64_MAX}"
        )
    s = s.astype(np.int64)
    s.setflags(write=False)
    return s


def convolve(a: Epitome, b: Epitome) -> Epitome:
    """Full hamming convolution of two epitomes.

    Output extent per axis is Na + Nb - 1.  Entry c sums merged_pair
    over the anti-diagonal set S(c) = {(n, m) | n + m = c} (0-based per
    axis), and counts are summed likewise.  This is bank_convolve with
    one filter, one channel and one contracted member.
    """
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")
    one = (np.newaxis, np.newaxis)
    g, s = bank_convolve(a.g[one], a.s[one], b.g[one], b.s[one])
    return Epitome(g[0, 0], s[0, 0])


def add(a: Epitome, b: Epitome) -> Epitome:
    """Entrywise summation of two same-shaped epitomes: (ga+gb, sa+sb).

    Folding extends it to any number of epitomes; this is how channels
    are merged.  Counts are summed as uint64, which cannot wrap, so a sum
    past the int64 maximum raises CountOverflowError.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):
        g = a.g + b.g
    # a sum past float64's range is inf, which Epitome rejects as non-finite
    return Epitome(g, a.s.astype(np.uint64) + b.s.astype(np.uint64))


def mean_fuzziness(e) -> float:
    """Arithmetic mean over entries of fuzziness(g/s), of an Epitome or a Bank.

    A fuzziness or mean past float64's range, as for |g/s| above about
    1e154, raises ValueError.
    """
    return _mean_fuzziness(e.values())


def _mean_fuzziness(values) -> float:
    """mean_fuzziness of an array of normalized values."""
    with np.errstate(over="raise"):
        try:
            return float(np.mean(_scalar_fuzziness(values)))
        except FloatingPointError:
            peak = float(np.abs(values).max())
            raise ValueError(f"fuzziness overflows float64: |g/s| reaches {peak!r}") from None


def histogram(e, bins: int, value_range=None) -> Histogram:
    """Histogram the normalized entries g/s of an Epitome or a Bank.

    Default range is the data min/max; an explicit (lo, hi) fixes it
    (entries outside it are dropped, numpy semantics).  Values exactly
    at hi land in the last bin.
    """
    return _histogram(e.values(), bins, value_range)


def _histogram(values, bins: int, value_range) -> Histogram:
    """histogram of an array of normalized values."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if value_range is not None:
        lo, hi = value_range
        if not lo < hi:
            raise ValueError(f"empty histogram range: ({lo}, {hi})")
    counts, edges = np.histogram(values.ravel(), bins=bins, range=value_range)
    return Histogram(bin_edges=edges, counts=counts)
