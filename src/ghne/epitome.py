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
product (im2col), batched over output rows, that runs in BLAS.

Counts are stored as int64, never floats, so they stay exact (a count
that would not fit raises CountOverflowError); g values are float64.
Epitomes are immutable after construction and every operation returns
a new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ghd import fuzziness as _scalar_fuzziness
from .ghd import ghd

_INT64_MAX = 2**63 - 1
# Cap on the entries one im2col chunk of bank_convolve gathers (4 MiB of
# float64).  Smaller caps split large products into skinny, slow GEMMs;
# larger ones raise peak memory.
_IM2COL_ENTRIES = 2**19
# OpenBLAS runs a matrix product of at most this many multiply-adds on
# the calling thread, and splits a larger one across its threads.
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
    messages, _MIN_RANK, and _RANK_ERROR, the message for a lower rank
    (formatted with the rank found).
    """

    __slots__ = ("g", "s")

    def __init__(self, g, s):
        g = np.array(g, dtype=np.float64)
        s = np.asarray(s)
        if not (np.issubdtype(s.dtype, np.integer) or np.issubdtype(s.dtype, np.bool_)):
            # reject silent float counts; exact integer arithmetic is load-bearing
            raise TypeError(f"counts must be integers, got dtype {s.dtype}")
        if g.ndim < self._MIN_RANK:
            raise ValueError(self._RANK_ERROR.format(g.ndim))
        if g.shape != s.shape:
            raise ValueError(f"g shape {g.shape} != s shape {s.shape}")
        if g.size == 0:
            raise ValueError(f"{self._NAME} must have at least one entry per axis")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite g value in {self._NAME}")
        # one copy, which the frozen arrays below depend on
        s = _int64_counts(s)
        if np.any(s < 1):
            raise ValueError("every summand count must be >= 1")
        g.setflags(write=False)
        s.setflags(write=False)
        self.g = g
        self.s = s

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
    _MIN_RANK = 1
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
    sn = int(sn)
    sm = int(sm)
    if sn < 1 or sm < 1:
        raise ValueError(f"counts must be >= 1, got ({sn}, {sm})")
    return float(ghd(gn, gm) + (sm - 1) * gn + (sn - 1) * gm), sn * sm


def bank_convolve(ga, sa, gb, sb):
    """Full hamming convolution of two banks given as arrays.

    a = (ga, sa) has shape (k, c, *A) and b = (gb, sb) shape (m, k, *B),
    with float64 g and int64 s, as held by Bank and Epitome.
    Output member (i, j) is the entrywise epitome sum over k of the full
    convolution of a[k, j] with b[i, k], so the result (g, s) has shape
    (m, c, *(A + B - 1)).  Both parts are the same contraction: with
    T = s - 2g,

        T_out = sum_k conv(T_a[k, j], T_b[i, k])
        s_out = sum_k conv(s_a[k, j], s_b[i, k])    (exact)
        g_out = (s_out - T_out) / 2

    Each contraction is one windowed matrix product (im2col): a is
    zero-padded by B_i - 1 on both ends of each axis, the |B| padded
    entries under every output position are gathered next to it, and
    a matmul against the spatially flipped b, an m x (k * |B|) matrix,
    turns the whole convolution into BLAS products.  The gathered copy
    holds k * c * |B| entries per output position, so a is windowed when
    c * |B| <= m * |A|, and otherwise the roles swap (convolution
    commutes).  The output is produced in chunks of whole rows of its
    first spatial axis, each gathering at most _IM2COL_ENTRIES entries
    (or one row, if a row alone holds more), which bounds the memory of
    a large apply.

    The matmul is batched: while a row's product is small, every output
    row is its own (k * |B|) x (c * |rest|) matrix product of at most
    _ONE_THREAD_WORK multiply-adds, which OpenBLAS runs on the calling
    thread.  The benchmark's fold and apply products (1e5 to 2e5
    multiply-adds) are of this kind.  As one threaded product per chunk,
    the second BLAS thread spun a whole CPU between calls: on 2 CPUs,
    collapse of a 1-16-32-32 stack ran about 20% slower, and its rate
    spread 4 times wider from run to run.  A larger row, as in collapse
    of a 1-32-64 stack of 5x5 kernels, gets one product per chunk, which
    the threads speed up.  A call repeats bit for bit.  Per-row products
    do not depend on the chunk size; a chunk-wide product may round g
    differently in the last bits for a different chunk size, never the
    counts.

    Counts are contracted in float64 when no partial sum can reach 2**53
    (every one is then an exactly represented integer, in any summation
    order), else in int64 when none can reach 2**63, else in Python
    ints; the result is the same int64 array every way.  A count past
    the int64 maximum raises CountOverflowError, which the CLI reports
    with exit code 2.

    g = (s - T) / 2 has an absolute error of about eps * s, so g keeps
    its relative precision only while |g| / s is not much below 1:
    counts near 2**30 with g/s near 5e-10 were measured 7.7e-8 off the
    additive reference.  Data in [0, 1] stays far inside the 1e-9 gate.
    """
    (k, c), grid_a = ga.shape[:2], ga.shape[2:]
    m, grid_b = gb.shape[0], gb.shape[2:]
    if c * math.prod(grid_b) > m * math.prod(grid_a):
        # window b with a's grid instead, the smaller gathered copy
        g, s = bank_convolve(*(x.swapaxes(0, 1) for x in (gb, sb, ga, sa)))
        return g.swapaxes(0, 1), s.swapaxes(0, 1)
    rank = len(grid_a)
    out_grid = tuple(x + y - 1 for x, y in zip(grid_a, grid_b))
    # an output entry sums at most k * prod(min(A_i, B_i)) terms, each at
    # most max(s_a) * max(s_b)
    terms = k * math.prod(min(x, y) for x, y in zip(grid_a, grid_b))
    bound = int(sa.max()) * int(sb.max()) * terms
    count_type = np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object
    # pad a by slice assignment into zeroed buffers; np.pad made collapse of
    # a 1-16-32-32 stack about 20% slower
    padded = (k, c) + tuple(x + 2 * (y - 1) for x, y in zip(grid_a, grid_b))
    inner = (slice(None), slice(None)) + tuple(
        slice(y - 1, y - 1 + x) for x, y in zip(grid_a, grid_b)
    )
    ta = np.zeros(padded)
    ta[inner] = sa - 2.0 * ga
    pa = np.zeros(padded, dtype=count_type)
    pa[inner] = sa
    flip = (slice(None), slice(None)) + (slice(None, None, -1),) * rank
    # b as a contiguous m x (k * |B|) matrix: matmul would run a strided
    # (flipped) operand in numpy's own loop instead of BLAS
    tb = np.ascontiguousarray((sb - 2.0 * gb)[flip]).reshape(m, -1)
    pb = np.ascontiguousarray(sb.astype(count_type)[flip]).reshape(m, -1)
    spatial = tuple(range(2, 2 + rank))
    rest = out_grid[1:]
    depth, row_width = k * math.prod(grid_b), c * math.prod(rest)
    step = max(1, _IM2COL_ENTRIES // (depth * row_width))
    # rows per matrix product: one while a row's product stays on the
    # calling thread, else the whole chunk
    per_product = 1 if m * depth * row_width <= _ONE_THREAD_WORK else step
    # window axes (k, c, products, rows per product, *rest, *B) as
    # (products, k, *B, c, rows per product, *rest)
    order = (2, 0, *range(3 + rank, 3 + 2 * rank), 1, 3, *range(4, 3 + rank))

    def products(other, windows):
        # (m, c, rows, *rest); all else is freed on return.  Keeping a
        # product alive while the next copy was gathered raised the peak
        # memory of a 64x64 apply by 3 MiB.
        n = windows.shape[2]
        per = min(per_product, n)
        split = windows.reshape((k, c, n // per, per) + windows.shape[3:])
        gathered = split.transpose(order).reshape(n // per, depth, -1)
        product = np.matmul(other, gathered).reshape((n // per, m, c, per) + rest)
        return np.moveaxis(product, 0, 2).reshape((m, c, n) + rest)

    t = np.empty((m, c) + out_grid)
    s = np.empty((m, c) + out_grid, dtype=count_type)
    windows_t = np.lib.stride_tricks.sliding_window_view(ta, grid_b, axis=spatial)
    windows_s = np.lib.stride_tricks.sliding_window_view(pa, grid_b, axis=spatial)
    for r in range(0, out_grid[0], step):
        rows = (slice(None), slice(None), slice(r, r + step))
        t[rows] = products(tb, windows_t[rows])
        s[rows] = products(pb, windows_s[rows])
    s = _int64_counts(s)
    return 0.5 * (s - t), s


def _int64_counts(s):
    """Exact counts (float64, signed, unsigned or Python ints) as a new int64 array.

    A count past the int64 maximum raises CountOverflowError.
    """
    if s.dtype.kind in "uO" and s.max() > _INT64_MAX:
        raise CountOverflowError(
            f"summand count {s.max()} exceeds the int64 maximum {_INT64_MAX}"
        )
    return s.astype(np.int64)


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
    return Epitome(a.g + b.g, a.s.astype(np.uint64) + b.s.astype(np.uint64))


def mean_fuzziness(e) -> float:
    """Arithmetic mean over entries of fuzziness(g/s), of an Epitome or a Bank.

    A fuzziness or mean past float64's range, as for |g/s| above about
    1e154, raises ValueError.
    """
    with np.errstate(over="raise"):
        try:
            return float(np.mean(_scalar_fuzziness(e.values())))
        except FloatingPointError:
            peak = float(np.abs(e.values()).max())
            raise ValueError(f"fuzziness overflows float64: |g/s| reaches {peak!r}") from None


def histogram(e: Epitome, bins: int, value_range=None) -> Histogram:
    """Histogram the normalized entries g/s.

    Default range is the data min/max; an explicit (lo, hi) fixes it
    (entries outside it are dropped, numpy semantics).  Values exactly
    at hi land in the last bin.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if value_range is not None:
        lo, hi = value_range
        if not lo < hi:
            raise ValueError(f"empty histogram range: ({lo}, {hi})")
    counts, edges = np.histogram(e.values().ravel(), bins=bins, range=value_range)
    return Histogram(bin_edges=edges, counts=counts)
