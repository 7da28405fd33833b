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
t(x) = 1 - 2x turns the scalar GHD into multiplication.  The kernel
here, _bank_convolve, uses that to evaluate a whole bank contraction as
two plain convolutions, one for t and one for the counts, each a
windowed matrix product (im2col), batched over groups of output rows,
that runs in BLAS; counts held as per-axis factors are convolved as
factors instead.  banks.composite_convolve is its one caller, and
passes it a plan (_plan): the output window of a crop and every other
decision that the operands' shapes, taps and count factors fix.

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
# Cap on the entries one im2col chunk of _bank_convolve gathers (4 MiB of
# float64).  Smaller caps split large products into skinny, slow GEMMs;
# larger ones raise peak memory.
_IM2COL_ENTRIES = 2**19
# OpenBLAS runs a matrix product of at most this many multiply-adds on
# the calling thread, and splits a larger one across its threads;
# _bank_convolve makes each product as many output rows wide as fit.
_ONE_THREAD_WORK = 2**18

__all__ = [
    "CountOverflowError",
    "Epitome",
    "Histogram",
    "make_normalized",
    "normalize",
    "merged_pair",
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

    __slots__ = ("_g", "s")

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
        self._g = g
        # shared counts stay one grid; the read-only broadcast copies nothing
        self.s = s if s.shape == g.shape else np.broadcast_to(s, g.shape)

    g = property(operator.attrgetter("_g"), doc="The read-only float64 GHD sums.")

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


class _Taps(NamedTuple):
    """The kernel a stride-resized layer bank was built from (see _bank_convolve).

    w holds the layer's weights, (m, c, *K), each an entry of count 1;
    the bank's resized kernel spreads their T stride apart per axis,
    boxed for fill "replicate" and followed by stride - 1 zeros for "fuzzy".
    """

    w: np.ndarray
    stride: tuple
    fill: str


class _Factors(NamedTuple):
    """Counts weight * prod_a profiles[a][x_a]: a Python int and one 1-D profile per axis.

    Profiles are exact counts >= 1: int64 on a bank, Python ints (dtype
    object) where they would not fit.  peak, the largest count, is exact
    too.  See _grid_factors and _convolved_factors for a bank's.
    """

    weight: int
    profiles: tuple
    peak: int

    def grid(self) -> np.ndarray:
        """The counts as a new read-only int64 grid (1, 1, *extents), for a peak that fits.

        Every entry is >= 1, so no partial product passes the peak.
        """
        s = self.weight * self.profiles[0]
        for p in self.profiles[1:]:
            s = np.multiply.outer(s, p)
        s.setflags(write=False)
        return s.reshape((1, 1) + s.shape)


def _grid_factors(s):
    """_Factors of counts s (m, c, *grid) whose members share one grid w * outer(p_a), else None.

    p_a is the grid's line along axis a through its first entry over the
    line's gcd, and w that entry over prod_a p_a[0], exact if the grid
    factors (Gauss's lemma).  They are kept only if their Python-int
    peak is the grid's maximum, so that the grid they make cannot wrap,
    and that grid is s's.
    """
    grid = _distinct_counts(s, 2, compare=False)
    if grid.shape[:2] != (1, 1):
        return None
    corner = (0,) * grid.ndim
    lines = [grid[corner[:a] + (slice(None),) + corner[a + 1 :]] for a in range(2, grid.ndim)]
    profiles = tuple(x // np.gcd.reduce(x) for x in lines)
    weight = int(grid[corner]) // math.prod(int(p[0]) for p in profiles)
    factors = _Factors(weight, profiles, weight * math.prod(int(p.max()) for p in profiles))
    exact = factors.peak == int(grid.max()) and np.array_equal(factors.grid(), grid)
    return factors if exact else None


class _Layout(NamedTuple):
    """How _contract runs one windowed matrix product, fixed by shapes alone (see _layout).

    The windowed operand (k, c, *A), boxed first when its kernel is a
    replicate fill's taps (see _box), is copied into a zeroed buffer of
    shape padded, at inner, and read through one strided view (see
    _window_view) with the kernel's grid taps, spread step apart, under
    every output position of window.  Output rows are gathered chunk at
    a time, per_product of them to each matrix product of depth k * |B|,
    the gathered axes in order, and the result has shape out.
    """

    window: tuple
    taps: tuple
    step: tuple
    padded: tuple
    inner: tuple
    out: tuple
    depth: int
    per_product: int
    chunk: int
    order: tuple

    @property
    def products(self) -> int:
        """The matrix products: each of per_product output rows, the last perhaps of fewer."""
        return -(-self.out[2] // self.per_product)


def _layout(shape_a, shape_b, window, step, boxed=False) -> _Layout:
    """The _Layout of sum_k conv(a[k, j], dilate(b)[i, k]) for a (k, c, *A) and b (m, k, *B).

    b's grid is spread step apart per axis (1 everywhere for b's own
    grid); a boxed a is _box(a, step), step - 1 longer per axis.  a is
    padded far enough for any window: a window may run past the full
    convolution's A + (B - 1) * step entries per axis, and its entries
    there read only padding, and come out zero.  Output rows go to
    products of as many rows as divide the window's rows evenly within
    _ONE_THREAD_WORK multiply-adds, else (one row alone is more) of a
    whole chunk, and are gathered in chunks of at most _IM2COL_ENTRIES
    entries (or one row), whole products per chunk.
    """
    (k, c), grid_a = shape_a[:2], shape_a[2:]
    m, grid_b = shape_b[0], shape_b[2:]
    rank = len(grid_a)
    padded, inner, out_grid = [k, c], [slice(None), slice(None)], []
    for x, y, d, w in zip(grid_a, grid_b, step, window):
        if boxed:
            x += d - 1
        span = (y - 1) * d + 1
        padded.append(max(x + span - 1, w.stop) + span - 1)
        inner.append(slice(span - 1, span - 1 + x))
        out_grid.append(w.stop - w.start)
    out_grid = tuple(out_grid)
    rows, rest = out_grid[0], out_grid[1:]
    depth, width = k * math.prod(grid_b), math.prod(rest)
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
    return _Layout(
        window, grid_b, step, tuple(padded), tuple(inner), (m, c) + out_grid,
        depth, per_product, chunk, order,
    )


class _Plan(NamedTuple):
    """What one composite convolution does, fixed by its operands' shapes, taps and count factors.

    Built by _plan and run by _bank_convolve.  swap: b is windowed, with
    a's kernel; box: the widths the windowed T is boxed by (a kernel of
    replicate taps), else None; t: the T product's _Layout; kernel: b's
    flipped -T/2 matrix when b is the kernel side, else None, as a's is
    made on every call.  The output counts are factors and their grid
    when both operands hold count factors; else both are None and counts
    is the _Layout of the count contraction.  key is what
    banks.composite_convolve keeps the plan on b for (see _plan_key), or
    None for a plan it does not keep.
    """

    key: tuple | None
    swap: bool
    box: tuple | None
    t: _Layout
    kernel: np.ndarray | None
    counts: _Layout | None
    factors: _Factors | None
    grid: np.ndarray | None


def _plan_key(a, crop) -> tuple:
    """What a plan kept on b serves: a's shape and the crop, under the current chunk caps."""
    return a.s.shape, crop, _IM2COL_ENTRIES, _ONE_THREAD_WORK


def _plan(a, b, window, key) -> _Plan:
    """The _Plan of Banks a and b over a window (see _bank_convolve).

    It reads shapes, taps and count factors, and b's values for b's
    kernel matrix, never a's.  A count past the int64 maximum, from
    factors, raises CountOverflowError before anything window-sized is
    allocated.
    """
    factors = _count_factors(a, b, window)
    (k, c), grid_a = a.s.shape[:2], a.s.shape[2:]
    m, grid_b = b.s.shape[0], b.s.shape[2:]
    size_a = math.prod(grid_a if a._taps is None else a._taps.w.shape[2:])
    size_b = math.prod(grid_b if b._taps is None else b._taps.w.shape[2:])
    # window b with a's kernel instead when that gathers the smaller copy
    swap = c * size_b > m * size_a
    windowed, kernel = (b, a) if swap else (a, b)
    shape_w, box = windowed.s.shape, None
    taps = kernel._taps
    if taps is None:
        shape_k, step = kernel.s.shape, (1,) * len(window)
    else:
        shape_k, step = taps.w.shape, taps.stride
        if taps.fill == "replicate":
            box = step
    matrix = None
    if swap:
        shape_w = (shape_w[1], shape_w[0]) + shape_w[2:]
        shape_k = (shape_k[1], shape_k[0]) + shape_k[2:]
    else:
        matrix = _kernel_matrix(_half_kernel(b), np.float64)
        matrix.setflags(write=False)
    counts, grid = None, None
    if factors is None:
        counts = _layout(a.s.shape, b.s.shape, window, (1,) * len(window))
    else:
        grid = factors.grid()
    t = _layout(shape_w, shape_k, window, step, box is not None)
    return _Plan(key, swap, box, t, matrix, counts, factors, grid)


# a g past float64's range becomes inf or nan without a numpy warning, and
# the non-finite check of the Bank built from it names the failure
@np.errstate(over="ignore", invalid="ignore")
def _bank_convolve(a, b, plan):
    """Hamming convolution of Banks a and b as planned: g, s and _Factors or None.

    The kernel of banks.composite_convolve, its one caller, which builds
    plan with _plan, or keeps one from an earlier call of the same
    shapes.  a has shape (k, c, *A) and b shape (m, k, *B).  Output
    member (i, j) is the entrywise epitome sum over k of the full
    convolution of a[k, j] with b[i, k], whose spatial shape is A + B -
    1.  The plan's window, one slice per spatial axis in those
    full-output coordinates, selects the entries computed and returned,
    so g has shape (m, c, *window extents).  Its caller guarantees each
    slice is slice(start, stop) of Python ints with 0 <= start < stop <=
    the full extent of its axis: nothing here checks it.  Both parts are
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

    Each contraction is one windowed matrix product (im2col, see
    _contract, laid out by the plan's _Layout): a, zero-padded by B_i -
    1 per side, is read through one strided view under every output
    position of the window and gathered, and a matmul against the
    flipped b, an m x (k * |B|) matrix, runs it in BLAS.  a is windowed
    when c * |B| <= m * |A|, and otherwise the roles swap (convolution
    commutes; the window is the same either way).  Output rows are
    gathered in chunks of at most _IM2COL_ENTRIES entries (or one row),
    and multiplied per channel in products of as many rows as divide the
    window's rows evenly within _ONE_THREAD_WORK multiply-adds, which
    OpenBLAS runs on the calling thread; each product writes its block
    straight into the result.  A call repeats bit for bit, and products
    of a few rows do not depend on the chunk size; a chunk-wide product,
    or a narrower window, may round g differently in the last bits,
    never the counts.

    A layer bank (see banks.layer_to_bank) keeps its taps, the K-entry
    kernel of T = 1 - 2w that its stride-d kernel is resized from:
    replicate's T is box_d * dilate_d(T_w), the all-ones d-box convolved
    with the taps spread d apart, and fuzzy's is dilate_d(T_w) followed
    by d - 1 zeros (its 0.5 filler has T = 0).  So composite_convolve
    contracts conv(box_d(T_a), dilate_d(T_w)) or conv(T_a,
    dilate_d(T_w)): one product over the |K| taps, read in steps of d,
    with |K| in place of the grid in the role swap; a window past the end
    of fuzzy's conv(T_a, dilate_d(T_w)) reads _contract's zero padding.
    The resized kernel is read only on the windowed side.  Boxing adds d
    shifted copies, so g may differ from the dense product in the last
    bit; counts never do.

    When both operands hold per-axis count factors (see _Factors and
    Bank), the plan holds the convolution of their 1-D factors and the
    grid they make, and no count is contracted.  Otherwise the member
    count arrays are contracted as given, before any role swap: in int64
    when no partial sum can reach 2**63, else in Python ints.  s is a
    read-only int64 array, (m, c, *window) or, for counts every member
    shares, the one grid (1, 1, *window), which from factors is the
    plan's own.  A count past the int64 maximum raises
    CountOverflowError, which the CLI reports with exit code 2; from
    factors, _plan names it before anything window-sized is allocated.

    g = s / 2 - T / 2 has an absolute error of about eps * s (eps =
    2**-52, s the entry's count), whatever the size of g, so g keeps its
    relative precision only while |g| / s is not much below 1; at counts
    near 2**30 and g / s near 5e-10 its relative error was 7.7e-8.  Data
    in [0, 1] stays far inside the 1e-9 gate.
    """
    g = _half_t(a, b, plan)
    if plan.factors is None:
        s = _counts(a.s, b.s, plan.counts)
        grid = _distinct_counts(s, 2)
        # counts every member shares are stored once, copied out of s so it is freed
        s = s if grid is s else _int64_counts(grid)
    else:
        s = plan.grid
    g += 0.5 * s
    return g, s, plan.factors


def _half_t(a, b, plan):
    """-T_out / 2 over the plan's window, a new float64 array (see _bank_convolve)."""
    if plan.swap:
        ta = b.s.swapaxes(0, 1) - 2.0 * b.g.swapaxes(0, 1)
        kb = _kernel_matrix(_half_kernel(a).swapaxes(0, 1), np.float64)
    else:
        ta, kb = a.s - 2.0 * a.g, plan.kernel
    if plan.box is not None:
        ta = _box(ta, plan.box)
    t = _contract(ta, kb, plan.t)
    return t.swapaxes(0, 1) if plan.swap else t


def _half_kernel(x):
    """-T / 2 of kernel-side Bank x: of its taps if it has them, else of its grid.

    The kernel side carries the -1/2 (exactly: g - s/2 = -T/2), so the
    product is -T/2, already in the array that is returned as g.
    """
    if x._taps is None:
        return x.g - 0.5 * x.s
    return x._taps.w - 0.5


def _kernel_matrix(b, dtype):
    """b (m, k, *B) flipped on its grid, as a contiguous m x (k * |B|) matrix of dtype.

    matmul would run a strided (flipped) operand in numpy's own loop
    instead of BLAS.
    """
    flip = (slice(None), slice(None)) + (slice(None, None, -1),) * (b.ndim - 2)
    return np.ascontiguousarray(b[flip], dtype=dtype).reshape(b.shape[0], -1)


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


def _count_factors(a, b, window):
    """The output counts as int64 _Factors, or None; CountOverflowError past int64."""
    if a._factors is None or b._factors is None:
        return None
    factors = _convolved_factors(a._factors, b._factors, a.s.shape[0], window)
    if factors.peak > _INT64_MAX:
        raise _count_overflow(factors.peak)
    return factors._replace(profiles=tuple(np.asarray(p, np.int64) for p in factors.profiles))


def _convolved_factors(fa, fb, k, window):
    """Exact _Factors of sum_k conv(s_a, s_b): weight k * w_a * w_b, profiles p_a * p_b.

    Each full 1-D convolution, sliced by the window, is taken in int64
    when no entry can reach 2**63, else in Python ints.
    """
    # no profile entry passes its peak over its weight, and an entry of a
    # convolution sums at most the shorter profile's length of products
    bound = (fa.peak // fa.weight) * (fb.peak // fb.weight)
    profiles = []
    for axis, (p, q) in enumerate(zip(fa.profiles, fb.profiles)):
        if bound * min(len(p), len(q)) > _INT64_MAX:
            p, q = p.astype(object), q.astype(object)
        full = np.convolve(p, q)
        profiles.append(full[window[axis]])
    weight = k * fa.weight * fb.weight
    return _Factors(weight, tuple(profiles), weight * math.prod(int(p.max()) for p in profiles))


def _counts(sa, sb, layout):
    """sum_k conv(sa[k, j], sb[i, k]) as laid out: exact, read-only int64 counts.

    Contracted in the narrowest exact type (see _bank_convolve).
    """
    # an output entry sums at most k * prod(min(A_i, B_i)) terms, each at
    # most max(s_a) * max(s_b), so no partial sum passes the bound
    terms = sa.shape[0] * math.prod(min(x, y) for x, y in zip(sa.shape[2:], sb.shape[2:]))
    bound = int(sa.max()) * int(sb.max()) * terms
    count_type = np.int64 if bound < 2**63 else object
    return _int64_counts(_contract(sa, _kernel_matrix(sb, count_type), layout))


def _contract(a, kb, layout):
    """sum_k conv(a[k, j], dilate(b)[i, k]) as laid out, (m, c, *window) of kb's dtype.

    The windowed matrix product of _bank_convolve for one pair of
    operands: a (k, c, *A), and b (m, k, *B) as its flipped matrix kb
    (see _kernel_matrix).  Every decision that shapes fix, from the
    padding to the rows of each product, is the plan's _Layout (see
    _layout); this only runs it.  a is zero-padded once and read through
    one strided view (see _window_view).  Each chunk of output rows is
    gathered from it as (products, c, k * |B|, rows * |rest|) and
    multiplied into its own rows of the returned array, so every entry
    is written once; the gathered copy is freed before the next chunk's.
    """
    k, c = layout.padded[:2]
    m, depth, per_product, order = kb.shape[0], layout.depth, layout.per_product, layout.order
    pa = np.zeros(layout.padded, dtype=kb.dtype)
    pa[layout.inner] = a

    def products(windows, target):
        # the gathered copy is freed on return, before the next chunk's is gathered
        n = windows.shape[2]
        count = n // min(per_product, n)
        split = windows.reshape((k, c, count, n // count) + windows.shape[3:])
        gathered = split.transpose(order).reshape(count, c, depth, -1)
        # target (m, c, n, *rest) as (products, c, m, rows * |rest|): a view
        # whose every matrix has a unit inner stride, so BLAS writes it in place
        np.matmul(kb, gathered, out=target.reshape(m, c, count, -1).transpose(2, 1, 0, 3))

    out = np.empty(layout.out, dtype=kb.dtype)
    windows = _window_view(pa, layout.window, layout.taps, layout.step)
    rows, chunk = layout.out[2], layout.chunk
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
    compared, unless compare is False, as for counts already stored.
    """
    grid = s[(slice(0, 1),) * member_axes]
    steps = zip(s.shape[:member_axes], s.strides[:member_axes])
    if all(n == 1 or step == 0 for n, step in steps) or (compare and np.all(s == grid)):
        return grid
    return s


def _int64_counts(s):
    """Exact counts (signed, unsigned or Python ints) as a new read-only int64 array.

    A count past the int64 maximum raises CountOverflowError.
    """
    if s.dtype.kind in "uO" and s.max() > _INT64_MAX:
        raise _count_overflow(s.max())
    s = s.astype(np.int64)
    s.setflags(write=False)
    return s


def _count_overflow(count) -> CountOverflowError:
    return CountOverflowError(f"summand count {count} exceeds the int64 maximum {_INT64_MAX}")


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
