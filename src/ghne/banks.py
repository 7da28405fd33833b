"""Banks of epitomes, layer collapse, and one-step application.

A bank is an m-by-c array of equally shaped epitomes: m "filters", c
channels.  Convolution layers and inputs are both banks (an image is a
bank with one epitome per color plane and c = 1).  Composite
convolution contracts a bank's m filters against the next bank's c
channels, which is exactly what stacking two convolution layers does;
because the underlying epitome algebra is associative, a whole stack of
layers folds into one bank, the *deep epitome*, and applying it to an
input in a single composite convolution reproduces the layer-by-layer
result entry for entry.

Strided layers enter the algebra through kernel resizing: a stride-s
kernel is replaced by an s-times-larger stride-1 kernel, so a 5x5
stride-2 kernel becomes 10x10 and all the stride-1 shape arithmetic
(extent_out = extent_a + extent_b - 1) applies unchanged.  The resized
kernel is never contracted entry by entry.  In T = 1 - 2g it factors
into the weights' T dilated by s (spread s apart, zeros between),
convolved with an all-ones s-box for the "replicate" fill and followed
by s - 1 zeros for "fuzzy"; a layer bank keeps its weights as taps, and
a fold step contracts just those |K| taps (see epitome._bank_convolve),
without building the resized kernel.

composite_convolve is the one way into that kernel: convolve, the
epitome convolution, is its case of one filter, one channel and one
contracted member.  Its crop mode ("full", "same" or "valid") picks the
output window the kernel computes, and apply is that call on a
normalized input.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .epitome import (
    Epitome,
    Histogram,
    _INT64_MAX,
    _bank_convolve,
    _Factors,
    _grid_factors,
    _histogram,
    _mean_fuzziness,
    _PairGrid,
    _Taps,
    histogram,
    mean_fuzziness,
)

__all__ = [
    "Bank",
    "LayerSpec",
    "Model",
    "DeepEpitome",
    "MemberStats",
    "StatsReport",
    "layer_to_bank",
    "composite_convolve",
    "convolve",
    "effective_shape",
    "effective_counts",
    "collapse",
    "apply",
    "crop_bank",
    "bank_stats",
]

_STRIDE_FILLS = ("replicate", "fuzzy")
_CROP_MODES = ("full", "same", "valid")
_LAYER_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Bank(_PairGrid):
    """An m-by-c grid of equally shaped epitomes, stored as stacked arrays.

    g and s have shape (m, c, *spatial); member (i, j) is the epitome
    g[i, j], s[i, j].  Immutable after construction.

    Counts that every member shares, as those of normalized layers and
    inputs and of every convolution of them do, are stored once: s is
    then one read-only int64 grid broadcast to (m, c, *spatial), found
    by _PairGrid's rule from a broadcast's strides, else by comparing
    dense counts once.  When that grid is w * outer(p_a), the bank holds
    those exact factors too (epitome._Factors), whatever made it, and
    composite_convolve convolves the factors of two such banks instead
    of contracting counts; its result keeps the kernel's factors, or
    finds them in the counts it contracted.

    A bank from layer_to_bank also keeps the taps its resized kernel is
    made of, which composite_convolve passes to the kernel, and builds
    that kernel, g, only when g is first read.  No other bank has taps,
    so a copy, crop or saved file holds just g, s and s's factors.
    """

    __slots__ = ("_taps", "_factors")
    _NAME = "bank"
    _MEMBER_AXES = 2
    _RANK_ERROR = "bank arrays must be (m, c, *spatial) with rank >= 3, got rank {}"

    def __init__(self, g, s):
        super().__init__(g, s)
        self._taps, self._factors = None, _grid_factors(self.s)

    @property
    def g(self) -> np.ndarray:
        """The read-only float64 GHD sums; a layer bank's resized kernel is built here."""
        if self._g is None:
            self._g = _resized_kernel(self._taps)
        return self._g

    @classmethod
    def _of_layer(cls, layer, fill):
        """The bank of a layer: counts of 1, held as factors too, and its taps.

        LayerSpec has checked the weights, so they are neither checked
        nor copied again.
        """
        bank = cls.__new__(cls)
        extents = layer.resized_extents()
        ones = np.ones((1, 1) + extents, dtype=np.int64)
        ones.setflags(write=False)
        bank._g, bank.s = None, _shared(ones, layer.weights.shape[:2] + extents)
        bank._taps, bank._factors = _Taps(layer.weights, layer.stride, fill), _ones_factors(extents)
        return bank

    @classmethod
    def _of_convolution(cls, g, s, factors):
        """The bank of a kernel result: g as it is, s the kernel's read-only int64 counts.

        The kernel has made g for this bank alone and counted s exactly,
        each count >= 1 over a window inside the full output, so neither
        is copied or checked again; only a g past float64's range is
        named.  factors are the kernel's; when it contracted s instead
        (None), the bank holds those of s's one grid, if it factors, by
        the rule of Bank's own constructor.
        """
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite g value in {cls._NAME}")
        g.setflags(write=False)
        bank = cls.__new__(cls)
        bank._g, bank._taps = g, None
        bank._factors = _grid_factors(s) if factors is None else factors
        bank.s = s if s.shape == g.shape else _shared(s, g.shape)
        return bank

    @property
    def is_normalized(self) -> bool:
        # every count is >= 1, so all are 1 exactly when the largest is
        if self._factors is not None:
            return self._factors.peak == 1
        return super().is_normalized

    # shapes are read from s, which a layer bank holds before its g

    @property
    def m(self) -> int:
        return self.s.shape[0]

    @property
    def c(self) -> int:
        return self.s.shape[1]

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.s.shape[2:]

    @property
    def rank(self) -> int:
        return self.s.ndim - 2

    def member(self, i: int, j: int) -> Epitome:
        return Epitome(self.g[i, j], self.s[i, j])

    def __repr__(self):
        return f"Bank(m={self.m}, c={self.c}, spatial={self.spatial_shape})"


class LayerSpec:
    """One GHN convolution layer: dense weights plus a per-axis stride.

    Weights are indexed [filter][channel][spatial...]; stride applies to
    the spatial axes only.  The name uses only letters, digits, '_', '.'
    and '-', so a model file can hold it.
    """

    __slots__ = ("name", "weights", "stride")

    def __init__(self, name, weights, stride=1):
        if not isinstance(name, str) or not _LAYER_NAME.fullmatch(name):
            raise ValueError(f"layer name {name!r}: use only letters, digits, '_', '.', '-'")
        weights = np.array(weights, dtype=np.float64)
        if weights.ndim < 3:
            raise ValueError(
                f"layer '{name}': weights must be [filter][channel][spatial...], got rank {weights.ndim}"
            )
        if weights.size == 0:
            raise ValueError(f"layer '{name}': empty weight grid")
        if not np.all(np.isfinite(weights)):
            raise ValueError(f"layer '{name}': non-finite weight")
        try:
            stride = _stride_tuple(stride, weights.ndim - 2)
        except ValueError as e:
            raise ValueError(f"layer '{name}': {e}") from None
        weights.setflags(write=False)
        self.name = name
        self.weights = weights
        self.stride = stride

    @property
    def out_filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_shape(self) -> tuple[int, ...]:
        return self.weights.shape[2:]

    @property
    def rank(self) -> int:
        return self.weights.ndim - 2

    def resized_extents(self) -> tuple[int, ...]:
        """Kernel extents after stride resizing (extent * stride per axis)."""
        return tuple(k * v for k, v in zip(self.kernel_shape, self.stride))

    def __repr__(self):
        return (
            f"LayerSpec({self.name!r}, filters={self.out_filters}, "
            f"channels={self.in_channels}, kernel={self.kernel_shape}, stride={self.stride})"
        )


class Model:
    """An ordered chain of uniquely named layers with matching filter/channel counts."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise ValueError("model needs at least one layer")
        names = set()
        for layer in layers:
            if layer.name in names:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            names.add(layer.name)
        rank = layers[0].rank
        for prev, cur in zip(layers, layers[1:]):
            if cur.rank != rank:
                raise ValueError(
                    f"layer '{cur.name}' has spatial rank {cur.rank}, "
                    f"but '{layers[0].name}' has rank {rank}"
                )
            if cur.in_channels != prev.out_filters:
                raise ValueError(
                    f"layer chain broken between '{prev.name}' and '{cur.name}': "
                    f"'{prev.name}' outputs {prev.out_filters} filters but "
                    f"'{cur.name}' expects {cur.in_channels} channels"
                )
        self.layers = layers

    def __len__(self):
        return len(self.layers)

    def __repr__(self):
        return f"Model([{', '.join(l.name for l in self.layers)}])"


@dataclass(frozen=True)
class DeepEpitome:
    """A collapsed bank tagged with the 1-based layer range it replaces.

    bank.c equals the first collapsed layer's input channels, bank.m the
    last layer's output filters, and the spatial shape obeys the closed
    form first_extent + sum(extent_i - 1) over stride-resized extents.
    When effective_counts (see the function of that name) is given, the
    bank's count factors must equal it; no count grid is compared.
    """

    bank: Bank
    collapsed_layers: tuple[int, int]
    effective_shape: tuple[int, ...]
    effective_counts: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        first, last = self.collapsed_layers
        if not 1 <= first <= last:
            raise ValueError(f"bad layer range {self.collapsed_layers}")
        if self.bank.spatial_shape != tuple(self.effective_shape):
            raise ValueError(
                f"collapsed bank shape {self.bank.spatial_shape} does not match "
                f"the closed-form effective shape {tuple(self.effective_shape)}"
            )
        if self.effective_counts is not None:
            held, (weight, profiles, _) = self.bank._factors, self.effective_counts
            same = held is not None and held.weight == weight
            if not (same and [p.tolist() for p in held.profiles] == [p.tolist() for p in profiles]):
                raise ValueError(
                    "collapsed bank counts do not match the closed-form effective counts"
                )


def _stride_tuple(stride, rank: int) -> tuple[int, ...]:
    """A per-axis stride from an integer or a sequence of them, each >= 1."""
    if isinstance(stride, (int, np.integer)):
        stride = (stride,) * rank
    stride = _integers(stride, "stride")
    if len(stride) != rank:
        raise ValueError(f"stride has {len(stride)} entries for {rank} spatial axes")
    if any(v < 1 for v in stride):
        raise ValueError(f"stride must be >= 1 on every axis, got {stride}")
    return stride


def _integers(values, what: str) -> tuple[int, ...]:
    """values as ints; a value not a Python or numpy integer raises ValueError."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def layer_to_bank(layer: LayerSpec, fill: str = "replicate") -> Bank:
    """View a layer as a bank of normalized epitomes of its resized kernels.

    Each stride-s kernel becomes its stride-1 equivalent, s times larger:
    fill="replicate" repeats each weight into an s-sized block per axis;
    fill="fuzzy" instead places each weight at its block's start and
    pads the rest with the GHD-absorbing value 0.5.  Stride 1 keeps the
    weights either way.  In T = 1 - 2g, the replicate kernel is an
    all-ones s-box convolved with the weights' T spread s apart, and the
    fuzzy one is that spread followed by s - 1 zeros; the bank keeps
    those taps, so that composite_convolve contracts |K| taps instead
    of the s**rank times larger resized grid.  The resized grid, the
    bank's g, is built when g is first read.
    """
    if fill not in _STRIDE_FILLS:
        raise ValueError(f"unknown stride fill {fill!r}, expected one of {_STRIDE_FILLS}")
    return Bank._of_layer(layer, fill)


def _resized_kernel(taps: _Taps) -> np.ndarray:
    """The read-only resized kernel of a layer bank's taps (see layer_to_bank)."""
    g = taps.w
    if all(v == 1 for v in taps.stride):
        return g
    if taps.fill == "replicate":
        for axis, v in enumerate(taps.stride, 2):
            if v > 1:
                g = np.repeat(g, v, axis=axis)
    else:
        g = np.full(g.shape[:2] + tuple(k * v for k, v in zip(g.shape[2:], taps.stride)), 0.5)
        g[(Ellipsis,) + tuple(slice(None, None, v) for v in taps.stride)] = taps.w
    g.setflags(write=False)
    return g


def _shared(grid, shape):
    """A read-only contiguous count grid (1, 1, *spatial) viewed over every member of shape.

    The view np.broadcast_to gives, at a third of its cost.
    """
    return np.ndarray(shape, grid.dtype, grid, 0, (0, 0) + grid.strides[2:])


def _ones_factors(extents) -> _Factors:
    """The count factors of an all-ones grid of these extents."""
    ones = np.ones(max(extents), dtype=np.int64)
    ones.setflags(write=False)
    return _Factors(1, tuple(ones[:n] for n in extents), 1)


def composite_convolve(a: Bank, b: Bank, crop: str = "full") -> Bank:
    """Bank-level convolution contracting a's filters against b's channels.

    Requires a.m == b.c.  Output member (i, j) for filter i of b and
    channel j of a is the entrywise epitome sum over k = 0..a.m-1 of
    convolve(a[k, j], b[i, k]), so the result has m = b.m, c = a.c, and
    the full-convolution spatial shape A + B - 1, all from one call of
    the kernel, epitome._bank_convolve.
    crop is relative to a, as in a convolution's usual modes: "full"
    keeps every entry, "same" center-crops to a's spatial shape, and
    "valid" keeps the A - B + 1 entries where b lies wholly inside a.
    An odd margin drops its extra entry from the high-index side, as
    crop_bank does, and only the entries kept are computed.  Unequal
    ranks, a.m != b.c, an unknown mode and an empty "valid" crop raise
    ValueError before anything is computed.  A layer bank's taps go to
    the kernel along with it, on either side, and when both operands
    hold count factors (see Bank), so does the result; else it holds
    those of the counts contracted, if they factor.
    The result holds the kernel's arrays themselves, read-only.
    """
    if a.rank != b.rank:
        raise ValueError(f"spatial rank mismatch: {a.rank} vs {b.rank}")
    if a.m != b.c:
        raise ValueError(
            f"bank mismatch: left bank has m={a.m} epitomes but "
            f"right bank expects c={b.c} channels"
        )
    pairs = list(zip(a.spatial_shape, b.spatial_shape))
    full = tuple(x + y - 1 for x, y in pairs)
    target = tuple(x - y + 1 for x, y in pairs) if crop == "valid" else a.spatial_shape
    window = _crop_window(full, target, crop) or tuple(slice(0, n) for n in full)
    return Bank._of_convolution(*_bank_convolve(a, b, window))


def convolve(a: Epitome, b: Epitome) -> Epitome:
    """Full hamming convolution of two epitomes.

    Output extent per axis is Na + Nb - 1.  Entry c sums merged_pair
    over the anti-diagonal set S(c) = {(n, m) | n + m = c} (0-based per
    axis), and counts are summed likewise.  This is composite_convolve
    of the two as 1 x 1 banks, whose checks and errors it shares.
    """
    one = (np.newaxis, np.newaxis)
    return composite_convolve(Bank(a.g[one], a.s[one]), Bank(b.g[one], b.s[one])).member(0, 0)


def effective_shape(layers) -> tuple[int, ...]:
    """Closed-form collapsed extent: first + sum(extent_i - 1), resized."""
    layers = list(layers)
    if not layers:
        raise ValueError("no layers")
    extents = [l.resized_extents() for l in layers]
    out = list(extents[0])
    for ext in extents[1:]:
        for axis, e in enumerate(ext):
            out[axis] += e - 1
    return tuple(out)


def effective_counts(layers) -> _Factors:
    """Closed-form collapsed counts, exact: (weight, profiles, peak).

    Every count of the collapsed bank is weight * prod_a profiles[a][x_a]:
    weight is the product of the contracted widths (each later layer's
    input channels), and profiles[a] the full convolution of all-ones
    boxes of the resized extents along axis a.  peak is the largest
    count.  Only 1-D arrays are built, so a count past int64 shows here
    before any fold.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("no layers")
    # from the boxes themselves, not the kernel's factor convolution, so
    # that collapse's cross-check is independent of it
    axes = list(zip(*(layer.resized_extents() for layer in layers)))
    profiles = {}
    for boxes in axes:
        if boxes not in profiles:
            # no entry passes the product of the box widths
            p = np.ones(boxes[0], np.int64 if math.prod(boxes) <= _INT64_MAX else object)
            for n in boxes[1:]:
                p = np.convolve(p, np.ones(n, p.dtype))
            profiles[boxes] = p
    weight = math.prod(layer.in_channels for layer in layers[1:])
    peak = weight * math.prod(int(profiles[boxes].max()) for boxes in axes)
    return _Factors(weight, tuple(profiles[boxes] for boxes in axes), peak)


def collapse(
    model: Model,
    upto_layer: int | None = None,
    first_layer: int = 1,
    fill: str = "replicate",
) -> DeepEpitome:
    """Fold layers first_layer..upto_layer (1-based) into one deep epitome.

    Left fold of composite_convolve over the per-layer banks; the fold
    order is immaterial by associativity, which the tests confirm rather
    than assume.  Layer banks are contracted through their taps, so a
    strided layer's resized kernel is built only if a role swap windows
    it.  The result's spatial shape and count factors are cross-checked
    against the closed forms at construction.
    """
    n = len(model.layers)
    if upto_layer is None:
        upto_layer = n
    if not 1 <= first_layer <= upto_layer <= n:
        raise ValueError(
            f"layer range {first_layer}..{upto_layer} out of bounds for a {n}-layer model"
        )
    selected = model.layers[first_layer - 1 : upto_layer]
    bank = layer_to_bank(selected[0], fill)
    for layer in selected[1:]:
        bank = composite_convolve(bank, layer_to_bank(layer, fill))
    return DeepEpitome(
        bank, (first_layer, upto_layer), effective_shape(selected), effective_counts(selected)
    )


def apply(input_bank: Bank, deep, crop: str = "full") -> Bank:
    """One-step feature extraction: convolve the input with the deep epitome.

    deep may be a DeepEpitome or a bare Bank (e.g. one loaded from
    disk).  The input must be normalized, i.e. raw data that has not
    been through any convolution yet; apply is then
    composite_convolve(input_bank, deep_bank, crop), with its checks,
    crop modes and errors.  The full result has m = deep.bank.m and
    c = input.c.
    """
    deep_bank = deep.bank if isinstance(deep, DeepEpitome) else deep
    if not input_bank.is_normalized:
        raise ValueError("input bank must be normalized (every count 1)")
    out = composite_convolve(input_bank, deep_bank, crop)
    # the identity, as the kernel computed only the crop; perfbench's
    # extract trace reads its span
    return crop_bank(out, out.spatial_shape, crop)


def crop_bank(bank: Bank, target, mode: str = "same") -> Bank:
    """Center-crop every member to the target spatial shape.

    Mode "full" is the identity, and so is a target equal to the bank's
    shape: both return the bank itself.  When a margin is odd, the extra
    entry is dropped from the high-index side.
    """
    window = _crop_window(bank.spatial_shape, target, mode)
    if window is None:
        return bank
    index = (slice(None), slice(None)) + window
    return Bank(bank.g[index], bank.s[index])


def _crop_window(source, target, mode):
    """The slices of a center crop of spatial shape source to target, or None.

    None means nothing is cropped away: mode "full", or a target equal
    to source.  When a margin is odd, the extra entry is dropped from
    the high-index side.  An unknown mode, a target of another rank, an
    empty target (as a "valid" crop of an input smaller than the deep
    epitome asks for) and one larger than source raise ValueError.
    """
    if mode not in _CROP_MODES:
        raise ValueError(f"unknown crop mode {mode!r}, expected one of {_CROP_MODES}")
    if mode == "full":
        return None
    target = _integers(target, "crop target")
    if len(target) != len(source):
        raise ValueError(f"target rank {len(target)} != bank spatial rank {len(source)}")
    if any(t < 1 for t in target):
        raise ValueError(f"{mode} crop is empty: target {target} from source shape {tuple(source)}")
    if any(t > n for n, t in zip(source, target)):
        raise ValueError(f"crop target {target} exceeds source shape {tuple(source)}")
    if target == tuple(source):
        return None
    return tuple(slice((n - t) // 2, (n - t) // 2 + t) for n, t in zip(source, target))


@dataclass(frozen=True, eq=False)
class MemberStats:
    """Histogram and mean fuzziness for one bank member.

    filter_index/channel_index are 0-based; None marks the aggregate
    over the whole bank.
    """

    filter_index: int | None
    channel_index: int | None
    histogram: Histogram
    fuzziness: float


@dataclass(frozen=True, eq=False)
class StatsReport:
    """Per-member and aggregate distribution stats of a normalized bank."""

    bins: int
    members: tuple[MemberStats, ...]
    aggregate: MemberStats


def bank_stats(bank: Bank, bins: int, value_range=None) -> StatsReport:
    """Histogram the normalized entries of every member plus the pooled bank.

    When no range is given, all histograms share the bank-global min/max
    so bin edges line up across members (a constant bank falls back to
    numpy's expanded single-point range).  A range wider than float64's
    maximum raises ValueError.
    """
    shared = value_range
    if shared is None:
        values = bank.values()
        lo, hi = float(values.min()), float(values.max())
        # freed before the histograms, which compute the values again
        del values
        shared = (lo, hi) if lo < hi else None
    if shared is not None and float(shared[1]) - float(shared[0]) == math.inf:
        raise ValueError(f"histogram range {shared} is wider than float64's maximum")
    members = []
    for i in range(bank.m):
        for j in range(bank.c):
            values = bank.g[i, j] / bank.s[i, j]
            members.append(
                MemberStats(i, j, _histogram(values, bins, shared), _mean_fuzziness(values))
            )
    aggregate = MemberStats(None, None, histogram(bank, bins, shared), mean_fuzziness(bank))
    return StatsReport(bins, tuple(members), aggregate)
