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
a fold step contracts just those |K| taps (see epitome.bank_convolve).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .epitome import (
    Epitome,
    Histogram,
    _bank_convolve,
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
    "effective_shape",
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
    then one read-only int64 grid broadcast to (m, c, *spatial), which
    bank_convolve contracts once instead of m * c times.  _PairGrid's
    rule finds them over the two member axes: from the strides of a
    broadcast, else by comparing dense counts once.  A composite_convolve
    result keeps the kernel's counts as they come: one grid whenever
    each operand's counts are one grid.

    A bank from layer_to_bank also keeps the taps its resized kernel is
    made of, which composite_convolve passes to the kernel; no other
    bank has them, so a copy, crop or saved file is a plain bank with
    the same g and s.

    A bank whose counts are one grid also remembers the last count grid
    it produced in composite_convolve against an operand whose counts
    are all 1, as every apply's normalized input and every fold step's
    layer are.  That grid is the bank's counts box-summed over the other
    operand's grid, so it depends only on the bank's side of the
    convolution, the other operand's spatial shape, the contracted
    members and the window; the bank keeps those shapes as the key and
    no array of the other operand.  Applying one deep epitome to inputs
    of one shape and crop then contracts only T, and the results share
    one read-only count grid.  The bound is one window-sized int64
    grid: a new key replaces it.  Every bank starts with none, so a
    copy, crop, loaded file or fresh result remembers nothing.
    """

    __slots__ = ("_taps", "_counted")
    _NAME = "bank"
    _MEMBER_AXES = 2
    _RANK_ERROR = "bank arrays must be (m, c, *spatial) with rank >= 3, got rank {}"

    def __init__(self, g, s):
        super().__init__(g, s)
        self._taps = self._counted = None

    @classmethod
    def _of_layer(cls, g, taps):
        """The bank of a layer's resized kernel g: counts of 1, and its taps.

        LayerSpec has checked the weights g is made of, so g is neither
        checked nor copied again.
        """
        bank = cls.__new__(cls)
        ones = np.ones((1, 1) + g.shape[2:], dtype=np.int64)
        for x in (g, ones):
            x.setflags(write=False)
        bank.g, bank.s, bank._taps, bank._counted = g, np.broadcast_to(ones, g.shape), taps, None
        return bank

    @classmethod
    def _of_convolution(cls, g, s):
        """The bank of a kernel result: g as it is, s the kernel's int64 broadcast counts.

        The kernel has made g for this bank alone and counted s exactly,
        each count >= 1 over a window inside the full output, so neither
        is copied or checked again; only a g past float64's range is
        named.
        """
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite g value in {cls._NAME}")
        g.setflags(write=False)
        bank = cls.__new__(cls)
        bank.g, bank.s, bank._taps, bank._counted = g, s, None, None
        return bank

    @property
    def m(self) -> int:
        return self.g.shape[0]

    @property
    def c(self) -> int:
        return self.g.shape[1]

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return self.g.shape[2:]

    @property
    def rank(self) -> int:
        return self.g.ndim - 2

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
    """

    bank: Bank
    collapsed_layers: tuple[int, int]
    effective_shape: tuple[int, ...]

    def __post_init__(self):
        first, last = self.collapsed_layers
        if not 1 <= first <= last:
            raise ValueError(f"bad layer range {self.collapsed_layers}")
        if self.bank.spatial_shape != tuple(self.effective_shape):
            raise ValueError(
                f"collapsed bank shape {self.bank.spatial_shape} does not match "
                f"the closed-form effective shape {tuple(self.effective_shape)}"
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
    of the s**rank times larger resized grid.
    """
    if fill not in _STRIDE_FILLS:
        raise ValueError(f"unknown stride fill {fill!r}, expected one of {_STRIDE_FILLS}")
    g = layer.weights
    if fill == "replicate":
        for axis, v in enumerate(layer.stride, 2):
            if v > 1:
                g = np.repeat(g, v, axis=axis)
    else:
        g = np.full(g.shape[:2] + layer.resized_extents(), 0.5)
        g[(Ellipsis,) + tuple(slice(None, None, v) for v in layer.stride)] = layer.weights
    return Bank._of_layer(g, _Taps(layer.weights, layer.stride, fill))


def composite_convolve(a: Bank, b: Bank, window=None) -> Bank:
    """Bank-level convolution contracting a's filters against b's channels.

    Requires a.m == b.c.  Output member (i, j) for filter i of b and
    channel j of a is the entrywise epitome sum over k = 0..a.m-1 of
    convolve(a[k, j], b[i, k]), so the result has m = b.m, c = a.c, and
    the full-convolution spatial shape, all from one bank_convolve call.
    window, one slice per spatial axis of that full shape, computes only
    the entries it selects; None computes them all.  Anything but a
    non-empty slice(start, stop) of integers inside its axis's full
    extent raises ValueError before anything is computed.  A layer
    bank's taps go to the kernel along with it, on either side, and an
    operand may remember the result's count grid (see Bank).  The
    result holds the kernel's arrays themselves, read-only.
    """
    if a.rank != b.rank:
        raise ValueError(f"spatial rank mismatch: {a.rank} vs {b.rank}")
    if a.m != b.c:
        raise ValueError(
            f"bank mismatch: left bank has m={a.m} epitomes but "
            f"right bank expects c={b.c} channels"
        )
    return Bank._of_convolution(*_bank_convolve(a.g, a.s, b.g, b.s, window, (a, b)))


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


def collapse(
    model: Model,
    upto_layer: int | None = None,
    first_layer: int = 1,
    fill: str = "replicate",
) -> DeepEpitome:
    """Fold layers first_layer..upto_layer (1-based) into one deep epitome.

    Left fold of composite_convolve over the per-layer banks; the fold
    order is immaterial by associativity, which the tests confirm rather
    than assume.  The result's spatial shape is cross-checked against
    the closed form at construction.
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
    return DeepEpitome(bank, (first_layer, upto_layer), effective_shape(selected))


def apply(input_bank: Bank, deep, crop: str = "full") -> Bank:
    """One-step feature extraction: convolve the input with the deep epitome.

    deep may be a DeepEpitome or a bare Bank (e.g. one loaded from
    disk).  The input pairs with the deep epitome's channels (input.m
    must equal deep.bank.c) and must be normalized, i.e. raw data that
    has not been through any convolution yet.  The full result has
    m = deep.bank.m and c = input.c; crop "same" center-crops to the
    input's spatial shape and "valid" keeps only fully overlapped
    entries.  Only the entries kept are computed.
    """
    deep_bank = deep.bank if isinstance(deep, DeepEpitome) else deep
    if not input_bank.is_normalized:
        raise ValueError("input bank must be normalized (every count 1)")
    if input_bank.m != deep_bank.c:
        raise ValueError(
            f"pairing mismatch: input provides m={input_bank.m} epitomes but "
            f"the deep epitome expects c={deep_bank.c} channels"
        )
    # checked here too, or the crop would report the ranks as its own mismatch
    if input_bank.rank != deep_bank.rank:
        raise ValueError(f"spatial rank mismatch: {input_bank.rank} vs {deep_bank.rank}")
    pairs = list(zip(input_bank.spatial_shape, deep_bank.spatial_shape))
    target = tuple(n - d + 1 for n, d in pairs) if crop == "valid" else input_bank.spatial_shape
    window = _crop_window(tuple(n + d - 1 for n, d in pairs), target, crop)
    out = composite_convolve(input_bank, deep_bank, window)
    return crop_bank(out, target, crop)


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
