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
(extent_out = extent_a + extent_b - 1) applies unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epitome import Epitome, Histogram, _PairGrid, bank_convolve, histogram, mean_fuzziness

__all__ = [
    "Bank",
    "LayerSpec",
    "Model",
    "DeepEpitome",
    "MemberStats",
    "StatsReport",
    "resize_strided",
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


class Bank(_PairGrid):
    """An m-by-c grid of equally shaped epitomes, stored as stacked arrays.

    g and s have shape (m, c, *spatial); member (i, j) is the epitome
    g[i, j], s[i, j].  Immutable after construction.
    """

    __slots__ = ()
    _NAME = "bank"
    _MIN_RANK = 3
    _RANK_ERROR = "bank arrays must be (m, c, *spatial) with rank >= 3, got rank {}"

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
    the spatial axes only.
    """

    __slots__ = ("name", "weights", "stride")

    def __init__(self, name, weights, stride=1):
        if not name:
            raise ValueError("layer needs a non-empty name")
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
            stride = _stride_tuple(stride, weights.ndim - 2, "spatial axes")
        except ValueError as e:
            raise ValueError(f"layer '{name}': {e}") from None
        weights.setflags(write=False)
        self.name = str(name)
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
    """An ordered chain of layers with matching filter/channel counts."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = tuple(layers)
        if not layers:
            raise ValueError("model needs at least one layer")
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


def _stride_tuple(stride, rank: int, axes: str = "axes") -> tuple[int, ...]:
    """A per-axis stride from an int or a sequence, each value >= 1."""
    if isinstance(stride, (int, np.integer)):
        stride = (int(stride),) * rank
    else:
        stride = tuple(int(v) for v in stride)
    if len(stride) != rank:
        raise ValueError(f"stride has {len(stride)} entries for {rank} {axes}")
    if any(v < 1 for v in stride):
        raise ValueError(f"stride must be >= 1 on every axis, got {stride}")
    return stride


def resize_strided(kernel, stride, fill: str = "replicate") -> np.ndarray:
    """Replace a stride-s kernel by its stride-1 equivalent, s times larger.

    fill="replicate" repeats each weight into an s-sized block per axis;
    fill="fuzzy" instead places each weight at its block's start and
    pads the rest with the GHD-absorbing value 0.5.  Stride 1 returns
    the kernel unchanged either way.
    """
    kernel = np.array(kernel, dtype=np.float64)
    if kernel.ndim < 1 or kernel.size == 0:
        raise ValueError("kernel must be a non-empty grid")
    stride = _stride_tuple(stride, kernel.ndim)
    if fill not in _STRIDE_FILLS:
        raise ValueError(f"unknown stride fill {fill!r}, expected one of {_STRIDE_FILLS}")
    if all(v == 1 for v in stride):
        return kernel
    if fill == "replicate":
        out = kernel
        for axis, v in enumerate(stride):
            if v > 1:
                out = np.repeat(out, v, axis=axis)
        return out
    out = np.full(tuple(k * v for k, v in zip(kernel.shape, stride)), 0.5)
    out[tuple(slice(None, None, v) for v in stride)] = kernel
    return out


def layer_to_bank(layer: LayerSpec, fill: str = "replicate") -> Bank:
    """View a layer as a bank of normalized epitomes of its resized kernels."""
    g = resize_strided(layer.weights, (1, 1) + layer.stride, fill)
    return Bank(g, np.ones(g.shape, dtype=np.int64))


def composite_convolve(a: Bank, b: Bank) -> Bank:
    """Bank-level convolution contracting a's filters against b's channels.

    Requires a.m == b.c.  Output member (i, j) for filter i of b and
    channel j of a is the entrywise epitome sum over k = 0..a.m-1 of
    convolve(a[k, j], b[i, k]), so the result has m = b.m, c = a.c, and
    the full-convolution spatial shape, all from one bank_convolve call.
    """
    if a.rank != b.rank:
        raise ValueError(f"spatial rank mismatch: {a.rank} vs {b.rank}")
    if a.m != b.c:
        raise ValueError(
            f"bank mismatch: left bank has m={a.m} epitomes but "
            f"right bank expects c={b.c} channels"
        )
    return Bank(*bank_convolve(a.g, a.s, b.g, b.s))


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
    entries.
    """
    deep_bank = deep.bank if isinstance(deep, DeepEpitome) else deep
    if not input_bank.is_normalized:
        raise ValueError("input bank must be normalized (every count 1)")
    if input_bank.m != deep_bank.c:
        raise ValueError(
            f"pairing mismatch: input provides m={input_bank.m} epitomes but "
            f"the deep epitome expects c={deep_bank.c} channels"
        )
    out = composite_convolve(input_bank, deep_bank)
    target = input_bank.spatial_shape
    if crop == "valid":
        target = tuple(
            n - d + 1 for n, d in zip(input_bank.spatial_shape, deep_bank.spatial_shape)
        )
        if any(t < 1 for t in target):
            raise ValueError(
                f"valid crop is empty: input {input_bank.spatial_shape} is smaller "
                f"than the deep epitome {deep_bank.spatial_shape}"
            )
    return crop_bank(out, target, crop)


def crop_bank(bank: Bank, target, mode: str = "same") -> Bank:
    """Center-crop every member to the target spatial shape.

    Mode "full" is the identity.  When a margin is odd, the extra entry
    is dropped from the high-index side.
    """
    if mode not in _CROP_MODES:
        raise ValueError(f"unknown crop mode {mode!r}, expected one of {_CROP_MODES}")
    if mode == "full":
        return bank
    target = tuple(int(t) for t in target)
    if len(target) != bank.rank:
        raise ValueError(f"target rank {len(target)} != bank spatial rank {bank.rank}")
    for src, tgt in zip(bank.spatial_shape, target):
        if tgt < 1:
            raise ValueError(f"crop target must be positive, got {target}")
        if tgt > src:
            raise ValueError(f"crop target {target} exceeds source shape {bank.spatial_shape}")
    slices = tuple(
        slice((src - tgt) // 2, (src - tgt) // 2 + tgt)
        for src, tgt in zip(bank.spatial_shape, target)
    )
    index = (slice(None), slice(None)) + slices
    return Bank(bank.g[index], bank.s[index])


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
    values = bank.values()
    shared = value_range
    if shared is None:
        lo = float(values.min())
        hi = float(values.max())
        shared = (lo, hi) if lo < hi else None
    if shared is not None and float(shared[1]) - float(shared[0]) == math.inf:
        raise ValueError(f"histogram range {shared} is wider than float64's maximum")
    members = []
    for i in range(bank.m):
        for j in range(bank.c):
            e = bank.member(i, j)
            members.append(
                MemberStats(i, j, histogram(e, bins, shared), mean_fuzziness(e))
            )
    pooled = Epitome(values.ravel(), np.ones(values.size, dtype=np.int64))
    aggregate = MemberStats(None, None, histogram(pooled, bins, shared), mean_fuzziness(pooled))
    return StatsReport(bins, tuple(members), aggregate)
