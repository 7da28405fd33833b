"""Reference implementations used only for verification.

Everything here recomputes results the slow, obvious way so the fast
paths in epitome/banks have something independent to be checked
against: explicit hamming outer products, raw tuple convolution (no
summand counts, which is exactly what makes it non-associative),
layer-by-layer forward evaluation, and random generators for models,
banks, and inputs.  Clarity beats speed throughout; none of this is
benchmarked.

The layered reference has its own count-carrying convolution.  It
loops over members and offsets and merges entries in the additive form
g_a*s_b + s_a*g_b - 2*g_a*g_b, so it shares no arithmetic with the
fast path's contraction of T = s - 2g (epitome.bank_convolve), and an
error in either one shows up as a disagreement between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .banks import Bank, LayerSpec, Model, apply, collapse, layer_to_bank
from .epitome import Epitome, convolve, make_normalized, merged_pair
from .ghd import ghd

__all__ = [
    "EquivalenceReport",
    "NonAssocReport",
    "outer_product",
    "raw_convolve",
    "raw_convolve_with_counts",
    "reference_composite",
    "layered_forward",
    "compare_banks",
    "check_equivalence",
    "find_nonassoc_witness",
    "random_epitome",
    "random_bank",
    "random_input",
    "random_model",
    "suite_pairwise_sum_identity",
    "suite_epitome_associativity",
    "suite_collapse_equivalence",
    "suite_raw_nonassociativity",
]


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing a candidate bank against a reference.

    Relative error uses a max(1, |reference|) denominator so entries
    near zero do not blow it up.  passed means every summand count
    matched exactly and the error measure stayed within tol.
    """

    max_abs_error: float
    max_rel_error: float
    count_mismatches: int
    entries_compared: int
    tol: float
    passed: bool


@dataclass(frozen=True, eq=False)
class NonAssocReport:
    """A found witness that raw tuple convolution is not associative.

    raw_discrepancy is the largest entry difference between the two
    groupings of the raw (count-free) convolution; epitome_discrepancy
    is the same comparison with counts carried, which associativity
    keeps at rounding level.  passed means the counts match and the
    epitome gap is within tol; the witness search already guarantees a
    large raw gap.
    """

    x: tuple
    y: tuple
    z: tuple
    raw_discrepancy: float
    epitome_discrepancy: float
    passed: bool


def outer_product(factors) -> np.ndarray:
    """Dense grid of iterated GHDs over two or more non-empty tuples.

    One axis per factor: entry (k, l, ..., m) is ghd_fold of the k-th
    element of the first factor, the l-th of the second, and so on.
    """
    arrays = [np.asarray(f, dtype=np.float64) for f in factors]
    if len(arrays) < 2:
        raise ValueError(f"outer product needs at least 2 factors, got {len(arrays)}")
    for a in arrays:
        if a.ndim != 1 or a.size == 0:
            raise ValueError("every factor must be a non-empty 1-D tuple")
    grids = np.meshgrid(*arrays, indexing="ij")
    acc = grids[0]
    for grid in grids[1:]:
        acc = ghd(acc, grid)
    return acc


def raw_convolve(factors) -> np.ndarray:
    """Count-free hamming convolution of plain tuples.

    Groups the outer-product entries whose 0-based indices sum to the
    same output position and adds each group up.  Output length is
    K + sum(L_i - 1).  Because the summand counts are discarded,
    re-convolving an output with a further tuple is NOT associative;
    see find_nonassoc_witness.
    """
    return raw_convolve_with_counts(factors)[0]


def raw_convolve_with_counts(factors):
    """raw_convolve plus the group sizes |S(n)| it summed over."""
    op = outer_product(factors)
    out_len = sum(op.shape) - (op.ndim - 1)
    sums = np.zeros(out_len)
    counts = np.zeros(out_len, dtype=np.int64)
    for idx in np.ndindex(op.shape):
        n = sum(idx)
        sums[n] += op[idx]
        counts[n] += 1
    return sums, counts


def _add_member_convolution(g, s, ga, sa, gb, sb):
    """Add the full convolution of member (ga, sa) with (gb, sb) into (g, s).

    For every offset p of b, the window of the output that a lands on
    gets the merged pairs of a with entry p of b, in the additive form
    g_a*s_b + s_a*g_b - 2*g_a*g_b, and the counts s_a*s_b in s's dtype
    (int64, or object for Python ints).
    """
    counts_a = sa.astype(s.dtype, copy=False)
    for p in np.ndindex(gb.shape):
        window = tuple(slice(o, o + n) for o, n in zip(p, ga.shape))
        g[window] += ga * sb[p] + sa * gb[p] - 2.0 * ga * gb[p]
        s[window] += counts_a * int(sb[p])


def reference_composite(a: Bank, b: Bank) -> Bank:
    """Composite convolution member by member, the slow twin of composite_convolve.

    Output member (i, j) accumulates the convolution of a[k, j] with
    b[i, k] for k = 0..a.m-1 in ascending order.  Counts that could pass
    the int64 maximum are summed as Python ints, and one that does
    raises CountOverflowError.
    """
    if a.rank != b.rank:
        raise ValueError(f"spatial rank mismatch: {a.rank} vs {b.rank}")
    if a.m != b.c:
        raise ValueError(f"bank mismatch: a.m={a.m} but b.c={b.c}")
    shape = (b.m, a.c) + tuple(x + y - 1 for x, y in zip(a.spatial_shape, b.spatial_shape))
    # an output entry sums at most a.m * |B| terms, each at most max(s_a) * max(s_b)
    bound = int(a.s.max()) * int(b.s.max()) * a.m * math.prod(b.spatial_shape)
    g = np.zeros(shape)
    s = np.zeros(shape, dtype=object if bound >= 2**63 else np.int64)
    # a g past float64's range becomes inf or nan without a numpy warning,
    # and Bank rejects it as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(b.m):
            for j in range(a.c):
                for k in range(a.m):
                    _add_member_convolution(
                        g[i, j], s[i, j], a.g[k, j], a.s[k, j], b.g[i, k], b.s[i, k]
                    )
    return Bank(g, s)


def layered_forward(model: Model, input_bank: Bank, fill: str = "replicate") -> Bank:
    """Evaluate a model the conventional way, one layer at a time.

    Left fold of reference_composite starting from the input bank,
    carrying raw (g, s) pairs between layers with no intermediate
    normalization.  This is the reference the one-step deep-epitome
    path must match entry for entry; it never calls the fast kernel.
    """
    first = model.layers[0]
    if input_bank.m != first.in_channels:
        raise ValueError(
            f"input provides m={input_bank.m} epitomes but layer "
            f"'{first.name}' expects {first.in_channels} channels"
        )
    bank = input_bank
    for layer in model.layers:
        bank = reference_composite(bank, layer_to_bank(layer, fill))
    return bank


def compare_banks(reference: Bank, candidate: Bank, tol: float) -> EquivalenceReport:
    """Entrywise comparison; reports mismatches instead of raising.

    Only .g and .s are read, so two Epitomes compare the same way.
    """
    if reference.g.shape != candidate.g.shape:
        raise ValueError(
            f"cannot compare banks of different shape: "
            f"{reference.g.shape} vs {candidate.g.shape}"
        )
    abs_err = np.abs(reference.g - candidate.g)
    max_abs = float(abs_err.max())
    max_rel = float((abs_err / np.maximum(1.0, np.abs(reference.g))).max())
    count_mismatches = int(np.count_nonzero(reference.s != candidate.s))
    return EquivalenceReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        count_mismatches=count_mismatches,
        entries_compared=int(reference.g.size),
        tol=float(tol),
        passed=count_mismatches == 0 and max_rel <= tol,
    )


def _combine(reports: list, tol: float) -> EquivalenceReport:
    """Merge per-trial reports: worst errors, summed counts and entries."""
    max_rel = max((r.max_rel_error for r in reports), default=0.0)
    count_mismatches = sum(r.count_mismatches for r in reports)
    return EquivalenceReport(
        max_abs_error=max((r.max_abs_error for r in reports), default=0.0),
        max_rel_error=max_rel,
        count_mismatches=count_mismatches,
        entries_compared=sum(r.entries_compared for r in reports),
        tol=float(tol),
        passed=count_mismatches == 0 and max_rel <= tol,
    )


def check_equivalence(
    model: Model, input_bank: Bank, tol: float = 1e-9, fill: str = "replicate"
) -> EquivalenceReport:
    """Layered evaluation vs one-step application of the collapsed model."""
    if not tol >= 0:
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    reference = layered_forward(model, input_bank, fill)
    candidate = apply(input_bank, collapse(model, fill=fill), crop="full")
    return compare_banks(reference, candidate, tol)


def find_nonassoc_witness(seed: int, trials: int = 1000, threshold: float = 0.1):
    """Search random small tuples for (x * y) * z != x * (y * z) raw.

    Both groupings have the same final length, so entries compare
    like-indexed.  Returns (x, y, z, discrepancy) with discrepancy >
    threshold; raises if the trial budget runs out (it should not,
    witnesses are dense).
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        lengths = rng.integers(2, 5, size=3)
        x, y, z = (rng.uniform(0.0, 1.0, size=int(n)) for n in lengths)
        left = raw_convolve([raw_convolve([x, y]), z])
        right = raw_convolve([x, raw_convolve([y, z])])
        discrepancy = float(np.max(np.abs(left - right)))
        if discrepancy > threshold:
            return x, y, z, discrepancy
    raise RuntimeError(f"no non-associativity witness found in {trials} trials")


def random_epitome(rng, max_extent=8, max_count=5, g_range=(-2.0, 2.0)) -> Epitome:
    """A 1-D epitome of random extent, g and counts."""
    shape = int(rng.integers(1, max_extent + 1))
    g = rng.uniform(g_range[0], g_range[1], size=shape)
    s = rng.integers(1, max_count + 1, size=shape)
    return Epitome(g, s)


def random_bank(rng, m, c, shape, max_count=5, g_range=(-2.0, 2.0)) -> Bank:
    full = (m, c) + tuple(shape)
    g = rng.uniform(g_range[0], g_range[1], size=full)
    s = rng.integers(1, max_count + 1, size=full)
    return Bank(g, s)


def random_input(rng, channels, shape) -> Bank:
    """A normalized input bank of values in [0, 1): one epitome per channel, c = 1."""
    g = rng.uniform(0.0, 1.0, size=(channels, 1) + tuple(shape))
    return Bank(g, np.ones(g.shape, dtype=np.int64))


def random_model(
    rng,
    max_layers=3,
    max_channels=4,
    max_kernel=5,
    strides=(1, 2),
    rank=2,
    weight_range=(0.0, 1.0),
) -> Model:
    n_layers = int(rng.integers(1, max_layers + 1))
    widths = [int(rng.integers(1, max_channels + 1)) for _ in range(n_layers + 1)]
    layers = []
    for i in range(n_layers):
        kernel = tuple(int(rng.integers(1, max_kernel + 1)) for _ in range(rank))
        stride = tuple(int(rng.choice(strides)) for _ in range(rank))
        w = rng.uniform(
            weight_range[0], weight_range[1], size=(widths[i + 1], widths[i]) + kernel
        )
        layers.append(LayerSpec(f"conv{i + 1}", w, stride))
    return Model(layers)


def suite_pairwise_sum_identity(rng, trials: int = 100, tol: float = 1e-12) -> EquivalenceReport:
    """All-pairs GHD sum vs its closed form, on random tuple pairs.

    The closed form ghd(sum x, sum y) + (L-1) sum x + (K-1) sum y is
    what lets merged epitome entries stand in for their summands; here
    it is checked against the brute-force double sum at absolute
    tolerance (the sums are O(10), so relative would be weaker).
    """
    max_abs = 0.0
    max_rel = 0.0
    for _ in range(trials):
        x = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 9)))
        y = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 9)))
        brute = float(ghd(x[:, np.newaxis], y[np.newaxis, :]).sum())
        closed = merged_pair(float(x.sum()), x.size, float(y.sum()), y.size)[0]
        err = abs(brute - closed)
        max_abs = max(max_abs, err)
        max_rel = max(max_rel, err / max(1.0, abs(brute)))
    return EquivalenceReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        count_mismatches=0,
        entries_compared=trials,
        tol=float(tol),
        passed=max_abs <= tol,
    )


def suite_epitome_associativity(rng, trials: int = 100, tol: float = 1e-9) -> EquivalenceReport:
    """(a * b) * c vs a * (b * c) on random epitomes, counts carried."""
    reports = []
    for _ in range(trials):
        a, b, c = (random_epitome(rng) for _ in range(3))
        reports.append(compare_banks(convolve(convolve(a, b), c), convolve(a, convolve(b, c)), tol))
    return _combine(reports, tol)


def suite_collapse_equivalence(
    rng,
    trials: int = 100,
    tol: float = 1e-9,
    model: Model | None = None,
    weight_range=(0.0, 1.0),
) -> EquivalenceReport:
    """apply(input, collapse(model)) vs layered_forward on random trials.

    With a fixed model, each trial draws a fresh random input; without
    one, each trial also draws a fresh random model.
    """
    reports = []
    for _ in range(trials):
        m = model if model is not None else random_model(rng, weight_range=weight_range)
        rank = m.layers[0].rank
        shape = tuple(int(rng.integers(1, 17)) for _ in range(rank))
        input_bank = random_input(rng, m.layers[0].in_channels, shape)
        reports.append(check_equivalence(m, input_bank, tol))
    return _combine(reports, tol)


def suite_raw_nonassociativity(seed: int, tol: float = 1e-9) -> NonAssocReport:
    """Find a raw-convolution witness and confirm epitomes fix it.

    The witness triple disagrees by more than find_nonassoc_witness's
    default threshold under raw (count-free) re-convolution; the same
    triple under epitome convolution, with counts carried, must agree to
    within tol.
    """
    x, y, z, raw_disc = find_nonassoc_witness(seed)
    ex, ey, ez = (make_normalized(v) for v in (x, y, z))
    left = convolve(convolve(ex, ey), ez)
    right = convolve(ex, convolve(ey, ez))
    epi_disc = float(np.max(np.abs(left.g - right.g)))
    counts_match = bool(np.array_equal(left.s, right.s))
    return NonAssocReport(
        x=tuple(float(v) for v in x),
        y=tuple(float(v) for v in y),
        z=tuple(float(v) for v in z),
        raw_discrepancy=raw_disc,
        epitome_discrepancy=epi_disc,
        passed=counts_match and epi_disc <= tol,
    )
