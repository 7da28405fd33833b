"""Reference implementations: outer products, raw convolution, suites."""

import numpy as np
import pytest

from ghne import (
    Bank,
    CountOverflowError,
    LayerSpec,
    Model,
    composite_convolve,
    convolve,
    ghd,
    ghd_fold,
    layer_to_bank,
    make_normalized,
)
from ghne.oracle import (
    check_equivalence,
    compare_banks,
    find_nonassoc_witness,
    layered_forward,
    outer_product,
    random_bank,
    random_epitome,
    random_input,
    random_model,
    raw_convolve,
    raw_convolve_with_counts,
    reference_composite,
    suite_collapse_equivalence,
    suite_epitome_associativity,
    suite_pairwise_sum_identity,
    suite_raw_nonassociativity,
)


# --- outer products ---------------------------------------------------------


def test_outer_product_two_factors():
    op = outer_product([(0.0, 1.0), (0.3,)])
    assert op.shape == (2, 1)
    assert np.array_equal(op, [[0.3], [0.7]])


def test_outer_product_entries_are_folds():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 3)
    y = rng.uniform(0, 1, 2)
    z = rng.uniform(0, 1, 2)
    op = outer_product([x, y, z])
    assert op.shape == (3, 2, 2)
    assert op.size == 12
    for i in range(3):
        for j in range(2):
            for k in range(2):
                assert op[i, j, k] == ghd_fold([x[i], y[j], z[k]])


def test_outer_product_factor_swap_transposes():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 4)
    y = rng.uniform(0, 1, 3)
    a = outer_product([x, y])
    b = outer_product([y, x])
    assert np.allclose(a, b.T, rtol=0, atol=1e-15)


def test_outer_product_regroup_keeps_entry_multiset():
    # factor order permutes indices but never the set of values
    rng = np.random.default_rng(22)
    x = rng.uniform(0, 1, 3)
    y = rng.uniform(0, 1, 2)
    z = rng.uniform(0, 1, 4)
    a = np.sort(outer_product([x, y, z]).ravel())
    b = np.sort(outer_product([z, x, y]).ravel())
    assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_pairwise_sum_worked_value():
    # x = (1, 2), y = (3,): both routes give exactly -9
    x = np.array([1.0, 2.0])
    y = np.array([3.0])
    brute = float(ghd(x[:, np.newaxis], y[np.newaxis, :]).sum())
    closed = ghd(float(x.sum()), float(y.sum())) + (y.size - 1) * x.sum() + (x.size - 1) * y.sum()
    assert brute == -9.0
    assert closed == -9.0


def test_outer_product_validation():
    with pytest.raises(ValueError):
        outer_product([(0.1, 0.2)])
    with pytest.raises(ValueError):
        outer_product([(0.1,), ()])
    with pytest.raises(ValueError):
        outer_product([np.zeros((2, 2)), (0.1,)])


# --- raw convolution --------------------------------------------------------


def test_raw_convolve_worked_example():
    sums, counts = raw_convolve_with_counts([(0.0, 1.0, 0.5), (0.0, 1.0)])
    assert np.array_equal(sums, [0.0, 2.0, 0.5, 0.5])
    assert np.array_equal(counts, [1, 2, 2, 1])


def test_raw_convolve_group_sizes():
    _, c2 = raw_convolve_with_counts([np.zeros(3), np.zeros(3)])
    assert np.array_equal(c2, [1, 2, 3, 2, 1])
    _, c3 = raw_convolve_with_counts([np.zeros(3), np.zeros(2), np.zeros(2)])
    assert np.array_equal(c3, [1, 3, 4, 3, 1])


def test_raw_convolve_output_length():
    out = raw_convolve([np.zeros(4), np.zeros(3), np.zeros(2)])
    assert out.shape == (7,)


def test_raw_convolve_commutes():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 4)
    y = rng.uniform(0, 1, 3)
    assert np.allclose(raw_convolve([x, y]), raw_convolve([y, x]), rtol=0, atol=1e-14)


def test_raw_matches_explicit_grouping():
    # independent double loop, no outer_product machinery
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 5)
    y = rng.uniform(0, 1, 3)
    sums, counts = raw_convolve_with_counts([x, y])
    want = np.zeros(7)
    want_c = np.zeros(7, dtype=int)
    for i in range(5):
        for j in range(3):
            want[i + j] += ghd(x[i], y[j])
            want_c[i + j] += 1
    assert np.allclose(sums, want, rtol=0, atol=1e-13)
    assert np.array_equal(counts, want_c)


def test_raw_agrees_with_epitome_convolution():
    # same sums and group sizes through the fast decomposition
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(0, 1, int(rng.integers(1, 7)))
        y = rng.uniform(0, 1, int(rng.integers(1, 7)))
        sums, counts = raw_convolve_with_counts([x, y])
        e = convolve(make_normalized(x), make_normalized(y))
        assert np.allclose(e.g, sums, rtol=0, atol=1e-12)
        assert np.array_equal(e.s, counts)


def test_reference_composite_matches_raw_grouping():
    # the oracle's count-carrying convolution against the outer-product
    # grouping, for two and three 1-D tuples (the latter folded twice)
    rng = np.random.default_rng(12)
    for _ in range(30):
        x, y, z = (rng.uniform(-1, 2, int(rng.integers(1, 7))) for _ in range(3))
        bx, by, bz = (Bank([[v]], np.ones((1, 1, v.size), dtype=np.int64)) for v in (x, y, z))
        xy = reference_composite(bx, by)
        for factors, out in (([x, y], xy), ([x, y, z], reference_composite(xy, bz))):
            sums, counts = raw_convolve_with_counts(factors)
            assert np.allclose(out.g[0, 0], sums, rtol=0, atol=1e-12)
            assert np.array_equal(out.s[0, 0], counts)


def test_reference_composite_matches_fast_kernel_both_ways():
    # the kernel windows a with b's grid when c_a * |B| <= m_b * |A| (here
    # |B| <= 2 |A|) and swaps the roles otherwise; every rank has a case
    # on either side
    rng = np.random.default_rng(13)
    cases = {
        "window a": [((7,), (3,)), ((5, 4), (2, 3)), ((3, 3), (3, 3)), ((3, 2, 4), (2, 2, 1))],
        "window b": [((2,), (9,)), ((2, 2), (4, 5)), ((1, 2, 2), (3, 4, 2))],
    }
    for role, shapes in cases.items():
        for shape_a, shape_b in shapes:
            a = random_bank(rng, m=3, c=2, shape=shape_a)
            b = random_bank(rng, m=4, c=3, shape=shape_b)
            assert (a.c * np.prod(shape_b) <= b.m * np.prod(shape_a)) == (role == "window a")
            ref = reference_composite(a, b)
            fast = composite_convolve(a, b)
            assert np.array_equal(ref.s, fast.s), (shape_a, shape_b)
            report = compare_banks(ref, fast, tol=1e-12)
            assert report.passed, (shape_a, shape_b, report)


def test_composite_counts_exact_past_float_precision():
    # counts whose products need 61 bits: float64 would round them, so the
    # kernel must contract these in int64
    rng = np.random.default_rng(15)
    sa = 2**30 + rng.integers(1, 9, (2, 1, 3))
    sb = 2**30 + rng.integers(1, 9, (2, 2, 1))
    # g = s * mean value, as for any epitome built from data in [0, 1]
    a = Bank(sa * rng.uniform(0, 1, sa.shape), sa)
    b = Bank(sb * rng.uniform(0, 1, sb.shape), sb)
    ref = reference_composite(a, b)
    fast = composite_convolve(a, b)
    assert ref.s.max() > 2**53
    assert np.array_equal(ref.s, fast.s)
    assert compare_banks(ref, fast, tol=1e-12).passed


def test_reference_composite_counts_past_the_int64_bound():
    # a count bound of 2**62 * 2 terms reaches 2**63, so the reference sums
    # counts as Python ints: 2**62 comes back exact, 2**63 is refused by name
    a = Bank(np.zeros((1, 1, 1)), np.full((1, 1, 1), 2**62))
    b = Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2), dtype=np.int64))
    ref = reference_composite(a, b)
    assert ref.s.tolist() == [[[2**62, 2**62]]]
    assert ref == composite_convolve(a, b)
    with pytest.raises(CountOverflowError, match=str(2**63)):
        reference_composite(a, Bank(b.g, b.s + 1))


def test_reference_composite_rejects_mismatch():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="m=2"):
        reference_composite(random_bank(rng, 2, 1, (3,)), random_bank(rng, 1, 3, (3,)))
    with pytest.raises(ValueError, match="rank"):
        reference_composite(random_bank(rng, 1, 1, (3,)), random_bank(rng, 1, 1, (3, 3)))


# --- layered forward and equivalence ----------------------------------------


def test_layered_forward_single_layer():
    rng = np.random.default_rng(5)
    layer = LayerSpec("only", rng.uniform(0, 1, (2, 1, 3)), 1)
    x = random_input(rng, channels=1, shape=(8,))
    out = layered_forward(Model([layer]), x)
    fast = composite_convolve(x, layer_to_bank(layer))
    assert np.array_equal(out.s, fast.s)
    report = compare_banks(out, fast, tol=1e-12)
    assert report.passed, report


def test_layered_forward_channel_error_names_layer():
    rng = np.random.default_rng(6)
    layer = LayerSpec("first", rng.uniform(0, 1, (2, 2, 3)), 1)
    x = random_input(rng, channels=1, shape=(8,))
    with pytest.raises(ValueError, match="first"):
        layered_forward(Model([layer]), x)


def test_compare_banks_shape_mismatch_raises():
    a = Bank(np.zeros((1, 1, 3)), np.ones((1, 1, 3), dtype=np.int64))
    b = Bank(np.zeros((1, 1, 4)), np.ones((1, 1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        compare_banks(a, b, 1e-9)


def test_compare_banks_identical():
    rng = np.random.default_rng(7)
    a = random_bank(rng, m=2, c=2, shape=(3,))
    report = compare_banks(a, a, tol=0.0)
    assert report.passed
    assert report.max_abs_error == 0.0
    assert report.max_rel_error == 0.0
    assert report.count_mismatches == 0
    assert report.entries_compared == a.g.size


def test_compare_banks_detects_weight_corruption():
    rng = np.random.default_rng(8)
    a = random_bank(rng, m=2, c=1, shape=(4,))
    g = a.g.copy()
    g[1, 0, 2] += 1e-3
    report = compare_banks(a, Bank(g, a.s), tol=1e-9)
    assert not report.passed
    assert report.max_abs_error == pytest.approx(1e-3)
    assert report.count_mismatches == 0


def test_compare_banks_detects_count_corruption():
    rng = np.random.default_rng(9)
    a = random_bank(rng, m=2, c=1, shape=(4,))
    s = a.s.copy()
    s[0, 0, 1] += 1
    report = compare_banks(a, Bank(a.g, s), tol=1e-9)
    assert not report.passed
    assert report.count_mismatches == 1
    assert report.max_abs_error == 0.0


def test_check_equivalence_random_model():
    rng = np.random.default_rng(10)
    model = random_model(rng, max_layers=3, max_channels=3, max_kernel=3)
    x = random_input(rng, model.layers[0].in_channels, (7, 7))
    report = check_equivalence(model, x, tol=1e-9)
    assert report.passed, report
    assert report.count_mismatches == 0


def test_check_equivalence_single_layer_within_1e12():
    # one layer: collapse is the layer bank itself; the two routes differ
    # only in how each convolution rounds
    rng = np.random.default_rng(11)
    layer = LayerSpec("only", rng.uniform(0, 1, (2, 1, 3, 3)), 1)
    x = random_input(rng, 1, (6, 6))
    report = check_equivalence(Model([layer]), x, tol=1e-12)
    assert report.passed, report
    assert report.count_mismatches == 0


def _deep_stack(rng, rank, depth, weight_range):
    # exactly `depth` layers of 1-3 channels, kernels of 1-3, strides 1 or 2 per axis
    widths = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        kernel = tuple(int(rng.integers(1, 4)) for _ in range(rank))
        stride = tuple(int(rng.choice((1, 2))) for _ in range(rank))
        w = rng.uniform(weight_range[0], weight_range[1], size=(widths[i + 1], widths[i]) + kernel)
        layers.append(LayerSpec(f"conv{i + 1}", w, stride))
    return Model(layers)


@pytest.mark.parametrize(
    "weight_range, tol", [((0.0, 1.0), 1e-13), ((0.0, 0.05), 1e-13), ((-1.5, 1.5), 1e-11)]
)
@pytest.mark.parametrize("rank, depth, extent", [(1, 8, 12), (2, 8, 6), (3, 4, 4)])
def test_collapse_precision_on_deep_stacks(rank, depth, extent, weight_range, tol):
    # one-step through collapse vs the oracle's layered evaluation.  Wide
    # weights cancel: some rank-3 stacks of 6-8 layers lose digits past
    # 1e-11 in both paths alike (each about as far from a long-double
    # evaluation), so rank-3 stacks stay at 4 layers
    rng = np.random.default_rng([rank, depth])
    for _ in range(5):
        model = _deep_stack(rng, rank, depth, weight_range)
        x = random_input(rng, model.layers[0].in_channels, (extent,) * rank)
        report = check_equivalence(model, x, tol=tol)
        assert report.count_mismatches == 0
        assert report.passed, report


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_check_equivalence_rejects_negative_tol(tol):
    rng = np.random.default_rng(12)
    layer = LayerSpec("only", rng.uniform(0, 1, (1, 1, 2)), 1)
    x = random_input(rng, 1, (4,))
    with pytest.raises(ValueError, match="tolerance must be non-negative"):
        check_equivalence(Model([layer]), x, tol=tol)


def test_equivalence_report_passed_invariant():
    rng = np.random.default_rng(13)
    model = random_model(rng, max_layers=2, max_channels=2, max_kernel=3)
    x = random_input(rng, model.layers[0].in_channels, (5, 5))
    report = check_equivalence(model, x, tol=1e-9)
    assert report.passed == (
        report.count_mismatches == 0 and report.max_rel_error <= report.tol
    )


# --- non-associativity witnesses --------------------------------------------


def test_witness_exceeds_threshold():
    x, y, z, disc = find_nonassoc_witness(seed=0)
    assert disc > 0.1
    left = raw_convolve([raw_convolve([x, y]), z])
    right = raw_convolve([x, raw_convolve([y, z])])
    assert np.max(np.abs(left - right)) == pytest.approx(disc)


def test_witness_is_deterministic():
    a = find_nonassoc_witness(seed=42)
    b = find_nonassoc_witness(seed=42)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert a[3] == b[3]


def test_witness_budget_exhaustion():
    with pytest.raises(RuntimeError):
        find_nonassoc_witness(seed=0, trials=1, threshold=1e9)


# --- random generators ------------------------------------------------------


def test_random_input_is_normalized_single_channel():
    rng = np.random.default_rng(14)
    x = random_input(rng, channels=3, shape=(4, 5))
    assert (x.m, x.c) == (3, 1)
    assert x.is_normalized
    assert np.all((x.g >= 0) & (x.g <= 1))


def test_random_epitome_ranges():
    rng = np.random.default_rng(15)
    for _ in range(20):
        e = random_epitome(rng, max_extent=4, max_count=3, g_range=(-1, 1))
        assert 1 <= e.shape[0] <= 4
        assert np.all((e.s >= 1) & (e.s <= 3))
        assert np.all(np.abs(e.g) <= 1)


def test_random_model_is_chainable():
    rng = np.random.default_rng(16)
    for _ in range(10):
        model = random_model(rng)
        for prev, cur in zip(model.layers, model.layers[1:]):
            assert cur.in_channels == prev.out_filters


# --- verification suites ----------------------------------------------------


def test_suite_pairwise_sum_identity():
    report = suite_pairwise_sum_identity(np.random.default_rng(17), trials=50)
    assert report.passed, report
    assert report.max_abs_error <= 1e-12


def test_suite_epitome_associativity():
    report = suite_epitome_associativity(np.random.default_rng(18), trials=30)
    assert report.passed, report
    assert report.count_mismatches == 0


def test_suite_collapse_equivalence_fresh_models():
    report = suite_collapse_equivalence(np.random.default_rng(19), trials=5)
    assert report.passed, report


def test_suite_collapse_equivalence_fixed_model():
    rng = np.random.default_rng(20)
    model = random_model(rng, max_layers=2, max_channels=2, max_kernel=3)
    report = suite_collapse_equivalence(rng, trials=5, model=model)
    assert report.passed, report


def test_suite_raw_nonassociativity():
    report = suite_raw_nonassociativity(seed=21)
    assert report.passed, report
    assert report.raw_discrepancy > 0.1
    assert report.epitome_discrepancy <= 1e-9
