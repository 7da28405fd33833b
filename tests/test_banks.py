"""Banks, stride resizing, composite convolution, collapse, apply."""

import tracemalloc

import numpy as np
import pytest

from ghne import (
    Bank,
    CountOverflowError,
    DeepEpitome,
    Epitome,
    LayerSpec,
    Model,
    add,
    apply,
    bank_stats,
    collapse,
    composite_convolve,
    convolve,
    crop_bank,
    effective_shape,
    epitome,
    layer_to_bank,
)
from ghne.model_io import load_epitome, save_epitome
from ghne.oracle import (
    compare_banks,
    layered_forward,
    random_bank,
    random_input,
    random_model,
    reference_composite,
)


def small_model(rng=None):
    # 2 layers, 2-D, mixed strides; deterministic unless an rng is given
    rng = rng or np.random.default_rng(7)
    w1 = rng.uniform(0.0, 1.0, size=(2, 1, 3, 3))
    w2 = rng.uniform(0.0, 1.0, size=(2, 2, 2, 2))
    return Model([LayerSpec("conv1", w1, 1), LayerSpec("conv2", w2, 2)])


# --- Bank construction and validation --------------------------------------


def test_bank_basic_properties():
    g = np.zeros((2, 3, 4, 5))
    b = Bank(g, np.ones(g.shape, dtype=np.int64))
    assert b.m == 2
    assert b.c == 3
    assert b.spatial_shape == (4, 5)
    assert b.rank == 2
    assert b.is_normalized


def test_bank_rejects_low_rank():
    with pytest.raises(ValueError):
        Bank(np.zeros((2, 3)), np.ones((2, 3), dtype=np.int64))


def test_bank_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Bank(np.zeros((1, 1, 3)), np.ones((1, 1, 4), dtype=np.int64))


def test_bank_rejects_float_counts():
    with pytest.raises(TypeError):
        Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2)))


def test_bank_rejects_zero_counts():
    s = np.ones((1, 1, 3), dtype=np.int64)
    s[0, 0, 1] = 0
    with pytest.raises(ValueError):
        Bank(np.zeros((1, 1, 3)), s)


def test_bank_rejects_nonfinite():
    g = np.zeros((1, 1, 2))
    g[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        Bank(g, np.ones((1, 1, 2), dtype=np.int64))


def test_bank_rejects_empty():
    with pytest.raises(ValueError):
        Bank(np.zeros((1, 0, 3)), np.zeros((1, 0, 3), dtype=np.int64))


def test_bank_is_immutable():
    b = Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        b.g[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        b.s[0, 0, 0] = 2


def test_bank_values_and_equality():
    b = Bank([[[2.0, 3.0]]], [[[2, 3]]])
    assert np.array_equal(b.values(), [[[1.0, 1.0]]])
    assert b == Bank([[[2.0, 3.0]]], [[[2, 3]]])
    assert b != Bank([[[2.0, 3.0]]], [[[2, 1]]])
    assert b != Bank([[[2.0, 3.0, 4.0]]], [[[2, 3, 1]]])


def test_bank_never_equals_an_epitome():
    # same g and s, other class: __eq__ defers, and identity decides
    b = Bank([[[0.5]]], [[[1]]])
    assert b.__eq__(Epitome([[[0.5]]], [[[1]]])) is NotImplemented
    assert b != Epitome([[[0.5]]], [[[1]]])


def test_reprs():
    layer = LayerSpec("conv1", np.zeros((2, 1, 3, 3)), (1, 2))
    assert repr(Bank(np.zeros((2, 3, 4, 5)), np.ones((2, 3, 4, 5), dtype=np.int64))) == (
        "Bank(m=2, c=3, spatial=(4, 5))"
    )
    assert repr(layer) == "LayerSpec('conv1', filters=2, channels=1, kernel=(3, 3), stride=(1, 2))"
    assert repr(Model([layer, LayerSpec("conv2", np.zeros((1, 2, 2, 2)), 1)])) == (
        "Model([conv1, conv2])"
    )
    assert repr(Epitome([0.5, 0.25], [1, 2])) == "Epitome(shape=(2,), normalized=False)"


# --- stride resizing --------------------------------------------------------


def resize_kernel(kernel, stride, fill="replicate"):
    # one kernel through layer_to_bank, as a one-filter one-channel layer
    kernel = np.array(kernel, dtype=np.float64)[np.newaxis, np.newaxis]
    return layer_to_bank(LayerSpec("k", kernel, stride), fill).g[0, 0]


def test_resize_stride_one_is_identity():
    k = np.array([[0.1, 0.2], [0.3, 0.4]])
    out = resize_kernel(k, 1)
    assert np.array_equal(out, k)


def test_resize_replicate_1d():
    out = resize_kernel([0.2, 0.8], 2)
    assert np.array_equal(out, [0.2, 0.2, 0.8, 0.8])


def test_resize_replicate_2d_extents():
    k = np.arange(25, dtype=float).reshape(5, 5) / 25.0
    out = resize_kernel(k, 2)
    assert out.shape == (10, 10)
    # each weight becomes a 2x2 constant block
    for i in range(5):
        for j in range(5):
            assert np.all(out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] == k[i, j])


def test_resize_fuzzy_1d():
    out = resize_kernel([0.2, 0.8], 2, fill="fuzzy")
    assert np.array_equal(out, [0.2, 0.5, 0.8, 0.5])


def test_resize_fuzzy_2d_block_starts():
    k = np.array([[0.1, 0.9]])
    out = resize_kernel(k, (1, 3), fill="fuzzy")
    assert np.array_equal(out, [[0.1, 0.5, 0.5, 0.9, 0.5, 0.5]])


def test_resize_mixed_axes():
    k = np.array([[0.1, 0.2], [0.3, 0.4]])
    out = resize_kernel(k, (1, 2))
    assert out.shape == (2, 4)
    assert np.array_equal(out, [[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.4, 0.4]])


def test_resize_validation():
    with pytest.raises(ValueError, match="unknown stride fill 'nearest'"):
        resize_kernel([0.1], 2, fill="nearest")
    with pytest.raises(ValueError):
        resize_kernel([[0.1, 0.2]], (2,))
    with pytest.raises(ValueError):
        resize_kernel([0.1, 0.2], 0)
    with pytest.raises(ValueError):
        resize_kernel([], 1)


# --- layer_to_bank ----------------------------------------------------------


def test_layer_to_bank_shape_and_normalization():
    w = np.random.default_rng(0).uniform(0, 1, size=(3, 2, 5, 5))
    layer = LayerSpec("conv1", w, 2)
    b = layer_to_bank(layer)
    assert (b.m, b.c) == (3, 2)
    assert b.spatial_shape == (10, 10)
    assert b.is_normalized


def test_layer_to_bank_matches_per_kernel_resize():
    rng = np.random.default_rng(1)
    w = rng.uniform(0, 1, size=(2, 3, 4, 2))
    layer = LayerSpec("conv", w, (2, 3))
    for fill in ("replicate", "fuzzy"):
        b = layer_to_bank(layer, fill)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(b.g[i, j], resize_kernel(w[i, j], (2, 3), fill))


def test_layer_to_bank_stride_one_keeps_weights():
    w = np.array([[[[0.1, 0.2], [0.3, 0.4]]]])
    b = layer_to_bank(LayerSpec("a", w, 1))
    assert np.array_equal(b.g, w)


# --- LayerSpec / Model validation -------------------------------------------


def test_layer_errors_name_the_layer():
    with pytest.raises(ValueError, match="conv9"):
        LayerSpec("conv9", np.zeros((1, 1)), 1)
    with pytest.raises(ValueError, match="conv9"):
        LayerSpec("conv9", np.zeros((1, 1, 3)), (1, 2))
    with pytest.raises(ValueError, match="conv9"):
        LayerSpec("conv9", np.zeros((1, 1, 3)), 0)


@pytest.mark.parametrize(
    "name, weights, message",
    [
        ("", np.zeros((1, 1, 3)), "layer name '': use only letters, digits, '_', '.', '-'"),
        ("a", np.zeros((0, 1, 3)), "layer 'a': empty weight grid"),
        ("a", np.zeros((1, 1, 0, 2)), "layer 'a': empty weight grid"),
    ],
)
def test_layer_rejects_empty_name_or_grid(name, weights, message):
    with pytest.raises(ValueError) as exc:
        LayerSpec(name, weights, 1)
    assert str(exc.value) == message


@pytest.mark.parametrize("stride", [(2.5, 1), 2.5, ("2", 1)])
def test_layer_stride_must_be_integers(stride):
    # int() would have taken (2.5, 1) as stride (2, 1)
    with pytest.raises(ValueError) as exc:
        LayerSpec("a", np.zeros((1, 1, 3, 3)), stride)
    assert str(exc.value) == f"layer 'a': stride must be integers, got {stride!r}"


def test_layer_stride_takes_numpy_integers():
    layer = LayerSpec("a", np.zeros((1, 1, 3, 3)), np.int32(2))
    assert layer.stride == (2, 2) and type(layer.stride[0]) is int
    assert LayerSpec("a", np.zeros((1, 1, 3, 3)), np.array([2, 1])).stride == (2, 1)


def test_model_chain_error_names_both_layers():
    a = LayerSpec("first", np.zeros((2, 1, 3)), 1)
    b = LayerSpec("second", np.zeros((1, 3, 3)), 1)
    with pytest.raises(ValueError) as exc:
        Model([a, b])
    assert "first" in str(exc.value) and "second" in str(exc.value)


def test_model_rejects_duplicate_names():
    # such a model saved to a file that load_model then rejected
    w = np.zeros((1, 1, 3))
    with pytest.raises(ValueError) as exc:
        Model([LayerSpec("a", w), LayerSpec("b", w), LayerSpec("a", w)])
    assert str(exc.value) == "duplicate layer name 'a'"


def test_model_needs_a_layer():
    with pytest.raises(ValueError, match="^model needs at least one layer$"):
        Model([])


def test_model_rejects_rank_mix():
    a = LayerSpec("first", np.zeros((1, 1, 3)), 1)
    b = LayerSpec("second", np.zeros((1, 1, 3, 3)), 1)
    with pytest.raises(ValueError):
        Model([a, b])


def test_resized_extents():
    layer = LayerSpec("a", np.zeros((1, 1, 5, 3)), (2, 3))
    assert layer.resized_extents() == (10, 9)


# --- composite convolution --------------------------------------------------


def test_composite_mismatch_names_both_dims():
    a = Bank(np.zeros((2, 1, 3)), np.ones((2, 1, 3), dtype=np.int64))
    b = Bank(np.zeros((1, 3, 3)), np.ones((1, 3, 3), dtype=np.int64))
    with pytest.raises(ValueError) as exc:
        composite_convolve(a, b)
    assert "m=2" in str(exc.value) and "c=3" in str(exc.value)


def test_composite_rank_mismatch():
    a = Bank(np.zeros((1, 1, 3)), np.ones((1, 1, 3), dtype=np.int64))
    b = Bank(np.zeros((1, 1, 3, 3)), np.ones((1, 1, 3, 3), dtype=np.int64))
    with pytest.raises(ValueError) as exc:
        composite_convolve(a, b)
    assert str(exc.value) == "spatial rank mismatch: 1 vs 2"


def test_composite_single_member_reduces_to_convolve():
    rng = np.random.default_rng(2)
    x = Epitome(rng.uniform(-1, 1, 4), rng.integers(1, 4, 4))
    y = Epitome(rng.uniform(-1, 1, 3), rng.integers(1, 4, 3))
    one = (np.newaxis, np.newaxis)
    out = composite_convolve(Bank(x.g[one], x.s[one]), Bank(y.g[one], y.s[one]))
    assert out.member(0, 0) == convolve(x, y)


def test_composite_shape_law():
    rng = np.random.default_rng(3)
    a = random_bank(rng, m=3, c=2, shape=(4, 5))
    b = random_bank(rng, m=4, c=3, shape=(2, 3))
    out = composite_convolve(a, b)
    assert (out.m, out.c) == (4, 2)
    assert out.spatial_shape == (5, 7)


def test_composite_matches_hand_loop():
    # member-by-member sums of epitome convolutions; counts exact, g to rounding
    rng = np.random.default_rng(4)
    a = random_bank(rng, m=3, c=2, shape=(4,))
    b = random_bank(rng, m=2, c=3, shape=(3,))
    out = composite_convolve(a, b)
    members = []
    for i in range(b.m):
        for j in range(a.c):
            acc = convolve(a.member(0, j), b.member(i, 0))
            for k in range(1, a.m):
                acc = add(acc, convolve(a.member(k, j), b.member(i, k)))
            members.append(acc)
    shape = (b.m, a.c) + members[0].shape
    hand = Bank(
        np.reshape([e.g for e in members], shape), np.reshape([e.s for e in members], shape)
    )
    assert np.array_equal(out.s, hand.s)
    report = compare_banks(hand, out, tol=1e-12)
    assert report.passed, report


def test_composite_absorbing_bank():
    # a bank of 0.5 entries absorbs any normalized input, up to rounding
    rng = np.random.default_rng(5)
    x = random_input(rng, channels=2, shape=(6,))
    half = Bank(np.full((3, 2, 4), 0.5), np.ones((3, 2, 4), dtype=np.int64))
    out = composite_convolve(x, half)
    # each output entry sums 2 absorbed convolutions: g = 0.5 * s
    assert np.allclose(out.values(), 0.5, rtol=0, atol=1e-15)


def test_composite_is_associative_on_banks():
    # counts exact, weight sums to fp tolerance; fold order is immaterial
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = random_bank(rng, m=2, c=2, shape=(3,), max_count=3, g_range=(-1, 1))
        b = random_bank(rng, m=3, c=2, shape=(2,), max_count=3, g_range=(-1, 1))
        c = random_bank(rng, m=2, c=3, shape=(2,), max_count=3, g_range=(-1, 1))
        left = composite_convolve(composite_convolve(a, b), c)
        right = composite_convolve(a, composite_convolve(b, c))
        report = compare_banks(left, right, tol=1e-9)
        assert report.count_mismatches == 0
        assert report.passed, report


@pytest.fixture
def windowed(monkeypatch):
    """Record (dtype, product count, rows of the flipped operand) of every np.matmul call.

    The dtype and product count are the windowed operand's, gathered as
    (products, c, depth, columns), each product batched over the c
    channels; the flipped operand has one row per output filter, or one
    for a shared count grid.
    """
    seen = []
    matmul = np.matmul

    def spy(x, y, out=None):
        seen.append((y.dtype, y.shape[0], x.shape[0]))
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


@pytest.mark.parametrize("count_type", ["float64", "int64", "object"])
def test_composite_row_chunks_are_bit_equal_to_one_chunk(monkeypatch, windowed, count_type):
    # a (2, 2, 4x3) is windowed with b's 5x2 grid; its 8 output rows gather
    # 160 entries each, so a 500-entry cap gives chunks of 3, 3 and 2 rows
    # and a 1-entry cap one chunk per row, where a product is no wider.
    # A row's product is 3 x 20 x 4 = 240 multiply-adds.
    rng = np.random.default_rng(16)
    shape_a, shape_b = (2, 2, 4, 3), (3, 2, 5, 2)
    if count_type == "float64":
        sa, sb = rng.integers(1, 4, shape_a), rng.integers(1, 4, shape_b)
    elif count_type == "int64":
        # bound 2**52 * 16 terms; counts that vary by member take the full
        # count contraction, which uniform ones would skip
        sa, sb = (2**24 * rng.choice([3, 4], shape) for shape in (shape_a, shape_b))
    else:
        # bound 2**62 * 16 terms; the largest true count is 2**62 + 1
        sa, sb = np.ones(shape_a, np.int64), np.ones(shape_b, np.int64)
        sa[0, :, 0, 0] = sb[:, 0, 0, 0] = 2**31
    # g = s * j / 8 keeps every T product and partial sum exact in float64,
    # so no summation order can change a bit; the 2**31 counts get T = 0
    a, b = (Bank(s * np.where(s > 2**26, 4, rng.integers(0, 9, s.shape)) / 8, s) for s in (sa, sb))
    one_chunk = composite_convolve(a, b)
    # one product of all 8 rows in every chunk; products of the 2 rows
    # that divide 8 and fit in 3 rows' work, whole products per chunk; one
    # product per chunk
    chunks = {
        epitome._ONE_THREAD_WORK: {2**19: 1, 500: 1, 1: 1},
        3 * 240: {2**19: 1, 500: 4, 1: 4},
        0: {2**19: 1, 500: 3, 1: 8},
    }
    for one_thread_work, by_cap in chunks.items():
        monkeypatch.setattr(epitome, "_ONE_THREAD_WORK", one_thread_work)
        for cap, n in by_cap.items():
            monkeypatch.setattr(epitome, "_IM2COL_ENTRIES", cap)
            windowed.clear()
            assert composite_convolve(a, b) == one_chunk
            # one T and one count contraction per chunk
            assert np.dtype(count_type) in {dtype for dtype, *_ in windowed}
            assert len(windowed) == 2 * n
            products = sum(n for _, n, _ in windowed) // 2
            assert products == {epitome._ONE_THREAD_WORK: 1, 3 * 240: 4, 0: n}[one_thread_work]
    ref = reference_composite(a, b)
    assert np.array_equal(ref.s, one_chunk.s)
    assert compare_banks(ref, one_chunk, tol=1e-12).passed


def test_composite_row_chunks_do_not_change_general_float_data(monkeypatch):
    # while a row's product is small, every output row is its own matrix
    # product, whatever the chunk size, so g comes back bit-equal even
    # where T products round
    rng = np.random.default_rng(18)
    for shape_a, shape_b in (((3, 2, 7), (4, 3, 5)), ((2, 3, 6, 5), (4, 2, 3, 4)),
                             ((2, 1, 4, 3, 3), (3, 2, 2, 3, 2))):
        sa, sb = rng.integers(1, 5, shape_a), rng.integers(1, 5, shape_b)
        a, b = (Bank(s * rng.uniform(-1, 1, s.shape), s) for s in (sa, sb))
        one_chunk = composite_convolve(a, b)
        for cap in (200, 1):
            monkeypatch.setattr(epitome, "_IM2COL_ENTRIES", cap)
            assert composite_convolve(a, b) == one_chunk
        monkeypatch.undo()


def test_composite_count_bound_is_the_true_overlap(windowed):
    # a's 3x3 grid is windowed with b's 6x6 grid, but an output entry sums
    # at most k * 3 * 3 = 18 terms, not k * 36: counts 2**24 x 2**24 are
    # still contracted in float64, and come back exact
    rng = np.random.default_rng(17)
    sa, sb = np.full((2, 1, 3, 3), 2**24), np.full((4, 2, 6, 6), 2**24)
    a = Bank(sa * rng.uniform(0, 1, sa.shape), sa)
    b = Bank(sb * rng.uniform(0, 1, sb.shape), sb)
    fast = composite_convolve(a, b)
    assert {dtype for dtype, *_ in windowed} == {np.dtype(np.float64)}
    ref = reference_composite(a, b)
    assert ref.s.max() == 2**48 * 18
    assert np.array_equal(ref.s, fast.s)
    assert compare_banks(ref, fast, tol=1e-12).passed


def test_member_uniform_counts_are_one_read_only_grid():
    rng = np.random.default_rng(19)
    grid = rng.integers(1, 5, (1, 1, 3, 4))
    g = rng.uniform(0, 1, (2, 3, 3, 4))
    dense = np.tile(grid, (2, 3, 1, 1))
    twin = Bank(g, dense)
    # dense counts are compared once; a broadcast is read from its strides
    for s in (dense, np.broadcast_to(grid, g.shape)):
        b = Bank(g, s)
        assert b.s.shape == g.shape and b.s.dtype == np.int64
        assert b.s.strides[:2] == (0, 0)
        assert b.s.base.shape == (1, 1, 3, 4)
        assert not b.s.flags.writeable and not b.s.base.flags.writeable
        assert np.array_equal(b.s, dense) and b == twin
    grid[0, 0, 0, 0] += 1
    assert np.array_equal(twin.s, dense)
    dense[1, 2, 0, 0] += 1
    assert Bank(g, dense).s.strides[:2] != (0, 0)


def test_shared_counts_contract_once(windowed):
    rng = np.random.default_rng(20)
    a = random_bank(rng, m=3, c=2, shape=(4, 3), max_count=3)
    b = random_bank(rng, m=4, c=3, shape=(2, 3), max_count=3)
    # per-member counts: T and counts both contract with b's 4 filters
    out = composite_convolve(a, b)
    assert {rows for *_, rows in windowed} == {4}
    ref = reference_composite(a, b)
    assert np.array_equal(ref.s, out.s)
    assert compare_banks(ref, out, tol=1e-12).passed
    # the same g over one count grid each: the count product has one row,
    # and the result's counts are one grid too
    a, b = (Bank(x.g, np.broadcast_to(x.s[:1, :1], x.s.shape)) for x in (a, b))
    windowed.clear()
    out = composite_convolve(a, b)
    assert sorted(rows for *_, rows in windowed) == [1, 4]
    assert out.s.strides[:2] == (0, 0)
    ref = reference_composite(a, b)
    assert np.array_equal(ref.s, out.s)
    assert compare_banks(ref, out, tol=1e-12).passed


def test_shared_counts_past_int64_raise(windowed):
    # 3 contracted members times 2 overlapping terms of 2**31 * 2**31
    a = Bank(np.zeros((3, 1, 2)), np.full((3, 1, 2), 2**31))
    b = Bank(np.zeros((2, 3, 2)), np.full((2, 3, 2), 2**31))
    with pytest.raises(CountOverflowError, match=str(6 * 2**62)):
        composite_convolve(a, b)
    # the count grid was contracted once, in Python ints
    assert [rows for dtype, _, rows in windowed if dtype == object] == [1]


@pytest.mark.parametrize(
    "peak, count_type",
    [(2**50 - 1, np.float64), (2**50, np.int64), (2**60 - 1, np.int64), (2**60, object)],
)
def test_member_counts_at_the_count_type_edges(windowed, peak, count_type):
    # the count bound is peak * max(sb) = 2 times 4 terms (2 contracted
    # members, 2 overlapping entries): 2**53 - 8, 2**53, 2**63 - 8, 2**63.
    # Counts vary by member, so both banks contract their own arrays.
    sa = np.array([[[peak, 3]], [[2, 1]]])
    sb = np.array([[[2, 1], [1, 1]], [[1, 1], [1, 2]]])
    rng = np.random.default_rng(21)
    a, b = (Bank(s * rng.uniform(0, 1, s.shape), s) for s in (sa, sb))
    out = composite_convolve(a, b)
    # T in float64, counts in the type the bound allows, both with b's 2 filters
    assert {dtype for dtype, *_ in windowed} == {np.dtype(np.float64), np.dtype(count_type)}
    assert [rows for *_, rows in windowed] == [2, 2]
    ref = reference_composite(a, b)
    assert ref.s.max() == 2 * peak + 2
    assert np.array_equal(ref.s, out.s)
    assert compare_banks(ref, out, tol=1e-9).passed


def test_member_counts_past_int64_raise(windowed):
    # output (0, 0) at the centre sums 2**62 + 2**62 over k = 0 and
    # 2**62 + 2**31 over k = 1
    sa = np.array([[[2**31, 2**31]], [[2**31, 1]]])
    sb = np.array([[[2**31, 2**31], [2**31, 2**31]], [[1, 1], [1, 1]]])
    a, b = (Bank(np.zeros(s.shape), s) for s in (sa, sb))
    with pytest.raises(CountOverflowError, match=f"summand count {3 * 2**62 + 2**31} exceeds"):
        composite_convolve(a, b)
    # the per-member counts were contracted with b's 2 filters, in Python ints
    assert [rows for dtype, _, rows in windowed if dtype == object] == [2]


@pytest.fixture
def prefix_sums(monkeypatch):
    """Record the dtype of every np.cumsum call: the box-sum counts' prefix sums."""
    seen = []
    cumsum = np.cumsum

    def spy(x, **kwargs):
        seen.append(np.dtype(kwargs["dtype"]))
        return cumsum(x, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    return seen


@pytest.mark.parametrize("peak, count_type", [(2**62 - 1, np.int64), (2**62, object)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_box_sum_counts_at_the_int64_edge(prefix_sums, side, peak, count_type):
    # one operand's counts are all 1, so the output counts are the other's
    # box sums: [peak, 2 * peak, peak], whose prefix sums reach 2 * peak,
    # 2**63 - 2 in int64 or 2**63 in Python ints
    ones = Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2), dtype=np.int64))
    big = Bank(np.zeros((1, 1, 2)), np.full((1, 1, 2), peak))
    a, b = (ones, big) if side == "left" else (big, ones)
    if count_type is object:
        with pytest.raises(CountOverflowError, match=f"summand count {2**63} exceeds"):
            composite_convolve(a, b)
    else:
        out = composite_convolve(a, b)
        assert out.s.tolist() == [[[peak, 2 * peak, peak]]]
        assert np.array_equal(reference_composite(a, b).s, out.s)
    assert prefix_sums == [np.dtype(count_type)]


@pytest.mark.parametrize("half", [2**61 - 1, 2**61])
def test_windowed_apply_counts_at_the_int64_edge(half):
    # a normalized 2-channel input against a deep epitome whose members
    # all count `half`: the centre entry, which every crop keeps, counts
    # 4 * half, 2**63 - 4 in int64 or 2**63 in Python ints
    x = random_input(np.random.default_rng(24), channels=2, shape=(2,))
    s = np.full((1, 2, 2), half)
    deep = Bank(np.zeros((1, 2, 2)), s)
    for crop in ("same", "valid"):
        if half == 2**61:
            with pytest.raises(CountOverflowError, match=f"summand count {2**63} exceeds"):
                apply(x, deep, crop)
        else:
            assert int(apply(x, deep, crop).s.max()) == 4 * half
    # per-member counts take the same path: summed over k, then box-summed
    s[0, 1] -= 1
    deep = Bank(np.zeros((1, 2, 2)), s)
    assert np.array_equal(apply(x, deep, "full").s, reference_composite(x, deep).s)


@pytest.mark.parametrize("fill", ["replicate", "fuzzy"])
@pytest.mark.parametrize("stride", [1, 2, 3, (1, 3), (3, 2)])
def test_layer_bank_taps_do_not_change_its_meaning(tmp_path, fill, stride):
    # a layer bank convolves through its taps; a plain Bank of the same g
    # and s convolves its resized grid.  Both mean the same bank.
    rng = np.random.default_rng(25)
    layer = LayerSpec("l", rng.uniform(0, 1, (3, 2, 2, 3)), stride)
    taps = layer_to_bank(layer, fill)
    plain = Bank(taps.g, taps.s)
    inputs = [random_input(rng, channels=2, shape=(5, 4))]
    inputs.append(random_bank(rng, m=2, c=3, shape=(4, 5), max_count=3, g_range=(0, 1)))
    right = random_bank(rng, m=2, c=3, shape=(3, 2), max_count=3, g_range=(0, 1))
    pairs = [((x, taps), (x, plain)) for x in inputs]
    pairs.append(((taps, right), (plain, right)))
    for (a, b), (twin_a, twin_b) in pairs:
        full = tuple(x + y - 1 for x, y in zip(a.spatial_shape, b.spatial_shape))
        # the window drops an entry at the low end and two at the high end
        for w in (None, tuple(slice(1, n - 2) for n in full)):
            twin = composite_convolve(twin_a, twin_b, w)
            report = compare_banks(twin, composite_convolve(a, b, w), 4 * np.finfo(float).eps)
            assert report.count_mismatches == 0 and report.passed, report
    # crops and files hold only g and s
    path = tmp_path / "layer.ghne"
    save_epitome(taps, path)
    loaded, cropped = load_epitome(path), crop_bank(taps, (1, 2), "same")
    assert loaded._taps is None and cropped._taps is None
    assert loaded == plain and cropped == crop_bank(plain, (1, 2), "same")


def test_layer_bank_contracts_its_taps(monkeypatch):
    # the gathered operand holds k * |K| rows, the taps of a 2x3 kernel,
    # not the 4x9 resized grid; the counts need no matrix product
    depths = []
    matmul = np.matmul

    def spy(x, y, out=None):
        depths.append((y.dtype, y.shape[-2]))
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(26)
    layer = LayerSpec("l", rng.uniform(0, 1, (8, 2, 2, 3)), (2, 3))
    x = random_input(rng, channels=2, shape=(6, 6))
    for fill in ("replicate", "fuzzy"):
        depths.clear()
        composite_convolve(x, layer_to_bank(layer, fill))
        assert set(depths) == {(np.dtype(np.float64), 2 * 6)}
    depths.clear()
    bank = layer_to_bank(layer)
    composite_convolve(x, Bank(bank.g, bank.s))
    assert set(depths) == {(np.dtype(np.float64), 2 * 36)}


# --- the kernel writes g once ----------------------------------------------


def _window_operands(swap, taps):
    # no swap: a 2x(4x3) input windowed with a layer's 2x2 taps, stride 2;
    # swap: a layer of 1x1 taps, stride (2, 1), is the kernel of a 3x(2x2)
    # bank, since c * |B| = 2 * 4 > m * |K| = 1
    rng = np.random.default_rng(27)
    if swap:
        layer = layer_to_bank(LayerSpec("l", rng.uniform(0, 1, (3, 2, 1, 1)), (2, 1)))
        pair = [layer, random_bank(rng, m=1, c=3, shape=(2, 2), max_count=3, g_range=(0, 1))]
    else:
        layer = layer_to_bank(LayerSpec("l", rng.uniform(0, 1, (3, 2, 2, 2)), 2))
        pair = [random_input(rng, channels=2, shape=(4, 3)), layer]
    if not taps:
        pair = [Bank(x.g, x.s) for x in pair]
    return pair


@pytest.mark.parametrize("taps", [True, False], ids=["taps", "plain"])
@pytest.mark.parametrize("swap", [False, True], ids=["as-is", "swapped"])
def test_composite_window_must_lie_in_the_full_output(monkeypatch, swap, taps):
    a, b = _window_operands(swap, taps)
    n0, n1 = (x + y - 1 for x, y in zip(a.spatial_shape, b.spatial_shape))
    whole = composite_convolve(a, b)
    # numpy integers are integers
    assert composite_convolve(a, b, (slice(0, n0), slice(np.int64(0), np.int64(n1)))) == whole
    assert composite_convolve(a, b, (slice(1, n0), slice(0, 1))).spatial_shape == (n0 - 1, 1)

    def kernel_ran(*args):
        raise AssertionError("the kernel ran before the window was checked")

    for name in ("_contract", "_tap_contract", "_counts"):
        monkeypatch.setattr(epitome, name, kernel_ran)
    bad = [
        ((slice(-1, n0), slice(0, n1)), f"axis 0 .* <= {n0}, the full extent$"),
        ((slice(0, n0 + 1), slice(0, n1)), f"axis 0 .* <= {n0}, the full extent$"),
        ((slice(0, n0), slice(2, 2)), f"axis 1 .* <= {n1}, the full extent$"),
        ((slice(0, n0), slice(3, 1)), f"axis 1 .* <= {n1}, the full extent$"),
        ((slice(0, n0, 2), slice(0, n1)), f"axis 0 .* <= {n0}, the full extent$"),
        ((slice(0, n0), slice(0.5, n1)), f"axis 1 .* <= {n1}, the full extent$"),
        ((slice(0, n0), slice(None)), f"axis 1 .* <= {n1}, the full extent$"),
        ((slice(0, n0), 3), f"axis 1 .* <= {n1}, the full extent$"),
        ((slice(0, n0),), rf"^window has 1 slices for the 2 axes of the full output \({n0}, {n1}\)$"),
        ((slice(0, n0),) * 3, rf"^window has 3 slices for the 2 axes of the full output \({n0}, {n1}\)$"),
    ]
    for window, message in bad:
        with pytest.raises(ValueError, match=message):
            composite_convolve(a, b, window)


@pytest.mark.parametrize("one_thread_work", [epitome._ONE_THREAD_WORK, 0], ids=["rows", "chunk"])
def test_contract_scales_by_minus_half_exactly(monkeypatch, one_thread_work):
    # -1/2 on the kernel side scales every product and partial sum by a
    # power of two, so g comes out bit for bit as (s - T) / 2 did
    monkeypatch.setattr(epitome, "_ONE_THREAD_WORK", one_thread_work)
    rng = np.random.default_rng(28)
    for rank in (1, 2, 3, 1, 2, 3):
        k, c, m = rng.integers(1, 5, 3)
        grid_a, grid_b = (tuple(rng.integers(1, 7 - rank, rank)) for _ in range(2))
        step = tuple(rng.integers(1, 3, rank))
        ta = rng.uniform(-3, 3, (k, c) + grid_a)
        tb = rng.uniform(-3, 3, (m, k) + grid_b)
        window = tuple(slice(0, x + (y - 1) * d) for x, y, d in zip(grid_a, grid_b, step))
        half = epitome._contract(ta, -0.5 * tb, window, np.float64, step)
        assert np.array_equal(half, -0.5 * epitome._contract(ta, tb, window, np.float64, step))


def test_products_of_several_rows_are_bit_equal_across_chunk_caps(monkeypatch):
    # a row's product is 16 x 100 x 44 multiply-adds, so 4 of the 44 rows
    # make a product, and every cap gathers whole products
    rng = np.random.default_rng(29)
    a = random_bank(rng, m=4, c=1, shape=(40, 40), max_count=3, g_range=(0, 1))
    b = random_bank(rng, m=16, c=4, shape=(5, 5), max_count=3, g_range=(0, 1))
    expected = composite_convolve(a, b)
    for cap in (2**19, 500, 1):
        monkeypatch.setattr(epitome, "_IM2COL_ENTRIES", cap)
        assert composite_convolve(a, b) == expected
    ref = reference_composite(a, b)
    assert np.array_equal(ref.s, expected.s)
    assert compare_banks(ref, expected, tol=1e-12).passed


def test_t_products_land_in_the_result(monkeypatch):
    targets = []
    matmul = np.matmul

    def spy(x, y, out=None):
        targets.append(out)
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(30)
    deep = random_bank(rng, m=3, c=2, shape=(4, 3), max_count=3, g_range=(0, 1))
    swapped_input = normalized_input(rng, 1, 4, (5, 6))
    swapped_deep = random_bank(rng, m=1, c=1, shape=(4, 2), max_count=3, g_range=(0, 1))
    first = LayerSpec("a", rng.uniform(0, 1, (4, 2, 3, 3)))
    strided = Model([first, LayerSpec("b", rng.uniform(0, 1, (3, 4, 2, 2)), 2)])
    plain = Model([first, LayerSpec("b", rng.uniform(0, 1, (3, 4, 2, 2)))])
    # counts against normalized inputs and layers are box sums, so every
    # product is a T product; the fuzzy fill of a strided layer assigns
    # its product into a larger array instead, for the zero tail
    runs = [
        lambda: apply(normalized_input(rng, 2, 1, (9, 8)), deep, "same"),
        lambda: apply(normalized_input(rng, 2, 1, (9, 8)), deep, "full"),
        lambda: apply(swapped_input, swapped_deep, "valid"),
        lambda: collapse(strided).bank,
        lambda: collapse(plain, fill="fuzzy").bank,
    ]
    for run in runs:
        targets.clear()
        out = run()
        assert targets and all(t is not None and np.shares_memory(t, out.g) for t in targets)


def test_apply_peak_memory_is_one_chunk_and_the_result():
    # an rgb-shaped 16x3x8x8 deep epitome on a 3x64x64 input gathers two
    # chunks; holding the first while the second was gathered took the
    # traced peak from 4.8 to 6.9 MiB
    rng = np.random.default_rng(31)
    x = normalized_input(rng, 3, 1, (64, 64))
    grid = np.full((1, 1, 8, 8), 9, dtype=np.int64)
    deep = Bank(rng.uniform(0, 9, (16, 3, 8, 8)), np.broadcast_to(grid, (16, 3, 8, 8)))
    tracemalloc.start()
    try:
        out = apply(x, deep, "same")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = 8 * epitome._IM2COL_ENTRIES
    assert peak < chunk + out.g.nbytes + x.g.nbytes + 512 * 1024


def test_convolution_result_keeps_the_checks_it_needs():
    layer = LayerSpec("a", [[[1e308, -1e308]]])
    bank = layer_to_bank(layer)
    with pytest.raises(ValueError, match="^non-finite g value in bank$"):
        composite_convolve(bank, layer_to_bank(LayerSpec("b", layer.weights)))
    rng = np.random.default_rng(32)
    out = composite_convolve(random_input(rng, 2, (4, 3)), random_bank(rng, 3, 2, (2, 2)))
    for x in (out.g, out.s):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0, 0, 0] = 1


# --- effective shape and collapse -------------------------------------------


def test_effective_shape_closed_form():
    layers = [
        LayerSpec("a", np.zeros((2, 1, 5, 5)), 1),
        LayerSpec("b", np.zeros((2, 2, 5, 5)), 2),
        LayerSpec("c", np.zeros((2, 2, 5, 5)), 2),
    ]
    assert effective_shape(layers) == (23, 23)
    assert effective_shape(layers[:1]) == (5, 5)
    assert effective_shape(layers[:2]) == (14, 14)
    with pytest.raises(ValueError, match="^no layers$"):
        effective_shape([])


def test_effective_shape_growth_tables():
    # three architectures with known per-depth collapsed extents
    tables = [
        ([(5, 1), (5, 2), (5, 2)], [5, 14, 23]),
        ([(3, 1), (3, 1), (5, 2), (5, 2)], [3, 5, 14, 23]),
        (
            [(3, 1), (5, 2), (5, 1), (5, 1), (5, 1), (5, 1), (5, 2)],
            [3, 12, 16, 20, 24, 28, 37],
        ),
    ]
    for arch, expected in tables:
        layers = [
            LayerSpec(f"l{i}", np.zeros((1, 1, k, k)), s)
            for i, (k, s) in enumerate(arch)
        ]
        got = [effective_shape(layers[: d + 1])[0] for d in range(len(layers))]
        assert got == expected


def test_collapse_single_layer_is_layer_bank():
    model = small_model()
    deep = collapse(model, upto_layer=1)
    assert deep.collapsed_layers == (1, 1)
    assert deep.bank == layer_to_bank(model.layers[0])


def test_collapse_shapes_and_metadata():
    model = small_model()
    deep = collapse(model)
    assert deep.collapsed_layers == (1, 2)
    assert deep.effective_shape == (6, 6)  # 3 + (2*2 - 1)
    assert deep.bank.spatial_shape == (6, 6)
    assert (deep.bank.m, deep.bank.c) == (2, 1)


def test_collapse_prefix_then_rest_matches_full():
    rng = np.random.default_rng(9)
    model = random_model(rng, max_layers=3, max_channels=3, max_kernel=3)
    while len(model) < 3:
        model = random_model(rng, max_layers=3, max_channels=3, max_kernel=3)
    full = collapse(model)
    prefix = collapse(model, upto_layer=2)
    rest = composite_convolve(prefix.bank, layer_to_bank(model.layers[2]))
    report = compare_banks(full.bank, rest, tol=1e-9)
    assert report.count_mismatches == 0 and report.passed


def test_collapse_tail_range():
    model = small_model()
    tail = collapse(model, first_layer=2)
    assert tail.collapsed_layers == (2, 2)
    assert tail.bank == layer_to_bank(model.layers[1])


def test_collapse_range_validation():
    model = small_model()
    with pytest.raises(ValueError):
        collapse(model, upto_layer=3)
    with pytest.raises(ValueError):
        collapse(model, first_layer=0)
    with pytest.raises(ValueError):
        collapse(model, first_layer=2, upto_layer=1)


def test_collapse_count_totals_law():
    # every member's total count is K1 * prod(C_i * K_i) over later layers,
    # with K the resized kernel entry count
    rng = np.random.default_rng(10)
    model = random_model(rng, max_layers=3, max_channels=3, max_kernel=3)
    deep = collapse(model)
    expected = int(np.prod(model.layers[0].resized_extents()))
    for layer in model.layers[1:]:
        expected *= layer.in_channels * int(np.prod(layer.resized_extents()))
    totals = deep.bank.s.sum(axis=tuple(range(2, deep.bank.s.ndim)))
    assert np.all(totals == expected)


def _seeded_stack(widths, kernel):
    # stride-1 square kernels, seed-0 weights in [0, 1]
    rng = np.random.default_rng(0)
    return Model(
        LayerSpec(f"conv{i + 1}", rng.uniform(0, 1, (w_out, w_in, kernel, kernel)), 1)
        for i, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
    )


def test_collapse_count_overflow_on_deep_1x1_stack():
    # the one count is 5**28 > 2**63, which an int64 contraction wraps silently
    with pytest.raises(CountOverflowError, match=str(5**28)):
        collapse(_seeded_stack([1] + [5] * 29, 1))


def test_layered_forward_count_overflow_on_deep_1x1_stack():
    # the reference's int64 counts wrapped this 5**28 to 359414837200037393
    x = Bank(np.full((1, 1, 1, 1), 0.5), np.ones((1, 1, 1, 1), dtype=np.int64))
    with pytest.raises(CountOverflowError, match=str(5**28)):
        layered_forward(_seeded_stack([1] + [5] * 29, 1), x)


def test_collapse_count_overflow_on_wide_3x3_stack():
    # an int64 contraction wraps these counts negative ("must be >= 1")
    with pytest.raises(CountOverflowError, match="exceeds the int64 maximum"):
        collapse(_seeded_stack([1] + [64] * 9, 3))


def test_collapse_count_just_below_int64_is_exact():
    # centre count 64**7 * 1107**2, where 1107 is the centre of (1 + x + x**2)**8
    deep = collapse(_seeded_stack([1] + [64] * 8, 3))
    assert int(deep.bank.s.max()) == int(deep.bank.s[0, 0, 8, 8]) == 64**7 * 1107**2


def test_deep_epitome_validates_shape():
    b = Bank(np.zeros((1, 1, 4)), np.ones((1, 1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        DeepEpitome(b, (1, 1), (5,))
    with pytest.raises(ValueError):
        DeepEpitome(b, (2, 1), (4,))


# --- apply and cropping -----------------------------------------------------


def test_apply_crop_shapes():
    rng = np.random.default_rng(11)
    layers = [
        LayerSpec("a", rng.uniform(0, 1, (2, 1, 5, 5)), 1),
        LayerSpec("b", rng.uniform(0, 1, (2, 2, 5, 5)), 2),
        LayerSpec("c", rng.uniform(0, 1, (2, 2, 5, 5)), 2),
    ]
    deep = collapse(Model(layers))
    x = random_input(rng, channels=1, shape=(28, 28))
    assert apply(x, deep, "full").spatial_shape == (50, 50)
    assert apply(x, deep, "same").spatial_shape == (28, 28)
    assert apply(x, deep, "valid").spatial_shape == (6, 6)


def test_apply_accepts_bare_bank():
    rng = np.random.default_rng(12)
    model = small_model()
    deep = collapse(model)
    x = random_input(rng, channels=1, shape=(9, 9))
    via_deep = apply(x, deep)
    via_bank = apply(x, deep.bank)
    assert via_deep == via_bank


def test_apply_rejects_unnormalized_input():
    model = small_model()
    deep = collapse(model)
    g = np.zeros((1, 1, 9, 9))
    s = np.full((1, 1, 9, 9), 2, dtype=np.int64)
    with pytest.raises(ValueError, match="normalized"):
        apply(Bank(g, s), deep)


def test_apply_rejects_channel_mismatch():
    rng = np.random.default_rng(13)
    deep = collapse(small_model())
    x = random_input(rng, channels=3, shape=(9, 9))
    with pytest.raises(ValueError, match="m=3"):
        apply(x, deep)


@pytest.mark.parametrize("crop", ["full", "same", "valid"])
def test_apply_rejects_rank_mismatch_before_cropping(crop):
    x = random_input(np.random.default_rng(23), channels=1, shape=(9, 9))
    deep = Bank(np.full((2, 1, 3), 0.5), np.ones((2, 1, 3), dtype=np.int64))
    with pytest.raises(ValueError) as exc:
        apply(x, deep, crop)
    assert str(exc.value) == "spatial rank mismatch: 2 vs 1"


def test_apply_valid_too_small_errors():
    rng = np.random.default_rng(14)
    deep = collapse(small_model())  # 6x6 deep epitome
    x = random_input(rng, channels=1, shape=(4, 4))
    with pytest.raises(ValueError, match="valid"):
        apply(x, deep, "valid")


def test_apply_same_matches_center_of_full():
    rng = np.random.default_rng(15)
    deep = collapse(small_model())
    x = random_input(rng, channels=1, shape=(10, 10))
    full = apply(x, deep, "full")
    assert crop_bank(full, (15, 15), "full") == full
    # a window narrows each row's matrix product, which may round g in the
    # last bit; counts are exact either way
    for mode, target in (("same", (10, 10)), ("valid", (5, 5))):
        windowed = apply(x, deep, mode)
        cropped = crop_bank(full, target, mode)
        assert np.array_equal(windowed.s, cropped.s)
        np.testing.assert_allclose(windowed.g, cropped.g, rtol=2 * np.finfo(float).eps, atol=0)


def normalized_input(rng, m, c, shape):
    g = rng.uniform(0.0, 1.0, size=(m, c) + tuple(shape))
    return Bank(g, np.ones(g.shape, dtype=np.int64))


# (input m, input c, input grid), (deep m, deep grid); the deep epitome's c
# is the input's m
CROP_CASES = {
    "rank1-odd-margin": ((1, 1, (9,)), (2, (4,))),
    "rank2-odd-margins": ((1, 1, (8, 7)), (3, (4, 3))),
    "rank3": ((2, 1, (5, 6, 4)), (2, (2, 3, 2))),
    # c * |B| > m * |A|: the deep epitome is windowed with the input's grid
    "swapped": ((1, 4, (5, 6)), (1, (4, 2))),
    "tiny-input-wide-deep": ((1, 1, (2, 1)), (3, (9, 8))),
}


@pytest.mark.parametrize("shared", [False, True], ids=["member-counts", "shared-counts"])
@pytest.mark.parametrize("case", CROP_CASES)
def test_apply_every_crop_matches_cropped_reference(case, shared):
    (k, c, grid_a), (m, grid_b) = CROP_CASES[case]
    rng = np.random.default_rng(21)
    x = normalized_input(rng, k, c, grid_a)
    deep = random_bank(rng, m, k, grid_b, max_count=3, g_range=(0, 1))
    if shared:
        deep = Bank(deep.g, np.broadcast_to(deep.s[:1, :1], deep.s.shape))
    full = reference_composite(x, deep)
    targets = {
        "full": full.spatial_shape,
        "same": grid_a,
        "valid": tuple(n - d + 1 for n, d in zip(grid_a, grid_b)),
    }
    for mode, target in targets.items():
        if min(target) < 1:
            with pytest.raises(ValueError, match="^valid crop is empty"):
                apply(x, deep, mode)
            continue
        out = apply(x, deep, mode)
        assert out.spatial_shape == target
        report = compare_banks(crop_bank(full, target, mode), out, tol=1e-9)
        assert report.count_mismatches == 0 and report.passed, (mode, report)


@pytest.mark.parametrize("case", ["rank2-odd-margins", "swapped", "tiny-input-wide-deep"])
def test_windowed_apply_is_bit_equal_across_chunk_caps(monkeypatch, case):
    # every row is its own product at these sizes, so the chunk size
    # cannot change a bit of a windowed output
    (k, c, grid_a), (m, grid_b) = CROP_CASES[case]
    rng = np.random.default_rng(22)
    x = normalized_input(rng, k, c, grid_a)
    deep = random_bank(rng, m, k, grid_b, max_count=3, g_range=(0, 1))
    expected = apply(x, deep, "same")
    for cap in (2**19, 500, 1):
        monkeypatch.setattr(epitome, "_IM2COL_ENTRIES", cap)
        assert apply(x, deep, "same") == expected


def test_crop_to_own_shape_is_the_bank_itself():
    b = Bank(np.zeros((1, 1, 5)), np.ones((1, 1, 5), dtype=np.int64))
    assert crop_bank(b, (5,), "same") is b
    assert crop_bank(b, (5,), "valid") is b


def test_crop_target_must_be_integers():
    b = Bank(np.zeros((1, 1, 5, 5)), np.ones((1, 1, 5, 5), dtype=np.int64))
    with pytest.raises(ValueError, match=r"^crop target must be integers, got \(2\.5, 3\)$"):
        crop_bank(b, (2.5, 3), "same")
    assert crop_bank(b, np.array([2, 3]), "same").spatial_shape == (2, 3)


def test_crop_full_is_identity():
    b = Bank(np.zeros((1, 1, 5)), np.ones((1, 1, 5), dtype=np.int64))
    assert crop_bank(b, (3,), "full") is b


def test_crop_tie_break_drops_high_side():
    # 6 -> 3: margin 3, low side gets 1, so 0-based entries 1..3 survive
    g = np.arange(6, dtype=float).reshape(1, 1, 6)
    b = Bank(g, np.ones((1, 1, 6), dtype=np.int64))
    out = crop_bank(b, (3,))
    assert np.array_equal(out.g[0, 0], [1.0, 2.0, 3.0])


def test_crop_even_margin_centers():
    g = np.arange(7, dtype=float).reshape(1, 1, 7)
    b = Bank(g, np.ones((1, 1, 7), dtype=np.int64))
    out = crop_bank(b, (3,))
    assert np.array_equal(out.g[0, 0], [2.0, 3.0, 4.0])


def test_crop_validation():
    b = Bank(np.zeros((1, 1, 4)), np.ones((1, 1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        crop_bank(b, (5,))
    with pytest.raises(ValueError):
        crop_bank(b, (0,))
    with pytest.raises(ValueError):
        crop_bank(b, (2, 2))
    with pytest.raises(ValueError):
        crop_bank(b, (2,), "center")


def test_apply_and_crop_bank_reject_unknown_mode_alike():
    rng = np.random.default_rng(16)
    deep = collapse(small_model())
    x = random_input(rng, channels=1, shape=(9, 9))
    full = composite_convolve(x, deep.bank)
    message = "unknown crop mode 'bogus', expected one of ('full', 'same', 'valid')"
    with pytest.raises(ValueError) as via_apply:
        apply(x, deep, "bogus")
    with pytest.raises(ValueError) as via_crop:
        crop_bank(full, (9, 9), "bogus")
    assert str(via_apply.value) == str(via_crop.value) == message


def test_apply_full_is_the_composite_convolution():
    rng = np.random.default_rng(17)
    deep = collapse(small_model())
    x = random_input(rng, channels=1, shape=(9, 9))
    assert apply(x, deep, "full") == composite_convolve(x, deep.bank)


# --- bank stats -------------------------------------------------------------


def test_bank_stats_structure():
    rng = np.random.default_rng(16)
    b = random_bank(rng, m=2, c=3, shape=(4,), g_range=(0, 1), max_count=1)
    report = bank_stats(b, bins=4)
    assert report.bins == 4
    assert len(report.members) == 6
    assert report.members[0].filter_index == 0
    assert report.members[0].channel_index == 0
    assert report.members[-1].filter_index == 1
    assert report.members[-1].channel_index == 2
    assert report.aggregate.filter_index is None
    # every histogram conserves its member's entry count
    for ms in report.members:
        assert ms.histogram.counts.sum() == 4
    assert report.aggregate.histogram.counts.sum() == 24


def test_bank_stats_shared_edges():
    b = Bank([[[0.0, 1.0]], [[0.25, 0.5]]], np.ones((2, 1, 2), dtype=np.int64))
    report = bank_stats(b, bins=2)
    edges = report.members[0].histogram.bin_edges
    for ms in report.members[1:]:
        assert np.array_equal(ms.histogram.bin_edges, edges)
    assert edges[0] == 0.0 and edges[-1] == 1.0


def test_bank_stats_constant_bank():
    b = Bank(np.full((2, 1, 3), 0.5), np.ones((2, 1, 3), dtype=np.int64))
    report = bank_stats(b, bins=3)
    assert report.aggregate.fuzziness == pytest.approx(0.5)
    for ms in report.members:
        assert ms.fuzziness == pytest.approx(0.5)
        assert ms.histogram.counts.sum() == 3


def test_bank_stats_explicit_range():
    b = Bank([[[0.2, 0.4]]], np.ones((1, 1, 2), dtype=np.int64))
    report = bank_stats(b, bins=2, value_range=(0.0, 1.0))
    assert report.members[0].histogram.bin_edges[0] == 0.0
    assert report.members[0].histogram.bin_edges[-1] == 1.0


def test_bank_stats_validation():
    b = Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        bank_stats(b, bins=0)
    with pytest.raises(ValueError):
        bank_stats(b, bins=2, value_range=(1.0, 1.0))


@pytest.mark.parametrize(
    "g, value_range, message",
    [
        # the data's own range spans past float64's maximum
        ([-1.5e308, 1.5e308], None, r"histogram range \(-1.5e\+308, 1.5e\+308\) is wider"),
        ([0.0, 1.0], (-1e308, 1e308), r"histogram range \(-1e\+308, 1e\+308\) is wider"),
        # 2u(1-u) of 1e200 overflows
        ([0.0, 1e200], None, r"^fuzziness overflows float64: \|g/s\| reaches 1e\+200$"),
    ],
)
def test_bank_stats_past_float64_range_is_named(g, value_range, message):
    b = Bank([[g]], np.ones((1, 1, 2), dtype=np.int64))
    with pytest.raises(ValueError, match=message):
        bank_stats(b, bins=2, value_range=value_range)
