"""Banks, stride resizing, composite convolution, collapse, apply."""

import functools
import gc
import math
import tracemalloc
import weakref

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
    banks,
    crop_bank,
    effective_counts,
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


def test_bank_is_normalized_reads_factors_or_scans():
    g = np.zeros((2, 3, 4, 5))
    ones, twos = np.ones(g.shape, dtype=np.int64), np.full(g.shape, 2)
    one_two = ones.copy()
    one_two[1, 2, 3, 4] = 2
    checkered = np.broadcast_to(1 + np.indices((4, 5)).sum(0) % 2, g.shape)
    # the first two hold factors, whose peak answers; the others are scanned
    for s, factored, normalized in (
        (ones, True, True),
        (twos, True, False),
        (one_two, False, False),
        (checkered, False, False),
    ):
        b = Bank(g, s)
        assert (b._factors is not None) == factored
        assert b.is_normalized == normalized == bool(np.all(b.s == 1))


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
    # convolve is this one-member call, so the member-by-member reference
    # checks the result too
    rng = np.random.default_rng(2)
    x = Epitome(rng.uniform(-1, 1, 4), rng.integers(1, 4, 4))
    y = Epitome(rng.uniform(-1, 1, 3), rng.integers(1, 4, 3))
    one = (np.newaxis, np.newaxis)
    a, b = Bank(x.g[one], x.s[one]), Bank(y.g[one], y.s[one])
    out = composite_convolve(a, b)
    assert out.member(0, 0) == convolve(x, y)
    reference = reference_composite(a, b)
    assert np.array_equal(out.s, reference.s)
    assert np.allclose(out.g, reference.g, rtol=0, atol=1e-12)


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
    channels; the flipped operand has one row per output filter.
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
    # at most k * 3 * 3 = 18 terms, not k * 36: per-member counts up to
    # 2**29 x 2**29 are still contracted in int64 (18 * 2**58 < 2**63 <
    # 72 * 2**58), and come back exact
    rng = np.random.default_rng(17)
    sa, sb = np.full((2, 1, 3, 3), 2**29), np.full((4, 2, 6, 6), 2**29)
    sa[1] -= 1
    a = Bank(sa * rng.uniform(0, 1, sa.shape), sa)
    b = Bank(sb * rng.uniform(0, 1, sb.shape), sb)
    assert a._factors is None
    fast = composite_convolve(a, b)
    assert {dtype for dtype, *_ in windowed} == {np.dtype(np.float64), np.dtype(np.int64)}
    ref = reference_composite(a, b)
    assert ref.s.max() == 18 * 2**58 - 9 * 2**29
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
    assert np.array_equal(ref.s, out.s) and out.s.strides[:2] != (0, 0)
    assert compare_banks(ref, out, tol=1e-12).passed
    # the same g over one separable count grid each: both banks hold it as
    # factors, whose 1-D profiles are convolved once, so the only product is
    # T's, and the result's counts are one grid with factors too
    separable = (2 * np.multiply.outer([1, 3, 2, 1], [2, 1, 1]), np.multiply.outer([1, 2], [1, 1, 3]))
    a, b = (Bank(x.g, np.broadcast_to(grid, x.s.shape)) for x, grid in zip((a, b), separable))
    assert a._factors.weight == 2 and b._factors.weight == 1
    # a shared grid that does not factor, a checkerboard of 1s and 2s, is
    # contracted as the member arrays it is broadcast to; the counts that
    # contraction gives every member are equal, so they are stored once too
    checkered = Bank(b.g, np.broadcast_to(1 + np.indices((2, 3)).sum(0) % 2, b.s.shape))
    assert checkered._factors is None
    for b, products in ((b, [4]), (checkered, [4, 4])):
        windowed.clear()
        out = composite_convolve(a, b)
        assert [rows for *_, rows in windowed] == products
        factored = out._factors is not None
        assert factored == (products == [4]) and out.s.strides[:2] == (0, 0)
        # the one grid is all the memory the counts keep alive
        held = out.s
        while held.base is not None:
            held = held.base
        assert held.nbytes == out.s[0, 0].nbytes
        ref = reference_composite(a, b)
        assert np.array_equal(ref.s, out.s)
        assert compare_banks(ref, out, tol=1e-12).passed


def test_shared_counts_past_int64_raise(windowed):
    # 3 contracted members times 2 overlapping terms of 2**31 * 2**31
    a = Bank(np.zeros((3, 1, 2)), np.full((3, 1, 2), 2**31))
    b = Bank(np.zeros((2, 3, 2)), np.full((2, 3, 2), 2**31))
    with pytest.raises(CountOverflowError, match=str(6 * 2**62)):
        composite_convolve(a, b)
    # both banks hold their counts as factors, which named the count
    # before any product ran
    assert a._factors.weight == b._factors.weight == 2**31
    assert windowed == []


@pytest.mark.parametrize(
    "peak, count_type", [(2**50, np.int64), (2**60 - 1, np.int64), (2**60, object)]
)
def test_member_counts_at_the_count_type_edges(windowed, peak, count_type):
    # the count bound is peak * max(sb) = 2 times 4 terms (2 contracted
    # members, 2 overlapping entries): 2**53, 2**63 - 8, 2**63.
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


@pytest.mark.parametrize("peak, count_type", [(2**62 - 1, np.int64), (2**62, object)])
@pytest.mark.parametrize("side", ["left", "right"])
def test_box_sum_counts_at_the_int64_edge(windowed, side, peak, count_type):
    # one operand's counts are all 1, so the output counts are the other's
    # box sums: [peak, 2 * peak, peak], whose largest, 2 * peak, is
    # 2**63 - 2, an int64, or 2**63, which takes Python ints.  Both banks
    # hold their counts as factors, so the counts come from 1-D profiles
    ones = Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2), dtype=np.int64))
    big = Bank(np.zeros((1, 1, 2)), np.full((1, 1, 2), peak))
    assert big._factors.weight == peak and big._factors.profiles[0].tolist() == [1, 1]
    a, b = (ones, big) if side == "left" else (big, ones)
    if count_type is object:
        with pytest.raises(CountOverflowError, match=f"summand count {2**63} exceeds"):
            composite_convolve(a, b)
        # named before any product
        assert windowed == []
    else:
        out = composite_convolve(a, b)
        assert out.s.tolist() == [[[peak, 2 * peak, peak]]]
        assert np.array_equal(reference_composite(a, b).s, out.s)
        # T in float64, and no count product
        assert [(dtype, rows) for dtype, _, rows in windowed] == [(np.dtype(np.float64), 1)]


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
    # per-member counts are contracted
    s[0, 1] -= 1
    deep = Bank(np.zeros((1, 2, 2)), s)
    assert np.array_equal(apply(x, deep, "full").s, reference_composite(x, deep).s)


def _crop_targets(a, b):
    """Each crop mode's target shape for composite_convolve(a, b, mode)."""
    pairs = list(zip(a.spatial_shape, b.spatial_shape))
    return {
        "full": tuple(x + y - 1 for x, y in pairs),
        "same": a.spatial_shape,
        "valid": tuple(x - y + 1 for x, y in pairs),
    }


@pytest.mark.parametrize("fill", ["replicate", "fuzzy"])
@pytest.mark.parametrize("stride", [1, 2, 3, (1, 3), (3, 2)])
def test_layer_bank_taps_do_not_change_its_meaning(tmp_path, fill, stride):
    # a layer bank convolves through its taps; a plain Bank of the same g
    # and s convolves its resized grid.  Both mean the same bank, under
    # every crop.
    rng = np.random.default_rng(25)
    layer = LayerSpec("l", rng.uniform(0, 1, (3, 2, 2, 3)), stride)
    taps = layer_to_bank(layer, fill)
    plain = Bank(taps.g, taps.s)
    inputs = [random_input(rng, channels=2, shape=(5, 4))]
    inputs.append(random_bank(rng, m=2, c=3, shape=(4, 5), max_count=3, g_range=(0, 1)))
    right = random_bank(rng, m=2, c=3, shape=(3, 2), max_count=3, g_range=(0, 1))
    pairs = [((x, taps), (x, plain)) for x in inputs]
    pairs.append(((taps, right), (plain, right)))
    # a 1x1 kernel: at fuzzy stride 3 its same crop's window, (1:6, 1:5),
    # ends past the taps' own full convolution, A + (K - 1) * d = (5, 4),
    # so the product reads padding there
    point = layer_to_bank(LayerSpec("p", rng.uniform(0, 1, (3, 2, 1, 1)), stride), fill)
    pairs.append(((inputs[0], point), (inputs[0], Bank(point.g, point.s))))
    if fill == "fuzzy" and stride == 3:
        shape, full = inputs[0].spatial_shape, _crop_targets(inputs[0], point)["full"]
        stops = tuple((n - x) // 2 + x for n, x in zip(full, shape))
        # A + (K - 1) * d is A itself for a 1x1 kernel
        assert all(stop > x for stop, x in zip(stops, shape))
    for (a, b), (twin_a, twin_b) in pairs:
        for crop, target in _crop_targets(a, b).items():
            if min(target) < 1:
                continue
            twin = composite_convolve(twin_a, twin_b, crop)
            out = composite_convolve(a, b, crop)
            assert out.spatial_shape == target
            report = compare_banks(twin, out, 4 * np.finfo(float).eps)
            assert report.count_mismatches == 0 and report.passed, report
    # crops and files hold only g and s
    path = tmp_path / "layer.ghne"
    save_epitome(taps, path)
    loaded, cropped = load_epitome(path), crop_bank(taps, (1, 2), "same")
    assert loaded._taps is None and cropped._taps is None
    assert loaded == plain and cropped == crop_bank(plain, (1, 2), "same")


@pytest.mark.parametrize("swap", [False, True], ids=["kernel", "windowed"])
def test_fuzzy_filler_alone_leaves_g_at_half_its_count(swap):
    # the fuzzy fill's resized kernel holds a layer's taps d apart and 0.5
    # elsewhere, whose T = 1 - 2 * 0.5 is exactly 0.  A full-output entry
    # that only filler reaches, as in the d - 1 entries past the taps' own
    # full convolution, sums no T at all, so its g is s / 2 bit for bit
    rng = np.random.default_rng(39)
    cases = [
        ((2, 1, 3), 2, (4,)),
        ((2, 3, 1), 3, (2,)),
        ((3, 2, 2, 3), (2, 3), (5, 4)),
        ((2, 2, 1, 1), 3, (4, 5)),
        ((2, 1, 2, 2), (3, 2), (2, 3)),
    ]
    for weights, stride, shape in cases:
        m, c, *kernel = weights
        layer = layer_to_bank(LayerSpec("l", rng.uniform(0, 1, weights), stride), "fuzzy")
        if swap:
            a, b = layer, random_bank(rng, m=1, c=m, shape=shape, max_count=3, g_range=(0, 1))
        else:
            a, b = random_input(rng, channels=c, shape=shape), layer
        size_a, size_b = (
            math.prod(x.spatial_shape if x._taps is None else x._taps.w.shape[2:]) for x in (a, b)
        )
        assert (a.c * size_b > b.m * size_a) == swap
        lines = []
        for n, k, d in zip(shape, kernel, layer._taps.stride):
            taps = np.zeros(k * d)
            taps[::d] = 1
            lines.append(np.convolve(np.ones(n), taps) > 0)
        filler = ~functools.reduce(np.logical_and.outer, lines)
        out = composite_convolve(a, b, "full")
        assert out.spatial_shape == filler.shape and filler.any()
        assert np.array_equal(out.g[:, :, filler], 0.5 * out.s[:, :, filler])


def test_layer_bank_contracts_its_taps(monkeypatch):
    # the gathered operand holds k * |K| rows, the taps of a 2x3 kernel,
    # not the 4x9 resized grid; the counts of an input and a layer, both
    # held as factors, need no matrix product, nor do a plain copy's
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
    # T over the resized grid alone
    assert depths == [(np.dtype(np.float64), 2 * 36)]


# --- the kernel writes g once ----------------------------------------------


def _crop_operands(swap, taps, wide_b=False):
    # no swap: a 2x(7x6) input windowed with a layer's 2x2 taps, stride 2;
    # swap: a layer of 2x1 taps, stride (2, 1), is the kernel of a 3x(3x1)
    # bank, since c * |B| = 2 * 3 > m * |K| = 2.  wide_b gives b the wider
    # grid on an axis, so that the valid crop is empty
    rng = np.random.default_rng(27)
    if swap:
        layer = layer_to_bank(LayerSpec("l", rng.uniform(0, 1, (3, 2, 2, 1)), (2, 1)))
        shape = (5 if wide_b else 3, 1)
        pair = [layer, random_bank(rng, m=1, c=3, shape=shape, max_count=3, g_range=(0, 1))]
    else:
        layer = layer_to_bank(LayerSpec("l", rng.uniform(0, 1, (3, 2, 2, 2)), 2))
        pair = [random_input(rng, channels=2, shape=(4, 3) if wide_b else (7, 6)), layer]
    if not taps:
        pair = [Bank(x.g, x.s) for x in pair]
    return pair


@pytest.mark.parametrize("taps", [True, False], ids=["taps", "plain"])
@pytest.mark.parametrize("swap", [False, True], ids=["as-is", "swapped"])
def test_composite_crop_is_the_crop_of_the_full_output(monkeypatch, swap, taps):
    a, b = _crop_operands(swap, taps)
    size_a, size_b = (
        math.prod(x.spatial_shape if x._taps is None else x._taps.w.shape[2:]) for x in (a, b)
    )
    assert (a.c * size_b > b.m * size_a) == swap
    whole = composite_convolve(a, b)
    assert composite_convolve(a, b, "full") == whole
    for crop, target in _crop_targets(a, b).items():
        out = composite_convolve(a, b, crop)
        assert out.spatial_shape == target
        assert (target == whole.spatial_shape) == (crop == "full")
        # a narrower window may round g differently in the last bits
        report = compare_banks(crop_bank(whole, target, crop), out, 2 * np.finfo(float).eps)
        assert report.count_mismatches == 0 and report.passed, (crop, report)

    def kernel_ran(*args):
        raise AssertionError("the kernel ran before the crop was checked")

    for name in ("_contract", "_counts"):
        monkeypatch.setattr(epitome, name, kernel_ran)
    full = _crop_targets(a, b)["full"]
    unknown = "^unknown crop mode .*, expected one of \\('full', 'same', 'valid'\\)$"
    # a window of slices is no crop mode
    for crop in ("center", None, tuple(slice(0, n) for n in full)):
        with pytest.raises(ValueError, match=unknown):
            composite_convolve(a, b, crop)
    narrow, wide = _crop_operands(swap, taps, wide_b=True)
    with pytest.raises(ValueError, match="^valid crop is empty: target "):
        composite_convolve(narrow, wide, "valid")


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
    deep = collapse(Model([LayerSpec("d", rng.uniform(0, 1, (3, 2, 4, 3)))])).bank
    swapped_input = normalized_input(rng, 1, 4, (5, 6))
    swapped_deep = collapse(Model([LayerSpec("d", rng.uniform(0, 1, (1, 1, 4, 2)))])).bank
    first = LayerSpec("a", rng.uniform(0, 1, (4, 2, 3, 3)))
    strided = Model([first, LayerSpec("b", rng.uniform(0, 1, (3, 4, 2, 2)), 2)])
    plain = Model([first, LayerSpec("b", rng.uniform(0, 1, (3, 4, 2, 2)))])
    # the counts of normalized inputs, layers and their convolutions come
    # from factors, so every product is a T product; under the fuzzy fill
    # the strided layer's window runs past its taps' full convolution
    runs = [
        lambda: apply(normalized_input(rng, 2, 1, (9, 8)), deep, "same"),
        lambda: apply(normalized_input(rng, 2, 1, (9, 8)), deep, "full"),
        lambda: apply(swapped_input, swapped_deep, "valid"),
        lambda: collapse(strided).bank,
        lambda: collapse(strided, fill="fuzzy").bank,
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


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_window_view_is_the_stepped_sliding_window(dtype):
    rng = np.random.default_rng(33)
    for rank in (1, 2, 3):
        for step in (1, 2, 3):
            taps = tuple(rng.integers(1, 4, rank))
            span = tuple((y - 1) * step + 1 for y in taps)
            grid = tuple(x + int(rng.integers(0, 5)) for x in span)
            padded = rng.integers(-9, 9, (2, 3) + grid).astype(dtype)
            # any window of the positions a span fits at
            window = []
            for n, x in zip(grid, span):
                start = int(rng.integers(0, n - x + 1))
                window.append(slice(start, int(rng.integers(start + 1, n - x + 2))))
            window = tuple(window)
            view = epitome._window_view(padded, window, taps, (step,) * rank)
            axes = tuple(range(2, 2 + rank))
            slid = np.lib.stride_tricks.sliding_window_view(padded, span, axis=axes)
            expected = slid[(slice(None), slice(None)) + window]
            expected = expected[(Ellipsis,) + (slice(None, None, step),) * rank]
            assert view.dtype == padded.dtype and view.shape == expected.shape
            assert np.array_equal(view, expected) and np.shares_memory(view, padded)
            with pytest.raises(ValueError, match="read-only"):
                view[(0,) * view.ndim] = 1


# --- counts held as per-axis factors ------------------------------------------


def _deep():
    # a 2x1x4x4 deep epitome, whose counts are held as factors; the 4x4
    # grid leaves a valid crop of every input size below
    rng = np.random.default_rng(34)
    model = Model([LayerSpec("a", rng.uniform(0, 1, (3, 1, 3, 3))),
                   LayerSpec("b", rng.uniform(0, 1, (2, 3, 2, 2)))])
    return collapse(model).bank


def _factor_free(bank):
    """bank with its g, s and taps but no count factors, so its counts are contracted."""
    copy = Bank(bank.g, bank.s)
    copy._taps, copy._factors = bank._taps, None
    return copy


def _factor_lists(factors):
    """factors as (weight, profile lists, peak), to compare with ==, or None."""
    if factors is None:
        return None
    return factors.weight, [p.tolist() for p in factors.profiles], factors.peak


def _factored(weight, profiles, m=1, c=1):
    """A bank of g = 0 whose counts, weight * outer(*profiles), are held as factors."""
    profiles = tuple(np.array(p, dtype=np.int64) for p in profiles)
    peak = weight * math.prod(int(p.max()) for p in profiles)
    factors = epitome._Factors(weight, profiles, peak)
    grid = factors.grid()
    shape = (m, c) + grid.shape[2:]
    return Bank._of_convolution(np.zeros(shape), banks._shared(grid, shape), factors)


def _random_stacks(rng):
    # 2-D stacks from oracle.random_model, and rank-1 and rank-3 ones, with
    # strides 1 to 3 on every axis
    models = [random_model(rng, max_channels=3, max_kernel=3, strides=(1, 2, 3)) for _ in range(8)]
    for rank in (1, 3, 1, 3):
        widths = [int(v) for v in rng.integers(1, 4, 4)]
        kernels = [tuple(rng.integers(1, 4, rank)) for _ in range(3)]
        strides = [tuple(int(v) for v in rng.integers(1, 4, rank)) for _ in range(3)]
        models.append(Model(
            LayerSpec(f"l{i}", rng.uniform(0, 1, (widths[i + 1], widths[i]) + kernels[i]), strides[i])
            for i in range(3)
        ))
    return models


@pytest.mark.parametrize("fill", ["replicate", "fuzzy"])
def test_factored_folds_equal_the_reference_and_factor_free_ones(fill):
    rng = np.random.default_rng(41)
    for model in _random_stacks(rng):
        for first in range(1, len(model.layers) + 1):
            layers = model.layers[first - 1:]
            bank = layer_to_bank(layers[0], fill)
            reference = Bank(bank.g, bank.s)
            for layer in layers[1:]:
                layer_bank = layer_to_bank(layer, fill)
                out = composite_convolve(bank, layer_bank)
                # the same kernel with every count contracted: g bit for bit
                assert out == composite_convolve(_factor_free(bank), _factor_free(layer_bank))
                reference = reference_composite(reference, Bank(layer_bank.g, layer_bank.s))
                assert np.array_equal(out.s, reference.s) and out._factors is not None
                bank = out
            deep = collapse(model, first_layer=first, fill=fill)
            assert deep.bank == bank
            weight, profiles, peak = effective_counts(layers)
            assert deep.bank._factors.weight == weight and peak == int(bank.s.max())
            outer = weight * functools.reduce(np.multiply.outer, profiles)
            assert np.array_equal(outer, bank.s[0, 0])


def test_factored_applies_at_uneven_extents_equal_the_reference():
    rng = np.random.default_rng(42)
    for model in _random_stacks(rng)[:6]:
        deep = collapse(model).bank
        plain = _factor_free(deep)
        extents = tuple(n + int(v) for n, v in zip(deep.spatial_shape, rng.integers(0, 4, deep.rank)))
        x = random_input(rng, model.layers[0].in_channels, extents)
        full = reference_composite(x, deep)
        valid = tuple(n - d + 1 for n, d in zip(extents, deep.spatial_shape))
        for crop, target in (("full", full.spatial_shape), ("same", extents), ("valid", valid)):
            out = apply(x, deep, crop)
            assert out == apply(x, plain, crop)
            assert np.array_equal(out.s, crop_bank(full, target, crop).s)


def test_repeated_applies_equal_factor_free_ones():
    deep = _deep()
    rng = np.random.default_rng(35)
    for px in (5, 7, 28, 33, 28):
        x = random_input(rng, 1, (px, px))
        full = reference_composite(x, deep)
        targets = {"full": full.spatial_shape, "same": (px, px), "valid": (px - 3, px - 3)}
        for crop in ("full", "same", "valid", "same", "full"):
            out = apply(x, deep, crop)
            # a factor-free copy contracts its counts
            assert out == apply(x, _factor_free(deep), crop)
            assert np.array_equal(out.s, crop_bank(full, targets[crop], crop).s)
            assert not out.s.flags.writeable and out._factors is not None


def test_applies_hold_no_input():
    deep = _deep()
    factors = deep._factors
    rng = np.random.default_rng(37)
    x = random_input(rng, 1, (28, 28))
    inputs = weakref.ref(x.g), weakref.ref(x.s)
    out = apply(x, deep, "same")
    assert not any(np.shares_memory(out.s, y) for y in (x.g, x.s))
    del x
    gc.collect()
    assert all(ref() is None for ref in inputs)
    assert deep._factors is factors and out.spatial_shape == (28, 28)


def test_count_overflow_is_raised_on_every_apply(monkeypatch):
    # a 1-D deep epitome of counts 2**62: one overlapping entry counts
    # 2**62, and the "same" crop of a 3-entry input keeps entries where
    # two and three overlap, 3 * 2**62 > 2**63 - 1
    deep = _factored(2**62, [[1, 1, 1, 1]])
    rng = np.random.default_rng(38)
    small = apply(random_input(rng, 1, (1,)), deep, "same")
    assert small.s.tolist() == [[[2**62]]]

    def product(*args, **kwargs):
        raise AssertionError("a product ran before the count overflow was named")

    monkeypatch.setattr(np, "matmul", product)
    # a copy finds the same factors in its counts
    for bank in (deep, deep, Bank(deep.g, deep.s)):
        with pytest.raises(CountOverflowError, match=f"summand count {3 * 2**62} exceeds"):
            apply(random_input(rng, 1, (3,)), bank, "same")
    monkeypatch.undo()
    # a factor-free copy counts by contraction, after its T product
    with pytest.raises(CountOverflowError, match=f"summand count {3 * 2**62} exceeds"):
        apply(random_input(rng, 1, (3,)), _factor_free(deep), "same")


def test_fold_count_overflow_is_named_before_any_product(monkeypatch):
    # 2 contracted members of weight 2**62 against a 1x1 layer: 2**63
    bank = _factored(2**62, [[1, 1]], m=2)
    layer = layer_to_bank(LayerSpec("l", np.zeros((1, 2, 1))))
    matmuls = []
    monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: matmuls.append(1))
    with pytest.raises(CountOverflowError, match=f"summand count {2**63} exceeds"):
        composite_convolve(bank, layer)
    assert matmuls == []


@pytest.mark.parametrize("count_type", ["float64", "int64", "object"])
def test_counts_of_other_pairs_are_not_remembered(count_type):
    # the per-member pairs of test_composite_row_chunks_are_bit_equal_to_one_chunk
    # contract their counts, and no result holds them as factors
    rng = np.random.default_rng(16)
    shape_a, shape_b = (2, 2, 4, 3), (3, 2, 5, 2)
    if count_type == "float64":
        sa, sb = rng.integers(1, 4, shape_a), rng.integers(1, 4, shape_b)
    elif count_type == "int64":
        sa, sb = (2**24 * rng.choice([3, 4], shape) for shape in (shape_a, shape_b))
    else:
        sa, sb = np.ones(shape_a, np.int64), np.ones(shape_b, np.int64)
        sa[0, :, 0, 0] = sb[:, 0, 0, 0] = 2**31
    a, b = (Bank(s * np.where(s > 2**26, 4, rng.integers(0, 9, s.shape)) / 8, s) for s in (sa, sb))
    out = composite_convolve(a, b)
    assert out._factors is None and np.array_equal(out.s, reference_composite(a, b).s)
    # a deep epitome whose counts vary by member, against a normalized input
    x = random_input(rng, 2, (6, 5))
    out = apply(x, b, "full")
    assert out._factors is None and np.array_equal(out.s, reference_composite(x, b).s)
    # one shared grid each, checkerboards of 1s and 2s that do not factor,
    # and one shared grid against per-member counts
    shared = [
        Bank(x.g, np.broadcast_to(1 + np.indices(x.spatial_shape).sum(0) % 2, x.s.shape))
        for x in (a, b)
    ]
    for pair in (shared, (shared[0], b), (a, shared[1])):
        out = composite_convolve(*pair)
        assert out._factors is None and np.array_equal(out.s, reference_composite(*pair).s)


def test_crops_copies_and_files_remember_nothing(tmp_path):
    # factors come from a bank's counts, not from what made it: an input, a
    # loaded file, a crop and a copy find them, and hold no taps
    deep = _deep()
    x = random_input(np.random.default_rng(39), 1, (9, 9))
    assert x._factors.weight == 1 and apply(x, deep, "same")._factors is not None
    path = tmp_path / "deep.ghne"
    save_epitome(deep, path)
    loaded = load_epitome(path)
    assert loaded._factors.weight == deep._factors.weight
    assert [p.tolist() for p in loaded._factors.profiles] == [p.tolist() for p in deep._factors.profiles]
    for bank in (x, loaded, crop_bank(deep, (3, 3), "same"), Bank(deep.g, deep.s)):
        assert bank._taps is None and np.array_equal(bank._factors.grid(), bank.s[:1, :1])
    # a kernel result keeps the kernel's factors; from a factor-free operand,
    # whose counts are contracted, it holds those its counts give a copy
    out = composite_convolve(x, _factor_free(deep))
    assert _factor_lists(out._factors) == _factor_lists(Bank(out.g, out.s)._factors)
    assert _factor_lists(out._factors) == _factor_lists(composite_convolve(x, deep)._factors)


def test_loaded_epitome_applies_with_exact_counts(tmp_path):
    deep = _deep()
    path = tmp_path / "deep.ghne"
    save_epitome(deep, path)
    loaded = load_epitome(path)
    x = random_input(np.random.default_rng(43), 1, (11, 10))
    for crop in ("full", "same", "valid"):
        out = apply(x, loaded, crop)
        assert out == apply(x, deep, crop)
    assert np.array_equal(apply(x, loaded).s, reference_composite(x, deep).s)


def test_second_apply_peak_is_no_higher():
    deep = _deep()
    rng = np.random.default_rng(40)
    x, y = (normalized_input(rng, 1, 1, (64, 64)) for _ in range(2))
    # each apply's peak above what was traced when it began: both count
    # from factors and leave nothing behind in the deep epitome
    peaks = []
    tracemalloc.start()
    try:
        for z in (x, y):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            apply(z, deep, "same")
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0]


def test_fold_reads_no_resized_kernel(monkeypatch):
    # mid's strided conv2 is contracted through its taps on the kernel
    # side, so collapse never resizes it; a reader of layer_to_bank's g
    # still gets the resized grid, built once
    resized = []
    resize = banks._resized_kernel

    def spy(taps):
        resized.append(taps.w.shape)
        return resize(taps)

    monkeypatch.setattr(banks, "_resized_kernel", spy)
    rng = np.random.default_rng(44)
    widths, strides = (1, 16, 32, 32), (1, 2, 1)
    model = Model(
        LayerSpec(f"conv{i + 1}", rng.uniform(0, 1, (widths[i + 1], widths[i], 3, 3)), strides[i])
        for i in range(3)
    )
    for fill in ("replicate", "fuzzy"):
        resized.clear()
        collapse(model, fill=fill)
        assert (32, 16, 3, 3) not in resized
        conv2 = layer_to_bank(model.layers[1], fill)
        g = conv2.g
        assert resized[-1] == (32, 16, 3, 3) and conv2.g is g and not g.flags.writeable
        weights = model.layers[1].weights
        if fill == "replicate":
            expected = np.repeat(np.repeat(weights, 2, axis=2), 2, axis=3)
        else:
            expected = np.full((32, 16, 6, 6), 0.5)
            expected[:, :, ::2, ::2] = weights
        assert np.array_equal(g, expected)


def test_effective_counts_closed_form():
    layers = [
        LayerSpec("a", np.zeros((2, 1, 2, 3)), 1),
        LayerSpec("b", np.zeros((3, 2, 2, 1)), (2, 1)),
        LayerSpec("c", np.zeros((4, 3, 1, 2)), 1),
    ]
    weight, profiles, peak = effective_counts(layers)
    # widths 2 and 3 are contracted; axis 0 boxes 2, 4, 1; axis 1 boxes 3, 1, 2
    assert weight == 6
    assert [p.tolist() for p in profiles] == [[1, 2, 2, 2, 1], [1, 2, 2, 1]]
    assert peak == 6 * 2 * 2
    one = effective_counts(layers[:1])
    assert one.weight == 1 and [p.tolist() for p in one.profiles] == [[1, 1], [1, 1, 1]]
    assert one.peak == 1
    with pytest.raises(ValueError, match="^no layers$"):
        effective_counts([])
    deep = collapse(Model(layers))
    assert deep.effective_counts is not None
    with pytest.raises(ValueError, match="closed-form effective counts"):
        DeepEpitome(deep.bank, (1, 3), deep.effective_shape, effective_counts(layers[1:]))
    # a copy finds the same factors in its counts; counts that do not factor have none
    DeepEpitome(Bank(deep.bank.g, deep.bank.s), (1, 3), deep.effective_shape, deep.effective_counts)
    s = np.array(deep.bank.s)
    s[0, 0, 0, 0] += 1
    with pytest.raises(ValueError, match="closed-form effective counts"):
        DeepEpitome(Bank(deep.bank.g, s), (1, 3), deep.effective_shape, deep.effective_counts)


def test_factor_profiles_past_int64_stay_exact():
    # profile bounds of 2**62 * 2 send both convolutions through Python
    # ints; the first's peak 2**62 fits, and its profiles come back int64
    a, b = _factored(1, [[2**31, 1]]), _factored(1, [[2**31, 1]])
    out = composite_convolve(a, b)
    assert out.s.tolist() == [[[2**62, 2**32, 1]]]
    assert [p.dtype for p in out._factors.profiles] == [np.dtype(np.int64)]
    assert np.array_equal(out.s, reference_composite(a, b).s)
    a, b = _factored(1, [[2**40, 2**40]]), _factored(1, [[2**40, 2**40]])
    with pytest.raises(CountOverflowError, match=f"summand count {2**81} exceeds"):
        composite_convolve(a, b)


def test_separable_shared_counts_factor_exactly():
    # w * outer(p_a) of rank 1 to 3, with weights up to 2**62, held as one
    # grid or as dense member arrays: the bank finds profiles of gcd 1 and
    # the weight that makes them the grid, whatever the profiles were given as
    rng = np.random.default_rng(45)
    for trial in range(30):
        rank = 1 + trial % 3
        profiles = [rng.integers(1, 7, int(n)) for n in rng.integers(1, 5, rank)]
        peak = math.prod(int(p.max()) for p in profiles)
        weight = int(rng.integers(1, min(2**62, epitome._INT64_MAX // peak), endpoint=True))
        grid = weight * functools.reduce(np.multiply.outer, profiles)
        shape = (2, 3) + grid.shape
        for s in (np.broadcast_to(grid, shape), np.tile(grid, (2, 3) + (1,) * rank)):
            factors = Bank(np.zeros(shape), s)._factors
            assert factors.peak == weight * peak == grid.max()
            assert all(np.gcd.reduce(p) == 1 and p.dtype == np.int64 for p in factors.profiles)
            assert np.array_equal(factors.grid()[0, 0], grid)
            assert factors.weight % weight == 0


def test_counts_that_do_not_factor_hold_no_factors():
    rng = np.random.default_rng(46)
    grid = 3 * np.multiply.outer([1, 2, 4], [1, 5, 1, 2])
    # one entry off the first row and column perturbed: the lines through
    # the first entry still give profiles whose peak is the grid's
    perturbed = grid.copy()
    perturbed[1, 2] += 3
    assert perturbed.max() == grid.max()
    # per-member counts
    members = np.stack([grid, 2 * grid], axis=1)[None]
    # the first row and column give profiles [1, 2**32 + 1] each, whose
    # outer product, 2**64 + 2**33 + 1 at [1, 1], wraps in int64 to the
    # grid's own entry there
    n = 2**32 + 1
    hostile = np.array([[1, n], [n, 2**33 + 1]])
    assert np.array_equal(np.multiply.outer(hostile[0], hostile[:, 0]), hostile)
    for s in (perturbed[None, None], members, hostile[None, None]):
        deep = Bank(rng.uniform(0, 1, s.shape), s)
        assert deep._factors is None and np.array_equal(deep.s, s)
        x = random_input(rng, deep.c, (3, 2))
        out = apply(x, deep, "full")
        assert np.array_equal(out.s, reference_composite(x, deep).s)
        # the contracted counts hold the factors a copy of them finds: the
        # per-member counts sum to a grid that factors, the others to none
        assert _factor_lists(out._factors) == _factor_lists(Bank(out.g, out.s)._factors)
        assert (out._factors is None) == (s is not members)


def test_loaded_file_overflow_is_named_before_any_product(tmp_path, monkeypatch):
    # a saved 1-D deep epitome of 4 counts 2**62: every crop of a 5-entry
    # input keeps an entry where all 4 overlap, 4 * 2**62 > 2**63 - 1
    path = tmp_path / "deep.ghne"
    save_epitome(_factored(2**62, [[1, 1, 1, 1]]), path)
    loaded = load_epitome(path)
    rng = np.random.default_rng(47)

    def product(*args, **kwargs):
        raise AssertionError("a product ran before the count overflow was named")

    monkeypatch.setattr(np, "matmul", product)
    for crop in ("full", "same", "valid"):
        with pytest.raises(CountOverflowError, match=f"summand count {4 * 2**62} exceeds"):
            apply(random_input(rng, 1, (5,)), loaded, crop)


def test_contracted_counts_that_factor_hold_factors(windowed):
    # a 2x1x2x3 deep epitome shares a checkerboard of 1s and 2s, which does
    # not factor, but each valid entry of a 6x6 input sums all six of its
    # counts: the contracted result counts 9 everywhere, and holds that
    rng = np.random.default_rng(49)
    grid = 1 + np.indices((2, 3)).sum(0) % 2
    deep = Bank(rng.uniform(0, 1, (2, 1, 2, 3)) * grid, np.broadcast_to(grid, (2, 1, 2, 3)))
    assert deep._factors is None
    out = apply(random_input(rng, 1, (6, 6)), deep, "valid")
    assert np.array_equal(out.s, np.full((2, 1, 5, 4), 9))
    assert _factor_lists(out._factors) == (9, [[1] * 5, [1] * 4], 9)
    assert _factor_lists(out._factors) == _factor_lists(Bank(out.g, out.s)._factors)
    # so a later convolution of it convolves factors, and its one product is
    # T's; without them the counts are contracted in a second, int64 product
    layer = layer_to_bank(LayerSpec("l", rng.uniform(0, 1, (3, 2, 2, 2))))
    reference = reference_composite(out, layer)
    for bank, dtypes in ((out, [np.float64]), (_factor_free(out), [np.float64, np.int64])):
        windowed.clear()
        later = composite_convolve(bank, layer)
        assert [dtype for dtype, *_ in windowed] == [np.dtype(t) for t in dtypes]
        assert np.array_equal(reference.s, later.s)
        assert compare_banks(reference, later, tol=1e-12).passed


def test_loaded_shared_grid_that_does_not_factor_is_contracted(tmp_path, windowed):
    rng = np.random.default_rng(48)
    grid = 1 + np.indices((3, 4)).sum(0) % 2 + np.eye(3, 4, dtype=np.int64)
    deep = Bank(rng.uniform(0, 1, (2, 3, 3, 4)), np.broadcast_to(grid, (2, 3, 3, 4)))
    path = tmp_path / "deep.ghne"
    save_epitome(deep, path)
    loaded = load_epitome(path)
    assert loaded._factors is None and loaded == deep
    x = random_input(rng, 3, (6, 5))
    full = reference_composite(x, loaded)
    for crop in ("full", "same", "valid"):
        windowed.clear()
        out = apply(x, loaded, crop)
        # T, then the counts of every member, one row per filter
        assert [(dtype, rows) for dtype, _, rows in windowed] == [
            (np.dtype(np.float64), 2), (np.dtype(np.int64), 2)
        ]
        reference = crop_bank(full, out.spatial_shape, crop)
        assert np.array_equal(reference.s, out.s)
        assert compare_banks(reference, out, tol=1e-12).passed


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
