"""Banks, stride resizing, composite convolution, collapse, apply."""

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
    resize_strided,
)
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


def test_resize_stride_one_is_identity():
    k = np.array([[0.1, 0.2], [0.3, 0.4]])
    out = resize_strided(k, 1)
    assert np.array_equal(out, k)


def test_resize_replicate_1d():
    out = resize_strided([0.2, 0.8], 2)
    assert np.array_equal(out, [0.2, 0.2, 0.8, 0.8])


def test_resize_replicate_2d_extents():
    k = np.arange(25, dtype=float).reshape(5, 5) / 25.0
    out = resize_strided(k, 2)
    assert out.shape == (10, 10)
    # each weight becomes a 2x2 constant block
    for i in range(5):
        for j in range(5):
            assert np.all(out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] == k[i, j])


def test_resize_fuzzy_1d():
    out = resize_strided([0.2, 0.8], 2, fill="fuzzy")
    assert np.array_equal(out, [0.2, 0.5, 0.8, 0.5])


def test_resize_fuzzy_2d_block_starts():
    k = np.array([[0.1, 0.9]])
    out = resize_strided(k, (1, 3), fill="fuzzy")
    assert np.array_equal(out, [[0.1, 0.5, 0.5, 0.9, 0.5, 0.5]])


def test_resize_mixed_axes():
    k = np.array([[0.1, 0.2], [0.3, 0.4]])
    out = resize_strided(k, (1, 2))
    assert out.shape == (2, 4)
    assert np.array_equal(out, [[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.4, 0.4]])


def test_resize_validation():
    with pytest.raises(ValueError):
        resize_strided([0.1], 2, fill="nearest")
    with pytest.raises(ValueError):
        resize_strided([[0.1, 0.2]], (2,))
    with pytest.raises(ValueError):
        resize_strided([0.1, 0.2], 0)
    with pytest.raises(ValueError):
        resize_strided([], 1)


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
                assert np.array_equal(b.g[i, j], resize_strided(w[i, j], (2, 3), fill))


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
        ("", np.zeros((1, 1, 3)), "layer needs a non-empty name"),
        ("a", np.zeros((0, 1, 3)), "layer 'a': empty weight grid"),
        ("a", np.zeros((1, 1, 0, 2)), "layer 'a': empty weight grid"),
    ],
)
def test_layer_rejects_empty_name_or_grid(name, weights, message):
    with pytest.raises(ValueError) as exc:
        LayerSpec(name, weights, 1)
    assert str(exc.value) == message


def test_model_chain_error_names_both_layers():
    a = LayerSpec("first", np.zeros((2, 1, 3)), 1)
    b = LayerSpec("second", np.zeros((1, 3, 3)), 1)
    with pytest.raises(ValueError) as exc:
        Model([a, b])
    assert "first" in str(exc.value) and "second" in str(exc.value)


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
    """Record (dtype, product count) of the windowed operand of every np.matmul call."""
    seen = []
    matmul = np.matmul

    def spy(x, y):
        seen.append((y.dtype, y.shape[0]))
        return matmul(x, y)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


@pytest.mark.parametrize("count_type", ["float64", "int64", "object"])
def test_composite_row_chunks_are_bit_equal_to_one_chunk(monkeypatch, windowed, count_type):
    # a (2, 2, 4x3) is windowed with b's 5x2 grid; its 8 output rows gather
    # 160 entries each, so a 500-entry cap gives chunks of 3, 3 and 2 rows
    # and a 1-entry cap one chunk per row
    rng = np.random.default_rng(16)
    shape_a, shape_b = (2, 2, 4, 3), (3, 2, 5, 2)
    if count_type == "float64":
        sa, sb = rng.integers(1, 4, shape_a), rng.integers(1, 4, shape_b)
    elif count_type == "int64":
        # bound 2**52 * 16 terms
        sa, sb = np.full(shape_a, 2**26), np.full(shape_b, 2**26)
    else:
        # bound 2**62 * 16 terms; the largest true count is 2**62 + 1
        sa, sb = np.ones(shape_a, np.int64), np.ones(shape_b, np.int64)
        sa[0, :, 0, 0] = sb[:, 0, 0, 0] = 2**31
    # g = s * j / 8 keeps every T product and partial sum exact in float64,
    # so no summation order can change a bit; the 2**31 counts get T = 0
    a, b = (Bank(s * np.where(s > 2**26, 4, rng.integers(0, 9, s.shape)) / 8, s) for s in (sa, sb))
    one_chunk = composite_convolve(a, b)
    # per-row products, then one product per chunk
    for one_thread_work in (epitome._ONE_THREAD_WORK, 0):
        monkeypatch.setattr(epitome, "_ONE_THREAD_WORK", one_thread_work)
        for cap in (2**19, 500, 1):
            monkeypatch.setattr(epitome, "_IM2COL_ENTRIES", cap)
            windowed.clear()
            assert composite_convolve(a, b) == one_chunk
            # one T and one count contraction per chunk, of one product per
            # row or per chunk
            assert np.dtype(count_type) in {dtype for dtype, _ in windowed}
            assert len(windowed) == (2 if cap == 2**19 else 6 if cap == 500 else 16)
            products = sum(n for _, n in windowed) // 2
            assert products == (8 if one_thread_work else len(windowed) // 2)
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
    assert {dtype for dtype, _ in windowed} == {np.dtype(np.float64)}
    ref = reference_composite(a, b)
    assert ref.s.max() == 2**48 * 18
    assert np.array_equal(ref.s, fast.s)
    assert compare_banks(ref, fast, tol=1e-12).passed


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
    same = apply(x, deep, "same")
    assert same == crop_bank(full, (10, 10))


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
