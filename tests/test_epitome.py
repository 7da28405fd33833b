"""Epitome type, the merge formula, convolution, summation, stats."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghne import (
    Bank,
    CountOverflowError,
    Epitome,
    add,
    convolve,
    epitome,
    ghd,
    ghd_fold,
    histogram,
    make_normalized,
    mean_fuzziness,
    merged_pair,
    normalize,
)


@st.composite
def epitomes(draw, max_extent=6, max_count=5, rank=1):
    shape = tuple(
        draw(st.integers(min_value=1, max_value=max_extent)) for _ in range(rank)
    )
    n = int(np.prod(shape))
    g = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    s = draw(st.lists(st.integers(min_value=1, max_value=max_count), min_size=n, max_size=n))
    return Epitome(np.reshape(g, shape), np.reshape(s, shape))


# --- construction and normalization ---------------------------------------


def test_make_normalized_definitional():
    e = make_normalized([0.1, 0.9])
    assert np.array_equal(e.g, [0.1, 0.9])
    assert np.array_equal(e.s, [1, 1])
    assert e.is_normalized

    grid = make_normalized(np.zeros((3, 3)))
    assert grid.shape == (3, 3)
    assert np.all(grid.s == 1)


def test_make_normalized_shape_checked():
    with pytest.raises(ValueError):
        make_normalized([])


def test_epitome_validation():
    with pytest.raises(ValueError):
        Epitome([0.1, 0.2], [1])  # shape mismatch
    with pytest.raises(ValueError):
        Epitome([0.1], [0])  # count < 1
    with pytest.raises(ValueError):
        Epitome([np.nan], [1])
    with pytest.raises(ValueError):
        Epitome(0.5, 1)  # rank 0
    with pytest.raises(TypeError):
        Epitome([0.1], [1.0])  # float counts rejected


def test_epitome_immutable():
    e = make_normalized([0.1, 0.2])
    with pytest.raises(ValueError):
        e.g[0] = 9.0


def test_normalize_values():
    assert np.allclose(normalize(Epitome([2.52], [6])).g, [0.42], atol=1e-15)
    assert np.array_equal(normalize(Epitome([-1.0], [4])).g, [-0.25])
    e = make_normalized([0.3, 0.6])
    assert normalize(e) == e  # idempotent on normalized input
    assert normalize(normalize(Epitome([2.52], [6]))) == normalize(Epitome([2.52], [6]))


# --- merged_pair -----------------------------------------------------------


def test_merged_pair_brute_force_oracle():
    # gn = 0.1+0.5, gm = 0.2+0.3+0.4; merge must equal the sum of all
    # 6 pairwise GHDs without seeing the summands
    xs, ys = [0.1, 0.5], [0.2, 0.3, 0.4]
    brute = sum(ghd(a, b) for a in xs for b in ys)
    g, s = merged_pair(sum(xs), len(xs), sum(ys), len(ys))
    assert s == 6
    assert g == pytest.approx(brute, abs=1e-12)
    assert (g, s) == (pytest.approx(2.52, abs=1e-12), 6)


def test_merged_pair_trivial_counts():
    g, s = merged_pair(0.3, 1, 0.8, 1)
    assert (g, s) == (ghd(0.3, 0.8), 1)
    assert merged_pair(0.0, 1, 0.77, 1) == (0.77, 1)


def test_merged_pair_count_validation():
    with pytest.raises(ValueError):
        merged_pair(0.1, 0, 0.2, 1)
    with pytest.raises(ValueError):
        merged_pair(0.1, 1, 0.2, -3)


def test_merged_pair_counts_must_be_integers():
    # int() would merge count 2 instead and return (2.52, 6)
    with pytest.raises(TypeError, match=r"^counts must be integers, got \(2\.5, 3\)$"):
        merged_pair(0.6, 2.5, 0.9, 3)
    with pytest.raises(TypeError, match="counts must be integers"):
        merged_pair(0.6, 2, 0.9, np.float64(3.0))
    assert merged_pair(0.6, np.int64(2), 0.9, np.uint8(3)) == merged_pair(0.6, 2, 0.9, 3)


@given(
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=5),
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=5),
)
def test_merged_pair_equals_all_pairs_sum(xs, ys):
    brute = sum(ghd(a, b) for a in xs for b in ys)
    g, s = merged_pair(sum(xs), len(xs), sum(ys), len(ys))
    assert s == len(xs) * len(ys)
    assert g == pytest.approx(brute, abs=1e-10)


# --- convolution -----------------------------------------------------------


def test_convolve_worked_example():
    x = make_normalized([0.0, 1.0, 0.5])
    a = make_normalized([0.0, 1.0])
    e = convolve(x, a)
    assert np.array_equal(e.s, [1, 2, 2, 1])
    assert np.allclose(e.g, [0.0, 2.0, 0.5, 0.5], atol=1e-14)


def test_convolve_counts_3_2():
    e = convolve(make_normalized([0.3] * 3), make_normalized([0.4] * 2))
    assert e.shape == (4,)
    assert np.array_equal(e.s, [1, 2, 2, 1])


def test_convolve_absorbing_entry():
    absorb = Epitome([0.5], [1])
    norm = make_normalized([0.1, 0.7, 0.9])
    out = convolve(norm, absorb)
    assert np.array_equal(out.s, [1, 1, 1])
    assert np.allclose(out.g, [0.5, 0.5, 0.5], rtol=0, atol=1e-15)

    counted = Epitome([1.3, 0.2], [3, 2])
    out = convolve(counted, absorb)
    # each slot keeps its count and lands at 0.5 per summand
    assert np.array_equal(out.s, counted.s)
    assert np.allclose(out.g, 0.5 * counted.s, atol=1e-15)


@pytest.fixture
def count_paths(monkeypatch):
    """The dtype of each count contraction (_counts) that convolve runs."""
    paths = []
    counts, contract = epitome._counts, epitome._contract

    def counts_spy(sa, sb, layout):
        paths.append(None)
        return counts(sa, sb, layout)

    def contract_spy(a, kb, layout):
        if paths and paths[-1] is None:
            paths[-1] = kb.dtype
        return contract(a, kb, layout)

    monkeypatch.setattr(epitome, "_counts", counts_spy)
    monkeypatch.setattr(epitome, "_contract", contract_spy)
    return paths


def test_convolve_counts_past_the_int64_bound(count_paths):
    # 1-D counts always factor, so their profiles are convolved and no
    # count is contracted.  [2**31, 1] against itself has a profile bound
    # of 2**62 * 2 terms, which reaches 2**63, so the profiles are
    # convolved in Python ints: a largest count of 2**62 comes back exact.
    # [2**32, 2**32] is weight 2**32 times [1, 1], and its largest count,
    # 2**64 * 2 = 2**65, is refused by name instead of wrapping
    a = Epitome([0.0, 0.0], [2**31, 1])
    assert convolve(a, a).s.tolist() == [2**62, 2**32, 1]
    b = Epitome([0.0, 0.0], [2**32, 2**32])
    with pytest.raises(CountOverflowError, match=str(2**65)):
        convolve(b, b)
    assert count_paths == []


def _checkerboard(h):
    # counts [[1, h], [h, 1]] are no outer product for h > 1, so they do
    # not factor and convolve contracts them
    s = np.array([[1, h], [h, 1]])
    return Epitome(np.full((2, 2), 0.25), s)


def _exact_counts(sa, sb):
    # the full 2-D convolution of two count grids, in Python ints
    out = np.zeros((3, 3), dtype=object)
    for (p, q), x in np.ndenumerate(sa):
        out[p : p + 2, q : q + 2] += x * sb
    return out


@pytest.mark.parametrize(
    "h, k, count_type",
    [
        (2, 2, np.int64),
        # a bound of 2**60 * 4 terms stays below 2**63
        (2**30, 2**30, np.int64),
        # a bound of 2**62 * 4 terms does not; the largest count is 2**63 - 2
        (2, 2**61 - 1, object),
    ],
)
def test_convolve_contracts_counts_that_do_not_factor(count_paths, h, k, count_type):
    a, b = _checkerboard(h), _checkerboard(k)
    out = convolve(a, b)
    exact = _exact_counts(a.s.astype(object), b.s.astype(object))
    assert out.s.tolist() == exact.tolist()
    assert out.s.max() == max(exact.flat) == 2 + 2 * h * k
    assert count_paths == [count_type]


def test_convolve_contracted_count_past_the_int64_bound_is_named(count_paths):
    # the centre count 2 + 2 * 2 * 2**61 = 2**63 + 2, contracted in Python ints
    with pytest.raises(CountOverflowError, match=str(2**63 + 2)):
        convolve(_checkerboard(2), _checkerboard(2**61))
    assert count_paths == [object]


def test_convolve_rank_mismatch():
    # composite_convolve's check and message
    with pytest.raises(ValueError, match=r"^spatial rank mismatch: 1 vs 2$"):
        convolve(make_normalized([0.1]), make_normalized([[0.1]]))


def test_convolve_shape_law_2d():
    a = make_normalized(np.full((3, 4), 0.2))
    b = make_normalized(np.full((2, 2), 0.7))
    assert convolve(a, b).shape == (4, 5)


def test_convolve_matches_entrywise_merge_definition():
    # independent route: accumulate merged_pair over the index sets
    rng = np.random.default_rng(5)
    a = Epitome(rng.uniform(-2, 2, 3), rng.integers(1, 5, 3))
    b = Epitome(rng.uniform(-2, 2, 4), rng.integers(1, 5, 4))
    got = convolve(a, b)
    g = np.zeros(6)
    s = np.zeros(6, dtype=np.int64)
    for n in range(3):
        for m in range(4):
            gm, sm = merged_pair(a.g[n], a.s[n], b.g[m], b.s[m])
            g[n + m] += gm
            s[n + m] += sm
    assert np.array_equal(got.s, s)
    assert np.allclose(got.g, g, atol=1e-12)


def test_convolve_normalized_equals_count_weighted_mean_ghd():
    # normalize(convolve(a, b)).g is the mean GHD over each index set
    rng = np.random.default_rng(6)
    av = rng.uniform(0, 1, 4)
    bv = rng.uniform(0, 1, 3)
    out = normalize(convolve(make_normalized(av), make_normalized(bv)))
    for n in range(6):
        pairs = [ghd(av[k], bv[m]) for k in range(4) for m in range(3) if k + m == n]
        assert out.g[n] == pytest.approx(np.mean(pairs), abs=1e-12)
        assert out.s[n] == 1


@settings(max_examples=40, deadline=None)
@given(epitomes(), epitomes(), epitomes())
def test_convolve_associative(a, b, c):
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert np.array_equal(left.s, right.s)
    rel = np.abs(left.g - right.g) / np.maximum(1.0, np.abs(left.g))
    assert rel.max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=8),
)
def test_convolve_commutative_normalized(xs, ys):
    a = make_normalized(xs)
    b = make_normalized(ys)
    ab, ba = convolve(a, b), convolve(b, a)
    assert np.array_equal(ab.s, ba.s)
    assert np.allclose(ab.g, ba.g, rtol=0, atol=1e-12)


def test_convolve_count_totals():
    a = make_normalized(np.zeros(5))
    b = make_normalized(np.zeros(7))
    assert convolve(a, b).s.sum() == 35


def test_import_does_not_load_scipy():
    # the kernels are numpy only; scipy would add its import time and memory,
    # and orjson is loaded by the bulk text writers when they first run
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    names = ("scipy", "ghne.oracle", "orjson")
    code = f"import sys, ghne; print(*(name in sys.modules for name in {names!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False False"


# --- summation -------------------------------------------------------------


def test_add_definitional():
    out = add(Epitome([1.0], [1]), Epitome([2.0], [3]))
    assert out == Epitome([3.0], [4])


def test_add_commutes_and_folds():
    a = Epitome([0.1, 0.4], [1, 2])
    b = Epitome([0.2, 0.3], [2, 5])
    assert add(a, b) == add(b, a)

    n = make_normalized([0.25, 0.75])
    total = add(add(n, n), n)
    assert np.allclose(total.g, [0.75, 2.25])
    assert np.array_equal(total.s, [3, 3])


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        add(make_normalized([0.1]), make_normalized([0.1, 0.2]))


@pytest.mark.parametrize(
    "count, build",
    [
        (2**63, lambda: add(Epitome([0.0], [2**62]), Epitome([0.0], [2**62]))),
        (2**63, lambda: Bank(np.zeros((1, 1, 1)), [[[2**63]]])),
        (2**64 - 1, lambda: Bank(np.zeros((1, 1, 1)), np.full((1, 1, 1), 2**64 - 1, np.uint64))),
        (2**64, lambda: Epitome([0.0], [2**64])),
    ],
    ids=["add", "bank_from_list", "bank_from_uint64", "epitome_from_python_ints"],
)
def test_counts_past_int64_raise_not_wrap(count, build):
    # an int64 cast would wrap these negative ("every summand count must be >= 1")
    with pytest.raises(CountOverflowError, match=str(count)):
        build()


def test_python_int_counts_are_checked_like_int64():
    # numpy holds a list with an int past 2**64 - 1 as dtype object
    e = Epitome([0.0, 1.0], np.array([1, 2**62], dtype=object))
    assert e.s.dtype == np.int64 and e.s.tolist() == [1, 2**62]
    with pytest.raises(ValueError, match="every summand count must be >= 1"):
        Epitome([0.0], [-(2**64)])
    with pytest.raises(TypeError, match="counts must be integers, got dtype object"):
        Epitome([0.0, 0.0], [2**64, 1.5])


def test_add_past_float64_is_a_named_error():
    with pytest.raises(ValueError, match="non-finite g value in epitome"):
        add(Epitome([1e308], [1]), Epitome([1e308], [1]))


def test_convolve_past_float64_is_a_named_error():
    # the merge overflows float64; convolve's result is a member of a bank,
    # whose check names it
    with pytest.raises(ValueError, match="non-finite g value in bank"):
        convolve(Epitome([1e308], [1]), Epitome([-1e308], [1]))


# --- fuzziness and histograms ----------------------------------------------


def test_mean_fuzziness_landmarks():
    assert mean_fuzziness(make_normalized([0.5, 0.5, 0.5])) == 0.5
    assert mean_fuzziness(make_normalized([0.0, 1.0, 1.0, 0.0])) == 0.0
    # counted entries normalize first: 1.5/3 = 0.5
    assert mean_fuzziness(Epitome([1.5], [3])) == 0.5


def test_mean_fuzziness_past_float64_range_is_named():
    # 2u(1-u) is about -1.6e308 at u = 9e153: finite once, past the range summed twice
    assert mean_fuzziness(make_normalized([9e153, 0.0])) == pytest.approx(-8.1e307)
    with pytest.raises(ValueError, match=r"^fuzziness overflows float64: \|g/s\| reaches 9e\+153$"):
        mean_fuzziness(make_normalized([9e153, 9e153]))
    with pytest.raises(ValueError, match=r"reaches 1e\+155$"):
        mean_fuzziness(make_normalized([1e155]))


def test_mean_fuzziness_elementwise_oracle():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0, 1, 20)
    e = make_normalized(vals)
    expected = np.mean([2 * v * (1 - v) for v in vals])
    assert mean_fuzziness(e) == pytest.approx(expected, abs=1e-14)


def test_histogram_basics():
    h = histogram(make_normalized(np.full((4, 4), 0.3)), 4, (0.0, 1.0))
    assert np.array_equal(h.counts, [0, 16, 0, 0])

    h = histogram(make_normalized([0.0, 1.0]), 2, (0.0, 1.0))
    assert np.array_equal(h.counts, [1, 1])  # top edge closed

    rng = np.random.default_rng(8)
    h = histogram(make_normalized(rng.uniform(0, 1, 1000)), 10)
    assert h.counts.sum() == 1000
    assert h.bin_edges.size == 11


def test_histogram_default_range_is_data_extent():
    h = histogram(make_normalized([0.2, 0.4, 0.8]), 3)
    assert h.bin_edges[0] == 0.2
    assert h.bin_edges[-1] == 0.8


def test_histogram_validation():
    e = make_normalized([0.1])
    with pytest.raises(ValueError):
        histogram(e, 0)
    with pytest.raises(ValueError):
        histogram(e, 4, (1.0, 1.0))
