"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Every test states its tolerance and trial budget inline and records its
verdict through the record_criterion fixture before asserting, so the
terminal summary always lists all ten verdicts even on a failing run.
"""

import struct
import time

import numpy as np
import pytest

from ghne import (
    Bank,
    BadMagicError,
    LayerSpec,
    Model,
    TruncatedError,
    collapse,
    convolve,
    effective_shape,
    fuzziness,
    ghd,
    load_epitome,
    make_normalized,
    mean_fuzziness,
    save_epitome,
)
from ghne.cli import main
from ghne.ghd import analytic_bias
from ghne.model_io import save_model
from ghne.oracle import (
    check_equivalence,
    find_nonassoc_witness,
    random_bank,
    random_epitome,
    random_input,
    random_model,
    raw_convolve_with_counts,
)


def test_criterion_1_pairwise_sum_identity(record_criterion):
    # 10,000 random tuple pairs, brute double sum vs closed form, 1e-12 abs
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 9)))
        y = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 9)))
        brute = float(ghd(x[:, np.newaxis], y[np.newaxis, :]).sum())
        sx, sy = float(x.sum()), float(y.sum())
        closed = ghd(sx, sy) + (y.size - 1) * sx + (x.size - 1) * sy
        worst = max(worst, abs(brute - closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(1, f"pairwise GHD sum identity, 10000 pairs, max abs {worst:.3e}", ok)
    assert worst <= 1e-12
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_group_count_sequences(record_criterion):
    _, c32 = raw_convolve_with_counts([np.zeros(3), np.zeros(2)])
    _, c322 = raw_convolve_with_counts([np.zeros(3), np.zeros(2), np.zeros(2)])
    ok = np.array_equal(c32, [1, 2, 2, 1]) and np.array_equal(c322, [1, 3, 4, 3, 1])
    record_criterion(2, "raw convolution group sizes (1,2,2,1) and (1,3,4,3,1)", ok)
    assert ok


def test_criterion_3_epitome_associativity(record_criterion):
    # 1,000 triples: counts exact, g within 1e-9 relative
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst_rel = 0.0
    count_mismatches = 0
    for _ in range(1_000):
        a = random_epitome(rng, max_extent=8, max_count=5, g_range=(-2, 2))
        b = random_epitome(rng, max_extent=8, max_count=5, g_range=(-2, 2))
        c = random_epitome(rng, max_extent=8, max_count=5, g_range=(-2, 2))
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        count_mismatches += int(np.count_nonzero(left.s != right.s))
        rel = np.abs(left.g - right.g) / np.maximum(1.0, np.abs(left.g))
        worst_rel = max(worst_rel, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = count_mismatches == 0 and worst_rel <= 1e-9 and elapsed < 5.0
    record_criterion(
        3, f"epitome associativity, 1000 triples, max rel {worst_rel:.3e}", ok
    )
    assert count_mismatches == 0
    assert worst_rel <= 1e-9
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_collapse_equivalence(record_criterion):
    # 200 random models vs layered evaluation: counts exact, 1e-9 relative
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst_rel = 0.0
    count_mismatches = 0
    for _ in range(200):
        model = random_model(rng, max_layers=3, max_channels=4, max_kernel=5, strides=(1, 2))
        shape = tuple(int(rng.integers(1, 17)) for _ in range(2))
        x = random_input(rng, model.layers[0].in_channels, shape)
        report = check_equivalence(model, x, tol=1e-9)
        count_mismatches += report.count_mismatches
        worst_rel = max(worst_rel, report.max_rel_error)
    elapsed = time.perf_counter() - start
    ok = count_mismatches == 0 and worst_rel <= 1e-9 and elapsed < 60.0
    record_criterion(
        4, f"collapse equivalence, 200 models, max rel {worst_rel:.3e}", ok
    )
    assert count_mismatches == 0
    assert worst_rel <= 1e-9
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_collapsed_size_tables(record_criterion):
    # per-depth collapsed extents for three reference architectures
    architectures = {
        "5x5 stack": ([(5, 1), (5, 2), (5, 2)], [5, 14, 23]),
        "mixed 3/5": ([(3, 1), (3, 1), (5, 2), (5, 2)], [3, 5, 14, 23]),
        "seven deep": (
            [(3, 1), (5, 2), (5, 1), (5, 1), (5, 1), (5, 1), (5, 2)],
            [3, 12, 16, 20, 24, 28, 37],
        ),
    }
    rng = np.random.default_rng(105)
    ok = True
    for arch, expected in architectures.values():
        widths = [1] + [2] * len(arch)
        layers = [
            LayerSpec(f"l{i}", rng.uniform(0, 1, (widths[i + 1], widths[i], k, k)), s)
            for i, (k, s) in enumerate(arch)
        ]
        # closed form at every depth, and the actual collapsed bank at full depth
        for depth in range(1, len(layers) + 1):
            got = effective_shape(layers[:depth])
            ok = ok and got == (expected[depth - 1],) * 2
        deep = collapse(Model(layers))
        ok = ok and deep.bank.spatial_shape == (expected[-1],) * 2
    record_criterion(5, "collapsed size tables for three stacks", ok)
    assert ok


def test_criterion_6_raw_nonassociativity(record_criterion):
    x, y, z, disc = find_nonassoc_witness(seed=106, trials=1000, threshold=0.1)
    ex, ey, ez = make_normalized(x), make_normalized(y), make_normalized(z)
    left = convolve(convolve(ex, ey), ez)
    right = convolve(ex, convolve(ey, ez))
    epi = float(np.max(np.abs(left.g - right.g)))
    counts_ok = np.array_equal(left.s, right.s)
    ok = disc > 0.1 and counts_ok and epi <= 1e-9
    record_criterion(
        6, f"raw non-associativity {disc:.3f} vs epitome agreement {epi:.3e}", ok
    )
    assert disc > 0.1
    assert counts_ok
    assert epi <= 1e-9


def test_criterion_7_ghd_identities_and_bias(record_criterion):
    rng = np.random.default_rng(107)
    x = rng.uniform(-10.0, 10.0, size=1_000)
    identities = (
        np.array_equal(ghd(x, np.zeros(1000)), x)
        and np.array_equal(ghd(np.ones(1000), x), 1.0 - x)
        and np.all(ghd(np.full(1000, 0.5), x) == 0.5)
    )
    worst_bias = 0.0
    for _ in range(200):
        length = int(rng.integers(1, 65))
        w = rng.uniform(-1.0, 1.0, size=length)
        v = rng.uniform(-1.0, 1.0, size=length)
        # the analytic bias must turn the GHD sum into the plain inner
        # product minus halves: sum ghd = -2(b + w.v) with b from the
        # closed form
        lhs = float(ghd(w, v).sum())
        rhs = -2.0 * (analytic_bias(w, v) + float(w @ v))
        worst_bias = max(worst_bias, abs(lhs - rhs))
    ok = identities and worst_bias <= 1e-12
    record_criterion(
        7, f"GHD identities exact, bias consistency {worst_bias:.3e}", ok
    )
    assert identities
    assert worst_bias <= 1e-12


def test_criterion_8_serialization_round_trip(record_criterion, tmp_path):
    rng = np.random.default_rng(108)
    ok = True
    for k in range(100):
        rank = int(rng.integers(1, 3))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        bank = random_bank(
            rng,
            m=int(rng.integers(1, 4)),
            c=int(rng.integers(1, 4)),
            shape=shape,
            max_count=7,
            g_range=(-4, 4),
        )
        path = tmp_path / f"bank{k}.ghne"
        save_epitome(bank, path)
        loaded = load_epitome(path)
        ok = ok and loaded.g.tobytes() == bank.g.tobytes()
        ok = ok and np.array_equal(loaded.s, bank.s)
    valid = tmp_path / "bank0.ghne"
    data = valid.read_bytes()
    corrupt = tmp_path / "corrupt.ghne"
    corrupt.write_bytes(b"XXXX" + data[4:])
    truncated = tmp_path / "truncated.ghne"
    truncated.write_bytes(data[:-4])
    try:
        load_epitome(corrupt)
        ok = False
    except BadMagicError:
        pass
    try:
        load_epitome(truncated)
        ok = False
    except TruncatedError:
        pass
    ok = ok and not issubclass(BadMagicError, TruncatedError)
    ok = ok and not issubclass(TruncatedError, BadMagicError)
    record_criterion(8, "100 banks round-trip bit-exactly, distinct errors", ok)
    assert ok


def test_criterion_9_fuzziness_sanity(record_criterion):
    rng = np.random.default_rng(109)
    half = make_normalized(np.full(32, 0.5))
    crisp = make_normalized(rng.integers(0, 2, size=32).astype(float))
    values = rng.uniform(0.0, 1.0, size=32)
    base = mean_fuzziness(make_normalized(values))
    worst_perm = 0.0
    for _ in range(20):
        shuffled = mean_fuzziness(make_normalized(rng.permutation(values)))
        worst_perm = max(worst_perm, abs(shuffled - base))
    ok = (
        mean_fuzziness(half) == 0.5
        and mean_fuzziness(crisp) == 0.0
        and worst_perm <= 1e-12
    )
    record_criterion(
        9, f"fuzziness 0.5/0 landmarks, permutation drift {worst_perm:.3e}", ok
    )
    assert mean_fuzziness(half) == 0.5
    assert mean_fuzziness(crisp) == 0.0
    assert worst_perm <= 1e-12


def test_criterion_10_bench_integrity(record_criterion, tmp_path, capsys):
    rng = np.random.default_rng(110)
    model = Model(
        [
            LayerSpec("conv1", rng.uniform(0, 1, (2, 1, 3, 3)), 1),
            LayerSpec("conv2", rng.uniform(0, 1, (3, 2, 3, 3)), 2),
            LayerSpec("conv3", rng.uniform(0, 1, (2, 3, 2, 2)), 1),
        ]
    )
    path = tmp_path / "bench.ghnm"
    save_model(model, path)
    code = main(["bench", "--model", str(path), "--input-size", "12", "--reps", "3"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    modes = [r[0] for r in rows]
    ok = (
        code == 0
        and "bench-equivalence: PASS" in captured.err
        and lines[0] == "mode,rep,seconds"
        and modes.count("collapse") == 1
        and modes.count("layered") == 3
        and modes.count("one_step") == 3
    )
    record_criterion(10, "bench verifies equality, CSV has both modes + collapse", ok)
    assert ok, captured.out


def test_criteria_cover_all_ten(criterion_log):
    # the acceptance list is 1..10; a renumbering here must fail loudly
    recorded = {n for n, _ in criterion_log}
    assert recorded == set(range(1, 11))
