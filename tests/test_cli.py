"""End-to-end command-line behavior, run in-process via cli.main."""

import os
import struct

import numpy as np
import pytest

from ghne import (
    Bank,
    LayerSpec,
    Model,
    collapse,
    load_epitome,
    read_image,
    save_epitome,
    save_model,
)
from ghne import oracle
from ghne.cli import main
from ghne.model_io import write_pgm
from ghne.oracle import random_bank


@pytest.fixture
def model_file(tmp_path):
    rng = np.random.default_rng(0)
    model = Model(
        [
            LayerSpec("conv1", rng.uniform(0, 1, (2, 1, 3, 3)), 1),
            LayerSpec("conv2", rng.uniform(0, 1, (3, 2, 3, 3)), 2),
            LayerSpec("conv3", rng.uniform(0, 1, (2, 3, 2, 2)), 1),
        ]
    )
    path = tmp_path / "model.ghnm"
    save_model(model, path)
    return str(path), model


@pytest.fixture
def image_file(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "input.pgm"
    write_pgm(path, rng.integers(0, 256, size=(16, 16)).astype(np.uint8))
    return str(path)


# --- collapse -----------------------------------------------------------------


def test_collapse_writes_equivalent_bank(model_file, tmp_path, capsys):
    path, model = model_file
    out = str(tmp_path / "deep.ghne")
    assert main(["collapse", "--model", path, "--out", out]) == 0
    line = capsys.readouterr().out.strip()
    assert line == f"collapsed layers 1..3: m=2 c=1 shape=9x9 -> {out}"
    assert load_epitome(out) == collapse(model).bank


def test_collapse_layer_subrange(model_file, tmp_path, capsys):
    path, model = model_file
    out = str(tmp_path / "tail.ghne")
    assert main(["collapse", "--model", path, "--layers", "2..3", "--out", out]) == 0
    assert "collapsed layers 2..3" in capsys.readouterr().out
    assert load_epitome(out) == collapse(model, first_layer=2, upto_layer=3).bank


def test_collapse_fuzzy_fill_differs(model_file, tmp_path):
    path, model = model_file
    a = str(tmp_path / "rep.ghne")
    b = str(tmp_path / "fuz.ghne")
    assert main(["collapse", "--model", path, "--out", a]) == 0
    assert main(["collapse", "--model", path, "--out", b, "--stride-fill", "fuzzy"]) == 0
    assert load_epitome(a) != load_epitome(b)
    assert load_epitome(b) == collapse(model, fill="fuzzy").bank


def test_collapse_range_out_of_bounds(model_file, tmp_path, capsys):
    path, _ = model_file
    out = str(tmp_path / "x.ghne")
    assert main(["collapse", "--model", path, "--layers", "2..9", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_collapse_malformed_range_is_usage_error(model_file, tmp_path):
    path, _ = model_file
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--model", path, "--layers", "2-3", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_collapse_missing_model_file(tmp_path, capsys):
    assert main(["collapse", "--model", str(tmp_path / "no.ghnm"), "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_collapse_twice_writes_identical_files(model_file, tmp_path):
    path, _ = model_file
    a = str(tmp_path / "first.ghne")
    b = str(tmp_path / "second.ghne")
    assert main(["collapse", "--model", path, "--out", a]) == 0
    assert main(["collapse", "--model", path, "--out", b]) == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_collapse_count_overflow_is_usage_error(tmp_path, capsys):
    # 29 layers of 1x1 kernels, widths 1 then 5s: the one count is 5**28 > 2**63
    rng = np.random.default_rng(0)
    widths = [1] + [5] * 29
    model = Model(
        LayerSpec(f"conv{i + 1}", rng.uniform(0, 1, (w_out, w_in, 1, 1)), 1)
        for i, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
    )
    path = tmp_path / "deep29.ghnm"
    save_model(model, path)
    out = tmp_path / "deep29.ghne"
    assert main(["collapse", "--model", str(path), "--out", str(out)]) == 2
    assert "exceeds the int64 maximum" in capsys.readouterr().err
    assert not out.exists()


def only_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0] != "error: "


def test_collapse_allocation_failure_is_usage_error(tmp_path, capsys):
    # stride 2**59 resizes the one-weight kernel to 2**59 float64s (4 EiB)
    path = tmp_path / "huge.ghnm"
    path.write_text(
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 1\n"
        f"stride {2**59}\nweights inline\n0.5\n"
    )
    out = tmp_path / "huge.ghne"
    assert main(["collapse", "--model", str(path), "--out", str(out)]) == 2
    only_error_line(capsys)
    assert not out.exists()


def test_stats_on_a_32_gib_header_is_usage_error(tmp_path, capsys):
    # 2**31 declared entries of 16 bytes: the read either cannot be allocated
    # (MemoryError) or comes back short (TruncatedError); both are exit 2
    path = tmp_path / "huge.ghne"
    path.write_bytes(b"GHNE" + struct.pack("<IIIII", 1, 1, 1, 1, 2**31))
    out = tmp_path / "stats.csv"
    assert main(["stats", "--epitome", str(path), "--out", str(out)]) == 2
    only_error_line(capsys)
    assert not out.exists()


# --- apply ---------------------------------------------------------------------


def finish_collapse(model_file, tmp_path):
    path, model = model_file
    out = str(tmp_path / "deep.ghne")
    assert main(["collapse", "--model", path, "--out", out]) == 0
    return out


def test_apply_full_and_same_shapes(model_file, image_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)
    out_full = str(tmp_path / "full")
    out_same = str(tmp_path / "same")
    assert main(["apply", "--epitome", deep, "--input", image_file, "--out", out_full]) == 0
    assert "crop=full" in capsys.readouterr().out
    assert (
        main(
            ["apply", "--epitome", deep, "--input", image_file, "--crop", "same", "--out", out_same]
        )
        == 0
    )
    # deep epitome is 9x9, input 16x16: full 24x24, same 16x16
    full_img = read_image(os.path.join(out_full, "feature_f0_c0.pgm"))
    same_img = read_image(os.path.join(out_same, "feature_f0_c0.pgm"))
    assert full_img.spatial_shape == (24, 24)
    assert same_img.spatial_shape == (16, 16)
    assert os.path.exists(os.path.join(out_full, "features.csv"))
    assert os.path.exists(os.path.join(out_full, "scaling.txt"))


def read_feature_values(path):
    lines = open(path).read().splitlines()[1:]
    return [float(line.rsplit(",", 1)[1]) for line in lines]


def test_apply_negate_flips_values(model_file, image_file, tmp_path):
    deep = finish_collapse(model_file, tmp_path)
    plain = str(tmp_path / "plain")
    negated = str(tmp_path / "neg")
    assert main(["apply", "--epitome", deep, "--input", image_file, "--out", plain]) == 0
    assert (
        main(["apply", "--epitome", deep, "--input", image_file, "--negate", "--out", negated])
        == 0
    )
    a = read_feature_values(os.path.join(plain, "features.csv"))
    b = read_feature_values(os.path.join(negated, "features.csv"))
    assert len(a) == len(b) > 0
    assert all(x == -y for x, y in zip(a, b))


def test_apply_corrupt_epitome_file(image_file, tmp_path, capsys):
    bad = tmp_path / "bad.ghne"
    bad.write_bytes(b"not an epitome")
    assert main(["apply", "--epitome", str(bad), "--input", image_file, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_apply_valid_crop_too_small(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)  # 9x9
    small = tmp_path / "small.pgm"
    write_pgm(small, np.zeros((4, 4), dtype=np.uint8))
    code = main(
        ["apply", "--epitome", deep, "--input", str(small), "--crop", "valid", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "valid" in capsys.readouterr().err


# --- verify ----------------------------------------------------------------------


def test_verify_random_passes(capsys):
    assert main(["verify", "--random", "--trials", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    names = [line.split(":")[0] for line in out]
    assert names == [
        "pairwise-sum-identity",
        "epitome-associativity",
        "collapse-equivalence",
        "raw-nonassociativity",
    ]
    assert all(": PASS" in line for line in out)


def test_verify_fixed_model(model_file, capsys):
    path, _ = model_file
    assert main(["verify", "--model", path, "--trials", "3"]) == 0
    assert ": PASS" in capsys.readouterr().out


def test_verify_zero_tol_reports_fp_failures(capsys):
    # fp rounding is real: at tol 0 the suites must fail honestly
    assert main(["verify", "--random", "--trials", "5", "--tol", "0"]) == 1
    assert ": FAIL" in capsys.readouterr().out


def test_verify_negative_tol_is_usage_error(capsys):
    assert main(["verify", "--random", "--tol", "-1"]) == 2
    assert "--tol" in capsys.readouterr().err


def test_verify_needs_a_source():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_verify_is_deterministic(capsys):
    assert main(["verify", "--random", "--trials", "4", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--random", "--trials", "4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


# --- stats and render --------------------------------------------------------------


def test_stats_writes_csv(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)
    out = str(tmp_path / "stats.csv")
    assert main(["stats", "--epitome", deep, "--bins", "8", "--out", out]) == 0
    assert "aggregate fuzziness" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0] == "filter,channel,bin_lo,bin_hi,count,fuzziness"
    assert len(lines) == 1 + 8 * 3  # m*c=2 members + aggregate


def test_stats_fixed_range(model_file, tmp_path):
    deep = finish_collapse(model_file, tmp_path)
    out = str(tmp_path / "stats.csv")
    assert main(["stats", "--epitome", deep, "--out", out, "--range", "0", "1"]) == 0
    first = open(out).read().splitlines()[1]
    assert first.split(",")[2] == "0.0"


def test_stats_bad_bins(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)
    assert main(["stats", "--epitome", deep, "--bins", "0", "--out", str(tmp_path / "s.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_render_grayscale(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)
    out = str(tmp_path / "render")
    assert main(["render", "--epitome", deep, "--out", out]) == 0
    assert "wrote 2 images" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["member_f0_c0.pgm", "member_f1_c0.pgm", "scaling.txt"]


def test_render_pseudo_color(tmp_path, capsys):
    bank = random_bank(np.random.default_rng(4), m=2, c=3, shape=(4, 4))
    path = str(tmp_path / "b.ghne")
    save_epitome(bank, path)
    out = str(tmp_path / "rgb")
    assert main(["render", "--epitome", path, "--out", out, "--pseudo-color"]) == 0
    assert sorted(os.listdir(out)) == ["member_f0_rgb.ppm", "member_f1_rgb.ppm", "scaling.txt"]


def test_render_pseudo_color_needs_three_channels(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)  # c=1
    assert main(["render", "--epitome", deep, "--out", str(tmp_path / "rgb"), "--pseudo-color"]) == 2
    assert "c=1" in capsys.readouterr().err


# --- bench -------------------------------------------------------------------------


def test_bench_csv_structure(model_file, capsys):
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "8", "--reps", "2"]) == 0
    captured = capsys.readouterr()
    assert "bench-equivalence: PASS" in captured.err
    lines = captured.out.splitlines()
    assert lines[0] == "mode,rep,seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["collapse", "layered", "layered", "one_step", "one_step"]
    assert [r[1] for r in rows] == ["1", "1", "2", "1", "2"]
    for r in rows:
        assert float(r[2]) >= 0.0


def test_bench_single_rep(model_file, capsys):
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "6", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    modes = [line.split(",")[0] for line in lines[1:]]
    assert modes == ["collapse", "layered", "one_step"]


def test_bench_refuses_timings_when_the_gate_fails(model_file, monkeypatch, capsys):
    path, _ = model_file
    layered_forward = oracle.layered_forward

    def perturbed(model, input_bank, fill="replicate"):
        reference = layered_forward(model, input_bank, fill)
        return Bank(reference.g * (1 + 1e-6), reference.s)

    monkeypatch.setattr(oracle, "layered_forward", perturbed)
    assert main(["bench", "--model", path, "--input-size", "8", "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing" in captured.err
    assert "bench-equivalence: FAIL" in captured.err


def test_stats_constant_half_bank(tmp_path, capsys):
    # every normalized entry 0.5: maximal fuzziness straight through the CLI
    bank = Bank(np.full((1, 1, 3, 3), 0.5), np.ones((1, 1, 3, 3), dtype=np.int64))
    path = str(tmp_path / "half.ghne")
    save_epitome(bank, path)
    out = str(tmp_path / "half.csv")
    assert main(["stats", "--epitome", path, "--bins", "4", "--out", out]) == 0
    assert "aggregate fuzziness 0.500000" in capsys.readouterr().out


def test_bench_rejects_zero_reps(model_file, capsys):
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "8", "--reps", "0"]) == 2
    assert "--reps" in capsys.readouterr().err


# --- demo ---------------------------------------------------------------------------


def test_demo_end_to_end(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "deep epitome m=2 c=1 shape=9x9" in stdout
    assert stdout.count(": PASS") == 4
    for name in ("model.ghnm", "input.pgm", "deep.ghne", "verify.txt", "stats.csv", "fuzziness.csv"):
        assert (out / name).exists(), name
    assert (out / "features" / "features.csv").exists()
    assert (out / "render" / "scaling.txt").exists()
    # fuzziness series has one row per collapsed depth
    lines = (out / "fuzziness.csv").read_text().splitlines()
    assert lines[0] == "layers_collapsed,fuzziness"
    assert len(lines) == 4


def test_demo_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["demo", "--out", str(a)]) == 0
    assert main(["demo", "--out", str(b)]) == 0
    for name in ("deep.ghne", "input.pgm", "stats.csv", "fuzziness.csv", "verify.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# --- parser --------------------------------------------------------------------------


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
