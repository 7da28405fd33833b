"""End-to-end command-line behavior, run in-process via cli.main."""

import json
import os
import struct

import numpy as np
import pytest

from ghne import (
    Bank,
    LayerSpec,
    Model,
    TruncatedError,
    apply,
    collapse,
    load_epitome,
    read_image,
    save_epitome,
    save_model,
)
from ghne import oracle
from ghne.cli import main
from ghne.model_io import write_pgm, write_ppm
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


@pytest.mark.parametrize(
    "text, message",
    [("a..3", "expected integer bounds in 'a..3'"), ("3..2", "bad layer range '3..2'")],
)
def test_collapse_bad_range_bounds_are_usage_errors(model_file, tmp_path, capsys, text, message):
    path, _ = model_file
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--model", path, "--layers", text, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument --layers: {message}")


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
    # 2**31 declared entries of 16 bytes, none present: the loader reads
    # declared sizes in bounded chunks, so nothing of that size is allocated
    path = tmp_path / "huge.ghne"
    path.write_bytes(b"GHNE" + struct.pack("<IIIII", 1, 1, 1, 1, 2**31))
    with pytest.raises(TruncatedError):
        load_epitome(path)
    out = tmp_path / "stats.csv"
    assert main(["stats", "--epitome", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: expected 34359738368 entry bytes, got 0\n"
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
    with open(path) as f:
        lines = f.read().splitlines()[1:]
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


def test_apply_on_a_2_40_pixel_header_is_usage_error(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)
    image = tmp_path / "huge.pgm"
    image.write_bytes(b"P5\n1048576 1048576\n255\n" + bytes(16))
    out = tmp_path / "o"
    assert main(["apply", "--epitome", deep, "--input", str(image), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: truncated raster: expected 1099511627776 bytes, got 16\n"
    )
    assert not out.exists()


def test_apply_valid_crop_too_small(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)  # 9x9
    small = tmp_path / "small.pgm"
    write_pgm(small, np.zeros((4, 4), dtype=np.uint8))
    code = main(
        ["apply", "--epitome", deep, "--input", str(small), "--crop", "valid", "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "valid" in capsys.readouterr().err


def test_apply_channel_mismatch_is_usage_error(model_file, tmp_path, capsys):
    # a PPM gives the input m = 3 planes; the deep epitome has c = 1 channel
    deep = finish_collapse(model_file, tmp_path)
    image = tmp_path / "rgb.ppm"
    write_ppm(image, np.zeros((8, 8, 3), dtype=np.uint8))
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["apply", "--epitome", deep, "--input", str(image), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bank mismatch: left bank has m=3 epitomes but right bank expects c=1 channels\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["collapse", "stats", "bench"])
def test_an_output_in_a_missing_directory_names_that_output(model_file, tmp_path, capsys, command):
    path, _ = model_file
    deep = finish_collapse(model_file, tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    target = str(tmp_path / "nodir" / "out")
    argv = {
        "collapse": ["collapse", "--model", path, "--out", target],
        "stats": ["stats", "--epitome", deep, "--out", target],
        "bench": ["bench", "--model", path, "--input-size", "6", "--json", target],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno 2] No such file or directory: {target!r}"]
    assert err.endswith(errors[0] + "\n") and ".ghne-tmp-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("tol", ["-1", "-1e-3", "nan", "inf"])
def test_verify_negative_tol_is_usage_error(capsys, tol):
    # argparse took "-1e-3" for an option; a NaN passed "tol < 0" and failed every suite;
    # an infinite tolerance passed every suite whatever the error
    assert main(["verify", "--random", "--tol", tol]) == 2
    rule = "finite" if tol == "inf" else ">= 0"
    assert capsys.readouterr() == ("", f"error: --tol must be {rule}\n")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_is_usage_error(capsys, trials):
    # every suite passed with entries=0 (or -3): a check that checked nothing
    assert main(["verify", "--random", "--trials", trials]) == 2
    assert capsys.readouterr() == ("", "error: --trials must be >= 1\n")


def test_verify_reports_the_first_bad_option(capsys):
    assert main(["verify", "--random", "--tol", "-1", "--trials", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --tol must be >= 0\n")


@pytest.mark.parametrize("command", ["verify", "demo"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # numpy's "expected non-negative integer" named neither the option nor the value
    out = tmp_path / "demo"
    flags = ["--random"] if command == "verify" else ["--out", str(out)]
    assert main([command, *flags, "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: --seed must be >= 0\n")
    assert not out.exists()


def test_verify_wide_weights_with_a_model_is_usage_error(model_file, capsys):
    # the model's own weights are used, so the flag was silently ignored
    path, _ = model_file
    assert main(["verify", "--model", path, "--trials", "2", "--wide-weights"]) == 2
    err = "error: --wide-weights applies only to --random, not to --model\n"
    assert capsys.readouterr() == ("", err)


def test_verify_reports_a_failed_witness_search(monkeypatch, capsys):
    def no_witness(seed):
        raise RuntimeError("no non-associativity witness found in 1000 trials")

    monkeypatch.setattr(oracle, "find_nonassoc_witness", no_witness)
    assert main(["verify", "--random", "--trials", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "raw-nonassociativity: FAIL no non-associativity witness found in 1000 trials"
    assert all(": PASS" in line for line in out[:-1])


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
    with open(out) as f:
        lines = f.read().splitlines()
    assert lines[0] == "filter,channel,bin_lo,bin_hi,count,fuzziness"
    assert len(lines) == 1 + 8 * 3  # m*c=2 members + aggregate


def test_stats_fixed_range(model_file, tmp_path):
    deep = finish_collapse(model_file, tmp_path)
    out = str(tmp_path / "stats.csv")
    assert main(["stats", "--epitome", deep, "--out", out, "--range", "0", "1"]) == 0
    with open(out) as f:
        first = f.read().splitlines()[1]
    assert first.split(",")[2] == "0.0"


@pytest.mark.parametrize("lo, hi", [("-1e-3", "1"), ("-2.5E-1", "-1_0e-2"), ("-.5e0", "1.")])
def test_stats_range_takes_negative_bounds_with_exponents(model_file, tmp_path, lo, hi):
    # argparse's own negative-number pattern read "-1e-3" as an option
    deep = finish_collapse(model_file, tmp_path)
    out = str(tmp_path / "stats.csv")
    assert main(["stats", "--epitome", deep, "--bins", "1", "--out", out, "--range", lo, hi]) == 0
    with open(out) as f:
        first = f.read().splitlines()[1]
    assert first.split(",")[2:4] == [repr(float(lo)), repr(float(hi))]


def test_stats_range_malformed_negative_bound(tmp_path, capsys):
    # read as a value, not as an option, so argparse names the bad number
    out = tmp_path / "stats.csv"
    argv = ["stats", "--epitome", str(tmp_path / "e.ghne"), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--range", "-1x", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "ghne stats: error: argument --range: invalid float value: '-1x'"
    assert not out.exists()


def test_stats_bad_bins(model_file, tmp_path, capsys):
    deep = finish_collapse(model_file, tmp_path)
    out = tmp_path / "s.csv"
    # the usage error comes before the file is read, so a missing file is not reported first
    for epitome in (deep, str(tmp_path / "missing.ghne")):
        assert main(["stats", "--epitome", epitome, "--bins", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --bins must be >= 1\n"
    assert not out.exists()


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


@pytest.mark.parametrize("crop", ["full", "same", "valid"])
def test_bench_gates_and_times_the_crop(model_file, monkeypatch, capsys, crop):
    # the gate compares the cropped reference with the apply that is timed
    crops = []

    def recorded(input_bank, deep, crop="full"):
        crops.append(crop)
        return apply(input_bank, deep, crop)

    monkeypatch.setattr("ghne.cli.apply", recorded)
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "12", "--reps", "2", "--crop", crop]) == 0
    captured = capsys.readouterr()
    side = {"full": 20, "same": 12, "valid": 4}[crop]
    assert f"bench-equivalence: PASS entries={2 * side * side} " in captured.err
    assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == [
        "collapse", "layered", "layered", "one_step", "one_step"
    ]
    assert crops == [crop] * 3


def test_bench_valid_crop_of_a_small_input_is_a_usage_error(model_file, capsys):
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "8", "--crop", "valid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: valid crop is empty")


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


def test_bench_refuses_timings_when_a_rep_differs(model_file, monkeypatch, capsys):
    # the gated apply passes; the first timed rep is off by one ulp in one entry
    calls = []

    def corrupted(input_bank, deep, crop="full"):
        out = apply(input_bank, deep, crop)
        calls.append(crop)
        if len(calls) == 2:
            g = out.g.copy()
            g.flat[0] = np.nextafter(g.flat[0], np.inf)
            out = Bank(g, out.s)
        return out

    monkeypatch.setattr("ghne.cli.apply", corrupted)
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "12", "--reps", "3",
                 "--crop", "same"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bench-equivalence: PASS" in captured.err
    assert captured.err.endswith(
        "error: one-step rep 1 differs from the gated output, refusing to report timings\n"
    )
    assert len(calls) == 2


def test_bench_json_adds_each_gated_run(model_file, tmp_path, capsys):
    path, model = model_file
    record = tmp_path / "BENCH_model.json"
    for size in ("12", "9"):
        assert main(["bench", "--model", path, "--input-size", size, "--reps", "3",
                     "--crop", "same", "--json", str(record)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # stdout is the same CSV as without --json
        assert lines[0] == "mode,rep,seconds" and len(lines) == 1 + 1 + 3 + 3
    data = json.loads(record.read_text())
    assert data["model"]["layers"][1] == {"name": "conv2", "weights": [3, 2, 3, 3], "stride": [2, 2]}
    assert data["model"]["deep_epitome"] == [2, 1, 9, 9]
    assert [(run["input_size"], run["crop"]) for run in data["runs"]] == [(12, "same"), (9, "same")]
    for run in data["runs"]:
        assert set(run["environment"]) == {"cpus", "python", "numpy", "blas_threads"}
        assert run["environment"]["numpy"] == np.__version__
        assert list(run["modes"]) == ["collapse", "layered", "one_step"]
        assert [run["modes"][m]["reps"] for m in run["modes"]] == [1, 3, 3]
        assert run["modes"]["collapse"]["iqr_s"] == 0
        assert all(mode["median_s"] > 0 and mode["iqr_s"] >= 0 for mode in run["modes"].values())


def test_bench_json_is_written_only_after_both_checks(model_file, tmp_path, monkeypatch, capsys):
    path, _ = model_file
    record = tmp_path / "BENCH_model.json"
    layered_forward = oracle.layered_forward

    def perturbed(model, input_bank, fill="replicate"):
        reference = layered_forward(model, input_bank, fill)
        return Bank(reference.g * (1 + 1e-6), reference.s)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "layered_forward", perturbed)
        assert main(["bench", "--model", path, "--input-size", "8", "--json", str(record)]) == 1
    calls = []

    def corrupted(input_bank, deep, crop="full"):
        out = apply(input_bank, deep, crop)
        calls.append(crop)
        if len(calls) == 2:
            out = Bank(out.g + 1e-3, out.s)
        return out

    monkeypatch.setattr("ghne.cli.apply", corrupted)
    assert main(["bench", "--model", path, "--input-size", "8", "--json", str(record)]) == 1
    assert not record.exists() and capsys.readouterr().out == ""


def test_bench_json_refuses_a_record_it_cannot_add_to(model_file, tmp_path, capsys):
    path, _ = model_file
    record = tmp_path / "BENCH_model.json"
    other = tmp_path / "other.ghnm"
    save_model(Model([LayerSpec("only", np.full((1, 1, 2, 2), 0.5))]), other)
    assert main(["bench", "--model", str(other), "--input-size", "6", "--json", str(record)]) == 0
    kept = record.read_text()
    capsys.readouterr()
    assert main(["bench", "--model", path, "--input-size", "8", "--json", str(record)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "holds bench runs of another model" in captured.err
    for text in ("[]", "{}", "not json"):
        record.write_text(text)
        assert main(["bench", "--model", path, "--input-size", "8", "--json", str(record)]) == 2
        assert capsys.readouterr().out == ""
    record.write_text(kept)


@pytest.mark.parametrize("case", ["missing directory", "not a record", "another model"])
def test_bench_json_fails_before_the_gate(model_file, tmp_path, monkeypatch, capsys, case):
    path, _ = model_file
    record = tmp_path / "BENCH_model.json"
    if case == "missing directory":
        record = tmp_path / "nodir" / "BENCH_model.json"
    elif case == "not a record":
        record.write_text("[]")
    else:
        other = tmp_path / "other.ghnm"
        save_model(Model([LayerSpec("only", np.full((1, 1, 2, 2), 0.5))]), other)
        assert main(["bench", "--model", str(other), "--input-size", "6", "--reps", "1",
                     "--json", str(record)]) == 0
    capsys.readouterr()
    kept = record.read_text() if record.exists() else None

    def gate(*args, **kwargs):
        raise AssertionError("the gate ran before the record was checked")

    monkeypatch.setattr(oracle, "layered_forward", gate)
    assert main(["bench", "--model", path, "--input-size", "8", "--json", str(record)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bench-equivalence" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (record.read_text() if record.exists() else None) == kept


def test_stats_constant_half_bank(tmp_path, capsys):
    # every normalized entry 0.5: maximal fuzziness straight through the CLI
    bank = Bank(np.full((1, 1, 3, 3), 0.5), np.ones((1, 1, 3, 3), dtype=np.int64))
    path = str(tmp_path / "half.ghne")
    save_epitome(bank, path)
    out = str(tmp_path / "half.csv")
    assert main(["stats", "--epitome", path, "--bins", "4", "--out", out]) == 0
    assert "aggregate fuzziness 0.500000" in capsys.readouterr().out


def save_bank(tmp_path, g):
    path = str(tmp_path / "bank.ghne")
    save_epitome(Bank(g, np.ones(np.shape(g), dtype=np.int64)), path)
    return path


def test_stats_on_fuzziness_past_float64_is_usage_error(tmp_path, capsys):
    path = save_bank(tmp_path, [[[[1e200, 0.0], [0.0, 0.0]]]])
    out = tmp_path / "stats.csv"
    assert main(["stats", "--epitome", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: fuzziness overflows float64: |g/s| reaches 1e+200\n"
    assert not out.exists()


_WIDE_MEMBER = "member values from -1.5e+308 to 1.5e+308 span more than float64's maximum"


@pytest.mark.parametrize(
    "command, message",
    [
        (["render"], _WIDE_MEMBER),
        (["render", "--pseudo-color"], _WIDE_MEMBER),
        (["stats"], "histogram range (-1.5e+308, 1.5e+308) is wider than float64's maximum"),
    ],
)
def test_a_span_past_float64_is_usage_error(tmp_path, capsys, command, message):
    # the last of six members spans past float64's maximum, so a writer
    # that wrote member by member would leave images behind
    g = np.zeros((2, 3, 2, 2))
    g[1, 2, 0, 0], g[1, 2, 1, 1] = -1.5e308, 1.5e308
    out = tmp_path / "out"
    assert main([*command, "--epitome", save_bank(tmp_path, g), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_g_past_float64_is_a_named_error_without_warnings(tmp_path, capsys):
    # 1e308 and -1e308 overflow T = s - 2g in the kernel and the additive
    # merge in the reference; tier-1 turns numpy's RuntimeWarnings into errors
    layer = "filters 1\nchannels 1\nkernel 2\nweights inline\n1e308 -1e308\n"
    model = tmp_path / "wide.ghnm"
    model.write_text(f"ghne-model v1\nlayer a\n{layer}layer b\n{layer}")
    deep = tmp_path / "deep.ghne"
    image = tmp_path / "in.pgm"
    write_pgm(image, np.arange(64, dtype=np.uint8).reshape(8, 8))
    out = tmp_path / "out"
    wide = save_bank(tmp_path, np.full((1, 1, 2, 2), 8e307))
    for command in (
        ["collapse", "--model", str(model), "--out", str(deep)],
        ["verify", "--model", str(model), "--trials", "2"],
        ["apply", "--epitome", wide, "--input", str(image), "--out", str(out)],
    ):
        assert main(command) == 2
        assert capsys.readouterr() == ("", "error: non-finite g value in bank\n")
    assert not deep.exists() and not out.exists()


def test_render_a_span_just_inside_float64(tmp_path, capsys):
    path = save_bank(tmp_path, [[[[-8e307, 0.0], [0.0, 8e307]]]])
    assert main(["render", "--epitome", path, "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "member_f0_c0.pgm").read_bytes().endswith(bytes([0, 128, 128, 255]))


def test_bench_gates_the_epitome_it_times(model_file, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return collapse(*args, **kwargs)

    monkeypatch.setattr("ghne.cli.collapse", counted)
    monkeypatch.setattr(oracle, "collapse", counted)
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "8", "--reps", "1"]) == 0
    assert "bench-equivalence: PASS" in capsys.readouterr().err
    assert len(calls) == 1


# Bank and numpy rejected the input sizes with messages that named no option
@pytest.mark.parametrize(
    "option, value", [("--reps", "0"), ("--input-size", "0"), ("--input-size", "-3")]
)
def test_bench_rejects_zero_reps(model_file, capsys, option, value):
    path, _ = model_file
    assert main(["bench", "--model", path, "--input-size", "8", option, value]) == 2
    assert capsys.readouterr().err == f"error: {option} must be >= 1\n"


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


def test_main_runs_again_after_a_usage_error(model_file, image_file, tmp_path, capsys):
    # one parser serves every main call in a process; an argument error leaves it as it was
    deep = finish_collapse(model_file, tmp_path)
    capsys.readouterr()

    def run_apply(out):
        argv = ["apply", "--epitome", deep, "--input", image_file, "--crop", "same", "--negate"]
        assert main(argv + ["--out", str(out)]) == 0
        return capsys.readouterr().out.replace(str(out), "OUT")

    first = run_apply(tmp_path / "first")
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--epitome", deep, "--crop", "sideways", "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert "invalid choice: 'sideways'" in capsys.readouterr().err
    assert run_apply(tmp_path / "second") == first
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second")) and "features.csv" in names
    for name in names:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
    assert not (tmp_path / "bad").exists()
