"""Model text files, GHNE binary banks, PGM/PPM images, CSV writers."""

import contextlib
import io
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghne import (
    Bank,
    BadMagicError,
    EpitomeFormatError,
    ImageFormatError,
    LayerSpec,
    Model,
    ModelFormatError,
    TruncatedError,
    VersionError,
    bank_stats,
    collapse,
    load_epitome,
    load_model,
    read_image,
    save_epitome,
    save_model,
)
from ghne.cli import main
from ghne.model_io import (
    FormatError,
    write_features_csv,
    write_member_images,
    write_pgm,
    write_ppm,
    write_pseudo_color_images,
    write_series_csv,
    write_stats_csv,
    write_text,
)
from ghne.oracle import random_bank, random_model


def two_layer_model(rng=None):
    rng = rng or np.random.default_rng(0)
    w1 = rng.uniform(0, 1, (2, 1, 3, 3))
    w2 = rng.uniform(-1, 1, (3, 2, 2, 2))
    return Model([LayerSpec("conv1", w1, 1), LayerSpec("conv2", w2, (2, 1))])


def same_model(a: Model, b: Model) -> bool:
    if len(a) != len(b):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.name != lb.name or la.stride != lb.stride:
            return False
        if not np.array_equal(la.weights, lb.weights):
            return False
    return True


# --- model text format -------------------------------------------------------


def test_model_round_trip_inline(tmp_path):
    model = two_layer_model()
    path = tmp_path / "net.ghnm"
    save_model(model, path)
    assert same_model(load_model(path), model)


def test_model_round_trip_blob(tmp_path):
    model = two_layer_model()
    path = tmp_path / "net.ghnm"
    save_model(model, path, weights_mode="blob")
    assert (tmp_path / "net.conv1.f64").exists()
    assert (tmp_path / "net.conv2.f64").exists()
    loaded = load_model(path)
    # blob floats are raw, so bitwise equality must hold
    for la, lb in zip(loaded.layers, model.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()


def test_model_inline_weights_round_trip_bitwise(tmp_path):
    # repr of a float round-trips, so inline mode is bit-exact too
    w = np.array([[[0.1, 1 / 3, 2.5e-13]]])
    path = tmp_path / "one.ghnm"
    save_model(Model([LayerSpec("only", w, 1)]), path)
    assert load_model(path).layers[0].weights.tobytes() == w.tobytes()


def test_model_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "m.ghnm"
    path.write_text(
        "# a model\n"
        "ghne-model v1\n"
        "\n"
        "layer a  # the only layer\n"
        "filters 1\n"
        "channels 1\n"
        "kernel 2\n"
        "weights inline\n"
        "0.25 0.75  # two weights\n"
    )
    model = load_model(path)
    assert model.layers[0].name == "a"
    assert np.array_equal(model.layers[0].weights, [[[0.25, 0.75]]])
    assert model.layers[0].stride == (1,)  # default


def test_model_stride_broadcasts(tmp_path):
    path = tmp_path / "m.ghnm"
    path.write_text(
        "ghne-model v1\n"
        "layer a\nfilters 1\nchannels 1\nkernel 2 2\nstride 2\n"
        "weights inline\n1 0 0 1\n"
    )
    assert load_model(path).layers[0].stride == (2, 2)


def test_model_stride_per_axis(tmp_path):
    path = tmp_path / "m.ghnm"
    path.write_text(
        "ghne-model v1\n"
        "layer a\nfilters 1\nchannels 1\nkernel 2 2\nstride 2 3\n"
        "weights inline\n1 0 0 1\n"
    )
    assert load_model(path).layers[0].stride == (2, 3)


def model_error(tmp_path, body, name="bad.ghnm"):
    path = tmp_path / name
    path.write_text(body)
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    return str(exc.value)


def test_model_missing_header(tmp_path):
    msg = model_error(tmp_path, "layer a\n")
    assert "header" in msg


def test_model_empty_file(tmp_path):
    msg = model_error(tmp_path, "# nothing here\n")
    assert "empty" in msg


def test_model_no_layers(tmp_path):
    msg = model_error(tmp_path, "ghne-model v1\n")
    assert "no layers" in msg


def test_model_wrong_weight_count_names_layer(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer conv3\nfilters 1\nchannels 1\nkernel 3\n"
        "weights inline\n0.5 0.5\n",
    )
    assert "conv3" in msg and "expected 3" in msg


def test_model_error_carries_file_and_line(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 1\nbogus 3\n",
        name="lined.ghnm",
    )
    assert "lined.ghnm:6:" in msg
    assert "bogus" in msg


def test_model_duplicate_layer_name(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\n"
        "layer a\nfilters 1\nchannels 1\nkernel 1\nweights inline\n0.5\n"
        "layer a\nfilters 1\nchannels 1\nkernel 1\nweights inline\n0.5\n",
    )
    assert "duplicate" in msg


def test_model_chain_break_names_both_layers(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\n"
        "layer one\nfilters 2\nchannels 1\nkernel 1\nweights inline\n0.5 0.5\n"
        "layer two\nfilters 1\nchannels 3\nkernel 1\nweights inline\n0.5 0.5 0.5\n",
    )
    assert "one" in msg and "two" in msg


def test_model_bad_weight_value(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 2\n"
        "weights inline\n0.5 oops\n",
    )
    assert "oops" in msg


def test_model_nonfinite_weight_rejected(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 2\n"
        "weights inline\n0.5 inf\n",
    )
    assert "a" in msg


def test_model_weights_before_dims(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nweights inline\n0.5\n",
    )
    assert "before" in msg and "kernel" in msg


def test_model_missing_weights(tmp_path):
    msg = model_error(
        tmp_path, "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 1\n"
    )
    assert "missing weights" in msg


def test_model_stride_rank_mismatch(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 2 2\nstride 2 2 2\n"
        "weights inline\n1 0 0 1\n",
    )
    assert "stride" in msg


def test_model_blob_missing(tmp_path):
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 1\n"
        "weights blob nowhere.f64\n",
    )
    assert "nowhere.f64" in msg


def test_model_blob_wrong_size(tmp_path):
    (tmp_path / "w.f64").write_bytes(b"\x00" * 8)
    msg = model_error(
        tmp_path,
        "ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 2\n"
        "weights blob w.f64\n",
    )
    assert "expected 2" in msg


def test_model_blob_absolute_path_rejected(tmp_path):
    blob = tmp_path / "w.f64"
    blob.write_bytes(b"\x00" * 8)
    msg = model_error(
        tmp_path,
        f"ghne-model v1\nlayer a\nfilters 1\nchannels 1\nkernel 1\n"
        f"weights blob {blob}\n",
    )
    assert "relative" in msg


_HEAD = "ghne-model v1\n"
_DIMS = "layer a\nfilters 1\nchannels 1\nkernel 2\n"


def test_model_blob_is_sized_before_it_is_read(tmp_path):
    # a sparse 1 TiB blob for 2 weights: reading it whole ended in MemoryError
    with open(tmp_path / "w.f64", "wb") as f:
        f.truncate(2**40)
    msg = model_error(tmp_path, _HEAD + _DIMS + "weights blob w.f64\n")
    path = tmp_path / "bad.ghnm"
    assert msg == f"{path}:6: layer 'a': blob 'w.f64' holds {2**37} float64 values, expected 2"


def test_model_blob_that_is_a_fifo_is_not_opened(tmp_path):
    # opening a FIFO blocks until a writer comes, so the CLI runs in a
    # child with a timeout: a loader that opened it fails the test, not hangs it
    os.mkfifo(tmp_path / "w.f64")
    path = tmp_path / "bad.ghnm"
    path.write_text(_HEAD + _DIMS + "weights blob w.f64\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = tmp_path / "deep.ghne"
    command = ["collapse", "--model", str(path), "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "ghne.cli", *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 2
    assert done.stderr == f"error: {path}:6: layer 'a': weight blob 'w.f64' is not a regular file\n"
    assert not out.exists()

# every load_model error with its exact text; line None means no line number
MODEL_ERRORS = {
    "empty": ("# nothing\n", None, "empty model file, expected 'ghne-model v1' header"),
    "bad_header": ("ghne-model v2\n", 1, "expected header 'ghne-model v1', got 'ghne-model v2'"),
    "no_layers": (_HEAD, None, "model declares no layers"),
    "bare_layer_line": (_HEAD + "layer\n", 2, "expected 'layer <name>', got 'layer'"),
    "layer_two_names": (_HEAD + "layer a b\n", 2, "expected 'layer <name>', got 'layer a b'"),
    "field_before_layer": (_HEAD + "filters 1\n", 2, "expected 'layer <name>', got 'filters 1'"),
    "duplicate_layer": (
        _HEAD + _DIMS + "weights inline\n0 1\nlayer a\n", 8, "duplicate layer name 'a'"
    ),
    "duplicate_field": (
        _HEAD + "layer a\nfilters 1\nfilters 1\n", 4, "layer 'a': duplicate field 'filters'"
    ),
    "duplicate_kernel": (
        _HEAD + "layer a\nkernel 1\nkernel 2\n", 4, "layer 'a': duplicate field 'kernel'"
    ),
    "filters_two_values": (
        _HEAD + "layer a\nfilters 1 2\n", 3, "layer 'a': filters needs one positive integer"
    ),
    "filters_zero": (
        _HEAD + "layer a\nfilters 0\n", 3, "layer 'a': filters needs one positive integer"
    ),
    # '²' is a digit to str.isdigit but not a decimal that int() reads
    "filters_superscript": (
        _HEAD + "layer a\nfilters \u00b2\n", 3, "layer 'a': filters needs one positive integer"
    ),
    "channels_bare": (
        _HEAD + "layer a\nfilters 1\nchannels\n",
        4,
        "layer 'a': channels needs one positive integer",
    ),
    "kernel_bare": (
        _HEAD + "layer a\nkernel\n", 3, "layer 'a': kernel needs positive integer extents"
    ),
    "kernel_zero": (
        _HEAD + "layer a\nkernel 3 0\n", 3, "layer 'a': kernel needs positive integer extents"
    ),
    "kernel_superscript": (
        _HEAD + "layer a\nkernel 3 \u00b2\n",
        3,
        "layer 'a': kernel needs positive integer extents",
    ),
    "stride_word": (
        _HEAD + "layer a\nstride two\n", 3, "layer 'a': stride needs positive integer extents"
    ),
    "unknown_field": (
        _HEAD + "layer a\nfilters 1\nbogus 3\n", 4, "layer 'a': unknown field 'bogus'"
    ),
    "weights_before_dims": (
        _HEAD + "layer a\nfilters 1\nweights inline\n0.5\n",
        4,
        "layer 'a': weights before channels, kernel",
    ),
    "weights_foo": (
        _HEAD + _DIMS + "weights foo\n",
        6,
        "layer 'a': expected 'weights inline' or 'weights blob <path>'",
    ),
    "weights_bare": (
        _HEAD + _DIMS + "weights\n",
        6,
        "layer 'a': expected 'weights inline' or 'weights blob <path>'",
    ),
    "weights_inline_extra_word": (
        _HEAD + _DIMS + "weights inline x\n",
        6,
        "layer 'a': expected 'weights inline' or 'weights blob <path>'",
    ),
    "blob_without_path": (
        _HEAD + _DIMS + "weights blob\n",
        6,
        "layer 'a': expected 'weights inline' or 'weights blob <path>'",
    ),
    "bad_weight_value": (
        _HEAD + _DIMS + "weights inline\n0.5\noops\n", 8, "layer 'a': bad weight value 'oops'"
    ),
    "too_few_weights": (
        _HEAD + _DIMS + "weights inline\n0.5\n",
        6,
        "layer 'a': expected 2 weights (filters*channels*kernel), got 1",
    ),
    "too_many_weights": (
        _HEAD + _DIMS + "weights inline\n0.5 0.5 0.5\n",
        6,
        "layer 'a': expected 2 weights (filters*channels*kernel), got 3",
    ),
    "weights_cut_by_layer": (
        _HEAD + _DIMS + "weights inline\n0.5\nlayer b\n",
        6,
        "layer 'a': expected 2 weights (filters*channels*kernel), got 1",
    ),
    "weights_cut_by_weights": (
        _HEAD + _DIMS + "weights inline\n0.5\nweights inline\n",
        6,
        "layer 'a': expected 2 weights (filters*channels*kernel), got 1",
    ),
    "field_after_weights": (
        _HEAD + _DIMS + "weights inline\n0 1\nstride 2\n",
        8,
        "expected 'layer <name>', got 'stride 2'",
    ),
    "missing_weights_at_eof": (_HEAD + _DIMS, 5, "layer 'a': missing weights"),
    "missing_weights_bare_layer": (_HEAD + "layer a\n", 2, "layer 'a': missing weights"),
    # the line reported is the one that ended the block: the next layer header
    "missing_weights_then_layer": (
        _HEAD + _DIMS + "\n# gap\nlayer b\n" + _DIMS[8:] + "weights inline\n0 1\n",
        8,
        "layer 'a': missing weights",
    ),
    "stride_rank": (
        _HEAD + "layer a\nfilters 1\nchannels 1\nkernel 2 2\nstride 2 2 2\n"
        "weights inline\n1 0\n0 1\n",
        7,
        "layer 'a': stride has 3 entries for 2 spatial axes",
    ),
    "blob_absolute": (
        _HEAD + _DIMS + "weights blob /abs/w.f64\n",
        6,
        "layer 'a': blob path must be relative, got '/abs/w.f64'",
    ),
    "blob_wrong_size": (
        _HEAD + _DIMS + "weights blob short.f64\n",
        6,
        "layer 'a': blob 'short.f64' holds 1 float64 values, expected 2",
    ),
    "nonfinite_weight": (
        _HEAD + _DIMS + "weights inline\n0.5 inf\n", 6, "layer 'a': non-finite weight"
    ),
    "chain_break": (
        _HEAD + "layer one\nfilters 2\nchannels 1\nkernel 1\nweights inline\n0.5 0.5\n"
        "layer two\nfilters 1\nchannels 3\nkernel 1\nweights inline\n0.5 0.5 0.5\n",
        None,
        "layer chain broken between 'one' and 'two': "
        "'one' outputs 2 filters but 'two' expects 3 channels",
    ),
}


@pytest.mark.parametrize("case", sorted(MODEL_ERRORS))
def test_model_error_table(tmp_path, case):
    body, line, message = MODEL_ERRORS[case]
    (tmp_path / "short.f64").write_bytes(b"\x00" * 8)
    where = tmp_path / "bad.ghnm"
    if line is not None:
        where = f"{where}:{line}"
    assert model_error(tmp_path, body) == f"{where}: {message}"


@pytest.mark.parametrize(
    "body, line, message",
    [
        (b"ghne-model v1\nlayer a\r\nfilters \xff\n", 3, "invalid start byte at byte 31"),
        (b"ghne-model v1\n\xfflayer a\n", 2, "invalid start byte at byte 14"),
        (b"ghne-model v1\n\xc3", 2, "unexpected end of data at byte 14"),
    ],
)
def test_model_not_utf8_names_file_and_line(tmp_path, body, line, message):
    path = tmp_path / "bad.ghnm"
    path.write_bytes(body)
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}:{line}: not UTF-8 text: {message}"


def test_save_model_rejects_unwritable_name(tmp_path):
    model = Model([LayerSpec("has space", np.zeros((1, 1, 1)), 1)])
    with pytest.raises(ValueError, match="has space"):
        save_model(model, tmp_path / "m.ghnm")


def test_save_model_rejects_unknown_mode(tmp_path):
    with pytest.raises(ValueError):
        save_model(two_layer_model(), tmp_path / "m.ghnm", weights_mode="base64")


# --- GHNE binary format ------------------------------------------------------


def test_epitome_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    bank = random_bank(rng, m=3, c=2, shape=(4, 5), max_count=9, g_range=(-3, 3))
    path = tmp_path / "bank.ghne"
    save_epitome(bank, path)
    loaded = load_epitome(path)
    assert loaded.g.tobytes() == bank.g.tobytes()
    assert np.array_equal(loaded.s, bank.s)
    assert loaded == bank


def test_epitome_round_trip_deep(tmp_path):
    model = two_layer_model()
    deep = collapse(model)
    path = tmp_path / "deep.ghne"
    save_epitome(deep, path)
    assert load_epitome(path) == deep.bank


def ghne_bytes(m=1, c=1, extents=(2,), entries=((0.5, 1), (0.25, 2)), version=1, magic=b"GHNE"):
    head = magic + struct.pack("<IIII", version, m, c, len(extents))
    head += struct.pack(f"<{len(extents)}I", *extents)
    body = b"".join(struct.pack("<dQ", g, s) for g, s in entries)
    return head + body


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes(magic=b"GHNX"))
    with pytest.raises(BadMagicError):
        load_epitome(p)


def test_load_rejects_empty_file(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(b"")
    with pytest.raises(BadMagicError):
        load_epitome(p)


def test_load_rejects_unknown_version(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes(version=2))
    with pytest.raises(VersionError):
        load_epitome(p)


def test_load_rejects_truncated_header(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(b"GHNE" + struct.pack("<II", 1, 1))
    with pytest.raises(TruncatedError):
        load_epitome(p)


def test_load_rejects_truncated_extents(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(b"GHNE" + struct.pack("<IIII", 1, 1, 1, 2) + struct.pack("<I", 3))
    with pytest.raises(TruncatedError):
        load_epitome(p)


def test_load_rejects_truncated_entries(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes()[:-8])
    with pytest.raises(TruncatedError):
        load_epitome(p)


def test_load_rejects_trailing_data(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes() + b"\x00")
    with pytest.raises(EpitomeFormatError):
        load_epitome(p)


def test_load_rejects_zero_dimensions(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes(m=0))
    with pytest.raises(EpitomeFormatError):
        load_epitome(p)


def test_load_rejects_zero_extent(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(b"GHNE" + struct.pack("<IIII", 1, 1, 1, 1) + struct.pack("<I", 0))
    with pytest.raises(EpitomeFormatError):
        load_epitome(p)


def test_load_rejects_implausible_rank(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(b"GHNE" + struct.pack("<IIII", 1, 1, 1, 17))
    with pytest.raises(EpitomeFormatError):
        load_epitome(p)


def test_load_rejects_zero_count_entry(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes(entries=((0.5, 1), (0.25, 0))))
    with pytest.raises(EpitomeFormatError):
        load_epitome(p)


def test_load_rejects_oversized_count(tmp_path):
    p = tmp_path / "x.ghne"
    p.write_bytes(ghne_bytes(entries=((0.5, 1), (0.25, 2**63))))
    with pytest.raises(EpitomeFormatError, match=f"{2**63} exceeds the int64 maximum"):
        load_epitome(p)


def test_format_errors_are_distinct():
    # callers can branch on the failure kind
    assert not issubclass(BadMagicError, VersionError)
    assert not issubclass(VersionError, BadMagicError)
    assert not issubclass(TruncatedError, BadMagicError)
    assert issubclass(BadMagicError, EpitomeFormatError)
    assert issubclass(VersionError, EpitomeFormatError)
    assert issubclass(TruncatedError, EpitomeFormatError)


# --- images -------------------------------------------------------------------


def test_pgm_round_trip_exact(tmp_path):
    pixels = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    p = tmp_path / "img.pgm"
    write_pgm(p, pixels)
    bank = read_image(p)
    assert (bank.m, bank.c) == (1, 1)
    assert bank.is_normalized
    assert np.array_equal(bank.g[0, 0], pixels / 255.0)
    assert bank.g[0, 0, 0, 0] == 0.0 and bank.g[0, 0, 0, 1] == 1.0


def test_ppm_reads_as_three_planes(tmp_path):
    pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    p = tmp_path / "img.ppm"
    write_ppm(p, pixels)
    bank = read_image(p)
    assert (bank.m, bank.c) == (3, 1)
    for plane in range(3):
        assert np.array_equal(bank.g[plane, 0], pixels[:, :, plane] / 255.0)


def test_read_image_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# made by hand\n2 1\n# more\n255\n\x00\xff")
    bank = read_image(p)
    assert np.array_equal(bank.g[0, 0], [[0.0, 1.0]])


def test_read_image_rejects_other_magic(tmp_path):
    p = tmp_path / "a.pbm"
    p.write_bytes(b"P3\n1 1\n255\n0\n")
    with pytest.raises(ImageFormatError):
        read_image(p)


def test_read_image_rejects_wide_maxval(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ImageFormatError):
        read_image(p)


def test_read_image_rejects_truncated_raster(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(ImageFormatError):
        read_image(p)


def test_read_image_rejects_eof_in_header(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2")
    with pytest.raises(ImageFormatError):
        read_image(p)


IMAGE_ERRORS = {
    "bad_width_token": (b"P5\nab 4\n255\n", "bad width b'ab' in image header"),
    "zero_width": (b"P5\n0 4\n255\n", "image has no pixels: width 0, height 4"),
    "zero_height": (b"P6\n4 0\n255\n", "image has no pixels: width 4, height 0"),
    "truncated": (b"P6\n2 2\n255\n" + bytes(11), "truncated raster: expected 12 bytes, got 11"),
    # 2**40 pixels declared, 16 present: reported without allocating a TiB
    "huge_header": (
        b"P5\n1048576 1048576\n255\n" + bytes(16),
        "truncated raster: expected 1099511627776 bytes, got 16",
    ),
}


@pytest.mark.parametrize("case", sorted(IMAGE_ERRORS))
def test_read_image_error_table(tmp_path, case):
    body, message = IMAGE_ERRORS[case]
    p = tmp_path / "bad.pgm"
    p.write_bytes(body)
    with pytest.raises(ImageFormatError) as exc:
        read_image(p)
    assert str(exc.value) == message


def test_write_pgm_validates_shape(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "a.pgm", np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "a.ppm", np.zeros((2, 2), dtype=np.uint8))


def test_member_images_and_sidecar(tmp_path):
    g = np.zeros((2, 1, 2, 2))
    g[0, 0] = [[0.0, 1.0], [0.5, 0.25]]
    g[1, 0] = 0.3  # constant member
    bank = Bank(g, np.ones(g.shape, dtype=np.int64))
    written = write_member_images(bank, tmp_path / "out", prefix="feat")
    assert [os.path.basename(w) for w in written] == ["feat_f0_c0.pgm", "feat_f1_c0.pgm"]
    first = read_image(tmp_path / "out" / "feat_f0_c0.pgm")
    assert np.array_equal(first.g[0, 0] * 255, [[0, 255], [128, 64]])
    second = read_image(tmp_path / "out" / "feat_f1_c0.pgm")
    assert np.all(second.g[0, 0] * 255 == 128)
    sidecar = (tmp_path / "out" / "scaling.txt").read_text().splitlines()
    assert sidecar[0] == "feat_f0_c0.pgm lo=0.0 hi=1.0"
    assert sidecar[1] == "feat_f1_c0.pgm lo=0.3 hi=0.3 constant=128"


def test_member_images_require_rank_two(tmp_path):
    bank = Bank(np.zeros((1, 1, 3)), np.ones((1, 1, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        write_member_images(bank, tmp_path)


def test_pseudo_color_images(tmp_path):
    rng = np.random.default_rng(2)
    bank = random_bank(rng, m=2, c=3, shape=(3, 3), max_count=1, g_range=(0, 1))
    written = write_pseudo_color_images(bank, tmp_path / "rgb")
    assert [os.path.basename(w) for w in written] == [
        "member_f0_rgb.ppm",
        "member_f1_rgb.ppm",
    ]
    sidecar = (tmp_path / "rgb" / "scaling.txt").read_text().splitlines()
    assert len(sidecar) == 6  # 2 filters x 3 channels
    assert "channel=0" in sidecar[0]
    img = read_image(tmp_path / "rgb" / "member_f0_rgb.ppm")
    assert img.m == 3


def test_pseudo_color_scaling_lines(tmp_path):
    g = np.zeros((2, 3, 2, 2))
    g[0, 0] = [[0.0, 1.0], [0.5, 0.25]]
    g[0, 1] = 0.25  # constant channel
    g[0, 2] = [[-1.5, 0.1], [0.2, 0.3]]
    g[1] = [[[0.0, 0.5], [0.5, 0.5]]]
    s = np.ones(g.shape, dtype=np.int64)
    s[1, 2] = 3
    write_pseudo_color_images(Bank(g, s), tmp_path / "rgb", prefix="feat")
    assert (tmp_path / "rgb" / "scaling.txt").read_text() == (
        "feat_f0_rgb.ppm channel=0 lo=0.0 hi=1.0\n"
        "feat_f0_rgb.ppm channel=1 lo=0.25 hi=0.25 constant=128\n"
        "feat_f0_rgb.ppm channel=2 lo=-1.5 hi=0.3\n"
        "feat_f1_rgb.ppm channel=0 lo=0.0 hi=0.5\n"
        "feat_f1_rgb.ppm channel=1 lo=0.0 hi=0.5\n"
        "feat_f1_rgb.ppm channel=2 lo=0.0 hi=0.16666666666666666\n"
    )


def test_pseudo_color_requires_three_channels(tmp_path):
    bank = Bank(np.zeros((1, 2, 2, 2)), np.ones((1, 2, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="c=2"):
        write_pseudo_color_images(bank, tmp_path)


def test_pseudo_color_requires_rank_two(tmp_path):
    bank = Bank(np.zeros((1, 3, 4)), np.ones((1, 3, 4), dtype=np.int64))
    with pytest.raises(ValueError) as exc:
        write_pseudo_color_images(bank, tmp_path)
    assert str(exc.value) == "only rank-2 banks render as images, got rank 1"


# --- CSV writers ---------------------------------------------------------------


def test_stats_csv_blocks(tmp_path):
    rng = np.random.default_rng(3)
    bank = random_bank(rng, m=2, c=1, shape=(4,), max_count=1, g_range=(0, 1))
    report = bank_stats(bank, bins=3)
    p = tmp_path / "s.csv"
    write_stats_csv(report, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "filter,channel,bin_lo,bin_hi,count,fuzziness"
    assert len(lines) == 1 + 3 * 3  # 2 members + aggregate, 3 bins each
    assert lines[1].startswith("0,0,")
    assert lines[4].startswith("1,0,")
    assert lines[7].startswith("all,all,")
    # fuzziness column repeats per block and parses back
    f0 = {line.split(",")[5] for line in lines[1:4]}
    assert len(f0) == 1
    float(f0.pop())


def test_series_csv(tmp_path):
    p = tmp_path / "series.csv"
    write_series_csv([("depth1", 0.25), ("depth2", 0.5)], p)
    assert p.read_text() == "label,value\ndepth1,0.25\ndepth2,0.5\n"
    write_series_csv([], p, header=("layer", "fuzziness"))
    assert p.read_text() == "layer,fuzziness\n"


def test_features_csv_rank_two(tmp_path):
    g = np.array([[[[0.1, 0.2], [0.3, 0.4]]]])
    bank = Bank(g, np.ones(g.shape, dtype=np.int64))
    p = tmp_path / "f.csv"
    write_features_csv(bank, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "filter,channel,row,col,value"
    assert lines[1] == "0,0,0,0,0.1"
    assert lines[4] == "0,0,1,1,0.4"
    # every value cell round-trips to the stored float
    for line, want in zip(lines[1:], g.ravel()):
        assert float(line.rsplit(",", 1)[1]) == want


def feature_rows(bank, axis_names):
    # entry by entry, the way the file is specified
    values = bank.g / bank.s
    rows = ["filter,channel," + ",".join(axis_names) + ",value"]
    for i in range(bank.m):
        for j in range(bank.c):
            for idx in np.ndindex(bank.spatial_shape):
                coords = ",".join(str(k) for k in (i, j) + idx)
                rows.append(f"{coords},{float(values[(i, j) + idx])!r}")
    return rows


@pytest.mark.parametrize(
    "shape, axis_names",
    [((2, 3, 2, 3), ["row", "col"]), ((1, 2, 2, 3, 2), ["axis0", "axis1", "axis2"])],
)
def test_features_csv_matches_entrywise_rows(tmp_path, shape, axis_names):
    rng = np.random.default_rng(4)
    bank = random_bank(rng, m=shape[0], c=shape[1], shape=shape[2:], max_count=9)
    g = bank.g.copy()
    g.flat[-1] = -0.0
    bank = Bank(g, bank.s)
    p = tmp_path / "f.csv"
    write_features_csv(bank, p)
    assert p.read_text() == "\n".join(feature_rows(bank, axis_names)) + "\n"


def test_features_csv_other_rank_names_axes(tmp_path):
    bank = Bank(np.zeros((1, 1, 2)), np.ones((1, 1, 2), dtype=np.int64))
    p = tmp_path / "f.csv"
    write_features_csv(bank, p)
    assert p.read_text().splitlines()[0] == "filter,channel,axis0,value"


def test_write_text(tmp_path):
    p = tmp_path / "note.txt"
    write_text(p, "two lines\nof text\n")
    assert p.read_text() == "two lines\nof text\n"


def test_writes_leave_no_temp_files(tmp_path):
    model = two_layer_model()
    save_model(model, tmp_path / "m.ghnm", weights_mode="blob")
    save_epitome(collapse(model), tmp_path / "d.ghne")
    write_text(tmp_path / "t.txt", "x")
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".ghne-tmp-")]
    assert leftovers == []


def test_failed_write_leaves_no_temp_file(tmp_path):
    # the rename onto a directory fails after the temp file was written
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError):
        write_text(tmp_path / "taken", "x")
    assert os.listdir(tmp_path) == ["taken"]


# --- mutated files -------------------------------------------------------------


LOADERS = {"ghnm": load_model, "ghne": load_epitome, "pgm": read_image, "ppm": read_image}


@pytest.fixture(scope="module")
def seed_files(tmp_path_factory):
    """Bytes of one valid file per format, written by the library's own writers."""
    rng = np.random.default_rng(5)
    root = tmp_path_factory.mktemp("seeds")
    save_model(two_layer_model(rng), root / "seed.ghnm")
    save_epitome(random_bank(rng, m=2, c=1, shape=(3, 3), max_count=9), root / "seed.ghne")
    write_pgm(root / "seed.pgm", rng.integers(0, 256, (8, 8)))
    write_ppm(root / "seed.ppm", rng.integers(0, 256, (4, 5, 3)))
    return {suffix: (root / f"seed.{suffix}").read_bytes() for suffix in LOADERS}


# 1-4 byte edits: (kind, position, byte); positions wrap to the file length
EDITS = st.lists(
    st.tuples(st.sampled_from(("replace", "insert", "delete")), st.integers(0, 4095), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, pos, byte in edits:
        if kind == "insert":
            data.insert(pos % (len(data) + 1), byte)
        elif kind == "replace":
            data[pos % len(data)] = byte
        else:
            del data[pos % len(data)]
    return bytes(data)


def fresh_file(tmp_path_factory, name, data):
    # a new directory per example: rewriting one path per case stalls some file systems
    path = tmp_path_factory.mktemp("case") / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("suffix", sorted(LOADERS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_mutated_file_loads_or_raises_format_error(seed_files, tmp_path_factory, suffix, edits):
    path = fresh_file(tmp_path_factory, f"m.{suffix}", mutate(seed_files[suffix], edits))
    try:
        LOADERS[suffix](path)
    except FormatError:
        pass


@pytest.mark.parametrize("command, mutated", [("stats", "ghne"), ("apply", "ghne"), ("apply", "pgm")])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_cli_on_mutated_file_succeeds_or_prints_one_error(
    seed_files, tmp_path_factory, command, mutated, edits
):
    files = {
        suffix: fresh_file(tmp_path_factory, f"in.{suffix}", seed_files[suffix])
        for suffix in ("ghne", "pgm")
    }
    files[mutated] = fresh_file(tmp_path_factory, f"m.{mutated}", mutate(seed_files[mutated], edits))
    out = os.path.join(os.path.dirname(files[mutated]), "out")
    argv = ["stats", "--epitome", files["ghne"], "--out", out]
    if command == "apply":
        argv = ["apply", "--epitome", files["ghne"], "--input", files["pgm"], "--out", out]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0] != "error: "
        assert not os.path.exists(out)


def through_pipe(tmp_path, name, data, read):
    """Call read(path) on a FIFO at tmp_path/name that a thread fills with data."""
    fifo = tmp_path / name
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("suffix", ["ghne", "pgm"])
def test_declared_reads_work_through_a_pipe(seed_files, tmp_path, suffix):
    regular = tmp_path / f"file.{suffix}"
    regular.write_bytes(seed_files[suffix])
    bank = through_pipe(tmp_path, f"pipe.{suffix}", seed_files[suffix], LOADERS[suffix])
    assert bank == LOADERS[suffix](regular)


def test_entries_larger_than_one_read_chunk_load_through_a_pipe(tmp_path):
    # 2 * 200 * 200 entries of 16 bytes: 1.28 MB, more than one 1 MiB chunk
    rng = np.random.default_rng(5)
    bank = Bank(rng.standard_normal((2, 1, 200, 200)), rng.integers(1, 9, (2, 1, 200, 200)))
    path = tmp_path / "big.ghne"
    save_epitome(bank, path)
    assert load_epitome(path) == bank
    assert through_pipe(tmp_path, "pipe.ghne", path.read_bytes(), load_epitome) == bank


# declared sizes past 2**63, more than one read() call accepts, followed by 16 bytes
HUGE_HEADERS = {
    "ghne": (
        b"GHNE" + struct.pack("<6I", 1, 1, 1, 2, 2**32 - 1, 2**32 - 1) + bytes(16),
        TruncatedError,
        f"expected {(2**32 - 1) ** 2 * 16} entry bytes, got 16",
    ),
    "pgm": (
        b"P5\n4294967296 4294967296\n255\n" + bytes(16),
        ImageFormatError,
        "truncated raster: expected 18446744073709551616 bytes, got 16",
    ),
}


@pytest.mark.parametrize("suffix", sorted(HUGE_HEADERS))
def test_huge_header_through_a_pipe_is_a_named_error(seed_files, tmp_path, suffix):
    data, error, message = HUGE_HEADERS[suffix]
    with pytest.raises(error) as info:
        through_pipe(tmp_path, f"pipe.{suffix}", data, LOADERS[suffix])
    assert str(info.value) == message

    epitome = tmp_path / "deep.ghne"
    epitome.write_bytes(seed_files["ghne"])
    out = tmp_path / "out"

    def run(fifo):
        argv = ["stats", "--epitome", str(fifo), "--out", str(out)]
        if suffix == "pgm":
            argv = ["apply", "--epitome", str(epitome), "--input", str(fifo), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()

    assert through_pipe(tmp_path, f"cli.{suffix}", data, run) == (2, f"error: {message}\n")
    assert not out.exists()
