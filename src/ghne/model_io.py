"""File formats: models in, epitomes/features/stats out.

Three formats, all little-endian where binary:

* Model files (text): a ``ghne-model v1`` header, then per layer a
  ``layer <name>`` line followed by ``filters``, ``channels``,
  ``kernel``, optional ``stride`` (default 1), and ``weights inline``
  (whitespace-separated decimals, row-major [filter][channel][spatial])
  or ``weights blob <relative-path>`` pointing at raw little-endian
  float64 next to the model file, a regular file of exactly 8 bytes per
  weight.  ``#`` starts a comment anywhere.

* Epitome banks (binary): magic ``GHNE``, u32 version, u32 m, c, rank,
  rank u32 extents, then m*c*prod(extents) interleaved (f64 g, u64 s)
  entries in [m][c] row-major order.  Round-trips are bit-exact.

* Images: binary PGM (P5) and PPM (P6) with maxval 255 only.  Pixels
  map to normalized values p/255 on read; on write, values are min-max
  scaled to 0..255 with the bounds recorded in a ``scaling.txt``
  sidecar (a constant member renders as mid-gray 128).

All writes go through a temp file and an atomic rename, so a failed
command never leaves a partial file behind.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import stat
import struct
import tempfile

import numpy as np

from .banks import Bank, DeepEpitome, LayerSpec, Model, StatsReport

__all__ = [
    "FormatError",
    "ModelFormatError",
    "EpitomeFormatError",
    "BadMagicError",
    "VersionError",
    "TruncatedError",
    "ImageFormatError",
    "write_text",
    "load_model",
    "save_model",
    "save_epitome",
    "load_epitome",
    "read_image",
    "write_pgm",
    "write_ppm",
    "write_member_images",
    "write_pseudo_color_images",
    "write_stats_csv",
    "write_series_csv",
    "write_features_csv",
]


class FormatError(Exception):
    """A file does not conform to one of the documented formats."""


class ModelFormatError(FormatError):
    """Malformed model text file; message carries file/line context."""


class EpitomeFormatError(FormatError):
    """Malformed GHNE epitome file."""


class BadMagicError(EpitomeFormatError):
    """The file does not start with the GHNE magic bytes."""


class VersionError(EpitomeFormatError):
    """The file declares a format version this reader does not speak."""


class TruncatedError(EpitomeFormatError):
    """The file ends before the declared data does."""


class ImageFormatError(FormatError):
    """Unsupported or malformed PGM/PPM image."""


_MAGIC = b"GHNE"
_VERSION = 1
_PAIR_DTYPE = np.dtype([("g", "<f8"), ("s", "<u8")])
_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
_MODEL_HEADER = "ghne-model v1"
_ONE_INT, _EXTENTS = "one positive integer", "positive integer extents"
_FIELD_SYNTAX = {"filters": _ONE_INT, "channels": _ONE_INT, "kernel": _EXTENTS, "stride": _EXTENTS}


def _atomic_write(path, data: bytes):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ghne-tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_declared(f, n: int, error, message: str) -> bytearray:
    """Read the n declared bytes in 1 MiB chunks, so only data that arrives is held;
    if the input ends first, raise error(message.format(n=n, got=<bytes read>))."""
    data = bytearray()
    while len(data) < n:
        chunk = f.read(min(n - len(data), 1 << 20))
        if not chunk:
            raise error(message.format(n=n, got=len(data)))
        data += chunk
    return data


def _fmt(x) -> str:
    # repr of a Python float is the shortest decimal that round-trips
    return repr(float(x))


def write_text(path, text: str):
    """Write a UTF-8 text file atomically (temp file + rename)."""
    _atomic_write(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# model text format


def _model_lines(path):
    with open(path, "rb") as f:
        data = f.read()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        # the line of the first bad byte, counted the way splitlines counts
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        message = f"not UTF-8 text: {e.reason} at byte {e.start}"
        raise ModelFormatError(f"{path}:{lineno}: {message}") from e
    lines = []
    for lineno, line in enumerate(raw, 1):
        body = line.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body.split()))
    return lines


def load_model(path) -> Model:
    """Parse and validate a model text file.

    Every malformed input yields a ModelFormatError naming the file,
    line, and problem; nothing is silently defaulted except the
    documented stride default of 1.
    """
    path = os.fspath(path)

    def fail(lineno, msg):
        raise ModelFormatError(f"{path}:{lineno}: {msg}")

    lines = _model_lines(path)
    if not lines:
        raise ModelFormatError(f"{path}: empty model file, expected '{_MODEL_HEADER}' header")
    lineno, words = lines[0]
    if words != _MODEL_HEADER.split():
        fail(lineno, f"expected header '{_MODEL_HEADER}', got {' '.join(words)!r}")

    layers = []
    pos = 1
    while pos < len(lines):
        lineno, words = lines[pos]
        if words[0] != "layer" or len(words) != 2:
            fail(lineno, f"expected 'layer <name>', got {' '.join(words)!r}")
        name = words[1]
        if any(layer.name == name for layer in layers):
            fail(lineno, f"duplicate layer name {name!r}")
        pos += 1

        fields = {}
        while pos < len(lines):
            lineno, words = lines[pos]
            key, args = words[0], words[1:]
            if key in ("layer", "weights"):
                break
            if key not in _FIELD_SYNTAX:
                fail(lineno, f"layer {name!r}: unknown field {key!r}")
            if key in fields:
                fail(lineno, f"layer {name!r}: duplicate field {key!r}")
            syntax = _FIELD_SYNTAX[key]
            bad_arity = len(args) != 1 if syntax == _ONE_INT else not args
            if bad_arity or not all(w.isdecimal() and int(w) >= 1 for w in args):
                fail(lineno, f"layer {name!r}: {key} needs {syntax}")
            fields[key] = tuple(int(w) for w in args)
            pos += 1
        # lineno/words are the line that ended the block (or the last line)
        if pos == len(lines) or words[0] != "weights":
            fail(lineno, f"layer {name!r}: missing weights")
        missing = [k for k in ("filters", "channels", "kernel") if k not in fields]
        if missing:
            fail(lineno, f"layer {name!r}: weights before {', '.join(missing)}")
        shape = fields["filters"] + fields["channels"] + fields["kernel"]
        count = math.prod(shape)
        if words[1:] == ["inline"]:
            pos += 1
            values = []
            while len(values) < count and pos < len(lines):
                vline, vwords = lines[pos]
                if vwords[0] in ("layer", "weights"):
                    break
                for w in vwords:
                    try:
                        values.append(float(w))
                    except ValueError:
                        fail(vline, f"layer {name!r}: bad weight value {w!r}")
                pos += 1
            if len(values) != count:
                fail(
                    lineno,
                    f"layer {name!r}: expected {count} weights "
                    f"(filters*channels*kernel), got {len(values)}",
                )
            weights = np.array(values)
        elif len(words) == 3 and words[1] == "blob":
            rel = words[2]
            if os.path.isabs(rel):
                fail(lineno, f"layer {name!r}: blob path must be relative, got {rel!r}")
            blob_path = os.path.join(os.path.dirname(path) or ".", rel)
            # sized before it is opened: opening a FIFO blocks, and a device
            # such as /dev/zero, or a huge file, would be read to its end
            try:
                info = os.stat(blob_path)
            except OSError as e:
                fail(lineno, f"layer {name!r}: cannot read weight blob {rel!r}: {e}")
            if not stat.S_ISREG(info.st_mode):
                fail(lineno, f"layer {name!r}: weight blob {rel!r} is not a regular file")
            if info.st_size != count * 8:
                fail(
                    lineno,
                    f"layer {name!r}: blob {rel!r} holds {info.st_size // 8} float64 "
                    f"values, expected {count}",
                )
            try:
                with open(blob_path, "rb") as bf:
                    blob = bf.read(count * 8)
            except OSError as e:
                fail(lineno, f"layer {name!r}: cannot read weight blob {rel!r}: {e}")
            weights = np.frombuffer(blob, dtype="<f8").astype(np.float64)
            pos += 1
        else:
            fail(lineno, f"layer {name!r}: expected 'weights inline' or 'weights blob <path>'")
        stride = fields.get("stride", (1,))
        if len(stride) == 1:  # one value holds on every axis; LayerSpec checks the rest
            stride = stride[0]
        try:
            layers.append(LayerSpec(name, weights.reshape(shape), stride))
        except ValueError as e:
            fail(lineno, e)

    if not layers:
        raise ModelFormatError(f"{path}: model declares no layers")
    try:
        return Model(layers)
    except ValueError as e:
        raise ModelFormatError(f"{path}: {e}") from e


def save_model(model: Model, path, weights_mode: str = "inline"):
    """Write a model file; 'blob' mode puts weights in sibling .f64 files."""
    if weights_mode not in ("inline", "blob"):
        raise ValueError(f"unknown weights mode {weights_mode!r}")
    path = os.fspath(path)
    for layer in model.layers:
        if not _NAME_RE.fullmatch(layer.name):
            raise ValueError(
                f"layer name {layer.name!r} not writable: use only letters, "
                f"digits, '_', '.', '-'"
            )
    stem = os.path.splitext(os.path.basename(path))[0]
    lines = [_MODEL_HEADER]
    for layer in model.layers:
        lines.append(f"layer {layer.name}")
        lines.append(f"filters {layer.out_filters}")
        lines.append(f"channels {layer.in_channels}")
        lines.append("kernel " + " ".join(str(e) for e in layer.kernel_shape))
        lines.append("stride " + " ".join(str(v) for v in layer.stride))
        flat = layer.weights.ravel()
        if weights_mode == "inline":
            lines.append("weights inline")
            row = layer.kernel_shape[-1]
            for start in range(0, flat.size, row):
                lines.append(" ".join(_fmt(v) for v in flat[start : start + row]))
        else:
            blob_name = f"{stem}.{layer.name}.f64"
            _atomic_write(
                os.path.join(os.path.dirname(path) or ".", blob_name),
                flat.astype("<f8").tobytes(),
            )
            lines.append(f"weights blob {blob_name}")
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# GHNE binary epitome format


def save_epitome(bank, path):
    """Write a Bank (or a DeepEpitome's bank) as a GHNE file, atomically."""
    if isinstance(bank, DeepEpitome):
        bank = bank.bank
    header = struct.pack("<4sIIII", _MAGIC, _VERSION, bank.m, bank.c, bank.rank)
    header += struct.pack(f"<{bank.rank}I", *bank.spatial_shape)
    entries = np.empty(bank.g.shape, dtype=_PAIR_DTYPE)
    entries["g"] = bank.g
    entries["s"] = bank.s.astype(np.uint64)
    _atomic_write(path, header + entries.tobytes())


def load_epitome(path) -> Bank:
    """Read a GHNE file back into a Bank, verifying every declared count.

    The magic is checked before anything is sized or allocated; bad
    magic, unknown version, and truncation raise distinct errors, also for a
    header that declares more data than the file or pipe holds.
    """
    with open(path, "rb") as f:
        magic = f.read(4)
        if len(magic) < 4 or magic != _MAGIC:
            raise BadMagicError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        head = _read_declared(f, 16, TruncatedError, "file ends inside the fixed header")
        version, m, c, rank = struct.unpack("<IIII", head)
        if version != _VERSION:
            raise VersionError(f"unsupported format version {version}, expected {_VERSION}")
        if m < 1 or c < 1 or rank < 1:
            raise EpitomeFormatError(f"bad dimensions m={m} c={c} rank={rank}")
        if rank > 16:
            raise EpitomeFormatError(f"implausible rank {rank}")
        ext_bytes = _read_declared(f, 4 * rank, TruncatedError, "file ends inside the extent list")
        extents = struct.unpack(f"<{rank}I", ext_bytes)
        if any(e < 1 for e in extents):
            raise EpitomeFormatError(f"zero extent in {extents}")
        n_bytes = m * c * math.prod(extents) * _PAIR_DTYPE.itemsize
        data = _read_declared(f, n_bytes, TruncatedError, "expected {n} entry bytes, got {got}")
        if f.read(1):
            raise EpitomeFormatError("trailing data after the declared entries")
    arr = np.frombuffer(data, dtype=_PAIR_DTYPE).reshape((m, c) + extents)
    try:
        return Bank(arr["g"], arr["s"])
    except ValueError as e:
        raise EpitomeFormatError(str(e)) from e


# ---------------------------------------------------------------------------
# PGM / PPM images


def _next_token(f) -> bytes:
    c = f.read(1)
    while c:
        if c in b" \t\r\n":
            c = f.read(1)
            continue
        if c == b"#":
            while c and c != b"\n":
                c = f.read(1)
            continue
        break
    if not c:
        raise ImageFormatError("unexpected end of file in image header")
    token = bytearray()
    while c and c not in b" \t\r\n":
        token += c
        c = f.read(1)
    return bytes(token)


def _int_token(f, what: str) -> int:
    token = _next_token(f)
    if not token.isdigit():
        raise ImageFormatError(f"bad {what} {token!r} in image header")
    return int(token)


def read_image(path) -> Bank:
    """Read a P5/P6 image as a normalized input bank (values p/255).

    Grayscale becomes m=1, c=1; color becomes m=3, c=1 with one epitome
    per color plane, matching the input-pairing rule input.m = deep.c.
    """
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise ImageFormatError(
                f"unsupported image magic {magic!r}: only binary PGM (P5) and PPM (P6)"
            )
        width = _int_token(f, "width")
        height = _int_token(f, "height")
        if width < 1 or height < 1:
            raise ImageFormatError(f"image has no pixels: width {width}, height {height}")
        maxval = _int_token(f, "maxval")
        if maxval != 255:
            raise ImageFormatError(f"unsupported maxval {maxval}, only 255")
        planes = 1 if magic == b"P5" else 3
        truncated = "truncated raster: expected {n} bytes, got {got}"
        raster = _read_declared(f, width * height * planes, ImageFormatError, truncated)
    data = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, planes)
    g = (data.transpose(2, 0, 1) / 255.0).reshape(planes, 1, height, width)
    return Bank(g, np.ones(g.shape, dtype=np.int64))


def _write_pnm(path, pixels):
    """Write (h, w) uint8 pixels as binary PGM (P5), (h, w, 3) as PPM (P6)."""
    h, w = pixels.shape[:2]
    magic = "P5" if pixels.ndim == 2 else "P6"
    _atomic_write(path, f"{magic}\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def write_pgm(path, pixels):
    """Write a 2-D uint8 array as binary PGM."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {pixels.shape}")
    _write_pnm(path, pixels)


def write_ppm(path, pixels):
    """Write an (h, w, 3) uint8 array as binary PPM."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"PPM needs an (h, w, 3) array, got shape {pixels.shape}")
    _write_pnm(path, pixels)


def _render(bank: Bank, out_dir, images) -> list:
    """Write the images of a rank-2 bank, then scaling.txt; return the image paths.

    images lists (filename, planes): planes is [(label, i, j)] for a PGM
    of member (i, j), or three such triples for a PPM's R, G, B.  Every
    plane is min-max scaled, mid-gray 128 if it has no spread, and gets
    its scaling.txt line before anything is written, so a plane that
    cannot be scaled leaves no file behind.
    """
    if bank.rank != 2:
        raise ValueError(f"only rank-2 banks render as images, got rank {bank.rank}")
    values = bank.values()
    files, sidecar = [], []
    for name, planes in images:
        pixels = []
        for label, i, j in planes:
            member = values[i, j]
            lo, hi = float(member.min()), float(member.max())
            if hi - lo == math.inf:
                raise ValueError(
                    f"member values from {lo!r} to {hi!r} span more than float64's maximum"
                )
            if hi > lo:
                pixels.append(np.rint((member - lo) / (hi - lo) * 255.0).astype(np.uint8))
            else:
                pixels.append(np.full(member.shape, 128, dtype=np.uint8))
            flag = "" if hi > lo else " constant=128"
            sidecar.append(f"{name}{label} lo={_fmt(lo)} hi={_fmt(hi)}{flag}")
        stacked = pixels[0] if len(pixels) == 1 else np.stack(pixels, axis=-1)
        files.append((os.path.join(out_dir, name), stacked))
    os.makedirs(out_dir, exist_ok=True)
    for path, stacked in files:
        _write_pnm(path, stacked)
    write_text(os.path.join(out_dir, "scaling.txt"), "\n".join(sidecar) + "\n")
    return [path for path, _ in files]


def write_member_images(bank: Bank, out_dir, prefix: str = "member") -> list:
    """Write one min-max scaled PGM per (filter, channel) member.

    Scaling bounds go into scaling.txt in the same directory; a member
    with no spread renders as constant mid-gray 128 and is flagged.
    Every member is scaled before anything is written, so a member that
    cannot be scaled leaves no file behind.
    """
    members = [(i, j) for i in range(bank.m) for j in range(bank.c)]
    return _render(bank, out_dir, [(f"{prefix}_f{i}_c{j}.pgm", [("", i, j)]) for i, j in members])


def write_pseudo_color_images(bank: Bank, out_dir, prefix: str = "member") -> list:
    """Write one PPM per filter, channels 0,1,2 mapped to R,G,B.

    Each channel is min-max scaled independently, all before anything
    is written; bounds land in scaling.txt, one line per channel.
    """
    if bank.c != 3:
        raise ValueError(f"pseudo-color rendering needs exactly 3 channels, bank has c={bank.c}")
    rgb = [[(f" channel={j}", i, j) for j in range(3)] for i in range(bank.m)]
    return _render(bank, out_dir, [(f"{prefix}_f{i}_rgb.ppm", rgb[i]) for i in range(bank.m)])


# ---------------------------------------------------------------------------
# CSV


def write_stats_csv(report: StatsReport, path):
    """Per-member histogram blocks plus an 'all' aggregate block.

    Columns: filter,channel,bin_lo,bin_hi,count,fuzziness; the member's
    mean fuzziness repeats on each of its bin rows.
    """
    lines = ["filter,channel,bin_lo,bin_hi,count,fuzziness"]

    def block(stats):
        f = "all" if stats.filter_index is None else str(stats.filter_index)
        c = "all" if stats.channel_index is None else str(stats.channel_index)
        h = stats.histogram
        for k in range(h.counts.size):
            lines.append(
                f"{f},{c},{_fmt(h.bin_edges[k])},{_fmt(h.bin_edges[k + 1])},"
                f"{int(h.counts[k])},{_fmt(stats.fuzziness)}"
            )

    for stats in report.members:
        block(stats)
    block(report.aggregate)
    write_text(path, "\n".join(lines) + "\n")


def write_series_csv(rows, path, header=("label", "value")):
    """Two-column CSV of (label, float) rows; empty rows give header only."""
    lines = [",".join(header)]
    for label, value in rows:
        lines.append(f"{label},{_fmt(value)}")
    write_text(path, "\n".join(lines) + "\n")


def write_features_csv(bank: Bank, path):
    """Every normalized entry with its coordinates, one row per entry.

    Columns: filter,channel,<one per spatial axis>,value; spatial axes
    are named row,col for rank 2 and axis0,axis1,... otherwise.
    """
    if bank.rank == 2:
        axis_names = ["row", "col"]
    else:
        axis_names = [f"axis{k}" for k in range(bank.rank)]
    lines = ["filter,channel," + ",".join(axis_names) + ",value"]
    values = bank.values()
    axes = itertools.product(*(map(str, range(n)) for n in bank.spatial_shape))
    coords = [",".join(idx) for idx in axes]
    for i in range(bank.m):
        for j in range(bank.c):
            # repr of a Python float is _fmt; one tolist per member keeps the peak low
            member = values[i, j].ravel().tolist()
            lines += [f"{i},{j},{xy},{v!r}" for xy, v in zip(coords, member)]
    write_text(path, "\n".join(lines) + "\n")
