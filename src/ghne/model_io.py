"""File formats: models in, epitomes/features/stats out.

Four formats, all little-endian where binary:

* Model files (text): a ``ghne-model v1`` header, then per layer a
  ``layer <name>`` line followed by ``filters``, ``channels``,
  ``kernel``, optional ``stride`` (default 1), and ``weights inline``
  (whitespace-separated decimals, row-major [filter][channel][spatial];
  save_model writes each as Python's repr)
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

* Features (CSV): ``filter,channel,<axes>,value``, one row per entry of
  a bank, produced and held one member at a time, so a large bank's
  file never sits in memory whole.  A value's text is Python's repr of
  it, the shortest decimal that round-trips.  A member's values are
  written by one orjson call, in which each value that repr writes with
  an exponent is a NaN; orjson writes it as null, and repr's text
  replaces each null.  orjson's commas then become the line breaks and
  cells of the rows, in one bytes % (see _filled).  Model weights are
  written by the same rule.

All writes go through a temp file and an atomic rename, so a failed
command never leaves a partial file behind.
"""

from __future__ import annotations

import itertools
import math
import os
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
_MAX_RANK = 16  # the most spatial axes a GHNE file may declare
_PAIR_DTYPE = np.dtype([("g", "<f8"), ("s", "<u8")])
_MODEL_HEADER = "ghne-model v1"
# kernel rows save_model formats per chunk, which bounds its memory
_MODEL_CHUNK_ROWS = 4096
_ONE_INT, _EXTENTS = "one positive integer", "positive integer extents"
_FIELD_SYNTAX = {"filters": _ONE_INT, "channels": _ONE_INT, "kernel": _EXTENTS, "stride": _EXTENTS}


def _atomic_write(path, chunks):
    """Write an iterable of byte chunks to path through a temp file and a rename.

    The chunks are drawn one at a time; if one of them raises, or the write
    fails, the temp file is removed and path is left as it was.  A temp
    file that cannot be made (say, in a missing directory) raises the
    OSError of its errno naming path itself.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ghne-tmp-")
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
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


def _filled(head: bytes, joint: bytes, fields: tuple, values) -> bytes:
    """The repr of each finite float64 in values, in order, as one bytes text.

    The text is head, the values with joint between each two, and a
    newline, formatted by one bytes % with fields, which fill the %s
    fields of head and joint in order.

    orjson writes the shortest round-trip digits of many values in one
    call, and for zero and |x| in [1e-4, 1e16) they are repr's text byte
    for byte; the tests hold them to repr on 2**20 values.  Outside that
    range repr takes an exponent form ("1e-05", "1e+16" where orjson
    writes "0.00001", "1e16"), so orjson is given those values as NaN,
    which it writes as null.  Splitting on the nulls and joining the
    pieces with %r fields puts repr's text in at each in one bytes %.
    orjson's commas then become the joints in one replace, which, unlike
    a split on them, makes no bytes object per value.
    """
    import orjson

    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    size = np.abs(flat)
    exponent = (size >= 1e16) | ((size < 1e-4) & (size > 0))
    digits = orjson.dumps(np.where(exponent, np.nan, flat), option=orjson.OPT_SERIALIZE_NUMPY)
    text = b"%r".join(digits[1:-1].split(b"null")) % tuple(flat[exponent].tolist())
    return (head + text.replace(b",", joint) + b"\n") % fields


def write_text(path, text: str):
    """Write a UTF-8 text file atomically (temp file + rename)."""
    _atomic_write(path, [text.encode("utf-8")])


# ---------------------------------------------------------------------------
# model text format


def _model_lines(path):
    """The (line number, text) of each line with more than a comment, stripped.

    Lines stay strings here: a list of words per line would make a wide
    inline layer millions of objects for the garbage collector to scan.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        # the line of the first bad byte, counted the way splitlines counts
        lineno = len((data[: e.start].decode("utf-8") + "x").splitlines())
        message = f"not UTF-8 text: {e.reason} at byte {e.start}"
        raise ModelFormatError(f"{path}:{lineno}: {message}") from e
    return [(n, body) for n, line in enumerate(raw, 1) if (body := line.partition("#")[0].strip())]


def load_model(path) -> Model:
    """Parse and validate a model text file.

    Every malformed input yields a ModelFormatError naming the file,
    line, and problem; nothing is silently defaulted except the
    documented stride default of 1.
    """
    path = os.fspath(path)

    def fail(lineno, msg):
        raise ModelFormatError(f"{path}:{lineno}: {msg}")

    def words_at(k):
        lineno, body = lines[k]
        return lineno, body.split()

    lines = _model_lines(path)
    if not lines:
        raise ModelFormatError(f"{path}: empty model file, expected '{_MODEL_HEADER}' header")
    lineno, words = words_at(0)
    if words != _MODEL_HEADER.split():
        fail(lineno, f"expected header '{_MODEL_HEADER}', got {' '.join(words)!r}")

    layers = []
    pos = 1
    while pos < len(lines):
        lineno, words = words_at(pos)
        if words[0] != "layer" or len(words) != 2:
            fail(lineno, f"expected 'layer <name>', got {' '.join(words)!r}")
        name = words[1]
        if any(layer.name == name for layer in layers):
            fail(lineno, f"duplicate layer name {name!r}")
        pos += 1

        fields = {}
        while pos < len(lines):
            lineno, words = words_at(pos)
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
            start, tokens = pos, []
            while len(tokens) < count and pos < len(lines):
                vwords = lines[pos][1].split()
                if vwords[0] in ("layer", "weights"):
                    break
                tokens += vwords
                pos += 1
            try:
                weights = np.fromiter(map(float, tokens), np.float64, len(tokens))
            except ValueError:
                # rescanned only on failure, to name the first bad token and its line
                for vline, body in lines[start:pos]:
                    for w in body.split():
                        try:
                            float(w)
                        except ValueError:
                            fail(vline, f"layer {name!r}: bad weight value {w!r}")
                raise
            if len(tokens) != count:
                fail(
                    lineno,
                    f"layer {name!r}: expected {count} weights "
                    f"(filters*channels*kernel), got {len(tokens)}",
                )
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


def save_model(model: Model, path):
    """Write a model file with inline weights, atomically.

    A layer's weights are written a kernel row per line, each weight as
    its repr, in chunks of _MODEL_CHUNK_ROWS rows, each one _filled
    text whose joints are spaces within a row and newlines between.
    """

    def chunks():
        yield f"{_MODEL_HEADER}\n".encode("utf-8")
        for layer in model.layers:
            head = [
                f"layer {layer.name}",
                f"filters {layer.out_filters}",
                f"channels {layer.in_channels}",
                "kernel " + " ".join(str(e) for e in layer.kernel_shape),
                "stride " + " ".join(str(v) for v in layer.stride),
                "weights inline\n",
            ]
            yield "\n".join(head).encode("utf-8")
            rows = layer.weights.reshape(-1, layer.kernel_shape[-1])
            joints = (b" ",) * (rows.shape[1] - 1) + (b"\n",)
            for start in range(0, len(rows), _MODEL_CHUNK_ROWS):
                chunk = rows[start : start + _MODEL_CHUNK_ROWS]
                yield _filled(b"", b"%s", (joints * len(chunk))[:-1], chunk)

    _atomic_write(path, chunks())


# ---------------------------------------------------------------------------
# GHNE binary epitome format


def save_epitome(bank, path):
    """Write a Bank (or a DeepEpitome's bank) as a GHNE file, atomically."""
    if isinstance(bank, DeepEpitome):
        bank = bank.bank
    if bank.rank > _MAX_RANK:
        raise ValueError(f"bank rank {bank.rank}: a GHNE file holds at most {_MAX_RANK} axes")
    header = struct.pack("<4sIIII", _MAGIC, _VERSION, bank.m, bank.c, bank.rank)
    header += struct.pack(f"<{bank.rank}I", *bank.spatial_shape)
    entries = np.empty(bank.g.shape, dtype=_PAIR_DTYPE)
    entries["g"] = bank.g
    entries["s"] = bank.s.astype(np.uint64)
    _atomic_write(path, [header, entries.tobytes()])


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
        if rank > _MAX_RANK:
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
    _atomic_write(path, [f"{magic}\n{w} {h}\n255\n".encode("ascii"), pixels.tobytes()])


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


def write_pseudo_color_images(bank: Bank, out_dir) -> list:
    """Write one PPM per filter, member_f<i>_rgb.ppm, channels 0,1,2 mapped to R,G,B.

    Each channel is min-max scaled independently, all before anything
    is written; bounds land in scaling.txt, one line per channel.
    """
    if bank.c != 3:
        raise ValueError(f"pseudo-color rendering needs exactly 3 channels, bank has c={bank.c}")
    rgb = [[(f" channel={j}", i, j) for j in range(3)] for i in range(bank.m)]
    return _render(bank, out_dir, [(f"member_f{i}_rgb.ppm", rgb[i]) for i in range(bank.m)])


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
    are named row,col for rank 2 and axis0,axis1,... otherwise; a value
    is the repr of the entry's g/s.  The file is produced and held one
    member at a time: a member's rows are one _filled text of its g/s,
    whose joints hold the member and cell of the next value, written
    before the next member's are made.  The cells' text is made once.
    """
    if bank.rank == 2:
        axis_names = ["row", "col"]
    else:
        axis_names = [f"axis{k}" for k in range(bank.rank)]
    header = "filter,channel," + ",".join(axis_names) + ",value\n"
    indices = ([b"%d," % k for k in range(n)] for n in bank.spatial_shape)
    cells = tuple(map(b"".join, itertools.product(*indices)))

    def chunks():
        yield header.encode("ascii")
        for i in range(bank.m):
            for j in range(bank.c):
                member = b"%d,%d,%%s" % (i, j)
                yield _filled(member, b"\n" + member, cells, bank.g[i, j] / bank.s[i, j])

    _atomic_write(path, chunks())
