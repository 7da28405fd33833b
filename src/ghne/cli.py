"""Command-line surface: collapse, apply, verify, stats, render, bench, demo.

Exit codes: 0 success, 1 verification failure, 2 usage or file-format
errors, a count overflow or a failed allocation among them.  Every
command is deterministic given its flags and seed, and output files are
written atomically, so a failing run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys
import time

import numpy as np

from . import model_io, oracle
from .banks import (
    _CROP_MODES,
    _STRIDE_FILLS,
    Bank,
    LayerSpec,
    Model,
    apply,
    bank_stats,
    collapse,
    composite_convolve,
    crop_bank,
    effective_shape,
    layer_to_bank,
)
from .epitome import mean_fuzziness

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_USAGE = 2
# the least value of each numeric option; main checks them before any command runs
_LEAST = {"tol": 0, "trials": 1, "reps": 1, "seed": 0, "input_size": 1}
# a negative number in any float notation: argparse's own pattern has no exponent and
# took the -1e-3 of "--tol -1e-3" for an option; no ghne option starts with "-" and a digit or "."
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _layer_range(text: str):
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        first, last = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer bounds in {text!r}") from None
    if first < 1 or last < first:
        raise argparse.ArgumentTypeError(f"bad layer range {text!r}")
    return first, last


def _shape_str(shape) -> str:
    return "x".join(str(e) for e in shape)


def _format_report(name: str, report) -> str:
    status = "PASS" if report.passed else "FAIL"
    return (
        f"{name}: {status} entries={report.entries_compared} "
        f"count_mismatches={report.count_mismatches} "
        f"max_abs={report.max_abs_error:.6e} max_rel={report.max_rel_error:.6e} "
        f"tol={report.tol:.6e}"
    )


def _format_nonassoc(name: str, report) -> str:
    status = "PASS" if report.passed else "FAIL"
    lengths = f"({len(report.x)},{len(report.y)},{len(report.z)})"
    return (
        f"{name}: {status} lengths={lengths} "
        f"raw_discrepancy={report.raw_discrepancy:.6e} "
        f"epitome_discrepancy={report.epitome_discrepancy:.6e}"
    )


def cmd_collapse(args) -> int:
    model = model_io.load_model(args.model)
    first, last = args.layers if args.layers else (1, len(model.layers))
    deep = collapse(model, last, first, args.stride_fill)
    model_io.save_epitome(deep, args.out)
    print(
        f"collapsed layers {first}..{last}: m={deep.bank.m} c={deep.bank.c} "
        f"shape={_shape_str(deep.effective_shape)} -> {args.out}"
    )
    return _EXIT_OK


def cmd_apply(args) -> int:
    deep_bank = model_io.load_epitome(args.epitome)
    input_bank = model_io.read_image(args.input)
    features = apply(input_bank, deep_bank, args.crop)
    if args.negate:
        features = Bank(-features.g, features.s)
    paths = model_io.write_member_images(features, args.out, prefix="feature")
    model_io.write_features_csv(features, os.path.join(args.out, "features.csv"))
    print(
        f"wrote {len(paths)} feature images ({_shape_str(features.spatial_shape)}, "
        f"crop={args.crop}) and features.csv to {args.out}"
    )
    return _EXIT_OK


def _verify_lines(seed, trials, tol, model_path, wide_weights):
    rng = np.random.default_rng(seed)
    weight_range = (-1.5, 1.5) if wide_weights else (0.0, 1.0)
    model = model_io.load_model(model_path) if model_path else None
    reports = [
        ("pairwise-sum-identity", oracle.suite_pairwise_sum_identity(rng, trials, tol)),
        ("epitome-associativity", oracle.suite_epitome_associativity(rng, trials, tol)),
        (
            "collapse-equivalence",
            oracle.suite_collapse_equivalence(
                rng, trials, tol, model=model, weight_range=weight_range
            ),
        ),
    ]
    lines = [_format_report(name, rep) for name, rep in reports]
    ok = all(rep.passed for _, rep in reports)
    try:
        nonassoc = oracle.suite_raw_nonassociativity(seed, tol)
        lines.append(_format_nonassoc("raw-nonassociativity", nonassoc))
        ok = ok and nonassoc.passed
    except RuntimeError as e:
        lines.append(f"raw-nonassociativity: FAIL {e}")
        ok = False
    return lines, ok


def cmd_verify(args) -> int:
    if args.model and args.wide_weights:
        raise ValueError("--wide-weights applies only to --random, not to --model")
    lines, ok = _verify_lines(args.seed, args.trials, args.tol, args.model, args.wide_weights)
    for line in lines:
        print(line)
    return _EXIT_OK if ok else _EXIT_VERIFY


def cmd_stats(args) -> int:
    bank = model_io.load_epitome(args.epitome)
    value_range = tuple(args.range) if args.range else None
    report = bank_stats(bank, args.bins, value_range)
    model_io.write_stats_csv(report, args.out)
    print(
        f"wrote {args.bins}-bin stats for {bank.m * bank.c} members to {args.out} "
        f"(aggregate fuzziness {report.aggregate.fuzziness:.6f})"
    )
    return _EXIT_OK


def cmd_render(args) -> int:
    bank = model_io.load_epitome(args.epitome)
    if args.pseudo_color:
        paths = model_io.write_pseudo_color_images(bank, args.out)
    else:
        paths = model_io.write_member_images(bank, args.out)
    print(f"wrote {len(paths)} images and scaling.txt to {args.out}")
    return _EXIT_OK


def cmd_bench(args) -> int:
    model = model_io.load_model(args.model)
    rank = model.layers[0].rank
    rng = np.random.default_rng(0)
    input_bank = oracle.random_input(
        rng, model.layers[0].in_channels, (args.input_size,) * rank
    )
    # a record that cannot take this run fails before anything is timed
    record = None if args.json is None else _bench_record(args.json, model)

    t0 = time.perf_counter()
    deep = collapse(model)
    collapse_seconds = time.perf_counter() - t0

    # gate the timed epitome and crop themselves, the way oracle.check_equivalence
    # gates a fresh epitome uncropped
    candidate = apply(input_bank, deep, args.crop)
    reference = oracle.layered_forward(model, input_bank)
    reference = crop_bank(reference, candidate.spatial_shape, args.crop)
    report = oracle.compare_banks(reference, candidate, 1e-9)
    if not report.passed:
        print(
            "error: layered and one-step outputs disagree, refusing to report timings\n"
            + _format_report("bench-equivalence", report),
            file=sys.stderr,
        )
        return _EXIT_VERIFY
    print(_format_report("bench-equivalence", report), file=sys.stderr)

    # layered and one-step both run the fast kernel on the same input, whose
    # counts it holds as factors; the oracle only gates
    layer_banks = [layer_to_bank(layer) for layer in model.layers]
    rows = [("collapse", 1, collapse_seconds)]
    for rep in range(1, args.reps + 1):
        t0 = time.perf_counter()
        bank = input_bank
        for layer_bank in layer_banks:
            bank = composite_convolve(bank, layer_bank)
        rows.append(("layered", rep, time.perf_counter() - t0))
    for rep in range(1, args.reps + 1):
        t0 = time.perf_counter()
        out = apply(input_bank, deep, args.crop)
        rows.append(("one_step", rep, time.perf_counter() - t0))
        # each rep is held to the gated output, bit for bit
        if not (np.array_equal(out.s, candidate.s) and out.g.tobytes() == candidate.g.tobytes()):
            print(
                f"error: one-step rep {rep} differs from the gated output, "
                "refusing to report timings",
                file=sys.stderr,
            )
            return _EXIT_VERIFY
    if record is not None:
        _add_bench_run(args, record, rows)
    print("mode,rep,seconds")
    for mode, rep, seconds in rows:
        print(f"{mode},{rep},{seconds!r}")
    return _EXIT_OK


def _bench_record(path, model):
    """The JSON record at path of this model's shapes and bench runs, new if absent.

    A file that is not such a record, or holds another model's runs,
    raises ValueError, and a path in a missing directory OSError.
    """
    # imported here: loading it cost every other command start-up time
    # and resident memory
    import json

    shapes = {
        "layers": [
            {"name": l.name, "weights": list(l.weights.shape), "stride": list(l.stride)}
            for l in model.layers
        ],
        "deep_epitome": [model.layers[-1].out_filters, model.layers[0].in_channels]
        + list(effective_shape(model.layers)),
    }
    if not os.path.exists(path):
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return {"model": shapes, "runs": []}
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    if not (isinstance(record, dict) and isinstance(record.get("runs"), list)):
        raise ValueError(f"{path} is not a bench record")
    if record.get("model") != shapes:
        raise ValueError(f"{path} holds bench runs of another model")
    return record


def _add_bench_run(args, record, rows):
    """Add this gated run (environment, input, crop, each mode's median and IQR) to args.json."""
    import json
    import platform

    modes = {}
    for mode in ("collapse", "layered", "one_step"):
        seconds = [s for m, _, s in rows if m == mode]
        q1, median, q3 = (float(q) for q in np.percentile(seconds, [25, 50, 75]))
        modes[mode] = {"reps": len(seconds), "median_s": median, "iqr_s": q3 - q1}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    run = {
        "environment": {
            "cpus": cpus,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": _blas_threads(),
        },
        "input_size": args.input_size,
        "crop": args.crop,
        "modes": modes,
    }
    record["runs"].append(run)
    model_io.write_text(args.json, json.dumps(record, indent=1) + "\n")


def _blas_threads():
    """The thread count of the OpenBLAS that numpy ships, or None if there is none."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads = getattr(lib, name)
                threads.argtypes, threads.restype = [], ctypes.c_int
                return threads()
    return None


def cmd_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    out = os.fspath(args.out)
    os.makedirs(out, exist_ok=True)

    model = Model(
        [
            LayerSpec("conv1", rng.uniform(0.0, 1.0, size=(2, 1, 3, 3)), 1),
            LayerSpec("conv2", rng.uniform(0.0, 1.0, size=(3, 2, 3, 3)), 2),
            LayerSpec("conv3", rng.uniform(0.0, 1.0, size=(2, 3, 2, 2)), 1),
        ]
    )
    model_path = os.path.join(out, "model.ghnm")
    model_io.save_model(model, model_path)
    model = model_io.load_model(model_path)

    pixels = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
    input_path = os.path.join(out, "input.pgm")
    model_io.write_pgm(input_path, pixels)
    input_bank = model_io.read_image(input_path)

    deep = collapse(model)
    model_io.save_epitome(deep, os.path.join(out, "deep.ghne"))
    print(
        f"model: 3 layers -> deep epitome m={deep.bank.m} c={deep.bank.c} "
        f"shape={_shape_str(deep.effective_shape)}"
    )

    features = apply(input_bank, deep, crop="same")
    feature_dir = os.path.join(out, "features")
    model_io.write_member_images(features, feature_dir, prefix="feature")
    model_io.write_features_csv(features, os.path.join(feature_dir, "features.csv"))

    lines, ok = _verify_lines(args.seed, 20, 1e-9, model_path, False)
    model_io.write_text(os.path.join(out, "verify.txt"), "\n".join(lines) + "\n")
    for line in lines:
        print(line)

    stats = bank_stats(deep.bank, 16)
    model_io.write_stats_csv(stats, os.path.join(out, "stats.csv"))
    series = []
    for depth in range(1, len(model.layers) + 1):
        partial = collapse(model, depth)
        series.append((str(depth), mean_fuzziness(partial.bank)))
    model_io.write_series_csv(
        series, os.path.join(out, "fuzziness.csv"), header=("layers_collapsed", "fuzziness")
    )

    model_io.write_member_images(deep.bank, os.path.join(out, "render"))
    print(f"demo artifacts in {out}")
    return _EXIT_OK if ok else _EXIT_VERIFY


# built once per process: parsing leaves the parser as it was, and a caller
# such as the benchmark's pipeline runs main twice per op
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghne",
        description=(
            "Collapse stacks of generalized-hamming convolution layers into one "
            "deep epitome, apply it to inputs in a single step, and verify the "
            "equivalence against layered and brute-force references."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collapse", help="fold a layer range into one deep epitome file")
    p.add_argument("--model", required=True, help="model text file")
    p.add_argument(
        "--layers",
        type=_layer_range,
        default=None,
        metavar="A..B",
        help="1-based inclusive layer range (default: all layers)",
    )
    p.add_argument("--out", required=True, help="output GHNE epitome file")
    p.add_argument(
        "--stride-fill",
        choices=_STRIDE_FILLS,
        default="replicate",
        help="strided-kernel resize fill: repeat weights, or pad with absorbing 0.5",
    )
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("apply", help="extract features from an image in one step")
    p.add_argument("--epitome", required=True, help="GHNE epitome file")
    p.add_argument("--input", required=True, help="input image (binary PGM/PPM, maxval 255)")
    p.add_argument("--crop", choices=_CROP_MODES, default="full")
    p.add_argument(
        "--negate", action="store_true", help="emit -g/s (negative mean GHD reads as similarity)"
    )
    p.add_argument("--out", required=True, help="output directory for images and CSV")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="run the oracle suites and report pass/fail")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="verify collapse equivalence on this model file")
    src.add_argument(
        "--random", action="store_true", help="synthesize a fresh random model per trial"
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--wide-weights",
        action="store_true",
        help="draw random weights from [-1.5, 1.5] instead of [0, 1]",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="histogram + fuzziness CSV for an epitome file")
    p.add_argument("--epitome", required=True)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--range",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        default=None,
        help="fixed histogram range (default: data min/max)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("render", help="write each member as a grayscale or pseudo-color image")
    p.add_argument("--epitome", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--pseudo-color",
        action="store_true",
        help="one PPM per filter from channels 0,1,2 as R,G,B (requires c=3)",
    )
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="time layered vs one-step evaluation (CSV on stdout)")
    p.add_argument("--model", required=True)
    p.add_argument("--input-size", type=int, required=True, metavar="N", help="square input extent")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument(
        "--crop", choices=_CROP_MODES, default="full", help="crop of the gated and timed one step"
    )
    p.add_argument(
        "--json",
        metavar="FILE",
        help="once the checks pass, add this run (environment, shapes, median and IQR per "
        "mode) to FILE",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo", help="synthesize a model and run the whole pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_demo)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name, least in _LEAST.items():
            value, flag = getattr(args, name, least), "--" + name.replace("_", "-")
            # written so that a NaN fails too
            if not value >= least:
                raise ValueError(f"{flag} must be >= {least}")
            # only --tol is a float, and an infinite tolerance passes any error
            if value == math.inf:
                raise ValueError(f"{flag} must be finite")
        return args.func(args)
    except (model_io.FormatError, ValueError, OSError, MemoryError) as e:
        # a failed allocation may carry no message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
