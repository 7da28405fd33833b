"""Seeded models, inputs, equivalence gate and per-op checks for the three workloads.

Models are built here from the seed, so nothing is downloaded:

* mid: widths 1-16-32-32, 3x3 kernels, strides 1,2,1.  Two fold steps
  give a 32x1x10x10 deep epitome.
* rgb: widths 3-8-16, 3x3 kernels, strides 1,2.  One fold step gives a
  16x3x8x8 deep epitome.

Weights and pixels are uniform draws from the seed; shapes never depend
on it.  Every random stream is keyed by (seed, purpose[, op index]), so
a given seed always yields the same models, gate input and op inputs,
and no two ops of a run share an input.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from ghne import banks, cli, model_io, oracle
from ghne.banks import Bank, LayerSpec, Model
from spans import maybe_span

TOL = 1e-9

# purposes of the seeded random streams
_MODELS, _GATE_INPUT, _OP_INPUT, _SAMPLE = range(4)


@dataclass(frozen=True)
class Size:
    mid_widths: tuple[int, ...]
    rgb_widths: tuple[int, ...]
    extract_px: int
    pipeline_px: int


SIZES = {
    "full": Size((1, 16, 32, 32), (3, 8, 16), 28, 64),
    # a seconds-long smoke run of every code path, used by selftest.py
    "tiny": Size((1, 2, 3, 3), (3, 2, 2), 8, 12),
}
MID_STRIDES = (1, 2, 1)
RGB_STRIDES = (1, 2)
KERNEL = (3, 3)


def build_model(rng, widths, strides) -> Model:
    return Model(
        LayerSpec(
            f"conv{i + 1}",
            rng.uniform(0.0, 1.0, size=(widths[i + 1], widths[i]) + KERNEL),
            strides[i],
        )
        for i in range(len(strides))
    )


def rng_for(seed: int, *key: int):
    return np.random.default_rng([seed, *key])


def write_input_ppm(path, seed: int, key, px: int):
    pixels = rng_for(seed, *key).integers(0, 256, size=(px, px, 3), dtype=np.uint8)
    model_io.write_ppm(path, pixels)


@dataclass
class Setup:
    """What a workload's set-up leaves behind for the timed loop."""

    workload: str
    size: Size
    seed: int
    workdir: str
    model: Model
    model_path: str | None = None
    deep: Bank | None = None
    build_s: float = 0.0
    collapse_s: float = 0.0


def setup(workload: str, size: Size, seed: int, workdir: str) -> Setup:
    """Build (and for pipeline, write) the workload's model; extract also collapses it."""
    t0 = time.perf_counter()
    rng = rng_for(seed, _MODELS)
    if workload == "pipeline":
        model_path = os.path.join(workdir, "rgb.ghnm")
        model_io.save_model(build_model(rng, size.rgb_widths, RGB_STRIDES), model_path)
        ctx = Setup(workload, size, seed, workdir, model_io.load_model(model_path), model_path)
    else:
        ctx = Setup(workload, size, seed, workdir, build_model(rng, size.mid_widths, MID_STRIDES))
    t1 = time.perf_counter()
    ctx.build_s = t1 - t0
    if workload == "extract":
        ctx.deep = banks.collapse(ctx.model).bank
        ctx.collapse_s = time.perf_counter() - t1
    return ctx


@dataclass
class Gate:
    report: oracle.EquivalenceReport
    deep: Bank
    same: Bank  # the gated one-step output, centre-cropped to the input extent


def gate_input(ctx: Setup) -> Bank:
    """The gate's input, at the extent the workload times (fold uses extract's)."""
    if ctx.workload == "pipeline":
        path = os.path.join(ctx.workdir, "gate.ppm")
        write_input_ppm(path, ctx.seed, (_GATE_INPUT,), ctx.size.pipeline_px)
        return model_io.read_image(path)
    px = ctx.size.extract_px
    return oracle.random_input(rng_for(ctx.seed, _GATE_INPUT), 1, (px, px))


def run_gate(ctx: Setup, deep: Bank, x: Bank, tracer=None) -> Gate:
    """Layered reference vs one-step application of this deep epitome, at TOL.

    The body of oracle.check_equivalence and of `ghne bench`, except that
    the deep epitome is passed in: the epitome the timed loop uses and
    checks against is the one that passed.
    """
    with maybe_span(tracer, "gate"):
        reference = oracle.layered_forward(ctx.model, x)
        candidate = banks.apply(x, deep, crop="full")
    report = oracle.compare_banks(reference, candidate, TOL)
    return Gate(report, deep, banks.crop_bank(candidate, x.spatial_shape, "same"))


class Workload:
    """One timed op plus its untimed input preparation and output checks.

    prepare(k) makes op k's input; run() is the timed region; check()
    verifies every output cheaply; offer() keeps a seeded uniform sample
    of one op (reservoir of size one) for verify_sample(), the costlier
    check run once after the loop.
    """

    def __init__(self, ctx: Setup, gate: Gate):
        self.ctx = ctx
        self.gate = gate
        self._sample_rng = rng_for(ctx.seed, _SAMPLE)
        self._offered = 0
        self.sample = None

    def prepare(self, k: int):
        return None

    def run(self, arg, tracer=None):
        raise NotImplementedError

    def check(self, arg, out) -> bool:
        raise NotImplementedError

    def offer(self, arg, out) -> bool:
        self._offered += 1
        if self._sample_rng.integers(self._offered) == 0:
            self.sample = (arg, out)
            return True
        return False

    def verify_sample(self) -> bool:
        return True

    def discard(self, arg):
        """Remove op files that are not kept as the sample."""


class Fold(Workload):
    """collapse(mid), checked bit-equal to the gated deep epitome."""

    def run(self, arg, tracer=None):
        return banks.collapse(self.ctx.model).bank

    def check(self, arg, out) -> bool:
        return out == self.gate.deep


class Extract(Workload):
    """apply(x, deep, crop="same") on a fresh seeded one-channel input per op."""

    def prepare(self, k):
        px = self.ctx.size.extract_px
        return oracle.random_input(rng_for(self.ctx.seed, _OP_INPUT, k), 1, (px, px))

    def run(self, x, tracer=None):
        return banks.apply(x, self.gate.deep, crop="same")

    def check(self, x, out) -> bool:
        return (
            out.spatial_shape == x.spatial_shape
            and out.g.shape == self.gate.same.g.shape
            and np.array_equal(out.s, self.gate.same.s)
        )

    def verify_sample(self) -> bool:
        x, out = self.sample
        reference = banks.crop_bank(oracle.layered_forward(self.ctx.model, x), x.spatial_shape, "same")
        return oracle.compare_banks(reference, out, TOL).passed


class Pipeline(Workload):
    """In-process `ghne collapse` then `ghne apply` on a fresh seeded PPM per op."""

    def __init__(self, ctx, gate):
        super().__init__(ctx, gate)
        self.deep_path = os.path.join(ctx.workdir, "deep.ghne")

    def prepare(self, k):
        ppm = os.path.join(self.ctx.workdir, f"in{k}.ppm")
        write_input_ppm(ppm, self.ctx.seed, (_OP_INPUT, k), self.ctx.size.pipeline_px)
        return ppm, os.path.join(self.ctx.workdir, f"out{k}")

    def run(self, arg, tracer=None):
        ppm, out_dir = arg
        with contextlib.redirect_stdout(io.StringIO()):
            with maybe_span(tracer, "cli.collapse"):
                rc_collapse = cli.main(
                    ["collapse", "--model", self.ctx.model_path, "--out", self.deep_path]
                )
            with maybe_span(tracer, "cli.apply"):
                rc_apply = cli.main(
                    ["apply", "--epitome", self.deep_path, "--input", ppm,
                     "--crop", "same", "--out", out_dir]
                )
        return rc_collapse, rc_apply

    def check(self, arg, out) -> bool:
        ppm, out_dir = arg
        if out != (0, 0) or model_io.load_epitome(self.deep_path) != self.gate.deep:
            return False
        px = self.ctx.size.pipeline_px
        for i in range(self.gate.same.m):
            for j in range(self.gate.same.c):
                image = model_io.read_image(os.path.join(out_dir, f"feature_f{i}_c{j}.pgm"))
                if image.spatial_shape != (px, px):
                    return False
        with open(os.path.join(out_dir, "features.csv"), "rb") as f:
            rows = f.read().count(b"\n")
        return rows == 1 + self.gate.same.g.size

    def offer(self, arg, out) -> bool:
        previous = self.sample
        kept = super().offer(arg, out)
        if kept and previous is not None:
            self.discard(previous[0])
        return kept

    def discard(self, arg):
        ppm, out_dir = arg
        with contextlib.suppress(FileNotFoundError):
            os.remove(ppm)
        shutil.rmtree(out_dir, ignore_errors=True)

    def verify_sample(self) -> bool:
        """Every features.csv value equals the in-process apply of the gated epitome."""
        ppm, out_dir = self.sample[0]
        reference = banks.apply(model_io.read_image(ppm), self.gate.deep, crop="same")
        if reference.g.shape != self.gate.same.g.shape or not np.array_equal(
            reference.s, self.gate.same.s
        ):
            return False
        values = reference.values()
        with open(os.path.join(out_dir, "features.csv"), encoding="utf-8") as f:
            next(f)
            rows = 0
            for line in f:
                i, j, r, c, value = line.split(",")
                if float(value) != values[int(i), int(j), int(r), int(c)]:
                    return False
                rows += 1
        return rows == values.size


WORKLOADS = {"fold": Fold, "extract": Extract, "pipeline": Pipeline}
