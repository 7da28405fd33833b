"""Benchmark of ghne's collapse, one-step apply and file pipeline.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {fold,extract,pipeline} --seed N \
        --seconds S --trace {0,1}

Runs one workload in this single process, with GHNE_THREADS unset, as a
default user runs ghne.  Order of a run:

1. build the workload's seeded models (untimed);
2. the equivalence gate: layered reference vs one-step at 1e-9 with
   exact counts, at the input extent the workload times.  If it fails,
   no timing is printed and the run exits 1;
3. set-up time: fresh interpreters each import ghne and build the
   models; after one warm-up, setup_s is the median of seven;
4. the timed loop, for --seconds, checking every op's output outside
   the timed region, and a costlier check of one seeded sample op.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 the loop runs untraced for half the
time and traced for the other half, the last line holds the per-layer
metrics, and the spans go to .perfbench/traces/.  Lines before the last
are a human-readable report.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, maybe_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is probed in fresh interpreters: one warm-up probe, whose time
# is dropped because it pays for a cold file cache, then SETUP_PROBES
# probes whose median is setup_s.
SETUP_PROBES = 7

# The workload-specific names of the op metrics, printed in the report.
# The op-time median and tail are not gated: the host's speed drifts by
# 20-30% over minutes and a run's median flips between a fast and a
# slow mode, so across ten runs they spread by up to 0.30 of their
# value, beyond the largest bound allowed.  The mean rate, ops_per_s,
# spreads about half as much and is the gated op metric.
OP_NAMES = {"fold": "collapse_s", "extract": "apply_s", "pipeline": "pipeline_s"}

_MODEL_IO = (
    "load_model",
    "save_epitome",
    "load_epitome",
    "read_image",
    "write_member_images",
    "write_features_csv",
)


def metric_units(kind: str) -> dict:
    """Name -> unit of the BENCHMARK.json metrics of one kind (end_to_end or per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "GHNE_THREADS": os.environ.get("GHNE_THREADS", "unset"),
    }


def tail(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten or fewer
    samples no percentile qualifies, and the maximum is returned with
    zero samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    i = n - 11 if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def probe_setup(args, workdir) -> dict:
    """Time set-up in a fresh interpreter: import ghne, then build the models."""
    probe_dir = tempfile.mkdtemp(dir=workdir, prefix="probe-")
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
        str(args.seed), "--size", args.size, "--setup-probe", probe_dir,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe_main(args) -> int:
    t0 = time.perf_counter()
    import ghne  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads

    ctx = workloads.setup(args.workload, workloads.SIZES[args.size], args.seed, args.setup_probe)
    print(json.dumps({
        "import_s": import_s,
        "collapse_s": ctx.collapse_s,
        "total_s": import_s + ctx.build_s + ctx.collapse_s,
    }))
    return 0


def passes(check, *args) -> bool:
    """Run an output check; a check that raises counts as failed."""
    try:
        return check(*args)
    except Exception:
        traceback.print_exc()
        return False


def timed_loop(bench, seconds, first_op=0, tracer=None):
    """Run ops from index first_op until `seconds` have passed.

    Returns every op's time, failed ones included, the number of failed
    ops, and the index of the next op.
    """
    times = []
    failed = 0
    k = first_op
    deadline = time.perf_counter() + seconds
    while k == first_op or time.perf_counter() < deadline:
        arg = bench.prepare(k)
        out = None
        t0 = time.perf_counter()
        try:
            with maybe_span(tracer, "op"):
                out = bench.run(arg, tracer)
        except Exception:
            traceback.print_exc()
        times.append(time.perf_counter() - t0)
        ok = out is not None and passes(bench.check, arg, out)
        if not ok:
            failed += 1
        if not (ok and bench.offer(arg, out)):
            bench.discard(arg)
        k += 1
    return times, failed, k


def layer_metrics(tracer, gate, probes, overhead_s) -> dict:
    """Per-layer metrics from the spans of the traced ops and of the gate.

    Times, calls and computed counts are means per traced op; rates are
    total computed work over total span time of that name.
    """
    ops = tracer.roots("op")
    n = len(ops)
    spans = tracer.under("op")
    metrics = {
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.collapse_s": statistics.median(p["collapse_s"] for p in probes),
    }

    def add_totals(prefix, group, counts=("member_pairs", "ghd_pairs", "bytes")):
        seconds = sum(s.seconds for s in group)
        metrics[f"{prefix}.s"] = seconds / n
        for c in counts:
            metrics[f"{prefix}.{c}"] = sum(s.attrs.get(c, 0) for s in group) / n
        return seconds

    convolves = [s for s in spans if s.name == "banks.composite_convolve"]
    seconds = add_totals("banks.composite_convolve", convolves)
    metrics["banks.composite_convolve.calls"] = len(convolves) / n
    total_pairs = sum(s.attrs["ghd_pairs"] for s in convolves)
    metrics["banks.composite_convolve.mpairs_per_s"] = total_pairs / seconds / 1e6 if seconds else 0.0

    steps = {1: [], 2: []}
    for collapse in (s for s in spans if s.name == "banks.collapse"):
        for k, step in enumerate(tracer.children(collapse, "banks.composite_convolve"), 1):
            steps.setdefault(k, []).append(step)
    for k in (1, 2):
        prefix = f"banks.fold_step{k}"
        seconds = add_totals(prefix, steps[k], ("member_pairs", "ghd_pairs"))
        pairs = sum(s.attrs["ghd_pairs"] for s in steps[k])
        metrics[f"{prefix}.mpairs_per_s"] = pairs / seconds / 1e6 if seconds else 0.0

    for name in ("banks.crop_bank", "banks.apply", "cli.collapse", "cli.apply"):
        add_totals(name, [s for s in spans if s.name == name], ())
    for f in _MODEL_IO:
        add_totals(f"model_io.{f}", [s for s in spans if s.name == f"model_io.{f}"], ("bytes",))
    csv_s = metrics["model_io.write_features_csv.s"]
    csv_bytes = metrics["model_io.write_features_csv.bytes"]
    metrics["model_io.write_features_csv.mb_per_s"] = csv_bytes / csv_s / 1e6 if csv_s else 0.0

    # The gate ran once, traced: one layered forward and one full apply.
    gate_spans = tracer.under("gate")
    layered_s = sum(s.seconds for s in gate_spans if s.name == "oracle.layered_forward")
    one_step_s = sum(
        s.seconds for s in gate_spans if s.name == "banks.apply" and tracer.spans[s.parent].parent is None
    )
    metrics.update({
        "oracle.layered_forward.s": layered_s,
        "oracle.max_rel_error": gate.report.max_rel_error,
        "oracle.count_mismatches": gate.report.count_mismatches,
        "oracle.entries_compared": gate.report.entries_compared,
        "oracle.layered_over_one_step": layered_s / one_step_s,
        "trace.overhead_s": overhead_s,
    })
    return metrics


def report(line):
    print(line, flush=True)


def result_line(correct, attempted, failed, metrics, units):
    if metrics.keys() != units.keys():
        raise KeyError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run(args, workdir) -> int:
    import workloads

    size = workloads.SIZES[args.size]
    env = environment()
    report("env " + json.dumps(env))
    ctx = workloads.setup(args.workload, size, args.seed, workdir)
    deep = ctx.deep if ctx.deep is not None else workloads.banks.collapse(ctx.model).bank
    return measure(args, ctx, deep, env)


def measure(args, ctx, deep, env) -> int:
    """Gate, then time; prints the report and the result line, returns the exit code."""
    import workloads

    tracer = Tracer() if args.trace else None
    x = workloads.gate_input(ctx)
    if tracer is not None:
        with tracer.installed():
            gate = workloads.run_gate(ctx, deep, x, tracer)
    else:
        gate = workloads.run_gate(ctx, deep, x)
    r = gate.report
    report(
        f"gate {'PASS' if r.passed else 'FAIL'} model={'rgb' if ctx.workload == 'pipeline' else 'mid'}"
        f" deep={'x'.join(map(str, deep.g.shape))} input={'x'.join(map(str, x.g.shape))}"
        f" entries={r.entries_compared} count_mismatches={r.count_mismatches}"
        f" max_rel={r.max_rel_error:.3e} tol={r.tol:.0e}"
    )
    if not r.passed:
        print("error: equivalence gate failed, refusing to report timings", file=sys.stderr)
        print(result_line(False, 1, 1, {}, {}))
        return 1

    probe_setup(args, ctx.workdir)
    probes = [probe_setup(args, ctx.workdir) for _ in range(SETUP_PROBES)]
    bench = workloads.WORKLOADS[ctx.workload](ctx, gate)
    if tracer is None:
        times, failed, attempted = timed_loop(bench, args.seconds)
    else:
        times, failed, untraced = timed_loop(bench, args.seconds / 2)
        with tracer.installed():
            traced_times, traced_failed, attempted = timed_loop(
                bench, args.seconds / 2, untraced, tracer
            )
    # With no sample every op has already failed its cheap check.
    sample_ok = True
    if bench.sample is not None:
        sample_ok = passes(bench.verify_sample)
        bench.discard(bench.sample[0])
        if not sample_ok:
            failed += 1

    name = OP_NAMES[ctx.workload]
    if tracer is None:
        p50 = statistics.median(times)
        tail_s, pct, beyond = tail(times)
        metrics = {
            "setup_s": statistics.median(p["total_s"] for p in probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_per_s": len(times) / sum(times),
        }
        report(f"metric {name}_p50 {p50!r} s (n={len(times)})")
        report(f"metric {name}_tail {tail_s!r} s (p{pct:.1f} of n={len(times)}, {beyond} beyond)")
        if ctx.workload == "extract":
            mpix = metrics["ops_per_s"] * ctx.size.extract_px ** 2 / 1e6
            report(f"metric extract_mpix_per_s {mpix!r} Mpix/s (input megapixels over the timed loop)")
        units = metric_units("end_to_end")
        for key, unit in units.items():
            report(f"metric {key} {metrics[key]!r} {unit}")
    else:
        overhead = statistics.median(traced_times) - statistics.median(times)
        failed += traced_failed
        metrics = layer_metrics(tracer, gate, probes, overhead)
        trace_path = write_trace(args, env, tracer, metrics)
        report(f"trace {len(tracer.spans)} spans -> {trace_path}")
        units = metric_units("per_layer")
        for key, unit in units.items():
            report(f"layer {key} {metrics[key]!r} {unit}")
    report(f"metric ops_attempted {attempted} count")
    report(f"metric ops_failed {failed} count")
    report(f"sample_check {'PASS' if sample_ok else 'FAIL'}")
    correct = failed == 0
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def write_trace(args, env, tracer, metrics) -> Path:
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "metrics": metrics,
        "spans": tracer.to_json(),
    }))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fold", "extract", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.pop("GHNE_THREADS", None)
    if not (SRC / "ghne" / "__init__.py").is_file():
        print(f"error: no ghne sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe_main(args)

    import ghne

    if Path(ghne.__file__).resolve().parent != SRC / "ghne":
        print(f"error: imported ghne from {ghne.__file__}, not {SRC}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".perfbench", prefix="work-")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
