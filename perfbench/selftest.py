"""Self-test of the benchmark: a tiny-size smoke run plus the gate's refusal.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, each printed as one PASS/FAIL line:

* every workload, untraced and traced, at tiny sizes, exits 0 with a
  correct result that holds every metric BENCHMARK.json lists, the
  end-to-end ones non-zero, and prints every end-to-end and
  workload-specific metric name with its unit in the report lines;
* the traced runs write spans and fill the per-layer rows their
  workload exercises;
* a deep epitome with one g entry perturbed by a relative 1e-6 makes
  the equivalence gate refuse: no timings, exit 1, the op counted as
  failed;
* in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 3

REPORTED = {
    "fold": {"collapse_s_p50": "s", "collapse_s_tail": "s"},
    "extract": {"apply_s_p50": "s", "apply_s_tail": "s", "extract_mpix_per_s": "Mpix/s"},
    "pipeline": {"pipeline_s_p50": "s", "pipeline_s_tail": "s"},
}
REPORTED_ALL = {"ops_attempted": "count", "ops_failed": "count"}

# per-layer rows each workload must fill with non-zero values
EXERCISED = {
    "fold": ["banks.fold_step1.s", "banks.fold_step2.s", "banks.fold_step2.ghd_pairs"],
    "extract": ["banks.apply.s", "banks.crop_bank.s", "setup.collapse_s"],
    "pipeline": [
        "banks.fold_step1.member_pairs", "cli.collapse.s", "cli.apply.s",
        "model_io.load_model.bytes", "model_io.save_epitome.s", "model_io.load_epitome.s",
        "model_io.read_image.s", "model_io.write_member_images.bytes",
        "model_io.write_features_csv.mb_per_s",
    ],
}
EXERCISED_ALL = [
    "setup.import_s", "banks.composite_convolve.s", "banks.composite_convolve.member_pairs",
    "banks.composite_convolve.mpairs_per_s", "banks.composite_convolve.bytes",
    "oracle.layered_forward.s", "oracle.entries_compared", "oracle.layered_over_one_step",
]

failures = []


def check(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(name)


def run_bench(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def smoke(spec):
    for workload in ("fold", "extract", "pipeline"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                check(f"{label} prints a result", False, proc.stderr[-2000:])
                continue
            check(
                f"{label} exits 0 with a correct result",
                proc.returncode == 0 and result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1,
                proc.stderr[-2000:],
            )
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{label} prints exactly the {key} metrics of BENCHMARK.json", got == expected,
                  f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                check(f"{label} end-to-end metrics are non-zero", all(values.values()))
                named = {**expected, **REPORTED[workload], **REPORTED_ALL}
                missing = [
                    n for n, unit in named.items()
                    if not any(l.startswith(f"metric {n} ") and f" {unit}" in l for l in lines)
                ]
                check(f"{label} reports every named metric with its unit", not missing, str(missing))
            else:
                rows = EXERCISED[workload] + EXERCISED_ALL
                check(f"{label} fills its per-layer rows", all(values.get(r) for r in rows),
                      str([r for r in rows if not values.get(r)]))
                trace_lines = [l for l in lines if l.startswith("trace ")]
                ok = False
                if trace_lines:
                    path = Path(trace_lines[-1].split(" -> ", 1)[1])
                    spans = json.loads(path.read_text())["spans"]
                    ok = bool(spans) and all({"name", "start", "end", "parent"} <= s.keys() for s in spans)
                check(f"{label} writes spans", ok)


def perturbed_gate_refuses():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import run
    import workloads
    from ghne.banks import Bank

    args = argparse.Namespace(seed=SEED, seconds=1.0, trace=0, size="tiny")
    for workload in ("fold", "extract", "pipeline"):
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
            args.workload = workload
            ctx = workloads.setup(workload, workloads.SIZES["tiny"], SEED, workdir)
            deep = ctx.deep if ctx.deep is not None else workloads.banks.collapse(ctx.model).bank
            g = deep.g.copy()
            index = np.unravel_index(np.argmax(np.abs(g)), g.shape)
            g[index] *= 1 + 1e-6
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.measure(args, ctx, Bank(g, deep.s), {})
            lines = out.getvalue().strip().splitlines()
            result = json.loads(lines[-1])
            check(
                f"{workload}: perturbed deep epitome is refused and counted as failed",
                code == 1 and not result["correct"] and result["failed"] == 1
                and result["attempted"] == 1 and result["metrics"] == {}
                and not any(l.startswith("metric ") for l in lines),
                out.getvalue()[-2000:],
            )


def refuses_without_sources():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("fold", 0, cwd=bare, script=bare / HERE.name / RUN.name)
        check("exits non-zero without a result when ghne's sources are absent",
              proc.returncode != 0 and not proc.stdout.strip(), proc.stdout[-500:])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    smoke(spec)
    refuses_without_sources()
    perturbed_gate_refuses()
    print(f"{'FAIL' if failures else 'PASS'}: {len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
