"""The names of ghne that the benchmark in perfbench/ looks up at run time.

perfbench/run.py wraps each (module, attribute) pair of
spans.ghne_wrap_targets() to trace it, and the gate calls through them,
so renaming one breaks every benchmark run; this pins them in tier-1.
"""

import importlib
from pathlib import Path


def test_benchmark_wrap_targets_are_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    spans = importlib.import_module("spans")
    importlib.import_module("workloads")
    targets = spans.ghne_wrap_targets()
    assert len(targets) == 14
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
