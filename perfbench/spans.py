"""In-memory spans around calls into ghne's layers, recorded from outside the package.

A Tracer replaces selected public functions of ghne's modules with thin
wrappers for as long as it is installed.  Each wrapped call inside an
open root span (an "op" of the timed loop, or the "gate") becomes a
span: name, start, end, parent, plus work counts computed from the
arguments and result after the call has returned.  Calls made outside
any root span, such as the benchmark's own output checks, are passed
through unrecorded.  Spans stay in memory and are written out once, by
the caller, when the run ends.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def convolve_counts(args, out) -> dict:
    """Work of composite_convolve(a, b), computed from bank shapes.

    member_pairs counts member convolutions, b.m * a.c * a.m; every
    member convolution merges each entry of a's member with each entry
    of b's member, so ghd_pairs is member_pairs times both spatial sizes.
    bytes is the computed size of the two input banks and the output.
    """
    a, b = args[0], args[1]
    member_pairs = b.m * a.c * a.m
    return {
        "member_pairs": member_pairs,
        "ghd_pairs": member_pairs * math.prod(a.spatial_shape) * math.prod(b.spatial_shape),
        "bytes": sum(x.g.nbytes + x.s.nbytes for x in (a, b, out)),
    }


def file_bytes(index):
    """Size of the file named by positional argument `index`."""
    return lambda args, out: {"bytes": os.path.getsize(args[index])}


def written_images_bytes(args, out) -> dict:
    """Size of the images write_member_images returned, plus its scaling.txt."""
    sidecar = os.path.join(args[1], "scaling.txt")
    return {"bytes": sum(os.path.getsize(p) for p in out) + os.path.getsize(sidecar)}


def ghne_wrap_targets():
    """(module, attribute, span name, counter) for every call the benchmark traces.

    cli imports apply and collapse by name, so its copies are wrapped
    under the banks span names; everything else is looked up through
    its module at call time.
    """
    from ghne import banks, cli, model_io, oracle

    return [
        (banks, "collapse", "banks.collapse", None),
        (cli, "collapse", "banks.collapse", None),
        (banks, "apply", "banks.apply", None),
        (cli, "apply", "banks.apply", None),
        (banks, "layer_to_bank", "banks.layer_to_bank", None),
        (banks, "composite_convolve", "banks.composite_convolve", convolve_counts),
        (banks, "crop_bank", "banks.crop_bank", None),
        (model_io, "load_model", "model_io.load_model", file_bytes(0)),
        (model_io, "save_epitome", "model_io.save_epitome", file_bytes(1)),
        (model_io, "load_epitome", "model_io.load_epitome", file_bytes(0)),
        (model_io, "read_image", "model_io.read_image", file_bytes(0)),
        (model_io, "write_member_images", "model_io.write_member_images", written_images_bytes),
        (model_io, "write_features_csv", "model_io.write_features_csv", file_bytes(1)),
        (oracle, "layered_forward", "oracle.layered_forward", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, module, attr, name, counter):
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if counter is not None:
                s.attrs.update(counter(args, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    @contextmanager
    def installed(self):
        """Wrap every traced ghne function; restore the originals on exit."""
        for target in ghne_wrap_targets():
            self._wrap(*target)
        try:
            yield self
        finally:
            while self._patches:
                module, attr, original = self._patches.pop()
                setattr(module, attr, original)

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def under(self, root_name: str) -> list[Span]:
        """Every span that descends from a root span called root_name."""
        root_of = {}
        for s in self.spans:  # parents are recorded before their children
            root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
        return [
            s
            for s in self.spans
            if s.parent is not None and self.spans[root_of[s.id]].name == root_name
        ]

    def children(self, parent: Span, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent == parent.id and s.name == name]

    def to_json(self) -> list[dict]:
        """Every span; self_s is its time minus the time of its child spans."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.seconds
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": s.seconds - child_s[s.id], **s.attrs}
            for s in self.spans
        ]


def maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()
