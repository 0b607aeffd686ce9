"""Spans around calls into the package's layers, recorded from outside it.

``Tracer.install`` replaces each named public function with a timing
wrapper in every loaded ``xdgdl`` module that holds a reference to it,
so calls made through ``from .views import ...`` bindings are caught too.
Spans stay in memory; ``Tracer.write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (module, function) -> span name
LAYERS: dict[tuple[str, str], str] = {
    ("xdgdl.model", "parse_document"): "model.parse",
    ("xdgdl.model", "validate_document"): "model.validate",
    ("xdgdl.model", "serialize_document"): "model.serialize",
    ("xdgdl.views", "build_distribution_map"): "views.map",
    ("xdgdl.views", "check_partition"): "views.partition",
    ("xdgdl.views", "render_plan"): "views.render",
    ("xdgdl.scatter", "scatter"): "scatter.scatter",
    ("xdgdl.scatter", "gather"): "scatter.gather",
    ("xdgdl.store", "put_file"): "store.put",
    ("xdgdl.store", "get_file"): "store.get",
    ("xdgdl.vipfs", "locate_sidecar"): "vipfs.sidecar",
    ("xdgdl.vipfs", "copy_in"): "vipfs.copy_in",
    ("xdgdl.vipfs", "copy_out"): "vipfs.copy_out",
    ("xdgdl.hpf", "compile_hpf_mapping"): "hpf.compile",
    ("xdgdl.hpf", "ownermap_to_views"): "hpf.lower",
}

# span name -> (count name, function reading that work count off the result)
COUNTS = {
    "views.map": ("extents", lambda dmap: sum(len(e.extents) for e in dmap.entries)),
    "hpf.compile": ("owner_entries", lambda om: len(om.owners)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int  # operation id shared by every span of one CLI call
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.last_op = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.last_op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def op(self, name: str, fn, *args):
        """Run one top-level operation under its own op id and span."""
        self.last_op += 1
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if count is not None:
                span.counts[count[0]] = count[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "xdgdl" or n.startswith("xdgdl.")]
        for (module_name, attr), name in LAYERS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def layer_times(spans: list[Span], ops: set[int]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per span name over the given op ids.
    Self time is a span's duration minus that of its direct children."""
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    for span in spans:
        if span.op not in ops:
            continue
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.seconds
        own[span.name] = own.get(span.name, 0.0) + span.seconds
        if span.parent is not None:
            parent = spans[span.parent].name
            own[parent] -= span.seconds
    return inclusive, own
