"""In-memory spans recorded from outside the program.

A span records its name, start, end, parent span and operation id (one
operation is one program's compile, one VM load, ...).  Spans stay in
memory and are written out once, when the run ends.  The benchmark opens
spans around the calls it makes into each layer's public functions; the
two layers it cannot reach that way are wrapped while a traced run is in
progress:

* ``dep``: the paper's bytecode dependency analysis
  (``BytecodeAnalysis``), built inside codegen cleanup, the bytecode
  passes, the superoptimizer and TV.  Its construction does all the
  work, so the span around ``__init__`` is the analysis cost, measured
  rather than estimated.
* ``cache``: the compilation cache's lookup/store calls, including the
  superoptimizer's rewrite-memo traffic.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Dict, Iterator, List, Optional

_now = time.perf_counter


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, operation id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: str = ""
        #: counts noted at span boundaries (e.g. instructions emitted)
        self.noted: Dict[str, float] = {}

    def note(self, name: str, value: float) -> None:
        self.noted[name] = self.noted.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, _now(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = _now()
            self._stack.pop()

    def _self_seconds(self) -> List[float]:
        """Each span's duration minus the part its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> Dict[str, float]:
        """Self seconds summed per span name."""
        out: Dict[str, float] = {}
        for record, seconds in zip(self.spans, self._self_seconds()):
            out[record[0]] = out.get(record[0], 0.0) + seconds
        return out

    def self_time_by_parent(self, name: str) -> Dict[str, float]:
        """Self seconds of *name* spans, split by their parent's name."""
        out: Dict[str, float] = {}
        for record, seconds in zip(self.spans, self._self_seconds()):
            if record[0] == name:
                parent = record[3]
                key = self.spans[parent][0] if parent >= 0 else "-"
                out[key] = out.get(key, 0.0) + seconds
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for record in self.spans:
            out[record[0]] = out.get(record[0], 0) + 1
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the
        first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "op": op,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9)}) + "\n")


#: modules that bind ``BytecodeAnalysis`` at import time
_DEP_USERS = (
    "repro.core.bytecode_passes.analysis",
    "repro.core.bytecode_passes.store_imm",
    "repro.core.bytecode_passes.superword",
    "repro.core.bytecode_passes.peephole",
    "repro.core.bytecode_passes.compaction",
    "repro.core.superopt",
    "repro.tv.regioncheck",
)


@contextlib.contextmanager
def traced_dep(tracer: Tracer) -> Iterator[None]:
    """Record a ``dep`` span around every ``BytecodeAnalysis`` build."""
    from repro.core.bytecode_passes.analysis import BytecodeAnalysis

    class TracedAnalysis(BytecodeAnalysis):
        def __init__(self, *args, **kwargs):
            with tracer.span("dep"):
                super().__init__(*args, **kwargs)

    modules = [importlib.import_module(name) for name in _DEP_USERS]
    for module in modules:
        module.BytecodeAnalysis = TracedAnalysis
    try:
        yield
    finally:
        for module in modules:
            module.BytecodeAnalysis = BytecodeAnalysis


#: cache method -> span name
_CACHE_CALLS = {"key_for_function": "cache.key", "get": "cache.get",
                "get_object": "cache.get", "put": "cache.put",
                "put_object": "cache.put"}


def traced_cache(cache, tracer: Tracer):
    """Wrap one cache instance's key/lookup/store calls in spans."""
    if cache is None:
        return None
    for attr, name in _CACHE_CALLS.items():
        method = getattr(cache, attr)

        def wrapper(*args, _method=method, _name=name, **kwargs):
            with tracer.span(_name):
                return _method(*args, **kwargs)

        setattr(cache, attr, wrapper)
    return cache


def span_of(tracer: Optional[Tracer]):
    """``tracer.span``, or a no-op stand-in when the run is not traced."""
    if tracer is not None:
        return tracer.span
    return lambda name: contextlib.nullcontext()
