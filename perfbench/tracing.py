"""Spans around the layers CLIMBER is built from, recorded from outside.

:class:`Tracer` wraps, for the length of a ``with tracer.installed(...)``
block, every public function of the ``repro.core`` layer modules, the public
methods of ``ClimberIndex`` and ``Skeleton``, and the pyspark calls those
layers make (``DataFrame.toPandas``, ``DataFrameReader.parquet``,
``DataFrameWriter.parquet`` and ``SparkContext.broadcast``). Each call
becomes a :class:`Span` with its parent, so one op's spans form a tree.
Spans stay in memory; :meth:`Tracer.tree` renders them for the report.

Wrappers keep the wrapped function's ``__module__`` and ``__qualname__`` and
replace every binding of it, so cloudpickle still ships executor closures
by reference: executors run the program's own, unwrapped code.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("paa", "pivots", "distances", "centroids", "assignment", "trie",
          "packing", "skeleton", "index", "query")
TRACED_CLASSES = {"index": ("ClimberIndex",), "skeleton": ("Skeleton",)}
_MISSING = object()


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.scanned_columns: set[str] = set()

    # ---- recording ----

    def _wrap(self, fn, name: str, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                        name, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span.sid)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span.counts.update(count(args, out))
                return out
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _targets(self, spark, df):
        """``(owner, attribute, span name, counter)`` for everything traced."""
        out = []
        mods = {layer: importlib.import_module(f"repro.core.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    # Patch every module that bound it with ``from .x import y``.
                    for other in mods.values():
                        for a, o in vars(other).items():
                            if o is obj:
                                out.append((other, a, f"{layer}.{attr}", None))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in vars(cls).items():
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        out.append((cls, attr, f"{layer}.{attr}", None))
        rows = lambda args, pdf: {"rows": len(pdf)}  # noqa: E731
        out += [
            (type(df), "toPandas", "spark.toPandas", rows),
            (type(spark.read), "parquet", "spark.read_parquet", None),
            (type(df.write), "parquet", "spark.write_parquet", None),
            (type(spark.sparkContext), "broadcast", "spark.broadcast", None),
        ]
        return out

    @contextmanager
    def installed(self, spark, df):
        """Trace every layer call made inside the block."""
        saved, wrappers = [], {}
        for owner, attr, name, count in self._targets(spark, df):
            fn = getattr(owner, attr)
            if id(fn) not in wrappers:  # one wrapper per function, however bound
                wrappers[id(fn)] = self._wrap(fn, name, count)
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, wrappers[id(fn)])
        # Which stored columns the kNN scan reads, seen from outside.
        map_in_pandas = type(df).mapInPandas

        def spy(frame, *args, **kwargs):
            if any(self.spans[s].name == "query.knn_scan" for s in self._stack):
                self.scanned_columns.update(frame.columns)
            return map_in_pandas(frame, *args, **kwargs)

        saved.append((type(df), "mapInPandas", vars(type(df)).get("mapInPandas", _MISSING)))
        type(df).mapInPandas = functools.wraps(map_in_pandas)(spy)
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                if orig is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, orig)

    # ---- reading ----

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def descendants(self, root: Span) -> list[Span]:
        # Spans are appended in call order, so a subtree is a contiguous run.
        out, inside = [], {root.sid}
        for s in self.spans[root.sid + 1:]:
            if s.parent not in inside:
                break
            inside.add(s.sid)
            out.append(s)
        return out

    def inclusive(self, root: Span, name: str) -> tuple[float, int]:
        """Seconds and calls of ``name`` under ``root``; nested calls of the
        same name are counted once, by their outermost span."""
        spans = self.descendants(root)
        by_id = {s.sid: s for s in spans}
        secs, calls = 0.0, 0
        for s in spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                secs += s.seconds
                calls += 1
        return secs, calls

    def self_seconds(self, span: Span) -> float:
        return span.seconds - sum(s.seconds for s in self.descendants(span)
                                  if s.parent == span.sid)

    def tree(self, root: Span) -> list[str]:
        """One line per distinct span path under ``root``: calls, total seconds."""
        agg: dict[tuple, list] = {}
        path = {root.sid: (root.name,)}
        for s in [root] + self.descendants(root):
            if s.sid != root.sid:
                path[s.sid] = path[s.parent] + (s.name,)
            a = agg.setdefault(path[s.sid], [0, 0.0, {}])
            a[0] += 1
            a[1] += s.seconds
            for key, v in s.counts.items():
                a[2][key] = a[2].get(key, 0) + v
        return [f"{'  ' * (len(p) - 1)}{p[-1]}  calls={c} s={t:.4f}"
                + "".join(f" {key}={v}" for key, v in counts.items())
                for p, (c, t, counts) in agg.items()]
