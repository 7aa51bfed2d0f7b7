"""Layer trace taken from outside the program.

At run time every public function, classmethod and method that the layer
modules define is replaced by a wrapper that records a span, and every
stepskew module that imported the original name gets the wrapper too (for
example `strongly_connected_components` in kernels, skew and oracles). A
layer is the module that defines the callable. Spans live in flat lists
until the run ends and are then written out in one go.
"""

from __future__ import annotations

import functools
import gzip
from collections import defaultdict
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cli", "kernels", "graphs", "dynamics", "skew", "ergodic")
# Union-find steps run per element inside the partition builders; a span each
# would multiply the trace's cost for no layer-level information.
UNWRAPPED = {"graphs.DisjointSets.find", "graphs.DisjointSets.union"}


class Tracer:
    """Span store plus the counters that must be read off call arguments."""

    def __init__(self):
        self.parent: list[int] = []
        self.func: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.item: list[int] = []
        self.raised: list[bool] = []
        self.names: list[tuple[str, str]] = []  # (layer, function) per func id
        self._ids: dict[tuple[str, str], int] = {}
        self.stack: list[int] = []
        self.current_item = -1
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _func_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _open(self, fid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.func.append(fid)
        self.item.append(self.current_item)
        self.raised.append(False)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int, raised: bool) -> None:
        self.end[sid] = perf_counter()
        self.raised[sid] = raised
        self.stack.pop()

    def span(self, layer: str, name: str) -> "_Span":
        """Context manager for a span the benchmark opens itself, around an item."""
        return _Span(self, self._func_id(layer, name))

    def wrap(self, layer: str, name: str, fn, hook=None):
        fid = self._func_id(layer, name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, True)
                raise
            tracer._close(sid, False)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self, hooks: dict) -> None:
        """Wrap the layer modules' callables everywhere stepskew refers to them."""
        layer_modules = [importlib.import_module(f"stepskew.{layer}") for layer in LAYERS]
        modules = [m for k, m in sys.modules.items() if k == "stepskew" or k.startswith("stepskew.")]
        for layer, mod in zip(LAYERS, layer_modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    key = f"{layer}.{name}"
                    wrapped = self.wrap(layer, key, obj, hooks.get(key))
                    for other in modules:
                        for attr, val in list(vars(other).items()):
                            if val is obj:
                                self._set(other, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, hooks)

    def _wrap_class(self, layer: str, cls, hooks: dict) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if key in UNWRAPPED:
                continue
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self.wrap(layer, key, raw.__func__, hooks.get(key))))
            elif isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self.wrap(layer, key, raw.__func__, hooks.get(key))))
            elif inspect.isfunction(raw):
                self._set(cls, name, self.wrap(layer, key, raw, hooks.get(key)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        return [self.end[s] - self.start[s] - child[s] for s in range(n)]

    def outermost_time(self, names: set[str]) -> float:
        """Wall time inside any of the named functions, nested calls counted once."""
        fids = {i for i, (_, nm) in enumerate(self.names) if nm in names}
        inside = [False] * len(self.start)
        total = 0.0
        for sid in range(len(self.start)):
            p = self.parent[sid]
            covered = p >= 0 and (inside[p] or self.func[p] in fids)
            inside[sid] = covered
            if self.func[sid] in fids and not covered:
                total += self.end[sid] - self.start[sid]
        return total

    def calls_within(self, names: set[str], within: set[str]) -> int:
        """Calls of the named functions made, at any depth, inside a `within` call."""
        fids = {i for i, (_, nm) in enumerate(self.names) if nm in names}
        outer = {i for i, (_, nm) in enumerate(self.names) if nm in within}
        inside = [False] * len(self.start)
        count = 0
        for sid in range(len(self.start)):
            p = self.parent[sid]
            inside[sid] = p >= 0 and (inside[p] or self.func[p] in outer)
            count += inside[sid] and self.func[sid] in fids
        return count

    def calls(self, names: set[str], raised: bool | None = None) -> int:
        fids = {i for i, (_, nm) in enumerate(self.names) if nm in names}
        return sum(
            1
            for sid, f in enumerate(self.func)
            if f in fids and (raised is None or self.raised[sid] == raised)
        )

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid in range(len(self.start)):
                layer, name = self.names[self.func[sid]]
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.parent[sid],
                            "layer": layer,
                            "function": name,
                            "start": self.start[sid],
                            "end": self.end[sid],
                            "item": self.item[sid],
                            "raised": self.raised[sid],
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "fid", "sid")

    def __init__(self, tracer: Tracer, fid: int):
        self.tracer, self.fid = tracer, fid

    def __enter__(self):
        self.sid = self.tracer._open(self.fid)

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.sid, exc_type is not None)
        return False
