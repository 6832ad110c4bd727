"""Per-layer tracing of threshkit from outside the package.

install() replaces every public function of every threshkit module, plus
Graph.__init__ and ColoredGraph.__init__, with a wrapper that records a
span (name, start, end, parent) and counts. A layer is a module; a
function's self time is its span minus the spans of the traced calls it
made. Spans and counts stay in memory until write() saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from array import array
from time import perf_counter

# function -> group; a watched function counts the calls it receives while a
# span of the group is open
GROUPS = {
    "enumeration": "enumeration",  # a whole layer
    "kthreshold.is_k_threshold": "coloring_search",
    "kthreshold.is_special": "coloring_search",
    "kthreshold.is_restricted": "coloring_search",
    "kthreshold.is_extended": "coloring_search",
    "switching.switch_to_threshold": "switch_search",
    "switching.has_cograph_switch": "switch_search",
}
WATCH = {
    "kthreshold.eliminate": "coloring_search",
    "switching.switch": "switch_search",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.entries: list[int] = []  # calls from another layer, or from outside
        self.hits: list[int] = []  # calls that returned something other than None
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.under: list[int] = []  # watched calls made inside their group
        self.under_enumeration = 0  # canonical entries made inside enumeration
        self.open = {group: 0 for group in (*GROUPS.values(), *WATCH.values())}
        self.classes: dict[tuple, int] = {}
        self.suite_s: dict[str, float] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []
        self.patched: list[tuple[object, str, object]] = []

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.layers.append(name.split(".")[0])
        for column in (self.calls, self.entries, self.hits, self.under):
            column.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        fid = self._register(name)
        layer = self.layers[fid]
        group = GROUPS.get(name) or GROUPS.get(layer)
        watched = WATCH.get(name)
        is_canonical = layer == "canonical"
        post = {
            "enumeration.all_graphs": self._count_classes,
            "enumeration.all_colored_graphs": self._count_classes,
            "verify.run_suite": self._time_suite,
        }.get(name)
        stack, open_, layers = self.stack, self.open, self.layers
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None or layers[parent[0]] != layer:
                self.entries[fid] += 1
                if is_canonical and open_["enumeration"]:
                    self.under_enumeration += 1
            if watched and open_[watched]:
                self.under[fid] += 1
            if group:
                open_[group] += 1
            index = len(starts)
            names.append(fid)
            parents.append(parent[2] if parent else -1)
            frame = [fid, 0.0, index]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            ends.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[index] = t1
                stack.pop()
                if group:
                    open_[group] -= 1
                span = t1 - t0
                self.calls[fid] += 1
                self.total_s[fid] += span
                self.self_s[fid] += span - frame[1]
                if stack:
                    stack[-1][1] += span
            if result is not None:
                self.hits[fid] += 1
            if post:
                post(args, result, span)
            return result

        return traced

    def _count_classes(self, args, result, span) -> None:
        arg = args[0]
        key = (arg.n, arg.colored, arg.connected) if hasattr(arg, "colored") else (arg, True, False)
        self.classes[key] = len(result)

    def _time_suite(self, args, result, span) -> None:
        self.suite_s[args[0]] = self.suite_s.get(args[0], 0.0) + span

    def install(self, package) -> None:
        """Wrap every public function of every module of package, everywhere
        it is bound: module globals, dict values, and the two graph classes."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped: dict[int, object] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                # a generator's span would end before its work does; this
                # skips graphs.bits, which is called millions of times
                if (
                    attr.startswith("_")
                    or getattr(obj, "__module__", None) != mod.__name__
                    or not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper))
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                wrapped[id(obj)] = self.wrap(name, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
                            self.patched.append((obj, key, value))
        graphs = importlib.import_module(f"{package.__name__}.graphs")
        self._patch(graphs.Graph, "__init__", self.wrap("graphs.construct", graphs.Graph.__init__))
        self._patch(graphs.ColoredGraph, "__init__",
                    self.wrap("graphs.colored_construct", graphs.ColoredGraph.__init__))

    def _patch(self, owner, attr: str, new) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self.patched):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self.patched.clear()

    def summary(self) -> dict:
        functions = {
            name: {
                "calls": self.calls[i],
                "entries": self.entries[i],
                "hits": self.hits[i],
                "under_group": self.under[i],
                "self_s": self.self_s[i],
                "total_s": self.total_s[i],
            }
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        return {
            "functions": functions,
            "classes": sum(v for (_, _, connected), v in self.classes.items() if not connected),
            "canonical_under_enumeration": self.under_enumeration,
            "suite_s": self.suite_s,
            "spans": len(self.span_start),
        }

    def write(self, stem: str) -> None:
        """<stem>.json holds the names and the summary; <stem>.spans holds the
        spans as four arrays of equal length: name index (uint16), parent span
        index (int32, -1 for none), start and end (float64 seconds)."""
        with open(stem + ".spans", "wb") as fh:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)
        with open(stem + ".json", "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "summary": self.summary()}, fh, indent=1)
