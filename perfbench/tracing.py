"""Per-layer spans and counters, recorded by wrapping fo2words' public
functions at run time from the benchmark's own code.

Every module binding of a wrapped function is replaced (``from .x import f``
copies the function into the importing module, so patching one module is not
enough). A call made while the innermost open span belongs to the same layer
is counted but opens no span, so a layer's recursion and its internal calls
stay inside its enclosing span. A layer's self time is the duration of its
spans minus the spans of other layers opened inside them.

Microsecond helpers called once per ranker or per position (``eval_boundary``,
``alternation_blocks``, ``order_type``, ``Word``, ...) are not wrapped: their
cost shows in their callers' self time, and wrapping them would cost more
than they do.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

WRAPPED = {
    "rankers": ("realized_rankers", "realized_suc_rankers", "eval_ranker", "eval_suc_ranker",
                "evaluate", "parse_ranker"),
    "equivalence": ("ranker_equiv", "ranker_equiv_alt", "suc_ranker_equiv", "suc_ranker_equiv_alt",
                    "alphabet_collapse_check"),
    "efgames": ("game_equiv", "game_equiv_alt", "game_equiv_general"),
    "hierarchy": ("verify_hierarchy_level", "witness_words", "witness_words_suc", "separating_rankers"),
    "formulas": ("parse_formula", "render_formula", "nnf", "formula_metrics", "model_check",
                 "satisfying_positions", "synth_comparison", "synth_definedness", "synth_position"),
    "solver": ("shrink", "sat_search", "cnf_to_fo2", "parse_dimacs", "cnf_brute_force"),
    "cli": ("main",),
}

REALIZE = {"realized_rankers", "realized_suc_rankers"}

# Spans beyond this many are counted but not kept, so a long traced run
# cannot grow without bound.
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        # open spans: [layer, name, start, time in other layers' spans, span id, parent id]
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.max_span_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.request = -1
        self._patched: list[tuple] = []

    def _open(self, layer: str, name: str) -> list:
        parent = self.stack[-1][4] if self.stack else None
        span_id = len(self.spans) + self.dropped_spans
        frame = [layer, name, time.perf_counter(), 0.0, span_id, parent]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        dt = end - frame[2]
        key = (frame[0], frame[1])
        self.self_s[key] += dt - frame[3]
        if dt > self.max_span_s[key]:
            self.max_span_s[key] = dt
        if self.stack:
            self.stack[-1][3] += dt
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[4], frame[5], self.request, frame[0], frame[1], frame[2], end))
        else:
            self.dropped_spans += 1

    @contextlib.contextmanager
    def request_span(self, index: int, kind: str):
        """Span of one benchmark operation; every span inside it carries its index."""
        self.request = index
        frame = self._open("op", kind)
        try:
            yield
        finally:
            self._close(frame)

    def _inside(self, layer: str) -> bool:
        return any(f[0] == layer for f in self.stack)

    def wrap(self, layer: str, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[(layer, name)] += 1
            if name in REALIZE and tracer._inside("equivalence"):
                tracer.counts["realize_in_equivalence"] += 1
            if name == "model_check" and any(f[1] == "sat_search" for f in tracer.stack):
                tracer.counts["sat_candidates"] += 1
            if name == "shrink":
                tracer.counts["shrink_letters"] += len(args[0])
            if tracer.stack and tracer.stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = tracer._open(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(frame)
            if name in REALIZE:
                tracer.counts["rankers_realized"] += len(result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Replace every binding of a wrapped function in every fo2words module."""
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in ("words", "rankers", "formulas", "efgames", "equivalence", "hierarchy", "solver", "cli")
        ]
        replace = {}
        for layer, names in WRAPPED.items():
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for name in names:
                fn = getattr(mod, name)
                replace[id(fn)] = (fn, self.wrap(layer, name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()

    def _layer_self(self, layer: str, names=None) -> float:
        return float(sum(v for (l, n), v in self.self_s.items() if l == layer and (names is None or n in names)))

    def _layer_calls(self, layer: str, names=None) -> int:
        return sum(v for (l, n), v in self.calls.items() if l == layer and (names is None or n in names))

    def metrics(self) -> dict:
        """The per-layer metrics named in BENCHMARK.json, except the cli
        start-up probes, which are measured in fresh processes."""
        efgames_max = max((v for (l, _), v in self.max_span_s.items() if l == "efgames"), default=0.0)
        return {
            "rankers.realize_calls": (self._layer_calls("rankers", REALIZE), "count"),
            "rankers.realize_s": (self._layer_self("rankers", REALIZE), "s"),
            "rankers.rankers_realized": (self.counts["rankers_realized"], "count"),
            "equivalence.calls": (self._layer_calls("equivalence"), "count"),
            "equivalence.self_s": (self._layer_self("equivalence"), "s"),
            "equivalence.realize_misses": (self.counts["realize_in_equivalence"], "count"),
            "efgames.calls": (self._layer_calls("efgames"), "count"),
            "efgames.self_s": (self._layer_self("efgames"), "s"),
            "efgames.call_max_ms": (efgames_max * 1000.0, "ms"),
            "hierarchy.levels": (self.calls[("hierarchy", "verify_hierarchy_level")], "count"),
            "hierarchy.self_s": (self._layer_self("hierarchy"), "s"),
            "formulas.model_check_calls": (self.calls[("formulas", "model_check")], "count"),
            "formulas.model_check_s": (self.self_s[("formulas", "model_check")], "s"),
            "formulas.parse_s": (self.self_s[("formulas", "parse_formula")], "s"),
            "solver.shrink_letters": (self.counts["shrink_letters"], "count"),
            "solver.shrink_s": (self.self_s[("solver", "shrink")], "s"),
            "solver.sat_s": (self.self_s[("solver", "sat_search")], "s"),
            "solver.sat_candidates": (self.counts["sat_candidates"], "count"),
            "cli.command_s": (self._layer_self("cli"), "s"),
        }

    def dump(self) -> dict:
        return {
            "fields": ["span", "parent", "request", "layer", "name", "start", "end"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "calls": {f"{l}.{n}": v for (l, n), v in sorted(self.calls.items())},
            "self_s": {f"{l}.{n}": v for (l, n), v in sorted(self.self_s.items())},
        }
