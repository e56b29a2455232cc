"""Spans around the library's public functions, recorded from outside.

The tracer replaces each target function with a timing wrapper in every
``wreath_dio`` module that holds a reference to it: ``from .abelian import
...`` copies the name into ``solvers``, ``qsp``, ``group_ring``, ``wreath``
and ``lattice``, so patching only the defining module would miss most calls.
``uninstall`` puts every original back.

Each wrapped call is a span (id, name, start, end, parent, instance).  Spans
stay in memory until the run ends; self time is computed as the span closes:
its duration minus the time of the spans it directly contains.  A target
that a later version of the library no longer defines is skipped and reads
as zero calls.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (defining module, function, metric prefix)
TARGETS = (
    ("solvers", "dispatch", "solvers.dispatch"),
    ("abelian", "smith_normal_form", "abelian.smith_normal_form"),
    ("abelian", "cached_quotient", "abelian.cached_quotient"),
    ("abelian", "quotient_maps", "abelian.quotient_maps"),
    ("abelian", "subgroup_contains", "abelian.subgroup_contains"),
    ("abelian", "subgroup_rank", "abelian.subgroup_rank"),
    ("lattice", "lattice_basis", "lattice.lattice_basis"),
    ("lattice", "saturation", "lattice.saturation"),
    ("lattice", "span_membership", "lattice.span_membership"),
    ("group_ring", "shift", "group_ring.shift"),
    ("group_ring", "pushforward", "group_ring.pushforward"),
    ("group_ring", "is_zero_mod", "group_ring.is_zero_mod"),
    ("qsp", "shifted_sum", "qsp.shifted_sum"),
    ("qsp", "make_certificate", "qsp.make_certificate"),
    ("qsp", "verify_certificate", "qsp.verify_certificate"),
    ("wreath", "reduce_to_qsp", "wreath.reduce_to_qsp"),
    ("codec", "decode_equation", "codec.decode"),
    ("codec", "decode_instance", "codec.decode"),
    ("codec", "decode_certificate", "codec.decode"),
    ("codec", "encode_equation", "codec.encode"),
    ("codec", "encode_instance", "codec.encode"),
    ("codec", "encode_certificate", "codec.encode"),
    ("cli", "main", "cli.main"),
)
# a generator: its time is the time spent inside next(), counted as child
# time of the span that iterates it; it writes no spans of its own
BALL_TARGET = ("abelian", "enumerate_ball", "abelian.enumerate_ball")
# memoized functions: a call whose arguments repeat an earlier call of the
# pass is a hit, the share an unbounded cache would serve
REPEAT_TRACKED = ("abelian.cached_quotient", "abelian.quotient_maps")

CASE_SPAN = "case"
PACKAGE = "wreath_dio"


def package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def clear_caches() -> None:
    """Empty every functools cache the library holds, wrapped or not."""
    for mod in package_modules():
        for obj in list(vars(mod).values()):
            while obj is not None:
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
                obj = getattr(obj, "__wrapped__", None)


class Tracer:
    """Span recorder for one pass; install, run, uninstall, then read."""

    def __init__(self) -> None:
        self.names: list[str] = [CASE_SPAN]
        self._name_index = {CASE_SPAN: 0}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_instance = array("q")
        self._next_id = 0
        # open spans: [id, time covered by direct children]
        self._stack: list[list] = []
        self.instance = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.repeat_hits: Counter = Counter()
        self._seen: defaultdict = defaultdict(set)
        self.ball_elements = 0
        self.results: list = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name_id: int, start: float, end: float) -> float:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.span_id.append(frame[0])
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent[0] if parent is not None else -1)
        self.span_instance.append(self.instance)
        return duration - frame[1]

    @contextlib.contextmanager
    def case(self, instance: int):
        """Root span for one input; every library span below it carries its index."""
        self.instance = instance
        frame = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, 0, start, perf_counter())
            self.instance = -1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, key: str):
        name_id = self._name_id(key)
        track = key in REPEAT_TRACKED
        on_return = self.results.append if key == "solvers.dispatch" else None

        def wrapper(*args, **kwargs):
            if track:
                arg_key = (args, tuple(sorted(kwargs.items())))
                if arg_key in self._seen[key]:
                    self.repeat_hits[key] += 1
                else:
                    self._seen[key].add(arg_key)
            frame = self._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.self_s[key] += self._close(frame, name_id, start, perf_counter())
                self.calls[key] += 1
            if on_return is not None:
                on_return(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, key: str):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.calls[key] += 1
            while True:
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    busy = perf_counter() - start
                    self.self_s[key] += busy
                    if self._stack:
                        self._stack[-1][1] += busy
                self.ball_elements += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = package_modules()
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        for module, func, key in TARGETS + (BALL_TARGET,):
            home = by_name.get(module)
            original = getattr(home, func, None) if home is not None else None
            if original is None:
                continue
            if (module, func, key) == BALL_TARGET:
                wrapper = self._wrap_generator(original, key)
            else:
                wrapper = self._wrap(original, key)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def hit_ratio(self, key: str) -> float:
        calls = self.calls[key]
        return self.repeat_hits[key] / calls if calls else 0.0

    def span_rows(self):
        for i in range(len(self.span_id)):
            yield (
                self.span_id[i],
                self.names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
                self.span_parent[i],
                self.span_instance[i],
            )


def write_spans(path: str, passes: list[Tracer]) -> int:
    """Write every pass's spans as tab-separated rows; returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tid\tname\tstart_s\tend_s\tparent\tinstance\n")
        for p, tracer in enumerate(passes):
            for sid, name, start, end, parent, inst in tracer.span_rows():
                fh.write(f"{p}\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{inst}\n")
                rows += 1
    return rows
