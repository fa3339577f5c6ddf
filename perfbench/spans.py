"""In-memory span recorder for the traced pass, and self-time arithmetic.

``instrument`` wraps the public functions of cograte's modules in every
module namespace that refers to them (so ``cli.g_region`` and
``gaussian.g_region`` share one wrapper), plus a few methods, and counts
``Pentagon`` and ``RatePair`` constructions.  Each call records one span:
id, parent, name, start, end, op id and thread.  Spans live in memory until
the traced phase ends.

Parents come from a per-thread stack.  A span opened on a thread whose
stack is empty while another thread holds an open root span (a pool worker
running a region job for ``cli.main``) takes that root as its parent.  The
traced pass runs with one worker thread, so child intervals never overlap
and per-layer self times plus the ``other`` bucket add up to the traced
wall time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter

#: Layers, in report order: the package's modules.
LAYERS = ("cli", "gaussian", "bounds", "geometry", "dmc", "model")

#: Methods wrapped besides module-level functions: (module, class, method).
METHODS = (
    ("geometry", "ConvexRegion", "from_support"),
    ("geometry", "ConvexRegion", "contains"),
    ("dmc", "FactoredDist", "joint"),
)

#: Classes whose constructions are counted: (module, class, counter name).
COUNTED = (("model", "Pentagon", "pentagons_constructed"),
           ("model", "RatePair", "rate_pairs_constructed"))


class SpanRecorder:
    """Collects spans and counters.

    ``list.append`` is atomic under the interpreter lock, so pool threads
    may record concurrently; counters are only bumped from constructors,
    which the traced single-worker pass never runs concurrently.
    """

    def __init__(self, keep=(), clock=time.perf_counter):
        self.spans = []   # (id, parent, name, start, end, op, thread)
        self.kept = {}    # span id -> (args, kwargs, result) for names in keep
        self.counts = Counter()
        self.op = None
        self._keep = frozenset(keep)
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def wrap(self, name: str, fn):
        keep = name in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            is_root = not stack and self._root is None
            if is_root:
                self._root = sid
            stack.append(sid)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append((sid, parent, name, start, end, self.op,
                                   threading.get_ident()))
            if keep:
                self.kept[sid] = (args, kwargs, result)
            return result

        return traced


def _qualified(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def instrument(recorder: SpanRecorder, modules: dict) -> list:
    """Install wrappers into ``modules`` ({layer: module}); returns span names.

    Names missing from the program are skipped, so the recorder keeps
    working when a later version deletes or renames a function.
    """
    wrappers = {}
    for mod in modules.values():
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("cograte.")):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = recorder.wrap(_qualified(obj), obj)
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, name, wrappers[id(obj)])
    names = sorted({_qualified(w.__wrapped__) for w in wrappers.values()})
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules.get(layer), cls_name, None)
        raw = cls.__dict__.get(meth) if cls is not None else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            fn = raw.__func__
            setattr(cls, meth, classmethod(recorder.wrap(_qualified(fn), fn)))
        else:
            setattr(cls, meth, recorder.wrap(_qualified(raw), raw))
        names.append(f"{layer}.{cls_name}.{meth}")
    for layer, cls_name, counter in COUNTED:
        cls = getattr(modules.get(layer), cls_name, None)
        if cls is not None and "__post_init__" in cls.__dict__:
            setattr(cls, "__post_init__", _counting(recorder, counter,
                                                    cls.__dict__["__post_init__"]))
    return names


def _counting(recorder: SpanRecorder, counter: str, post_init):
    @functools.wraps(post_init)
    def counted(self):
        recorder.counts[counter] += 1
        post_init(self)
    return counted


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its children's spans cover."""
    children = {}
    for sid, parent, _name, start, end, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end, *_ in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans, wall_start: float, wall_end: float) -> dict:
    """Self time per layer plus ``other``: time of the phase in no span.

    The values add up to ``wall_end - wall_start`` when child spans do not
    overlap each other, which holds for a single-threaded traced pass.
    """
    selfs = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, name, *_ in spans:
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + selfs[sid]
    ids = {s[0] for s in spans}
    roots = [(s[3], s[4]) for s in spans if s[1] is None or s[1] not in ids]
    totals["other"] = (wall_end - wall_start) - _covered(roots, wall_start, wall_end)
    return totals
