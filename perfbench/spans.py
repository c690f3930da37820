"""Span tracing of qflag from outside the package, and the per-layer
metrics derived from the spans.

``Tracer.install`` replaces the public functions and public methods of every
layer module with wrappers that record one span each: function id, start,
end and parent span. The package source is left untouched; names that other
modules imported with ``from ... import`` are rebound too, so every call
between layers passes through a wrapper.

``RatQ`` arithmetic (``+ - * /``) is far too frequent for one span per call.
Those operators are aggregated instead: each span keeps the time and count
of the outermost scalar operations made directly inside it, which is
subtracted from its self time and credited to the ``scalars`` layer.

Spans stay in memory until ``Tracer.write`` stores them in one file: a JSON
header line, then the six column arrays.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import weakref
from array import array
from time import perf_counter

LAYERS = ("scalars", "freealg", "weyl", "uqsl", "oq", "calculus", "parser", "cli")
SPAN_LAYERS = LAYERS[1:]
ROOT = "bench.pass"

SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
# Element arithmetic and the rank-n context constructor are the only dunders
# that mark a layer boundary worth a span.
SPAN_DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
EXTRA_SPANS = {"uqsl.UqAlgebra.__init__"}

_COLUMNS = (("fn", "i"), ("parent", "i"), ("start", "d"), ("end", "d"),
            ("agg_s", "d"), ("agg_n", "q"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.cols = {name: array(code) for name, code in _COLUMNS}
        self.stack: list[int] = []
        self.counters = {"normal_words_out": 0, "normal_words_kept": 0, "normal_words_tried": 0}
        self._gb_dims: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._in_scalar_op = [False]

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, f):
        fid = len(self.names)
        self.names.append(name)
        c = self.cols
        fn, parent, start, end = c["fn"], c["parent"], c["start"], c["end"]
        agg_s, agg_n, stack = c["agg_s"], c["agg_n"], self.stack

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            i = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            agg_s.append(0.0)
            agg_n.append(0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return f(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return wrapper

    def _scalar_op(self, f):
        c = self.cols
        agg_s, agg_n, stack = c["agg_s"], c["agg_n"], self.stack
        busy = self._in_scalar_op  # shared, so that only the outermost op counts

        @functools.wraps(f)
        def wrapper(a, b):
            if busy[0]:
                return f(a, b)
            busy[0] = True
            t = perf_counter()
            try:
                return f(a, b)
            finally:
                dt = perf_counter() - t
                busy[0] = False
                j = stack[-1]
                agg_s[j] += dt
                agg_n[j] += 1

        return wrapper

    def _count_normal_words(self, f):
        counters, dims = self.counters, self._gb_dims

        @functools.wraps(f)
        def wrapper(gb, k):
            words = f(gb, k)
            known = dims.setdefault(gb, {})
            known[k] = len(words)
            counters["normal_words_out"] += len(words)
            if k - 1 in known:
                counters["normal_words_kept"] += len(words)
                counters["normal_words_tried"] += known[k - 1] * gb.alphabet.size
            return words

        return wrapper

    def root(self, f):
        """Run f() inside the root span; returns (result, wall seconds)."""
        t0 = perf_counter()
        out = self._span(ROOT, f)()
        return out, perf_counter() - t0

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public surface of every layer module in place."""
        mods = {name: importlib.import_module(f"qflag.{name}") for name in LAYERS}
        replaced = {}  # id(original) -> wrapper, for rebinding imported names
        # count inside the span that the class loop below puts around it
        gb_cls = mods["freealg"].TruncatedGB
        gb_cls.normal_words = self._count_normal_words(gb_cls.normal_words)
        RatQ = mods["scalars"].RatQ
        ops = {}
        for attr in SCALAR_OPS:
            f = RatQ.__dict__[attr]
            ops.setdefault(id(f), self._scalar_op(f))
            setattr(RatQ, attr, ops[id(f)])
        for lname in SPAN_LAYERS:
            mod = mods[lname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    w = self._span(f"{lname}.{name}", obj)
                    replaced[id(obj)] = w
                    setattr(mod, name, w)
                elif inspect.isclass(obj):
                    self._wrap_class(lname, obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and obj is not w:
                    setattr(mod, name, w)

    def _wrap_class(self, lname, cls):
        for attr, obj in list(vars(cls).items()):
            full = f"{lname}.{cls.__name__}.{attr}"
            public = not attr.startswith("_") or attr in SPAN_DUNDERS or full in EXTRA_SPANS
            if not public:
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._span(full, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                setattr(cls, attr, self._span(full, obj))

    # -- output ------------------------------------------------------------

    def write(self, path, wall_s: float):
        header = {"names": self.names, "n": len(self.cols["fn"]),
                  "counters": self.counters, "wall_s": wall_s}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in _COLUMNS:
                self.cols[name].tofile(fh)


def load(path) -> dict:
    with open(path, "rb") as fh:
        spans = json.loads(fh.readline())
        for name, code in _COLUMNS:
            col = array(code)
            col.fromfile(fh, spans["n"])
            spans[name] = col
    return spans


class SpanCheckError(AssertionError):
    pass


def self_times(spans) -> list[float]:
    """Duration minus child spans and aggregated scalar time, per span."""
    fn, parent, start, end, agg_s = (spans[k] for k in ("fn", "parent", "start", "end", "agg_s"))
    out = [end[i] - start[i] - agg_s[i] for i in range(len(fn))]
    for i in range(1, len(fn)):
        out[parent[i]] -= end[i] - start[i]
    return out


def check(spans, tol: float = 1e-6) -> None:
    """Raise SpanCheckError unless every span lies inside its parent, after
    its previous sibling, with non-negative self time, and the self times
    plus the scalar time sum to the traced wall time."""
    fn, parent, start, end, agg_s = (spans[k] for k in ("fn", "parent", "start", "end", "agg_s"))
    n = len(fn)
    if n == 0 or parent[0] != -1 or spans["names"][fn[0]] != ROOT:
        raise SpanCheckError("span 0 must be the benchmark's root span")
    last_end = {}
    for i in range(n):
        if end[i] < start[i]:
            raise SpanCheckError(f"span {i} ends before it starts")
        if i == 0:
            continue
        p = parent[i]
        if not 0 <= p < i:
            raise SpanCheckError(f"span {i} has parent {p}, not an earlier span")
        if start[i] < start[p] or end[i] > end[p]:
            raise SpanCheckError(f"span {i} is not inside its parent {p}")
        if start[i] < last_end.get(p, start[p]):
            raise SpanCheckError(f"span {i} overlaps an earlier sibling")
        last_end[p] = end[i]
    selfs = self_times(spans)
    worst = min(range(n), key=selfs.__getitem__)
    if selfs[worst] < -tol:
        raise SpanCheckError(f"span {worst} has negative self time {selfs[worst]:.3g}")
    total = sum(selfs) + sum(agg_s)
    wall = spans["wall_s"]
    if abs(total - wall) > max(1e-3, 1e-4 * wall):
        raise SpanCheckError(f"self times sum to {total:.6f} s, traced wall is {wall:.6f} s")


# -- per-layer metrics -------------------------------------------------------

# (metric, unit, better, kind, argument); kind is one of
#   incl  - inclusive seconds of the outermost calls into a set of functions
#   calls - number of calls of a function
#   self  - self seconds of a layer
#   other - computed in layer_metrics
PER_LAYER = [
    ("scalars.ops", "count", "lower", "other", None),
    ("scalars.self_s", "s", "lower", "self", "scalars"),
    ("uqsl.root_vectors_s", "s", "lower", "incl", ["uqsl.root_vectors"]),
    ("uqsl.braid_T_calls", "count", "lower", "calls", "uqsl.braid_T"),
    ("uqsl.coproduct_s", "s", "lower", "incl",
     ["uqsl.coproduct", "uqsl.UqAlgebra.coproduct_mono", "uqsl.UqAlgebra.gen_coproduct"]),
    ("uqsl.mul_calls", "count", "lower", "calls", "uqsl.UqElement.__mul__"),
    ("uqsl.algebra_init_s", "s", "lower", "incl", ["uqsl.UqAlgebra.__init__"]),
    ("uqsl.self_s", "s", "lower", "self", "uqsl"),
    ("weyl.commutation_classes_s", "s", "lower", "incl", ["weyl.commutation_classes"]),
    ("weyl.self_s", "s", "lower", "self", "weyl"),
    ("freealg.normal_words_s", "s", "lower", "incl", ["freealg.TruncatedGB.normal_words"]),
    ("freealg.normal_words_out", "count", "lower", "other", None),
    ("freealg.normal_words_yield", "ratio", "higher", "other", None),
    ("freealg.completion_s", "s", "lower", "incl",
     ["freealg.complete_truncated", "freealg.TruncatedGB.extend_to"]),
    ("freealg.reduce_s", "s", "lower", "incl", ["freealg.TruncatedGB.reduce", "freealg.nf_reduce"]),
    ("freealg.reduce_calls", "count", "lower", "calls", "freealg.TruncatedGB.reduce"),
    ("freealg.linalg_s", "s", "lower", "incl",
     ["freealg.Span.add", "freealg.Span.reduce", "freealg.Span.contains", "freealg.rank",
      "freealg.nullspace_combinations", "freealg.annihilator", "freealg.rref"]),
    ("freealg.self_s", "s", "lower", "self", "freealg"),
    ("calculus.tangent_from_word_s", "s", "lower", "incl", ["calculus.tangent_from_word"]),
    ("calculus.coideal_check_s", "s", "lower", "incl", ["calculus.coideal_check"]),
    ("calculus.quadratic_relations_s", "s", "lower", "incl", ["calculus.quadratic_relations"]),
    ("calculus.exterior_dims_s", "s", "lower", "incl", ["calculus.exterior_dims"]),
    ("calculus.neither_share", "ratio", "higher", "other", None),
    ("calculus.self_s", "s", "lower", "self", "calculus"),
    ("oq.self_s", "s", "lower", "self", "oq"),
    ("oq.left_act_calls", "count", "lower", "calls", "oq.left_act"),
    ("oq.rep_span_s", "s", "lower", "incl", ["oq.rep_span"]),
    ("parser.self_s", "s", "lower", "self", "parser"),
    ("cli.self_s", "s", "lower", "self", "cli"),
    ("bench.self_s", "s", "lower", "self", "bench"),
    ("trace.wall_s", "s", "lower", "other", None),
    ("trace.spans", "count", "lower", "other", None),
    ("trace.overhead_s", "s", "lower", "other", None),
]


def layer_metrics(spans, untraced_pass_s: float) -> dict:
    """Per-layer metrics of one checked traced pass, as {name: (value, unit)}.
    untraced_pass_s is the median untraced time of the same pass."""
    names, fn, parent, start, end = (spans[k] for k in ("names", "fn", "parent", "start", "end"))
    n = len(fn)
    groups = [m[4] for m in PER_LAYER if m[3] == "incl"]
    bit = {}
    for g, members in enumerate(groups):
        for name in members:
            bit[name] = bit.get(name, 0) | (1 << g)
    fmask = [bit.get(name, 0) for name in names]
    anc = [0] * n  # groups with a member strictly above each span
    incl = [0.0] * len(groups)
    calls = [0] * len(names)
    for i in range(n):
        f = fn[i]
        calls[f] += 1
        if i:
            p = parent[i]
            anc[i] = anc[p] | fmask[fn[p]]
        outer = fmask[f] & ~anc[i]
        g = 0
        while outer:
            if outer & 1:
                incl[g] += end[i] - start[i]
            outer >>= 1
            g += 1
    calls_by_name = {name: calls[f] for f, name in enumerate(names)}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    layer_self["scalars"] = sum(spans["agg_s"])
    for i, s in enumerate(self_times(spans)):
        layer_self[names[fn[i]].split(".", 1)[0]] += s

    survey = names.index("calculus.survey_rows") if "calculus.survey_rows" in names else -1
    classes = exteriors = 0
    for i in range(1, n):
        if fn[parent[i]] == survey:
            tag = names[fn[i]]
            classes += tag == "calculus.tangent_from_word"
            exteriors += tag == "calculus.exterior_dims"
    ctr = spans["counters"]
    other = {
        "scalars.ops": sum(spans["agg_n"]),
        "freealg.normal_words_out": ctr["normal_words_out"],
        "freealg.normal_words_yield": (
            ctr["normal_words_kept"] / ctr["normal_words_tried"] if ctr["normal_words_tried"] else 0.0
        ),
        "calculus.neither_share": 1 - exteriors / classes if classes else 0.0,
        "trace.wall_s": spans["wall_s"],
        "trace.spans": n,
        "trace.overhead_s": spans["wall_s"] - untraced_pass_s,
    }
    out = {}
    g = 0
    for name, unit, _, kind, arg in PER_LAYER:
        if kind == "incl":
            value, g = incl[g], g + 1
        elif kind == "calls":
            value = calls_by_name.get(arg, 0)
        elif kind == "self":
            value = layer_self[arg]
        else:
            value = other[name]
        out[name] = (value, unit)
    return out
