"""Span tracing of the library's public functions, from outside the library.

A :class:`Tracer` replaces a function in every ``nashcones`` module
namespace that binds it (``canonical_key`` lives in ``cones`` and is
imported into ``nash`` and the package, so all three bindings are
wrapped), records one span per call with a link to the calling span, and
keeps counters fed by per-function probes. Spans stay in flat arrays until
the run ends; :meth:`Tracer.layer_totals` folds them into per-layer
calls, inclusive seconds and self seconds, and :meth:`Tracer.write_spans`
writes them out.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "nashcones"

# Functions wrapped in the traced run, by defining module. The span name is
# "<module>.<function>".
TRACED = {
    "intlinalg": ("det", "adjugate", "rank", "column_hnf", "snf", "lattice_index"),
    "cones": (
        "canonical_key",
        "minkowski_sum_hull",
        "_dual_extreme_rays",
        "localize",
        "cone_from_facets",
        "direct_sum_decompose",
        "equivalent",
    ),
    "hilbert": ("hilbert_basis", "triangulate", "parallelepiped_points"),
    "nash": ("nash_blowup", "sum_set", "resolution_tree"),
    "classify": ("classify", "enumerate_hnf", "_perm_equivalent", "_factor_name"),
    "serialize": ("load_cache", "append_cache", "render_text"),
    "cli": ("main",),
    "surface": ("hj_eval", "hj_expand", "nash_blowup_2d", "resolve_2d", "standardize_rays"),
    "checks": (
        "check_convergent_identities",
        "check_subword_denominators",
        "check_hull_reduction",
        "check_descent",
        "check_cross_validation",
        "check_full_resolution",
    ),
}

NODE_STATUSES = ("smooth", "expanded", "pruned-known", "pruned-depth", "memoized")


# ------------------------------------------------------------------ probes
# Each probe is (before, after): before(args) runs ahead of the call and
# returns a value handed to after(tracer, sid, state, args, result). Probes
# run outside the callee's span, so their cost lands in the caller's self
# time and in the reported tracing overhead, never in the callee's time.


def _key_missing(args):
    return args[0]._key is None


def _count_computed_key(tracer, sid, missing, args, result):
    if missing:
        tracer.counts["cones.canonical_key.computed"] += 1


def _count_matrices(tracer, sid, state, args, result):
    tracer.counts["classify.enumerate_hnf.matrices"] += len(result)


def _count_true(tracer, sid, state, args, result):
    if result:
        tracer.counts["classify._perm_equivalent.true"] += 1


def _count_classes(tracer, sid, state, args, result):
    # classify is memoized; count each table once per pass, and only the
    # tables that come out of HNF deduplication (d >= 2).
    key = ("classify", args)
    if args[0] >= 2 and key not in tracer.pass_state:
        tracer.pass_state[key] = True
        tracer.counts["classify.classes"] += len(result)


def _count_points(tracer, sid, state, args, result):
    tracer.counts["nash.sum_set.points"] += len(result)


def _collect_candidates(tracer, sid, state, args, result):
    parent = tracer.parent[sid]
    if parent >= 0 and tracer.names[tracer.name_of[parent] & ~_NESTED] == "hilbert.hilbert_basis":
        tracer.pass_state.setdefault(("candidates", parent), set()).update(result)


def _count_basis(tracer, sid, state, args, result):
    cone = args[0]
    candidates = tracer.pass_state.pop(("candidates", sid), set())
    candidates.update(cone.rays)
    candidates.discard((0,) * cone.dim)
    tracer.counts["hilbert.candidates"] += len(candidates)
    tracer.counts["hilbert.kept"] += len(result.elements)


def _count_tree(tracer, sid, state, args, result):
    counts = tracer.counts
    counts["nash.nodes_created"] += result.nodes_created
    stack = [result.root]
    while stack:
        node = stack.pop()
        counts["nash.nodes." + node.status] += 1
        stack.extend(node.children)


def _cache_size(args):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


def _count_loaded(tracer, sid, size, args, result):
    tracer.counts["serialize.cache_bytes_read"] += size
    tracer.counts["serialize.load_cache.records"] += len(result)


def _count_appended(tracer, sid, state, args, result):
    tracer.counts["serialize.append_cache.records"] += result


def _count_text(tracer, sid, state, args, result):
    tracer.counts["serialize.render_text.bytes"] += len(result.encode())


PROBES = {
    "cones.canonical_key": (_key_missing, _count_computed_key),
    "classify.enumerate_hnf": (None, _count_matrices),
    "classify._perm_equivalent": (None, _count_true),
    "classify.classify": (None, _count_classes),
    "nash.sum_set": (None, _count_points),
    "hilbert.parallelepiped_points": (None, _collect_candidates),
    "hilbert.hilbert_basis": (None, _count_basis),
    "nash.resolution_tree": (None, _count_tree),
    "serialize.load_cache": (_cache_size, _count_loaded),
    "serialize.append_cache": (None, _count_appended),
    "serialize.render_text": (None, _count_text),
}

# A span whose function is already on the stack (recursion, or classify
# reached again through _factor_name) is marked nested: it adds to calls
# and self time but not again to inclusive time.
_NESTED = 1 << 30


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.pass_state = {}
        self._stack = []
        self._active = []
        self._installed = []  # (module, attribute, original)

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap every function in TRACED in each package namespace binding it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short, funcs in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for func in funcs:
                original = getattr(home, func)
                name = f"{short}.{func}"
                wrapper = self._wrap(name, original, *PROBES.get(name, (None, None)))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    def begin_pass(self):
        self.pass_state = {}

    def _wrap(self, name, func, before, after):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        active = self._active
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            sid = len(start)
            name_of.append(nid | _NESTED if active[nid] else nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            active[nid] += 1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] -= 1
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(self, sid, state, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -------------------------------------------------------------- results

    @property
    def span_count(self):
        return len(self.start)

    def layer_totals(self):
        """{span name: (calls, inclusive seconds, self seconds)} over all spans."""
        n_names = len(self.names)
        calls = [0] * n_names
        inclusive = [0.0] * n_names
        self_time = [0.0] * n_names
        child_time = [0.0] * len(self.start)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        # Children always have larger ids than their parent, so one
        # backward sweep sees every child before its parent.
        for sid in range(len(start) - 1, -1, -1):
            raw = name_of[sid]
            nid = raw & ~_NESTED
            dur = end[sid] - start[sid]
            calls[nid] += 1
            if not raw & _NESTED:
                inclusive[nid] += dur
            self_time[nid] += dur - child_time[sid]
            p = parent[sid]
            if p >= 0:
                child_time[p] += dur
        return {
            self.names[i]: (calls[i], inclusive[i], self_time[i]) for i in range(n_names)
        }

    def write_spans(self, path, meta):
        """Spans as gzip JSON lines: a header, then [name, parent, start, end]."""
        t_origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"meta": meta, "names": self.names}) + "\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"[{self.name_of[sid] & ~_NESTED},{self.parent[sid]},"
                    f"{self.start[sid] - t_origin:.9f},{self.end[sid] - t_origin:.9f}]\n"
                )


# ------------------------------------------------------------------ metrics
# The per-layer metrics of a traced run, per pass. "<span>.calls" counts
# calls, "<span>.s" is inclusive seconds, "<span>.self_s" is seconds minus
# child spans; every other name is a probe counter or a ratio of two.

_LAYER_FIELDS = (
    ("classify.classify", ("calls", "s", "self_s")),
    ("classify.enumerate_hnf", ("calls", "s", "matrices")),
    ("classify._perm_equivalent", ("calls", "s", "true")),
    ("classify._factor_name", ("s",)),
    ("cones.canonical_key", ("calls", "computed", "s")),
    ("nash.nash_blowup", ("calls", "s", "self_s")),
    ("nash.sum_set", ("calls", "s", "points")),
    ("hilbert.hilbert_basis", ("calls", "s", "self_s")),
    ("hilbert.triangulate", ("s",)),
    ("hilbert.parallelepiped_points", ("s",)),
    ("cones.minkowski_sum_hull", ("calls", "s", "self_s")),
    ("cones._dual_extreme_rays", ("calls", "s")),
    ("cones.localize", ("calls", "s")),
    ("cones.cone_from_facets", ("calls", "s")),
    ("nash.resolution_tree", ("calls", "s", "self_s")),
    ("serialize.load_cache", ("calls", "s", "records")),
    ("serialize.append_cache", ("calls", "s", "records")),
    ("serialize.render_text", ("s", "bytes")),
    ("cli.main", ("calls", "self_s")),
    *((f"surface.{f}", ("calls", "s")) for f in TRACED["surface"]),
    *((f"checks.{f}", ("s",)) for f in TRACED["checks"]),
    ("cones.direct_sum_decompose", ("calls", "s")),
    ("cones.equivalent", ("calls", "s")),
    *((f"intlinalg.{f}", ("calls", "s")) for f in TRACED["intlinalg"]),
)

# ratio name -> (numerator counters, denominator counters)
_RATIOS = {
    "classify.dedup_kept_ratio": (("classify.classes",), ("classify.enumerate_hnf.matrices",)),
    "hilbert.kept_ratio": (("hilbert.kept",), ("hilbert.candidates",)),
    "nash.memo_hit_ratio": (("nash.nodes.memoized",), ("nash.nodes.memoized", "nash.nodes.expanded")),
}

_COUNTERS = (
    "nash.nodes_created",
    *(f"nash.nodes.{s}" for s in NODE_STATUSES),
    "serialize.cache_bytes_read",
)

TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans")

_UNITS = {"s": "s", "self_s": "s", "bytes": "bytes", "cache_bytes_read": "bytes",
          "wall_s": "s", "untraced_wall_s": "s", "overhead_s": "s"}


def unit_of(name):
    if name in _RATIOS:
        return "ratio"
    return _UNITS.get(name.rsplit(".", 1)[1], "count")


PER_LAYER = (
    *(f"{span}.{f}" for span, fields in _LAYER_FIELDS for f in fields),
    *_RATIOS,
    *_COUNTERS,
    *TRACE_METRICS,
)


def per_layer_metrics(tracer, passes, overhead):
    """{name: (value per pass, unit)} for every name in PER_LAYER.

    `overhead` supplies the trace.* wall times measured by the caller.
    """
    totals = tracer.layer_totals()
    counts = tracer.counts
    fields = {"calls": 0, "s": 1, "self_s": 2}
    out = {}
    for name in PER_LAYER:
        span, last = name.rsplit(".", 1)
        if name in _RATIOS:
            num, den = (sum(counts[c] for c in part) for part in _RATIOS[name])
            value = num / den if den else 0.0
        elif name in overhead:
            value = overhead[name]
        elif name == "trace.spans":
            value = tracer.span_count / passes
        elif span in totals and last in fields:
            value = totals[span][fields[last]] / passes
        else:
            value = counts[name] / passes
        out[name] = (value, unit_of(name))
    return out


def top_self_time(tracer, passes, wall_s, n=8):
    """The n spans with the most self time per pass, with their share of
    the traced pass time wall_s."""
    top = sorted(tracer.layer_totals().items(), key=lambda kv: -kv[1][2])[:n]
    return [(span, (t[2] / passes, t[2] / passes / wall_s)) for span, t in top]
