"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions and methods of each layer
module of `brokenlines` with wrappers, also where other modules re-import
them (`brokenlines.twisted.tensor`, `brokenlines.cli.verify_join_identity`),
so calls across layers are seen.  A call whose callee layer differs from
the caller's opens a span (layer, start, end, parent, job); calls inside
one layer are only counted.  A layer's self time is the duration of its
spans minus the time their child spans cover.

`extreal` and `acceptance` are not wrapped: their time counts as self time
of the layer that calls them, as does every private helper.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("orders", "rep", "lines", "families", "configurations", "vect",
          "sheaves", "twisted", "morse", "cli")

# Dunder methods that do real work in this package; the rest (hash, repr,
# setattr guards) are left alone.
DUNDERS = {"__init__", "__call__", "__eq__", "__matmul__", "__add__", "__post_init__"}

# Timed groups: inclusive time of the outermost call into any member.
GROUPS = {
    "vect.LinMap.__matmul__": "vect.matmul",
    "vect.tensor": "vect.tensor",
    "vect.LinMap.inverse": "vect.inverse",
    "vect.LinMap.__eq__": "vect.eq",
    "vect.LinMap.__init__": "vect.init",
    "twisted.tw_enumerate": "twisted.enumerate",
    "twisted.algebra_to_functor": "twisted.build",
    "twisted.day_convolution": "twisted.build",
    "twisted.day_square": "twisted.build",
    "twisted.TwFunctor.validate": "twisted.check",
    "twisted.functor_to_algebra": "twisted.check",
    "twisted.roundtrip_natural_iso": "twisted.check",
    "twisted.day_assoc_check": "twisted.check",
    "morse.find_critical_points": "morse.critical",
    "morse.find_connections": "morse.connections",
    "morse.find_broken_trajectories": "morse.trajectories",
    "morse.validate_trajectory": "morse.validate",
    "morse.render_svg": "morse.render",
    "morse.Sphere.field": "morse.field",
    "morse.Torus.field": "morse.field",
    "morse.PerturbedSurface.field": "morse.field",
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.jobs = []
        self.sp_job = array("i")
        self.sp_name = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.sp_parent = array("i")
        # frame: [layer, span index (-1 for the root), child time in ns]
        self.stack = [["bench", -1, 0]]
        self.self_ns = Counter()
        self.group_ns = Counter()
        self.active = defaultdict(bool)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self._seen = set()

    # ------------------------------------------------------------ spans

    def _open(self, layer, name):
        """Push a frame and reserve its span slot; returns the frame."""
        idx = len(self.sp_name)
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.sp_job.append(len(self.jobs) - 1)
        self.sp_name.append(nid)
        self.sp_start.append(0)
        self.sp_end.append(0)
        self.sp_parent.append(self.stack[-1][1])
        frame = [layer, idx, 0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        self.self_ns[frame[0]] += dur - frame[2]
        self.stack[-1][2] += dur
        self.sp_start[frame[1]] = t0
        self.sp_end[frame[1]] = t1

    def job(self, name, fn):
        """Run one benchmark job under its own root span."""
        self.jobs.append(name)
        frame = self._open("bench", "job:" + name)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self._close(frame, t0, time.perf_counter_ns())

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, layer, qual):
        group = GROUPS.get(qual)
        hook = HOOKS.get(qual) or (_vect_result if layer == "vect" else None)
        tracer = self
        stack = self.stack
        calls = self.calls
        active = self.active
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            boundary = stack[-1][0] != layer
            timed = group is not None and not active[group]
            if not boundary and not timed:
                if hook is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                hook(tracer, args, result, False)
                return result
            if timed:
                active[group] = True
            frame = tracer._open(layer, qual) if boundary else None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if timed:
                    active[group] = False
                    tracer.group_ns[group] += t1 - t0
                if boundary:
                    tracer._close(frame, t0, t1)
            if hook is not None:
                # bookkeeping time is charged to no layer
                h0 = perf()
                hook(tracer, args, result, boundary)
                stack[-1][2] += perf() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
        return wrapper

    def install(self):
        """Wrap every layer of the imported `brokenlines` package."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"brokenlines.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj) and not name.startswith("_"):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "brokenlines" and not mod_name.startswith("brokenlines."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and not isinstance(obj, type):
                    setattr(module, name, replaced[id(obj)])

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                new = staticmethod(self._wrap(val.__func__, layer, qual))
            elif isinstance(val, classmethod):
                new = classmethod(self._wrap(val.__func__, layer, qual))
            elif inspect.isfunction(val):
                new = self._wrap(val, layer, qual)
            else:
                continue  # properties and data
            setattr(cls, attr, new)

    # ----------------------------------------------------------- results

    def metrics(self):
        """Per-layer metrics by name; times in seconds."""
        s = {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
        c = self.counts

        def calls_in(prefix):
            return sum(n for q, n in self.calls.items() if q.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        m = dict(s)
        m["orders.calls"] = calls_in("orders.")
        m["orders.objects_enumerated"] = c["orders.objects"]
        m["orders.us_per_object"] = ratio(s["orders.self_s"] * 1e6, c["orders.objects"])
        m["rep.points_sampled"] = c["rep.points"]
        m["lines.isos_found"] = c["lines.isos"]
        m["families.samples"] = c["families.samples"]
        m["configurations.configs_checked"] = c["configurations.configs"]
        m["configurations.pairs_checked"] = c["configurations.pairs"]
        m["vect.calls"] = calls_in("vect.")
        for op, qual in (("matmul", "vect.LinMap.__matmul__"), ("tensor", "vect.tensor"),
                         ("inverse", "vect.LinMap.inverse"), ("eq", "vect.LinMap.__eq__"),
                         ("init", "vect.LinMap.__init__")):
            m[f"vect.{op}_calls"] = self.calls[qual]
            m[f"vect.{op}_s"] = self.group_ns[f"vect.{op}"] / 1e9
        m["vect.matmul_identity_ratio"] = ratio(
            c["vect.matmul_identity"], self.calls["vect.LinMap.__matmul__"])
        m["vect.entries_built"] = c["vect.entries"]
        m["vect.nnz_built"] = c["vect.nnz"]
        m["vect.density"] = ratio(c["vect.nnz"], c["vect.entries"])
        m["sheaves.maps_applied"] = self.calls["sheaves.apply_surjection"]
        for g in ("enumerate", "build", "check"):
            m[f"twisted.{g}_s"] = self.group_ns[f"twisted.{g}"] / 1e9
        m["twisted.objects"] = c["twisted.objects"]
        m["twisted.morphisms"] = c["twisted.morphisms"]
        for g in ("critical", "connections", "trajectories", "validate", "render"):
            m[f"morse.{g}_s"] = self.group_ns[f"morse.{g}"] / 1e9
        m["morse.field_calls"] = sum(
            self.calls[q] for q, g in GROUPS.items() if g == "morse.field")
        m["morse.field_rows"] = c["morse.field_rows"]
        m["morse.us_per_field_row"] = ratio(
            self.group_ns["morse.field"] / 1e3, c["morse.field_rows"])
        m["morse.segments"] = c["morse.segments"]
        m["morse.trajectories"] = c["morse.trajectories"]
        m["morse.validated"] = c["morse.validated"]
        m["morse.broken_all_inf"] = c["morse.broken_all_inf"]
        m["morse.reparam_residual_max"] = self.maxima["morse.reparam"]
        m["morse.invariance_residual_max"] = self.maxima["morse.invariance"]
        m["trace.spans"] = len(self.sp_name)
        return m

    def spans(self):
        """The spans as columns, times in ns from the first span."""
        base = self.sp_start[0] if len(self.sp_start) else 0
        return {
            "names": self.names,
            "jobs": self.jobs,
            "job": list(self.sp_job),
            "name": list(self.sp_name),
            "start": [t - base for t in self.sp_start],
            "end": [t - base for t in self.sp_end],
            "parent": list(self.sp_parent),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


def check_span_tree(spans):
    """Problems with a span tree: a child outside its parent, an
    unknown parent or a negative self time.  Empty when well formed."""
    problems = []
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if end[i] < start[i]:
            problems.append(f"span {i} ends before it starts")
        if p < 0:
            continue
        if p >= i:
            problems.append(f"span {i} has parent {p} opened after it")
            continue
        if start[i] < start[p] or end[i] > end[p]:
            problems.append(f"span {i} lies outside its parent {p}")
        covered[p] += end[i] - start[i]
    for i in range(len(start)):
        if end[i] - start[i] - covered[i] < 0:
            problems.append(f"span {i} has negative self time")
    return problems


# ------------------------------------------------------------ result hooks
# hook(tracer, args, result, boundary) runs after a call returns.

def _count(key, size):
    def hook(tracer, args, result, boundary):
        tracer.counts[key] += size(args, result)
    return hook


def _count_map(tracer, m):
    tracer.counts["vect.entries"] += m.target.dim * m.source.dim
    tracer.counts["vect.nnz"] += sum(1 for row in m.rows for x in row if x)


def _vect_result(tracer, args, result, boundary):
    """Sizes of the maps a vect function hands to another layer."""
    if boundary and hasattr(result, "rows") and hasattr(result, "source"):
        _count_map(tracer, result)


def _linmap_init(tracer, args, result, boundary):
    """Sizes of the maps another layer builds with `LinMap(...)`."""
    if boundary:
        _count_map(tracer, args[0])


def _matmul(tracer, args, result, boundary):
    if result is args[0] or result is args[1]:
        tracer.counts["vect.matmul_identity"] += 1
    _vect_result(tracer, args, result, boundary)


def _tw_enumerate(tracer, args, result, boundary):
    if id(result) not in tracer._seen:  # lru_cache hands back one tuple
        tracer._seen.add(id(result))
        tracer.counts["twisted.objects"] += len(result[0])
        tracer.counts["twisted.morphisms"] += len(result[1])


def _verify(tracer, args, result, boundary):
    tracer.counts["configurations.configs"] += result["configs_checked"]
    tracer.counts["configurations.pairs"] += result["pairs_checked"]


def _validate_trajectory(tracer, args, result, boundary):
    tracer.counts["morse.validated"] += bool(result.ok)
    for key, value in (("morse.reparam", result.reparam_residual),
                       ("morse.invariance", result.invariance_residual)):
        tracer.maxima[key] = max(tracer.maxima[key], float(value))


def _trajectory_to_line(tracer, args, result, boundary):
    _line, rep, _marks = result
    if args[0].component_count > 1 and all(not g.is_finite for g in rep.gaps()):
        tracer.counts["morse.broken_all_inf"] += 1


def _field(tracer, args, result, boundary):
    if not tracer.active["morse.field"]:  # outermost call only
        shape = getattr(result, "shape", ())
        tracer.counts["morse.field_rows"] += shape[0] if len(shape) > 1 else 1


_enumerated = _count("orders.objects", lambda a, r: len(r))

HOOKS = {
    "orders.enumerate_linear_preorders": _enumerated,
    "orders.enumerate_surjections": _enumerated,
    "orders.enumerate_convex_equivalences": _enumerated,
    "orders.enumerate_amalgams": _enumerated,
    "rep.stratum_samples": _count("rep.points", lambda a, r: len(r)),
    "lines.find_marked_iso": _count("lines.isos", lambda a, r: r is not None),
    "families.build_family": _count("families.samples", lambda a, r: len(r[0].samples)),
    "configurations.verify_join_identity": _verify,
    "vect.LinMap.__init__": _linmap_init,
    "vect.LinMap.__matmul__": _matmul,
    "twisted.tw_enumerate": _tw_enumerate,
    "morse.find_connections": _count("morse.segments", lambda a, r: len(r)),
    "morse.find_broken_trajectories": _count("morse.trajectories", lambda a, r: len(r)),
    "morse.validate_trajectory": _validate_trajectory,
    "morse.trajectory_to_line": _trajectory_to_line,
    "morse.Sphere.field": _field,
    "morse.Torus.field": _field,
    "morse.PerturbedSurface.field": _field,
}
