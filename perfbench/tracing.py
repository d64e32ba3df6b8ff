"""Outside-in tracing of the program's layers for the traced run.

The tracer replaces attributes of the walland modules with wrappers, at
the name the calling module looks up (`walland.walls.wall_of`, not
`walland.stability.wall_of`, for calls made from `walls`), and puts every
original back on `uninstall`.  Layer boundaries get a span each (name,
start, end, parent, operation id); hot inner calls are only counted, some
with their time accumulated.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

SPANNED = (
    # (module attribute, span name)
    ("walls", "enumerate_candidate_walls", "walls.enumerate"),
    ("walls", "simulate_destabilization_paths", "walls.simulate"),
    ("walls", "ext2_vanishing_certificate", "walls.certificate"),
    ("walls", "phase_bound_interval", "walls.phase_bound_interval"),
    ("traces", "cohomology", "traces.cohomology"),
    ("jsonio", "dumps_canonical", "jsonio.dumps_canonical"),
)

COUNTED = (
    # (owner, attribute, counter name, timed)
    ("walls", "wall_of", "stability.wall_of", True),
    ("walls.SegmentRegion", "wall_clip", "walls.clip", True),
    ("walls.BoxRegion", "wall_clip", "walls.clip", True),
    ("walls", "canonical_ray", "stability.canonical_ray", False),
    ("stability", "canonical_ray", "stability.canonical_ray", False),
    ("stability.LiftedPhase", "compare", "stability.LiftedPhase.compare", False),
    ("stability.LiftedPhase", "transport", "stability.LiftedPhase.transport", False),
    ("plane.PlaneLine", "make", "plane.PlaneLine.make", False),
    ("plane.PlanePoint", "make", "plane.PlanePoint.make", False),
    ("walls", "line_parabola_intersect", "plane.line_parabola_intersect", False),
    ("plane.QuadNum", "sign", "plane.QuadNum.sign", False),
    ("lattice.SurfaceLattice", "pair", "lattice.SurfaceLattice.pair", False),
    ("walls", "discriminant", "lattice.discriminant", False),
    ("stability", "discriminant", "lattice.discriminant", False),
    ("traces", "hom_differential", "traces.hom_differential", False),
    ("traces", "supertrace", "traces.supertrace", True),
)


class Tracer:
    def __init__(self, modules):
        self.modules = modules  # short name -> module, e.g. "walls"
        self.spans = []  # [op, name, start, end, parent index]
        self.stack = []
        self.op = None
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.extra = Counter()
        self._op_chars = Counter()
        self._saved = []

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id
        self._op_chars = Counter()
        self._push("op")

    def end_op(self):
        self._pop()
        calls = sum(self._op_chars.values())
        self.extra["walls.enumerate.repeat_calls"] += calls - len(self._op_chars)
        self.op = None

    def _push(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _pop(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def _owner(self, path):
        mod, _, cls = path.partition(".")
        owner = self.modules[mod]
        return getattr(owner, cls) if cls else owner

    def install(self):
        for mod, attr, name in SPANNED:
            self._patch(self._owner(mod), attr, self._spanned(name, attr))
        for path, attr, name, timed in COUNTED:
            owner = self._owner(path)
            self._patch(owner, attr, self._counted(owner, attr, name, timed))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _spanned(self, name, attr):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                if attr == "enumerate_candidate_walls":
                    tracer._op_chars[args[0].as_tuple()] += 1
                tracer._push(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._pop()
                if attr == "enumerate_candidate_walls":
                    tracer.extra["walls.enumerate.witnesses"] += sum(len(c.witnesses) for c in out)
                return out

            return wrapper

        return make

    def _counted(self, owner, attr, name, timed):
        tracer = self
        is_static = isinstance(owner.__dict__[attr], staticmethod)
        is_clip = attr == "wall_clip"

        def make(original):
            fn = original.__func__ if is_static else original

            if timed:
                def wrapper(*args, **kwargs):
                    tracer.calls[name] += 1
                    t = time.perf_counter()
                    out = fn(*args, **kwargs)
                    tracer.busy[name] += time.perf_counter() - t
                    if is_clip and out is not None:
                        tracer.extra["walls.enumerate.region_hits"] += 1
                    return out
            else:
                def wrapper(*args, **kwargs):
                    tracer.calls[name] += 1
                    return fn(*args, **kwargs)

            return staticmethod(wrapper) if is_static else wrapper

        return make

    # -- results --------------------------------------------------------------

    def span_times(self):
        """name -> (total time of outermost spans, total self time)."""
        children = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for k, (_, name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - children[k]
            # a recursive call nests in a span of its own name: count it once
            p = parent
            while p is not None and self.spans[p][1] != name:
                p = self.spans[p][4]
            if p is None:
                total[name] += end - start
        return total, self_time

    def metrics(self, nodes, hom_dims):
        total, self_time = self.span_times()
        c, b, x = self.calls, self.busy, self.extra
        bog = c["stability.wall_of"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "walls.enumerate.calls": (c["walls.enumerate"], "count"),
            "walls.enumerate.repeat_calls": (x["walls.enumerate.repeat_calls"], "count"),
            "walls.enumerate.time_s": (total["walls.enumerate"], "s"),
            "walls.enumerate.self_s": (self_time["walls.enumerate"], "s"),
            "walls.enumerate.bogomolov_pass": (bog, "count"),
            "walls.enumerate.region_hits": (x["walls.enumerate.region_hits"], "count"),
            "walls.enumerate.kept_ratio": (ratio(x["walls.enumerate.witnesses"], bog), "ratio"),
            "walls.enumerate.clip_time_s": (b["walls.clip"], "s"),
            "walls.simulate.time_s": (total["walls.simulate"], "s"),
            "walls.simulate.self_s": (self_time["walls.simulate"], "s"),
            "walls.simulate.ms_per_node": (ratio(1000 * total["walls.simulate"], nodes), "ms"),
            "walls.certificate.time_s": (total["walls.certificate"], "s"),
            "walls.phase_bound_interval.time_s": (total["walls.phase_bound_interval"], "s"),
            "stability.wall_of.time_s": (b["stability.wall_of"], "s"),
            "stability.canonical_ray.calls": (c["stability.canonical_ray"], "count"),
            "stability.LiftedPhase.compare.calls": (c["stability.LiftedPhase.compare"], "count"),
            "stability.LiftedPhase.transport.calls": (c["stability.LiftedPhase.transport"], "count"),
            "plane.PlaneLine.make.calls": (c["plane.PlaneLine.make"], "count"),
            "plane.PlanePoint.make.calls": (c["plane.PlanePoint.make"], "count"),
            "plane.line_parabola_intersect.calls": (c["plane.line_parabola_intersect"], "count"),
            "plane.QuadNum.sign.calls": (c["plane.QuadNum.sign"], "count"),
            "lattice.SurfaceLattice.pair.calls": (c["lattice.SurfaceLattice.pair"], "count"),
            "lattice.discriminant.calls": (c["lattice.discriminant"], "count"),
            "traces.cohomology.time_s": (total["traces.cohomology"], "s"),
            "traces.cohomology.us_per_hom_dim": (ratio(1e6 * total["traces.cohomology"], hom_dims), "us"),
            "traces.hom_differential.calls": (c["traces.hom_differential"], "count"),
            "traces.supertrace.time_s": (b["traces.supertrace"], "s"),
            "jsonio.dumps_canonical.time_s": (total["jsonio.dumps_canonical"], "s"),
        }

    def dump(self):
        return {
            "fields": ["op", "name", "start", "end", "parent"],
            "spans": self.spans,
        }
