"""Span tracing from outside the package: wrap public functions at their
module attributes, record one span per call and the work counters.

A span is ``[id, name, layer, start, end, parent id, item id]`` with
``time.perf_counter`` times (CLOCK_MONOTONIC on Linux, so spans from CLI
child processes line up with the parent's).  A layer's self time is the
time of its spans minus the time of their child spans.  Functions called
too often for one span per call (the crystal operators, ``shape_form``) are
timed and counted, and their time is charged to the layer, without a span.

Counters computed after a call (result sizes, distinct forms) run outside
the call's span; their cost is kept apart as ``trace.counter_s`` so that
layer self times plus bench time plus counter time add up to the wall time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # frames: [span id, child seconds, extra]
        self.self_s = defaultdict(float)
        self.self_by_name = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.reused = Counter()
        self.counter_s = 0.0
        self.item = None
        self._next_id = 1
        self._patched = []

    # ---- spans ------------------------------------------------------------------

    def _enter(self, extra=None):
        frame = [self._next_id, 0.0, extra]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame, name, layer, t0, t1, record=True):
        self.stack.pop()
        dur = t1 - t0
        self.self_s[layer] += dur - frame[1]
        self.self_by_name[name] += dur - frame[1]
        self.incl_s[name] += dur
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        if record:
            self.spans.append([frame[0], name, layer, t0, t1,
                               parent[0] if parent else None, self.item])

    def span(self, name, layer, fn, *args):
        """Run ``fn(*args)`` inside a span of its own."""
        frame = self._enter()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, name, layer, t0, perf_counter())

    def charge_child(self, seconds_by_layer: dict):
        """Charge time measured elsewhere (a child process) to the current span."""
        for layer, secs in seconds_by_layer.items():
            self.self_s[layer] += secs
            if self.stack:
                self.stack[-1][1] += secs

    def count_key(self, name, key):
        """Count a call of ``name`` and whether its key recurred."""
        seen = self.keys[name]
        recurred = key in seen
        if recurred:
            self.reused[name] += 1
        else:
            seen.add(key)
        return recurred

    # ---- wrapping ---------------------------------------------------------------

    def wrap(self, owner, attr, layer, after=None, record=True, extra=None):
        """Replace ``owner.attr`` and every ``crystal_poly`` module attribute
        bound to the same function with a timed wrapper.

        ``after(tracer, extra, args, kwargs, result)`` computes counters.
        ``extra(args)`` makes per-call state the wrapper keeps in its frame.
        """
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(extra(args) if extra else None)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, name, layer, t0, perf_counter(), record)
                raise
            tracer._exit(frame, name, layer, t0, perf_counter(), record)
            if after is not None:
                c0 = perf_counter()
                after(tracer, frame[2], args, kwargs, result)
                cost = perf_counter() - c0
                tracer.counter_s += cost
                if tracer.stack:
                    tracer.stack[-1][1] += cost
            return result

        self._rebind(owner, attr, original, wrapper)
        return original

    def _rebind(self, owner, attr, original, replacement):
        targets = [(owner, attr)]
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "crystal_poly" or mod is owner:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    targets.append((mod, key))
        for obj, key in targets:
            self._patched.append((obj, key, getattr(obj, key)))
            setattr(obj, key, replacement)

    def uninstall(self):
        for obj, key, value in reversed(self._patched):
            setattr(obj, key, value)
        self._patched.clear()

    # ---- report -----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "self_by_name": dict(self.self_by_name),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "reused": dict(self.reused),
            "counter_s": self.counter_s,
        }


# ---- the layer boundaries ------------------------------------------------------


def _closure_after(tr, _extra, args, kwargs, res):
    window = kwargs.get("window", args[-1])  # the last parameter of every closure entry point
    tr.counts["inequalities.window_kept"] += len(res.within(window))
    tr.counts["inequalities.window_generated"] += len(res.forms)


def _close_after(tr, _extra, _args, _kwargs, res):
    tr.counts["inequalities.closure_forms"] += len(res.forms)
    tr.counts["inequalities.closure_pruned"] += res.pruned


def _membership_family_after(tr, _extra, args, _kwargs, res):
    forms, _ = res
    support = args[2]
    tr.counts["inequalities.window_kept"] += sum(1 for f in forms if f.max_pos() <= support)
    tr.counts["inequalities.window_generated"] += len(forms)


def _membership_after(tr, _extra, args, _kwargs, _res):
    tr.counts["inequalities.membership_forms"] += len(args[0])


def _eps_forms_after(tr, _extra, args, kwargs, _res):
    ctx, x, k = args[:3]
    window = args[3] if len(args) > 3 else kwargs.get("window")
    if window is None:
        window = max(x.max_pos(), ctx.period) + ctx.period
    tr.count_key("eps_forms", (ctx.family, ctx.n, ctx.word, k, window))


def _enumerate_extra(args):
    ctx, k, s, bound = args
    return {"key": (ctx.family, ctx.n, ctx.word, k, s, bound), "bound": bound, "forms": set()}


def _enumerate_after(shapes_mod, shape_form):
    def after(tr, extra, args, _kwargs, res):
        ctx, k, s, _ = args
        if tr.count_key("enumerate_shapes", extra["key"]):
            return  # a cache hit: no shape was expanded
        shapes, _ = res
        forms = extra["forms"]
        forms.add(shape_form(ctx, k, shapes_mod.ground_shape(ctx, k), s))
        tr.counts["shapes.visited"] += len(shapes)
        tr.counts["shapes.distinct_forms"] += len(forms)
    return after


def _crosscheck_after(tr, _extra, _args, _kwargs, report):
    tr.counts["oracle.candidates"] += report["candidates"]
    tr.counts["oracle.active_forms"] += report["active_forms"]
    tr.counts["oracle.feasible"] += report["feasible"]


def _candidate_key(tr, _extra, args, _kwargs, _res):
    tr.count_key("candidate_matrix", tuple(args))


def _closure_nodes(tr, _extra, _args, _kwargs, res):
    tr.counts["oracle.closure_nodes"] += len(res[0])


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from crystal_poly import cartan, cli, crystal, inequalities, oracle, shapes

    tracer.wrap(cartan.Context, "__init__", "cartan")
    tracer.wrap(crystal.CrystalOps, "apply_e", "crystal", record=False)
    tracer.wrap(crystal.CrystalOps, "apply_f", "crystal", record=False)

    tracer.wrap(inequalities, "_close", "inequalities", after=_close_after)
    for name in ("limit_inequalities", "weight_inequalities", "boundary_closure_for_color",
                 "offset_closure_for_color"):
        tracer.wrap(inequalities, name, "inequalities", after=_closure_after)
    tracer.wrap(inequalities, "membership_family", "inequalities",
                after=_membership_family_after)
    tracer.wrap(inequalities, "membership", "inequalities", after=_membership_after)
    tracer.wrap(inequalities, "epsilon_star_forms", "inequalities", after=_eps_forms_after)

    # shape_form is called for every child the BFS looks at; inside
    # enumerate_shapes it collects the forms of the shapes kept.
    shape_form = shapes.shape_form

    def collect_form(ctx, k, shape, s):
        form = shape_form(ctx, k, shape, s)
        top = tracer.stack[-1] if tracer.stack else None
        extra = top[2] if top is not None else None
        if isinstance(extra, dict) and "forms" in extra and form.max_pos() <= extra["bound"]:
            extra["forms"].add(form)
        return form

    tracer._rebind(shapes, "shape_form", shape_form, collect_form)
    tracer.wrap(shapes, "enumerate_shapes", "shapes", extra=_enumerate_extra,
                after=_enumerate_after(shapes, shape_form))
    for name in ("comb_lambda", "comb_infinity", "weight_family"):
        tracer.wrap(shapes, name, "shapes")

    tracer.wrap(oracle, "crosscheck_membership", "oracle", after=_crosscheck_after)
    tracer.wrap(oracle, "_feasible_tuples", "oracle")
    tracer.wrap(oracle, "_candidate_matrix", "oracle", after=_candidate_key)
    tracer.wrap(oracle, "generate_closure", "oracle", after=_closure_nodes)
    tracer.wrap(oracle, "reaches_origin", "oracle")
    tracer.wrap(oracle, "epsilon_star_oracle", "oracle")

    tracer.wrap(cli, "main", "cli")
    return tracer
