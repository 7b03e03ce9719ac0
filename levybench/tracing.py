"""Span tracing from the benchmark's own files.

`Tracer.patched()` wraps levylab functions at their module bindings for the
duration of one traced run and restores them afterwards; nothing under
`src/` is edited.  Spans (name, start, end, parent, run id) are kept in
memory and written out by the caller when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

import contextlib
import dataclasses
import inspect
import sys
import threading
import time
import uuid

from layers import useful_steps
from levylab import dirichlet, harness, lyapunov, measures, operators, potential, rng, suite

# engine functions, with where their result keeps the per-path hit times
HIT_TIMES = {
    "simulate_hit_batch": lambda out: out[1],
    "multi_target_hit": lambda out: out[0],
    "level_crossing_times": lambda out: out,
    "discounted_occupancy": lambda out: out[0],
}
ENGINES = tuple(HIT_TIMES)

# (module, function) pairs traced wherever levylab or the benchmark binds them
TRACED = [
    (rng, "substream"),
    (measures, "sample_increments"),
    (measures, "pairing_second_moment"),
    (lyapunov, "q_x_eval"),
    (lyapunov, "v0_estimate"),
    (lyapunov, "qx_square_mean"),
    (lyapunov, "moment_constant_estimate"),
    (operators, "apply_Ualpha"),
    (operators, "apply_Ualpha_projected"),
    (potential, "reduced_function_family"),
    (potential, "capacity"),
    (potential, "capacity_tightness_profile"),
    (potential, "balayage_check"),
    (potential, "projection_convergence"),
    (dirichlet, "solve"),
    (harness, "run"),
] + [(potential, name) for name in ENGINES]

DOMAIN_CONSTRUCTORS = ("slab_domain", "box_domain", "e_ball_domain")


class Tracer:
    """In-memory span recorder; spans nest per thread, and a traced run is
    single-threaded so span ids stay in start order."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        record = {
            "id": len(self.spans),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "run": self.run_id,
            "start_ns": time.perf_counter_ns(),
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end_ns"] = time.perf_counter_ns()
            record.update(attrs)

    def wrap(self, name, fn):
        engine = fn.__name__ in ENGINES

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if fn.__name__ == "sample_increments":
                rec["rows"] = int(out.shape[0])
            elif engine:
                cfg = inspect.signature(fn).bind(*args, **kwargs).arguments["cfg"]
                rec["useful_steps"] = useful_steps(HIT_TIMES[fn.__name__](out), cfg)
            return out

        traced.__wrapped__ = fn
        return traced

    def _traced_domain(self, make):
        def build(*args, **kwargs):
            dom = make(*args, **kwargs)
            inner = dom.membership

            def membership(z):
                with self.span("membership.domain"):
                    return inner(z)

            return dataclasses.replace(dom, membership=membership)

        return build

    @contextlib.contextmanager
    def patched(self, extra_modules=()):
        """Trace the TRACED functions, every TargetSet membership test, the
        domain constructors and the suite registry until the block exits."""
        modules = [m for n, m in sys.modules.items() if n.startswith("levylab")]
        modules += list(extra_modules)
        saved = []

        def setattr_saved(obj, attr, value):
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

        for owner, attr in TRACED:
            fn = getattr(owner, attr)
            wrapped = self.wrap(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", fn)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr_saved(m, attr, wrapped)
        for attr in DOMAIN_CONSTRUCTORS:
            fn = getattr(dirichlet, attr)
            wrapped = self._traced_domain(fn)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr_saved(m, attr, wrapped)
        target_call = potential.TargetSet.__call__

        def call(target, z):
            with self.span("membership.target"):
                return target_call(target, z)

        setattr_saved(potential.TargetSet, "__call__", call)
        registry = dict(suite.REGISTRY)
        for op, fn in registry.items():
            suite.REGISTRY[op] = self.wrap(f"suite.{op}", fn)
        try:
            yield self
        finally:
            suite.REGISTRY.update(registry)
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)


# -- summaries over a list of span records ---------------------------------


def self_times(spans) -> list:
    """Self time of every span in seconds, indexed like `spans`."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return [ns * 1e-9 for ns in own]


def summary(spans) -> dict:
    """Per-layer numbers; the first span is the root that covers the traced
    batch (callers clear the tracer's spans before opening it)."""
    total = (spans[0]["end_ns"] - spans[0]["start_ns"]) * 1e-9
    own = self_times(spans)
    engine_names = {f"potential.{e}" for e in ENGINES}

    def self_frac(pred):
        return sum(t for s, t in zip(spans, own) if pred(s["name"])) / total

    def parent_name(s):
        return spans[s["parent"]]["name"] if s["parent"] is not None else None

    membership = [s for s in spans if s["name"].startswith("membership.")]
    performed = sum(
        s["rows"]
        for s in spans
        if s["name"] == "measures.sample_increments" and parent_name(s) in engine_names
    )
    useful = sum(s["useful_steps"] for s in spans if s["name"] in engine_names)
    # Domain.membership runs only in bisection refinement (inside the engine)
    # and in one start check per solve (directly under dirichlet.solve)
    refine = sum(
        s["name"] == "membership.domain" and parent_name(s) == "potential.simulate_hit_batch"
        for s in membership
    )
    return {
        "trace.sample_increments.self_frac": self_frac(lambda n: n == "measures.sample_increments"),
        "trace.potential.self_frac": self_frac(lambda n: n.startswith("potential.")),
        "trace.membership.self_frac": self_frac(lambda n: n.startswith("membership.")),
        "trace.membership.calls": len(membership),
        "trace.refine_membership_calls": refine,
        "trace.performed_steps": performed,
        "trace.useful_step_ratio": useful / performed if performed else 0.0,
    }


def share_within(spans, outer: str, inner: str) -> float:
    """Self time of `inner` spans below `outer` spans over their duration."""
    own = self_times(spans)

    def under(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] == outer:
                return True
        return False

    dur = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == outer) * 1e-9
    part = sum(t for s, t in zip(spans, own) if s["name"] == inner and under(s))
    return part / dur if dur else 0.0
