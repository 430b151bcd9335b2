"""Per-layer tracing for the benchmark's traced runs.

Every public function of each ``qoct`` module is replaced, in every
namespace that binds it (the defining module, the package and any module
that did ``from .x import y``), by a wrapper that records the call when it
crosses a layer boundary.  A layer is a ``qoct`` module.

- Calls into the span layers (``SPAN_LAYERS``) get a span: name, start, end,
  parent span and op id.  Spans are kept in memory and written out at the
  end of the run.
- Calls into the leaf layers (``elliptic``, ``so3``) and the control and
  pulse callables handed to the integrators are made once per RK4 stage;
  they get no span but are folded into their enclosing span as a count plus
  summed self time, so memory stays bounded.
- A call from a layer into itself passes straight through, so each frame
  marks a boundary crossing.

Self time of a frame is its duration minus the durations of the frames it
encloses, so the self times of one op sum to the op's wall time.  Only the
traced run imports this module.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

SPAN_LAYERS = ("min_energy", "time_optimal", "integrator", "lift", "oracle", "cli")
LEAF_LAYERS = ("elliptic", "so3")
LAYERS = SPAN_LAYERS + LEAF_LAYERS
ROOT = "bench"

# callables passed to these functions (by position and keyword) are wrapped,
# and each of their calls is counted under the given name
_CALLBACKS = {
    "integrator.integrate": ("integrator.control_evals", ((1, "control"),)),
    "integrator.first_exit": ("integrator.control_evals", ((1, "control"),)),
    "lift.simulate_complex": ("lift.pulse_evals", ((1, "f1"), (2, "f2"))),
}
# calls counted when made inside an open call of another function:
# callee -> (enclosing function, counter)
_NESTED = {
    "integrator.integrate": ("min_energy.solve_m3", "min_energy.shoot_evals"),
    "integrator.first_exit": ("min_energy.solve_m3", "min_energy.shoot_evals"),
    "so3.rodrigues_exp": ("time_optimal.synthesis_law", "time_optimal.rodrigues_in_law"),
}
_SCOPES = tuple({scope for scope, _ in _NESTED.values()})


def layer_of(fn) -> str:
    """The qoct layer that defines a callable, or ``bench`` for anything else."""
    mod = getattr(fn, "__module__", None) or ""
    parts = mod.split(".")
    if len(parts) == 2 and parts[0] == "qoct" and parts[1] in LAYERS:
        return parts[1]
    return ROOT


class _Frame:
    __slots__ = ("layer", "start", "child", "span")

    def __init__(self, layer: str, span: int):
        self.layer = layer
        self.child = 0.0
        self.span = span


class Tracer:
    """Installs the wrappers and collects spans and per-op counters."""

    def __init__(self):
        self.active = False
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._scopes = dict.fromkeys(_SCOPES, 0)
        self._stack: list[_Frame] = []
        self._op = -1
        self._origin = perf_counter()
        self._saved: list[tuple[dict, str, object]] = []
        self._errors: list[tuple[BaseException, str]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every public qoct function in every loaded qoct namespace.

        Returns the number of distinct functions wrapped.
        """
        wrappers: dict[int, object] = {}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qoct" or name.startswith("qoct.")):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = layer_of(obj)
                if layer == ROOT:
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(layer, f"{layer}.{obj.__name__}", obj)
                    wrappers[id(obj)] = wrapper
                self._saved.append((ns, attr, obj))
                ns[attr] = wrapper
        return len(wrappers)

    def uninstall(self):
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        self._saved.clear()

    # -- frames ------------------------------------------------------------

    def _enter(self, layer: str, name: str | None) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        if name is None:
            frame = _Frame(layer, parent.span)
        else:
            frame = _Frame(layer, len(self.spans))
            self.spans.append(
                {
                    "name": name,
                    "op": self._op,
                    "parent": None if parent is None else parent.span,
                    "leaf_calls": {},
                    "leaf_self_s": {},
                }
            )
        self._stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: _Frame, is_span: bool) -> float:
        end = perf_counter()
        dur = end - frame.start
        self._stack.pop()
        own = dur - frame.child
        counts = self.counts
        key = frame.layer + ".self_s"
        counts[key] = counts.get(key, 0.0) + own
        if self._stack:
            self._stack[-1].child += dur
        span = self.spans[frame.span]
        if is_span:
            span["start"] = frame.start - self._origin
            span["end"] = end - self._origin
            span["self_s"] = own
        else:
            calls, selfs = span["leaf_calls"], span["leaf_self_s"]
            calls[frame.layer] = calls.get(frame.layer, 0) + 1
            selfs[frame.layer] = selfs.get(frame.layer, 0.0) + own
        return dur

    def _error(self, layer: str, exc: BaseException):
        # one exception passing through several frames of a layer counts once
        for seen, seen_layer in self._errors:
            if seen is exc and seen_layer == layer:
                return
        self._errors.append((exc, layer))
        key = layer + ".errors"
        self.counts[key] = self.counts.get(key, 0) + 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        tracer = self
        is_span = layer in SPAN_LAYERS
        calls_key = layer + ".calls"
        fn_key = "calls:" + qualname
        cb_counter, callbacks = _CALLBACKS.get(qualname, (None, ()))
        scope, nested_key = _NESTED.get(qualname, (None, None))
        opens_scope = qualname in _SCOPES
        counts_candidates = qualname == "oracle.sample_search_min_time"
        name = qualname if is_span else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or stack[-1].layer == layer:
                return fn(*args, **kwargs)
            counts = tracer.counts
            counts[calls_key] = counts.get(calls_key, 0) + 1
            counts[fn_key] = counts.get(fn_key, 0) + 1
            if scope is not None and tracer._scopes[scope]:
                counts[nested_key] = counts.get(nested_key, 0) + 1
            if callbacks:
                args, kwargs = tracer._wrap_callbacks(callbacks, cb_counter, args, kwargs)
            if counts_candidates:
                n = args[1] if len(args) > 1 else kwargs["n_candidates"]
                counts["oracle.candidates"] = counts.get("oracle.candidates", 0) + n
            if opens_scope:
                tracer._scopes[qualname] += 1
            frame = tracer._enter(layer, name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                tracer._exit(frame, is_span)
                if opens_scope:
                    tracer._scopes[qualname] -= 1

        return wrapper

    def _wrap_callbacks(self, callbacks, counter, args, kwargs):
        args = list(args)
        for index, kw in callbacks:
            if index < len(args):
                args[index] = self._callback(args[index], counter)
            elif kw in kwargs:
                kwargs[kw] = self._callback(kwargs[kw], counter)
        return tuple(args), kwargs

    def _callback(self, fn, counter: str):
        """Count and time a per-stage callable; its time goes to its own layer."""
        tracer = self
        layer = layer_of(fn)

        def callback(*args):
            if not tracer.active:
                return fn(*args)
            counts = tracer.counts
            counts[counter] = counts.get(counter, 0) + 1
            frame = tracer._enter(layer, None)
            try:
                return fn(*args)
            finally:
                tracer._exit(frame, False)

        return callback

    # -- one op ------------------------------------------------------------

    def run_op(self, op: int, fn):
        """Run ``fn()`` as op ``op`` under tracing.

        Returns (result, exception or None, wall seconds, per-op counters).
        The exception is caught here so the counters of a failed op are kept.
        """
        self._op = op
        self.counts = {}
        self._errors = []
        self.active = True
        root = self._enter(ROOT, "bench.op")
        result = exc = None
        try:
            result = fn()
        except Exception as caught:  # the caller classifies and records it
            exc = caught
        finally:
            wall = self._exit(root, True)
            self.active = False
        counts, self.counts = self.counts, {}
        self._errors = []
        return result, exc, wall, counts
