"""Layer spans for the traced pass, recorded from outside the package.

`install` wraps every public function of the five library layers
(`distribution`, `hausdorff`, `lsq`, `stretched`, `experiment`); the sixth
layer, `cli`, is the root span the child opens around each `cli.main` call.
The package imports functions by name (`experiment.fit_linear`,
`stretched.fit_nonlinear`, `cli.run_monte_carlo`, ...), so a wrapper on the
defining module alone would miss most calls: every binding of the function
in every loaded `stretchfit` module is replaced.

Spans are aggregated in memory as they close: per function a call count and
inclusive time, per layer the self time (span duration minus the time its
child spans cover) and the calls entered from another layer.  Because spans
nest strictly under the root, the layers' self times add up to the root
time.  A few exact counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from collections import defaultdict
from time import perf_counter

LIBRARY_LAYERS = ("distribution", "hausdorff", "lsq", "stretched", "experiment")


class Tracer:
    """Span aggregates of one traced pass."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # open spans: [layer, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)        # "layer.function"
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)   # layer
        self.entries: dict[str, int] = defaultdict(int)      # layer, from another layer
        self.counts: dict[str, int] = defaultdict(int)       # exact counters

    def call(self, layer: str, name: str, fn, args=(), kwargs=None, hook=None):
        """Run fn(*args, **kwargs) inside a span; `hook(caller_layer, args, kwargs)`
        replaces the plain call where a wrapper also counts something."""
        stack = self._stack
        caller = stack[-1][0] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        kwargs = kwargs or {}
        t0 = perf_counter()
        try:
            if hook is None:
                return fn(*args, **kwargs)
            return hook(caller, args, kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            key = f"{layer}.{name}"
            self.calls[key] += 1
            self.inclusive_s[key] += dt
            self.self_s[layer] += dt - frame[1]
            if caller != layer:
                self.entries[layer] += 1
            if stack:
                stack[-1][1] += dt

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive_s),
            "self_s": dict(self.self_s),
            "entries": dict(self.entries),
            "counts": dict(self.counts),
        }


def _proposal_hook(tracer: Tracer, fn):
    """Counts proposals by asking the sampler for its ledger; the draws are unchanged."""
    signature = inspect.signature(fn)

    def hook(caller, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        wanted = bound.arguments.get("return_stats", False)
        bound.arguments["return_stats"] = True
        samples, stats = fn(*bound.args, **bound.kwargs)
        tracer.counts["distribution.proposals"] += stats.proposals
        tracer.counts["distribution.accepted"] += stats.accepted
        return (samples, stats) if wanted else samples

    return hook


def _nonlinear_hook(tracer: Tracer, fn, nonconvergence):
    """Counts reported iterations, unconverged results and warm starts."""
    signature = inspect.signature(fn)

    def record(result) -> None:
        tracer.counts["lsq.iterations_reported"] += int(result.iterations)
        tracer.counts["lsq.unconverged"] += not result.converged

    def hook(caller, args, kwargs):
        warm = (caller == "stretched"
                and signature.bind(*args, **kwargs).arguments.get("init") is not None)
        tracer.counts["stretched.warm_starts"] += warm
        try:
            result = fn(*args, **kwargs)
        except nonconvergence as exc:
            tracer.counts["lsq.nonconvergence_raised"] += 1
            tracer.counts["stretched.warm_start_failed"] += warm
            record(exc.best)
            raise
        record(result)
        return result

    return hook


def _wrap(tracer: Tracer, layer: str, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, hook)
    return wrapped


def install(tracer: Tracer):
    """Wrap every binding of the library layers' public functions; returns an undo."""
    package = {name: mod for name, mod in sys.modules.items()
               if name == "stretchfit" or name.startswith("stretchfit.")}
    patched = []
    for layer in LIBRARY_LAYERS:
        module = package[f"stretchfit.{layer}"]
        for name, fn in list(vars(module).items()):
            if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__):
                continue
            hook = None
            if (layer, name) == ("distribution", "sample_rejection"):
                hook = _proposal_hook(tracer, fn)
            elif (layer, name) == ("lsq", "fit_nonlinear"):
                hook = _nonlinear_hook(tracer, fn, module.NonConvergenceError)

            wrapped = _wrap(tracer, layer, name, fn, hook)
            for holder in package.values():
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapped)
                        patched.append((holder, attr, fn))

    def undo() -> None:
        for holder, attr, fn in reversed(patched):
            setattr(holder, attr, fn)

    return undo
