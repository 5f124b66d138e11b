"""Run a ``repro`` entry point with layer spans installed around it.

Usage: ``python boot.py TRACE_OUT MODULE [ARGS...]``, e.g.
``python boot.py out.json repro --out results search --layout a`` or
``python boot.py out.json repro.serve --quiet``.

The bootstrap imports the entry module inside an ``import.repro``
span, then replaces a fixed list of public functions and methods with
wrappers that open a span around each call (and bump counters), then
runs ``MODULE`` as ``__main__``. The wrappers call the originals with
the same arguments and return their results untouched, so a traced run
writes the same bytes as an untraced one; the harness checks that.
Spans are written to ``TRACE_OUT`` when the process exits.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import os
import runpy
import sys

from spans import Recorder

# (module, attribute path, span name). Methods are patched on the
# class that defines them; module functions are rebound in every
# loaded ``repro`` module that imported them by name.
SPANNED = [
    ("repro.accuracy.surrogate", "AccuracySurrogate.proxy_accuracy",
     "accuracy.proxy_accuracy"),
    ("repro.space.search_space", "SearchSpace.sample", "space.sample"),
    ("repro.hardware.lut", "LatencyLUT.build", "hardware.lut_build"),
    ("repro.hardware.predictor", "LatencyPredictor.calibrate_bias",
     "hardware.calibrate_bias"),
    ("repro.hardware.predictor", "LatencyPredictor.predict_many",
     "hardware.predict_many"),
    ("repro.hardware.profiler", "OnDeviceProfiler.measure_ms",
     "hardware.measure"),
    ("repro.core.shrinking", "ProgressiveSpaceShrinking.run", "core.shrink"),
    ("repro.core.evolution", "EvolutionarySearch.run", "core.ea"),
    ("repro.core.nsga2", "Nsga2Search.run", "core.nsga2"),
    ("repro.parallel.backend", "SerialBackend.map", "parallel.map"),
    ("repro.parallel.backend", "TabularBackend.map", "parallel.map"),
    ("repro.runstate.atomic", "atomic_write_bytes", "runstate.atomic_write"),
    ("repro.tabular.build", "tabulate", "tabular.tabulate"),
    ("repro.tabular.artifact", "save_artifact", "tabular.save_artifact"),
    ("repro.tabular.artifact", "load_artifact", "tabular.load_artifact"),
    ("repro.tabular.sweep", "run_sweep", "tabular.sweep"),
]
SERVE_SPANNED = [
    ("repro.serve.server", "ServeHandler.do_GET", "serve.request"),
    ("repro.serve.server", "ServeHandler.do_POST", "serve.request"),
    ("repro.serve.service", "SearchService.resolve", "serve.resolve"),
    ("repro.serve.service", "SearchService._bundle", "serve.bundle_build"),
    ("repro.resilience.admission", "AdmissionController.try_admit",
     "resilience.admission_wait"),
]


def _after(name, args, result, rec):
    """Counters read at the same boundary as the span."""
    if name == "hardware.predict_many":
        rec.count("hardware.predict_many_archs", len(args[1]))
    elif name == "parallel.map":
        rec.count("parallel.map_items", len(args[1]))
    elif name == "runstate.atomic_write":
        rec.count("runstate.atomic_write_bytes", len(args[1]))
    elif name == "core.shrink":
        rec.count("core.quality_evaluations", result.quality_evaluations)
    elif name in ("core.ea", "core.nsga2"):
        rec.count(f"{name}_evaluations", result.num_evaluations)
    elif name == "tabular.save_artifact":
        rec.count("tabular.artifact_bytes", sum(
            entry.stat().st_size for entry in os.scandir(result)
        ))


def _spanned(fn, name, rec, count=True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(handle)
        if count:
            _after(name, args, result, rec)
        return result
    return wrapper


def _request(fn, rec):
    """One served request: the client's ``X-Request-Id`` names it."""
    @functools.wraps(fn)
    def wrapper(handler):
        handle = rec.open("serve.request", handler.headers.get("X-Request-Id"))
        try:
            return fn(handler)
        finally:
            rec.close(handle)
    return wrapper


def _cache_counter(fn, rec, front_caches):
    """Hit/miss deltas of an ``EvaluationCache`` lookup."""
    @functools.wraps(fn)
    def wrapper(cache, *args, **kwargs):
        hits, misses = cache.hits, cache.misses
        try:
            return fn(cache, *args, **kwargs)
        finally:
            prefix = "serve.front_cache" if id(cache) in front_caches else "core.cache"
            rec.count(f"{prefix}_hits", cache.hits - hits)
            rec.count(f"{prefix}_misses", cache.misses - misses)
    return wrapper


def _backend_factory(fn, rec):
    """Attribute a serial backend's evaluation callback to its caller.

    The time inside ``eval_many_fn`` is the creating layer's work (LUT
    probing, accuracy rows, objective scoring), so it is spanned under
    the innermost span open when the backend was created; what remains
    in ``parallel.map`` is the dispatch overhead.
    """
    from repro.parallel.backend import resolve_backend_name

    @functools.wraps(fn)
    def wrapper(name="auto", eval_many_fn=None, workers=0, *args, **kwargs):
        if (eval_many_fn is not None
                and resolve_backend_name(name, workers) != "multiprocess"):
            owner = rec.current() or "parallel.eval"
            eval_many_fn = _spanned(eval_many_fn, owner, rec, count=False)
        return fn(name, eval_many_fn, workers, *args, **kwargs)
    return wrapper


def _rebind(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _patch(module_name, path, make):
    module = importlib.import_module(module_name)
    if "." not in path:
        original = getattr(module, path)
        _rebind(original, make(original))
        return
    cls_name, attr = path.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(rec, serve):
    for module_name, path, name in SPANNED + (SERVE_SPANNED if serve else []):
        if name == "serve.request":
            _patch(module_name, path, lambda fn: _request(fn, rec))
        else:
            _patch(module_name, path, lambda fn, n=name: _spanned(fn, n, rec))
    front_caches = set()
    for method in ("get_or_eval", "get_or_eval_many"):
        _patch("repro.core.cache", f"EvaluationCache.{method}",
               lambda fn: _cache_counter(fn, rec, front_caches))
    _patch("repro.parallel.backend", "create_backend",
           lambda fn: _backend_factory(fn, rec))
    if serve:
        def service_init(fn):
            @functools.wraps(fn)
            def wrapper(service, *args, **kwargs):
                fn(service, *args, **kwargs)
                front_caches.add(id(service._front_cache))
            return wrapper

        def counted(fn, counter):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.count(counter)
                return fn(*args, **kwargs)
            return wrapper

        _patch("repro.serve.service", "SearchService.__init__", service_init)
        _patch("repro.serve.metrics", "ServeMetrics.record_shed",
               lambda fn: counted(fn, "resilience.shed"))
        _patch("repro.serve.metrics", "ServeMetrics.record_coalesced",
               lambda fn: counted(fn, "serve.coalesced"))


def main():
    trace_out, module = sys.argv[1], sys.argv[2]
    rec = Recorder()
    atexit.register(rec.dump, trace_out)
    serve = module == "repro.serve"
    handle = rec.open("import.repro")
    importlib.import_module("repro.serve.__main__" if serve else "repro.cli")
    rec.close(handle)
    install(rec, serve)
    sys.argv = [module] + sys.argv[3:]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
