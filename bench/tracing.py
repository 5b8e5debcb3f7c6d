"""Span tracing for the traced benchmark run, installed from outside cvres.

``install`` wraps every public function of the six cvres modules and puts the
wrapper in place of the original in every ``cvres`` module namespace that
holds it: ``rates``, ``nonclassicality`` and ``cli`` bind names at import, so
patching only the defining module would miss most calls.  Spans are kept in
memory and handed back by ``Tracer.spans``; ``aggregate`` turns the spans of
many commands into per-layer totals.

In ``cli`` only the entry point ``main`` is wrapped, so its self time is the
whole CLI layer: argument parsing, dispatch, formatting, and the wait on the
figure row thread pool.

The untraced run never imports this module, so it installs no wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time

LAYERS = ("cli", "states", "fock_core", "entropies", "nonclassicality", "rates")
ONLY = {"cli": ("main",)}  # layers in which only the named functions are wrapped


def _sup_gap_exceeded(bound, result) -> dict:
    # the requested tolerance is relative to the best attained envelope value
    tol = bound.arguments.get("tol", 1e-10)
    best = result.value - result.gap
    return {"gap_exceeded": int(result.gap > tol * max(best, 1e-300) + 1e-300)}


def _fd_unconverged(bound, result) -> dict:
    return {"unconverged": int(not result.lower.converged)}


def _gamma_iterations(bound, result) -> dict:
    return {"iterations": int(result.certificate.get("iterations", 0))}


def _bs_bytes(bound, result) -> dict:
    d = int(bound.arguments["cutoff"])
    return {"bytes": 16 * d**4}  # dense complex d^2 x d^2 matrix, computed not measured


def _dilution_rounds(bound, result) -> dict:
    return {"rounds": int(result.details["rounds_summed"])}


# counters read from a call's bound arguments and its result
ANNOTATIONS = {
    "nonclassicality.coherent_sup_certified": _sup_gap_exceeded,
    "nonclassicality.fock_diagonal_ncm": _fd_unconverged,
    "nonclassicality.gamma_lower_bound": _gamma_iterations,
    "fock_core.beam_splitter_unitary": _bs_bytes,
    "rates.fock_dilution": _dilution_rounds,
}


class Tracer:
    """Records (id, name, start, end, parent, thread, counters) per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        annotate = ANNOTATIONS.get(name)
        signature = inspect.signature(fn) if annotate else None
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            counters = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counters = annotate(bound, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append([span_id, name, start, end, parent, threading.get_ident(), counters])

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer in every namespace that holds them."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cvres.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or attr not in ONLY.get(layer, (attr,)):
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "cvres" or mod_name.startswith("cvres.")):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def aggregate(spans_by_command: list[list[list]]) -> dict:
    """Per-name calls, self seconds and summed counters over many commands.

    Self time is a span's duration minus the durations of its direct children
    (same thread, so children never overlap).  ``bytes`` is kept as a maximum:
    it sizes the largest dense build, which is what peak memory follows.
    """
    totals: dict[str, dict] = {}
    for spans in spans_by_command:
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span_id, name, start, end, _, _, counters in spans:
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
            for key, val in (counters or {}).items():
                if key == "bytes":
                    entry[key] = max(entry.get(key, 0), val)
                else:
                    entry[key] = entry.get(key, 0) + val
    return totals
