"""Span tracing installed from the benchmark, around mzinet's public functions.

A span is (id, parent id, thread id, name, start, end, amount).  ``amount`` is
a per-call quantity some wrappers compute (bytes of the input state, normals
drawn, rows returned...); it is 0 elsewhere.  Spans live in memory and are
written out when the run ends.  Every thread keeps its own parent stack,
because ``optimize.scan`` evaluates rows on a thread pool: a span opened on a
pool thread is a root of that thread.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# Layer modules, in reporting order.
LAYERS = ("gaussian", "network", "laws", "optimize", "fock", "tracelab",
          "scenarios", "cli")
GAUSSIAN_OPS = ("apply_squeezer", "apply_displacement", "apply_beam_splitter",
                "apply_mzi", "apply_loss")


def _state_bytes(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return state.mean.nbytes + state.cov.nbytes


def _samples(args, kwargs, result):
    return result.samples.size


def _length(args, kwargs, result):
    return len(result)


def _csv_bytes(args, kwargs, result):
    return sum(path.stat().st_size for path in result)


# Computed amounts per wrapped function.
AMOUNTS = {f"gaussian.{op}": _state_bytes for op in GAUSSIAN_OPS}
AMOUNTS.update({
    "tracelab.synthesize": _samples,
    "tracelab.segment_band_powers": _length,
    "optimize.scan": _length,
    "scenarios.run_scenario": _csv_bytes,
})


class Tracer:
    """Wraps functions so each call records a span."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        counts_evals = name == "optimize.golden_min"
        labels_argv = name == "cli.main"

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            evals = [0]
            if counts_evals:
                objective = args[0]

                def counted(x):
                    evals[0] += 1
                    return objective(x)

                args = (counted,) + args[1:]  # every caller passes f positionally
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((span_id, parent, threading.get_ident(), name,
                                   start, time.perf_counter(), 0))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            value = 0
            if amount is not None:
                value = amount(args, kwargs, result)
            elif counts_evals:
                value = evals[0]
            elif labels_argv:
                argv = args[0] if args else kwargs.get("argv")
                value = " ".join((sys.argv[1:] if argv is None else argv)[:2])
            self.spans.append((span_id, parent, threading.get_ident(), name,
                               start, end, value))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public function of the layer modules at every name any
        mzinet module binds it to; returns a callable that undoes it."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mzinet.{layer}")
            names = getattr(module, "__all__", ("main",))
            for attr in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        undo = []
        holders = [m for n, m in list(sys.modules.items())
                   if n == "mzinet" or n.startswith("mzinet.")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, value))

        def uninstall():
            for holder, attr, value in undo:
                setattr(holder, attr, value)

        return uninstall


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans.  Returns {span id: seconds}."""
    children = defaultdict(list)
    for span in spans:
        if span[1]:
            children[span[1]].append((span[4], span[5]))
    result = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(span_id, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        result[span_id] = (end - start) - covered
    return result


def summarize(spans):
    """Per-function totals: {name: {"calls", "self_s", "amount"}}, plus the
    seconds of each labelled ``cli.main`` call under ``"cli.main:<argv>"``."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "amount": 0})
    for span_id, _, _, name, start, end, value in spans:
        entry = table[name]
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        if isinstance(value, str):
            table[f"cli.main:{value}"]["self_s"] += end - start
            table[f"cli.main:{value}"]["calls"] += 1
        else:
            entry["amount"] += value
    return dict(table)
