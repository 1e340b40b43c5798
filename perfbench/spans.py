"""Span tracing around the calls into each cfmc layer, from outside the package.

The tracer replaces module attributes (for example ``cfmc.estimator.select_lambda``
or ``cfmc.estimator.cho_factor``) with thin wrappers that record one span per
call: name, start, end and the span that was open when the call began.  Every
namespace that holds a reference to a wrapped function gets the wrapper, so
calls made through ``from .estimator import ...`` bindings are seen too.  The
originals are put back when the ``installed`` block exits.

Spans live in memory; self times and counts are computed after the run.  A
worker thread of the bench's pool has no open span of its own when it starts a
task, so its outermost spans are parented to the span open on the thread that
installed the tracer (the ``run_experiment`` call that owns the pool).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# Modules whose public functions are wrapped, by their short layer name.
LAYER_MODULES = ("targets", "data", "kernel", "estimator", "baselines", "bench", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request


class Tracer:
    """Collects spans and per-call counts while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.request = None
        self.drawn: list[np.ndarray] = []
        self._seen_errors: list[BaseException] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._owner_stack and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def note_error(self, exc: BaseException) -> None:
        """Count an exception once, at the innermost wrapped call it leaves."""
        with self._lock:
            if any(exc is seen for seen in self._seen_errors):
                return
            self._seen_errors.append(exc)
            self.errors[type(exc).__name__] += 1

    def wrap(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.note_error(exc)
                raise
            finally:
                tracer.close(span)
            if measure is not None:
                measure(tracer, args, kwargs, result)
            return result

        return wrapper


# Measures run after the span closes, in the caller's time; each is O(1)
# except that drawn datasets are only collected here and counted later.
# Counts are integers so that their sum does not depend on thread order.
def _stein_entries(tracer, args, kwargs, result):
    tracer.add("kernel.stein_matrix_entries", int(np.asarray(result).size))


def _cholesky_flops(tracer, args, kwargs, result):
    tracer.add("estimator.cholesky_m3", int(np.shape(args[0])[0]) ** 3)


def _cv_candidates(tracer, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    tracer.add("estimator.cv_candidates", len(grid))


def _dataset_rows(tracer, args, kwargs, result):
    tracer.drawn.append(result.points)


def duplicate_share(datasets) -> float:
    """Share of rows, over all datasets, that repeat an earlier row of their dataset."""
    rows = sum(points.shape[0] for points in datasets)
    unique = sum(np.unique(points, axis=0).shape[0] for points in datasets)
    return (rows - unique) / rows if rows else 0.0


def _targets(cfmc):
    """(owner, attribute, span name, measure) for everything to wrap.

    Public functions of each layer module are wrapped under
    ``<layer>.<function>``; a few private or foreign callables that carry a
    layer of their own are added by name.
    """
    targets = []
    for layer in LAYER_MODULES:
        module = getattr(cfmc, layer)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            targets.append((module, attr, f"{layer}.{attr}", None))
    extra = [
        (cfmc.estimator, "cho_factor", "estimator.cholesky", _cholesky_flops),
        (cfmc.estimator, "cho_solve", "estimator.solve", None),
        (cfmc.estimator, "_fit_coefficients", "estimator.fit", None),
        (cfmc.bench, "_run_method", "bench.run_method", None),
        (cfmc.data.ScoredDataset, "subset", "data.subset", None),
        (cfmc.targets.TargetProblem, "dataset", "targets.draw", _dataset_rows),
    ]
    measures = {
        "kernel.stein_kernel_matrix": _stein_entries,
        "estimator.cross_validate": _cv_candidates,
        "data.read_sample_file": _dataset_rows,
    }
    targets = [(o, a, n, measures.get(n, m)) for o, a, n, m in targets]
    return targets + extra


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced callable for the duration of the block.

    Yields the list of (namespace, attribute, original) replacements; all of
    them are restored on exit, also when the block raises.
    """
    import cfmc
    import cfmc.cli
    import cfmc.diagnostics

    namespaces = [cfmc] + [getattr(cfmc, name) for name in LAYER_MODULES + ("diagnostics",)]
    replaced = []
    tracer._owner_stack = tracer._stack()
    try:
        for owner, attr, name, measure in _targets(cfmc):
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, measure)
            if inspect.isclass(owner):
                replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        replaced.append((namespace, key, original))
                        setattr(namespace, key, wrapper)
        yield replaced
    finally:
        for namespace, key, original in reversed(replaced):
            setattr(namespace, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``.

    A span's self time is its duration minus the length of the union of its
    children's intervals (clipped to the span), so children running at the
    same time on different pool threads are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[id(span)] = (span.end - span.start) - covered
    return result


class SpanStats:
    """Per-name totals: calls, duration and self time."""

    def __init__(self, spans: list[Span]):
        own = self_times(spans)
        self.calls = Counter()
        self.duration = defaultdict(float)
        self.self_time = defaultdict(float)
        self.top_calls = Counter()
        for span in spans:
            self.calls[span.name] += 1
            self.duration[span.name] += span.end - span.start
            self.self_time[span.name] += own[id(span)]
            layer = span.name.split(".", 1)[0]
            if span.parent is None or not span.parent.name.startswith(layer + "."):
                self.top_calls[layer] += 1

    def layer_self(self, layer: str, exclude=()) -> float:
        prefix = layer + "."
        return sum(
            t for name, t in self.self_time.items() if name.startswith(prefix) and name not in exclude
        )


def layer_metrics(tracer: Tracer, pool_threads: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase; units are in BENCHMARK.json."""
    stats = SpanStats(tracer.spans)
    st, calls, dur = stats.self_time, stats.calls, stats.duration
    counts = tracer.counts
    estimator_named = {
        "estimator.select_lambda",
        "estimator.cholesky",
        "estimator.solve",
        "estimator.discrepancy_from_matrices",
        "estimator.discrepancy",
        "estimator.cross_validate",
        "estimator.fit",
    }
    write_names = {"bench.write_csv", "bench.write_json", "bench.report_summary"}
    busy = dur["bench.cell_dataset"] + dur["bench.run_method"]
    capacity = pool_threads * dur["bench.run_experiment"]
    return {
        "kernel.stein_matrix_s": st["kernel.stein_kernel_matrix"],
        "kernel.stein_matrix_calls": calls["kernel.stein_kernel_matrix"],
        "kernel.stein_matrix_entries": counts["kernel.stein_matrix_entries"],
        "kernel.gram_self_s": st["kernel.gram_matrix"],
        "kernel.gram_calls": calls["kernel.gram_matrix"],
        "estimator.select_lambda_s": st["estimator.select_lambda"],
        "estimator.select_lambda_calls": calls["estimator.select_lambda"],
        "estimator.cholesky_s": st["estimator.cholesky"],
        "estimator.cholesky_calls": calls["estimator.cholesky"],
        "estimator.cholesky_flops": counts["estimator.cholesky_m3"] / 3.0,
        "estimator.solve_s": st["estimator.solve"],
        "estimator.solve_calls": calls["estimator.solve"],
        "estimator.discrepancy_self_s": (
            st["estimator.discrepancy_from_matrices"] + st["estimator.discrepancy"]
        ),
        "estimator.cv_self_s": st["estimator.cross_validate"],
        "estimator.cv_candidates": counts["estimator.cv_candidates"],
        "estimator.fit_self_s": st["estimator.fit"],
        "estimator.other_self_s": stats.layer_self("estimator", estimator_named),
        "estimator.errors": sum(tracer.errors.values()),
        "data.subset_s": st["data.subset"],
        "data.subset_calls": calls["data.subset"],
        "data.duplicate_share": duplicate_share(tracer.drawn),
        "data.read_s": dur["data.read_sample_file"],
        "targets.draw_s": st["targets.draw"],
        "targets.draw_calls": calls["targets.draw"],
        "baselines.s": stats.layer_self("baselines"),
        "baselines.calls": stats.top_calls["baselines"],
        "bench.pool_busy_share": busy / capacity if capacity else 0.0,
        "bench.oracle_s": dur["targets.oracle_mean"],
        "bench.self_s": stats.layer_self("bench", write_names),
        "bench.write_s": dur["bench.write_csv"] + dur["bench.write_json"],
        "cli.self_s": stats.layer_self("cli"),
        "trace.spans": len(tracer.spans),
    }
