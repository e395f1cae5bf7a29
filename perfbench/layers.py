"""Outside-in layer trace: wrap public callables, time spans per thread.

The program carries no tracing of its own yet, so the traced run
replaces a fixed list of public callables with timing wrappers for the
duration of the run and puts every original back afterwards.

A span is one call (or one ``next()`` of a wrapped generator). Spans
nest per thread: a layer's self time is its total minus the spans that
ran inside it. Aggregates are kept per thread and merged on read, so
the sink's consumer thread and the dispatch thread never share a
counter.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from repro import backends
from repro.backends import recording
from repro.backends.corpus import RecordedCorpus
from repro.discriminators.mlr import MLRDiscriminator
from repro.dsp.matched_filter import FusedKernelBank
from repro.ml.dataset import StandardScaler
from repro.ml.nn.layers import Dense
from repro.pipeline import stages
from repro.pipeline.batching import MicroBatcher
from repro.pipeline.drift import DriftMonitor
from repro.pipeline.registry import CalibrationRegistry
from repro.pipeline.shm import SharedTraceBlock
from repro.pipeline.sink import EraserSpeculationSink, QueueingSink
from repro.pipeline.source import ShotChunk

_MISSING = object()

#: (owner, attribute, span name, kind). ``kind`` is ``call`` for a plain
#: call, ``iter`` for a generator timed per ``next()``.
TARGETS = (
    (FusedKernelBank, "scores", "mf_gemm", "call"),
    (StandardScaler, "transform_inplace", "scale", "call"),
    (MLRDiscriminator, "head_levels_and_margin", "heads", "call"),
    (Dense, "forward", "dense", "call"),
    (stages, "digits_to_state", "digits", "call"),
    (stages.BatchDiscriminationEngine, "process", "engine", "call"),
    (MicroBatcher, "rebatch", "rebatch", "iter"),
    (QueueingSink, "consume", "sink_enqueue", "call"),
    (QueueingSink, "close", "sink_drain", "call"),
    (EraserSpeculationSink, "consume", "sink_work", "call"),
    (DriftMonitor, "observe", "drift", "call"),
    (ShotChunk, "joint_labels", "labels", "call"),
    (RecordedCorpus, "chunks", "acquire", "iter"),
    (backends, "load_corpus", "corpus_load", "call"),
    (recording, "load_corpus", "corpus_load", "call"),
    (CalibrationRegistry, "get_or_fit", "registry_load", "call"),
    (SharedTraceBlock, "__init__", "shm_publish", "call"),
    (SharedTraceBlock, "unlink", "shm_unlink", "call"),
)

#: What each target attribute holds when nothing is installed; read once
#: at import, before any tracer can have replaced one.
PRISTINE = {
    (owner, attr): vars(owner).get(attr, _MISSING)
    for owner, attr, _, _ in TARGETS
}


def assert_pristine() -> None:
    """Raise unless every target attribute is its original object."""
    changed = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in PRISTINE.items()
        if vars(owner).get(attr, _MISSING) is not original
    ]
    if changed:
        raise RuntimeError(f"trace wrappers still installed: {changed}")


class _ThreadSpans:
    """Span aggregates of one thread."""

    def __init__(self, thread: threading.Thread) -> None:
        self.is_main = thread is threading.main_thread()
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.root_seconds = 0.0
        self.stack: list[list] = []


class Tracer:
    """Installs the wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_guard = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self._dense_position: dict[int, int] = {}
        self.counts: dict[str, int] = defaultdict(int)

    # -- span bookkeeping ------------------------------------------------

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread())
            self._local.spans = spans
            with self._threads_guard:
                self._threads.append(spans)
        return spans

    def _enter(self, name: str) -> tuple[_ThreadSpans, float]:
        spans = self._spans()
        spans.stack.append([name, 0.0])
        return spans, time.perf_counter()

    @staticmethod
    def _exit(spans: _ThreadSpans, start: float) -> None:
        seconds = time.perf_counter() - start
        name, child = spans.stack.pop()
        spans.total[name] += seconds
        spans.child[name] += child
        spans.calls[name] += 1
        if spans.stack:
            spans.stack[-1][1] += seconds
        else:
            spans.root_seconds += seconds

    def reset(self) -> None:
        """Drop every aggregate (open spans keep running)."""
        with self._threads_guard:
            for spans in self._threads:
                spans.total.clear()
                spans.child.clear()
                spans.calls.clear()
                spans.root_seconds = 0.0
        self.counts.clear()

    def snapshot(self) -> "SpanTotals":
        """Aggregates merged over threads."""
        totals = SpanTotals()
        with self._threads_guard:
            for spans in self._threads:
                for name, seconds in spans.total.items():
                    totals.total[name] += seconds
                    totals.child[name] += spans.child[name]
                    totals.calls[name] += spans.calls[name]
                if spans.is_main:
                    totals.main_root_seconds += spans.root_seconds
        totals.counts.update(self.counts)
        return totals

    # -- wrappers ----------------------------------------------------------

    def _call_wrapper(self, original, name: str):
        tracer = self

        def traced(*args, **kwargs):
            spans, start = tracer._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(spans, start)

        return traced

    def _iter_wrapper(self, original, name: str):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.timed_iter(name, original(*args, **kwargs))

        return traced

    def timed_iter(self, name: str, iterator):
        """Yield from ``iterator``, timing each ``next()`` as a span."""
        it = iter(iterator)
        try:
            while True:
                spans, start = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(spans, start)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _dense_wrapper(self, original):
        tracer = self

        def traced(layer, *args, **kwargs):
            position = tracer._dense_position.get(id(layer))
            name = "dense" if position is None else f"head_l{position}"
            spans, start = tracer._enter(name)
            try:
                return original(layer, *args, **kwargs)
            finally:
                tracer._exit(spans, start)

        return traced

    def _heads_wrapper(self, original):
        tracer = self
        timed = self._call_wrapper(original, "heads")

        def traced(discriminator, *args, **kwargs):
            # Dense.forward learns its position in a head from here.
            for model in discriminator.models:
                for index, layer in enumerate(model.network.layers):
                    tracer._dense_position[id(layer)] = index + 1
            return timed(discriminator, *args, **kwargs)

        return traced

    def _enqueue_wrapper(self, original):
        tracer = self
        timed = self._call_wrapper(original, "sink_enqueue")

        def traced(sink, *args, **kwargs):
            if sink.pending >= sink.max_pending:
                tracer.counts["sink_blocked"] += 1
            return timed(sink, *args, **kwargs)

        return traced

    def _wrap(self, owner, attr: str, name: str, kind: str, original):
        if owner is MLRDiscriminator and attr == "head_levels_and_margin":
            return self._heads_wrapper(original)
        if owner is Dense:
            return self._dense_wrapper(original)
        if owner is QueueingSink and attr == "consume":
            return self._enqueue_wrapper(original)
        if kind == "iter":
            return self._iter_wrapper(original, name)
        return self._call_wrapper(original, name)

    def install(self) -> "Tracer":
        assert_pristine()
        for owner, attr, name, kind in TARGETS:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(owner, attr, name, kind, original))
            self._installed.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        """Put every original back, then prove it."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        assert_pristine()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class SpanTotals:
    """Merged span aggregates: totals, child time, call counts."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.main_root_seconds = 0.0

    def self_seconds(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def per_call_ms(self, name: str) -> float:
        calls = self.calls[name]
        return self.total[name] / calls * 1e3 if calls else 0.0
