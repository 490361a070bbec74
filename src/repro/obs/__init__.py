"""repro.obs -- first-class observability for the redo pipeline.

Three pieces (see DESIGN.md §10):

* :class:`~repro.obs.registry.MetricsRegistry` -- named counters /
  gauges / histograms / series with label support and deterministic
  snapshot-to-dict / JSON export;
* :class:`~repro.obs.lifecycle.RedoLifecycleTracer` -- stamps tracked
  redo records through the pipeline stages on the sim clock, yielding
  per-stage latency histograms and the end-to-end "redo visibility lag"
  (Fig. 11) from instruments instead of bench-side bookkeeping;
* :mod:`repro.obs.render` -- the plain-text tables and figures every
  report prints.

:class:`Histogram` and :class:`Series` also serve free-standing (built
directly, outside any registry) for the workload's query latencies and
sampled progress curves; :func:`percentile` is the one percentile rule.

Activation mirrors :mod:`repro.chaos.sites`: pipeline components declare
their instruments at construction through the module-level helpers
(``obs.counter(...)``); while a registry is :func:`collecting`, the
instruments land there, otherwise they are free-standing (still live, so
``component.stat.value`` reads work with zero setup)::

    registry = MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(...)   # attaches a tracer too
    ...
    print(registry.snapshot().to_text())

``python -m repro.obs`` runs a short scenario and renders its snapshot.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    MetricsSnapshot,
    Series,
    percentile,
)
from repro.obs.lifecycle import STAGES, RedoLifecycleTracer

_ACTIVE: list[MetricsRegistry] = []


def current() -> Optional[MetricsRegistry]:
    """The innermost collecting registry, or None."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collecting(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Route instrument declarations to ``registry`` within the block."""
    _ACTIVE.append(registry)
    try:
        yield registry
    finally:
        _ACTIVE.pop()


def counter(name: str, **labels) -> Counter:
    """Declare a counter in the collecting registry (or free-standing)."""
    registry = current()
    if registry is not None:
        return registry.counter(name, **labels)
    return Counter(name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def gauge(name: str, **labels) -> Gauge:
    registry = current()
    if registry is not None:
        return registry.gauge(name, **labels)
    return Gauge(name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def histogram(name: str, **labels) -> Histogram:
    registry = current()
    if registry is not None:
        return registry.histogram(name, **labels)
    return Histogram(
        name, tuple(sorted((k, str(v)) for k, v in labels.items()))
    )


def series(name: str, **labels) -> Series:
    registry = current()
    if registry is not None:
        return registry.series(name, **labels)
    return Series(name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def tracer_of(registry: Optional[MetricsRegistry]) -> Optional[RedoLifecycleTracer]:
    """The registry's tracer, tolerating a None registry (hot-path sugar)."""
    return registry.tracer if registry is not None else None


__all__ = [
    "STAGES",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RedoLifecycleTracer",
    "Series",
    "collecting",
    "counter",
    "current",
    "gauge",
    "histogram",
    "percentile",
    "series",
    "tracer_of",
]
