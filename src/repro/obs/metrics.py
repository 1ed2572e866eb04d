"""The metrics registry: counters, gauges and histograms.

Every instrumented component in the pipeline registers its series here
(packets sniffed per medium, per-module handle latency and invocation
count, bus publish/deliver/error per topic, PeerLink sends/acks/retries,
supervisor state transitions).  Registration is idempotent — asking for
an existing metric returns it — so hooks scattered across packages
share series without coordination.

**Determinism contract.**  Counter and gauge values derive only from
simulated behaviour, so two same-seed runs export identical values.
Wall-clock measurements (histogram observations fed from
``perf_counter``) are *wall metrics*: their value fields are exported
under a literal ``"wall"`` key, which
:func:`repro.obs.export.strip_wall` removes before any byte-for-byte
comparison.  The observation *count* of a wall histogram is still
deterministic (it counts invocations, not time) and is exported outside
the ``"wall"`` key.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Default histogram buckets, microseconds (wall-clock handle latency).
DEFAULT_BUCKETS_US = (10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 25000.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """A canonical, hashable, sortable key for a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Base class: a named family of series, one per label set."""

    KIND = "metric"

    def __init__(self, name: str, help: str = "", wall: bool = False) -> None:
        self.name = name
        self.help = help
        self.wall = wall

    def series(self) -> Iterator[Tuple[LabelKey, Any]]:
        raise NotImplementedError

    def snapshot(self) -> List[Dict[str, Any]]:
        """One JSON-safe dict per series, sorted by label key."""
        out = []
        for key, value in sorted(self.series()):
            entry: Dict[str, Any] = {
                "type": "metric",
                "kind": self.KIND,
                "name": self.name,
                "labels": dict(key),
            }
            entry.update(self._value_fields(value))
            out.append(entry)
        return out

    def _value_fields(self, value: Any) -> Dict[str, Any]:
        if self.wall:
            return {"wall": {"value": value}}
        return {"value": value}


class BoundCounter:
    """One counter series with its label key pre-resolved.

    Hot paths (the per-frame delivery loop, the per-capture hooks) hoist
    the name lookup and label-key canonicalisation out of the loop by
    binding once via :meth:`Counter.labelled`; each ``inc`` is then a
    plain dict update.  Binding creates no series: a handle that is
    never incremented leaves the export untouched.
    """

    __slots__ = ("_values", "_key")

    def __init__(self, values: Dict[LabelKey, float], key: LabelKey) -> None:
        self._values = values
        self._key = key

    def inc(self, amount: float = 1) -> None:
        self._values[self._key] = self._values.get(self._key, 0) + amount

    def value(self) -> float:
        return self._values.get(self._key, 0)


class Counter(Metric):
    """A monotonically increasing count."""

    KIND = "counter"

    def __init__(self, name: str, help: str = "", wall: bool = False) -> None:
        super().__init__(name, help, wall)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def labelled(self, **labels: Any) -> BoundCounter:
        """A pre-bound single-series view for hot-path increments."""
        return BoundCounter(self._values, _label_key(labels))

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def series(self) -> Iterator[Tuple[LabelKey, Any]]:
        return iter(self._values.items())


class Gauge(Metric):
    """A value that goes up and down (window sizes, CPU%, RAM)."""

    KIND = "gauge"

    def __init__(self, name: str, help: str = "", wall: bool = False) -> None:
        super().__init__(name, help, wall)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def labelled(self, **labels: Any) -> "BoundGauge":
        """A pre-bound single-series view for hot-path updates."""
        return BoundGauge(self._values, _label_key(labels))

    def value(self, **labels: Any) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def series(self) -> Iterator[Tuple[LabelKey, Any]]:
        return iter(self._values.items())


class BoundGauge:
    """One gauge series with its label key pre-resolved."""

    __slots__ = ("_values", "_key")

    def __init__(self, values: Dict[LabelKey, float], key: LabelKey) -> None:
        self._values = values
        self._key = key

    def set(self, value: float) -> None:
        self._values[self._key] = value


class KeyedHandles(dict):
    """Key -> bound handle of one metric, bound on the key's first lookup.

    The hot-path form of a series family, made by
    :meth:`MetricsRegistry.keyed`: ``handles[key]`` is
    ``metric.labelled(**{label: key}, **labels)``, resolved once per key
    and then a plain dict hit.  The metric, too, is registered on the
    first lookup, so binding a sink costs one empty map per family and,
    like ``labelled``, creates no series.  The map holds its registry,
    so it pickles together with the registry it writes into.
    """

    __slots__ = ("registry", "kind", "name", "wall", "label", "labels")

    def __init__(
        self,
        registry: "MetricsRegistry",
        kind: str,
        name: str,
        wall: bool,
        label: str,
        labels: Dict[str, Any],
    ) -> None:
        self.registry = registry
        self.kind = kind
        self.name = name
        self.wall = wall
        self.label = label
        self.labels = labels

    def __missing__(self, key: Any) -> Any:
        metric = getattr(self.registry, self.kind)(self.name, wall=self.wall)
        handle = self[key] = metric.labelled(**{self.label: key}, **self.labels)
        return handle


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * (bucket_count + 1)  # +1 = +Inf bucket
        self.count = 0
        self.sum = 0.0


class Histogram(Metric):
    """A bucketed distribution (wall-clock latencies, retry tails)."""

    KIND = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS_US,
        wall: bool = False,
    ) -> None:
        super().__init__(name, help, wall)
        self.buckets = tuple(sorted(buckets))
        self._values: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_label_key(labels), value)

    def labelled(self, **labels: Any) -> "BoundHistogram":
        """A pre-bound single-series view for hot-path observations."""
        return BoundHistogram(self, _label_key(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        series = self._values.get(key)
        if series is None:
            series = self._values[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.sum += value
        # The first bound >= value; past the last bound is the +Inf bucket.
        series.bucket_counts[bisect_left(self.buckets, value)] += 1

    def count(self, **labels: Any) -> int:
        series = self._values.get(_label_key(labels))
        return series.count if series else 0

    def sum_of(self, **labels: Any) -> float:
        series = self._values.get(_label_key(labels))
        return series.sum if series else 0.0

    def series(self) -> Iterator[Tuple[LabelKey, Any]]:
        return iter(self._values.items())

    def _value_fields(self, value: _HistogramSeries) -> Dict[str, Any]:
        distribution = {
            "sum": value.sum,
            "buckets": {
                ("+Inf" if index == len(self.buckets) else repr(bound)): count
                for index, (bound, count) in enumerate(
                    list(zip(self.buckets, value.bucket_counts))
                    + [(float("inf"), value.bucket_counts[-1])]
                )
            },
        }
        fields: Dict[str, Any] = {"count": value.count}
        if self.wall:
            fields["wall"] = distribution
        else:
            fields.update(distribution)
        return fields


class BoundHistogram:
    """One histogram series with its label key pre-resolved."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: LabelKey) -> None:
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        self._histogram._observe(self._key, value)

    def time(self, call: Callable[[Any], Any], arg: Any) -> Any:
        """Return ``call(arg)``, observing its wall time in microseconds.

        The observation is made even when ``call`` raises, so the
        series counts every invocation.  This is how ``repro.core``
        times module ``handle`` calls without reading the wall clock
        itself (KL001).
        """
        started = perf_counter()
        try:
            return call(arg)
        finally:
            self._histogram._observe(self._key, (perf_counter() - started) * 1e6)


class MetricsRegistry:
    """Name -> metric, with idempotent registration and exporters."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {existing.KIND}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", wall: bool = False) -> Counter:
        return self._get(Counter, name, help, wall=wall)

    def gauge(self, name: str, help: str = "", wall: bool = False) -> Gauge:
        """``wall=True`` marks a nondeterministic series (RSS, backlog
        sampled from a live queue): its value exports under a ``"wall"``
        key and is stripped before byte-identity comparisons."""
        return self._get(Gauge, name, help, wall=wall)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS_US,
        wall: bool = False,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets, wall=wall)

    def keyed(
        self, kind: str, name: str, label: str, *, wall: bool = False, **labels: Any
    ) -> KeyedHandles:
        """Bound handles of the ``kind`` ("counter", "gauge" or "histogram")
        metric ``name``, one per value of ``label``; ``labels`` are fixed.
        See :class:`KeyedHandles`."""
        return KeyedHandles(self, kind, name, wall, label, labels)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every series of every metric, in deterministic order."""
        out: List[Dict[str, Any]] = []
        for name in sorted(self._metrics):
            out.extend(self._metrics[name].snapshot())
        return out

    def prometheus_text(self) -> str:
        """A Prometheus-style text snapshot of every series."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.KIND}")
            for key, value in sorted(metric.series()):
                label_text = ",".join(f'{k}="{v}"' for k, v in key)
                suffix = f"{{{label_text}}}" if label_text else ""
                if isinstance(metric, Histogram):
                    lines.append(f"{name}_count{suffix} {value.count}")
                    lines.append(f"{name}_sum{suffix} {value.sum:g}")
                else:
                    lines.append(f"{name}{suffix} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")
