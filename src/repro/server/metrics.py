"""Prometheus-text-format metrics for the inference server.

A tiny, dependency-free subset of the Prometheus client model: labelled
counters, labelled gauges, and fixed-bucket cumulative histograms, rendered
in the text exposition format by :meth:`MetricsRegistry.render`.  The
registry is lock-guarded — the asyncio event loop observes latencies while
shard reader threads and the ``/metrics`` renderer read concurrently.

The server publishes, per scrape:

* ``gdatalog_requests_total{route,status}`` and
  ``gdatalog_request_seconds{route}`` latency histograms;
* ``gdatalog_rejected_total{reason}`` admission-control rejections;
* ``gdatalog_microbatch_{batches,requests,coalesced}_total``: exact-query
  passes sent to the shards, the requests they carried, and the requests
  that shared another request's pass (queued behind an in-flight one);
* per-shard service-cache counters (hits/misses/slice/component/evictions,
  from :meth:`ServiceStats.snapshot`), join-engine ``JOIN_STATS`` counters,
  and worker respawn counts — gathered live from the shard workers.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

__all__ = ["Histogram", "MetricsRegistry", "LATENCY_BUCKETS"]

#: Request-latency bucket upper bounds, in seconds (log-ish spacing from
#: 1 ms to 10 s; +Inf is implicit).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class Histogram:
    """A cumulative fixed-bucket histogram (thread-safe).

    Tracks per-bucket counts plus ``sum``/``count``, and can report
    quantiles (bucket-upper-bound approximation) for human-facing summaries
    like the load driver's p50/p99 table.
    """

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS):
        self.buckets: tuple[float, ...] = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf is the last slot
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            slot = len(self.buckets)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = index
                    break
            self._counts[slot] += 1
            self.sum += value
            self.count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """(per-bucket counts, sum, count) under the lock."""
        with self._lock:
            return list(self._counts), self.sum, self.count

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding rank q.

        Values beyond the last finite bucket report that bound (the text
        format has no better answer for the +Inf bucket either).
        """
        counts, _, total = self.snapshot()
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            cumulative += counts[index]
            if cumulative >= rank:
                return bound
        return self.buckets[-1]


class MetricsRegistry:
    """Named counters, gauges and histograms, rendered as Prometheus text."""

    def __init__(self, namespace: str = "gdatalog"):
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
        self._gauges: dict[str, dict[tuple[tuple[str, str], ...], float]] = {}
        self._histograms: dict[str, dict[tuple[tuple[str, str], ...], Histogram]] = {}
        self._help: dict[str, str] = {}

    # -- updates -------------------------------------------------------------------

    @staticmethod
    def _key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))

    def describe(self, name: str, help_text: str) -> None:
        with self._lock:
            self._help[name] = help_text

    def inc(self, name: str, labels: Mapping[str, str] | None = None, amount: float = 1) -> None:
        with self._lock:
            series = self._counters.setdefault(name, {})
            key = self._key(labels)
            series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, labels: Mapping[str, str] | None = None) -> None:
        with self._lock:
            self._gauges.setdefault(name, {})[self._key(labels)] = value

    def set_counter(self, name: str, value: float, labels: Mapping[str, str] | None = None) -> None:
        """Overwrite a counter series with an externally-tracked cumulative total.

        For monotone totals owned elsewhere (the journal's append/truncate
        counts, the fault injector's fired count): the owner counts, the
        registry only renders — scraping must not race an owner that keeps
        its own lock.
        """
        with self._lock:
            self._counters.setdefault(name, {})[self._key(labels)] = value

    def histogram(self, name: str, labels: Mapping[str, str] | None = None) -> Histogram:
        """The (created-on-first-use) histogram for a label set."""
        with self._lock:
            series = self._histograms.setdefault(name, {})
            key = self._key(labels)
            if key not in series:
                series[key] = Histogram()
            return series[key]

    def observe(self, name: str, value: float, labels: Mapping[str, str] | None = None) -> None:
        self.histogram(name, labels).observe(value)

    def counter_value(self, name: str, labels: Mapping[str, str] | None = None) -> float:
        with self._lock:
            return self._counters.get(name, {}).get(self._key(labels), 0)

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """The registry in the Prometheus text exposition format."""
        with self._lock:
            counters = {name: dict(series) for name, series in self._counters.items()}
            gauges = {name: dict(series) for name, series in self._gauges.items()}
            histograms = {
                name: dict(series) for name, series in self._histograms.items()
            }
            help_texts = dict(self._help)
        lines: list[str] = []

        def emit_header(name: str, kind: str) -> None:
            if name in help_texts:
                lines.append(f"# HELP {name} {help_texts[name]}")
            lines.append(f"# TYPE {name} {kind}")

        for name in sorted(counters):
            emit_header(name, "counter")
            for key, value in sorted(counters[name].items()):
                lines.append(f"{name}{_format_labels(dict(key))} {_format_value(value)}")
        for name in sorted(gauges):
            emit_header(name, "gauge")
            for key, value in sorted(gauges[name].items()):
                lines.append(f"{name}{_format_labels(dict(key))} {_format_value(value)}")
        for name in sorted(histograms):
            emit_header(name, "histogram")
            for key, histogram in sorted(histograms[name].items()):
                labels = dict(key)
                counts, total_sum, total_count = histogram.snapshot()
                cumulative = 0
                for index, bound in enumerate(histogram.buckets):
                    cumulative += counts[index]
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                    )
                bucket_labels = dict(labels)
                bucket_labels["le"] = "+Inf"
                lines.append(f"{name}_bucket{_format_labels(bucket_labels)} {total_count}")
                lines.append(f"{name}_sum{_format_labels(labels)} {repr(total_sum)}")
                lines.append(f"{name}_count{_format_labels(labels)} {total_count}")
        return "\n".join(lines) + "\n"
