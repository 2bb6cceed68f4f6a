"""The network serving layer: asyncio HTTP/WebSocket front end over shards.

``gdatalog serve`` has two transports sharing one wire protocol
(:mod:`repro.server.protocol`):

* the stdin JSON-lines loop (the default; pipeline-friendly), and
* ``--http HOST:PORT`` — this package: an asyncio HTTP/1.1 + WebSocket
  server (:mod:`repro.server.http`) that routes each request by canonical
  program key to one of N persistent worker processes
  (:mod:`repro.server.shards`, each with an isolated
  :class:`~repro.runtime.service.InferenceService` cache and automatic
  crash respawn), coalesces exact queries that arrive behind an in-flight
  pass into shared :class:`~repro.runtime.batch.QueryBatch` passes
  (:mod:`repro.server.batching`), sheds overload with per-client token
  buckets and bounded shard queues (:mod:`repro.server.admission`), and
  exposes Prometheus metrics (:mod:`repro.server.metrics`).

:mod:`repro.server.client` is the matching minimal asyncio client, used by
the test suite, the bundled load driver, and the CI smoke round-trip.
"""

from repro.server.admission import AdmissionController, Rejection, Ticket, TokenBucket
from repro.server.batching import MicroBatcher
from repro.server.http import InferenceServer, ServerConfig, serve_http
from repro.server.metrics import Histogram, MetricsRegistry
from repro.server.shards import ShardConfig, ShardRouter, WorkerCrashed, canonical_program_key

__all__ = [
    "AdmissionController",
    "Rejection",
    "Ticket",
    "TokenBucket",
    "MicroBatcher",
    "InferenceServer",
    "ServerConfig",
    "serve_http",
    "Histogram",
    "MetricsRegistry",
    "ShardConfig",
    "ShardRouter",
    "WorkerCrashed",
    "canonical_program_key",
]
