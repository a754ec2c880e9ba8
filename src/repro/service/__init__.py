"""Reliability-as-a-service: an async query layer over the artifact
store and experiment machinery.

Clients ask "design X, workload Y, year t" and receive latency /
error-rate / switching statistics as typed JSON records, served from a
hot in-memory LRU tier, the on-disk
:class:`~repro.experiments.store.ArtifactStore`, or a single-flight
batched backend build -- with per-request deadlines and graceful
degradation instead of connection failures.  A build is a ``query``
job on the one parallel mechanism, a :mod:`repro.distrib` worker pool
(``--pool local:1`` by default, or ``tcp:`` daemons).

Run it::

    python -m repro service serve --store .repro-store --pool local:1
    python -m repro service query --width 16 --kind column --years 0,10

See DESIGN.md section 13 for the architecture and the degradation
matrix.
"""

from .backend import Backend, compute_direct
from .client import (
    AsyncServiceClient,
    ServiceClient,
    run_concurrent_queries,
)
from .protocol import QuerySpec
from .server import (
    ReliabilityService,
    ServiceConfig,
    ServiceHandle,
    serve_in_background,
)

__all__ = [
    "AsyncServiceClient",
    "Backend",
    "QuerySpec",
    "ReliabilityService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "compute_direct",
    "run_concurrent_queries",
    "serve_in_background",
]
