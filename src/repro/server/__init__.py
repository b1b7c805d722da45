"""The serving layer: an asyncio TCP/JSON-line query service.

``python -m repro serve`` stands up a long-running multi-client server
over one :class:`~repro.db.database.SpatialDatabase`:

* each connection pins a snapshot :meth:`~repro.db.database.
  SpatialDatabase.session` — reads are stable no matter how many
  writers commit concurrently, and a dropped connection releases its
  pin with no copy-on-write residue;
* an admission layer (:mod:`repro.server.admission`) enforces a global
  in-flight limit and per-client quotas over a bounded queue, shedding
  load with typed ``quota`` / ``overload`` / ``timeout`` rejections;
* a batching layer (:mod:`repro.server.batching`) coalesces concurrent
  point lookups and overlapping range queries into shared scans,
  byte-identical to per-request execution;
* ``/stats`` and the ``SERVER`` trace section surface the counters
  (queue depth, batch sizes, admissions/rejections).
"""

from repro.server.admission import (
    AdmissionController,
    AdmissionTimeout,
    DeadlineExpired,
    Overloaded,
    QuotaExceeded,
    Rejection,
)
from repro.server.batching import (
    QueryBatcher,
    batched_range_matches,
    merge_intervals,
)
from repro.server.breaker import (
    BreakerOpen,
    CircuitBreaker,
    HealthWindow,
    OverloadController,
)
from repro.server.chaos import (
    ChaosReport,
    run_chaos_episode,
    run_chaos_sweep,
)
from repro.server.client import QueryClient, ServerError, ServerRejected
from repro.server.protocol import FrameError, ProtocolError
from repro.server.service import SITE_DISPATCH, ClientState, QueryService
from repro.server.tcp import (
    SITE_FRAME_READ,
    SITE_FRAME_WRITE,
    QueryServer,
    serve,
)

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "BreakerOpen",
    "ChaosReport",
    "CircuitBreaker",
    "ClientState",
    "DeadlineExpired",
    "FrameError",
    "HealthWindow",
    "Overloaded",
    "OverloadController",
    "ProtocolError",
    "QueryBatcher",
    "QueryClient",
    "QueryServer",
    "QueryService",
    "QuotaExceeded",
    "Rejection",
    "SITE_DISPATCH",
    "SITE_FRAME_READ",
    "SITE_FRAME_WRITE",
    "ServerError",
    "ServerRejected",
    "batched_range_matches",
    "merge_intervals",
    "run_chaos_episode",
    "run_chaos_sweep",
    "serve",
]
