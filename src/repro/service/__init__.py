"""Campaign-as-a-service: a fault-tolerant async experiment server.

The :mod:`repro.service` package wraps the campaign runner
(:mod:`repro.experiments.parallel`) behind a long-running job-submission
API on a unix socket:

- :class:`~repro.service.server.ExperimentServer` — the asyncio server:
  admission control (:class:`~repro.service.admission.FairQueue`), load
  shedding (:class:`~repro.service.shedding.SheddingPolicy`),
  per-experiment-kind circuit breaking
  (:class:`~repro.service.breaker.CircuitBreaker`), a journal-backed
  job ledger (:class:`~repro.service.journal.Journal`) that survives
  SIGKILL, and a shared multi-tenant result store
  (:class:`~repro.service.store.SharedResultStore`).
- :class:`~repro.service.client.ServiceClient` — the asyncio client
  (plus a synchronous façade for the CLI).
- :func:`~repro.service.loadgen.run_load` — the synthetic-client chaos
  harness behind ``BENCH_service.json``.

``python -m repro.service --help`` lists the CLI surface; see
``docs/service.md`` for the API, tenancy model, degradation policy, and
resume semantics.
"""

from repro.service.admission import FairQueue
from repro.service.breaker import CircuitBreaker
from repro.service.client import RETRYABLE, ServiceClient, SyncServiceClient
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    JobSpec,
)
from repro.service.journal import (
    GroupCommitter,
    Journal,
    iter_events,
    replay_events,
)
from repro.service.loadgen import (
    build_job_pool,
    percentile,
    run_delivery,
    run_load,
)
from repro.service.server import ExperimentServer, ServerConfig
from repro.service.shedding import SheddingPolicy
from repro.service.store import SharedResultStore, StoredResult

__all__ = [
    "CircuitBreaker",
    "DONE",
    "ExperimentServer",
    "FAILED",
    "FairQueue",
    "GroupCommitter",
    "JobRecord",
    "JobSpec",
    "Journal",
    "QUEUED",
    "RETRYABLE",
    "RUNNING",
    "ServerConfig",
    "ServiceClient",
    "SharedResultStore",
    "SheddingPolicy",
    "StoredResult",
    "SyncServiceClient",
    "build_job_pool",
    "iter_events",
    "percentile",
    "replay_events",
    "run_delivery",
    "run_load",
]
