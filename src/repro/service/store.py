"""Shared multi-tenant result store over the content-addressed cache.

The service promotes :class:`~repro.experiments.persist.ResultCache`
to a shared store: every tenant's results land in one sharded,
atomically-published, CRC-framed cache, keyed purely by the *content*
of the computation — so two tenants submitting identical configurations
share one computation and one entry. The cache directory is the only
place results live on disk. This wrapper adds the tenancy accounting
the serving layer reports (per-tenant hit/miss/store counters,
cross-tenant dedup) plus an **in-memory LRU** over keys
(:attr:`lru_entries` deep) that makes the read path cheap enough for
the serving hot loop.

Each LRU entry holds the exact CRC-framed bytes the cache published
(or that :meth:`ResultCache.load_bytes` read back) together with the
result's metadata (fingerprint, makespan), decoded at most once per
entry. A hit resolves a key with one ordered-dict lookup — no
per-request ``stat``, file read, or unpickle — and
:meth:`SharedResultStore.payload` hands out a ``memoryview`` of the
held bytes, so the server streams a stored result to a socket without
re-encoding it. A miss pays one cache-directory read and re-warms the
entry; nothing is written on the read path.

Tenant isolation here is accounting, not confidentiality: results are
pure functions of their inputs, so sharing entries leaks nothing a
tenant could not compute themselves.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.experiments.persist import ResultCache, decode_result, encode_result
from repro.service.jobs import JobSpec

__all__ = ["SharedResultStore", "StoredResult"]


class StoredResult:
    """A cached result: its framed bytes plus metadata (one LRU entry)."""

    __slots__ = ("key", "blob", "fingerprint", "makespan")

    def __init__(self, key: str, blob: bytes,
                 fingerprint: Optional[str] = None,
                 makespan: Optional[float] = None) -> None:
        self.key = key
        self.blob = blob
        self.fingerprint = fingerprint
        self.makespan = makespan

    def payload(self) -> memoryview:
        """Framed bytes of the result (the delivery wire format)."""
        return memoryview(self.blob)

    def result(self):
        """Decoded result object (pays one unpickle; hot paths avoid it)."""
        return decode_result(self.blob)


class SharedResultStore:
    """Tenancy-aware façade over the content-addressed result cache."""

    def __init__(self, root: Optional[str] = None,
                 lru_entries: int = 512) -> None:
        if lru_entries < 1:
            raise ReproError(
                f"lru_entries must be >= 1, got {lru_entries}"
            )
        self.cache = ResultCache(root)
        self.lru_entries = lru_entries
        self._index: "OrderedDict[str, StoredResult]" = OrderedDict()
        #: content-key memo: JobSpec construction is eagerly validating
        #: and hashing is pure, so (spec, tier) -> key never changes
        self._key_cache: Dict[Tuple[JobSpec, Optional[str]], str] = {}
        self.hits: Dict[str, int] = defaultdict(int)
        self.misses: Dict[str, int] = defaultdict(int)
        self.stores: Dict[str, int] = defaultdict(int)
        self.lru_hits = 0
        self.lru_misses = 0
        self.cross_tenant_dedup = 0
        #: key -> tenant that first published it (this process's view)
        self._publisher: Dict[str, str] = {}

    @property
    def root(self) -> str:
        return self.cache.root

    def key_for(self, spec: JobSpec, fidelity: Optional[str] = None) -> str:
        """Content address of the job at its effective fidelity tier."""
        memo = (spec, fidelity)
        key = self._key_cache.get(memo)
        if key is None:
            task = spec.run_task(fidelity)
            key = self.cache.key(
                task.spec, task.seed, task.jitter_cv, task.system_configs,
                task.fault_plan, task.invariants, task.fidelity,
            )
            if len(self._key_cache) >= 4096:
                self._key_cache.clear()
            self._key_cache[memo] = key
        return key

    # -- LRU internals -----------------------------------------------------
    def _insert(self, entry: StoredResult) -> StoredResult:
        self._index[entry.key] = entry
        self._index.move_to_end(entry.key)
        while len(self._index) > self.lru_entries:
            self._index.popitem(last=False)
        return entry

    def _locate(self, key: str) -> Optional[StoredResult]:
        """LRU entry for ``key``, read from the cache directory on a miss."""
        entry = self._index.get(key)
        if entry is not None:
            self.lru_hits += 1
            self._index.move_to_end(key)
            return entry
        self.lru_misses += 1
        blob = self.cache.load_bytes(key)
        if blob is None:
            return None
        return self._insert(StoredResult(key, blob))

    # -- access ------------------------------------------------------------
    def fetch(self, key: str, tenant: str) -> Optional[StoredResult]:
        """Resolved result (metadata + payload access) or ``None``.

        This is the hot-path read: after the first touch of a key it is
        one LRU lookup — no disk I/O, no deserialization.
        """
        entry = self._locate(key)
        if entry is None:
            self.misses[tenant] += 1
            return None
        if entry.fingerprint is None:
            # fill the metadata once per entry (lazy decode)
            from repro.experiments.parallel import result_fingerprint

            result = decode_result(entry.blob)
            try:
                entry.fingerprint = result_fingerprint(result)
            except Exception:
                # not a WorkflowResult (foreign cache content): fetchers
                # get no fingerprint, but the payload stays servable
                entry.fingerprint = ""
            entry.makespan = getattr(result, "makespan", None)
        self.hits[tenant] += 1
        publisher = self._publisher.get(key)
        if publisher is not None and publisher != tenant:
            self.cross_tenant_dedup += 1
        return entry

    def payload(self, key: str) -> Optional[memoryview]:
        """Framed bytes for ``key`` (no tenant accounting)."""
        entry = self._index.get(key)
        if entry is None:
            entry = self._locate(key)
            if entry is None:
                return None
        else:
            self._index.move_to_end(key)
        return entry.payload()

    def store(self, key: str, result, tenant: str,
              fingerprint: Optional[str] = None) -> str:
        """Publish a result (atomic, last-writer-wins on equal bytes).

        Encodes once: the same framed bytes go to the cache directory
        (durable), the LRU, and — untouched — to any client that later
        fetches the result.
        """
        blob = encode_result(result)
        path = self.cache.store_bytes(key, blob)
        self._insert(StoredResult(key, blob, fingerprint,
                                  getattr(result, "makespan", None)))
        self.stores[tenant] += 1
        self._publisher.setdefault(key, tenant)
        return path

    def stats(self) -> Dict[str, object]:
        """Entry count, per-tenant counters and LRU telemetry."""
        return {
            "root": self.root,
            "entries": len(self.cache),
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "stores": dict(self.stores),
            "cross_tenant_dedup": self.cross_tenant_dedup,
            "lru_hits": self.lru_hits,
            "lru_misses": self.lru_misses,
            "lru_entries": len(self._index),
            "lru_capacity": self.lru_entries,
        }
