"""Shared multi-tenant result store accounting."""

from types import SimpleNamespace

import pytest

from repro.errors import ReproError
from repro.experiments.persist import encode_result
from repro.service.jobs import JobSpec
from repro.service.store import SharedResultStore


def _spec(**kwargs):
    kwargs.setdefault("tenant", "alice")
    kwargs.setdefault("frames", 2)
    return JobSpec(**kwargs)


def test_key_is_content_addressed_not_tenant_addressed(tmp_path):
    store = SharedResultStore(str(tmp_path))
    alice = store.key_for(_spec(tenant="alice"))
    bob = store.key_for(_spec(tenant="bob"))
    assert alice == bob  # same computation, same address


def test_key_depends_on_effective_fidelity(tmp_path):
    store = SharedResultStore(str(tmp_path))
    spec = _spec()
    assert store.key_for(spec) != store.key_for(spec, "fluid")
    assert store.key_for(spec, "exact") == store.key_for(spec)


def test_per_tenant_counters_and_cross_tenant_dedup(tmp_path):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    assert store.fetch(key, "alice") is None
    assert store.misses["alice"] == 1

    store.store(key, {"makespan": 1.0}, "alice")
    assert store.fetch(key, "alice").result() == {"makespan": 1.0}
    assert store.cross_tenant_dedup == 0

    # bob hitting alice's entry is the cross-tenant dedup the service
    # advertises
    assert store.fetch(key, "bob").result() == {"makespan": 1.0}
    assert store.cross_tenant_dedup == 1
    assert store.hits == {"alice": 1, "bob": 1}

    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["stores"] == {"alice": 1}
    assert stats["cross_tenant_dedup"] == 1


# -- zero-copy delivery structures ----------------------------------------

def test_fetch_resolves_metadata_and_zero_copy_payload(tmp_path):
    from repro.experiments.persist import decode_result

    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    store.store(key, SimpleNamespace(makespan=2.5), "alice", fingerprint="fp-1")
    stored = store.fetch(key, "bob")
    assert stored.key == key
    assert stored.fingerprint == "fp-1"
    assert stored.makespan == 2.5
    view = stored.payload()
    assert isinstance(view, memoryview)
    # the framed bytes stream verbatim: decoding them client-side gives
    # back the published result
    assert decode_result(view) == SimpleNamespace(makespan=2.5)
    assert stored.result() == SimpleNamespace(makespan=2.5)


def test_lru_eviction_falls_back_to_cache_directory(tmp_path):
    store = SharedResultStore(str(tmp_path), lru_entries=2)
    keys = []
    for seed in range(3):
        key = store.key_for(_spec(seed=seed))
        store.store(key, SimpleNamespace(makespan=float(seed)), "alice")
        keys.append(key)
    # capacity 2: the first key was evicted from the in-memory LRU...
    assert store.fetch(keys[2], "alice").makespan == 2.0
    assert store.lru_misses == 0
    # ...but the cache directory still serves it (and re-warms the LRU)
    assert store.fetch(keys[0], "alice").makespan == 0.0
    assert store.lru_misses == 1
    assert store.fetch(keys[0], "alice").makespan == 0.0
    assert store.lru_misses == 1


def test_lru_hit_counters_feed_the_perf_gate(tmp_path):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    store.store(key, SimpleNamespace(makespan=1.0), "alice")
    for _ in range(5):
        assert store.fetch(key, "alice") is not None
    stats = store.stats()
    assert stats["lru_hits"] >= 5
    assert stats["lru_misses"] == 0


@pytest.mark.parametrize("attr", ["tracer", "metrics"])
def test_store_refuses_traced_and_metered_results(tmp_path, attr):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    result = SimpleNamespace(makespan=1.0, **{attr: object()})
    with pytest.raises(ReproError, match="refusing to cache"):
        store.store(key, result, "alice")
    assert store.fetch(key, "alice") is None
    assert len(store.cache) == 0


def test_restarted_store_serves_from_the_cache_directory(tmp_path):
    store = SharedResultStore(str(tmp_path))
    key = store.key_for(_spec())
    store.store(key, SimpleNamespace(makespan=3.0), "alice")
    # a fresh store over the same root starts with an empty LRU and
    # reads the entry back from the sharded cache directory
    reopened = SharedResultStore(str(tmp_path))
    stored = reopened.fetch(key, "bob")
    assert stored.makespan == 3.0
    assert reopened.lru_misses == 1
    assert bytes(stored.payload()) == encode_result(
        SimpleNamespace(makespan=3.0))


def _tree(root):
    return {path: path.stat().st_size
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_fetches_past_the_lru_write_nothing_to_disk(tmp_path):
    store = SharedResultStore(str(tmp_path), lru_entries=2)
    keys = []
    for seed in range(3):
        key = store.key_for(_spec(seed=seed))
        store.store(key, SimpleNamespace(makespan=float(seed)), "alice")
        keys.append(key)
    before = _tree(tmp_path)
    # round-robin over 3 keys with room for 2: every fetch misses the
    # LRU and reads the cache directory, and no read writes anything
    for i in range(30):
        assert store.fetch(keys[i % 3], "alice").makespan == float(i % 3)
    assert store.lru_misses == 30
    assert _tree(tmp_path) == before
