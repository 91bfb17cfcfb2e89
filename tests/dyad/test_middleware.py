"""Unit + protocol tests for the DYAD middleware (mdm, rdma, service, client)."""

import pytest

from repro.cluster.corona import corona
from repro.dyad.client import DyadConsumerClient, DyadProducerClient
from repro.dyad.config import DyadConfig
from repro.dyad.mdm import MetadataManager, OwnerRecord
from repro.dyad.rdma import RdmaTransport
from repro.dyad.service import DyadRuntime
from repro.errors import ConfigError, DyadError, TransferError
from repro.perf.caliper import Caliper, Category
from repro.units import kib, mib


@pytest.fixture
def runtime(two_node_cluster):
    return DyadRuntime(two_node_cluster, store_data=True)


def _drive(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        DyadConfig(managed_root="relative").validate()
    with pytest.raises(ConfigError):
        DyadConfig(service_capacity=0).validate()
    with pytest.raises(ConfigError):
        DyadConfig(rdma_chunk=0).validate()
    with pytest.raises(ConfigError):
        DyadConfig(client_overhead=-1).validate()


# ---------------------------------------------------------------------------
# metadata manager
# ---------------------------------------------------------------------------


def test_mdm_key_stable_and_namespaced(runtime):
    mdm = runtime.mdm
    assert mdm.key("/dyad/a") == mdm.key("dyad/a")
    assert mdm.key("/dyad/a").startswith("dyad/")
    assert mdm.key("/dyad/a") != mdm.key("/dyad/b")
    # FNV-1a of the normalised path: a KVS key must never change
    assert mdm.key("dyad/pair0000/frame00000.mdfr") == "dyad/d611a6d4"


def test_mdm_publish_fetch_roundtrip(runtime):
    env = runtime.env

    def flow():
        yield from runtime.mdm.publish("node00", "/dyad/f", 123)
        record = yield from runtime.mdm.fetch("node01", "/dyad/f")
        return record

    record = _drive(env, flow())
    assert record == OwnerRecord(path="/dyad/f", owner="node00", size=123)


def test_mdm_peek_untimed(runtime):
    assert runtime.mdm.peek("/dyad/nothing") is None


def test_mdm_wait_blocks(runtime):
    env = runtime.env
    got = []

    def waiter():
        record = yield from runtime.mdm.wait("node01", "/dyad/w")
        got.append((env.now, record.owner))

    def publisher():
        yield env.timeout(2.0)
        yield from runtime.mdm.publish("node00", "/dyad/w", 10)

    env.process(waiter())
    env.process(publisher())
    env.run()
    assert got and got[0][0] >= 2.0 and got[0][1] == "node00"


# ---------------------------------------------------------------------------
# rdma transport
# ---------------------------------------------------------------------------


def test_rdma_collocated_is_free(runtime):
    env = runtime.env
    elapsed = _drive(env, runtime.rdma.get("node00", "node00", mib(10)))
    assert elapsed == 0.0


def test_rdma_remote_scales_with_size(runtime):
    env = runtime.env
    small = _drive(env, runtime.rdma.get("node01", "node00", kib(64)))
    big = _drive(env, runtime.rdma.get("node01", "node00", mib(16)))
    assert big > small * 10


def test_rdma_chunking_splits_large_transfers(two_node_cluster):
    rdma = RdmaTransport(two_node_cluster.fabric, chunk=mib(1))
    env = two_node_cluster.env
    before = two_node_cluster.fabric.stats.rdma_transfers
    _drive(env, rdma.get("node01", "node00", mib(4)))
    assert two_node_cluster.fabric.stats.rdma_transfers - before == 4


def test_rdma_negative_size_rejected(runtime):
    with pytest.raises(TransferError):
        _drive(runtime.env, runtime.rdma.get("node01", "node00", -1))


def test_rdma_zero_chunk_rejected(two_node_cluster):
    with pytest.raises(TransferError):
        RdmaTransport(two_node_cluster.fabric, chunk=0)


# ---------------------------------------------------------------------------
# runtime / service
# ---------------------------------------------------------------------------


def test_runtime_service_per_node(runtime):
    assert set(runtime.services) == {"node00", "node01"}
    with pytest.raises(DyadError):
        runtime.service("node99")


def test_service_staging_rooted(runtime):
    for service in runtime.services.values():
        assert service.staging.exists("/dyad")


def test_serve_get_validates_size(runtime):
    env = runtime.env
    producer = runtime.producer("node00", "p")

    def flow():
        yield from producer.produce("/dyad/f", 100, b"x" * 100)
        # ask for more bytes than were staged
        yield from runtime.service("node00").serve_get("/dyad/f", 200)

    with pytest.raises(DyadError, match="expected"):
        _drive(env, flow())


# ---------------------------------------------------------------------------
# producer / consumer protocol
# ---------------------------------------------------------------------------


def test_produce_outside_managed_root_rejected(runtime):
    producer = runtime.producer("node00", "p")
    with pytest.raises(DyadError, match="managed root"):
        _drive(runtime.env, producer.produce("/other/f", 10))


def test_consume_outside_managed_root_rejected(runtime):
    consumer = runtime.consumer("node01", "c")
    with pytest.raises(DyadError, match="managed root"):
        _drive(runtime.env, consumer.consume("/other/f"))


def test_remote_consume_moves_payload(runtime):
    env = runtime.env
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    payload = bytes(range(256)) * 4

    def flow():
        yield from producer.produce("/dyad/f", len(payload), payload)
        record, data = yield from consumer.consume("/dyad/f")
        return record, data

    record, data = _drive(env, flow())
    assert record.owner == "node00"
    assert data == payload
    # the consumer cached the frame locally
    assert runtime.service("node01").staging.exists("/dyad/f")


def test_collocated_consume_skips_transfer(runtime):
    env = runtime.env
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node00", "c")
    before = runtime.cluster.fabric.stats.rdma_transfers

    def flow():
        yield from producer.produce("/dyad/g", 64, b"y" * 64)
        record, data = yield from consumer.consume("/dyad/g")
        return data

    data = _drive(env, flow())
    assert data == b"y" * 64
    assert runtime.cluster.fabric.stats.rdma_transfers == before


def test_consume_blocks_until_produced(runtime):
    env = runtime.env
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    times = {}

    def consume():
        yield from consumer.consume("/dyad/late")
        times["consumed"] = env.now

    def produce():
        yield env.timeout(5.0)
        yield from producer.produce("/dyad/late", 32, b"z" * 32)

    env.process(consume())
    env.process(produce())
    env.run()
    assert times["consumed"] >= 5.0
    assert consumer.kvs_waits == 1


def test_multi_protocol_sync_counters(runtime):
    env = runtime.env
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")

    def producer_proc():
        for i in range(4):
            yield env.timeout(1.0)
            yield from producer.produce(f"/dyad/s{i}", 16, b"a" * 16)

    def consumer_proc():
        for i in range(4):
            yield from consumer.consume(f"/dyad/s{i}")
            yield env.timeout(1.0)

    env.process(producer_proc())
    env.process(consumer_proc())
    env.run()
    # first touch used the KVS watch; the rest hit the flock fast path
    assert consumer.kvs_waits == 1
    assert consumer.fast_hits == 3


def test_annotated_consume_builds_expected_tree(runtime):
    env = runtime.env
    caliper = Caliper(clock=lambda: env.now)
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")
    ann = caliper.annotator("cons")

    def flow():
        yield from producer.produce("/dyad/t", 128, b"q" * 128)
        yield from consumer.consume("/dyad/t", annotator=ann)

    _drive(env, flow())
    tree = ann.finish()
    paths = set(tree.flat())
    assert ("dyad_consume",) in paths
    assert ("dyad_consume", "dyad_fetch") in paths
    assert ("dyad_consume", "dyad_get_data") in paths
    assert ("dyad_consume", "dyad_cons_store") in paths
    assert ("read_single_buf",) in paths
    # no KVS wait happened, so no idle region
    assert ("dyad_consume", "dyad_fetch", "dyad_wait_data") not in paths


def test_producer_tree_regions(runtime):
    env = runtime.env
    caliper = Caliper(clock=lambda: env.now)
    producer = runtime.producer("node00", "p")
    ann = caliper.annotator("prod")
    _drive(env, producer.produce("/dyad/pt", 64, b"r" * 64, annotator=ann))
    tree = ann.finish()
    paths = set(tree.flat())
    assert ("dyad_produce",) in paths
    assert ("dyad_produce", "write_single_buf") in paths
    assert ("dyad_produce", "dyad_commit") in paths
    assert tree.find("dyad_produce").category == Category.MOVEMENT


def test_size_only_mode_moves_no_payload(two_node_cluster):
    runtime = DyadRuntime(two_node_cluster, store_data=False)
    env = runtime.env
    producer = runtime.producer("node00", "p")
    consumer = runtime.consumer("node01", "c")

    def flow():
        yield from producer.produce("/dyad/s", kib(10))
        record, data = yield from consumer.consume("/dyad/s")
        return record, data

    record, data = _drive(env, flow())
    assert record.size == kib(10)
    assert data is None
