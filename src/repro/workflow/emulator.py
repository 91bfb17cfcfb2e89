"""Producer/consumer process bodies for each data-management system.

The emulation follows the paper exactly (Section IV-C):

- a producer runs ``stride`` MD steps (a fixed-duration *MD sleep*), then
  serializes a frame and writes it through the system under test;
- a consumer reads a frame, deserializes it, then runs an analytics sleep
  matched to the frame-generation frequency;
- with XFS/Lustre, synchronization is the *coarse-grained* manual pattern
  the paper describes ("serialized execution of the producer and
  consumer"): the consumer's iterations begin only after its producer
  completes, and all of that waiting is accounted to one
  ``explicit_sync`` idle region — so per-iteration consumer idle equals
  the frame-production period, while the producer (whose partner is
  already waiting) never blocks;
- with DYAD, producer and consumer run pipelined, and synchronization is
  DYAD's automatic multi-protocol mechanism (KVS watch on first touch,
  flock fast path after);
- the streaming modes (``windowed``/``pubsub``/``nbuffer``, see
  :mod:`repro.workflow.streaming`) add a bounded credit window per
  producer→consumer edge on top, for every system.

Each of the five bodies serves every graph shape of
:class:`~repro.workflow.topology.TopologySetup`: a producer writes its
stream through its out-edge channels; a consumer walks a read schedule
of ``(stream, frame)`` groups, one analytics sleep per group.

Region names match the paper's Figs. 9-10 call trees
(``dyad_consume/dyad_fetch/dyad_get_data/dyad_cons_store``,
``read_single_buf``, ``FilesystemReader::read_single_buf``,
``explicit_sync``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Iterable, List, Optional

from repro.dyad.client import DyadConsumerClient, DyadProducerClient
from repro.errors import FileNotFound
from repro.perf.caliper import Annotator, Category
from repro.sim.core import Environment
from repro.sim.resources import Signal
from repro.sim.rng import RngStreams
from repro.storage.posixfs import PosixFileSystem
from repro.workflow.spec import SyncMode, WorkflowSpec
from repro.workflow.streaming import (
    BACKPRESSURE_REGION, STREAM_WAIT_REGION, StreamChannel, stream_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.invariants import InvariantChecker
    from repro.kvs.store import KVS
    from repro.workflow.topology import Group


class ComputeModel:
    """Per-process compute-time sampling for MD and analytics sleeps.

    Real MD steps are not metronome-exact; a small coefficient of
    variation decorrelates the otherwise-lockstep pairs of the ensemble
    (with cv=0 every producer would hit the storage system at the same
    instant forever, overstating contention relative to the paper's
    measurements).

    The stream key is shared by a pair's producer MD sleep and consumer
    analytics sleep for the same frame index, mirroring the paper's
    harness where the consumer sleep is *set equal to* the production
    period: the pair stays phase-locked (the producer runs exactly one
    frame ahead after the first synchronization), while different pairs
    drift apart through their independent per-frame draws.
    """

    def __init__(self, rng: Optional[RngStreams] = None, cv: float = 0.0) -> None:
        if cv < 0:
            raise ValueError(f"compute cv must be non-negative, got {cv}")
        self.rng = rng
        self.cv = cv

    def sample(self, stream: str, mean: float) -> float:
        """One sleep duration around ``mean``."""
        if self.rng is None or self.cv == 0.0:
            return mean
        return self.rng.jitter(stream, mean, self.cv)


__all__ = [
    "ComputeModel",
    "dyad_producer",
    "dyad_consumer",
    "posix_producer",
    "posix_consumer",
    "posix_consumer_polling",
    "frame_path",
    "READ_REGION",
    "WRITE_REGION",
    "SYNC_REGION",
    "POLL_REGION",
]

#: Region names matching the paper's call trees.
READ_REGION = "FilesystemReader::read_single_buf"
WRITE_REGION = "write_single_buf"
SYNC_REGION = "explicit_sync"
POLL_REGION = "poll_sync"


def frame_path(root: str, pair: int, frame: int) -> str:
    """Canonical managed path of one frame of one pair."""
    return f"{root}/pair{pair:04d}/frame{frame:05d}.mdfr"


def _analyze(env: Environment, spec: WorkflowSpec, annotator: Annotator,
             compute: ComputeModel, key: str) -> Generator:
    """The consumer's analytics sleep after one schedule group."""
    annotator.begin("analytics_sleep", Category.COMPUTE)
    yield env.timeout(compute.sample(key, spec.analytics_time))
    annotator.end("analytics_sleep")


def _md_step(env: Environment, spec: WorkflowSpec, annotator: Annotator,
             compute: ComputeModel, key: str, frame: int,
             channels: List[StreamChannel]) -> Generator:
    """MD sleep, then (streaming) a credit on every out-edge channel."""
    annotator.begin("md_sleep", Category.COMPUTE)
    yield env.timeout(compute.sample(f"{key}.frame{frame}", spec.stride_time))
    annotator.end("md_sleep")
    if channels:
        # A fan-out producer must hold a credit on every consumer's
        # channel: the slowest consumer applies the backpressure.
        annotator.begin(BACKPRESSURE_REGION, Category.IDLE)
        for channel in channels:
            yield from channel.acquire_credit(frame)
        annotator.end(BACKPRESSURE_REGION)


# ---------------------------------------------------------------------------
# DYAD workflow: concurrent, pipelined, automatic synchronization.
# ---------------------------------------------------------------------------


def dyad_producer(
    env: Environment,
    spec: WorkflowSpec,
    client: DyadProducerClient,
    annotator: Annotator,
    stream: int,
    key: str,
    channels: List[StreamChannel],
    compute: ComputeModel,
    checker: "InvariantChecker",
) -> Generator:
    """Generator: MD-sleep then produce frame *k* of ``stream``,
    ``spec.frames`` times; ``key`` prefixes the MD sleeps' RNG streams.

    In the streaming modes ``channels`` are the out-edge windows: a
    credit on each before the write, a publish on each after it.
    """
    root = client.runtime.config.managed_root
    role = f"producer{stream}"
    for k in range(spec.frames):
        yield from _md_step(env, spec, annotator, compute, key, k, channels)
        yield from client.produce(
            frame_path(root, stream, k), spec.frame_bytes, annotator=annotator
        )
        # The commit instant is the KVS publish (which a stale_metadata
        # window moves ahead of the staged bytes).
        checker.frame_committed(role, stream, k, spec.frame_bytes,
                                at=client.last_commit_time)
        for channel in channels:
            channel.publish(k)


def dyad_consumer(
    env: Environment,
    spec: WorkflowSpec,
    client: DyadConsumerClient,
    annotator: Annotator,
    role: str,
    schedule: Iterable[Group],
    channels: Dict[int, StreamChannel],
    compute: ComputeModel,
    checker: "InvariantChecker",
) -> Generator:
    """Generator: consume each group of ``schedule``, then analytics-sleep.

    DYAD's KVS is the discovery plane in every sync mode; streaming only
    adds the in-edge credit returns (``channels``: stream → channel), and
    ``pubsub`` subscribes (arms the watch) for every frame instead of
    lookup-then-watch.
    """
    root = client.runtime.config.managed_root
    subscribe = spec.sync_mode is SyncMode.PUBSUB
    for tasks, key in schedule:
        for s, k in tasks:
            yield from client.consume(frame_path(root, s, k),
                                      annotator=annotator, subscribe=subscribe)
            checker.frame_consumed(
                role, s, k, spec.frame_bytes,
                client.last_consume_bytes, client.last_consume_corrupt,
            )
            if channels:
                channels[s].release_credit(k)
        yield from _analyze(env, spec, annotator, compute, key)


# ---------------------------------------------------------------------------
# Traditional POSIX workflow (XFS / Lustre): manual or streaming sync.
# ---------------------------------------------------------------------------


def _posix_read(spec: WorkflowSpec, fs: PosixFileSystem, node_id: str,
                annotator: Annotator, role: str, stream: int, frame: int,
                checker: "InvariantChecker", root: str) -> Generator:
    """Open, read, and close one frame, then record its consumption."""
    path = frame_path(root, stream, frame)
    annotator.begin(READ_REGION, Category.MOVEMENT)
    handle = yield from fs.open(path, "r", client=node_id)
    try:
        count, _payload = yield from handle.read()
    finally:
        yield from handle.close()
    annotator.end(READ_REGION)
    checker.frame_consumed(role, stream, frame, spec.frame_bytes, count,
                           fs.is_corrupt(path))


def posix_producer(
    env: Environment,
    spec: WorkflowSpec,
    fs: PosixFileSystem,
    node_id: str,
    annotator: Annotator,
    stream: int,
    key: str,
    channels: List[StreamChannel],
    broker: Optional[KVS],
    barrier: Optional[Signal],
    compute: ComputeModel,
    checker: "InvariantChecker",
    root: str = "/data",
) -> Generator:
    """Generator: produce every frame of ``stream``, then release
    ``barrier`` (coarse/polling).

    The coarse producer never waits: by the time it finishes, its
    consumers are already parked in the barrier (matching the paper's
    observation that producers show no significant idle time). In the
    streaming modes the producer holds a credit per out-edge channel and
    publishes each frame on them — and, under ``pubsub``, commits it on
    the ``broker`` control plane first.
    """
    role = f"producer{stream}"
    for k in range(spec.frames):
        yield from _md_step(env, spec, annotator, compute, key, k, channels)
        annotator.begin(WRITE_REGION, Category.MOVEMENT)
        handle = yield from fs.open(frame_path(root, stream, k), "w",
                                    client=node_id)
        try:
            yield from handle.write(spec.frame_bytes)
            # Data is fully visible once the write lands (a polling
            # consumer may legally read before close completes).
            checker.frame_committed(role, stream, k, spec.frame_bytes)
        finally:
            yield from handle.close()
        annotator.end(WRITE_REGION)
        if broker is not None:
            # Per-frame commit on the control plane (one RPC).
            yield from broker.commit(node_id, stream_key(stream, k),
                                     spec.frame_bytes)
        for channel in channels:
            channel.publish(k)
    if barrier is not None:
        barrier.fire_once(env.now)


def posix_consumer(
    env: Environment,
    spec: WorkflowSpec,
    fs: PosixFileSystem,
    node_id: str,
    annotator: Annotator,
    role: str,
    schedule: Iterable[Group],
    barriers: List[Signal],
    channels: Dict[int, StreamChannel],
    broker: Optional[KVS],
    compute: ComputeModel,
    checker: "InvariantChecker",
    root: str = "/data",
) -> Generator:
    """Generator: wait for the producer phase, then read + analyze.

    Coarse sync parks once on every producer's ``barriers`` before the
    first read. In the streaming modes each frame is awaited instead: on
    its in-edge channel (``windowed``/``nbuffer``, SST-style side
    channel) or on the ``broker`` (``pubsub``), and its credit returns
    once read.
    """
    if barriers:
        annotator.begin(SYNC_REGION, Category.IDLE)
        for barrier in barriers:
            yield barrier.wait()
        annotator.end(SYNC_REGION)
    for tasks, key in schedule:
        for s, k in tasks:
            if channels:
                annotator.begin(STREAM_WAIT_REGION, Category.IDLE)
                if broker is not None:
                    yield from broker.wait_for(node_id, stream_key(s, k))
                else:
                    yield from channels[s].wait_frame(k)
                annotator.end(STREAM_WAIT_REGION)
            yield from _posix_read(spec, fs, node_id, annotator, role, s, k,
                                   checker, root)
            if channels:
                channels[s].release_credit(k)
        yield from _analyze(env, spec, annotator, compute, key)


def posix_consumer_polling(
    env: Environment,
    spec: WorkflowSpec,
    fs: PosixFileSystem,
    node_id: str,
    annotator: Annotator,
    role: str,
    schedule: Iterable[Group],
    compute: ComputeModel,
    checker: "InvariantChecker",
    root: str = "/data",
) -> Generator:
    """Generator: Pegasus-style polling consumer (fine-grained manual sync).

    Instead of one coarse barrier, the consumer discovers each frame by
    polling ``stat()`` every ``spec.poll_interval`` seconds until the file
    exists with a stable size, then reads it. This overlaps producer and
    consumer (unlike the coarse pattern) at the price of discovery latency
    (~half the poll interval per frame) and a metadata-request load on the
    file system — the trade-off the paper's Section III describes for
    workflow managers.

    Note a correctness subtlety the coarse barrier does not have: a poller
    can observe a file mid-write. Stability is checked by requiring two
    consecutive polls to report the same version, which is why discovery
    costs at least one full poll interval after creation.
    """
    for tasks, key in schedule:
        for s, k in tasks:
            path = frame_path(root, s, k)
            annotator.begin(POLL_REGION, Category.IDLE)
            last_version = None
            while True:
                try:
                    st = yield from fs.stat(path, client=node_id)
                except FileNotFound:
                    st = None
                if st is not None and st.version == last_version:
                    break  # two consecutive identical observations: stable
                last_version = st.version if st is not None else None
                yield env.timeout(spec.poll_interval)
            annotator.end(POLL_REGION)
            yield from _posix_read(spec, fs, node_id, annotator, role, s, k,
                                   checker, root)
        yield from _analyze(env, spec, annotator, compute, key)
