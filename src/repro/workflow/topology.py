"""The run's workflow graph: processes, edges, and read schedules.

Every workflow shape is a set of producer→consumer *edges* over the same
substrates, sync modes, and invariant machinery. The paper's 1:1 pairs
(§IV-C) are K disjoint edges ``producer{p}→consumer{p}``; the N:M shapes
of :class:`~repro.workflow.spec.Topology` are other edge sets:

- **fan-out (1→M)** — one producer writes stream 0; every consumer reads
  every frame of it. With DYAD and split placement the consumers share a
  node-local staging cache, so the shared-read single-flight tier (see
  :class:`~repro.dyad.config.DyadConfig.shared_read_cache`) bounds the
  workload to one RDMA pull per frame per node, against Lustre's one
  cold OST read per frame per *consumer* — the read-amplification
  comparison the ``topology`` experiment reports.
- **fan-in (N→1)** — N producers each write their own stream; one reduce
  consumer folds frame *k* of every stream before its per-frame
  analytics step. Drain adds the *aggregation-completeness* invariant.
- **pool (N→M work stealing)** — per-frame ``(stream, frame)`` tasks go
  into a shared frame-major :class:`TaskQueue`; M workers claim greedily,
  so a slow worker sheds load to fast ones. Each stream has one edge to
  the pool as a whole. Drain adds the pool-wide exactly-once invariant
  (per-role bookkeeping cannot see two *different* workers claiming the
  same task).

:class:`TopologySetup` is the graph the runner spawns from: each
process's node, the edges, one :class:`~repro.workflow.streaming.
StreamChannel` per edge in the streaming modes (a fan-out producer must
hold a credit on *every* consumer's channel before writing a frame — the
slowest consumer applies backpressure — a fan-in producer only on its
own reducer edge), and each consumer's read schedule. The fault injector
composes with the per-edge channels unchanged: holds key on each
channel's ``producer_node``/``consumer_node``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.workflow.spec import SyncMode, System, Topology, WorkflowSpec
from repro.workflow.streaming import StreamChannel, default_liveness_horizon

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.invariants import InvariantChecker

__all__ = ["TaskQueue", "TopologySetup"]

#: one consumer read-schedule step: the ``(stream, frame)`` tasks read,
#: then the RNG stream key of the analytics sleep that follows them
Group = Tuple[List[Tuple[int, int]], str]


class TaskQueue:
    """Deterministic work-stealing queue of ``(stream, frame)`` tasks.

    Tasks are ordered frame-major (frame 0 of every stream before frame 1
    of any), matching how a trajectory-analysis pool drains time steps.
    ``claim`` is pure bookkeeping — no simulated time — so the steal
    order is decided entirely by when each worker finishes its previous
    task. Claims are recorded per worker for load-balance reporting.
    """

    def __init__(self, streams: int, frames: int) -> None:
        self._tasks = deque(
            (s, k) for k in range(frames) for s in range(streams)
        )
        self.total = streams * frames
        #: worker role -> tasks it claimed, in claim order
        self.claimed: Dict[str, List[Tuple[int, int]]] = {}

    def claim(self, role: str) -> Optional[Tuple[int, int]]:
        """Next unclaimed task, or ``None`` when the queue is drained."""
        if not self._tasks:
            return None
        task = self._tasks.popleft()
        self.claimed.setdefault(role, []).append(task)
        return task

    def per_worker(self) -> Dict[str, int]:
        """Tasks claimed per worker (load-balance view)."""
        return {role: len(tasks) for role, tasks in self.claimed.items()}


def _claims(queue: TaskQueue, role: str) -> Iterator[Group]:
    """A pool worker's schedule: one claimed task per step, claimed when
    the worker is ready for it (so the steal order follows finish times)."""
    step = 0
    while True:
        task = queue.claim(role)
        if task is None:
            return
        yield [task], f"{role}.task{step}"
        step += 1


@dataclass
class TopologySetup:
    """The run's workflow graph, built by :meth:`build` for every shape.

    Producer ``i`` has role ``producer{i}`` and writes stream ``i``;
    consumer ``j`` has role ``consumer{j}``. The spawners in
    :mod:`repro.workflow.runner` fill :attr:`processes` and
    :attr:`consumers` as they start the process bodies.
    """

    spec: WorkflowSpec
    #: node id of each producer / consumer process
    producer_nodes: List[str]
    consumer_nodes: List[str]
    #: ``(stream, consumer)`` per edge; consumer ``None`` is a pool edge
    #: (the stream feeds the whole worker pool)
    edges: List[Tuple[int, Optional[int]]]
    #: one :class:`StreamChannel` per edge (streaming modes only; empty
    #: otherwise)
    channels: List[StreamChannel] = field(default_factory=list)
    #: the POSIX pub/sub control-plane broker (``None`` otherwise)
    broker: Optional[object] = None
    #: the work-stealing queue (``POOL`` topology only)
    queue: Optional[TaskQueue] = None
    #: ``(role, Process)`` pairs for stall diagnostics
    processes: List = field(default_factory=list)
    #: DYAD consumer clients (``[]`` for POSIX systems)
    consumers: List = field(default_factory=list)
    #: edge indices out of each producer / into each consumer
    _outputs: List[List[int]] = field(init=False, repr=False)
    _inputs: List[List[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._outputs = [[] for _ in self.producer_nodes]
        self._inputs = [[] for _ in self.consumer_nodes]
        everyone = range(len(self.consumer_nodes))
        for e, (s, j) in enumerate(self.edges):
            self._outputs[s].append(e)
            for c in (everyone if j is None else (j,)):
                self._inputs[c].append(e)

    @classmethod
    def build(cls, spec: WorkflowSpec, cluster,
              checker: Optional["InvariantChecker"] = None) -> "TopologySetup":
        """The graph of ``spec`` on ``cluster``, one GPU claimed per process."""
        env = cluster.env
        ids = []
        for side in (spec.producer_nodes(), spec.consumer_nodes()):
            nodes = [cluster.node(n) for n in side]
            for node in nodes:
                node.claim_gpu()
            ids.append([node.node_id for node in nodes])
        if spec.topology is Topology.PAIRWISE:
            edges = [(p, p) for p in range(spec.pairs)]
        elif spec.topology is Topology.FANOUT:
            edges = [(0, j) for j in range(spec.consumers)]
        elif spec.topology is Topology.FANIN:
            edges = [(s, 0) for s in range(spec.streams)]
        else:  # POOL
            edges = [(s, None) for s in range(spec.streams)]
        graph = cls(spec, ids[0], ids[1], edges)
        if spec.is_streaming:
            horizon = checker.config.liveness_horizon if checker else None
            if horizon is None:
                horizon = default_liveness_horizon(spec)
            graph.channels = [
                StreamChannel(
                    env, s, spec.effective_window,
                    producer_role=f"producer{s}",
                    consumer_role="pool" if j is None else f"consumer{j}",
                    producer_node=graph.producer_nodes[s],
                    consumer_node=graph.consumer_nodes[0 if j is None else j],
                    checker=checker, liveness_horizon=horizon,
                )
                for s, j in edges
            ]
            if (spec.system is not System.DYAD
                    and spec.sync_mode is SyncMode.PUBSUB):
                from repro.kvs.store import KVS

                graph.broker = KVS(env, cluster.fabric,
                                   cluster.node(0).node_id, attach=False)
        if spec.topology is Topology.POOL:
            graph.queue = TaskQueue(spec.streams, spec.frames)
        return graph

    # -- per-process views -----------------------------------------------------
    def producer_key(self, producer: int) -> str:
        """RNG stream prefix of a producer's MD sleeps (``{key}.frame{k}``).

        Streaming N:M producers draw from ``stream{s}``; every other
        producer shares ``pair{s}`` with its pairwise consumer's analytics.
        """
        spec = self.spec
        if spec.is_streaming and spec.topology is not Topology.PAIRWISE:
            return f"stream{producer}"
        return f"pair{producer}"

    def in_streams(self, consumer: int) -> List[int]:
        """Streams consumer ``consumer`` reads (a pool worker: all)."""
        return [self.edges[e][0] for e in self._inputs[consumer]]

    def out_channels(self, producer: int) -> List[StreamChannel]:
        """The channels of a producer's out-edges (``[]`` unless streaming)."""
        if not self.channels:
            return []
        return [self.channels[e] for e in self._outputs[producer]]

    def in_channels(self, consumer: int) -> Dict[int, StreamChannel]:
        """Stream → channel of a consumer's in-edges (``{}`` unless
        streaming)."""
        if not self.channels:
            return {}
        return {self.edges[e][0]: self.channels[e]
                for e in self._inputs[consumer]}

    def schedule(self, consumer: int) -> Iterable[Group]:
        """Consumer ``consumer``'s reads: ``([(stream, frame)...], key)``
        groups, one analytics sleep per group.

        A pairwise consumer reads frame *k* of its pair under the pair's
        ``pair{p}.frame{k}`` key; a fan-out consumer frame *k* of stream
        0 and a fan-in reducer frame *k* of every stream, both under
        ``consumer{j}.frame{k}``; a pool worker claims one task per step
        (``consumer{j}.task{n}``).
        """
        spec = self.spec
        role = f"consumer{consumer}"
        if self.queue is not None:
            return _claims(self.queue, role)
        streams = self.in_streams(consumer)
        prefix = (f"pair{consumer}" if spec.topology is Topology.PAIRWISE
                  else role)
        return (([(s, k) for s in streams], f"{prefix}.frame{k}")
                for k in range(spec.frames))

    # -- end-of-run checks -----------------------------------------------------
    def check_complete(self, checker: "InvariantChecker") -> None:
        """Run the shape-appropriate drain-completeness invariants."""
        spec = self.spec
        if spec.topology is Topology.FANIN:
            checker.check_aggregation("consumer0", spec.streams, spec.frames)
        elif spec.topology is Topology.POOL:
            checker.check_pool(
                [f"consumer{j}" for j in range(spec.consumers)],
                spec.streams, spec.frames,
            )
        else:
            edges = [(f"consumer{j}", s) for s, j in self.edges]
            if spec.topology is Topology.PAIRWISE:
                edges.sort()  # report pairwise gaps in sorted-role order
            checker.check_complete_edges(edges, spec.frames)

    def recovery_errors(self) -> List[str]:
        """Per-consumer completion accounting: every DYAD consumer's
        ``fast_hits + kvs_waits`` must equal the frame reads it was
        scheduled (POSIX runs carry no such counters and return ``[]``).
        """
        if not self.consumers:
            return []
        spec = self.spec
        if spec.topology is Topology.POOL:
            got = sum(c.fast_hits + c.kvs_waits for c in self.consumers)
            want = spec.streams * spec.frames
            if got != want:
                return [f"the consumer pool completed {got} of {want} tasks "
                        "despite finishing"]
            return []
        errors: List[str] = []
        for j, consumer in enumerate(self.consumers):
            got = consumer.fast_hits + consumer.kvs_waits
            want = spec.frames * len(self.in_streams(j))
            if got != want:
                errors.append(
                    f"consumer{j} completed {got} of {want} frame reads "
                    "despite finishing"
                )
        return errors
