"""Unit tests for the topology fields of the workflow specification.

Covers the validation/normalization rules of the four
:class:`~repro.workflow.spec.Topology` shapes, node assignment under the
8 procs/node cap, the pairwise ``placements()`` boundary past one full
node (and the run graph's K disjoint pairwise edges on those
placements), and the repr pins that keep cache keys and fingerprints
stable:

- pairwise specs render byte-identically to pre-topology specs;
- DYAD's POLLING spelling normalizes to COARSE (one canonical automatic
  sync, identical repr for both spellings).
"""

import pytest

from repro.cluster.corona import corona
from repro.errors import WorkflowError
from repro.workflow.spec import (
    PROCS_PER_NODE,
    Placement,
    SyncMode,
    System,
    Topology,
    WorkflowSpec,
)
from repro.workflow.topology import TopologySetup


def _spec(topology, system=System.DYAD, placement=Placement.SPLIT, **kwargs):
    return WorkflowSpec(system=system, topology=topology,
                        placement=placement, **kwargs)


# ---------------------------------------------------------------------------
# validation and normalization
# ---------------------------------------------------------------------------


def test_pairwise_rejects_topology_sizes():
    with pytest.raises(WorkflowError, match="sizes via pairs"):
        WorkflowSpec(system=System.DYAD, producers=1)
    with pytest.raises(WorkflowError, match="sizes via pairs"):
        WorkflowSpec(system=System.DYAD, consumers=2)


@pytest.mark.parametrize("topology,sizes", [
    (Topology.FANOUT, {"consumers": 4}),
    (Topology.FANIN, {"producers": 4}),
    (Topology.POOL, {"producers": 2, "consumers": 3}),
])
def test_non_pairwise_rejects_pairs(topology, sizes):
    with pytest.raises(WorkflowError, match="leave pairs at 1"):
        _spec(topology, pairs=3, **sizes)


def test_negative_sizes_rejected():
    with pytest.raises(WorkflowError, match="non-negative"):
        _spec(Topology.FANOUT, producers=-1, consumers=4)


def test_fanout_normalizes_singular_producer():
    spec = _spec(Topology.FANOUT, consumers=4)
    assert spec.producers == 1
    assert (spec.n_producers, spec.n_consumers, spec.streams) == (1, 4, 1)
    with pytest.raises(WorkflowError, match="exactly one producer"):
        _spec(Topology.FANOUT, producers=2, consumers=4)
    with pytest.raises(WorkflowError, match="consumers >= 1"):
        _spec(Topology.FANOUT)


def test_fanin_normalizes_singular_consumer():
    spec = _spec(Topology.FANIN, producers=3)
    assert spec.consumers == 1
    assert (spec.n_producers, spec.n_consumers, spec.streams) == (3, 1, 3)
    with pytest.raises(WorkflowError, match="exactly one consumer"):
        _spec(Topology.FANIN, producers=3, consumers=2)
    with pytest.raises(WorkflowError, match="producers >= 1"):
        _spec(Topology.FANIN)


def test_pool_needs_both_sides():
    spec = _spec(Topology.POOL, producers=2, consumers=3)
    assert (spec.n_producers, spec.n_consumers, spec.streams) == (2, 3, 2)
    with pytest.raises(WorkflowError, match="pool"):
        _spec(Topology.POOL, producers=2)
    with pytest.raises(WorkflowError, match="pool"):
        _spec(Topology.POOL, consumers=3)


def test_single_node_topology_cap_is_total_processes():
    # 1 producer + 7 consumers = 8 procs: exactly fills the node.
    _spec(Topology.FANOUT, system=System.XFS,
          placement=Placement.SINGLE_NODE, consumers=PROCS_PER_NODE - 1)
    with pytest.raises(WorkflowError, match="at most 8 processes"):
        _spec(Topology.FANOUT, system=System.XFS,
              placement=Placement.SINGLE_NODE, consumers=PROCS_PER_NODE)


def test_dyad_polling_normalizes_to_coarse():
    spec = WorkflowSpec(system=System.DYAD, sync_mode=SyncMode.POLLING)
    assert spec.sync_mode is SyncMode.COARSE
    # The two spellings alias: byte-identical repr, hence identical
    # cache keys and result fingerprints.
    assert repr(spec) == repr(
        WorkflowSpec(system=System.DYAD, sync_mode=SyncMode.COARSE)
    )


def test_posix_polling_not_normalized():
    spec = WorkflowSpec(system=System.XFS, sync_mode=SyncMode.POLLING)
    assert spec.sync_mode is SyncMode.POLLING


# ---------------------------------------------------------------------------
# node assignment
# ---------------------------------------------------------------------------


def test_fanout_split_consumers_share_one_node():
    # Up to 8 consumers land on one node: the shared-staging-cache
    # configuration the read-amplification experiment measures.
    spec = _spec(Topology.FANOUT, consumers=8)
    assert spec.nodes_required == 2
    assert spec.producer_nodes() == [0]
    assert spec.consumer_nodes() == [1] * 8


def test_fanout_split_consumers_overflow_to_second_node():
    spec = _spec(Topology.FANOUT, consumers=9)
    assert spec.nodes_required == 3
    assert spec.consumer_nodes() == [1] * 8 + [2]


def test_fanin_split_consumer_after_producer_side():
    spec = _spec(Topology.FANIN, producers=9)
    # 9 producers need 2 nodes; the reduce consumer starts on node 2.
    assert spec.nodes_required == 3
    assert spec.producer_nodes() == [0] * 8 + [1]
    assert spec.consumer_nodes() == [2]


def test_pool_split_sides_packed_independently():
    spec = _spec(Topology.POOL, producers=2, consumers=10)
    assert spec.nodes_required == 3
    assert spec.producer_nodes() == [0, 0]
    assert spec.consumer_nodes() == [1] * 8 + [2, 2]


def test_single_node_topology_everything_on_node_zero():
    spec = _spec(Topology.POOL, system=System.XFS,
                 placement=Placement.SINGLE_NODE, producers=2, consumers=3)
    assert spec.nodes_required == 1
    assert spec.producer_nodes() == [0, 0]
    assert spec.consumer_nodes() == [0, 0, 0]


def test_pairwise_node_lists_match_placements():
    spec = WorkflowSpec(system=System.LUSTRE, pairs=12,
                        placement=Placement.SPLIT)
    placements = spec.placements()
    assert spec.producer_nodes() == [pn for pn, _ in placements]
    assert spec.consumer_nodes() == [cn for _, cn in placements]
    # The run's graph: K disjoint edges producer{p} -> consumer{p}, each
    # on its pair's placement.
    cluster = corona(nodes=spec.nodes_required)
    graph = TopologySetup.build(spec, cluster)
    assert graph.edges == [(p, p) for p in range(spec.pairs)]
    ids = [node.node_id for node in cluster.nodes]
    assert [(graph.producer_nodes[s], graph.consumer_nodes[j])
            for s, j in graph.edges] == [
        (ids[pn], ids[cn]) for pn, cn in placements
    ]


# ---------------------------------------------------------------------------
# placements(): pairwise-only, boundary past one full node
# ---------------------------------------------------------------------------


def test_placements_rejected_for_topology_specs():
    spec = _spec(Topology.FANOUT, consumers=4)
    with pytest.raises(WorkflowError, match="pairwise-only"):
        spec.placements()


def test_placements_split_boundary_one_full_node():
    spec = WorkflowSpec(system=System.LUSTRE, pairs=PROCS_PER_NODE,
                        placement=Placement.SPLIT)
    assert spec.nodes_required == 2
    assert spec.placements() == [(0, 1)] * PROCS_PER_NODE


def test_placements_split_boundary_past_one_full_node():
    # pairs=9 crosses the per-node cap: the 9th pair opens a second
    # producer node AND shifts the consumer side to start at node 2.
    spec = WorkflowSpec(system=System.LUSTRE, pairs=PROCS_PER_NODE + 1,
                        placement=Placement.SPLIT)
    assert spec.nodes_required == 4
    placements = spec.placements()
    assert placements[:PROCS_PER_NODE] == [(0, 2)] * PROCS_PER_NODE
    assert placements[PROCS_PER_NODE] == (1, 3)
    for node in range(spec.nodes_required):
        procs = sum(1 for p, c in placements for x in (p, c) if x == node)
        assert procs <= PROCS_PER_NODE


# ---------------------------------------------------------------------------
# repr / fingerprint neutrality and description
# ---------------------------------------------------------------------------


def test_pairwise_repr_has_no_topology_fields():
    # Cache keys and fingerprints hash repr(spec): pairwise specs must
    # render byte-identically to pre-topology specs.
    text = repr(WorkflowSpec(system=System.DYAD, pairs=4))
    assert "topology" not in text
    assert "producers" not in text
    assert "consumers" not in text


def test_pairwise_repr_pinned_to_pre_topology_string():
    assert repr(WorkflowSpec(system=System.XFS)) == (
        "WorkflowSpec(system=<System.XFS: 'xfs'>, "
        "model=MolecularModel(name='JAC', num_atoms=23558, "
        "steps_per_second=1072.92, paper_stride=880, "
        "paper_frame_bytes=659671), "
        "stride=880, frames=128, pairs=1, "
        "placement=<Placement.SINGLE_NODE: 'single-node'>, "
        "sync_mode=<SyncMode.COARSE: 'coarse'>, poll_interval=0.25)"
    )


def test_topology_repr_appends_shape_fields():
    text = repr(_spec(Topology.FANOUT, consumers=4))
    assert "topology=<Topology.FANOUT: 'fanout'>" in text
    assert "producers=1" in text and "consumers=4" in text
    # Distinct shapes must never collide in the cache.
    assert text != repr(_spec(Topology.FANIN, producers=4))


def test_describe_topology_shape():
    assert "fanout 1->4" in _spec(Topology.FANOUT, consumers=4).describe()
    assert "pairs=2" in WorkflowSpec(system=System.DYAD, pairs=2).describe()
