"""Regression: experiment outcomes across the SharedBandwidth rewrite.

The virtual-time processor-sharing channel (see ``docs/performance.md``)
must reproduce the *exact* event timelines of the kernel it replaced:
the fixture in ``fixtures/kernel_fingerprints.json`` was generated with
the pre-rewrite O(n²) channel, and every representative cell below —
fig7 fan-out, fig8 model scaling (STMV), fig5's contended single-node
XFS, and the resilience grid's faulty runs (mid-stream ``set_bandwidth``
re-timing) — must still hash to the same ``result_fingerprint``.

``system_stats`` keys added *after* the fixture was recorded (e.g. the
kernel-health counters) are filtered out before hashing, so the digest
covers exactly what the pre-rewrite kernel measured: makespan, the full
producer/consumer call trees, and the original counters, all rendered
with ``float.hex``. A mismatch therefore means the channel rewrite
changed a simulated timeline — not that someone added a counter.

``fig5_dyad_single_node_4pairs`` came later: it was recorded by the
commit before the hot-path memos of ``docs/performance.md`` §1, and pins
the single-node DYAD path (local staging, Caliper regions, per-frame RNG
streams) that those memos touch most.

The ``sync_*``, ``topo_*`` and ``faulted_*`` cells came last: they were
recorded by the commit before the workflow driver was folded into one
graph-driven spawn path, and pin every sync mode and graph shape the
paper cells above do not reach (stat-polling, the three streaming modes,
fan-out/fan-in/pool, and faulted streaming and fan-out runs).

Regenerate the fixture (only when a timeline change is *intended*), or
record only the named cells and leave every other entry as it is::

    PYTHONPATH=src python tests/sim/test_channel_fingerprints.py
    PYTHONPATH=src python tests/sim/test_channel_fingerprints.py NAME...
"""

import json
import pathlib

import pytest

from repro.dyad.config import DyadConfig
from repro.experiments.parallel import result_fingerprint
from repro.experiments.resilience import build_plan
from repro.md.models import JAC, MODELS
from repro.workflow.runner import run_workflow
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "kernel_fingerprints.json"

STMV = MODELS[-1]


def _placement(system: System) -> Placement:
    return Placement.SINGLE_NODE if system is System.XFS else Placement.SPLIT


def _resilience_task(system: System, intensity: float = 0.5, **shape):
    spec = WorkflowSpec(system=system, frames=8,
                        placement=_placement(system), **(shape or {"pairs": 4}))
    plan, dyad_config = build_plan(system, intensity, spec)
    kwargs = {"spec": spec, "seed": 11, "jitter_cv": 0.05,
              "fault_plan": plan}
    if dyad_config is not None:
        kwargs["dyad_config"] = dyad_config
    return kwargs


def _cell(system: System, jitter_cv: float = 0.05, **shape):
    """A small sync-mode or topology cell (8 frames, seed 13)."""
    spec = WorkflowSpec(system=system, frames=8,
                        placement=_placement(system), **shape)
    return dict(spec=spec, seed=13, jitter_cv=jitter_cv)


def tasks():
    """Representative cells, keyed by name. Kept cheap (<1 s each)."""
    return {
        "fig7_dyad_jac_8pairs": dict(
            spec=WorkflowSpec(system=System.DYAD, model=JAC,
                              stride=JAC.paper_stride, frames=8, pairs=8,
                              placement=Placement.SPLIT),
            seed=7, jitter_cv=0.05),
        "fig7_lustre_jac_8pairs": dict(
            spec=WorkflowSpec(system=System.LUSTRE, model=JAC,
                              stride=JAC.paper_stride, frames=8, pairs=8,
                              placement=Placement.SPLIT),
            seed=7, jitter_cv=0.05),
        "fig8_dyad_stmv_16pairs": dict(
            spec=WorkflowSpec(system=System.DYAD, model=STMV,
                              stride=STMV.paper_stride, frames=4, pairs=16,
                              placement=Placement.SPLIT),
            seed=3, jitter_cv=0.05),
        "fig8_lustre_stmv_16pairs": dict(
            spec=WorkflowSpec(system=System.LUSTRE, model=STMV,
                              stride=STMV.paper_stride, frames=4, pairs=16,
                              placement=Placement.SPLIT),
            seed=3, jitter_cv=0.05),
        "fig5_xfs_single_node_4pairs": dict(
            spec=WorkflowSpec(system=System.XFS, frames=8, pairs=4,
                              placement=Placement.SINGLE_NODE),
            seed=5, jitter_cv=0.05),
        "fig5_dyad_single_node_4pairs": dict(
            spec=WorkflowSpec(system=System.DYAD, frames=8, pairs=4,
                              placement=Placement.SINGLE_NODE),
            seed=5, jitter_cv=0.05),
        "resilience_dyad_i50": _resilience_task(System.DYAD),
        "resilience_xfs_i50": _resilience_task(System.XFS),
        "resilience_lustre_i50": _resilience_task(System.LUSTRE),
        "sync_xfs_polling_4pairs": _cell(
            System.XFS, pairs=4, sync_mode=SyncMode.POLLING),
        "sync_dyad_windowed_4pairs": _cell(
            System.DYAD, pairs=4, sync_mode=SyncMode.WINDOWED, window=3),
        "sync_lustre_pubsub_4pairs": _cell(
            System.LUSTRE, pairs=4, sync_mode=SyncMode.PUBSUB),
        "sync_xfs_nbuffer_4pairs": _cell(
            System.XFS, pairs=4, sync_mode=SyncMode.NBUFFER),
        "topo_dyad_fanout_coarse": _cell(
            System.DYAD, topology=Topology.FANOUT, consumers=4),
        "topo_lustre_fanout_windowed": _cell(
            System.LUSTRE, topology=Topology.FANOUT, consumers=4,
            sync_mode=SyncMode.WINDOWED),
        "topo_xfs_fanin_polling": _cell(
            System.XFS, topology=Topology.FANIN, producers=4,
            sync_mode=SyncMode.POLLING),
        "topo_dyad_pool_pubsub": _cell(
            System.DYAD, topology=Topology.POOL, producers=3, consumers=2,
            sync_mode=SyncMode.PUBSUB),
        "topo_lustre_pool_lockstep": _cell(
            System.LUSTRE, jitter_cv=0.0, topology=Topology.POOL,
            producers=3, consumers=2),
        "faulted_dyad_windowed_i50": _resilience_task(
            System.DYAD, pairs=4, sync_mode=SyncMode.WINDOWED),
        "faulted_lustre_fanout_i50": _resilience_task(
            System.LUSTRE, topology=Topology.FANOUT, consumers=4),
    }


def _run(name):
    kwargs = dict(tasks()[name])
    spec = kwargs.pop("spec")
    return run_workflow(spec, **kwargs)


def _frozen_fingerprint(result, stats_keys):
    """Fingerprint over the pre-rewrite ``system_stats`` key set only."""
    missing = [k for k in stats_keys if k not in result.system_stats]
    assert not missing, f"recorded stats keys disappeared: {missing}"
    result.system_stats = {k: result.system_stats[k] for k in stats_keys}
    return result_fingerprint(result)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(tasks()))
def test_fingerprint_unchanged_vs_prerewrite_kernel(name, recorded):
    entry = recorded[name]
    result = _run(name)
    assert result.makespan.hex() == entry["makespan_hex"], (
        f"{name}: makespan drifted from the pre-rewrite kernel "
        f"({float.fromhex(entry['makespan_hex'])} -> {result.makespan})"
    )
    assert _frozen_fingerprint(result, entry["stats_keys"]) == \
        entry["fingerprint"], (
        f"{name}: full-result fingerprint changed vs the pre-rewrite "
        "kernel (call trees or counters moved)"
    )


def _refresh(names=()):
    entries = json.loads(FIXTURE.read_text()) if names else {}
    for name in sorted(names or tasks()):
        result = _run(name)
        stats_keys = sorted(result.system_stats)
        entries[name] = {
            "makespan_hex": result.makespan.hex(),
            "stats_keys": stats_keys,
            "fingerprint": _frozen_fingerprint(result, stats_keys),
        }
        print(f"{name}: {entries[name]['fingerprint'][:16]}…")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    import sys

    _refresh(sys.argv[1:])
