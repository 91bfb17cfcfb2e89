"""Per-layer metric catalogue and program discovery.

Every per-layer metric the traced run reports is listed in ``TARGETS``
with the end-to-end metric it should move and the workload on which it
does most of its work; ``perfbench/reference.json`` copies this table so
later work can cite it. Units come from ``BENCHMARK.json``, which lists
the same names.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> workload(s) where the layer does most of its work; every row
# should move the end-to-end ``wall_s`` there
_WORKLOAD = {
    "sim.core.events": "paper-split",
    "sim.core.events_per_frame": "paper-split",
    "sim.core.self_s": "paper-split",
    "sim.core.ns_per_event": "paper-split",
    "sim.resources.transfers": "paper-split",
    "sim.resources.reschedules": "paper-split",
    "sim.resources.stale_ratio": "paper-split",
    "sim.resources.self_s": "paper-split",
    "sim.fluid.epochs": "pipelines",
    "sim.fluid.rate_solves": "pipelines",
    "sim.fluid.self_s": "pipelines",
    "sim.rng.jitter_calls": "all",
    "sim.rng.stream_calls": "all",
    "sim.rng.self_s": "all",
    "cluster.build_s": "paper-node",
    "cluster.network.messages": "paper-split",
    "cluster.network.rdma_transfers": "paper-split",
    "cluster.network.bytes_moved": "paper-split",
    "cluster.network.self_s": "paper-split",
    "cluster.ssd.bytes_written": "paper-node",
    "cluster.ssd.bytes_read": "paper-node",
    "cluster.ssd.self_s": "paper-node",
    "storage.posixfs.opens": "paper-node",
    "storage.posixfs.normalize_calls": "paper-node",
    "storage.posixfs.self_s": "paper-node",
    "storage.xfs.self_s": "paper-node",
    "storage.locks.self_s": "paper-node",
    "storage.lustre.mds_rpcs": "paper-split",
    "storage.lustre.bulk_rpcs": "paper-split",
    "storage.lustre.self_s": "paper-split",
    "kvs.commits": "paper-split,pipelines",
    "kvs.lookups": "paper-split,pipelines",
    "kvs.watches": "paper-split,pipelines",
    "kvs.self_s": "paper-split,pipelines",
    "dyad.fast_hits": "paper-split,pipelines",
    "dyad.kvs_waits": "paper-split,pipelines",
    "dyad.cache_hits": "paper-split,pipelines",
    "dyad.fast_hit_ratio": "paper-split,pipelines",
    "dyad.pulls_per_frame": "paper-split,pipelines",
    "dyad.self_s": "paper-split,pipelines",
    "perf.caliper.regions": "all",
    "perf.caliper.self_s": "all",
    "perf.calltree.self_s": "warm-rerun",
    "invariants.checks": "all",
    "invariants.self_s": "all",
    "workflow.runner.spawn_s": "paper-node",
    "workflow.runner.collect_s": "paper-node",
    "workflow.streaming.credits_issued": "pipelines",
    "workflow.streaming.producer_blocks": "pipelines",
    "workflow.streaming.self_s": "pipelines",
    "workflow.topology.self_s": "pipelines",
    "experiments.persist.stores": "paper-node",
    "experiments.persist.store_s": "paper-node",
    "experiments.persist.bytes_stored": "paper-node",
    "experiments.persist.loads": "warm-rerun",
    "experiments.persist.load_s": "warm-rerun",
    "experiments.persist.hit_ratio": "warm-rerun",
    "experiments.common.aggregate_s": "warm-rerun",
    "tracing.overhead": "all",
}

TARGETS = {name: {"moves": "wall_s", "workload": workload}
           for name, workload in _WORKLOAD.items()}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


def import_program() -> None:
    """Put the checkout's ``src`` on ``sys.path`` and import ``repro``.

    Exits with status 2 (and no result line) when the program is absent,
    e.g. in a directory that holds only the benchmark's own files.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program under {src}\n")
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro  # noqa: F401
