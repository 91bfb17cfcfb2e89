"""Self-tests of the benchmark's tracing, cross-check and failure accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

layers.import_program()

import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerTracer  # noqa: E402

from repro.experiments.common import JITTER_CV  # noqa: E402
from repro.experiments.parallel import result_fingerprint  # noqa: E402
from repro.experiments.persist import ResultCache  # noqa: E402
from repro.workflow import runner  # noqa: E402

FRAMES = 2


def _small(workload):
    """The workload with every cell cut to a few frames."""
    workload.cells = [
        dataclasses.replace(c, spec=dataclasses.replace(c.spec, frames=FRAMES))
        for c in type(workload).cells
    ]
    return workload


def _one_cell_per_workload():
    return [(name, cls.cells[0]) for name, cls in workloads.WORKLOADS.items()]


@pytest.fixture
def tracer():
    tr = LayerTracer()
    instrument.install(tr)
    yield tr
    tr.uninstall()


def test_reported_layers_match_benchmark_json():
    reported = set(instrument.layer_metrics(LayerTracer()))
    reported.add("tracing.overhead")
    assert reported == set(layers.UNITS) == set(layers.TARGETS)


@pytest.mark.parametrize("name,cell", _one_cell_per_workload())
def test_wrappers_leave_results_bit_identical(name, cell):
    spec = dataclasses.replace(cell.spec, frames=FRAMES)

    def fingerprint():
        # through the module: the wrappers replace ``runner.run_workflow``
        return result_fingerprint(runner.run_workflow(
            spec, seed=7, jitter_cv=JITTER_CV, fidelity=cell.fidelity))

    plain = fingerprint()
    tr = LayerTracer()
    try:
        instrument.install(tr)
        traced = fingerprint()
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.mismatches == {}
    assert tr.op_id == 1 and tr.counts["sim.core.events"] > 0
    assert fingerprint() == plain


def test_uninstall_restores_every_original():
    from repro.kvs.store import KVS

    before = (KVS.commit, runner.run_workflow)
    tr = LayerTracer()
    instrument.install(tr)
    assert KVS.commit is not before[0]
    tr.uninstall()
    assert (KVS.commit, runner.run_workflow) == before


@pytest.mark.parametrize("name", ["paper-split", "pipelines"])
def test_layer_counts_repeat_for_a_seed(name, tracer, tmp_path):
    def counts():
        tracer.reset_measurements()
        wl = _small(workloads.make(name, 3, str(tmp_path)))
        out = wl.run_grid()
        metrics = instrument.layer_metrics(tracer)
        wl.verify(out)
        assert out.failed == 0, out.errors
        return {k: v for k, v in metrics.items()
                if layers.UNITS[k] in ("count", "bytes", "ratio")}

    first = counts()
    assert first == counts()
    assert tracer.mismatches == {}


def test_crosscheck_catches_a_bypassed_entry_point(tracer):
    from repro.cluster.network import Fabric

    # put the unwrapped method back: its messages escape the wrappers
    for owner, attr, original in tracer._patches:
        if owner is Fabric and attr == "message":
            Fabric.message = original
    spec = dataclasses.replace(workloads.SPLIT_CELLS[0].spec, frames=FRAMES,
                               pairs=2)
    runner.run_workflow(spec, seed=1, jitter_cv=JITTER_CV)
    problems = [m for ms in tracer.mismatches.values() for m in ms]
    assert any("cluster.network.messages" in m for m in problems)


def _filled_warm_rerun(tmp_path):
    wl = _small(workloads.make("warm-rerun", 5, str(tmp_path)))
    wl.prepare()
    out = wl.run_grid()
    wl.verify(out)
    assert out.failed == 0 and out.ops == sum(c.runs for c in wl.cells)
    return wl


def test_warm_rerun_cache_miss_is_one_failed_op(tmp_path):
    wl = _filled_warm_rerun(tmp_path)
    loop = run.Loop(wl)
    loop.grid()
    cache = ResultCache(wl.cache_dir)
    os.unlink(cache.path(wl.cache_key(cache, wl.cells[0], 0)))
    loop.grid()
    assert loop.failed == 1
    assert any("cache miss" in e for e in loop.errors)


def test_warm_rerun_different_fingerprint_is_a_failed_op(tmp_path):
    wl = _filled_warm_rerun(tmp_path)
    cache = ResultCache(wl.cache_dir)
    victim, donor = wl.cells[0], wl.cells[1]
    cache.store(wl.cache_key(cache, victim, 0),
                cache.load(wl.cache_key(cache, donor, 0)))
    out = wl.run_grid()
    wl.verify(out)
    assert out.failed >= 1
    assert any("different fingerprint" in e for e in out.errors)


def test_wall_time_follows_the_program_not_the_host():
    grids = [(2.0, [0.010, 0.012]), (2.4, [0.012, 0.010]), (2.2, [0.011])]
    slow_host = [(e * 1.7, [c * 1.7 for c in cals]) for e, cals in grids]
    slow_program = [(e * 1.3, cals) for e, cals in grids]
    assert run._grid_seconds(slow_host) == pytest.approx(
        run._grid_seconds(grids))
    assert run._grid_seconds(slow_program) == pytest.approx(
        1.3 * run._grid_seconds(grids))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_spans",
                                                  "__pycache__"))
    shutil.copy(os.path.join(layers.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-node",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
