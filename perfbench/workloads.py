"""The benchmark's four workloads, built from ``repro``'s public API.

Each workload is a grid of cells; one *op* is one ``run_workflow`` call
(a repetition, through ``run_repetitions``) or one result-cache load.
Ops run serially in a closed loop: each is issued after the previous one
returns. The benchmark seed is the base seed of every cell's
repetitions, so the same seed always gives the same inputs.

- ``paper-split``: Fig. 7's 64-pair JAC cell and Fig. 8/12's 16-pair STMV
  cell, DYAD and Lustre, split placement, exact tier, cache off.
- ``paper-node``: Fig. 5's single-node grid (DYAD vs XFS at 1/2/4 pairs,
  paper's 128 frames), measured as ``measure()`` does with the result
  cache on in a fresh directory (the CLI default).
- ``pipelines``: windowed DYAD and pub/sub Lustre at 16 pairs, fan-out
  1->8 for DYAD and Lustre, and a DYAD pool 8->4, all hybrid tier.
- ``warm-rerun``: loads and re-aggregates the ``paper-node`` and
  ``paper-split`` cells from a result cache filled beforehand.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.common import JITTER_CV, Cell, FigureResult
from repro.experiments.parallel import result_fingerprint
from repro.experiments.persist import ResultCache
from repro.md.models import JAC, STMV
from repro.workflow.runner import run_repetitions, run_workflow
from repro.workflow.spec import (
    Placement, SyncMode, System, Topology, WorkflowSpec,
)

__all__ = ["WORKLOADS", "GridOutcome", "make"]

SPLIT_FRAMES = 32
NODE_FRAMES = 128
NODE_RUNS = 10
PIPE_FRAMES = 32
PIPE_WINDOW = 2

#: paper headline ratios the workloads compare against
FIG5_XFS_OVER_DYAD = 192.9
FIG7_LUSTRE_OVER_DYAD = 192.0
#: ``paper_rel_err`` of a workload no paper claim covers (not a measurement)
NO_CLAIM_ERROR = 1.0
#: longest the warm-rerun cache fill may take before it is killed
FILL_TIMEOUT_S = 120


@dataclass(frozen=True)
class GridCell:
    """One configuration of a grid and how many repetitions it gets."""

    label: str
    spec: WorkflowSpec
    runs: int = 1
    fidelity: str = "exact"


@dataclass
class GridOutcome:
    """What one pass over a workload's grid produced."""

    ops: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: cell label -> per-repetition results (dropped by ``verify``)
    results: Dict[str, list] = field(default_factory=dict)
    #: cell label -> per-repetition result fingerprints
    fingerprints: Dict[str, List[str]] = field(default_factory=dict)
    #: cell label -> aggregated cell (what ``measure()`` returns first)
    cells: Dict[str, Cell] = field(default_factory=dict)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)

    def digest(self) -> str:
        """SHA-256 over every fingerprint, in grid order."""
        h = hashlib.sha256()
        for label in sorted(self.fingerprints):
            h.update(label.encode())
            for fp in self.fingerprints[label]:
                h.update(fp.encode())
        return h.hexdigest()


def _split(system: System, model, pairs: int) -> WorkflowSpec:
    return WorkflowSpec(system=system, model=model, stride=model.paper_stride,
                        frames=SPLIT_FRAMES, pairs=pairs,
                        placement=Placement.SPLIT)


def _node(system: System, pairs: int) -> WorkflowSpec:
    return WorkflowSpec(system=system, model=JAC, stride=JAC.paper_stride,
                        frames=NODE_FRAMES, pairs=pairs,
                        placement=Placement.SINGLE_NODE)


SPLIT_CELLS = [
    GridCell("jac64-dyad", _split(System.DYAD, JAC, 64)),
    GridCell("jac64-lustre", _split(System.LUSTRE, JAC, 64)),
    GridCell("stmv16-dyad", _split(System.DYAD, STMV, 16)),
    GridCell("stmv16-lustre", _split(System.LUSTRE, STMV, 16)),
]

NODE_CELLS = [
    GridCell(f"fig5-{system.value}-{pairs}", _node(system, pairs),
             runs=NODE_RUNS)
    for pairs in (1, 2, 4) for system in (System.DYAD, System.XFS)
]

PIPE_CELLS = [
    GridCell("windowed-dyad16", WorkflowSpec(
        system=System.DYAD, frames=PIPE_FRAMES, pairs=16,
        placement=Placement.SPLIT, sync_mode=SyncMode.WINDOWED,
        window=PIPE_WINDOW), fidelity="hybrid"),
    GridCell("pubsub-lustre16", WorkflowSpec(
        system=System.LUSTRE, frames=PIPE_FRAMES, pairs=16,
        placement=Placement.SPLIT, sync_mode=SyncMode.PUBSUB,
        window=PIPE_WINDOW), fidelity="hybrid"),
    GridCell("fanout8-dyad", WorkflowSpec(
        system=System.DYAD, frames=PIPE_FRAMES, placement=Placement.SPLIT,
        topology=Topology.FANOUT, consumers=8), fidelity="hybrid"),
    GridCell("fanout8-lustre", WorkflowSpec(
        system=System.LUSTRE, frames=PIPE_FRAMES, placement=Placement.SPLIT,
        topology=Topology.FANOUT, consumers=8), fidelity="hybrid"),
    GridCell("pool8x4-dyad", WorkflowSpec(
        system=System.DYAD, frames=PIPE_FRAMES, placement=Placement.SPLIT,
        topology=Topology.POOL, producers=8, consumers=4),
        fidelity="hybrid"),
]


def _drain_error(result) -> Optional[str]:
    """Why ``result`` is not a clean run, or ``None``.

    Clean means zero invariant violations and every consumer drained
    every frame it was owed (one analytics step per consumed frame).
    """
    if result.invariant_violations or result.system_stats.get(
            "invariant_violations", 0.0):
        return f"invariant violations: {result.invariant_violations[:3]}"
    spec = result.spec
    steps = []
    for tree in result.consumer_trees:
        node = tree.find("analytics_sleep")
        steps.append(node.count if node is not None else 0)
    if spec.topology is Topology.POOL:
        owed = spec.frames * spec.n_producers
        if sum(steps) != owed:
            return f"pool consumed {sum(steps)} of {owed} frames"
    elif spec.topology is Topology.FANIN:
        if steps != [spec.frames]:
            return f"fan-in consumer analysed {steps} of {spec.frames}"
    elif any(s != spec.frames for s in steps):
        return f"consumers drained {steps} of {spec.frames} frames each"
    return None


class Workload:
    """A grid plus the paper claim its headline ratio is compared with."""

    name = ""
    cells: List[GridCell] = []

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def warm_up(self) -> None:
        """Run every cell of the grid once at one frame (set-up)."""
        for cell in self.cells:
            run_workflow(dataclasses.replace(cell.spec, frames=1),
                         seed=self.seed, jitter_cv=JITTER_CV,
                         fidelity=cell.fidelity)

    def cache_key(self, cache: ResultCache, cell: GridCell, rep: int) -> str:
        """The key ``run_repetitions`` stores repetition ``rep`` under."""
        return cache.key(cell.spec, self.seed + 1000 * rep, JITTER_CV, {},
                         None, None, cell.fidelity)

    def prepare(self) -> None:
        """Fixture work done once, before timing (none by default)."""

    def cleanup_iteration(self) -> None:
        """Undo per-iteration side effects, outside the timed region."""

    def run_grid(self, between_cells=None) -> GridOutcome:
        """One pass over the grid, calling ``between_cells`` before each
        cell."""
        out = GridOutcome()
        for cell in self.cells:
            if between_cells is not None:
                between_cells()
            self.run_cell(cell, out)
        return out

    def run_cell(self, cell: GridCell, out: GridOutcome) -> None:
        """Run one cell's ops into ``out``."""
        self._run_cell(cell, out)

    def _run_cell(self, cell: GridCell, out: GridOutcome,
                  cache_dir: Optional[str] = None) -> None:
        out.ops += cell.runs
        try:
            results = run_repetitions(
                cell.spec, runs=cell.runs, base_seed=self.seed,
                jitter_cv=JITTER_CV, jobs=1,
                use_cache=cache_dir is not None, cache_dir=cache_dir,
                fidelity=cell.fidelity)
        except Exception as exc:  # an op that raised is a failed op
            out.fail(f"{cell.label}: {type(exc).__name__}: {exc}", cell.runs)
            return
        out.results[cell.label] = results
        out.cells[cell.label] = Cell.of(results)

    def verify(self, out: GridOutcome) -> None:
        """Check a grid's results outside the timed region: clean runs,
        and a fingerprint per result for the replay comparison (``None``
        for a repetition that produced no result)."""
        for label, results in out.results.items():
            for result in results:
                problem = result and _drain_error(result)
                if problem:
                    out.fail(f"{label} seed {result.seed}: {problem}")
            out.fingerprints[label] = [result and result_fingerprint(result)
                                       for result in results]
        out.results.clear()

    def headline_error(self, out: GridOutcome) -> float:
        raise NotImplementedError


def _consumption(out: GridOutcome, label: str) -> float:
    return out.cells[label].consumption_time


def _fig5_error(out: GridOutcome) -> float:
    cells = {}
    for pairs in (1, 2, 4):
        for system in ("dyad", "xfs"):
            cells[(pairs, system)] = out.cells[f"fig5-{system}-{pairs}"]
    fig = FigureResult(figure_id="Fig5", title="", x_name="pairs",
                       xs=[1, 2, 4], systems=["dyad", "xfs"], cells=cells)
    ratio = fig.ratio("consumption_time", "xfs", "dyad")
    return abs(ratio - FIG5_XFS_OVER_DYAD) / FIG5_XFS_OVER_DYAD


class PaperSplit(Workload):
    name = "paper-split"
    cells = SPLIT_CELLS

    def headline_error(self, out: GridOutcome) -> float:
        ratio = (_consumption(out, "jac64-lustre")
                 / _consumption(out, "jac64-dyad"))
        return abs(ratio - FIG7_LUSTRE_OVER_DYAD) / FIG7_LUSTRE_OVER_DYAD


class PaperNode(Workload):
    name = "paper-node"
    cells = NODE_CELLS

    def _cache_dir(self) -> str:
        return os.path.join(self.work_dir, "cache-paper-node")

    def run_cell(self, cell: GridCell, out: GridOutcome) -> None:
        self._run_cell(cell, out, cache_dir=self._cache_dir())

    def verify(self, out: GridOutcome) -> None:
        """Also: results reloaded from the cache must be bit-identical."""
        super().verify(out)
        cache = ResultCache(self._cache_dir())
        for cell in self.cells:
            for r, expected in enumerate(out.fingerprints.get(cell.label,
                                                              [])):
                loaded = cache.load(self.cache_key(cache, cell, r))
                if loaded is None or result_fingerprint(loaded) != expected:
                    out.fail(f"{cell.label} rep {r}: cached result differs "
                             "from the computed one")

    def cleanup_iteration(self) -> None:
        shutil.rmtree(self._cache_dir(), ignore_errors=True)

    def headline_error(self, out: GridOutcome) -> float:
        return _fig5_error(out)


class Pipelines(Workload):
    name = "pipelines"
    cells = PIPE_CELLS

    def headline_error(self, out: GridOutcome) -> float:
        # No paper claim covers streaming or N:M shapes, so no run can
        # move this: it is the error of predicting nothing, |0 - p| / p.
        return NO_CLAIM_ERROR


class WarmRerun(Workload):
    name = "warm-rerun"
    cells = NODE_CELLS + SPLIT_CELLS

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.cache_dir = os.path.join(work_dir, "cache-warm-rerun")
        self.expected: Dict[str, List[str]] = {}

    def prepare(self) -> None:
        """Fill the cache by computing every cell once (not timed).

        The fill runs in a child interpreter (``fill_cache.py``), so that
        its memory high-water mark stays out of this process's
        ``peak_rss_mb``. The child is waited for, and killed and reaped if
        it overruns, so no process outlives the fill.
        """
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.work_dir, exist_ok=True)
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "fill_cache.py")
        subprocess.run(
            [sys.executable, script],
            input=pickle.dumps((self.seed, self.work_dir, self.cells)),
            stdout=subprocess.DEVNULL, timeout=FILL_TIMEOUT_S, check=True)
        with open(self.expected_path()) as fh:
            self.expected = json.load(fh)

    def expected_path(self) -> str:
        """Where the fill leaves its result fingerprints."""
        return os.path.join(self.work_dir, "warm-rerun-expected.json")

    def fill(self) -> Dict[str, List[str]]:
        """Compute every cell into the cache; its result fingerprints."""
        fill = GridOutcome()
        for cell in self.cells:
            self._run_cell(cell, fill, cache_dir=self.cache_dir)
        Workload.verify(self, fill)
        if fill.failed:
            raise RuntimeError(f"cache fill failed: {fill.errors}")
        return fill.fingerprints

    def run_cell(self, cell: GridCell, out: GridOutcome) -> None:
        """Load the cell's repetitions from the cache and aggregate them."""
        cache = ResultCache(self.cache_dir)
        results = []
        for r in range(cell.runs):
            out.ops += 1
            result = cache.load(self.cache_key(cache, cell, r))
            if result is None:
                out.fail(f"{cell.label} rep {r}: cache miss")
            results.append(result)
        out.results[cell.label] = results
        hits = [r for r in results if r is not None]
        if hits:
            out.cells[cell.label] = Cell.of(hits)

    def verify(self, out: GridOutcome) -> None:
        """Also: every load decodes to the fingerprint computed at fill."""
        super().verify(out)
        for label, fps in out.fingerprints.items():
            for r, (fp, expected) in enumerate(zip(fps,
                                                   self.expected[label])):
                if fp is not None and fp != expected:
                    out.fail(f"{label} rep {r}: loaded result decodes to "
                             "a different fingerprint than the computed one")

    def headline_error(self, out: GridOutcome) -> float:
        return _fig5_error(out)


WORKLOADS = {cls.name: cls for cls in (PaperSplit, PaperNode, Pipelines,
                                       WarmRerun)}


def make(name: str, seed: int, work_dir: str) -> Workload:
    return WORKLOADS[name](seed, work_dir)
