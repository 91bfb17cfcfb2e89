"""Benchmark of the DYAD/XFS/Lustre reproduction: one command, four workloads.

    python3 perfbench/run.py --workload paper-split --seed 1 --seconds 20 \\
        --trace 0

Runs one workload's grid over and over in a closed loop for ``--seconds``
seconds, serially and in this one process, then prints the metrics by
name and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

- ``--trace 0`` reports the end-to-end metrics with tracing off:
  ``wall_s`` (seconds per grid), ``setup_s`` (importing ``repro`` plus a
  one-frame warm-up, median of several fresh interpreters), both
  relative to the host-speed calibration of :mod:`calibration`, then
  ``peak_rss_mb`` and ``paper_rel_err`` (distance of the
  grid's headline ratio from the paper's; fixed at 1.0 on ``pipelines``,
  which no paper claim covers).
- ``--trace 1`` first times a few untraced grids, then installs the layer
  wrappers of :mod:`instrument` and reports the per-layer metrics of the
  traced grids, plus ``tracing.overhead`` (traced over untraced
  ``wall_s``). Counts come from the first traced grid and must repeat
  exactly in every later one; self times are medians. Spans of the first
  traced grid are written to ``perfbench/_spans/``.

Correctness: every op must finish with zero invariant violations and
every consumer drained; every repeated grid must reproduce the first
grid's result fingerprints bit for bit; cached results must decode to
the computed ones; and in traced runs the wrapper counts must equal the
program's own counters. Any failure makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402  (benchmark-local modules)
import layers  # noqa: E402

#: fresh interpreters timed for ``setup_s`` besides this process
SETUP_PROBES = 8
#: share of a traced run spent timing untraced grids
UNTRACED_SHARE = 0.3


def _grid_seconds(grids: list) -> float:
    """Seconds of one grid at the calibration's reference speed.

    Each grid's host seconds over the mean of the calibrations timed
    between its cells, times ``REFERENCE_S``; the median of that over
    the run's grids. Other tenants change this host's speed by up to 2x,
    in spells from seconds to minutes; the calibrations share the grid's
    spells, so the ratio stays put while the raw time follows the host.
    """
    return calibration.REFERENCE_S * statistics.median(
        elapsed / statistics.fmean(cals) for elapsed, cals in grids)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    """``setup_s`` sample of a fresh interpreter doing what this one did."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-probe"],
        cwd=layers.ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop grid runner: times grids, checks each, tallies ops."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(message)

    def grid(self, before_grid=None, after_grid=None) -> tuple:
        """Run, check and tally one grid; its host seconds and those of
        the calibrations timed between its cells."""
        workload = self.workload
        if before_grid is not None:
            before_grid()
        cals = []

        def calibrate():
            cals.append(calibration.seconds())

        start = perf_counter()
        out = workload.run_grid(between_cells=calibrate)
        calibrate()
        elapsed = perf_counter() - start - sum(cals)
        if after_grid is not None:
            after_grid()
        workload.verify(out)
        workload.cleanup_iteration()
        if self.first is None:
            self.first = out
        for label, fps in out.fingerprints.items():
            # a repetition without a result (``None``) already failed
            differ = sum(a is not None and b is not None and a != b
                         for a, b in zip(
                             fps, self.first.fingerprints.get(label, [])))
            if differ:
                out.fail(f"{label}: replayed results are not bit-identical "
                         "to the first grid's", ops=differ)
        self.attempted += out.ops
        self.failed += out.failed
        self.errors.extend(out.errors)
        return elapsed, cals

    def run_for(self, seconds: float, min_grids: int = 1,
                before_grid=None, after_grid=None) -> list:
        """``grid()`` times of a loop that stops before overrunning
        ``seconds``."""
        grids = []
        deadline = perf_counter() + seconds
        while True:
            grids.append(self.grid(before_grid, after_grid))
            if len(grids) >= min_grids and perf_counter() + statistics.median(
                    elapsed for elapsed, _ in grids) > deadline:
                return grids


def _end_to_end(args, loop, setup_samples):
    grids = loop.run_for(args.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (_grid_seconds(grids), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "paper_rel_err": (loop.workload.headline_error(loop.first), "ratio"),
    }
    return metrics, grids


def _per_layer(args, loop):
    import instrument
    from tracing import LayerTracer

    untraced = loop.run_for(args.seconds * UNTRACED_SHARE)
    tracer = LayerTracer()
    samples = []

    def snapshot():
        samples.append(instrument.layer_metrics(tracer))
        if len(samples) == 1:
            _write_spans(args, tracer)

    try:
        instrument.install(tracer)
        traced = loop.run_for(args.seconds * (1 - UNTRACED_SHARE),
                              min_grids=2,
                              before_grid=tracer.reset_measurements,
                              after_grid=snapshot)
    finally:
        tracer.uninstall()
    for problems in tracer.mismatches.values():
        loop.fail(f"counter cross-check, {'; '.join(problems)}")
    metrics = {}
    for name in samples[0]:
        unit = layers.UNITS[name]
        values = [s[name] for s in samples]
        if unit in ("count", "bytes", "ratio"):
            if any(v != values[0] for v in values):
                # a count that moves between same-seed grids fails the
                # op set it was taken from
                loop.fail(f"{name} did not repeat: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["tracing.overhead"] = (
        _grid_seconds(traced) / _grid_seconds(untraced), "ratio")
    return metrics, traced


def _write_spans(args, tracer) -> None:
    out_dir = os.path.join(HERE, "_spans")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(
        os.path.join(out_dir, f"{args.workload}-seed{args.seed}.jsonl"),
        f"{args.workload}/seed{args.seed}")


def main(argv=None) -> int:
    args = _parse(argv)
    start = perf_counter()
    layers.import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r} (known: "
                         f"{', '.join(workloads.WORKLOADS)})\n")
        return 2
    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    workload = workloads.make(args.workload, args.seed, work_dir)
    workload.warm_up()
    # relative to the host's speed right after set-up, as ``wall_s`` is
    setup_here = (perf_counter() - start) * calibration.REFERENCE_S \
        / calibration.median_seconds()
    if args.setup_probe:
        print(repr(setup_here))
        return 0

    try:
        if args.trace:
            workload.prepare()
            loop = Loop(workload)
            metrics, grids = _per_layer(args, loop)
        else:
            setup_samples = [setup_here] + [_probe_setup(args)
                                            for _ in range(SETUP_PROBES)]
            workload.prepare()
            loop = Loop(workload)
            metrics, grids = _end_to_end(args, loop, setup_samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    correct = loop.failed == 0 and not loop.errors
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(grids)} grid(s) measured: "
          + " ".join(f"{elapsed:.3f}" for elapsed, _ in grids)
          + " s host time")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  ops_attempted = {loop.attempted}")
    print(f"  ops_failed = {loop.failed}")
    print(f"digest {args.workload} seed {args.seed} "
          f"{loop.first.digest()}")
    for problem in loop.errors[:20]:
        print(f"ERROR {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
