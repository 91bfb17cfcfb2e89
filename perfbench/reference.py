"""Ungated reference mode: one cold, serial run of the paper campaign.

Runs Fig. 5-12 plus the ablations at paper settings (10 runs, 128
frames), with the result cache off and one worker, and records each
experiment's host wall time and the paper headline ratios in
``perfbench/reference.json``. Nothing gates on these numbers; they are
the campaign figure that later performance work cites.

    python3 perfbench/reference.py

A full run takes about 12 minutes on a 2-core x86 box.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402  (benchmark-local module)

EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
               "fig12", "ablations")
RUNS = 10
FRAMES = 128
OUTPUT = os.path.join(HERE, "reference.json")


def main() -> int:
    layers.import_program()
    from repro.experiments.parallel import campaign
    from repro.experiments.registry import get_experiment

    walls = {}
    ratios = {}
    with campaign(jobs=1, cache=False):
        for name in EXPERIMENTS:
            t0 = time.perf_counter()
            result = get_experiment(name).run(runs=RUNS, frames=FRAMES)
            walls[name] = round(time.perf_counter() - t0, 3)
            if name == "fig5":
                ratios["fig5_consumption_xfs_over_dyad"] = result.ratio(
                    "consumption_time", "xfs", "dyad")
            elif name == "fig7":
                ratios["fig7_consumption_lustre_over_dyad"] = result.ratio(
                    "consumption_time", "lustre", "dyad")
            print(f"{name}: {walls[name]:.1f} s", flush=True)
    record = {
        "settings": {"runs": RUNS, "frames": FRAMES, "jobs": 1,
                     "cache": False},
        "host": {"machine": platform.machine(),
                 "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "wall_s": walls,
        "total_wall_s": round(sum(walls.values()), 3),
        "headline_ratios": ratios,
        "paper_ratios": {"fig5_consumption_xfs_over_dyad": 192.9,
                         "fig7_consumption_lustre_over_dyad": 192.0},
        "layer_targets": layers.TARGETS,
    }
    with open(OUTPUT, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"total {record['total_wall_s']:.1f} s -> {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
