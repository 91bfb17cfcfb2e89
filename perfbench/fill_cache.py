"""Child process of warm-rerun's set-up: fills its result cache.

Reads a pickled ``(seed, work_dir, cells)`` on standard input, computes
every cell into the cache under ``work_dir`` and writes the result
fingerprints, as JSON, to ``WarmRerun.expected_path()``.
"""

from __future__ import annotations

import json
import os
import pickle
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402  (benchmark-local module)


def main() -> int:
    layers.import_program()
    import workloads

    seed, work_dir, cells = pickle.load(sys.stdin.buffer)
    workload = workloads.WarmRerun(seed, work_dir)
    workload.cells = cells
    expected = workload.fill()
    with open(workload.expected_path(), "w") as fh:
        json.dump(expected, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
