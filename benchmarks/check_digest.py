"""Fail when a perfbench run's result digest differs from the pinned one.

    python3 perfbench/run.py --workload paper-node --seed 1 --seconds 5 \\
        --trace 0 > run.out
    python3 benchmarks/check_digest.py run.out

``perfbench/run.py`` prints ``digest <workload> seed <seed> <sha256>``:
a hash over the fingerprints of every result of the run's first grid.
``benchmarks/perfbench_digests.json`` pins it per workload at one seed;
a change that must not move simulated numbers must leave it alone.
Exit 0 on a match, 1 on a mismatch, 2 when the output has no digest
line or nothing is pinned for its workload and seed. A deliberate
change of simulated numbers re-records the pinned digests in the same
change.
"""

from __future__ import annotations

import json
import pathlib
import sys

PINS = pathlib.Path(__file__).resolve().parent / "perfbench_digests.json"


def parse_digest(text: str):
    """``(workload, seed, digest)`` of the run's digest line, or None."""
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] == "digest" and fields[2] == "seed":
            return fields[1], int(fields[3]), fields[4]
    return None


def check(text: str, pins: dict) -> int:
    found = parse_digest(text)
    if found is None:
        print("check-digest: no digest line in the run's output")
        return 2
    workload, seed, digest = found
    pinned = pins["digests"].get(workload) if seed == pins["seed"] else None
    if pinned is None:
        print(f"check-digest: nothing pinned for {workload} at seed {seed}")
        return 2
    if digest != pinned:
        print(f"check-digest: {workload} seed {seed} digest {digest} "
              f"differs from the pinned {pinned}")
        return 1
    print(f"check-digest: {workload} seed {seed} matches the pinned digest")
    return 0


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    text = pathlib.Path(argv[0]).read_text()
    return check(text, json.loads(PINS.read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
