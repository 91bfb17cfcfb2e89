"""The pinned perfbench digests and the checker CI gates them with.

``benchmarks/check_digest.py`` compares a ``perfbench/run.py`` run's
``digest`` line with ``benchmarks/perfbench_digests.json``; these tests
pin its verdicts and the shape of the pin file.
"""

import importlib.util
import json
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_digest", BENCHMARKS / "check_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_digest = _checker()
PINS = json.loads((BENCHMARKS / "perfbench_digests.json").read_text())
DIGEST = "ab" * 32


def _output(workload, seed, digest):
    return (f"workload {workload} seed {seed} trace 0: 1 grid(s)\n"
            f"  wall_s = 1.0 s\n"
            f"digest {workload} seed {seed} {digest}\n"
            '{"correct": true}\n')


def test_pins_cover_the_simulating_workloads():
    assert PINS["seed"] == 1
    assert set(PINS["digests"]) == {"paper-node", "paper-split", "pipelines"}
    for digest in PINS["digests"].values():
        assert len(digest) == 64 and int(digest, 16) >= 0


def test_parse_digest_reads_the_digest_line():
    assert (check_digest.parse_digest(_output("pipelines", 3, DIGEST))
            == ("pipelines", 3, DIGEST))
    assert check_digest.parse_digest("wall_s = 1.0 s\n") is None


@pytest.mark.parametrize("text, code", [
    (_output("paper-node", 1, DIGEST), 0),
    (_output("paper-node", 1, "cd" * 32), 1),
    (_output("paper-node", 2, DIGEST), 2),
    (_output("warm-rerun", 1, DIGEST), 2),
    ("no digest here\n", 2),
])
def test_check_verdicts(text, code):
    pins = {"seed": 1, "digests": {"paper-node": DIGEST}}
    assert check_digest.check(text, pins) == code
