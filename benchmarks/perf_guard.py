"""CI perf-guard: fail on kernel or fluid-tier performance regressions.

Run after the benchmark suites have written their payloads::

    python -m pytest benchmarks/test_campaign.py   # -> BENCH_campaign.json
    python -m pytest benchmarks/test_fluid.py      # -> BENCH_fluid.json
    python benchmarks/perf_guard.py

Two gates:

- ``kernel``: the measured ``kernel.contended_events_per_sec`` in
  ``BENCH_campaign.json`` must stay within ``TOLERANCE`` of
  ``benchmarks/baseline_campaign.json``. The tolerance absorbs
  run-to-run noise on shared CI runners; a genuine kernel regression
  (the naive channel coming back, a hot-path deoptimization) loses far
  more than 20%.
- ``fluid``: when ``BENCH_fluid.json`` exists (the fluid-differential CI
  job produces it; the quick-bench job does not), the fluid tier's
  contended-workload speedup over the exact tier must clear the floor in
  ``benchmarks/baseline_fluid.json`` — a same-machine wall-time ratio,
  immune to box noise — and the million-flow admission throughput must
  stay within ``FLUID_TOLERANCE`` of its recorded baseline.
- ``service``: when ``BENCH_service.json`` exists (the service-smoke CI
  job produces it via ``python -m repro.service smoke``), the serving
  hot path is gated the same two ways. Same-run ratios with **no**
  noise tolerance: group-commit amortization (journal records per
  fsync — the signature of the batched journal; a regression to
  one-fsync-per-event reads ~1.0) and the result-store LRU hit ratio.
  Absolute numbers against ``benchmarks/baseline_service.json`` with a
  tolerance band: warm sustained submit throughput and chaos-smoke p99
  latency, each also printed as the implied multiple over the recorded
  pre-overhaul (PR 7) reference. ``--service`` as the first argument
  runs this gate alone (the service-smoke job has no campaign bench).

Missing files exit 2 with instructions; missing keys (a bench/baseline
schema drift) exit 2 with the offending dotted key named instead of a
bare ``KeyError``. Regressions exit 1.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Allowed fractional shortfall vs the recorded kernel baseline.
TOLERANCE = 0.20
#: Allowed fractional shortfall vs the recorded million-flow throughput
#: (absolute flows/sec varies more across runner generations than the
#: kernel events/sec number does, hence the wider band).
FLUID_TOLERANCE = 0.50
#: Allowed fractional shortfall vs the recorded sustained service
#: throughput (an asyncio loop juggling 200 live connections is very
#: sensitive to runner generation and neighbors).
SERVICE_TOLERANCE = 0.50
#: Allowed fractional overshoot of the recorded chaos-smoke p99 — the
#: single noisiest number in the repo: it is the latency of the handful
#: of clients that ride the SIGKILL, so scheduler jitter on a loaded
#: runner lands on it directly.
SERVICE_P99_TOLERANCE = 0.75


class MissingKey(KeyError):
    """A payload lacks an expected key; carries the dotted path."""

    def __init__(self, dotted: str, path: pathlib.Path) -> None:
        super().__init__(dotted)
        self.dotted = dotted
        self.path = path

    def __str__(self) -> str:
        return (
            f"perf-guard: {self.path} has no key {self.dotted!r} — the "
            "benchmark payload and the guard disagree on schema. "
            "Re-run the benchmark suite that writes this file; if its "
            "schema changed intentionally, update benchmarks/perf_guard.py "
            "and the recorded baseline in the same PR."
        )


def _get(payload: dict, dotted: str, path: pathlib.Path):
    """Fetch a dotted key from nested dicts; raise MissingKey, not KeyError."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise MissingKey(dotted, path)
        node = node[part]
    return node


def check_kernel(bench_path: pathlib.Path, baseline_path: pathlib.Path,
                 tolerance: float = TOLERANCE) -> int:
    """Contended-kernel throughput gate. 0 within budget, 1 on regression."""
    bench = json.loads(bench_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    measured = _get(bench, "kernel.contended_events_per_sec", bench_path)
    recorded = _get(baseline, "contended_events_per_sec", baseline_path)
    floor = (1.0 - tolerance) * recorded
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: contended_events_per_sec = "
        f"{measured:,.0f} (baseline {recorded:,.0f}, "
        f"floor {floor:,.0f} = baseline - {tolerance:.0%})"
    )
    if measured < floor:
        print(
            "perf-guard: the contended kernel benchmark regressed more "
            "than the tolerated noise band. If the slowdown is intended, "
            "refresh benchmarks/baseline_campaign.json in the same PR "
            "and explain why in docs/performance.md."
        )
        return 1
    return 0


def check_fluid(bench_path: pathlib.Path, baseline_path: pathlib.Path,
                tolerance: float = FLUID_TOLERANCE) -> int:
    """Fluid-tier gate: contended speedup floor + flow throughput floor."""
    bench = json.loads(bench_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    status = 0

    speedup = _get(bench, "contended.speedup_fluid_vs_exact", bench_path)
    floor = _get(baseline, "contended_speedup_floor", baseline_path)
    verdict = "OK" if speedup >= floor else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: fluid contended speedup = "
        f"{speedup:.2f}x over exact (floor {floor:.1f}x; same-machine "
        "ratio, no noise tolerance)"
    )
    if speedup < floor:
        print(
            "perf-guard: the fluid tier no longer clears its contended-"
            "workload speedup floor. This ratio is measured back-to-back "
            "on one machine, so it is a real regression in the flow-level "
            "engine (or an exact-tier speedup worth recording), not noise."
        )
        status = 1

    measured = _get(bench, "million_flows.flows_per_sec", bench_path)
    recorded = _get(baseline, "million_flows_per_sec", baseline_path)
    floor = (1.0 - tolerance) * recorded
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: million-flow throughput = "
        f"{measured:,.0f} flows/s (baseline {recorded:,.0f}, "
        f"floor {floor:,.0f} = baseline - {tolerance:.0%})"
    )
    if measured < floor:
        print(
            "perf-guard: fluid-engine flow admission throughput regressed "
            "more than the tolerated noise band. If the slowdown is "
            "intended, refresh benchmarks/baseline_fluid.json in the same "
            "PR and explain why in docs/performance.md."
        )
        status = 1
    return status


def check_service(bench_path: pathlib.Path, baseline_path: pathlib.Path,
                  tolerance: float = SERVICE_TOLERANCE,
                  p99_tolerance: float = SERVICE_P99_TOLERANCE) -> int:
    """Serving hot-path gate: amortization/LRU ratios + perf floors."""
    bench = json.loads(bench_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    status = 0

    # Same-run ratios first: machine-noise-immune, so no tolerance.
    records = _get(bench, "server_stats.journal.records", bench_path)
    syncs = _get(bench, "server_stats.journal.syncs", bench_path)
    amortization = records / max(syncs, 1)
    floor = _get(baseline, "journal_amortization_floor", baseline_path)
    verdict = "OK" if amortization >= floor else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: journal amortization = "
        f"{amortization:.1f} events/fsync (floor {floor:.0f}; same-run "
        "ratio, no noise tolerance — per-event fsync reads ~1.0)"
    )
    if amortization < floor:
        print(
            "perf-guard: the journal is syncing nearly per event again — "
            "the group-commit window collapsed (committer not running, "
            "window zeroed, or barriers forcing solo commits). This "
            "ratio does not depend on machine speed; it is a real "
            "serving-hot-path regression."
        )
        status = 1

    hits = _get(bench, "server_stats.store.lru_hits", bench_path)
    misses = _get(bench, "server_stats.store.lru_misses", bench_path)
    hit_ratio = hits / max(hits + misses, 1)
    floor = _get(baseline, "lru_hit_ratio_floor", baseline_path)
    verdict = "OK" if hit_ratio >= floor else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: result-store LRU hit ratio = "
        f"{hit_ratio:.2f} (floor {floor:.2f}; same-run ratio, no noise "
        "tolerance)"
    )
    if hit_ratio < floor:
        print(
            "perf-guard: the smoke workload's repeated cells are missing "
            "the in-memory result index and falling through to "
            "cache-directory reads — check the LRU capacity and the "
            "store-hit fast path."
        )
        status = 1

    # Absolute numbers second: recorded on the authoring box, so a
    # tolerance band absorbs runner-generation differences.
    measured = _get(bench, "sustained.throughput", bench_path)
    recorded = _get(baseline, "sustained_jobs_per_sec", baseline_path)
    pr7 = _get(baseline, "pr7_reference.sustained_jobs_per_sec",
               baseline_path)
    floor = (1.0 - tolerance) * recorded
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: sustained submit throughput = "
        f"{measured:,.0f} jobs/s, {measured / pr7:.1f}x the pre-overhaul "
        f"reference of {pr7:,.0f} (baseline {recorded:,.0f}, floor "
        f"{floor:,.0f} = baseline - {tolerance:.0%})"
    )
    if measured < floor:
        print(
            "perf-guard: the warm serving hot path (batched admission + "
            "group commit + LRU hits) regressed more than the tolerated "
            "noise band. If the slowdown is intended, refresh "
            "benchmarks/baseline_service.json in the same PR and explain "
            "why in docs/service.md."
        )
        status = 1

    measured = _get(bench, "latency_p99", bench_path)
    recorded = _get(baseline, "smoke_p99_seconds", baseline_path)
    pr7 = _get(baseline, "pr7_reference.smoke_p99_seconds", baseline_path)
    ceiling = (1.0 + p99_tolerance) * recorded
    verdict = "OK" if measured <= ceiling else "REGRESSION"
    print(
        f"perf-guard [{verdict}]: chaos-smoke p99 latency = "
        f"{measured:.2f}s, {pr7 / measured:.1f}x under the pre-overhaul "
        f"reference of {pr7:.2f}s (baseline {recorded:.2f}s, ceiling "
        f"{ceiling:.2f}s = baseline + {p99_tolerance:.0%})"
    )
    if measured > ceiling:
        print(
            "perf-guard: the kill-riding clients' recovery latency blew "
            "past the tolerated band — check the restart path (journal "
            "replay, pool prewarm, dispatch-time store check) before "
            "refreshing the baseline."
        )
        status = 1
    return status


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--service":
        # service-smoke CI job: only BENCH_service.json exists there
        bench = (pathlib.Path(argv[1]) if len(argv) > 1
                 else ROOT / "BENCH_service.json")
        baseline = (pathlib.Path(argv[2]) if len(argv) > 2
                    else ROOT / "benchmarks" / "baseline_service.json")
        if not bench.exists():
            print(f"perf-guard: {bench} not found — run "
                  "`python -m repro.service smoke --output "
                  "BENCH_service.json` first")
            return 2
        try:
            return check_service(bench, baseline)
        except MissingKey as exc:
            print(exc)
            return 2
    bench = pathlib.Path(argv[0]) if argv else ROOT / "BENCH_campaign.json"
    baseline = (pathlib.Path(argv[1]) if len(argv) > 1
                else ROOT / "benchmarks" / "baseline_campaign.json")
    if not bench.exists():
        print(f"perf-guard: {bench} not found — run "
              "`python -m pytest benchmarks/test_campaign.py` first")
        return 2
    try:
        status = check_kernel(bench, baseline)
        fluid_bench = ROOT / "BENCH_fluid.json"
        if fluid_bench.exists():
            fluid_status = check_fluid(
                fluid_bench, ROOT / "benchmarks" / "baseline_fluid.json"
            )
            status = status or fluid_status
        else:
            print(
                "perf-guard: BENCH_fluid.json not present — skipping the "
                "fluid-tier gate (run `python -m pytest "
                "benchmarks/test_fluid.py` to produce it)"
            )
        service_bench = ROOT / "BENCH_service.json"
        if service_bench.exists():
            service_status = check_service(
                service_bench, ROOT / "benchmarks" / "baseline_service.json"
            )
            status = status or service_status
        else:
            print(
                "perf-guard: BENCH_service.json not present — skipping "
                "the service gate (run `python -m repro.service smoke` "
                "to produce it)"
            )
    except MissingKey as exc:
        print(exc)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
