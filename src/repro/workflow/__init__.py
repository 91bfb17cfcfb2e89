"""The MD-inspired point-to-point producer/consumer workflow.

This is the paper's test harness (Section IV-C): an ensemble of
producer/consumer pairs. Producers emulate MD simulation — a fixed-duration
"MD sleep" per step, a frame written through the data-management system
every *stride* steps. Consumers read each frame, then run an analytics
sleep matched to the frame-generation frequency.

- :mod:`repro.workflow.spec` — workload specification and placement rules;
- :mod:`repro.workflow.topology` — the run's workflow graph (pairwise is
  K disjoint 1:1 edges; fan-out, fan-in and pool are other edge sets);
- :mod:`repro.workflow.streaming` — the per-edge credit-window channel of
  the streaming sync modes;
- :mod:`repro.workflow.emulator` — the five producer/consumer process
  bodies for each data-management system (DYAD / XFS / Lustre), including
  the coarse-grained barrier synchronization the traditional systems need;
- :mod:`repro.workflow.runner` — builds the cluster, system and graph,
  spawns and runs the processes, and returns instrumented results.
"""

from repro.workflow.runner import WorkflowResult, run_workflow, run_repetitions
from repro.workflow.spec import Placement, System, WorkflowSpec

__all__ = [
    "WorkflowResult",
    "run_workflow",
    "run_repetitions",
    "Placement",
    "System",
    "WorkflowSpec",
]
