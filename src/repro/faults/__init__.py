"""Fault models: stuck-at and transition faults, and the universes runs target.

Equivalence and dominance collapsing live in :mod:`repro.analyze.collapse`.
"""

from repro.faults.model import (
    OUTPUT_PIN,
    Fault,
    FaultKind,
    FaultSite,
    StuckAtFault,
    fault_name,
)
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe, target_faults
from repro.faults.transition import (
    TransitionFault,
    all_transition_faults,
    delayed_value,
)

__all__ = [
    "OUTPUT_PIN",
    "Fault",
    "FaultKind",
    "FaultSite",
    "StuckAtFault",
    "fault_name",
    "all_stuck_at_faults",
    "stuck_at_universe",
    "target_faults",
    "TransitionFault",
    "all_transition_faults",
    "delayed_value",
]
