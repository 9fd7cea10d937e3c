"""Structural equivalence collapsing of stuck-at faults.

Two faults are equivalent when every test for one detects the other; the
classic structural rules capture the gate-local cases (AND/NAND/OR/NOR
controlling-value inputs, NOT and BUF pins, singly-loaded stems folded
into their branch), never across a flip-flop.  The rules live in one
place, :mod:`repro.analyze.collapse`; this module keeps each class's
smallest member, which is what makes the paper's fault counts (Table 2)
and coverage denominators meaningful and every simulator's workload
smaller.
"""

from __future__ import annotations

from typing import Dict, List

from repro.circuit.netlist import Circuit
from repro.faults.model import StuckAtFault


def representative_map(
    circuit: Circuit, faults: List[StuckAtFault]
) -> Dict[StuckAtFault, StuckAtFault]:
    """Map every fault in *faults* to its equivalence-class representative.

    The representative of each class is its smallest member under the fault
    ordering (gate index, pin, kind), which makes results deterministic.
    """
    from repro.analyze.collapse import pick_representatives, stuck_at_union

    return pick_representatives(stuck_at_union(circuit), faults)


def collapse_stuck_at(
    circuit: Circuit, faults: List[StuckAtFault]
) -> List[StuckAtFault]:
    """Collapse *faults* by structural equivalence; returns representatives."""
    return sorted(set(representative_map(circuit, faults).values()))


def equivalence_classes(
    circuit: Circuit, faults: List[StuckAtFault]
) -> Dict[StuckAtFault, List[StuckAtFault]]:
    """Full class map: representative -> all members (for diagnosis tools)."""
    reps = representative_map(circuit, faults)
    classes: Dict[StuckAtFault, List[StuckAtFault]] = {}
    for fault in faults:
        classes.setdefault(reps[fault], []).append(fault)
    for members in classes.values():
        members.sort()
    return classes
