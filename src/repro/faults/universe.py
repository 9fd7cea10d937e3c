"""The fault universes of a circuit, and the list a run targets.

The full stuck-at universe places ``s-a-0`` and ``s-a-1`` on every gate
output line and on every gate input pin (input pins subsume fanout-branch
faults).  ``stuck_at_universe`` collapses it by structural equivalence,
which is what the fault counts in the paper's Table 2 report.
:func:`target_faults` is the one place a run's fault list is decided.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.circuit.netlist import Circuit
from repro.faults.model import OUTPUT_PIN, Fault, StuckAtFault
from repro.faults.transition import all_transition_faults
from repro.logic.tables import GateType


def all_stuck_at_faults(circuit: Circuit) -> List[StuckAtFault]:
    """The uncollapsed stuck-at universe, in deterministic site order.

    Output faults are placed on every gate (including primary inputs and
    flip-flops — a stuck flip-flop output is a classic sequential fault).
    Input-pin faults are placed on every combinational gate pin and on
    flip-flop D pins.
    """
    faults: List[StuckAtFault] = []
    for gate in circuit.gates:
        for value in (0, 1):
            faults.append(StuckAtFault.make(gate.index, OUTPUT_PIN, value))
        if gate.gtype is GateType.INPUT:
            continue
        for pin in range(gate.arity):
            for value in (0, 1):
                faults.append(StuckAtFault.make(gate.index, pin, value))
    return faults


def stuck_at_universe(circuit: Circuit, collapse: bool = True) -> List[StuckAtFault]:
    """The stuck-at fault list a simulator targets by default, sorted.

    With ``collapse`` (the default, matching the paper's fault counts) one
    representative per structural-equivalence class, its smallest member,
    is kept (:mod:`repro.analyze.collapse` holds the rules).
    """
    faults = all_stuck_at_faults(circuit)
    if not collapse:
        return faults
    from repro.analyze.collapse import pick_representatives, stuck_at_union

    reps = pick_representatives(stuck_at_union(circuit), faults)
    return sorted(set(reps.values()), key=Fault._sort_key)


def target_faults(
    circuit: Circuit,
    faults: Optional[Iterable[Fault]] = None,
    *,
    transition: bool = False,
    pin_level: bool = False,
) -> List[Fault]:
    """The fault list a run targets, sorted by fault key.

    Given *faults*, that list sorted and otherwise as given: nothing is
    deduplicated or filtered, so the sanitizer sees what the caller
    passed.  Given ``None``, the model's default universe: every
    transition fault with ``transition``, else the uncollapsed pin-level
    stuck-at universe with ``pin_level`` (what collapsing starts from),
    else :func:`stuck_at_universe`.  Each fault's key is built once; the
    order equals ``sorted()`` under the faults' own ordering, so fault
    ids do not depend on how a list was built.
    """
    if faults is None:
        if not (transition or pin_level):
            return stuck_at_universe(circuit)
        faults = (
            all_transition_faults(circuit) if transition else all_stuck_at_faults(circuit)
        )
    return sorted(faults, key=Fault._sort_key)
