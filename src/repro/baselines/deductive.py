"""Deductive fault simulation (Armstrong 1972) for combinational circuits.

The historical method whose *data-structure simplicity* the paper's
concurrent simulator deliberately borrows ("the proposed fault simulators
adopt the simplicity of deductive fault simulation"): one fault list per
gate, propagated in level order by set algebra.  A fault appears on a
gate's list exactly when that gate's value in the faulty machine is the
complement of the good value — which is why classic deductive simulation is
two-valued and combinational (list entries carry no state, so unknowns and
sequential memory don't fit; concurrent simulation fixes precisely this by
attaching a state to each element).

Kept as a baseline and teaching reference; it also cross-checks the
concurrent engine on combinational circuits.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set

from repro.circuit.netlist import Circuit, evaluate_gate
from repro.faults.model import Fault, OUTPUT_PIN, StuckAtFault
from repro.faults.universe import target_faults
from repro.logic.values import ONE, ZERO
from repro.result import FaultSimResult, MemoryStats, WorkCounters


def _check_combinational_binary(circuit: Circuit, vector: Sequence[int]) -> None:
    if circuit.dffs:
        raise ValueError(
            "deductive simulation is combinational-only; "
            f"{circuit.name!r} has flip-flops"
        )
    if any(value not in (ZERO, ONE) for value in vector):
        raise ValueError("deductive simulation is two-valued; vector contains X")


def deductive_detects(
    circuit: Circuit,
    vector: Sequence[int],
    faults: Optional[Iterable[StuckAtFault]] = None,
    counters: Optional[WorkCounters] = None,
) -> Set[StuckAtFault]:
    """Faults of *faults* detected by one vector, by fault-list propagation.

    Returns the union of the primary outputs' fault lists intersected with
    the target universe.
    """
    return _detects(
        circuit,
        vector,
        frozenset(target_faults(circuit, faults)),
        counters if counters is not None else WorkCounters(),
    )


def _detects(
    circuit: Circuit,
    vector: Sequence[int],
    universe: FrozenSet[StuckAtFault],
    counters: WorkCounters,
) -> Set[StuckAtFault]:
    _check_combinational_binary(circuit, vector)
    gates = circuit.gates

    values: Dict[int, int] = {}
    lists: Dict[int, FrozenSet[StuckAtFault]] = {}

    for pi_index, value in zip(circuit.inputs, vector):
        values[pi_index] = value
        stuck = StuckAtFault.make(pi_index, OUTPUT_PIN, 1 - value)
        lists[pi_index] = frozenset({stuck}) if stuck in universe else frozenset()

    for gate_index in circuit.order:
        gate = gates[gate_index]
        counters.good_evaluations += 1
        good_inputs = [values[source] for source in gate.fanin]
        good = evaluate_gate(gate, good_inputs)
        values[gate_index] = good

        candidates: Set[StuckAtFault] = set()
        for source in gate.fanin:
            candidates |= lists[source]
            counters.element_visits += len(lists[source])
        for pin in range(gate.arity):
            stuck = StuckAtFault.make(gate_index, pin, 1 - good_inputs[pin])
            if stuck in universe:
                candidates.add(stuck)

        propagated: Set[StuckAtFault] = set()
        for fault in candidates:
            counters.fault_evaluations += 1
            inputs = [
                1 - value if fault in lists[source] else value
                for source, value in zip(gate.fanin, good_inputs)
            ]
            if fault.gate == gate_index and fault.pin != OUTPUT_PIN:
                inputs[fault.pin] = fault.value
            if evaluate_gate(gate, inputs) != good:
                propagated.add(fault)
        output_stuck = StuckAtFault.make(gate_index, OUTPUT_PIN, 1 - good)
        if output_stuck in universe:
            propagated.add(output_stuck)
        lists[gate_index] = frozenset(propagated)

    detected: Set[StuckAtFault] = set()
    for po_index in circuit.outputs:
        detected |= lists[po_index]
    return detected & universe


def simulate_deductive(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    faults: Optional[Iterable[StuckAtFault]] = None,
) -> FaultSimResult:
    """Deductive simulation of a combinational test set (pattern = cycle)."""
    fault_list = target_faults(circuit, faults)
    universe = frozenset(fault_list)
    start = time.perf_counter()
    counters = WorkCounters()
    detected: Dict[Fault, int] = {}
    for cycle, vector in enumerate(vectors, start=1):
        counters.cycles += 1
        for fault in _detects(circuit, vector, universe, counters):
            detected.setdefault(fault, cycle)
    return FaultSimResult(
        engine="deductive",
        circuit_name=circuit.name,
        num_faults=len(fault_list),
        num_vectors=len(vectors),
        detected=detected,
        counters=counters,
        memory=MemoryStats(num_descriptors=len(fault_list)),
        wall_seconds=time.perf_counter() - start,
    )
