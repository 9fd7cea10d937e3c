"""Deterministic test generation (PODEM) and redundancy identification.

The paper's Table 4 tests come from the authors' own deterministic test
generator (reference [14]); the sequential generator itself is a separate
paper, but its combinational core is the classic PODEM search: branch and
bound over *primary input* assignments only, pruning through three-valued
simulation of the good and faulty machines.

This implementation is simulation-based and therefore exact by
construction:

* a partial assignment (unassigned inputs = X) is *successful* when some
  output carries known, differing good/faulty values — the very detection
  predicate every simulator in this repository uses;
* it is *hopeless* (prune) when no signal could still develop a
  difference: every signal pair is known-equal, or the fault site's good
  value is already fixed at the stuck value;
* the search is complete: with an unbounded backtrack budget, exhausting
  the tree *proves the fault untestable* (redundant) — the combinational
  redundancy-identification service ATPG flows build on.

Combinational circuits only (time-frame expansion is out of scope; the
sequential test sets in this repository come from the simulation-guided
generator in :mod:`repro.patterns.compaction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.circuit.netlist import Circuit, evaluate_gate
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.universe import target_faults
from repro.logic.values import ONE, X, ZERO, is_binary
from repro.patterns.vectors import TestSequence


def _check_combinational(circuit: Circuit) -> None:
    if circuit.dffs:
        raise ValueError(
            "PODEM here targets combinational circuits; "
            f"{circuit.name!r} has flip-flops"
        )


def _simulate_pair(
    circuit: Circuit, fault: StuckAtFault, assignment: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Three-valued good and faulty values under a partial assignment."""
    good = [X] * len(circuit.gates)
    bad = [X] * len(circuit.gates)
    for pi_index, value in zip(circuit.inputs, assignment):
        good[pi_index] = value
        bad[pi_index] = value
        if fault.gate == pi_index and fault.pin == OUTPUT_PIN:
            bad[pi_index] = fault.value
    for gate_index in circuit.order:
        gate = circuit.gates[gate_index]
        good[gate_index] = evaluate_gate(
            gate, [good[source] for source in gate.fanin]
        )
        inputs = [bad[source] for source in gate.fanin]
        if fault.gate == gate_index and fault.pin != OUTPUT_PIN:
            inputs[fault.pin] = fault.value
        value = evaluate_gate(gate, inputs)
        if fault.gate == gate_index and fault.pin == OUTPUT_PIN:
            value = fault.value
        bad[gate_index] = value
    return good, bad


def _status(circuit: Circuit, good: List[int], bad: List[int]) -> str:
    """``detected`` / ``possible`` / ``hopeless`` for the current state."""
    for po_index in circuit.outputs:
        g, b = good[po_index], bad[po_index]
        if is_binary(g) and is_binary(b) and g != b:
            return "detected"
    for g, b in zip(good, bad):
        if g == X or b == X:
            return "possible"
        if g != b:
            # A definite internal difference can still reach an output
            # only through X-bearing paths; those were caught above, so
            # keep searching only if some signal is unknown (none is).
            continue
    return "hopeless"


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    fault: StuckAtFault
    vector: Optional[Tuple[int, ...]]
    redundant: bool
    backtracks: int
    aborted: bool

    @property
    def detected(self) -> bool:
        return self.vector is not None


def podem(
    circuit: Circuit,
    fault: StuckAtFault,
    max_backtracks: int = 10_000,
) -> PodemResult:
    """Search for a vector detecting *fault*, or prove it redundant.

    Returns a :class:`PodemResult`; ``redundant`` is only claimed when the
    whole input space was exhausted within the backtrack budget
    (``aborted`` marks budget exhaustion — no verdict).
    """
    _check_combinational(circuit)
    num_inputs = len(circuit.inputs)
    assignment: List[int] = [X] * num_inputs

    # Input ordering heuristic: inputs in the fault site's cone first
    # (they excite the fault), then the rest (they sensitize paths).
    cone: Set[int] = set()
    frontier = [fault.gate]
    while frontier:
        index = frontier.pop()
        if index in cone:
            continue
        cone.add(index)
        frontier.extend(circuit.gates[index].fanin)
    order = sorted(
        range(num_inputs),
        key=lambda position: (circuit.inputs[position] not in cone, position),
    )

    backtracks = 0

    # Iterative branch and bound: stack of (position-in-order, tried-both).
    stack: List[Tuple[int, bool]] = []
    depth = 0
    if fault.pin == OUTPUT_PIN:
        site_line = fault.gate
    else:
        site_line = circuit.gates[fault.gate].fanin[fault.pin]

    while True:
        good, bad = _simulate_pair(circuit, fault, assignment)
        status = _status(circuit, good, bad)
        if status == "possible":
            # Excitation prune: three-valued simulation is monotone, so a
            # known site value equal to the stuck value can never change
            # under any completion — the machines stay identical.
            site_value = good[site_line]
            if is_binary(site_value) and site_value == fault.value:
                status = "hopeless"
        if status == "detected":
            return PodemResult(fault, tuple(assignment), False, backtracks, False)
        if status == "possible" and depth < num_inputs:
            position = order[depth]
            assignment[position] = ZERO
            stack.append((position, False))
            depth += 1
            continue
        # Dead end: backtrack to the deepest choice not yet flipped.
        while stack:
            position, flipped = stack.pop()
            depth -= 1
            if not flipped:
                backtracks += 1
                if backtracks > max_backtracks:
                    assignment[position] = X
                    return PodemResult(fault, None, False, backtracks, True)
                assignment[position] = ONE
                stack.append((position, True))
                depth += 1
                break
            assignment[position] = X
        else:
            return PodemResult(fault, None, True, backtracks, False)


def generate_deterministic_tests(
    circuit: Circuit,
    faults: Optional[Iterable[StuckAtFault]] = None,
    max_backtracks: int = 10_000,
) -> Tuple[TestSequence, List[StuckAtFault], List[StuckAtFault]]:
    """ATPG flow: PODEM per undetected fault, fault-simulate to drop.

    Returns ``(tests, redundant, aborted)``: the generated vectors, the
    faults proven untestable, and the faults the budget gave up on.
    Coverage of the returned set is complete by construction:
    ``detected ∪ redundant ∪ aborted`` partitions the universe.
    """
    _check_combinational(circuit)
    from repro.baselines.deductive import deductive_detects

    fault_list = target_faults(circuit, faults)
    remaining: Set[StuckAtFault] = set(fault_list)
    tests = TestSequence(len(circuit.inputs))
    redundant: List[StuckAtFault] = []
    aborted: List[StuckAtFault] = []

    for fault in fault_list:
        if fault not in remaining:
            continue
        result = podem(circuit, fault, max_backtracks)
        if result.redundant:
            redundant.append(fault)
            remaining.discard(fault)
            continue
        if result.aborted:
            aborted.append(fault)
            remaining.discard(fault)
            continue
        # PODEM vectors may leave inputs at X; ground them for the tester.
        vector = tuple(ZERO if value == X else value for value in result.vector)
        tests.append(vector)
        remaining -= deductive_detects(circuit, vector, remaining)

    return tests, sorted(redundant), sorted(aborted)
