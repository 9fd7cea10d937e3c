"""Causal explanations for diagnosis candidates.

Ranking says *which* fault explains the tester's failures; an explanation
says *how*.  The candidate is re-simulated alone with the recording
tracer's event stream armed, and the per-gate ``diverge`` events are
folded into a divergence chain: the fault site, the first gate whose
value diverges in each cycle (events arrive in levelized scheduling
order, so the first record of a cycle is the shallowest new divergence),
and the primary outputs where the difference finally surfaces.  The chain
is the causal story a debug engineer walks by hand — fault, propagation
frontier cycle by cycle, observed failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault, fault_name
from repro.patterns.vectors import TestSequence
from repro.result import Failure


@dataclass(frozen=True)
class CycleStep:
    """One cycle of the divergence chain."""

    cycle: int
    #: First (shallowest) gate that newly diverged this cycle, or None
    #: when the effect only travelled through already-diverged elements.
    first_gate: Optional[str]
    #: All gates that newly diverged this cycle, in scheduling order.
    new_gates: Tuple[str, ...]
    #: Primary outputs observed failing this cycle (output-gate names).
    failing_outputs: Tuple[str, ...]


@dataclass(frozen=True)
class Explanation:
    """The causal chain for one candidate fault."""

    circuit_name: str
    fault: Fault
    fault_label: str
    detected_cycle: Optional[int]
    steps: Tuple[CycleStep, ...]
    responses: Tuple[Failure, ...]

    def render(self, max_steps: int = 32) -> str:
        """Human-readable chain, one line per active cycle."""
        lines = [f"fault {self.fault_label} on {self.circuit_name}"]
        shown = self.steps[:max_steps]
        for step in shown:
            parts = []
            if step.first_gate is not None:
                extra = len(step.new_gates) - 1
                frontier = step.first_gate + (f" (+{extra} more)" if extra else "")
                parts.append(f"diverges at {frontier}")
            if step.failing_outputs:
                parts.append("fails at " + ", ".join(step.failing_outputs))
            lines.append(f"  cycle {step.cycle}: " + "; ".join(parts))
        if len(self.steps) > len(shown):
            lines.append(f"  ... {len(self.steps) - len(shown)} more active cycles")
        if self.detected_cycle is not None:
            lines.append(f"  first detected at cycle {self.detected_cycle}")
        else:
            lines.append("  never detected by these vectors")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-ready form (the ``/diagnose`` ``explain`` field)."""
        return {
            "fault": self.fault_label,
            "site": [self.fault.gate, self.fault.pin, self.fault.kind.value],
            "detected_cycle": self.detected_cycle,
            "steps": [
                {
                    "cycle": step.cycle,
                    "first_gate": step.first_gate,
                    "new_gates": list(step.new_gates),
                    "failing_outputs": list(step.failing_outputs),
                }
                for step in self.steps
            ],
            "responses": [list(failure) for failure in self.responses],
            "text": self.render(),
        }


def explain_fault(
    circuit: Circuit,
    tests: TestSequence,
    fault: Fault,
    *,
    engine: str = "csim-MV",
) -> Explanation:
    """Re-simulate *fault* alone and assemble its divergence chain.

    Uses a concurrent-engine run (the per-gate ``diverge`` event stream
    is a fault-list concept) with response recording on, so the chain and
    the observed failures come from one simulation.
    """
    from repro.plan import engine_options, make_simulator
    from repro.obs.tracer import RecordingTracer

    if engine_options(engine) is None:
        raise ValueError(
            "explanations need a concurrent engine's per-gate event "
            f"stream; {engine!r} does not provide one"
        )
    tracer = RecordingTracer(record_events=True)
    simulator = make_simulator(
        circuit, engine, [fault], tracer=tracer, record_responses=True
    )
    result = simulator.run(tests)
    responses = (result.responses or {}).get(fault, ())

    diverges_by_cycle: Dict[int, List[str]] = {}
    for record in tracer.records:
        if record["t"] == "diverge":
            gate_index = record["gate"]
            diverges_by_cycle.setdefault(int(record["cycle"]), []).append(
                circuit.gates[gate_index].name
            )

    failures_by_cycle: Dict[int, List[str]] = {}
    for cycle, position in responses:
        failures_by_cycle.setdefault(cycle, []).append(
            circuit.gates[circuit.outputs[position]].name
        )

    steps = tuple(
        CycleStep(
            cycle=cycle,
            first_gate=(diverges_by_cycle[cycle][0]
                        if cycle in diverges_by_cycle else None),
            new_gates=tuple(diverges_by_cycle.get(cycle, ())),
            failing_outputs=tuple(failures_by_cycle.get(cycle, ())),
        )
        for cycle in sorted(set(diverges_by_cycle) | set(failures_by_cycle))
    )
    return Explanation(
        circuit_name=circuit.name,
        fault=fault,
        fault_label=fault_name(circuit, fault),
        detected_cycle=result.detected.get(fault),
        steps=steps,
        responses=tuple(responses),
    )
