"""Common result and work-accounting types shared by every fault simulator.

All engines (concurrent variants, PROOFS baseline, serial oracle) return a
:class:`FaultSimResult`, so the harness, the cross-validation tests and the
benchmark tables treat them interchangeably.  Besides detections, a result
carries deterministic *work counters* — gate evaluations, fault-element
visits, events — which let the benchmarks compare algorithms independently
of interpreter noise, and a memory model in the units the paper reports.

:func:`drive` is the one cycle loop every incremental engine runs through
(its ``run()`` and the checkpointed runner alike): it decides when a run
stops and builds the result it reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.model import Fault

#: One observed output mismatch: ``(cycle, po_position)`` with the cycle
#: 1-based and ``po_position`` the index into ``circuit.outputs``.  Only
#: definite binary disagreements with the good machine qualify — an
#: unknown on either side never enters a response.
Failure = Tuple[int, int]

if TYPE_CHECKING:
    from repro.analyze.collapse import AuditReport
    from repro.obs.metrics import Telemetry
    from repro.robust.budget import Budget


@dataclass
class WorkCounters:
    """Deterministic operation counts accumulated during one run."""

    cycles: int = 0
    good_evaluations: int = 0
    fault_evaluations: int = 0
    element_visits: int = 0
    events: int = 0
    gates_scheduled: int = 0

    def total_work(self) -> int:
        """A single scalar summarizing algorithmic effort."""
        return (
            self.good_evaluations
            + self.fault_evaluations
            + self.element_visits
            + self.events
        )


@dataclass
class MemoryStats:
    """Fault-element memory accounting in the paper's units.

    ``element_bytes``/``descriptor_bytes`` model the C implementation's
    footprint (a fault element is an id, a packed state word and a pointer;
    a descriptor holds the global per-fault record), so the megabyte figures
    are comparable in *shape* to the paper's tables even though the Python
    objects themselves are larger.
    """

    live_elements: int = 0
    peak_elements: int = 0
    num_descriptors: int = 0
    element_bytes: int = 12
    descriptor_bytes: int = 20

    def note_elements(self, live: int) -> None:
        self.live_elements = live
        if live > self.peak_elements:
            self.peak_elements = live

    @property
    def peak_bytes(self) -> int:
        return (
            self.peak_elements * self.element_bytes
            + self.num_descriptors * self.descriptor_bytes
        )

    @property
    def peak_megabytes(self) -> float:
        return self.peak_bytes / 1_000_000.0


@dataclass
class FaultSimResult:
    """Outcome of simulating one fault universe against one test sequence."""

    engine: str
    circuit_name: str
    num_faults: int
    num_vectors: int
    detected: Dict[Fault, int] = field(default_factory=dict)
    #: Faults whose machine showed an unknown value at an output whose good
    #: value was known (first such cycle).  A fault may appear here *and*
    #: in ``detected`` — potential detection often precedes the hard one.
    potentially_detected: Dict[Fault, int] = field(default_factory=dict)
    counters: WorkCounters = field(default_factory=WorkCounters)
    memory: MemoryStats = field(default_factory=MemoryStats)
    wall_seconds: float = 0.0
    #: True when the run was stopped by a budget/watchdog before consuming
    #: the whole test sequence; ``truncation_reason`` says which limit hit.
    truncated: bool = False
    truncation_reason: Optional[str] = None
    #: Engine-ladder degradations behind this result, oldest first: dicts
    #: with ``engine``, ``to``, ``reason`` (see ``repro.robust.ladder``).
    fallbacks: List[dict] = field(default_factory=list)
    #: Window counts per packing axis ("fault"/"pattern") for the vector
    #: engine (see ``repro.vector``); empty for every other engine.
    axis_windows: Dict[str, int] = field(default_factory=dict)
    #: Full output responses per fault — every ``(cycle, po_position)``
    #: binary mismatch against the good machine, in cycle order — recorded
    #: only when the run was asked to (``record_responses``), which also
    #: disables fault dropping.  ``None`` for ordinary runs; the diagnosis
    #: subsystem's dictionary builder is the consumer.
    responses: Optional[Dict[Fault, Tuple[Failure, ...]]] = None
    #: Recorded run telemetry (:class:`repro.obs.Telemetry`) when the run
    #: was traced with a recording tracer; None otherwise.  The import is
    #: type-checking-only so this module stays import-light at runtime
    #: (obs imports result, not back).
    telemetry: Optional[Telemetry] = None
    #: Serial-oracle confirmation of the dominance-inherited detections
    #: when the result was expanded through a dominance collapse map.
    audit: Optional[AuditReport] = None

    @property
    def num_detected(self) -> int:
        return len(self.detected)

    @property
    def coverage(self) -> float:
        """Fault coverage as a fraction in [0, 1]."""
        if self.num_faults == 0:
            return 0.0
        return self.num_detected / self.num_faults

    @property
    def potential_coverage(self) -> float:
        """Coverage counting potential detections (hard ∪ potential)."""
        if self.num_faults == 0:
            return 0.0
        covered = set(self.detected) | set(self.potentially_detected)
        return len(covered) / self.num_faults

    def detection_profile(self) -> Dict[int, int]:
        """Cycle -> number of first detections at that cycle."""
        profile: Dict[int, int] = {}
        for cycle in self.detected.values():
            profile[cycle] = profile.get(cycle, 0) + 1
        return dict(sorted(profile.items()))

    def undetected(self, universe) -> list:
        """Faults from *universe* this run never detected."""
        return [fault for fault in universe if fault not in self.detected]

    def summary(self) -> str:
        text = (
            f"{self.engine}: {self.num_detected}/{self.num_faults} faults "
            f"({100.0 * self.coverage:.2f}%) in {self.num_vectors} vectors, "
            f"{self.wall_seconds:.3f}s, peak {self.memory.peak_megabytes:.3f} MB"
        )
        if self.truncated:
            text += f" [truncated: {self.truncation_reason}]"
        if self.fallbacks:
            steps = " -> ".join(
                [self.fallbacks[0]["engine"]] + [f["to"] for f in self.fallbacks]
            )
            text += f" [degraded: {steps}]"
        if self.axis_windows:
            mix = ", ".join(
                f"{axis}={count}" for axis, count in sorted(self.axis_windows.items())
            )
            text += f" [axis windows: {mix}]"
        return text


class CycleEngine:
    """The surface :func:`drive` runs an incremental engine through.

    An engine provides ``step(vector)`` (one clock cycle), an
    ``engine_name``, a ``tracer`` and the state a result reports
    (``faults``, ``detected``, ``potentially_detected``, ``counters``,
    ``memory``; ``responses_by_fault()`` when it records responses).
    """

    record_responses = False

    def step(self, vector: Sequence[int]) -> object:
        raise NotImplementedError

    def advance(
        self, vectors: Sequence[Sequence[int]], index: int, budget: Optional["Budget"]
    ) -> int:
        """Simulate from ``vectors[index]`` on; returns the cycles applied.

        One :meth:`step` by default.  An engine that simulates several
        cycles at once (vsim's pattern windows) overrides this and must not
        run past ``budget.max_cycles``.
        """
        self.step(vectors[index])
        return 1

    def run(
        self, vectors: Sequence[Sequence[int]], budget: Optional["Budget"] = None
    ) -> FaultSimResult:
        """Simulate a whole sequence and package the result (see :func:`drive`)."""
        return drive(self, vectors, budget)


def drive(
    simulator,
    vectors: Sequence[Sequence[int]],
    budget: Optional["Budget"] = None,
    *,
    start: int = 0,
    on_boundary: Optional[Callable[[int], None]] = None,
) -> FaultSimResult:
    """Run *simulator* over ``vectors[start:]`` and package the result.

    A ``budget`` (:class:`repro.robust.budget.Budget`) is checked before
    every advance; on a breach the run stops cleanly, reports the breach
    to the tracer once, and the result comes back with ``truncated=True``
    and the breach as its reason.  ``num_vectors`` is the simulator's
    cycle count, so a run resumed from a restored simulator reports the
    whole sequence, and a tracer's totals are seeded from the restored
    counters so they still reconcile with ``counters``.

    ``on_boundary(index)`` is called at every cycle boundary before the
    budget check, ``index`` being the next vector to apply; with it the
    run steps one cycle at a time, never a multi-cycle advance, so a
    checkpoint written from the hook lands on an exact cycle.
    """
    vectors = list(vectors)
    # The flat circuit results are reported against (the macro engines
    # simulate a transformed one).
    circuit = getattr(simulator, "original_circuit", simulator.circuit)
    trace = simulator.tracer
    if trace is not None:
        trace.run_start(simulator.engine_name, circuit.name)
        if simulator.counters.cycles:
            trace.resume(simulator.counters)
    clock = budget.start() if budget else None
    started = time.perf_counter()
    reason = None
    index = start
    while index < len(vectors):
        if on_boundary is not None:
            on_boundary(index)
        if clock is not None:
            reason = clock.stop_reason(
                simulator.counters.cycles, simulator.memory.peak_bytes, trace
            )
            if reason is not None:
                break
        if on_boundary is not None:
            simulator.step(vectors[index])
            index += 1
        else:
            index += simulator.advance(vectors, index, budget)
    elapsed = time.perf_counter() - started
    result = FaultSimResult(
        engine=simulator.engine_name,
        circuit_name=circuit.name,
        num_faults=len(simulator.faults),
        num_vectors=simulator.counters.cycles,
        detected=dict(simulator.detected),
        potentially_detected=dict(simulator.potentially_detected),
        counters=simulator.counters,
        memory=simulator.memory,
        wall_seconds=elapsed,
        truncated=reason is not None,
        truncation_reason=reason,
        axis_windows=dict(getattr(simulator, "axis_windows", {})),
        responses=(
            simulator.responses_by_fault() if simulator.record_responses else None
        ),
    )
    if trace is not None:
        trace.run_end(elapsed)
        result.telemetry = trace.telemetry()
    return result
