"""Telemetry: the structured metrics a recorded run attaches to its result.

A :class:`Telemetry` is what :meth:`RecordingTracer.telemetry` packages and
what engines attach to :attr:`repro.result.FaultSimResult.telemetry`.  It
holds the internal quantities the paper's evaluation argues from — where
the events, fault evaluations and list traversals happened (per cycle, per
gate, per level) rather than just how many there were in total — in plain
dict/list form so the exporters (:mod:`repro.obs.export`) can serialize it
without further translation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from repro.result import WorkCounters


@dataclass
class Telemetry:
    """Everything a recording tracer learned about one run."""

    engine: str = ""
    circuit: str = ""
    wall_seconds: float = 0.0
    #: Totals reconciling exactly with the run's ``FaultSimResult.counters``.
    totals: WorkCounters = field(default_factory=WorkCounters)
    #: phase name -> cumulative wall seconds across all cycles.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: One metric row per cycle this process simulated (see
    #: RecordingTracer.cycle_end for keys) — a run resumed from a
    #: checkpoint has rows only for the cycles after the restore, while
    #: ``totals`` covers the whole run.  Values are ints except
    #: ``queue_depth`` (a level -> count dict), hence ``Any``.
    cycles: List[Dict[str, Any]] = field(default_factory=list)
    #: gate index -> faulty-machine evaluations charged to it (churn).
    gate_fault_evals: Dict[int, int] = field(default_factory=dict)
    gate_good_evals: Dict[int, int] = field(default_factory=dict)
    #: traversed-list length -> number of traversals of that length.
    list_length_histogram: Dict[int, int] = field(default_factory=dict)
    #: cycle -> faults dropped that cycle.
    drop_cycles: Dict[int, int] = field(default_factory=dict)
    #: cycle -> faults first (hard) detected that cycle.
    detect_cycles: Dict[int, int] = field(default_factory=dict)
    diverges: int = 0
    converges: int = 0
    #: Budget breaches observed during the run (kind/limit/actual/cycle).
    budget_breaches: List[Dict[str, object]] = field(default_factory=list)
    #: Engine-ladder degradations recorded through the tracer.
    fallbacks: List[Dict[str, object]] = field(default_factory=list)

    # -- derived views ---------------------------------------------------

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def peak_live_elements(self) -> int:
        return max((row["live_elements"] for row in self.cycles), default=0)

    def top_gates_by_fault_evals(self, k: int = 10) -> List[tuple]:
        """The *k* gates costing the most faulty-machine evaluations."""
        ranked = sorted(
            self.gate_fault_evals.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:k]

    def series(self, key: str) -> List[object]:
        """One per-cycle metric as a list (cycle order)."""
        return [row[key] for row in self.cycles]

    def summary_dict(self) -> Dict[str, object]:
        """JSON-safe summary (the shape the BENCH_*.json trajectory keeps).

        Everything is plain ints/floats/strings/dicts with string keys —
        ``json.dumps`` works on the return value directly.
        """
        return {
            "engine": self.engine,
            "circuit": self.circuit,
            "wall_seconds": self.wall_seconds,
            "counters": asdict(self.totals),
            "total_work": self.totals.total_work(),
            "phase_seconds": dict(self.phase_seconds),
            "num_cycles": self.num_cycles,
            "peak_live_elements": self.peak_live_elements(),
            "diverges": self.diverges,
            "converges": self.converges,
            "drops": sum(self.drop_cycles.values()),
            "detects": sum(self.detect_cycles.values()),
            "top_gates_by_fault_evals": [
                {"gate": gate, "fault_evals": count}
                for gate, count in self.top_gates_by_fault_evals()
            ],
            "list_length_histogram": {
                str(length): count
                for length, count in sorted(self.list_length_histogram.items())
            },
            "drop_timeline": {
                str(cycle): count for cycle, count in sorted(self.drop_cycles.items())
            },
            "budget_breaches": [dict(b) for b in self.budget_breaches],
            "fallbacks": [dict(f) for f in self.fallbacks],
        }
