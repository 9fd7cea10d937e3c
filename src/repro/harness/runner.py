"""Uniform entry points for running any engine on any workload.

Everything the tables, benchmarks and examples do reduces to: pick a
circuit, pick a test sequence, pick an engine, get a
:class:`repro.result.FaultSimResult` back.  This module is that reduction,
plus a cached workload factory so repeated benchmark invocations reuse the
(deterministic) generated circuits and test sets.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.circuit.library import load as load_circuit
from repro.circuit.netlist import Circuit
from repro.concurrent.options import SimOptions
from repro.faults.model import StuckAtFault
from repro.faults.transition import all_transition_faults
from repro.faults.universe import target_faults
from repro.obs.tracer import Tracer
from repro.patterns.atpg import generate_tests
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence
from repro.plan import (  # ENGINE_NAMES/WORD_ENGINES re-exported for callers
    ENGINE_NAMES as ENGINE_NAMES,
    WORD_ENGINES as WORD_ENGINES,
    RunPlan,
    engine_options,
    execute,
    sanitized_options,
)
from repro.result import FaultSimResult


def run_stuck_at(
    circuit: Circuit,
    tests: TestSequence,
    engine: str = "csim-MV",
    faults: Optional[Iterable[StuckAtFault]] = None,
    options: Optional[SimOptions] = None,
    tracer: Optional[Tracer] = None,
    budget=None,
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    trace_dir: Optional[str] = None,
    trace_ctx=None,
    record_events: bool = False,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
) -> FaultSimResult:
    """Run one stuck-at engine over *tests* (a :class:`repro.plan.RunPlan`).

    ``engine`` is one of :data:`ENGINE_NAMES`; an explicit ``options``
    overrides the name lookup for concurrent variants (ablations use this).
    A ``tracer`` (see :mod:`repro.obs`) instruments the run — every
    engine, the serial oracle included, mirrors its work counters through
    the hooks.  A ``budget`` (:class:`repro.robust.budget.Budget`) bounds
    the run; a breached run returns a result flagged ``truncated``
    instead of hanging.

    ``jobs > 1`` shards the fault universe over that many worker
    processes (see :mod:`repro.parallel`); detections are bit-identical
    to the single-process run.  A ``tracer`` object cannot cross the
    process boundary, so parallel runs record telemetry in every worker
    instead and attach the merged telemetry to the result; ``trace_dir``
    (with optional ``record_events``) additionally captures the
    cross-process span trace (see :mod:`repro.obs.span`).
    """
    plan = RunPlan(
        circuit,
        tests,
        faults,
        engine=engine,
        options=options,
        word_width=word_width,
        axis_mode=axis_mode,
        record_responses=record_responses,
        budget=budget,
        jobs=jobs,
        shard_strategy=shard_strategy,
        telemetry=tracer is not None,
        trace_dir=trace_dir,
        trace_ctx=trace_ctx,
        record_events=record_events,
    )
    return execute(plan, tracer)


def run_transition(
    circuit: Circuit,
    tests: TestSequence,
    split_lists: bool = True,
    faults=None,
    serial: bool = False,
    tracer: Optional[Tracer] = None,
    budget=None,
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    sanitize: bool = False,
    trace_dir: Optional[str] = None,
    trace_ctx=None,
    record_events: bool = False,
) -> FaultSimResult:
    """Run transition-fault simulation (concurrent by default).

    ``serial`` selects the serial transition oracle instead of the
    two-pass concurrent engine; everything else composes exactly as in
    :func:`run_stuck_at`.
    """
    if serial:
        options = SimOptions(sanitize=True) if sanitize else None
    else:
        options = SimOptions(split_lists=split_lists, sanitize=sanitize)
    plan = RunPlan(
        circuit,
        tests,
        faults,
        engine="serial" if serial else "csim-MV",
        transition=True,
        options=options,
        budget=budget,
        jobs=jobs,
        shard_strategy=shard_strategy,
        telemetry=tracer is not None,
        trace_dir=trace_dir,
        trace_ctx=trace_ctx,
        record_events=record_events,
    )
    return execute(plan, tracer)


def compare_engines(
    circuit: Circuit,
    tests: TestSequence,
    engines: Iterable[str] = ("csim-V", "csim-M", "csim-MV", "PROOFS"),
    faults: Optional[Iterable[StuckAtFault]] = None,
    tracer_factory: Optional[Callable[[str], Optional[Tracer]]] = None,
    sanitize: bool = False,
) -> List[FaultSimResult]:
    """Run several engines on the identical workload (the Tables 3/4 shape).

    Raises if the engines disagree on the detected fault set — a paper
    table with silently inconsistent engines would be meaningless.
    ``tracer_factory`` is called once per engine name to supply a fresh
    tracer (or ``None``); each result then carries its own telemetry.
    ``sanitize`` arms the fault-list sanitizer on every concurrent engine
    in the lineup (engines without fault lists run unchanged).
    """
    fault_list = target_faults(circuit, faults)
    results = [
        run_stuck_at(
            circuit,
            tests,
            engine,
            fault_list,
            options=(
                sanitized_options(engine)
                if sanitize and engine_options(engine) is not None
                else None
            ),
            tracer=tracer_factory(engine) if tracer_factory else None,
        )
        for engine in engines
    ]
    reference = results[0].detected
    for result in results[1:]:
        if result.detected != reference:
            raise AssertionError(
                f"engine disagreement on {circuit.name}: "
                f"{results[0].engine} vs {result.engine}"
            )
    return results


# ----------------------------------------------------------------------
# cached deterministic workloads (circuit + tests), shared by benchmarks
# ----------------------------------------------------------------------

_circuit_cache: Dict[Tuple[str, float], Circuit] = {}
_tests_cache: Dict[Tuple[str, float, str, int], Tuple[TestSequence, float]] = {}


def workload_circuit(name: str, scale: float = 1.0) -> Circuit:
    """Benchmark circuit by name, memoized per (name, scale)."""
    key = (name, scale)
    if key not in _circuit_cache:
        _circuit_cache[key] = load_circuit(name, scale=scale)
    return _circuit_cache[key]


def workload_tests(
    name: str,
    scale: float = 1.0,
    kind: str = "deterministic",
    length: int = 256,
    seed: int = 1992,
) -> TestSequence:
    """Deterministic test sequence for a benchmark circuit, memoized.

    ``kind``: ``deterministic`` (Table 3 profile), ``deterministic-high``
    (Table 4 profile) or ``random`` (Table 5; *length* vectors).
    """
    circuit = workload_circuit(name, scale)
    if kind == "random":
        return random_sequence(circuit, length, seed=seed)
    key = (name, scale, kind, seed)
    if key not in _tests_cache:
        effort = "high" if kind == "deterministic-high" else "standard"
        _tests_cache[key] = generate_tests(circuit, effort=effort, seed=seed)
    return _tests_cache[key][0]


def workload_transition_faults(name: str, scale: float = 1.0):
    """Transition fault universe for a benchmark circuit."""
    return all_transition_faults(workload_circuit(name, scale))
