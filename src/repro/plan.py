"""One run plan, one executor.

A :class:`RunPlan` is the complete description of one fault-simulation
campaign: circuit, tests, the resolved fault list and its collapse map,
the engine and its options, budget, checkpoint binding, sharding and
tracing.  It is frozen and picklable, so the same object describes a
whole campaign and — with ``jobs == 1`` and a ``shard`` position — each
shard a worker process runs.  Its constructor is the single place that refuses option
combinations no engine can honour, so every accepted option is either
honoured or rejected up front, on every path.

:func:`execute` composes the layers in a fixed order:

0. **resolve** (before the plan is built): :func:`resolve_faults` is
   the one place a fault list is pruned and collapsed;
1. **shard** (only when ``jobs > 1``): partition the fault list, execute
   one sub-plan per shard in worker processes (or any executor), merge
   (:mod:`repro.parallel.runner`);
2. **leaf**: the serial oracle (``engine == "serial"``), or else the one
   cycle driver (:func:`repro.result.drive`) over the plan's simulator —
   through the checkpoint binding
   (:func:`repro.robust.runner.run_checkpointed`) when a checkpoint path
   is set, through the engine's ``run()`` otherwise;
3. **expand** (only with a collapse map): representatives back onto the
   full universe (:func:`expand_result`).

The CLI, the service, the dictionary builder and the harness entry points
all lower their inputs to a plan and call :func:`execute`; none of them
picks a runner itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from repro.baselines.proofs import ProofsSimulator
from repro.baselines.serial import simulate_serial, simulate_serial_transition
from repro.circuit.netlist import Circuit
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.model import Fault
from repro.faults.universe import target_faults
from repro.patterns.vectors import TestSequence
from repro.result import FaultSimResult

if TYPE_CHECKING:
    from repro.analyze.collapse import CollapsedUniverse
    from repro.obs.span import TraceContext
    from repro.obs.tracer import Tracer
    from repro.robust.budget import Budget

#: Engine registry.  ``vsim`` is the pattern-parallel vector kernel
#: (``csim-V`` was already taken by the split-lists concurrent variant).
ENGINE_NAMES = ("csim", "csim-V", "csim-M", "csim-MV", "PROOFS", "vsim", "serial")

#: Engines that take the ``word_width`` packing knob.
WORD_ENGINES = ("PROOFS", "vsim")

#: Default cycles between periodic checkpoint writes.
DEFAULT_CHECKPOINT_EVERY = 64

_OPTIONS_BY_NAME = {
    "csim": SimOptions(),
    "csim-V": SimOptions(split_lists=True),
    "csim-M": SimOptions(use_macros=True),
    "csim-MV": SimOptions(split_lists=True, use_macros=True),
}


def engine_options(engine: str) -> Optional[SimOptions]:
    """The :class:`SimOptions` behind a named concurrent variant.

    ``None`` for engines without an options object (``PROOFS``, ``vsim``,
    ``serial``) — callers use this to tell which engines can take
    option-level knobs such as ``sanitize``.
    """
    return _OPTIONS_BY_NAME.get(engine)


def check_options(
    engine: str,
    *,
    transition: bool = False,
    options: Optional[SimOptions] = None,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    checkpointed: bool = False,
    collapse: Optional[str] = None,
) -> None:
    """Refuse option combinations no engine can honour (``ValueError``).

    The one copy of these rules: :class:`RunPlan` applies them at
    construction, and the service's job-spec validation applies them at
    submit time, before any circuit is loaded.
    """
    from repro.parallel.sharding import STRATEGIES

    if engine not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")
    if shard_strategy not in STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {shard_strategy!r}; choose from {STRATEGIES}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    concurrent = engine_options(engine) is not None
    if transition and engine in WORD_ENGINES:
        raise ValueError(
            "transition faults are simulated by the concurrent engines (csim*) "
            f"or the serial oracle, not {engine!r}"
        )
    if record_responses and transition:
        raise ValueError(
            "response recording (fault dictionaries) only supports the "
            "stuck-at model"
        )
    if options is not None and not concurrent:
        if options.sanitize:
            if transition and engine == "serial":
                raise ValueError(
                    "the serial transition oracle has no fault lists to sanitize"
                )
            raise ValueError(
                f"sanitize requires a concurrent engine (csim*), not {engine!r}"
            )
        raise ValueError(
            f"SimOptions only apply to the concurrent engines (csim*), not {engine!r}"
        )
    if word_width is not None:
        if engine not in WORD_ENGINES:
            raise ValueError(
                f"word_width only applies to the word-packed engines "
                f"{WORD_ENGINES}, not {engine!r}"
            )
        from repro.vector.packing import validate_word_width

        validate_word_width(word_width)
    if axis_mode != "auto":
        if engine != "vsim":
            raise ValueError(f"axis_mode only applies to the vsim engine, not {engine!r}")
        if checkpointed:
            raise ValueError(
                "a checkpointed run steps one cycle at a time and cannot "
                f"honour axis_mode={axis_mode!r}; use axis_mode='auto'"
            )
    if checkpointed and engine == "serial":
        raise ValueError(
            "the serial oracle has no incremental simulator object, so it "
            "cannot checkpoint"
        )
    if collapse is not None:
        from repro.analyze.collapse import COLLAPSE_MODES

        if collapse not in COLLAPSE_MODES:
            raise ValueError(
                f"unknown collapse mode {collapse!r}; choose from {COLLAPSE_MODES}"
            )
        if record_responses and collapse != "equivalence":
            # Dominance argues detection, never the response shape.
            raise ValueError(
                "fault dictionaries require exact response attribution; "
                f"collapse must be 'equivalence' or None, not {collapse!r}"
            )


def sanitized_options(engine: str, transition: bool = False) -> SimOptions:
    """The options of a run of *engine* with the fault-list sanitizer armed.

    Engines without fault lists get bare sanitizing options, which
    :func:`check_options` then refuses with the reason.
    """
    if transition and engine != "serial":
        return SimOptions(split_lists=True, sanitize=True)
    return (engine_options(engine) or SimOptions()).with_(sanitize=True)


@dataclass(frozen=True)
class RunPlan:
    """Every execution knob of one campaign, exactly once (picklable).

    ``faults`` is the resolved fault list (``None`` resolves to the
    model's default universe at construction) and ``collapsed`` the
    collapse map it came from (see :func:`resolve_faults`): its
    fingerprint material is appended to ``fingerprint_extra`` and the
    finished result is expanded through it.  ``options`` overrides the
    engine name's :class:`SimOptions` for the concurrent engines; for a
    transition run any concurrent engine name selects the two-pass
    transition engine (``csim-TV`` unless ``options`` says otherwise).
    ``shard`` is the plan's (index, total) position inside a sharded
    campaign, ``(0, 1)`` for a whole one; ``telemetry`` records a
    :class:`repro.obs.RecordingTracer` where no tracer is supplied (the
    shard layer's stand-in for a tracer that cannot cross processes).
    """

    circuit: Circuit
    tests: TestSequence
    faults: Optional[Tuple[Fault, ...]] = None
    engine: str = "csim-MV"
    transition: bool = False
    options: Optional[SimOptions] = None
    word_width: Optional[int] = None
    axis_mode: str = "auto"
    record_responses: bool = False
    budget: Optional["Budget"] = None
    checkpoint_path: Optional[str] = None
    resume: bool = False
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    collapsed: Optional["CollapsedUniverse"] = None
    #: Extra checkpoint fingerprint material (dictionary kind, a shard's
    #: position in its campaign; the collapse map's is appended).
    fingerprint_extra: tuple = ()
    jobs: int = 1
    shard_strategy: str = "round-robin"
    shard: Tuple[int, int] = (0, 1)
    telemetry: bool = False
    #: Span tracing: shard workers append span files under ``trace_dir``,
    #: parented under ``trace_ctx`` (see :mod:`repro.obs.span`).
    trace_dir: Optional[str] = None
    trace_ctx: Optional["TraceContext"] = None
    #: Also stream per-gate engine events into the trace directory.
    record_events: bool = False

    def __post_init__(self) -> None:
        check_options(
            self.engine,
            transition=self.transition,
            options=self.options,
            word_width=self.word_width,
            axis_mode=self.axis_mode,
            record_responses=self.record_responses,
            jobs=self.jobs,
            shard_strategy=self.shard_strategy,
            checkpointed=self.checkpoint_path is not None,
            collapse=self.collapsed.mode if self.collapsed is not None else None,
        )
        if self.resume and self.checkpoint_path is None:
            from repro.robust.checkpoint import CheckpointError

            raise CheckpointError("resume requested without a checkpoint path")
        if self.options is None and engine_options(self.engine) is not None:
            default = (
                SimOptions(split_lists=True)
                if self.transition
                else engine_options(self.engine)
            )
            object.__setattr__(self, "options", default)
        if self.faults is None:
            universe, _ = resolve_faults(self.circuit, transition=self.transition)
            object.__setattr__(self, "faults", tuple(universe))
        elif not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if self.collapsed is not None:
            object.__setattr__(
                self,
                "fingerprint_extra",
                self.fingerprint_extra + self.collapsed.fingerprint_material(),
            )
        if self.trace_dir is not None and self.trace_ctx is None:
            from repro.obs.span import TraceContext

            object.__setattr__(self, "trace_ctx", TraceContext.new_trace())

    def simulator(self, tracer: Optional["Tracer"] = None):
        """The incremental engine object behind this plan."""
        return make_simulator(
            self.circuit,
            self.engine,
            self.faults,
            self.options,
            tracer,
            word_width=self.word_width,
            axis_mode=self.axis_mode,
            record_responses=self.record_responses,
            transition=self.transition,
        )


def resolve_faults(
    circuit: Circuit,
    faults: Optional[Iterable[Fault]] = None,
    *,
    transition: bool = False,
    prune: bool = False,
    collapse: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[List[Fault], Optional["CollapsedUniverse"]]:
    """The fault list a campaign simulates, and the map to expand it back.

    The base list is :func:`~repro.faults.universe.target_faults` of
    *faults*; without them, the full pin-level universe when collapsing
    (every pin fault then gets its result by exact class inheritance) and
    the model's default universe otherwise.  ``prune``
    drops the provably untestable faults, then ``collapse``
    (``"equivalence"``/``"dominance"``) reduces the survivors to class
    representatives — pruning first drops whole classes, since equivalent
    faults are untestable together.  Returns ``(faults, collapsed)``,
    ``collapsed`` being ``None`` without ``collapse``; ``log`` receives
    the prune and collapse summary lines.
    """
    universe = target_faults(
        circuit, faults, transition=transition, pin_level=collapse is not None
    )
    if prune:
        from repro.analyze.untestable import prune_untestable

        report = prune_untestable(circuit, universe)
        universe = list(report.kept)
        if log is not None:
            log(report.summary())
    if collapse is None:
        return universe, None
    from repro.analyze.collapse import collapse_universe

    collapsed = collapse_universe(circuit, universe, mode=collapse, transition=transition)
    if log is not None:
        log(collapsed.summary())
    return list(collapsed.representatives), collapsed


def expand_result(
    collapsed: Optional["CollapsedUniverse"],
    circuit: Circuit,
    tests: TestSequence,
    result: FaultSimResult,
) -> FaultSimResult:
    """The expand layer: a representatives-only result onto its universe.

    Detections expand through
    :func:`~repro.analyze.collapse.expand_verified` — equivalence classes
    exactly, dominance proposals only where the serial oracle confirms
    them (its report rides on ``result.audit``) — and recorded responses
    exactly through the class map.  Without a map the result is returned
    as is.
    """
    if collapsed is None:
        return result
    from repro.analyze.collapse import expand_verified

    expanded, audit = expand_verified(circuit, tests.vectors, collapsed, result)
    if result.responses is not None:
        expanded.responses = collapsed.expand_responses(result.responses)
    if collapsed.implied_by:
        expanded.audit = audit
    return expanded


def make_simulator(
    circuit: Circuit,
    engine: str = "csim-MV",
    faults=None,
    options: Optional[SimOptions] = None,
    tracer: Optional["Tracer"] = None,
    word_width: Optional[int] = None,
    axis_mode: str = "auto",
    record_responses: bool = False,
    transition: bool = False,
):
    """Build the simulator object behind a named engine (the one factory).

    The checkpoint binding needs the simulator itself — for
    ``snapshot()``/``restore()`` — rather than a finished result; the
    ``serial`` oracle has no incremental simulator object and is rejected
    here.  ``word_width``/``axis_mode`` apply to the word-packed engines;
    ``record_responses`` puts a stuck-at engine into dictionary-building
    mode (no fault dropping, full per-fault failure responses).
    """
    if engine == "serial":
        raise ValueError("the serial oracle has no incremental simulator object")
    if transition:
        return TransitionFaultSimulator(
            circuit, faults, options or SimOptions(split_lists=True), tracer=tracer
        )
    if options is None:
        options = engine_options(engine)
    if options is not None:
        return ConcurrentFaultSimulator(
            circuit, faults, options, tracer=tracer,
            record_responses=record_responses,
        )
    width = word_width if word_width is not None else 64
    if engine == "vsim":
        from repro.vector.kernel import VectorFaultSimulator

        return VectorFaultSimulator(
            circuit, faults, word_width=width, axis_mode=axis_mode,
            tracer=tracer, record_responses=record_responses,
        )
    if engine == "PROOFS":
        return ProofsSimulator(
            circuit, faults, word_size=width, tracer=tracer,
            record_responses=record_responses,
        )
    raise ValueError(f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")


def execute(
    plan: RunPlan,
    tracer: Optional["Tracer"] = None,
    executor=None,
) -> FaultSimResult:
    """Run *plan*: shard layer when ``jobs > 1``, one leaf, then expand.

    ``tracer`` instruments an in-process run; a sharded run records
    per-worker telemetry instead when ``plan.telemetry`` (a tracer cannot
    cross the process boundary).  ``executor`` overrides the shard
    backend (see :mod:`repro.parallel.executor`) without touching the
    partition.
    """
    if plan.jobs > 1:
        from repro.parallel.runner import run_shards

        result = run_shards(plan, executor)
    elif plan.trace_dir is not None:
        from repro.parallel.executor import run_traced

        result = run_traced(plan, tracer)
    else:
        if tracer is None and plan.telemetry:
            from repro.obs.tracer import RecordingTracer

            tracer = RecordingTracer()
        result = run_leaf(plan, tracer)
    return expand_result(plan.collapsed, plan.circuit, plan.tests, result)


def run_leaf(plan: RunPlan, tracer: Optional["Tracer"] = None) -> FaultSimResult:
    """The leaf layer: the serial oracle, or the cycle driver with or
    without the checkpoint binding."""
    if plan.engine == "serial":
        if plan.transition:
            return simulate_serial_transition(
                plan.circuit, plan.tests.vectors, plan.faults, budget=plan.budget
            )
        return simulate_serial(
            plan.circuit, plan.tests.vectors, plan.faults, budget=plan.budget,
            tracer=tracer, record_responses=plan.record_responses,
        )
    if plan.checkpoint_path is not None:
        # Looked up on the module at call time, so instrumentation that
        # wraps ``run_checkpointed`` sees every checkpointed run.
        from repro.robust import runner

        return runner.run_checkpointed(
            plan.circuit,
            plan.tests,
            plan.engine,
            transition=plan.transition,
            faults=plan.faults,
            options=plan.options,
            tracer=tracer,
            budget=plan.budget,
            checkpoint_path=plan.checkpoint_path,
            resume=plan.resume,
            checkpoint_every=plan.checkpoint_every,
            fingerprint_extra=plan.fingerprint_extra,
            word_width=plan.word_width,
            record_responses=plan.record_responses,
        )
    return plan.simulator(tracer).run(plan.tests, budget=plan.budget)
