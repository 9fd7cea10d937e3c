"""Shard execution backends: multiprocessing workers and a sequential twin.

A shard task is a :class:`repro.plan.RunPlan` with ``jobs == 1`` and a
``shard`` position — circuit, tests, fault subset, engine
configuration, budget, checkpoint binding, all picklable.
:func:`simulate_shard` executes one; it is a module-level function so the
``multiprocessing`` start methods that re-import (spawn/forkserver) can
find it.

Two executors run task lists:

* :class:`MultiprocessExecutor` — a process pool of ``jobs`` workers
  consuming tasks as they free up (``imap_unordered``), which is what
  makes the ``work-stealing`` strategy's oversharded queue dynamic.
  Results are re-ordered by shard index before returning, so completion
  order never leaks into the merged result.
* :class:`SequentialExecutor` — the same tasks in-process, in shard
  order.  The fallback when ``multiprocessing`` is unavailable or
  unwanted, the debug mode (breakpoints work), and the determinism
  oracle: both executors must produce identical outcomes.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.obs.span import SpanWriter, TraceContext
from repro.result import FaultSimResult

if TYPE_CHECKING:
    from repro.obs.tracer import RecordingTracer, Tracer
    from repro.plan import RunPlan


def _make_cycle_clock_tracer(record_events: bool) -> "RecordingTracer":
    """A RecordingTracer that also wall-clocks every cycle boundary."""
    from repro.obs import RecordingTracer

    class CycleClockTracer(RecordingTracer):
        def __init__(self) -> None:
            super().__init__(record_events=record_events)
            self.cycle_clock: List[Tuple[int, float]] = []

        def cycle_start(self, cycle: int) -> None:
            self.cycle_clock.append((cycle, time.time()))
            super().cycle_start(cycle)

    return CycleClockTracer()


def _emit_cycle_range_spans(
    writer: SpanWriter,
    parent: TraceContext,
    cycle_clock: List[Tuple[int, float]],
    end_time: float,
    max_ranges: int = 8,
) -> None:
    """Chunk the cycle clock into at most *max_ranges* child spans."""
    if not cycle_clock:
        return
    chunk = max(1, (len(cycle_clock) + max_ranges - 1) // max_ranges)
    for start_index in range(0, len(cycle_clock), chunk):
        group = cycle_clock[start_index:start_index + chunk]
        next_index = start_index + chunk
        range_end = (
            cycle_clock[next_index][1] if next_index < len(cycle_clock) else end_time
        )
        writer.emit(
            f"cycles {group[0][0]}-{group[-1][0]}",
            parent.child(),
            group[0][1],
            range_end,
            first_cycle=group[0][0],
            last_cycle=group[-1][0],
        )


def simulate_shard(task: "RunPlan") -> Tuple[int, FaultSimResult]:
    """Run one shard plan to completion; returns ``(shard_index, result)``."""
    from repro.plan import execute

    return task.shard[0], execute(task)


def run_traced(
    plan: "RunPlan", tracer: Optional["Tracer"] = None
) -> FaultSimResult:
    """Run a ``jobs == 1`` plan's leaf with span tracing armed.

    The worker writes a ``shard i/N`` span carrying the shard's work
    counters, cycle-range child spans, and — when ``record_events`` — the
    engine's per-gate event stream, all into the shared trace directory.
    """
    from repro.plan import run_leaf

    if tracer is None:
        tracer = _make_cycle_clock_tracer(plan.record_events)
    shard_started = time.time()
    result = run_leaf(plan, tracer)
    _write_shard_trace(plan, tracer, result, shard_started)
    return result


def _write_shard_trace(
    plan: "RunPlan",
    tracer: Optional["Tracer"],
    result: FaultSimResult,
    shard_started: float,
) -> None:
    """Append this shard's span tree (and optional event stream) to the
    trace directory.  The shard span carries the work counters so the
    inspection CLI can build the balance table from spans alone."""
    assert plan.trace_dir is not None and plan.trace_ctx is not None
    index, total = plan.shard
    writer = SpanWriter(plan.trace_dir, label=f"shard{index:02d}")
    try:
        shard_ctx = plan.trace_ctx.child()
        counters = result.counters
        writer.emit(
            f"shard {index}/{total}",
            shard_ctx,
            shard_started,
            time.time(),
            shard=index,
            total=total,
            engine=result.engine,
            strategy=plan.shard_strategy,
            faults=len(plan.faults or ()),
            detected=result.num_detected,
            cycles=counters.cycles,
            good_evaluations=counters.good_evaluations,
            fault_evaluations=counters.fault_evaluations,
            element_visits=counters.element_visits,
            events=counters.events,
            gates_scheduled=counters.gates_scheduled,
            pid=os.getpid(),
        )
        _emit_cycle_range_spans(
            writer, shard_ctx, getattr(tracer, "cycle_clock", []), time.time()
        )
        records = getattr(tracer, "records", None)
        if plan.record_events and records:
            from repro.obs.export import write_jsonl_trace

            events_path = os.path.join(
                plan.trace_dir, f"events-shard{index:02d}-of-{total:02d}.jsonl"
            )
            header = {
                "t": "shard_header",
                "trace_id": plan.trace_ctx.trace_id,
                "span_id": shard_ctx.span_id,
                "shard": index,
                "total": total,
            }
            write_jsonl_trace([header] + list(records), events_path)
    finally:
        writer.close()


#: Callback fired after each completed shard: (shard_index, result).
ShardCallback = Callable[[int, FaultSimResult], None]


class SequentialExecutor:
    """Run shard tasks in-process, in shard order.

    ``on_result`` fires after every completed shard — the chaos/test hook
    for injecting interrupts at deterministic points of a campaign.
    """

    def __init__(self, on_result: Optional[ShardCallback] = None) -> None:
        self.on_result = on_result

    def run(self, tasks: Sequence["RunPlan"]) -> List[FaultSimResult]:
        outcomes: List[Tuple[int, FaultSimResult]] = []
        for task in tasks:
            index, result = simulate_shard(task)
            outcomes.append((index, result))
            if self.on_result is not None:
                self.on_result(index, result)
        outcomes.sort(key=lambda pair: pair[0])
        return [result for _, result in outcomes]


class MultiprocessExecutor:
    """Run shard tasks in a pool of ``jobs`` worker processes.

    Tasks are consumed dynamically (a free worker takes the next pending
    shard) and results are returned in shard order regardless of
    completion order.  On interrupt the pool is terminated — worker-side
    periodic checkpoints remain the resume points for unfinished shards.
    """

    def __init__(self, jobs: int, on_result: Optional[ShardCallback] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.on_result = on_result

    def run(self, tasks: Sequence["RunPlan"]) -> List[FaultSimResult]:
        if not tasks:
            return []
        workers = min(self.jobs, len(tasks))
        if workers == 1:
            return SequentialExecutor(self.on_result).run(tasks)
        outcomes: List[Tuple[int, FaultSimResult]] = []
        context = multiprocessing.get_context()
        with context.Pool(processes=workers) as pool:
            for index, result in pool.imap_unordered(simulate_shard, tasks):
                outcomes.append((index, result))
                if self.on_result is not None:
                    self.on_result(index, result)
        outcomes.sort(key=lambda pair: pair[0])
        return [result for _, result in outcomes]
