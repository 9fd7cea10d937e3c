"""The shard layer: partition a plan, run its shards, merge.

:func:`run_shards` is the ``jobs > 1`` layer of :func:`repro.plan.execute`:
partition the plan's fault list into shards
(:mod:`repro.parallel.sharding`), run one sub-plan per shard with an
independent engine — in ``jobs`` worker processes or in-process
sequentially (:mod:`repro.parallel.executor`) — and merge the shard
results deterministically (:mod:`repro.parallel.merge`).  The merged
detections, detection cycles and coverage are bit-identical to a
single-process run for any shard count, strategy, and executor.
:func:`run_parallel` is the keyword-argument constructor of such a plan.

Resilience composes with parallelism shard-wise:

* **Checkpoints** — with a checkpoint path every shard checkpoints its
  own engine into ``<path>.shardII-of-NN``, fingerprint-bound to the
  shard's fault subset *and* its (strategy, index, total) position, so
  resuming under a different sharding configuration is refused rather
  than silently merged wrong.  ``resume=True`` resumes shards whose
  checkpoint exists (finished shards replay from their final checkpoint
  without re-simulating) and starts the rest fresh — exactly what a
  campaign killed mid-run needs.
* **Budgets** — the budget is armed per shard; any shard's breach marks
  the merged result ``truncated`` (see :mod:`repro.parallel.merge`).
* **Interrupts** — Ctrl-C surfaces as
  :class:`repro.robust.checkpoint.CampaignInterrupted` carrying the base
  checkpoint path; completed and in-flight shards keep their durable
  progress.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from typing import List, Optional, Protocol, Sequence

from repro.circuit.netlist import Circuit
from repro.concurrent.options import SimOptions
from repro.faults.model import Fault
from repro.obs.span import SpanWriter, TraceContext
from repro.parallel.executor import MultiprocessExecutor
from repro.parallel.merge import merge_results
from repro.parallel.sharding import DEFAULT_OVERSHARD, shard_faults
from repro.patterns.vectors import TestSequence
from repro.plan import DEFAULT_CHECKPOINT_EVERY, RunPlan, execute
from repro.result import FaultSimResult
from repro.robust.budget import Budget
from repro.robust.checkpoint import CampaignInterrupted


class ShardExecutor(Protocol):
    """What the shard layer needs from an executor: run plans, in order."""

    def run(self, tasks: Sequence[RunPlan]) -> List[FaultSimResult]: ...


def shard_checkpoint_path(base: str, index: int, total: int) -> str:
    """The per-shard checkpoint file under a campaign's base path."""
    return f"{base}.shard{index:02d}-of-{total:02d}"


def plan_shards(plan: RunPlan) -> List[RunPlan]:
    """The deterministic per-shard sub-plans of a ``jobs > 1`` plan.

    Each sub-plan runs one shard's faults in-process (``jobs=1``) and binds
    its checkpoint to ``<path>.shardII-of-NN`` with its (strategy, index,
    total) position in the fingerprint; it resumes only when that file
    exists.  Sub-plans carry no collapse map: its fingerprint material is
    already in the parent's ``fingerprint_extra``, and the parent expands
    the merged result.
    """
    assert plan.faults is not None
    shards = shard_faults(
        plan.circuit, sorted(plan.faults), plan.jobs, plan.shard_strategy,
        DEFAULT_OVERSHARD,
    )
    total = len(shards)
    tasks: List[RunPlan] = []
    for index, shard in enumerate(shards):
        path = (
            shard_checkpoint_path(plan.checkpoint_path, index, total)
            if plan.checkpoint_path is not None
            else None
        )
        tasks.append(
            replace(
                plan,
                faults=tuple(shard),
                collapsed=None,
                jobs=1,
                shard=(index, total),
                checkpoint_path=path,
                resume=plan.resume and path is not None and os.path.exists(path),
                fingerprint_extra=(
                    *plan.fingerprint_extra,
                    "shard",
                    plan.shard_strategy,
                    index,
                    total,
                ),
            )
        )
    return tasks


def run_shards(
    plan: RunPlan, executor: Optional[ShardExecutor] = None
) -> FaultSimResult:
    """The shard layer of :func:`repro.plan.execute`: partition, run, merge.

    The merged detections, detection cycles and coverage are bit-identical
    to a single-process run for any shard count, strategy and executor.
    With tracing armed the campaign writes ``plan``/``merge`` spans plus
    ``telemetry``/``manifest`` sidecars next to the shard workers' spans.
    """
    writer: Optional[SpanWriter] = None
    if plan.trace_dir is not None:
        writer = SpanWriter(plan.trace_dir, label="campaign")
    plan_started = time.time()
    tasks = plan_shards(plan)
    total = len(tasks)
    if writer is not None and plan.trace_ctx is not None:
        writer.emit(
            "plan",
            plan.trace_ctx.child(),
            plan_started,
            time.time(),
            shards=total,
            strategy=plan.shard_strategy,
            jobs=plan.jobs,
        )
    if executor is None:
        executor = MultiprocessExecutor(plan.jobs)
    started = time.perf_counter()
    try:
        results = executor.run(tasks)
    except CampaignInterrupted as exc:
        # Surface the campaign's *base* path in the resume hint, not the
        # individual shard file the interrupt happened to land in.
        raise CampaignInterrupted(plan.checkpoint_path, exc.cycles_done) from None
    except KeyboardInterrupt:
        raise CampaignInterrupted(plan.checkpoint_path) from None
    merge_started = time.time()
    merged = merge_results(results, wall_seconds=time.perf_counter() - started)
    merged.circuit_name = plan.circuit.name
    if writer is not None and plan.trace_ctx is not None:
        assert plan.trace_dir is not None
        writer.emit(
            "merge",
            plan.trace_ctx.child(),
            merge_started,
            time.time(),
            shards=total,
            detected=merged.num_detected,
        )
        _write_trace_sidecars(
            plan.trace_dir, plan.trace_ctx, merged, plan.jobs,
            plan.shard_strategy, total,
        )
        writer.close()
    return merged


def run_parallel(
    circuit: Circuit,
    tests: TestSequence,
    engine: str = "csim-MV",
    *,
    transition: bool = False,
    faults: Optional[Sequence[Fault]] = None,
    options: Optional[SimOptions] = None,
    jobs: int = 1,
    shard_strategy: str = "round-robin",
    budget: Optional[Budget] = None,
    telemetry: bool = False,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    executor: Optional[ShardExecutor] = None,
    trace_dir: Optional[str] = None,
    trace_ctx: Optional[TraceContext] = None,
    record_events: bool = False,
    word_width: Optional[int] = None,
    record_responses: bool = False,
    fingerprint_extra: tuple = (),
) -> FaultSimResult:
    """Run one fault-simulation campaign sharded over *jobs* workers.

    The default executor runs shards in a process pool of ``jobs``
    workers; ``jobs == 1`` is never partitioned and runs in-process.
    Passing an ``executor`` (:class:`SequentialExecutor` or
    :class:`MultiprocessExecutor`) overrides the backend without touching
    the partition — the standard trick for testing that backends agree.

    ``telemetry=True`` records a :class:`repro.obs.RecordingTracer` in
    every worker and attaches the merged telemetry to the result (the
    parallel counterpart of passing a tracer to a single-process run);
    the merged totals reconcile exactly with the merged work counters.

    ``trace_dir`` arms cross-process span tracing: every shard worker
    appends its span tree (shard → cycle ranges) to the directory,
    parented under ``trace_ctx`` (a fresh root trace when None), and the
    campaign writes ``plan``/``merge`` spans plus ``telemetry.json`` and
    ``manifest.json`` sidecars.  Tracing implies ``telemetry``.
    ``record_events`` additionally streams each shard's per-gate engine
    events to ``events-shard*.jsonl`` files (the ``--trace`` payload).
    """
    plan = RunPlan(
        circuit,
        tests,
        faults,
        engine=engine,
        transition=transition,
        options=options,
        word_width=word_width,
        record_responses=record_responses,
        budget=budget,
        checkpoint_path=checkpoint_path,
        resume=resume,
        checkpoint_every=checkpoint_every,
        fingerprint_extra=fingerprint_extra,
        jobs=jobs,
        shard_strategy=shard_strategy,
        telemetry=telemetry,
        trace_dir=trace_dir,
        trace_ctx=trace_ctx,
        record_events=record_events,
    )
    return execute(plan, executor=executor)


def _write_trace_sidecars(
    trace_dir: str,
    trace_ctx: TraceContext,
    merged: FaultSimResult,
    jobs: int,
    shard_strategy: str,
    shards: int,
) -> None:
    """The inspection sidecars: merged telemetry summary + trace manifest.

    File names carry the trace id so concurrent campaigns sharing one
    trace directory (the serve worker pool) never clobber each other;
    ``repro inspect`` resolves them by the trace it is rendering.
    """
    manifest = {
        "trace_id": trace_ctx.trace_id,
        "circuit": merged.circuit_name,
        "engine": merged.engine,
        "jobs": jobs,
        "shards": shards,
        "strategy": shard_strategy,
    }
    suffix = f"-{trace_ctx.trace_id}"
    with open(os.path.join(trace_dir, f"manifest{suffix}.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if merged.telemetry is not None:
        from repro.obs.export import write_metrics_json

        write_metrics_json(
            merged.telemetry, os.path.join(trace_dir, f"telemetry{suffix}.json")
        )
