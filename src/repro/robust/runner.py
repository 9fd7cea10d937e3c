"""The resilient campaign runner: checkpointed, budgeted, interruptible.

Two shapes of campaign live here:

* :func:`run_checkpointed` — one engine over one test sequence, bound to
  durable checkpoints.  It does not loop: it builds the simulator,
  fingerprints the configuration, restores a checkpoint, and hands the
  one cycle driver (:func:`repro.result.drive`, which also enforces the
  budget and builds the result) a per-cycle hook that writes periodic
  checkpoints (engine ``snapshot()`` + cycle index + config fingerprint)
  and honours a latched Ctrl-C by flushing a final checkpoint at a clean
  cycle boundary before raising :class:`CampaignInterrupted`.  A resumed
  run is bit-identical to an uninterrupted one: the snapshot carries
  detections, work counters and the memory model, so only
  ``wall_seconds`` differs.
* :class:`TableCampaign` — the paper-table campaign (many circuits ×
  engines).  Progress is durable per completed cell; resuming skips
  finished cells and recomputes nothing.

Both refuse to resume from a checkpoint whose config fingerprint does not
match the requested campaign — silently resuming a *different* campaign
would be worse than starting over.
"""

from __future__ import annotations

import signal
from typing import Callable, Optional

from repro.circuit.netlist import Circuit
from repro.concurrent.options import SimOptions
from repro.patterns.vectors import TestSequence
from repro.plan import DEFAULT_CHECKPOINT_EVERY, RunPlan
from repro.result import FaultSimResult, drive
from repro.robust.budget import Budget
from repro.robust.checkpoint import (
    CampaignInterrupted,
    Checkpoint,
    CheckpointError,
    circuit_fingerprint,
    config_fingerprint,
    read_checkpoint,
    write_checkpoint,
)

def run_fingerprint(
    circuit: Circuit,
    tests: TestSequence,
    label: str,
    faults,
    transition: bool,
    extra: tuple = (),
) -> str:
    """Fingerprint binding a single-run checkpoint to its configuration.

    ``extra`` is additional identity the caller wants the checkpoint bound
    to — the parallel runner passes its (strategy, shard index, shard
    count) so a checkpoint can never be resumed into a differently
    sharded campaign, even if the fault subset happens to coincide.
    """
    return config_fingerprint(
        "run",
        "transition" if transition else "stuck-at",
        label,
        circuit_fingerprint(circuit),
        tuple(tests.vectors),
        tuple(faults),
        *extra,
    )


def run_checkpointed(
    circuit: Circuit,
    tests: TestSequence,
    engine: str = "csim-MV",
    *,
    transition: bool = False,
    faults=None,
    options: Optional[SimOptions] = None,
    tracer=None,
    budget: Optional[Budget] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    fingerprint_extra: tuple = (),
    word_width: Optional[int] = None,
    record_responses: bool = False,
) -> FaultSimResult:
    """Run one fault-simulation campaign with durable progress.

    With ``checkpoint_path`` set, the engine state is snapshotted to disk
    every ``checkpoint_every`` cycles (atomically; see
    :mod:`repro.robust.checkpoint`) and once more on interrupt or budget
    truncation.  With ``resume`` the run restarts from the checkpoint and
    produces a result identical — detections, counters, memory — to a run
    that was never interrupted.

    Ctrl-C is latched and honoured at the next cycle boundary, so the
    final checkpoint always captures a clean state; the exception raised
    is :class:`CampaignInterrupted` (a ``KeyboardInterrupt``), carrying
    the checkpoint path for the caller's resume hint.  This is the
    checkpoint leaf of :func:`repro.plan.execute`; called directly it
    steps the engine cycle by cycle even without a checkpoint path.
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
    )
    simulator = plan.simulator(tracer)
    label = simulator.engine_name
    fingerprint = run_fingerprint(
        circuit, tests, label, simulator.faults, transition, fingerprint_extra
    )

    start_cycle = 0
    if resume:
        saved = read_checkpoint(checkpoint_path, expect_fingerprint=fingerprint)
        if saved.kind != "run":
            raise CheckpointError(
                f"checkpoint {checkpoint_path!r} is a {saved.kind!r} checkpoint, "
                "not a single-run checkpoint"
            )
        simulator.restore(saved.payload["state"])
        start_cycle = saved.payload["cycle"]

    def save(cycle: int) -> None:
        if checkpoint_path is None:
            return
        write_checkpoint(
            checkpoint_path,
            Checkpoint(
                "run",
                fingerprint,
                {"cycle": cycle, "state": simulator.snapshot(), "engine": label},
            ),
        )

    # Latch SIGINT so interrupts land between cycles: the final checkpoint
    # must never capture a half-simulated cycle.  Falls back to plain
    # KeyboardInterrupt handling off the main thread.
    interrupted = {"hit": False}
    previous_handler = None
    try:
        previous_handler = signal.signal(
            signal.SIGINT, lambda signum, frame: interrupted.update(hit=True)
        )
    except ValueError:
        previous_handler = None

    def boundary(index: int) -> None:
        if interrupted["hit"]:
            save(simulator.cycle)
            raise CampaignInterrupted(checkpoint_path, simulator.cycle)
        applied = index - start_cycle
        if checkpoint_every and applied and applied % checkpoint_every == 0:
            save(index)

    try:
        result = drive(
            simulator, tests.vectors, budget, start=start_cycle, on_boundary=boundary
        )
    except KeyboardInterrupt:
        # Interrupt delivered outside the latched window (non-main thread,
        # or raised synchronously from inside the engine): the in-memory
        # state may be mid-cycle, so no snapshot is taken here — the last
        # periodic checkpoint on disk remains the resume point.
        raise CampaignInterrupted(checkpoint_path, simulator.cycle) from None
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)

    save(simulator.cycle)
    return result


class TableCampaign:
    """Durable progress for a multi-cell campaign (the paper tables).

    Each completed cell — one circuit × table computation — is written to
    the checkpoint as soon as it finishes; a resumed campaign replays
    finished cells from disk and computes only the remainder.  On Ctrl-C
    the cells completed so far are flushed and
    :class:`CampaignInterrupted` carries the resume location.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        resume: bool = False,
        fingerprint: str = "",
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.cells: dict = {}
        if resume:
            if path is None:
                raise CheckpointError("resume requested without a checkpoint path")
            saved = read_checkpoint(path, expect_fingerprint=fingerprint)
            if saved.kind != "tables":
                raise CheckpointError(
                    f"checkpoint {path!r} is a {saved.kind!r} checkpoint, "
                    "not a table campaign"
                )
            self.cells = dict(saved.payload["cells"])

    def save(self) -> None:
        if self.path is not None:
            write_checkpoint(
                self.path,
                Checkpoint("tables", self.fingerprint, {"cells": dict(self.cells)}),
            )

    def cell(self, key, compute: Callable[[], object]):
        """The cached value for *key*, or ``compute()`` recorded durably."""
        if key in self.cells:
            return self.cells[key]
        try:
            value = compute()
        except KeyboardInterrupt:
            self.save()
            raise CampaignInterrupted(self.path, len(self.cells)) from None
        self.cells[key] = value
        self.save()
        return value
