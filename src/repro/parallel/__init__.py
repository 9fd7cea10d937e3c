"""Fault-sharded parallel campaign execution.

Concurrent fault simulation is embarrassingly parallel along the fault
axis: faulty machines interact with the good machine, never with each
other, so the universe can be partitioned into shards, each shard
simulated by an independent engine (in a worker process or in-process),
and the shard results merged into a campaign result whose detections are
bit-identical to a single-process run — for any shard count, partition
strategy, or executor.

* :mod:`repro.parallel.sharding` — partition strategies (round-robin,
  level-balanced, work-stealing) and the activity estimator they share.
* :mod:`repro.parallel.executor` — the multiprocessing pool and its
  sequential in-process twin that run per-shard
  :class:`repro.plan.RunPlan` objects.
* :mod:`repro.parallel.merge` — the deterministic merge (detections,
  counters, telemetry, modelled memory) and its exactness contract.
* :mod:`repro.parallel.runner` — the shard layer of
  :func:`repro.plan.execute` (partition, execute, merge; composes with
  budgets, per-shard checkpoints, and resume) and ``run_parallel``.
"""

from repro.parallel.executor import (
    MultiprocessExecutor,
    SequentialExecutor,
    simulate_shard,
)
from repro.parallel.merge import (
    merge_counters,
    merge_memory,
    merge_results,
    merge_telemetry,
)
from repro.parallel.runner import (
    plan_shards,
    run_parallel,
    shard_checkpoint_path,
)
from repro.parallel.sharding import (
    DEFAULT_OVERSHARD,
    STRATEGIES,
    activity_weights,
    shard_faults,
)

__all__ = [
    "DEFAULT_OVERSHARD",
    "STRATEGIES",
    "MultiprocessExecutor",
    "SequentialExecutor",
    "activity_weights",
    "merge_counters",
    "merge_memory",
    "merge_results",
    "merge_telemetry",
    "plan_shards",
    "run_parallel",
    "shard_checkpoint_path",
    "shard_faults",
    "simulate_shard",
]
