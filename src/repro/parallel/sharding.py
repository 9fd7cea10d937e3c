"""Fault-universe partitioning for the parallel campaign runner.

Concurrent fault simulation parallelizes naturally along the fault axis:
faulty machines never interact — each diverges from, and converges back
to, the *good* machine only — so any partition of the fault universe can
be simulated by independent engines and merged afterwards (see
:mod:`repro.parallel.merge`).  What the partition *does* change is load
balance: a shard whose faults all die in cycle 3 finishes long before a
shard of long-lived faults, and the campaign runs at the speed of its
slowest shard.

Three strategies, all deterministic for a given (circuit, universe, K):

``round-robin``
    Fault *i* of the sorted universe goes to shard ``i mod K``.  The
    sorted universe interleaves neighbouring sites across shards, which
    in practice spreads activity evenly; this is the default.
``level-balanced``
    Faults are weighted by an estimate of the activity they can cause —
    the size of the site gate's combinational fanout cone, computed from
    the circuit levelization — and packed into K shards by greedy
    longest-processing-time assignment.  Costs one reverse-topological
    sweep; pays off when fault activity is very non-uniform (a few
    faults near the PIs fan out over the whole netlist).
``work-stealing``
    The universe is cut into ``K * overshard`` small shards consumed
    dynamically from a shared queue: a worker that finishes early steals
    the next pending shard.  Balances runtime skew the static strategies
    cannot predict, at the price of more good-machine replication (every
    shard re-simulates the good machine).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.logic.tables import GateType

#: Valid ``--shard-strategy`` names.
STRATEGIES = ("round-robin", "level-balanced", "work-stealing")

#: Shards per worker under ``work-stealing`` (small shards steal better,
#: but each one re-simulates the good machine).
DEFAULT_OVERSHARD = 4


def activity_weights(circuit: Circuit) -> List[int]:
    """Per-gate fault-activity estimate: combinational fanout-cone size.

    Computed in one reverse-level sweep as ``1 + sum(cone of fanouts)``,
    cutting at flip-flops (state boundaries).  Reconvergent fanout is
    counted once per path, which deliberately over-weights gates whose
    effects reach many paths — exactly the faults that stay live longest.
    """
    gates = circuit.gates
    cone = [1] * len(gates)
    for gate in sorted(gates, key=lambda g: g.level, reverse=True):
        if gate.gtype is GateType.DFF:
            continue
        total = 1
        for sink in gate.fanout:
            if gates[sink].gtype is not GateType.DFF:
                total += cone[sink]
        cone[gate.index] = total
    return cone


def _round_robin(faults: Sequence[Fault], num_shards: int) -> List[List[Fault]]:
    shards: List[List[Fault]] = [[] for _ in range(num_shards)]
    for position, fault in enumerate(faults):
        shards[position % num_shards].append(fault)
    return shards


def _level_balanced(
    circuit: Circuit, faults: Sequence[Fault], num_shards: int
) -> List[List[Fault]]:
    """Greedy LPT packing of weight-sorted faults into *num_shards* bins."""
    cone = activity_weights(circuit)
    # Sort once by (weight desc, fault asc): deterministic and stable.
    ordered = sorted(faults, key=lambda fault: (-cone[fault.gate], fault))
    shards: List[List[Fault]] = [[] for _ in range(num_shards)]
    heap = [(0, index) for index in range(num_shards)]
    heapq.heapify(heap)
    for fault in ordered:
        load, index = heapq.heappop(heap)
        shards[index].append(fault)
        heapq.heappush(heap, (load + cone[fault.gate], index))
    return shards


def shard_faults(
    circuit: Circuit,
    faults: Sequence[Fault],
    jobs: int,
    strategy: str = "round-robin",
    overshard: int = DEFAULT_OVERSHARD,
) -> List[List[Fault]]:
    """Partition *faults* (assumed sorted) into per-shard lists.

    Every fault appears in exactly one shard; empty shards are removed, so
    ``jobs`` larger than the universe degrades gracefully.  The result is
    a pure function of the arguments — never of worker timing — which is
    what makes the merged campaign result reproducible.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown shard strategy {strategy!r}; choose from {STRATEGIES}")
    if not faults:
        return [[]]
    if strategy == "work-stealing":
        num_shards = min(len(faults), jobs * max(1, overshard))
        shards = _round_robin(faults, num_shards)
    elif strategy == "level-balanced":
        shards = _level_balanced(circuit, faults, min(jobs, len(faults)))
    else:
        shards = _round_robin(faults, min(jobs, len(faults)))
    return [shard for shard in shards if shard]

