"""Test-sequence post-processing: shrink a sequential test set without
losing coverage.

Unlike combinational test compaction, vectors in a sequential set cannot
be dropped freely — every later vector's behaviour depends on the state
the dropped vector would have established.  Two sound techniques:

* **prefix trimming** — detection is monotone in the applied prefix, so
  the shortest prefix achieving the full set's coverage is found by
  binary search over one incremental simulation's detection profile;
* **block removal** — greedily delete interior blocks, *re-simulating the
  entire remaining sequence* after each trial removal and keeping the
  deletion only when coverage is preserved.  Expensive (each trial is a
  full fault simulation) but exact; this is where a fast fault simulator
  earns its keep in a test-generation flow.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.circuit.netlist import Circuit
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import SimOptions
from repro.faults.model import StuckAtFault
from repro.faults.universe import target_faults
from repro.patterns.vectors import TestSequence

_OPTIONS = SimOptions(split_lists=True)


def _coverage_count(
    circuit: Circuit, vectors: List[tuple], faults: List[StuckAtFault]
) -> int:
    simulator = ConcurrentFaultSimulator(circuit, faults, _OPTIONS)
    for vector in vectors:
        simulator.step(vector)
    return len(simulator.detected)


def trim_to_coverage_prefix(
    circuit: Circuit,
    tests: TestSequence,
    faults: Optional[Iterable[StuckAtFault]] = None,
) -> TestSequence:
    """The shortest prefix of *tests* with the full sequence's coverage.

    One simulation suffices: the detection profile says at which cycle the
    last first-detection happened; everything after contributes nothing.
    """
    simulator = ConcurrentFaultSimulator(circuit, faults, _OPTIONS)
    for vector in tests:
        simulator.step(vector)
    if not simulator.detected:
        return tests.prefix(0)
    last_useful = max(simulator.detected.values())
    return tests.prefix(last_useful)


def remove_redundant_blocks(
    circuit: Circuit,
    tests: TestSequence,
    faults: Optional[Iterable[StuckAtFault]] = None,
    block_length: int = 8,
) -> Tuple[TestSequence, int]:
    """Greedy interior-block removal with full re-simulation.

    Scans blocks from the back (late blocks are the most likely to be
    dead weight once earlier detections are in); a block is deleted when
    the remaining sequence still detects the same number of faults.
    Returns the compacted sequence and the number of simulations spent.
    """
    fault_list = target_faults(circuit, faults)
    vectors = list(tests.vectors)
    target = _coverage_count(circuit, vectors, fault_list)
    simulations = 1
    start = (max(0, len(vectors) - block_length) // block_length) * block_length
    for begin in range(start, -1, -block_length):
        if len(vectors) <= block_length:
            break
        end = min(begin + block_length, len(vectors))
        if end - begin >= len(vectors):
            continue
        candidate = vectors[:begin] + vectors[end:]
        simulations += 1
        if _coverage_count(circuit, candidate, fault_list) >= target:
            vectors = candidate
    return TestSequence(tests.num_inputs, vectors), simulations


def compact_tests(
    circuit: Circuit,
    tests: TestSequence,
    faults: Optional[Iterable[StuckAtFault]] = None,
    block_length: int = 8,
) -> TestSequence:
    """Prefix trimming followed by block removal (both coverage-exact)."""
    trimmed = trim_to_coverage_prefix(circuit, tests, faults)
    compacted, _ = remove_redundant_blocks(circuit, trimmed, faults, block_length)
    return compacted
