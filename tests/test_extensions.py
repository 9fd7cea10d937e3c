"""Dominance collapsing and test compaction post-processing."""

import random

import pytest

from repro.analyze.collapse import collapse_universe
from repro.baselines.deductive import deductive_detects
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM_V
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.universe import stuck_at_universe
from repro.logic.tables import GateType
from repro.logic.values import ONE, ZERO
from repro.patterns.postprocess import (
    compact_tests,
    remove_redundant_blocks,
    trim_to_coverage_prefix,
)
from repro.patterns.random_gen import random_sequence


class TestDominance:
    """FFR dominance drops of :func:`repro.analyze.collapse.collapse_universe`."""

    def test_and_gate_output_sa1_dropped(self):
        builder = CircuitBuilder("and2")
        builder.add_input("a")
        builder.add_input("b")
        builder.add_gate("g", GateType.AND, ["a", "b"])
        builder.set_output("g")
        circuit = builder.build()
        g = circuit.index_of("g")
        collapsed = collapse_universe(circuit, mode="dominance")

        assert StuckAtFault.make(g, OUTPUT_PIN, 1) in collapsed.implied_by
        assert StuckAtFault.make(g, 0, 1) in collapsed.member_to_rep

    def test_reduces_after_equivalence(self):
        circuit = load("s27")
        equivalent = collapse_universe(circuit).representatives
        dominated = collapse_universe(circuit, mode="dominance").representatives
        assert len(dominated) < len(equivalent)

    @pytest.mark.parametrize("seed", range(5))
    def test_dominance_implication_combinational(self, seed):
        """Combinational contract: any vector detecting a kept fault of a
        dominance pair also detects the dropped dominator."""
        rng = random.Random(seed + 60)
        circuit = random_circuit(rng, num_gates=12, num_dffs=0, name=f"dom{seed}")
        collapsed = collapse_universe(circuit, mode="dominance")
        full = list(collapsed.universe)

        for vector_seed in range(6):
            vector = tuple(
                rng.choice((ZERO, ONE)) for _ in circuit.inputs
            )
            detected = deductive_detects(circuit, vector, full)
            for dominator, impliers in collapsed.implied_by.items():
                if any(implier in detected for implier in impliers):
                    assert dominator in detected


class TestPostprocess:
    @pytest.fixture(scope="class")
    def setup(self):
        circuit = load("s27")
        tests = random_sequence(circuit, 120, seed=3)
        faults = stuck_at_universe(circuit)
        return circuit, tests, faults

    def _coverage(self, circuit, tests, faults):
        return ConcurrentFaultSimulator(circuit, faults, CSIM_V).run(tests).coverage

    def test_prefix_trim_preserves_coverage(self, setup):
        circuit, tests, faults = setup
        trimmed = trim_to_coverage_prefix(circuit, tests, faults)
        assert len(trimmed) <= len(tests)
        assert self._coverage(circuit, trimmed, faults) == self._coverage(
            circuit, tests, faults
        )

    def test_prefix_trim_is_tight(self, setup):
        circuit, tests, faults = setup
        trimmed = trim_to_coverage_prefix(circuit, tests, faults)
        if len(trimmed) > 1:
            shorter = trimmed.prefix(len(trimmed) - 1)
            assert self._coverage(circuit, shorter, faults) < self._coverage(
                circuit, trimmed, faults
            )

    def test_block_removal_preserves_coverage(self, setup):
        circuit, tests, faults = setup
        compacted, simulations = remove_redundant_blocks(
            circuit, tests, faults, block_length=16
        )
        assert simulations >= 1
        assert self._coverage(circuit, compacted, faults) >= self._coverage(
            circuit, tests, faults
        )

    def test_compact_pipeline(self, setup):
        circuit, tests, faults = setup
        compacted = compact_tests(circuit, tests, faults, block_length=16)
        assert len(compacted) <= len(tests)
        assert self._coverage(circuit, compacted, faults) == self._coverage(
            circuit, tests, faults
        )

    def test_undetecting_sequence_trims_to_nothing(self):
        circuit = load("s27")
        # One all-X vector detects nothing.
        from repro.logic.values import X
        from repro.patterns.vectors import TestSequence

        tests = TestSequence(4, [(X, X, X, X)])
        trimmed = trim_to_coverage_prefix(circuit, tests)
        assert len(trimmed) == 0
