"""Macro extraction: partition invariants, value-exactness, fault tables."""

import importlib.util
import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.circuit.generate import random_circuit
from repro.circuit.library import available_circuits, load
from repro.circuit.macro import (
    TABLE_MEMO_SIZE,
    Region,
    _shape_table,
    evaluate_region,
    extract_macros,
    region_table,
)
from repro.circuit.netlist import CircuitBuilder
from repro.faults.model import OUTPUT_PIN, StuckAtFault
from repro.faults.universe import all_stuck_at_faults
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.options import CSIM_MV
from repro.logic.tables import GateType, build_table
from repro.logic.values import ONE, VALUES, ZERO
from repro.patterns.random_gen import random_sequence
from repro.sim.logicsim import LogicSimulator


class TestPartition:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_combinational_gate_owned_once(self, seed):
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_gates=30, num_dffs=3)
        macro = extract_macros(circuit)
        combinational = {
            gate.index
            for gate in circuit.gates
            if gate.gtype not in (GateType.INPUT, GateType.DFF)
        }
        assert set(macro.owner) == combinational
        covered = [
            index for region in macro.regions.values() for index in region.internal
        ]
        assert sorted(covered) == sorted(combinational)

    def test_input_cap_respected(self):
        circuit = load("s27")
        for cap in (1, 2, 3, 4):
            macro = extract_macros(circuit, max_inputs=cap)
            for root, region in macro.regions.items():
                if root not in macro.plain_roots:
                    assert len(region.pins) <= cap

    def test_macro_circuit_preserves_interface(self):
        circuit = load("s27")
        macro = extract_macros(circuit).circuit
        assert len(macro.inputs) == len(circuit.inputs)
        assert len(macro.outputs) == len(circuit.outputs)
        assert len(macro.dffs) == len(circuit.dffs)
        assert {circuit.gates[i].name for i in circuit.outputs} == {
            macro.gates[i].name for i in macro.outputs
        }

    def test_extraction_reduces_gate_count(self):
        circuit = load("s344")
        macro = extract_macros(circuit).circuit
        assert macro.num_combinational < circuit.num_combinational

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            extract_macros(load("s27"), max_inputs=0)

    def test_summary_mentions_counts(self):
        text = extract_macros(load("s27")).summary()
        assert "regions" in text


class TestValueExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_macro_circuit_simulates_identically(self, seed):
        rng = random.Random(seed + 40)
        circuit = random_circuit(rng, num_gates=25, num_dffs=3)
        macro = extract_macros(circuit).circuit
        flat_sim = LogicSimulator(circuit)
        macro_sim = LogicSimulator(macro)
        for vector in random_sequence(circuit, 15, seed=seed, x_probability=0.1):
            assert flat_sim.step(vector) == macro_sim.step(vector)

    def test_exactness_includes_x_semantics(self):
        # The macro table must reproduce gate-wise X pessimism, not the
        # (more accurate) function over completions: g = OR(a, NOT(a)) is
        # X for a=X gate-wise even though every completion yields 1.
        builder = CircuitBuilder("pess")
        builder.add_input("a")
        builder.add_gate("n", GateType.NOT, ["a"])
        builder.add_gate("g", GateType.OR, ["a", "n"])
        builder.set_output("g")
        circuit = builder.build()
        macro = extract_macros(circuit).circuit
        sim = LogicSimulator(macro)
        sim.settle((VALUES[2],))  # X
        assert sim.values[macro.index_of("g")] == VALUES[2]


class TestFaultTranslation:
    def test_internal_fault_becomes_table(self):
        builder = CircuitBuilder("tree")
        for name in "abcd":
            builder.add_input(name)
        builder.add_gate("l", GateType.AND, ["a", "b"])
        builder.add_gate("r", GateType.OR, ["c", "d"])
        builder.add_gate("g", GateType.NAND, ["l", "r"])
        builder.set_output("g")
        circuit = builder.build()
        macro = extract_macros(circuit, max_inputs=4)
        fault = StuckAtFault.make(circuit.index_of("l"), OUTPUT_PIN, 0)
        site, behavior, pin, value, table = macro.translate_stuck_at(fault)
        assert behavior == "table"
        assert macro.circuit.gates[site].name == "g"
        # With l stuck 0, g = NAND(0, r) = 1 for every input combination.
        good_table = macro.circuit.gates[site].table
        assert table != good_table
        for inputs in itertools.product((ZERO, ONE), repeat=4):
            from repro.logic.tables import pack_inputs

            assert table[pack_inputs(inputs)] == ONE

    def test_pi_fault_stays_structural(self):
        circuit = load("s27")
        macro = extract_macros(circuit)
        pi = circuit.inputs[0]
        site, behavior, pin, value, table = macro.translate_stuck_at(
            StuckAtFault.make(pi, OUTPUT_PIN, 1)
        )
        assert behavior == "force_output"
        assert table is None
        assert macro.circuit.gates[site].gtype is GateType.INPUT

    def test_dff_faults_stay_structural(self):
        circuit = load("s27")
        macro = extract_macros(circuit)
        ff = circuit.dffs[0]
        site, behavior, pin, value, table = macro.translate_stuck_at(
            StuckAtFault.make(ff, 0, 0)
        )
        assert behavior == "force_input"
        assert macro.circuit.gates[site].gtype is GateType.DFF

    @pytest.mark.parametrize("seed", range(3))
    def test_every_fault_translates(self, seed):
        rng = random.Random(seed + 77)
        circuit = random_circuit(rng, num_gates=20, num_dffs=2)
        macro = extract_macros(circuit)
        for fault in all_stuck_at_faults(circuit):
            site, behavior, pin, value, table = macro.translate_stuck_at(fault)
            assert 0 <= site < len(macro.circuit.gates)
            assert behavior in ("force_output", "force_input", "table")
            if behavior == "table":
                assert table is not None


def _hierarchy_example():
    """The accumulator of ``examples/hierarchical_design.py``, with its
    instance-boundary regions (full adders: internal fanout)."""
    path = Path(__file__).resolve().parents[1] / "examples" / "hierarchical_design.py"
    spec = importlib.util.spec_from_file_location("hierarchical_design", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hierarchy = module.build_accumulator()
    return hierarchy.flat, hierarchy.instance_regions()


def _pessimism_circuit():
    """g = OR(a, NOT a): one region whose two pins share source ``a``."""
    builder = CircuitBuilder("pess")
    builder.add_input("a")
    builder.add_gate("n", GateType.NOT, ["a"])
    builder.add_gate("g", GateType.OR, ["a", "n"])
    builder.set_output("g")
    return builder.build()


def _single_region(name, wiring):
    """A one-output circuit over inputs a, b, c: *wiring* lists
    ``(gate, type, fanins)`` ending with the observed root ``g``."""
    builder = CircuitBuilder(name)
    for pin in "abc":
        builder.add_input(pin)
    for gate, gtype, fanin in wiring:
        builder.add_gate(gate, gtype, fanin)
    builder.set_output("g")
    return builder.build()


def _duplicate_pin_circuit(distinct=False):
    """g = AND(OR(a, b), NOT(a)): pins (a, b, a); its twin reads c."""
    return _single_region(
        "twin" if distinct else "dup",
        [
            ("o", GateType.OR, ["a", "b"]),
            ("n", GateType.NOT, ["c" if distinct else "a"]),
            ("g", GateType.AND, ["o", "n"]),
        ],
    )


def _reference(flat, region, fault=None):
    return build_table(
        lambda inputs: evaluate_region(flat, region, inputs, injection=fault),
        len(region.pins),
    )


def _root_table(circuit):
    macro = extract_macros(circuit)
    return macro.good_table(circuit.index_of("g"))


class TestRegionTable:
    """``region_table`` equals the ``evaluate_region`` reference, good and
    faulty, for every region and every stuck-at fault inside it."""

    def _check_every_table(self, flat, preassigned=()):
        macro = extract_macros(flat, preassigned=preassigned)
        faults = all_stuck_at_faults(flat)
        checked = 0
        for root, region in macro.regions.items():
            if root in macro.plain_roots:
                continue
            assert macro.good_table(root) == _reference(flat, region)
            assert region_table(flat, region) == _reference(flat, region)
            for fault in faults:
                if macro.owner.get(fault.gate) != root:
                    continue
                table = region_table(flat, region, fault)
                assert type(table) is tuple
                assert table == _reference(flat, region, fault)
                assert macro.faulty_table(root, fault) == table
                checked += 1
        assert checked > 0

    def test_s27(self):
        self._check_every_table(load("s27"))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_circuits(self, seed):
        rng = random.Random(seed + 500)
        self._check_every_table(random_circuit(rng, num_gates=40, num_dffs=3))

    def test_hierarchy_example_regions_with_internal_fanout(self):
        flat, regions = _hierarchy_example()
        # Reconvergence: some pin fans out to two gates inside its region.
        assert any(
            sum(pin in flat.gates[index].fanin for index in region.internal) > 1
            for region in regions
            for pin in region.pins
        )
        self._check_every_table(flat, preassigned=regions)

    def test_duplicate_pin_region(self):
        circuit = _duplicate_pin_circuit()
        region = extract_macros(circuit).regions[circuit.index_of("g")]
        assert len(set(region.pins)) < len(region.pins)
        self._check_every_table(circuit)

    def test_x_pessimism_circuit(self):
        self._check_every_table(_pessimism_circuit())

    def test_constant_and_too_wide_gate_inside_a_region(self):
        # w is wider than MAX_TABLE_ARITY (evaluated row by row); k has
        # no fanin at all.
        circuit = _single_region(
            "wide",
            [
                ("k", GateType.CONST1, []),
                ("w", GateType.AND, ["a", "b", "c", "a", "b", "c", "k"]),
                ("g", GateType.OR, ["w", "a"]),
            ],
        )
        index = circuit.index_of
        region = Region(
            root=index("g"),
            pins=(index("a"), index("b"), index("c")),
            internal=(index("k"), index("w"), index("g")),
        )
        self._check_every_table(circuit, preassigned=[region])


class TestTableMemo:
    def test_same_gate_types_different_wiring(self):
        left = _single_region(
            "left", [("o", GateType.OR, ["a", "b"]), ("g", GateType.AND, ["o", "c"])]
        )
        right = _single_region(
            "right", [("o", GateType.OR, ["a", "b"]), ("g", GateType.AND, ["c", "o"])]
        )
        assert _root_table(left) != _root_table(right)
        for circuit in (left, right):
            region = extract_macros(circuit).regions[circuit.index_of("g")]
            assert _root_table(circuit) == _reference(circuit, region)

    def test_duplicate_pins_differ_from_distinct_twin(self):
        duplicate = _duplicate_pin_circuit()
        distinct = _duplicate_pin_circuit(distinct=True)
        assert _root_table(duplicate) != _root_table(distinct)
        for circuit in (duplicate, distinct):
            region = extract_macros(circuit).regions[circuit.index_of("g")]
            assert _root_table(circuit) == _reference(circuit, region)

    def test_results_independent_of_memo_state(self):
        def run(name):
            circuit = load(name, scale=0.5)
            tests = random_sequence(circuit, 24, seed=3)
            result = ConcurrentFaultSimulator(circuit, options=CSIM_MV).run(tests)
            return result.detected, result.potentially_detected, result.counters

        _shape_table.cache_clear()
        shared = [run("s298"), run("s344")]
        assert _shape_table.cache_info().hits > 0
        fresh = []
        for name in ("s298", "s344"):
            _shape_table.cache_clear()
            fresh.append(run(name))
        assert shared == fresh

    def test_threads_sharing_the_memo_build_identical_tables(self):
        circuits = [
            random_circuit(random.Random(seed + 900), num_gates=40, num_dffs=3)
            for seed in range(4)
        ]

        def tables(circuit):
            macro = extract_macros(circuit)
            return [
                macro.translate_stuck_at(fault)[4]
                for fault in all_stuck_at_faults(circuit)
            ]

        _shape_table.cache_clear()
        expected = [tables(circuit) for circuit in circuits]
        _shape_table.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(tables, circuit) for circuit in circuits * 4]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4

    def test_memo_stays_bounded_over_the_library(self):
        _shape_table.cache_clear()
        for name in available_circuits():
            ConcurrentFaultSimulator(load(name, scale=0.25), options=CSIM_MV)
        info = _shape_table.cache_info()
        assert info.maxsize == TABLE_MEMO_SIZE
        assert info.misses > TABLE_MEMO_SIZE  # the bound was reached
        assert info.currsize <= TABLE_MEMO_SIZE
