"""Transition-fault simulation: paper example and serial cross-validation."""

import random

import pytest

from repro.baselines.serial import simulate_serial_transition
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.circuit.netlist import CircuitBuilder
from repro.concurrent.options import CSIM_MV, SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.transition import TransitionFault, all_transition_faults
from repro.logic.tables import MAX_TABLE_ARITY, GateType
from repro.logic.values import ONE, ZERO
from repro.patterns.random_gen import random_sequence


def figure4_circuit():
    """The paper's Figure 4 example, reconstructed from the text: G1's
    second input is a fault-free combinational copy of input 1, so a rise
    on input 1 sensitizes input 1 through G1 to the output ('the good
    machine will output 0 at the sampling time, but the faulty machine
    value remains at logic value 1')."""
    builder = CircuitBuilder("fig4")
    builder.add_input("i1")
    builder.add_gate("copy", GateType.BUF, ["i1"])
    builder.add_gate("g1", GateType.NAND, ["i1", "copy"])
    builder.set_output("g1")
    return builder.build()


def wide_gate_circuit():
    """Two gates wider than a lookup table allows, one fed by the other
    and both by flip-flops, so every site on them takes the list hook."""
    builder = CircuitBuilder("wide")
    for name in ("i0", "i1", "i2", "i3"):
        builder.add_input(name)
    builder.add_dff("q0", "n")
    builder.add_dff("q1", "a7")
    builder.add_gate("n", GateType.NOR, ["i0", "i2"])
    builder.add_gate("m", GateType.AND, ["i1", "i3"])
    builder.add_gate("x7", GateType.XOR, ["i0", "i1", "i2", "i3", "q0", "n", "m"])
    builder.add_gate("a7", GateType.NAND, ["i0", "m", "i2", "q0", "x7", "q1", "i1"])
    builder.add_gate("o", GateType.NOR, ["q1", "i3"])
    for name in ("x7", "a7", "o"):
        builder.set_output(name)
    return builder.build()


def random_case(seed):
    """A random sequential circuit, its universe and a sequence (with X
    inputs for every fourth seed)."""
    rng = random.Random(seed + 500)
    circuit = random_circuit(
        rng,
        num_inputs=rng.randint(2, 5),
        num_gates=rng.randint(6, 20),
        num_dffs=rng.randint(0, 4),
        num_outputs=rng.randint(1, 3),
        name=f"txval{seed}",
    )
    faults = all_transition_faults(circuit, include_outputs=(seed % 3 == 0))
    tests = random_sequence(
        circuit,
        rng.randint(4, 25),
        seed=seed * 13 + 2,
        x_probability=0.1 if seed % 4 == 0 else 0.0,
    )
    return circuit, faults, tests


class TestPaperExample:
    def test_slow_to_rise_detected_by_01(self):
        """Section 3: 'To detect this fault the 01 input sequence is
        enough' — a 0 then a 1 on input 1 of G1 exposes the slow rise."""
        circuit = figure4_circuit()
        g1 = circuit.index_of("g1")
        fault = TransitionFault.make(g1, 0, rise=True)
        sim = TransitionFaultSimulator(circuit, [fault])
        assert sim.step((ZERO,)) == []  # output 1, both machines agree
        assert sim.step((ONE,)) == [fault]  # good 0, faulty still 1
        serial = simulate_serial_transition(circuit, [(ZERO,), (ONE,)], [fault])
        assert serial.detected == {fault: 2}

    def test_stuck_at_tests_are_poor_transition_tests(self):
        """Table 6's observation: stuck-at test sets reach far lower
        transition coverage than stuck-at coverage."""
        from repro.concurrent.engine import ConcurrentFaultSimulator

        circuit = load("s27")
        tests = random_sequence(circuit, 60, seed=3)
        stuck = ConcurrentFaultSimulator(circuit).run(tests)
        transition = TransitionFaultSimulator(circuit).run(tests)
        assert transition.coverage < stuck.coverage


class TestEngineBehaviour:
    def test_macros_rejected(self):
        with pytest.raises(ValueError, match="macro"):
            TransitionFaultSimulator(load("s27"), options=CSIM_MV)

    def test_default_universe(self):
        circuit = load("s27")
        sim = TransitionFaultSimulator(circuit)
        assert sim.faults == sorted(all_transition_faults(circuit))

    def test_engine_name(self):
        circuit = load("s27")
        result = TransitionFaultSimulator(circuit).run(random_sequence(circuit, 5, seed=1))
        assert result.engine.startswith("csim-T")

    def test_two_passes_leave_combinational_converged(self):
        """After the firing pass, a fault with no latched errors must have
        no elements anywhere: its machine has settled to the good values
        (the paper: 'the combinational part of the circuit is assumed to
        settle down correctly')."""
        circuit = figure4_circuit()  # no flip-flops: nothing can latch
        g1 = circuit.index_of("g1")
        fault = TransitionFault.make(g1, 0, rise=True)
        sim = TransitionFaultSimulator(circuit, [fault])
        for vector in [(ZERO,), (ONE,), (ZERO,), (ONE,)]:
            sim.step(vector)
            assert sim._live_elements == 0


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_serial_reference(self, seed):
        rng = random.Random(seed + 500)
        circuit = random_circuit(
            rng,
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(6, 20),
            num_dffs=rng.randint(0, 4),
            num_outputs=rng.randint(1, 3),
            name=f"txval{seed}",
        )
        faults = all_transition_faults(circuit, include_outputs=(seed % 3 == 0))
        tests = random_sequence(
            circuit,
            rng.randint(4, 25),
            seed=seed * 13 + 2,
            x_probability=0.1 if seed % 4 == 0 else 0.0,
        )
        oracle = simulate_serial_transition(circuit, tests.vectors, faults)
        for split in (False, True):
            result = TransitionFaultSimulator(
                circuit, faults, SimOptions(split_lists=split)
            ).run(tests)
            assert result.detected == oracle.detected, f"split={split}"

    def test_s27_agreement(self, s27, s27_tests):
        faults = all_transition_faults(s27)
        oracle = simulate_serial_transition(s27, s27_tests.vectors, faults)
        result = TransitionFaultSimulator(s27, faults).run(s27_tests)
        assert result.detected == oracle.detected

    @pytest.mark.parametrize("seed", range(12))
    def test_potentials_match_serial_reference(self, seed):
        circuit, faults, tests = random_case(seed)
        oracle = simulate_serial_transition(circuit, tests.vectors, faults)
        for split in (False, True):
            result = TransitionFaultSimulator(
                circuit, faults, SimOptions(split_lists=split)
            ).run(tests)
            assert (
                result.potentially_detected == oracle.potentially_detected
            ), f"split={split}"

    @pytest.mark.parametrize("include_outputs", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_wide_gates_match_serial_reference(self, seed, include_outputs):
        """Sites on gates too wide for a table evaluate through the list
        hook; they must agree with the oracle, X inputs included."""
        circuit = wide_gate_circuit()
        faults = all_transition_faults(circuit, include_outputs=include_outputs)
        tests = random_sequence(circuit, 40, seed=seed, x_probability=0.1)
        oracle = simulate_serial_transition(circuit, tests.vectors, faults)
        assert oracle.detected and oracle.potentially_detected
        for split in (False, True):
            sim = TransitionFaultSimulator(circuit, faults, SimOptions(split_lists=split))
            for name in ("x7", "a7"):
                index = circuit.index_of(name)
                assert circuit.gates[index].arity > MAX_TABLE_ARITY
                assert sim._eval_tables[index] is None
            result = sim.run(tests)
            assert result.detected == oracle.detected, f"split={split}"
            assert (
                result.potentially_detected == oracle.potentially_detected
            ), f"split={split}"


class TestPinnedWork:
    """Work counters recorded before transition sites moved onto the
    packed table path: the same faults evaluate at the same gates, so the
    work must not move."""

    CASES = {
        # (circuit, scale, vectors, seed, include_outputs): {engine:
        #   (fault_evaluations, element_visits, events, peak_elements)}
        ("s27", 1.0, 50, 3, False): {
            "csim-T": (3155, 2663, 466, 90),
            "csim-TV": (2851, 2235, 466, 90),
        },
        ("s27", 1.0, 50, 3, True): {
            "csim-T": (5714, 5597, 517, 178),
            "csim-TV": (5200, 4811, 517, 178),
        },
        ("s298", 0.5, 32, 7, False): {
            "csim-T": (24611, 21426, 1459, 728),
            "csim-TV": (20378, 15338, 1459, 728),
        },
    }

    @pytest.mark.parametrize(
        "case", sorted(CASES), ids=lambda case: f"{case[0]}@{case[1]}-outputs{case[4]}"
    )
    def test_counters_unchanged(self, case):
        name, scale, count, seed, include_outputs = case
        circuit = load(name, scale=scale)
        tests = random_sequence(circuit, count, seed=seed)
        faults = all_transition_faults(circuit, include_outputs=include_outputs)
        for split in (False, True):
            result = TransitionFaultSimulator(
                circuit, faults, SimOptions(split_lists=split)
            ).run(tests)
            counters = result.counters
            work = (
                counters.fault_evaluations,
                counters.element_visits,
                counters.events,
                result.memory.peak_elements,
            )
            assert work == self.CASES[case][result.engine]
