"""Fault model, universe enumeration, and equivalence collapsing."""

import random

import pytest

from repro.analyze.collapse import collapse_universe
from repro.baselines import deductive, serial
from repro.baselines.proofs import ProofsSimulator
from repro.baselines.serial import simulate_serial
from repro.circuit.generate import random_circuit
from repro.circuit.library import load
from repro.concurrent.engine import ConcurrentFaultSimulator
from repro.concurrent.event_engine import ConcurrentEventFaultSimulator
from repro.concurrent.options import CSIM, CSIM_MV, SimOptions
from repro.concurrent.transition_engine import TransitionFaultSimulator
from repro.faults.model import OUTPUT_PIN, FaultKind, StuckAtFault, fault_name
from repro.faults.transition import all_transition_faults
from repro.faults.universe import all_stuck_at_faults, stuck_at_universe, target_faults
from repro.harness.runner import compare_engines
from repro.logic.tables import GateType
from repro.patterns.podem import generate_deterministic_tests
from repro.patterns.random_gen import random_sequence
from repro.patterns.vectors import TestSequence
from repro.plan import RunPlan
from repro.vector.kernel import VectorFaultSimulator


class TestModel:
    def test_make_and_value(self):
        fault = StuckAtFault.make(3, 1, 0)
        assert fault.kind is FaultKind.STUCK_AT_0
        assert fault.value == 0
        assert not fault.on_output

    def test_output_fault(self):
        fault = StuckAtFault.make(3, OUTPUT_PIN, 1)
        assert fault.on_output
        assert fault.site == (3, OUTPUT_PIN)

    def test_ordering_deterministic(self):
        faults = [
            StuckAtFault.make(1, 0, 1),
            StuckAtFault.make(0, OUTPUT_PIN, 0),
            StuckAtFault.make(1, 0, 0),
        ]
        ordered = sorted(faults)
        assert ordered[0].gate == 0
        assert ordered[1].kind is FaultKind.STUCK_AT_0

    def test_fault_name(self):
        circuit = load("s27")
        g9 = circuit.index_of("G9")
        assert fault_name(circuit, StuckAtFault.make(g9, 1, 0)) == "G9/IN1:SA0"
        assert fault_name(circuit, StuckAtFault.make(g9, OUTPUT_PIN, 1)) == "G9:SA1"

    def test_hashable_and_frozen(self):
        fault = StuckAtFault.make(1, 2, 0)
        assert fault in {fault}
        with pytest.raises(Exception):
            fault.gate = 5  # type: ignore[misc]


class TestUniverse:
    def test_full_universe_counts(self):
        circuit = load("s27")
        faults = all_stuck_at_faults(circuit)
        pins = sum(
            gate.arity for gate in circuit.gates if gate.gtype is not GateType.INPUT
        )
        assert len(faults) == 2 * (len(circuit.gates) + pins)

    def test_universe_is_deterministic(self):
        circuit = load("s27")
        assert all_stuck_at_faults(circuit) == all_stuck_at_faults(circuit)

    def test_collapsed_is_subset(self):
        circuit = load("s27")
        full = set(all_stuck_at_faults(circuit))
        collapsed = stuck_at_universe(circuit)
        assert set(collapsed) <= full
        assert len(collapsed) < len(full)

    def test_no_collapse_option(self):
        circuit = load("s27")
        assert len(stuck_at_universe(circuit, collapse=False)) == len(
            all_stuck_at_faults(circuit)
        )


def _classes(circuit, faults):
    """Representative -> sorted members, from the collapse map."""
    classes = {}
    for member, rep in collapse_universe(circuit, faults).member_to_rep.items():
        classes.setdefault(rep, []).append(member)
    for members in classes.values():
        members.sort()
    return classes


class TestCollapse:
    def test_not_gate_rule(self):
        # NOT: input s-a-0 == output s-a-1.
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("inv")
        builder.add_input("a")
        builder.add_gate("g", GateType.NOT, ["a"])
        builder.set_output("g")
        circuit = builder.build()
        g = circuit.index_of("g")
        classes = _classes(circuit, all_stuck_at_faults(circuit))
        grouped = {
            frozenset(members) for members in classes.values() if len(members) > 1
        }
        assert any(
            StuckAtFault.make(g, 0, 0) in group
            and StuckAtFault.make(g, OUTPUT_PIN, 1) in group
            for group in grouped
        )

    def test_and_gate_rule_collapses_all_input_sa0(self):
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("and3")
        for name in "abc":
            builder.add_input(name)
        builder.add_gate("g", GateType.AND, ["a", "b", "c"])
        builder.set_output("g")
        circuit = builder.build()
        g = circuit.index_of("g")
        classes = _classes(circuit, all_stuck_at_faults(circuit))
        for members in classes.values():
            if StuckAtFault.make(g, OUTPUT_PIN, 0) in members:
                for pin in range(3):
                    assert StuckAtFault.make(g, pin, 0) in members

    def test_equivalence_classes_partition(self):
        circuit = load("s27")
        faults = all_stuck_at_faults(circuit)
        classes = _classes(circuit, faults)
        members = [fault for group in classes.values() for fault in group]
        assert sorted(members) == sorted(faults)
        for representative, group in classes.items():
            assert representative == min(group)

    @pytest.mark.parametrize("seed", range(4))
    def test_collapsed_classes_are_truly_equivalent(self, seed):
        """Faults collapsed together must have identical detection profiles."""
        rng = random.Random(seed)
        circuit = random_circuit(rng, num_inputs=3, num_gates=10, num_dffs=1)
        faults = all_stuck_at_faults(circuit)
        classes = _classes(circuit, faults)
        tests = random_sequence(circuit, 30, seed=seed + 100)
        result = simulate_serial(circuit, tests.vectors, faults, drop_detected=False)
        for group in classes.values():
            cycles = {result.detected.get(fault) for fault in group}
            assert len(cycles) == 1, f"class {group} split into {cycles}"

    def test_stem_branch_not_collapsed_across_dff(self):
        from repro.circuit.netlist import CircuitBuilder

        builder = CircuitBuilder("ffb")
        builder.add_input("a")
        builder.add_gate("g", GateType.NOT, ["a"])
        builder.add_dff("q", "g")
        builder.set_output("q")
        circuit = builder.build()
        g = circuit.index_of("g")
        q = circuit.index_of("q")
        collapsed = set(collapse_universe(circuit).representatives)
        # g's output faults and q's D-pin faults both survive or map to
        # different representatives (never merged).
        classes = _classes(circuit, all_stuck_at_faults(circuit))
        rep_of = {}
        for representative, group in classes.items():
            for fault in group:
                rep_of[fault] = representative
        assert rep_of[StuckAtFault.make(g, OUTPUT_PIN, 0)] != rep_of[
            StuckAtFault.make(q, 0, 0)
        ]
        assert collapsed  # sanity



def _spy(monkeypatch, module, name, position):
    """Record argument *position* of every call to ``module.name``."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(args[position])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def _engine(make):
    return lambda circuit, vectors, faults, monkeypatch: make(circuit, faults).faults


def _serial(simulate):
    def observe(circuit, vectors, faults, monkeypatch):
        seen = _spy(monkeypatch, serial, "_run_machines", 3)
        simulate(circuit, vectors, faults)
        return list(seen[-1])

    return observe


def _deductive(circuit, vectors, faults, monkeypatch):
    seen = _spy(monkeypatch, deductive, "_detects", 2)
    result = deductive.simulate_deductive(circuit, vectors, faults)
    return sorted(seen[-1]), result.num_faults, result.detected


def _atpg(circuit, vectors, faults, monkeypatch):
    tests, redundant, aborted = generate_deterministic_tests(circuit, faults)
    return tests.vectors, redundant, aborted


def _compare(circuit, vectors, faults, monkeypatch):
    tests = TestSequence(len(circuit.inputs), vectors)
    results = compare_engines(circuit, tests, faults=faults)
    return tuple((r.engine, r.num_faults, r.detected) for r in results)


def _plan(transition):
    def observe(circuit, vectors, faults, monkeypatch):
        tests = TestSequence(len(circuit.inputs), vectors)
        return list(RunPlan(circuit, tests, faults, transition=transition).faults)

    return observe


def _collapse(transition):
    def observe(circuit, vectors, faults, monkeypatch):
        return list(collapse_universe(circuit, faults, transition=transition).universe)

    return observe


def _csim(options):
    return _engine(lambda c, f: ConcurrentFaultSimulator(c, f, options))


def _csim_t(split):
    return _engine(
        lambda c, f: TransitionFaultSimulator(c, f, SimOptions(split_lists=split))
    )


#: Entry point -> (combinational circuit?, target_faults keywords, observer).
#: An observer runs the entry point on a fault list (``None`` included) and
#: returns what it targets: the list itself where the entry point keeps one.
_ENTRY_POINTS = {
    "csim": (False, {}, _csim(CSIM)),
    "csim-MV": (False, {}, _csim(CSIM_MV)),
    "csim-T": (False, {"transition": True}, _csim_t(False)),
    "csim-TV": (False, {"transition": True}, _csim_t(True)),
    "csim-AD": (False, {}, _engine(ConcurrentEventFaultSimulator)),
    "PROOFS": (False, {}, _engine(ProofsSimulator)),
    "vsim": (False, {}, _engine(VectorFaultSimulator)),
    "serial": (False, {}, _serial(serial.simulate_serial)),
    "serial-transition": (
        False, {"transition": True}, _serial(serial.simulate_serial_transition)
    ),
    "deductive": (True, {}, _deductive),
    "podem-atpg": (True, {}, _atpg),
    "compare_engines": (False, {}, _compare),
    "RunPlan": (False, {}, _plan(False)),
    "RunPlan-transition": (False, {"transition": True}, _plan(True)),
    "collapse_universe": (False, {"pin_level": True}, _collapse(False)),
    "collapse_universe-transition": (False, {"transition": True}, _collapse(True)),
}


class TestTargetFaults:
    """One function decides what a run targets when the caller names no faults."""

    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS) + ["duplicates"])
    def test_default_is_target_faults(self, entry, monkeypatch):
        if entry == "duplicates":
            # A given list is sorted and otherwise kept exactly: the
            # sanitizer must see duplicates the caller passed.
            circuit = load("s27")
            universe = stuck_at_universe(circuit)
            given = universe[5:1:-1] + universe[2:4] + [universe[0]] * 2
            expected = sorted(given)
            assert target_faults(circuit, given) == expected
            assert len(expected) == len(given)
            assert _csim(CSIM)(circuit, (), given, monkeypatch) == expected
            return
        combinational, keywords, observe = _ENTRY_POINTS[entry]
        if combinational:
            rng = random.Random(11)
            circuit = random_circuit(rng, num_gates=14, num_dffs=0, name="comb")
        else:
            circuit = load("s27")
        vectors = random_sequence(circuit, 8, seed=5).vectors
        expected = target_faults(circuit, **keywords)
        assert expected == sorted(expected)
        default = observe(circuit, vectors, None, monkeypatch)
        assert default == observe(circuit, vectors, expected, monkeypatch)
        if isinstance(default, list):
            assert default == expected

    def test_key_order_equals_fault_order(self):
        circuit = load("s27")
        faults = all_stuck_at_faults(circuit) + all_transition_faults(circuit)
        random.Random(3).shuffle(faults)
        assert target_faults(circuit, faults) == sorted(faults)
        assert target_faults(circuit, transition=True) == sorted(
            all_transition_faults(circuit)
        )
