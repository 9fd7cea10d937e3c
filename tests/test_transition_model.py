"""The transition-fault model: Table 1 semantics and universe shape."""

import itertools

import pytest

from repro.circuit.library import load
from repro.faults.model import OUTPUT_PIN, FaultKind
from repro.faults.transition import (
    TransitionFault,
    all_transition_faults,
    delay_rule,
    delayed_value,
)
from repro.logic.tables import GateType
from repro.logic.values import ONE, VALUES, X, ZERO

STR = FaultKind.SLOW_TO_RISE
STF = FaultKind.SLOW_TO_FALL


class TestDelayedValue:
    @pytest.mark.parametrize(
        "previous,current,expected",
        [
            (ZERO, ONE, ZERO),   # the faulty rise: held at previous value
            (ZERO, ZERO, ZERO),  # no transition
            (ZERO, X, ZERO),     # from 0, nothing can have risen yet
            (ONE, ZERO, ZERO),   # falls are unaffected
            (ONE, ONE, ONE),
            (ONE, X, X),
            (X, ZERO, ZERO),     # settles low either way
            (X, ONE, X),         # may have been a delayed rise
            (X, X, X),
        ],
    )
    def test_slow_to_rise(self, previous, current, expected):
        assert delayed_value(previous, current, STR) == expected

    @pytest.mark.parametrize(
        "previous,current,expected",
        [
            (ONE, ZERO, ONE),    # the faulty fall: held at previous value
            (ONE, ONE, ONE),
            (ONE, X, ONE),
            (ZERO, ONE, ONE),    # rises are unaffected
            (ZERO, ZERO, ZERO),
            (ZERO, X, X),
            (X, ONE, ONE),
            (X, ZERO, X),
            (X, X, X),
        ],
    )
    def test_slow_to_fall(self, previous, current, expected):
        assert delayed_value(previous, current, STF) == expected

    def test_mirror_symmetry(self):
        flip = {ZERO: ONE, ONE: ZERO, X: X}
        for previous, current in itertools.product(VALUES, repeat=2):
            assert delayed_value(previous, current, STR) == flip[
                delayed_value(flip[previous], flip[current], STF)
            ]

    def test_no_transition_is_transparent(self):
        for value in VALUES:
            for kind in (STR, STF):
                assert delayed_value(value, value, kind) == value

    def test_rejects_stuck_at_kind(self):
        with pytest.raises(ValueError):
            delayed_value(ZERO, ONE, FaultKind.STUCK_AT_0)


class TestDelayRule:
    """The lookup rows the concurrent engine evaluates are Table 1."""

    @pytest.mark.parametrize("kind", [STR, STF])
    def test_rows_equal_delayed_value(self, kind):
        rule = delay_rule(kind)
        assert len(rule) == len(VALUES)
        for previous, current in itertools.product(VALUES, repeat=2):
            assert rule[previous][current] == delayed_value(previous, current, kind)

    @pytest.mark.parametrize("kind", [STR, STF])
    def test_no_entry_is_the_unused_code(self, kind):
        for row in delay_rule(kind):
            assert len(row) == len(VALUES)
            assert 0b11 not in row
            assert set(row) <= set(VALUES)

    @pytest.mark.parametrize("kind", [FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1])
    def test_rejects_stuck_at_kind(self, kind):
        with pytest.raises(ValueError, match="not a transition fault kind"):
            delay_rule(kind)


class TestTransitionUniverse:
    def test_two_faults_per_input_pin(self):
        circuit = load("s27")
        faults = all_transition_faults(circuit)
        pins = sum(
            gate.arity for gate in circuit.gates if gate.gtype is not GateType.INPUT
        )
        assert len(faults) == 2 * pins

    def test_include_outputs_excludes_dffs(self):
        circuit = load("s27")
        faults = all_transition_faults(circuit, include_outputs=True)
        dff_output_faults = [
            fault
            for fault in faults
            if fault.pin == OUTPUT_PIN
            and circuit.gates[fault.gate].gtype is GateType.DFF
        ]
        assert not dff_output_faults
        pi_output_faults = [
            fault
            for fault in faults
            if fault.pin == OUTPUT_PIN
            and circuit.gates[fault.gate].gtype is GateType.INPUT
        ]
        assert len(pi_output_faults) == 2 * len(circuit.inputs)

    def test_make_helper(self):
        fault = TransitionFault.make(3, 1, rise=True)
        assert fault.slow_to_rise
        assert not TransitionFault.make(3, 1, rise=False).slow_to_rise
