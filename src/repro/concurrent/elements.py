"""Fault descriptors and the behaviour abstraction of the concurrent engine.

The paper's data structure (Figure 2) separates per-location *fault
elements* (fault id + local state, kept on per-gate lists) from one global
*fault descriptor* per fault ("information central to the fault ... for
example, how to evaluate the faulty machine, or whether the fault has
already been detected").  This module is the descriptor side; the per-gate
element lists live inside the engine as dictionaries keyed by fault id.

A descriptor's :class:`Behavior` says how to evaluate the faulty machine at
its site gate:

``FORCE_OUTPUT``  the gate's output line is forced to a value (output
                  stuck-at faults, including on PIs and flip-flops);
``FORCE_INPUT``   one input pin is forced (input stuck-at faults);
``TABLE``         the gate evaluates through a private faulty lookup table —
                  the *functional faults* that macro extraction produces
                  ("stuck at faults may be translated into functional faults
                  which can be represented by look up table entries");
``TRANSITION``    one pin's value is delayed per the transition-fault rule
                  during the sampling pass (Section 3); the descriptor
                  carries its kind's Table 1 as lookup rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.model import Fault
from repro.faults.transition import DelayRule
from repro.logic.values import X


class Behavior(enum.Enum):
    FORCE_OUTPUT = "force_output"
    FORCE_INPUT = "force_input"
    TABLE = "table"
    TRANSITION = "transition"


@dataclass(slots=True)
class FaultDescriptor:
    """Global per-fault record shared by all of a fault's elements.

    ``fault`` is the user-facing fault definition on the *original* (flat)
    circuit; ``site_gate``/``pin`` locate the fault in the engine's working
    circuit, which differs from the original when macro extraction is on.

    Slotted: a campaign holds one descriptor per fault for its whole
    lifetime (tens of thousands on the larger circuits, per shard under
    the parallel runner), so the per-instance ``__dict__`` is pure
    overhead and attribute loads off slots are faster on the hot path.
    """

    fid: int
    fault: Fault
    site_gate: int
    behavior: Behavior
    pin: int = -1
    value: int = X
    table: Optional[Tuple[int, ...]] = None
    # Transition faults: the kind's Table 1 as ``rule[PV][CV]``.
    rule: Optional[DelayRule] = None
    detected: bool = False
    detect_cycle: Optional[int] = None
    # Transition faults: the site line (the gate itself for an output
    # site, else the fanin at ``pin``) and its value in this fault's
    # machine at the end of the previous cycle (PV of Table 1).
    site_line: int = -1
    prev_site_value: int = X

    def mark_detected(self, cycle: int) -> None:
        if not self.detected:
            self.detected = True
            self.detect_cycle = cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = f"detected@{self.detect_cycle}" if self.detected else "live"
        return f"FaultDescriptor({self.fid}, {self.fault}, {status})"
