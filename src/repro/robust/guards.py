"""Failure-isolation guards: tracer sandboxing and engine invariants.

Two guards the chaos harness (:mod:`repro.robust.chaos`) exercises:

* :class:`GuardedTracer` wraps any :class:`repro.obs.Tracer` so that an
  exception raised inside a hook — observability code, by definition not
  allowed to take the simulation down — disarms tracing instead of
  crashing the run.  The first failure is kept for diagnostics; everything
  recorded before it is still available through :meth:`telemetry`.
* :func:`verify_invariants` checks the concurrent engines' internal
  consistency — every stored fault-element value is a legal three-valued
  logic value, the live-element count matches the lists, detected
  descriptors carry a detection cycle — and returns human-readable
  violations.  The engine ladder treats any violation as grounds to
  degrade to a sturdier engine.
"""

from __future__ import annotations

from typing import List, Optional

from repro.logic.values import ONE, X, ZERO
from repro.obs.tracer import Tracer

_VALID_VALUES = (ZERO, ONE, X)


class GuardedTracer(Tracer):
    """Proxy tracer that survives failures of the tracer it wraps.

    After the first hook exception the inner tracer is disarmed: further
    hooks are no-ops, ``failure`` holds the exception, and the simulation
    continues untraced.  ``KeyboardInterrupt``/``SystemExit`` still
    propagate — a guard must never eat a user interrupt.
    """

    def __init__(self, inner: Tracer) -> None:
        self.inner: Optional[Tracer] = inner
        self.failure: Optional[BaseException] = None
        self.failed_hook: Optional[str] = None
        self.enabled = bool(getattr(inner, "enabled", False))

    def _call(self, hook: str, *args, **kwargs):
        inner = self.inner
        if inner is None:
            return None
        try:
            return getattr(inner, hook)(*args, **kwargs)
        except Exception as exc:
            self.failure = exc
            self.failed_hook = hook
            self.inner = None
            self.enabled = False
            return None

    # One explicit stub per protocol hook: engines call these directly.
    def run_start(self, engine, circuit):
        self._call("run_start", engine, circuit)

    def run_end(self, wall_seconds):
        self._call("run_end", wall_seconds)

    def resume(self, counters):
        self._call("resume", counters)

    def cycle_start(self, cycle):
        self._call("cycle_start", cycle)

    def cycle_end(self, cycle, live=0, visible=0, invisible=0):
        self._call("cycle_end", cycle, live=live, visible=visible, invisible=invisible)

    def phase_time(self, phase, seconds):
        self._call("phase_time", phase, seconds)

    def good_evals(self, gate, count=1):
        self._call("good_evals", gate, count)

    def fault_evals(self, gate, count=1):
        self._call("fault_evals", gate, count)

    def element_visits(self, gate, count):
        self._call("element_visits", gate, count)

    def event(self, gate):
        self._call("event", gate)

    def scheduled(self, gate, level):
        self._call("scheduled", gate, level)

    def diverge(self, gate, fid, visible=True):
        self._call("diverge", gate, fid, visible)

    def converge(self, gate, fid):
        self._call("converge", gate, fid)

    def detect(self, fid, cycle, potential=False):
        self._call("detect", fid, cycle, potential=potential)

    def drop(self, fid, cycle):
        self._call("drop", fid, cycle)

    def budget_breach(self, kind, limit, actual):
        self._call("budget_breach", kind, limit, actual)

    def fallback(self, engine, to, reason):
        self._call("fallback", engine, to, reason)

    def telemetry(self):
        inner = self.inner
        return inner.telemetry() if inner is not None else None


def verify_invariants(simulator) -> List[str]:
    """Consistency check for a concurrent simulator's fault-list state.

    Returns a list of violations (empty when the state is sound).  Checks
    apply to any engine exposing ``vis``/``descriptors`` (the zero-delay,
    transition and event-driven engines); the ``invis`` lists and the
    live-element counter are checked when present.  The word-packed
    engines (PROOFS, vsim) have no fault lists — their only per-fault
    state is the faulty flip-flop diff map, which gets its own checks:
    legal logic values, diffs that actually differ from the good latched
    value, and no state carried for dropped faults.
    """
    violations: List[str] = []
    good = getattr(simulator, "good", None)
    vis = getattr(simulator, "vis", None)
    if vis is None:
        ff_diffs = getattr(simulator, "ff_diffs", None)
        if ff_diffs is None:
            return ["simulator exposes no fault lists to verify"]
        # Word-engine invariants: ``good`` is a LogicSimulator here; the
        # ladder audits at cycle boundaries (post-clock), where each
        # carried diff must disagree with the good machine's DFF value.
        good_values = good.values if good is not None else []
        detected = getattr(simulator, "detected", {})
        for fault, diffs in ff_diffs.items():
            if diffs and fault in detected:
                violations.append(
                    f"dropped fault {fault!r} still carries "
                    f"{len(diffs)} flip-flop diffs"
                )
            for ff_index, value in diffs.items():
                if value not in _VALID_VALUES:
                    violations.append(
                        f"flip-flop diff (fault {fault!r}, gate {ff_index}) holds "
                        f"illegal logic value {value!r}"
                    )
                elif ff_index < len(good_values) and value == good_values[ff_index]:
                    violations.append(
                        f"flip-flop diff (fault {fault!r}, gate {ff_index}) equals "
                        f"the good value {value!r} — not a diff"
                    )
        for index, value in enumerate(good_values):
            if value not in _VALID_VALUES:
                violations.append(
                    f"good machine holds illegal logic value {value!r} at gate {index}"
                )
        return violations

    lists = [("visible", vis)]
    invis = getattr(simulator, "invis", None)
    if invis is not None:
        lists.append(("invisible", invis))

    live = 0
    for label, buckets in lists:
        for gate_index, bucket in enumerate(buckets):
            live += len(bucket)
            for fid, value in bucket.items():
                if value not in _VALID_VALUES:
                    violations.append(
                        f"{label} element (gate {gate_index}, fault {fid}) holds "
                        f"illegal logic value {value!r}"
                    )
    if good is not None:
        for index, value in enumerate(good):
            if value not in _VALID_VALUES:
                violations.append(
                    f"good machine holds illegal logic value {value!r} at gate {index}"
                )

    counted = getattr(simulator, "_live_elements", getattr(simulator, "_live", None))
    if counted is not None and counted != live:
        violations.append(
            f"live-element counter {counted} disagrees with list population {live}"
        )

    for descriptor in getattr(simulator, "descriptors", ()):
        if descriptor.detected and descriptor.detect_cycle is None:
            violations.append(
                f"fault {descriptor.fid} marked detected without a detection cycle"
            )
    return violations
