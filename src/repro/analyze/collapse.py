"""Structural fault collapsing with full-universe expansion.

The paper's concurrent machinery spends its time walking per-gate fault
element lists, so the cheapest speedup available is simulating fewer
faults.  This pass computes, purely statically over the levelized netlist:

* **equivalence classes** — the classic gate-local rules (AND input
  ``s-a-0`` ≡ output ``s-a-0``, NOT input ``s-a-v`` ≡ output
  ``s-a-(1-v)``, buffer/inverter chains folded transitively through
  singly-loaded stems), which produce *functionally identical* faulty
  machines: every member of a class is detected on exactly the same cycle
  (and potentially-detected on the same cycle) as its representative, in
  two- and three-valued simulation alike.  Expansion through the class map
  is therefore **exact** — bit-identical to simulating the full universe.
* **dominance relations** — fanout-free-region dominators (AND output
  ``s-a-1`` dominates each input ``s-a-1``, composed transitively through
  the equivalence classes that chain an FFR's internal stems).  Dominance
  is a single-time-frame theorem: on a sequential circuit the dominator's
  faulty machine accumulates its *own* state history and can self-mask
  on the very cycle the dominated fault reaches a primary output, so
  inheritance is only a *proposal*.  :func:`expand_verified` therefore
  re-simulates every proposed fault against the serial oracle and keeps
  only confirmed detections (with the oracle's exact cycles) — expansion
  never over-claims; faults whose impliers never fired simply stay
  undetected, the conservative undercount dominance trades for the
  smaller representative set.  :func:`audit_expansion` remains as the
  independent spot-check of the raw proposals.

The union runs through *off-universe* sites as well (equivalence is
transitive, so two input-pin faults may be equivalent via an output-line
fault nobody asked to simulate).  That is what lets the transition-fault
universe, which has no output-line faults at all, still collapse through
inverter and buffer chains.  The same stuck-at union and smallest-member
pick build the default simulation universe
(:func:`repro.faults.universe.stuck_at_universe`).

Faults are never merged across flip-flop boundaries: a D-pin fault is
observed one cycle later than the matching Q fault, and the simulators
report first-detection times.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.faults.model import OUTPUT_PIN, Fault, StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.universe import target_faults
from repro.logic.tables import GateType
from repro.result import Failure, FaultSimResult

#: Recognised collapse modes, least to most aggressive.
COLLAPSE_MODES = ("equivalence", "dominance")

#: Controlling input value and the equivalent output value, per gate type.
_EQUIVALENCE_RULES = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 1),
    GateType.NOR: (1, 0),
}

#: (input stuck value, dominating output stuck value) per gate type.
_DOMINANCE_RULES = {
    GateType.AND: (1, 1),
    GateType.NAND: (1, 0),
    GateType.OR: (0, 0),
    GateType.NOR: (0, 1),
}


class _UnionFind:
    """Union-find over arbitrary fault objects, growing on demand."""

    def __init__(self) -> None:
        self._parent: Dict[Fault, Fault] = {}

    def find(self, item: Fault) -> Fault:
        self._parent.setdefault(item, item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: Fault, right: Fault) -> None:
        self._parent[self.find(left)] = self.find(right)


def _single_loads(circuit: Circuit) -> List[Tuple[int, int, int]]:
    """(stem gate, sink gate, sink pin) for every singly-loaded stem.

    Stems that are primary outputs are skipped (the stem fault is observed
    directly at sampling, the branch fault is not), as are stems feeding a
    flip-flop (never collapse across a clock boundary).
    """
    loads: Dict[int, List[Tuple[int, int]]] = {g.index: [] for g in circuit.gates}
    for gate in circuit.gates:
        for pin, source in enumerate(gate.fanin):
            loads[source].append((gate.index, pin))
    edges: List[Tuple[int, int, int]] = []
    for gate in circuit.gates:
        pins = loads[gate.index]
        if len(pins) != 1 or gate.is_output:
            continue
        sink_gate, sink_pin = pins[0]
        if circuit.gates[sink_gate].gtype is GateType.DFF:
            continue
        edges.append((gate.index, sink_gate, sink_pin))
    return edges


def stuck_at_union(circuit: Circuit) -> _UnionFind:
    """Equivalence union over every structural stuck-at site."""
    uf = _UnionFind()
    for gate in circuit.gates:
        rule = _EQUIVALENCE_RULES.get(gate.gtype)
        if rule is not None:
            controlling, output_value = rule
            out = StuckAtFault.make(gate.index, OUTPUT_PIN, output_value)
            for pin in range(gate.arity):
                uf.union(StuckAtFault.make(gate.index, pin, controlling), out)
        elif gate.gtype is GateType.NOT:
            for value in (0, 1):
                uf.union(
                    StuckAtFault.make(gate.index, 0, value),
                    StuckAtFault.make(gate.index, OUTPUT_PIN, 1 - value),
                )
        elif gate.gtype is GateType.BUF:
            for value in (0, 1):
                uf.union(
                    StuckAtFault.make(gate.index, 0, value),
                    StuckAtFault.make(gate.index, OUTPUT_PIN, value),
                )
    for stem, sink_gate, sink_pin in _single_loads(circuit):
        for value in (0, 1):
            uf.union(
                StuckAtFault.make(stem, OUTPUT_PIN, value),
                StuckAtFault.make(sink_gate, sink_pin, value),
            )
    return uf


def pick_representatives(uf: _UnionFind, faults: Iterable[Fault]) -> Dict[Fault, Fault]:
    """Map each fault to the smallest member of its class among *faults*."""
    faults = list(faults)
    best_of_root: Dict[Fault, Fault] = {}
    for fault in faults:
        root = uf.find(fault)
        best = best_of_root.get(root)
        if best is None or fault < best:
            best_of_root[root] = fault
    return {fault: best_of_root[uf.find(fault)] for fault in faults}


def _transition_union(circuit: Circuit) -> _UnionFind:
    """Equivalence union over transition-fault sites.

    Only machine-identical rules apply — a slow line is the same slow line
    wherever the model attaches the fault, so inverters swap the direction
    (input ``STR`` ≡ output ``STF``), buffers keep it, and singly-loaded
    stems alias their branch pin.  Controlling-value rules of multi-input
    gates do *not* carry over: a slow input transition and a slow output
    transition gate different vector pairs.
    """
    uf = _UnionFind()
    for gate in circuit.gates:
        if gate.gtype is GateType.NOT:
            uf.union(
                TransitionFault.make(gate.index, 0, rise=True),
                TransitionFault.make(gate.index, OUTPUT_PIN, rise=False),
            )
            uf.union(
                TransitionFault.make(gate.index, 0, rise=False),
                TransitionFault.make(gate.index, OUTPUT_PIN, rise=True),
            )
        elif gate.gtype is GateType.BUF:
            for rise in (True, False):
                uf.union(
                    TransitionFault.make(gate.index, 0, rise=rise),
                    TransitionFault.make(gate.index, OUTPUT_PIN, rise=rise),
                )
    for stem, sink_gate, sink_pin in _single_loads(circuit):
        for rise in (True, False):
            uf.union(
                TransitionFault.make(stem, OUTPUT_PIN, rise=rise),
                TransitionFault.make(sink_gate, sink_pin, rise=rise),
            )
    return uf


@dataclass(frozen=True)
class CollapsedUniverse:
    """One representative per fault class, plus the way back.

    ``member_to_rep`` maps every universe fault in an *exact* class to its
    kept representative: equivalent machines are identical, so the member
    inherits the representative's detection (and potential-detection)
    cycles verbatim.  ``implied_by`` holds the dominance-dropped faults:
    each maps to the kept representatives whose detection *proposes* its
    own.  Proposals are combinationally sound but sequentially heuristic,
    so :meth:`expand` refuses maps that carry them — dominance results
    must go through :func:`expand_verified`, which confirms every
    proposal against the serial oracle before claiming it.
    """

    mode: str
    transition: bool
    universe: Tuple[Fault, ...]
    representatives: Tuple[Fault, ...]
    member_to_rep: Dict[Fault, Fault]
    implied_by: Dict[Fault, Tuple[Fault, ...]]

    @property
    def num_universe(self) -> int:
        return len(self.universe)

    @property
    def num_representatives(self) -> int:
        return len(self.representatives)

    @property
    def num_conservative(self) -> int:
        """Universe faults whose expansion is dominance-based (heuristic)."""
        return len(self.implied_by)

    @property
    def ratio(self) -> float:
        """Fraction of the universe removed by collapsing, in [0, 1]."""
        if not self.universe:
            return 0.0
        return 1.0 - self.num_representatives / self.num_universe

    def summary(self) -> str:
        kind = "transition" if self.transition else "stuck-at"
        text = (
            f"collapse[{self.mode}] {kind}: {self.num_universe} -> "
            f"{self.num_representatives} representatives "
            f"({100.0 * self.ratio:.1f}% reduction)"
        )
        if self.implied_by:
            text += f", {self.num_conservative} dominance-expanded"
        return text

    def fingerprint_material(self) -> Tuple:
        """Deterministic token binding checkpoints to this exact map.

        A resumed run must replay the same representatives *and* the same
        expansion; hashing the full map (not just the flag) catches a
        netlist or rule change between checkpoint and resume.
        """
        digest = hashlib.sha256()
        for member in self.universe:
            rep = self.member_to_rep.get(member)
            if rep is not None:
                entry = f"{member._sort_key()}={rep._sort_key()};"
            else:
                impliers = ",".join(
                    str(f._sort_key()) for f in self.implied_by[member]
                )
                entry = f"{member._sort_key()}<[{impliers}];"
            digest.update(entry.encode("ascii"))
        return ("collapse", self.mode, digest.hexdigest())

    def _expand_map(
        self,
        cycles: Dict[Fault, int],
        inherited: Optional[Dict[Fault, int]] = None,
    ) -> Dict[Fault, int]:
        expanded: List[Tuple[int, Fault]] = []
        for member in self.universe:
            rep = self.member_to_rep.get(member)
            if rep is not None:
                cycle = cycles.get(rep)
                if cycle is not None:
                    expanded.append((cycle, member))
            elif inherited is not None and member in inherited:
                expanded.append((inherited[member], member))
        expanded.sort()
        return {fault: cycle for cycle, fault in expanded}

    def expand(self, result: FaultSimResult) -> FaultSimResult:
        """Rewrite a representatives-only result onto the full universe.

        Detections are rebuilt in (cycle, fault) order — the same
        deterministic convention :func:`repro.parallel.merge.merge_results`
        uses — and ``num_faults`` becomes the universe size so coverage
        denominators match an uncollapsed run.  Work counters, memory and
        wall time are left as measured: they describe the work actually
        done, which is the point of collapsing.

        Only exact (equivalence) maps may expand this way; a map carrying
        dominance proposals is refused because inheriting them unverified
        can claim detections the full run never makes on a sequential
        circuit — use :func:`expand_verified`.
        """
        if self.implied_by:
            raise ValueError(
                "dominance expansion must be confirmed against the serial "
                "oracle; use repro.analyze.expand_verified"
            )
        return replace(
            result,
            num_faults=self.num_universe,
            detected=self._expand_map(result.detected),
            potentially_detected=self._expand_map(result.potentially_detected),
        )

    def expand_responses(
        self, responses: Dict[Fault, Tuple[Failure, ...]]
    ) -> Dict[Fault, Tuple[Failure, ...]]:
        """Rewrite a representatives-only response map onto the universe.

        Equivalent machines are identical, so every class member inherits
        its representative's full failing-response tuple verbatim — the
        exactness theorem that makes collapsed fault dictionaries
        bit-identical to full-universe ones.  Dominance maps are refused
        outright: dominance argues *detection*, never the response shape,
        so a dictionary built over a dominance-collapsed universe would
        attribute the dominator's responses to faults that fail
        differently.  The result is keyed in sorted fault order.
        """
        if self.implied_by:
            raise ValueError(
                "fault-dictionary responses cannot be expanded through "
                "dominance; build dictionaries with equivalence collapsing"
            )
        expanded: Dict[Fault, Tuple[Failure, ...]] = {}
        for member in self.universe:
            rep = self.member_to_rep[member]
            expanded[member] = responses.get(rep, ())
        return expanded

    def conservative_detections(self, result: FaultSimResult) -> Dict[Fault, int]:
        """Dominance detection *proposals*: fault -> earliest implier cycle.

        ``result`` is the *representatives* result, pre-expansion.  These
        are the claims the exactness theorem does not cover — the oracle
        worklist of :func:`expand_verified` and :func:`audit_expansion`.
        """
        out: Dict[Fault, int] = {}
        for member, impliers in self.implied_by.items():
            implied = [result.detected[f] for f in impliers if f in result.detected]
            if implied:
                out[member] = min(implied)
        return dict(sorted(out.items(), key=lambda item: (item[1], item[0])))


def _dominance_drops(
    circuit: Circuit,
    rep_of: Dict[Fault, Fault],
    uf: _UnionFind,
) -> Dict[Fault, Tuple[Fault, ...]]:
    """Representatives droppable by dominance -> the reps implying them.

    ``rep_of`` maps every *universe* fault to its equivalence
    representative; sites outside the universe resolve through ``uf`` to a
    class that may or may not have a universe representative.  Chains are
    resolved transitively (an implier that is itself dropped is replaced by
    its own impliers), which is what composes dominance through a
    fanout-free region: the equivalence pass already aliases each internal
    stem to its branch pin, so gate-by-gate dominance plus transitive
    resolution yields the FFR-dominator relation.
    """
    universe_rep: Dict[Fault, Fault] = {}
    for member, rep in rep_of.items():
        root = uf.find(member)
        best = universe_rep.get(root)
        if best is None or rep < best:
            universe_rep[root] = rep

    def site_rep(fault: Fault) -> Optional[Fault]:
        return universe_rep.get(uf.find(fault))

    raw: Dict[Fault, List[Fault]] = {}
    for gate in circuit.gates:
        rule = _DOMINANCE_RULES.get(gate.gtype)
        if rule is None or gate.arity < 2:
            continue
        input_value, output_value = rule
        dominator = site_rep(StuckAtFault.make(gate.index, OUTPUT_PIN, output_value))
        if dominator is None:
            continue
        impliers = sorted(
            {
                rep
                for pin in range(gate.arity)
                for rep in [site_rep(StuckAtFault.make(gate.index, pin, input_value))]
                if rep is not None and rep != dominator
            }
        )
        if impliers:
            raw.setdefault(dominator, []).extend(impliers)

    resolved: Dict[Fault, Tuple[Fault, ...]] = {}

    def resolve(fault: Fault, trail: frozenset) -> Optional[Tuple[Fault, ...]]:
        if fault not in raw:
            return (fault,)  # kept representative: terminal implier
        if fault in resolved:
            return resolved[fault]
        if fault in trail:
            return None  # defensive: a cycle would make the drop unsound
        flat: List[Fault] = []
        for implier in raw[fault]:
            sub = resolve(implier, trail | {fault})
            if sub is None:
                return None
            flat.extend(sub)
        final = tuple(sorted(set(flat)))
        resolved[fault] = final
        return final

    drops: Dict[Fault, Tuple[Fault, ...]] = {}
    for dominator in sorted(raw):
        final = resolve(dominator, frozenset())
        if final:
            drops[dominator] = final
    return drops


def collapse_universe(
    circuit: Circuit,
    faults: Optional[Iterable[Fault]] = None,
    *,
    mode: str = "equivalence",
    transition: bool = False,
) -> CollapsedUniverse:
    """Collapse a fault universe down to class representatives.

    ``faults`` defaults to the full uncollapsed universe (the pin-level
    :func:`~repro.faults.universe.target_faults`); pass an explicit list —
    e.g. the survivors of ``--prune-untestable`` — to collapse just those
    (duplicates count once).  ``mode`` is
    ``"equivalence"`` (exact expansion) or ``"dominance"`` (equivalence
    plus FFR-dominator drops with conservative expansion).
    """
    if mode not in COLLAPSE_MODES:
        raise ValueError(
            f"unknown collapse mode {mode!r}; expected one of {COLLAPSE_MODES}"
        )
    universe = list(
        dict.fromkeys(
            target_faults(circuit, faults, transition=transition, pin_level=True)
        )
    )

    uf = _transition_union(circuit) if transition else stuck_at_union(circuit)
    rep_of = pick_representatives(uf, universe)

    implied_by: Dict[Fault, Tuple[Fault, ...]] = {}
    if mode == "dominance" and not transition:
        drops = _dominance_drops(circuit, rep_of, uf)
        for member in universe:
            impliers = drops.get(rep_of[member])
            if impliers is not None:
                implied_by[member] = impliers
    member_to_rep = {
        member: rep for member, rep in rep_of.items() if member not in implied_by
    }
    representatives = tuple(sorted(set(member_to_rep.values())))
    return CollapsedUniverse(
        mode=mode,
        transition=transition,
        universe=tuple(universe),
        representatives=representatives,
        member_to_rep=member_to_rep,
        implied_by=implied_by,
    )


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a serial-oracle audit of conservative expansions."""

    checked: int
    confirmed: int
    refuted: Tuple[Fault, ...]

    @property
    def ok(self) -> bool:
        return not self.refuted

    def summary(self) -> str:
        if self.checked == 0:
            return "collapse audit: no dominance proposals to check"
        text = (
            f"collapse audit: {self.confirmed}/{self.checked} dominance "
            f"proposals confirmed by the serial oracle"
        )
        if self.refuted:
            text += f" ({len(self.refuted)} refuted)"
        return text


class CollapseAuditError(AssertionError):
    """A dominance-inherited detection the serial oracle could not confirm."""


def audit_expansion(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    collapsed: CollapsedUniverse,
    result: FaultSimResult,
    *,
    sample: int = 8,
    strict: bool = False,
) -> AuditReport:
    """Serially re-simulate a sample of dominance detection proposals.

    ``result`` is the *representatives* result (pre-expansion).  Up to
    ``sample`` faults whose detection ``implied_by`` proposes are re-run
    against the serial oracle; each must be detected (on any cycle —
    dominance argues detection, not the cycle).  Sampling is
    deterministic: evenly spaced over the (cycle, fault)-sorted worklist.
    ``strict`` raises :class:`CollapseAuditError` on any refutation.
    :func:`expand_verified` is the full (non-sampled) version whose
    confirmations actually drive expansion; this spot-check exists as an
    independent diagnostic of the raw proposal map.
    """
    from repro.baselines.serial import simulate_serial

    worklist = list(collapsed.conservative_detections(result))
    if sample > 0 and len(worklist) > sample:
        step = len(worklist) / sample
        worklist = [worklist[int(i * step)] for i in range(sample)]
    if not worklist:
        return AuditReport(checked=0, confirmed=0, refuted=())
    oracle = simulate_serial(circuit, vectors, worklist, drop_detected=True)
    refuted = tuple(f for f in worklist if f not in oracle.detected)
    report = AuditReport(
        checked=len(worklist),
        confirmed=len(worklist) - len(refuted),
        refuted=refuted,
    )
    if strict and refuted:
        raise CollapseAuditError(report.summary())
    return report


def expand_verified(
    circuit: Circuit,
    vectors: Sequence[Sequence[int]],
    collapsed: CollapsedUniverse,
    result: FaultSimResult,
) -> Tuple[FaultSimResult, AuditReport]:
    """Expand a representatives-only result, oracle-confirming dominance.

    Equivalence classes expand exactly, same as :meth:`expand`.  Every
    dominance-dropped fault whose impliers fired (detected *or*
    potentially detected) is re-simulated against the serial oracle, and
    only oracle-confirmed detections — at the oracle's exact cycles —
    make it into the expanded result; refuted proposals stay undetected.
    Because the engines are bit-identical to the serial baseline, the
    expanded detections are a subset of (and cycle-exact against) a
    full-universe run: dominance never over-claims, it only undercounts
    faults whose impliers the vectors missed.

    Returns the expanded result and an :class:`AuditReport` covering the
    whole proposal worklist (``refuted`` lists dropped detection claims).
    """
    if not collapsed.implied_by:
        return collapsed.expand(result), AuditReport(checked=0, confirmed=0, refuted=())
    from repro.baselines.serial import simulate_serial

    proposals = collapsed.conservative_detections(result)
    worklist = set(proposals)
    for member, impliers in collapsed.implied_by.items():
        if any(f in result.potentially_detected for f in impliers):
            worklist.add(member)
    inherited_detected: Dict[Fault, int] = {}
    inherited_potential: Dict[Fault, int] = {}
    refuted: Tuple[Fault, ...] = ()
    if worklist:
        oracle = simulate_serial(
            circuit, vectors, sorted(worklist), drop_detected=True
        )
        inherited_detected = dict(oracle.detected)
        inherited_potential = {
            fault: cycle
            for fault, cycle in oracle.potentially_detected.items()
            if fault not in inherited_detected
        }
        refuted = tuple(
            sorted(f for f in proposals if f not in inherited_detected)
        )
    expanded = replace(
        result,
        num_faults=collapsed.num_universe,
        detected=collapsed._expand_map(result.detected, inherited_detected),
        potentially_detected=collapsed._expand_map(
            result.potentially_detected, inherited_potential
        ),
    )
    report = AuditReport(
        checked=len(worklist),
        confirmed=len(inherited_detected),
        refuted=refuted,
    )
    return expanded, report
