"""Seeded inputs and their references, generated outside any timed region.

A *unit* is one cached bundle of generated inputs plus the reference
answers every timed operation on them is checked against.  Inputs are
text only (netlists through ``write_bench``, vectors through
``format_vectors``, request payloads), so the program under test parses
everything it simulates.  Generation calls the program's own circuit
generator and ATPG; the sha256 of the inputs (never of the references)
is the fingerprint printed with every result.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

#: How many faults the serial oracle re-simulates to audit each reference.
#: Faults never interact, so a seeded sample checks the reference exactly
#: on those faults; the whole universe is too slow (serial stuck-at takes
#: ~45 s on s820 and the serial transition oracle ~164 s).
ORACLE_SAMPLE = 16

#: Length of vsim-random's sequence: long enough for two 64-pattern
#: windows, short enough (~1.4 s per campaign) that a run holds about ten
#: campaigns, whose median is what steadies the figure.
RANDOM_VECTORS = 128

# serve-mixed shape.  Six circuit sources against the resolver's 4-entry
# LRU, so both circuit reuse and eviction happen; scale 0.15 keeps a
# simulate-miss near 60 ms on a 2-vCPU host, cheap enough that a 15 s run
# holds 60-100 diagnose queries (each report prints how many samples lie
# beyond every p90).
SERVE_CIRCUITS = ("s298", "s344", "s386", "s400", "s444", "s526")
SERVE_SCALE = 0.15
SERVE_VECTORS = 32
#: Every source gets a warm dictionary, so set-up (which builds them)
#: does the same work whatever the seed.
SERVE_QUERIES_PER_DICTIONARY = 8
#: Longer than any run can consume at today's speed (about 500 requests
#: per 15 s); a run that exhausts the stream stops early.
SERVE_STREAM_LENGTH = 3000
SERVE_MIX = (("miss", 0.5), ("hit", 0.3), ("diagnose", 0.2))


def fault_key(fault) -> str:
    return f"{fault.gate}:{fault.pin}:{fault.kind.value}"


def outcome(result) -> Dict[str, Dict[str, int]]:
    """The checked part of a result: detections and first-detect cycles,
    plus potential detections, keyed by fault site."""
    return {
        "detected": {fault_key(f): c for f, c in sorted(result.detected.items())},
        "potential": {
            fault_key(f): c for f, c in sorted(result.potentially_detected.items())
        },
    }


def _restricted(expected: Dict[str, Dict[str, int]], keys) -> Dict[str, Dict[str, int]]:
    return {part: {k: v for k, v in expected[part].items() if k in keys} for part in expected}


def digest(*parts: str) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _audit(name: str, reference, oracle_result, sample) -> None:
    keys = {fault_key(fault) for fault in sample}
    if _restricted(outcome(reference), keys) != outcome(oracle_result):
        raise RuntimeError(
            f"{name}: the reference disagrees with the serial oracle on its "
            f"{len(keys)}-fault audit sample"
        )


def campaign_unit(circuit_name: str, seed: int, kind: str) -> dict:
    """Netlist, vectors and references for one campaign circuit.

    ``kind="atpg"``: a deterministic ATPG sequence (Table 3/6 shape) with
    both a stuck-at reference (PROOFS) and a transition reference (csim-T
    without list splitting, a different list discipline from the csim-V
    transition engine under test).  ``kind="random"``: a
    :data:`RANDOM_VECTORS`-long random sequence (Table 5 shape) with a stuck-at reference (PROOFS).
    Every reference is audited against the serial oracle on a seeded
    fault sample before it is used.
    """
    from repro import load_circuit, parse_bench, write_bench
    from repro.baselines.proofs import ProofsSimulator
    from repro.baselines.serial import simulate_serial, simulate_serial_transition
    from repro.concurrent import SimOptions, TransitionFaultSimulator
    from repro.faults import all_transition_faults, stuck_at_universe
    from repro.patterns import generate_tests, random_sequence
    from repro.patterns.vectors import format_vectors, parse_vectors

    netlist = write_bench(load_circuit(circuit_name))
    circuit = parse_bench(netlist, name=circuit_name)
    if kind == "atpg":
        tests, _coverage = generate_tests(circuit, seed=seed)
    else:
        tests = random_sequence(circuit, RANDOM_VECTORS, seed=seed)
    vectors = format_vectors(tests)
    tests = parse_vectors(vectors, circuit)
    rng = random.Random(f"{circuit_name}:{kind}:{seed}")

    universe = stuck_at_universe(circuit)
    stuck_at = ProofsSimulator(circuit, universe).run(tests)
    sample = rng.sample(universe, min(ORACLE_SAMPLE, len(universe)))
    _audit(circuit_name, stuck_at, simulate_serial(circuit, tests.vectors, sample), sample)
    unit = {
        "circuit": circuit_name,
        "netlist": netlist,
        "vectors": vectors,
        "fingerprint": digest(netlist, vectors),
        "stuck_at": outcome(stuck_at),
    }
    if kind == "atpg":
        transition_faults = all_transition_faults(circuit)
        transition = TransitionFaultSimulator(
            circuit, transition_faults, SimOptions(split_lists=False)
        ).run(tests)
        sample = rng.sample(transition_faults, min(ORACLE_SAMPLE, len(transition_faults)))
        _audit(
            circuit_name,
            transition,
            simulate_serial_transition(circuit, tests.vectors, sample),
            sample,
        )
        unit["transition"] = outcome(transition)
    return unit


def _serve_dictionary(netlist: str, vectors: str, rng: random.Random) -> dict:
    """One warm dictionary's reference blob and its diagnose query pool.

    The reference simulates the uncollapsed universe directly, while the
    service builds from equivalence representatives; the artifacts must
    still match byte for byte.  Each query observes a detected fault's own
    full response, so the right answer ranks that fault's class first.
    """
    from repro import parse_bench
    from repro.diagnosis.dictionary import build_responses
    from repro.diagnosis.store import (
        decode_dictionary,
        diagnosis_report,
        encode_dictionary,
    )
    from repro.faults.universe import all_stuck_at_faults
    from repro.patterns.vectors import parse_vectors

    circuit = parse_bench(netlist, name="inline")
    tests = parse_vectors(vectors, circuit)
    responses = build_responses(
        circuit, tests, all_stuck_at_faults(circuit), kind="full", collapse=None
    )
    blob = encode_dictionary(
        circuit.name, len(tests), responses, "full", collapse="equivalence"
    )
    dictionary = decode_dictionary(blob)
    detected = sorted(fault for fault, failures in responses.items() if failures)
    queries = []
    for fault in rng.sample(detected, min(SERVE_QUERIES_PER_DICTIONARY, len(detected))):
        failures = [list(failure) for failure in responses[fault]]
        body = diagnosis_report(circuit, tests, dictionary, [tuple(f) for f in failures])
        queries.append(
            {"fault": fault_key(fault), "failures": failures, "body_sha": digest(body.decode())}
        )
    return {"blob_sha": digest(blob.decode()), "queries": queries}


def serve_unit(seed: int) -> dict:
    """Circuit sources, warm dictionaries and the request stream."""
    from repro import load_circuit, write_bench
    from repro.patterns import random_sequence
    from repro.patterns.vectors import format_vectors

    rng = random.Random(f"serve-mixed:{seed}")
    circuits = [load_circuit(name, scale=SERVE_SCALE) for name in SERVE_CIRCUITS]
    netlists = [write_bench(circuit) for circuit in circuits]

    def fresh_vectors(index: int) -> str:
        return format_vectors(
            random_sequence(circuits[index], SERVE_VECTORS, seed=rng.randrange(1 << 30))
        )

    dictionaries = []
    for index in range(len(circuits)):
        vectors = fresh_vectors(index)
        entry = {"circuit": index, "vectors": vectors}
        entry.update(_serve_dictionary(netlists[index], vectors, rng))
        dictionaries.append(entry)

    classes = [name for name, _ in SERVE_MIX]
    weights = [share for _, share in SERVE_MIX]
    stream: List[dict] = []
    misses: List[int] = []
    for position in range(SERVE_STREAM_LENGTH):
        kind = "miss" if not misses else rng.choices(classes, weights)[0]
        if kind == "miss":
            index = rng.randrange(len(circuits))
            stream.append({"kind": "miss", "circuit": index, "vectors": fresh_vectors(index)})
            misses.append(position)
        elif kind == "hit":
            stream.append({"kind": "hit", "of": rng.choice(misses)})
        else:
            which = rng.randrange(len(dictionaries))
            query = rng.randrange(len(dictionaries[which]["queries"]))
            stream.append({"kind": "diagnose", "dictionary": which, "query": query})
    inputs = {
        "netlists": netlists,
        "dictionaries": [[d["circuit"], d["vectors"]] for d in dictionaries],
        "stream": stream,
    }
    return {
        "netlists": netlists,
        "dictionaries": dictionaries,
        "stream": stream,
        "fingerprint": digest(json.dumps(inputs, sort_keys=True)),
    }


def miss_reference(netlist: str, vectors: str) -> str:
    """Digest of the canonical bytes a direct ``run_stuck_at`` of the
    same spec produces (the service's default engine and universe)."""
    from repro import parse_bench
    from repro.faults import stuck_at_universe
    from repro.harness.runner import run_stuck_at
    from repro.patterns.vectors import parse_vectors
    from repro.serve.cache import serialize_result

    circuit = parse_bench(netlist, name="inline")
    tests = parse_vectors(vectors, circuit)
    result = run_stuck_at(circuit, tests, "csim-MV", faults=stuck_at_universe(circuit))
    return digest(serialize_result(result, circuit).decode())
