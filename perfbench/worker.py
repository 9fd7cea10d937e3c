"""Child-process side of the repo benchmark.

``run.py`` starts every generation step and every timed operation in a
fresh child, so each set-up is paid cold (as one CLI invocation pays it)
and ``peak_rss_mb`` is the peak of the process that ran the timed
operations, not of the generator or the orchestrator.

Usage: ``python3 perfbench/worker.py <command> <request.json>``; the
child prints one JSON object as the last line of its standard output.
Commands: ``gen-campaign``, ``gen-serve``, ``miss-refs``, ``campaign``,
``serve``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from typing import Dict, List, Optional

import calibrate
from inputs import (
    campaign_unit,
    digest,
    miss_reference,
    outcome,
    serve_unit,
)
from spantree import SpanRecorder

#: Engine layer and fault model per campaign workload.
CAMPAIGN_ENGINES = {
    "csim-det": ("concurrent", "stuck_at"),
    "transition-det": ("transition", "transition"),
    "vsim-random": ("vector", "stuck_at"),
}

#: serve-mixed reports its exact-repeat statistics over this fixed prefix
#: of the request stream, which every run completes whatever its speed.
SERVE_PREFIX = 100

#: Seconds between host-speed calibrations inside the serve loop.
CALIBRATE_EVERY_S = 0.5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# campaign workloads: csim-det, transition-det, vsim-random
# ----------------------------------------------------------------------


def _build(unit: dict, layer: str, recorder: SpanRecorder):
    """Netlist text to a ready simulator: parse, universe, construction."""
    from repro import parse_bench
    from repro.concurrent import CSIM_MV, CSIM_V, ConcurrentFaultSimulator
    from repro.concurrent import TransitionFaultSimulator
    from repro.faults import all_transition_faults, stuck_at_universe
    from repro.vector.kernel import VectorFaultSimulator

    with recorder.span("circuit.parse"):
        circuit = parse_bench(unit["netlist"], name=unit["circuit"])
    with recorder.span("faults.universe"):
        if layer == "transition":
            universe = all_transition_faults(circuit)
        else:
            universe = stuck_at_universe(circuit)
    with recorder.span(f"{layer}.construct"):
        if layer == "concurrent":
            simulator = ConcurrentFaultSimulator(circuit, universe, CSIM_MV)
        elif layer == "transition":
            simulator = TransitionFaultSimulator(circuit, universe, CSIM_V)
        else:
            simulator = VectorFaultSimulator(circuit, universe)
    return circuit, universe, simulator


def _work(result, universe_size: int) -> dict:
    """Simulated statistics and work counters that must repeat exactly."""
    counters = result.counters
    return {
        "universe_size": universe_size,
        "detected": result.num_detected,
        "potential": len(result.potentially_detected),
        "coverage": result.coverage,
        "good_evaluations": counters.good_evaluations,
        "fault_evaluations": counters.fault_evaluations,
        "element_visits": counters.element_visits,
        "events": counters.events,
        "peak_elements": result.memory.peak_elements,
        "axis_windows": dict(sorted(result.axis_windows.items())),
    }


def campaign(request: dict) -> dict:
    """One trial: per circuit, a cold set-up and one campaign, checked
    against the unit's reference."""
    from repro import LogicSimulator
    from repro.patterns.vectors import parse_vectors

    layer, model = CAMPAIGN_ENGINES[request["workload"]]
    recorder = SpanRecorder()
    recorder.active = request["traced"]
    recorder.begin_op(request["op"])
    units = [_load(path) for path in request["units"]]
    # Host and calibrated (see calibrate.py) seconds per operation kind.
    host = {"setup": 0.0, "campaign": 0.0}
    scaled = {"setup": 0.0, "campaign": 0.0}
    work: Dict[str, dict] = {}
    failures: List[str] = []
    for unit in units:
        before = calibrate.kernel_seconds()
        started = time.perf_counter()
        with recorder.span("bench.setup"):
            circuit, universe, simulator = _build(unit, layer, recorder)
        seconds = time.perf_counter() - started
        after = calibrate.kernel_seconds()
        host["setup"] += seconds
        scaled["setup"] += calibrate.scaled(seconds, before, after)
        tests = parse_vectors(unit["vectors"], circuit)
        before = calibrate.kernel_seconds()
        started = time.perf_counter()
        with recorder.span("bench.campaign"), recorder.span(f"{layer}.run"):
            result = simulator.run(tests)
        seconds = time.perf_counter() - started
        after = calibrate.kernel_seconds()
        host["campaign"] += seconds
        scaled["campaign"] += calibrate.scaled(seconds, before, after)
        if result.truncated or result.num_vectors != len(tests):
            failures.append(f"{unit['circuit']}: truncated campaign")
        elif outcome(result) != unit[model]:
            failures.append(
                f"{unit['circuit']}: detections, first-detect cycles or potential "
                "detections differ from the reference"
            )
        work[unit["circuit"]] = _work(result, len(universe))
        if request["traced"]:
            with recorder.span("sim.good_machine"):
                good = LogicSimulator(circuit)
                for vector in tests:
                    good.step(vector)
    return {
        "host": host,
        "scaled": scaled,
        "work": work,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
        "spans": recorder.spans,
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def _instrument(recorder: SpanRecorder) -> Dict[str, int]:
    """Span the public calls the in-process service makes into each layer,
    and count ``os.fsync`` calls (the store's and checkpoints' durability
    cost)."""
    import repro.diagnosis.store as diagnosis_store
    import repro.robust.runner as robust_runner
    import repro.serve.spec as serve_spec
    from repro.concurrent import ConcurrentFaultSimulator
    from repro.serve import FaultSimService
    from repro.serve.cache import ResultCache
    from repro.serve.store import JobStore

    for owner, attribute, name in (
        (FaultSimService, "submit", "serve.submit"),
        (FaultSimService, "process_once", "serve.process"),
        (FaultSimService, "result_bytes", "serve.result_read"),
        (FaultSimService, "diagnose", "serve.diagnose"),
        (ResultCache, "get", "serve.cache_get"),
        (ResultCache, "put", "serve.cache_put"),
        (JobStore, "save", "store.save"),
        (JobStore, "write_result", "store.write_result"),
        (JobStore, "read_result", "store.read_result"),
        (serve_spec, "parse_bench", "circuit.parse"),
        (serve_spec, "stuck_at_universe", "faults.universe"),
        (serve_spec, "all_stuck_at_faults", "faults.universe"),
        (robust_runner, "run_checkpointed", "robust.run_checkpointed"),
        (robust_runner, "write_checkpoint", "robust.checkpoint"),
        (ConcurrentFaultSimulator, "__init__", "concurrent.construct"),
        (ConcurrentFaultSimulator, "step", "concurrent.step"),
        (ConcurrentFaultSimulator, "snapshot", "robust.snapshot"),
        (diagnosis_store, "decode_dictionary", "diagnosis.decode"),
        (diagnosis_store, "diagnosis_report", "diagnosis.report"),
    ):
        recorder.wrap(owner, attribute, name)
    fsyncs = {"count": 0}
    real_fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        fsyncs["count"] += 1
        real_fsync(fd)

    os.fsync = counting_fsync
    return fsyncs


def _top_is_injected(body: bytes, failures: list) -> bool:
    """The first candidate reproduces the observed failures exactly, i.e.
    the injected fault's equivalence (signature) class ranks first."""
    candidates = json.loads(body)["candidates"]
    if not candidates:
        return False
    top = candidates[0]
    return (
        top["exact"]
        and top["matched"] == len(failures)
        and top["missed"] == 0
        and top["extra"] == 0
    )


def _counters(snapshot: dict) -> dict:
    return {
        "simulated": snapshot["jobs"]["simulated"],
        "cache_hits": snapshot["cache"]["hits"],
        "cache_misses": snapshot["cache"]["misses"],
        "batches": snapshot["batch"]["count"],
        "batched_jobs": round(snapshot["batch"]["mean_size"] * snapshot["batch"]["count"]),
        "element_visits": snapshot["counters"]["element_visits"],
        "fault_evaluations": snapshot["counters"]["fault_evaluations"],
        "good_evaluations": snapshot["counters"]["good_evaluations"],
        "events": snapshot["counters"]["events"],
    }


def _attach_scales(records: List[list], calibrations: List[tuple]) -> None:
    """Append to each request record the factor that turns its host
    seconds into calibrated ones (see calibrate.py)."""
    index = 0
    for record in records:
        while index + 1 < len(calibrations) and calibrations[index + 1][0] <= record[1]:
            index += 1
        before = calibrations[index][1]
        after = calibrations[min(index + 1, len(calibrations) - 1)][1]
        record.append(calibrate.scaled(1.0, before, after))


def serve(request: dict) -> dict:
    """Service set-up (construction plus warm dictionaries built through
    the service), then, unless probing, the closed loop over the stream."""
    from repro.serve import FaultSimService, ServeConfig

    data = _load(request["unit"])
    netlists = data["netlists"]
    stream = data["stream"]
    state_dir = request["state_dir"]
    shutil.rmtree(state_dir, ignore_errors=True)
    failures: List[str] = []
    try:
        before = calibrate.kernel_seconds()
        started = time.perf_counter()
        service = FaultSimService(ServeConfig(state_dir=state_dir, workers=0))
        dictionaries = []
        for entry in data["dictionaries"]:
            payload = {"netlist": netlists[entry["circuit"]], "vectors": entry["vectors"]}
            status, document, _ = service.diagnose(dict(payload, failures=[]))
            if status != 202 or document is None:
                raise RuntimeError(f"cold diagnose answered {status}, expected 202")
            while service.process_once():
                pass
            blob = service.result_bytes(document["job"])
            if blob is None or digest(blob.decode()) != entry["blob_sha"]:
                raise RuntimeError("the service's dictionary differs from the reference")
            dictionaries.append((payload, entry["queries"]))
        setup_s = time.perf_counter() - started
        setup_scaled = calibrate.scaled(setup_s, before, calibrate.kernel_seconds())
        if request["probe"]:
            return {"host": {"setup": setup_s}, "scaled": {"setup": setup_scaled},
                    "peak_rss_mb": peak_rss_mb(), "failures": []}

        recorder = SpanRecorder()
        recorder.active = request["traced"]
        fsyncs = _instrument(recorder) if request["traced"] else {"count": 0}
        opening = service.metrics_snapshot()
        prefix: Optional[dict] = None
        # One list per answered request: [class, start, end, submit_s,
        # process_s, read_s, fsyncs], plus the calibration factor that
        # _attach_scales appends after the loop.
        records: List[list] = []
        miss_digests: Dict[str, str] = {}
        deadline = time.perf_counter() + request["seconds"]
        # (time, kernel seconds): requests are scaled by the calibrations
        # on either side of them, taken between requests so they pause the
        # client but never lengthen a latency.
        calibrations = [(time.perf_counter(), calibrate.kernel_seconds())]
        position = 0
        while position < len(stream) and (
            position < SERVE_PREFIX or time.perf_counter() < deadline
        ):
            if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append((time.perf_counter(), calibrate.kernel_seconds()))
            item = stream[position]
            kind = item["kind"]
            recorder.begin_op(f"request-{position}")
            fsync_start = fsyncs["count"]
            try:
                if kind == "diagnose":
                    payload, queries = dictionaries[item["dictionary"]]
                    query = queries[item["query"]]
                    start = time.perf_counter()
                    with recorder.span("bench.request"):
                        status, _, body = service.diagnose(
                            dict(payload, failures=query["failures"])
                        )
                    end = time.perf_counter()
                    records.append([kind, start, end, 0.0, 0.0, 0.0, 0])
                    if status != 200 or body is None:
                        failures.append(f"request {position}: diagnose answered {status}")
                    elif digest(body.decode()) != query["body_sha"]:
                        failures.append(f"request {position}: diagnose ranking differs")
                    elif not _top_is_injected(body, query["failures"]):
                        failures.append(f"request {position}: injected class not first")
                else:
                    source = item if kind == "miss" else stream[item["of"]]
                    payload = {
                        "netlist": netlists[source["circuit"]],
                        "vectors": source["vectors"],
                    }
                    start = time.perf_counter()
                    with recorder.span("bench.request"):
                        record, _ = service.submit(payload)
                        submitted = time.perf_counter()
                        if record.state != "done":
                            service.process_once()
                        processed = time.perf_counter()
                        body = service.result_bytes(record.job_id)
                    end = time.perf_counter()
                    records.append(
                        [
                            "sim" if kind == "miss" else "cached",
                            start,
                            end,
                            submitted - start,
                            processed - submitted,
                            end - processed,
                            fsyncs["count"] - fsync_start,
                        ]
                    )
                    final = service.status(record.job_id)
                    if body is None or final is None or final.state != "done":
                        failures.append(f"request {position}: no result")
                    elif final.cache_hit != (kind == "hit"):
                        failures.append(f"request {position}: unexpected cache outcome")
                    elif kind == "miss":
                        miss_digests[str(position)] = digest(body.decode())
                    elif digest(body.decode()) != miss_digests.get(str(item["of"])):
                        failures.append(
                            f"request {position}: cached bytes differ from the first submission"
                        )
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                failures.append(f"request {position}: {type(exc).__name__}: {exc}")
            position += 1
            if position == SERVE_PREFIX:
                prefix = _counters(service.metrics_snapshot())
        closing = service.metrics_snapshot()
        recorder.unwrap()
        calibrations.append((time.perf_counter(), calibrate.kernel_seconds()))
        _attach_scales(records, calibrations)
        base = _counters(opening)
        return {
            "host": {"setup": setup_s},
            "scaled": {"setup": setup_scaled},
            "peak_rss_mb": peak_rss_mb(),
            "attempted": position,
            "records": records,
            "miss_digests": miss_digests,
            "failures": failures,
            "prefix": {k: v - base[k] for k, v in (prefix or {}).items()},
            "latency_before": opening["latency"],
            "latency_after": closing["latency"],
            "spans": recorder.spans,
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------


def gen_campaign(request: dict) -> dict:
    unit = campaign_unit(request["circuit"], request["seed"], request["kind"])
    write_json(request["out"], unit)
    return {"fingerprint": unit["fingerprint"]}


def gen_serve(request: dict) -> dict:
    unit = serve_unit(request["seed"])
    write_json(request["out"], unit)
    return {"fingerprint": unit["fingerprint"]}


def miss_refs(request: dict) -> dict:
    data = _load(request["unit"])
    refs = {}
    for position in request["positions"]:
        item = data["stream"][int(position)]
        refs[str(position)] = miss_reference(data["netlists"][item["circuit"]], item["vectors"])
    return {"refs": refs}


def write_json(path: str, document: object) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(document, handle, sort_keys=True)
    os.replace(tmp, path)


COMMANDS = {
    "gen-campaign": gen_campaign,
    "gen-serve": gen_serve,
    "miss-refs": miss_refs,
    "campaign": campaign,
    "serve": serve,
}


def main(argv: List[str]) -> int:
    command, request_path = argv
    reply = COMMANDS[command](_load(request_path))
    sys.stdout.write(json.dumps(reply) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
