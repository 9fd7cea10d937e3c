"""The repo benchmark: one command, four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload csim-det --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``csim-det``, ``transition-det``, ``vsim-random``
and ``serve-mixed`` (see :mod:`catalog` for why each exists).  Inputs are
generated from ``--seed`` outside every timed region, by the program's
own circuit generator and ATPG, and cached per seed and source tree in
``perfbench/.state``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` spends half the time untraced and half traced
and reports the per-layer metrics, the tracing overhead among them.
Times are host seconds calibrated for the host's drifting speed (see
:mod:`calibrate`); the raw host value follows each one in brackets.

Every timed operation is checked against a reference computed once per
seed.  The command prints every metric with its unit and sample count,
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; it exits 1 on any correctness failure and 3
when the inputs or the exact-repeat statistics differ from what this
checkout recorded for the same seed before.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from catalog import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SELF_TIME_LAYERS,
    WORKLOADS,
    benchmark_json,
)
from metrics_math import closed_loop, median, timing_summary  # noqa: E402
from spantree import durations, layer_self_times  # noqa: E402
from worker import CAMPAIGN_ENGINES, write_json  # noqa: E402

#: Circuits of the campaign workloads, and which generated unit they use.
CAMPAIGNS = {
    "csim-det": ("atpg", ("s641", "s820")),
    "transition-det": ("atpg", ("s641", "s820")),
    "vsim-random": ("random", ("s1494",)),
}

#: Campaign runs hold at least this many trials, whatever --seconds says.
MIN_TRIALS = 3
#: serve-mixed takes this many extra cold set-ups (service plus warm
#: dictionaries, ~0.3 s each) besides its loop's own.
SERVE_SETUP_PROBES = 4
#: The slowest child (ATPG input generation) takes ~20 s; a hung one is
#: killed well inside the 180 s a run may take.
CHILD_TIMEOUT = 120.0


class BenchError(RuntimeError):
    """A child failed in a way that leaves nothing to measure."""


def _src_digest(root: str) -> str:
    """Content digest of the program's sources: cached inputs and recorded
    statistics are valid only for the tree that produced them."""
    sha = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                sha.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()[:16]


class Bench:
    def __init__(self, root: str, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.state = os.path.join(HERE, ".state", _src_digest(root))
        for sub in ("inputs", "observed", "traces", "work", "requests"):
            os.makedirs(os.path.join(self.state, sub), exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    # -- children --------------------------------------------------------

    def child(self, command: str, request: dict) -> dict:
        fd, path = tempfile.mkstemp(
            dir=os.path.join(self.state, "requests"), suffix=".json"
        )
        with os.fdopen(fd, "w") as handle:
            json.dump(request, handle)
        try:
            process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), command, path],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                out, err = process.communicate(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                raise BenchError(f"{command} child timed out")
        finally:
            os.unlink(path)
        if process.returncode != 0 or not out.strip():
            raise BenchError(f"{command} child failed:\n{err[-4000:]}")
        return json.loads(out.strip().splitlines()[-1])

    # -- inputs ----------------------------------------------------------

    def inputs(self) -> List[str]:
        """Paths of this workload's generated units, generating missing
        ones (two at a time: the host has two cores)."""
        if self.workload == "serve-mixed":
            jobs = [("gen-serve", {"seed": self.seed}, f"serve-seed{self.seed}.json")]
        else:
            kind, circuits = CAMPAIGNS[self.workload]
            jobs = [
                (
                    "gen-campaign",
                    {"circuit": circuit, "seed": self.seed, "kind": kind},
                    f"{kind}-{circuit}-seed{self.seed}.json",
                )
                for circuit in circuits
            ]
        paths = []
        missing = []
        for command, request, name in jobs:
            path = os.path.join(self.state, "inputs", name)
            paths.append(path)
            if not os.path.exists(path):
                missing.append((command, dict(request, out=path)))
        if missing:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda job: self.child(*job), missing))
        return paths

    @staticmethod
    def fingerprint(workload: str, units: List[dict]) -> str:
        sha = hashlib.sha256(workload.encode())
        for unit in units:
            sha.update(unit["fingerprint"].encode())
        return sha.hexdigest()

    # -- recorded state ----------------------------------------------------

    def check_repeat(self, observed: dict) -> Optional[str]:
        """Compare *observed* with what the first run of this seed recorded."""
        path = os.path.join(self.state, "observed", f"{self.workload}-seed{self.seed}.json")
        if os.path.exists(path):
            with open(path) as handle:
                recorded = json.load(handle)
            if recorded != json.loads(json.dumps(observed)):
                return (
                    "exact-repeat statistics differ from an earlier run of the same "
                    f"code and seed (recorded in {os.path.relpath(path, self.root)})"
                )
            return None
        write_json(path, observed)
        return None


# ----------------------------------------------------------------------
# campaign workloads
# ----------------------------------------------------------------------


def run_trials(bench: Bench, units: List[str], seconds: float, traced: bool,
               label: str, minimum: int) -> List[dict]:
    """Fresh-process trials (cold set-up plus one campaign per circuit)
    until *seconds* have passed and at least *minimum* ran."""
    trials: List[dict] = []
    started = time.perf_counter()
    while len(trials) < minimum or time.perf_counter() - started < seconds:
        trials.append(
            bench.child(
                "campaign",
                {
                    "workload": bench.workload,
                    "units": units,
                    "traced": traced,
                    "op": f"{label}-{len(trials)}",
                },
            )
        )
    return trials


def campaign_work(trials: List[dict]) -> tuple:
    """The trials' shared work record, and a complaint if they differ."""
    first = trials[0]["work"]
    for trial in trials[1:]:
        if trial["work"] != first:
            return first, "work counters or simulated statistics differ between trials"
    return first, None


def _trial_time(trial: dict, kind: str) -> tuple:
    if kind == "trial":
        return (
            trial["scaled"]["setup"] + trial["scaled"]["campaign"],
            trial["host"]["setup"] + trial["host"]["campaign"],
        )
    return trial["scaled"][kind], trial["host"][kind]


def _median_pair(pairs: List[tuple]) -> tuple:
    return median(p[0] for p in pairs), median(p[1] for p in pairs)


def campaign_end_to_end(bench: Bench, units: List[str], seconds: float) -> dict:
    trials = run_trials(bench, units, seconds, False, "trial", MIN_TRIALS)
    n = len(trials)
    setup = _median_pair([_trial_time(t, "setup") for t in trials])
    campaign = _median_pair([_trial_time(t, "campaign") for t in trials])
    whole = _median_pair([_trial_time(t, "trial") for t in trials])
    rss = median(t["peak_rss_mb"] for t in trials)
    return {
        "trials": trials,
        "metrics": {
            "setup_s": (setup[0], setup[1], n),
            "op_p50_ms": (campaign[0] * 1000.0, campaign[1] * 1000.0, n),
            "ops_per_s": (1.0 / whole[0], 1.0 / whole[1], n),
            "peak_rss_mb": (rss, rss, n),
        },
    }


def campaign_per_layer(bench: Bench, units: List[str], seconds: float) -> dict:
    layer = CAMPAIGN_ENGINES[bench.workload][0]
    plain = run_trials(bench, units, seconds / 2, False, "untraced", 1)
    traced = run_trials(bench, units, seconds / 2, True, "traced", 1)
    work = traced[0]["work"]

    def factor(trial: dict) -> float:
        scaled, host = _trial_time(trial, "trial")
        return scaled / host

    def per_trial(name: str) -> tuple:
        return _median_pair(
            [
                (sum(durations(t["spans"], name)) * factor(t), sum(durations(t["spans"], name)))
                for t in traced
            ]
        )

    def total(key: str) -> int:
        return sum(w[key] for w in work.values())

    metrics: Dict[str, tuple] = {name: (0.0, 0.0) for name, _, _ in PER_LAYER}
    metrics["circuit.parse_s"] = per_trial("circuit.parse")
    metrics["faults.universe_s"] = per_trial("faults.universe")
    metrics[f"{layer}.construct_s"] = per_trial(f"{layer}.construct")
    metrics[f"{layer}.run_s"] = per_trial(f"{layer}.run")
    metrics["sim.good_machine_s"] = per_trial("sim.good_machine")
    counts = {"faults.universe_size": total("universe_size")}
    if layer == "concurrent":
        for key in ("element_visits", "fault_evaluations", "good_evaluations", "events"):
            counts[f"concurrent.{key}"] = total(key)
        counts["concurrent.peak_elements"] = max(w["peak_elements"] for w in work.values())
        visits = total("element_visits") + total("fault_evaluations")
        run_s = metrics["concurrent.run_s"]
        metrics["concurrent.ns_per_visit"] = (run_s[0] * 1e9 / visits, run_s[1] * 1e9 / visits)
    elif layer == "transition":
        for key in ("element_visits", "fault_evaluations"):
            counts[f"transition.{key}"] = total(key)
        counts["transition.peak_elements"] = max(w["peak_elements"] for w in work.values())
    else:
        counts["vector.fault_evaluations"] = total("fault_evaluations")
        counts["vector.good_evaluations"] = total("good_evaluations")
        for axis in ("pattern", "fault"):
            counts[f"vector.axis_windows.{axis}"] = sum(
                w["axis_windows"].get(axis, 0) for w in work.values()
            )
    for name, value in counts.items():
        metrics[name] = (value, value)
    selfs = [(layer_self_times(t["spans"]), factor(t)) for t in traced]
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.self_s"] = _median_pair(
            [(s.get(name, 0.0) * f, s.get(name, 0.0)) for s, f in selfs]
        )
    overhead = (
        _median_pair([_trial_time(t, "trial") for t in traced])[0]
        / _median_pair([_trial_time(t, "trial") for t in plain])[0]
        - 1.0
    )
    metrics["trace.overhead_ratio"] = (overhead, overhead)
    return {
        "trials": plain + traced,
        "metrics": metrics,
        "spans": [span for t in traced for span in t["spans"]],
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def serve_request(bench: Bench, unit: str, seconds: float, traced: bool,
                  probe: bool = False) -> dict:
    return bench.child(
        "serve",
        {
            "unit": unit,
            "probe": probe,
            "traced": traced,
            "seconds": seconds,
            "state_dir": os.path.join(bench.state, "work", f"serve-{os.getpid()}"),
        },
    )


def check_misses(bench: Bench, unit: str, loops: List[dict]) -> List[str]:
    """Check every simulate-miss's bytes against a direct ``run_stuck_at``
    of the same spec.  References are computed outside the timed loop
    for the misses a run completed, and cached per seed."""
    path = os.path.join(bench.state, "observed", f"miss-refs-seed{bench.seed}.json")
    refs: Dict[str, str] = {}
    if os.path.exists(path):
        with open(path) as handle:
            refs = json.load(handle)
    wanted = sorted(
        {position for loop in loops for position in loop["miss_digests"]} - set(refs),
        key=int,
    )
    if wanted:
        refs.update(bench.child("miss-refs", {"unit": unit, "positions": wanted})["refs"])
        write_json(path, refs)
    return [
        f"request {position}: result bytes differ from a direct run_stuck_at"
        for loop in loops
        for position, got in sorted(loop["miss_digests"].items(), key=lambda kv: int(kv[0]))
        if refs[position] != got
    ]


def loop_latencies(loop: dict) -> tuple:
    """Per request class, ``(calibrated, host)`` latencies in seconds, and
    the ``(calibrated, host)`` completions per second of busy time."""
    records = loop["records"]
    scaled = closed_loop([(r[0], r[1], r[2], r[7]) for r in records])
    host = closed_loop([(r[0], r[1], r[2], 1.0) for r in records])
    classes = {
        name: list(zip(scaled["latencies"][name], host["latencies"][name]))
        for name in host["latencies"]
    }
    return classes, (scaled["per_second"], host["per_second"])


def serve_end_to_end(bench: Bench, unit: str, seconds: float) -> dict:
    probes = [serve_request(bench, unit, 0, False, probe=True)
              for _ in range(SERVE_SETUP_PROBES)]
    loop = serve_request(bench, unit, seconds, False)
    classes, throughput = loop_latencies(loop)
    sims = classes.get("sim", [])
    setup = _median_pair([(c["scaled"]["setup"], c["host"]["setup"]) for c in probes + [loop]])
    sim = _median_pair(sims)
    return {
        "loops": [loop],
        "metrics": {
            "setup_s": (setup[0], setup[1], len(probes) + 1),
            "op_p50_ms": (sim[0] * 1000.0, sim[1] * 1000.0, len(sims)),
            "ops_per_s": (throughput[0], throughput[1], len(loop["records"])),
            "peak_rss_mb": (loop["peak_rss_mb"], loop["peak_rss_mb"], 1),
        },
        "classes": classes,
    }


def _phase_mean_ms(loop: dict, phase: str) -> float:
    before = loop["latency_before"].get(phase, {"count": 0, "sum_seconds": 0.0})
    after = loop["latency_after"].get(phase, {"count": 0, "sum_seconds": 0.0})
    count = after["count"] - before["count"]
    return (after["sum_seconds"] - before["sum_seconds"]) / count * 1000.0 if count else 0.0


def serve_per_layer(bench: Bench, unit: str, seconds: float) -> dict:
    plain = serve_request(bench, unit, seconds / 2, False)
    traced = serve_request(bench, unit, seconds / 2, True)
    spans = traced["spans"]
    records = traced["records"]
    requests = len(records)
    sim = [r for r in records if r[0] == "sim"]
    cached = [r for r in records if r[0] == "cached"]
    # One calibration factor for the traced loop's layer times.
    factor = sum((r[2] - r[1]) * r[7] for r in records) / sum(r[2] - r[1] for r in records)
    times: Dict[str, float] = {}

    def per_request(name: str) -> float:
        return sum(durations(spans, name)) / requests

    def med_ms(values: List[float]) -> float:
        return median(values) * 1000.0 if values else 0.0

    times["circuit.parse_s"] = per_request("circuit.parse")
    times["faults.universe_s"] = per_request("faults.universe")
    times["concurrent.construct_s"] = per_request("concurrent.construct")
    times["concurrent.run_s"] = per_request("concurrent.step")
    prefix = traced["prefix"]
    counts: Dict[str, float] = {}
    for key in ("element_visits", "fault_evaluations", "good_evaluations", "events"):
        counts[f"concurrent.{key}"] = prefix[key]
    visits_per_job = (
        (prefix["element_visits"] + prefix["fault_evaluations"]) / prefix["simulated"]
    )
    times["concurrent.ns_per_visit"] = (
        sum(durations(spans, "concurrent.step")) / len(sim) / visits_per_job * 1e9
        if sim and visits_per_job else 0.0
    )
    times["serve.submit_ms.sim"] = med_ms([r[3] for r in sim])
    times["serve.submit_ms.cached"] = med_ms([r[3] for r in cached])
    times["serve.process_ms"] = med_ms([r[4] for r in sim])
    times["serve.result_read_ms"] = med_ms([r[5] for r in sim + cached])
    for phase in ("setup", "simulate", "serialize", "queue_wait"):
        times[f"serve.phase.{phase}_ms"] = _phase_mean_ms(traced, phase)
    simulate_ms = times["serve.phase.simulate_ms"]
    sim_mean_ms = sum(r[2] - r[1] for r in sim) / len(sim) * 1000.0 if sim else 0.0
    ratios = {
        "serve.overhead_ratio": (sim_mean_ms - simulate_ms) / simulate_ms if simulate_ms else 0.0
    }
    counts["serve.element_visits"] = prefix["element_visits"]
    lookups = prefix["cache_hits"] + prefix["cache_misses"]
    ratios["serve.cache_hit_rate"] = prefix["cache_hits"] / lookups if lookups else 0.0
    counts["serve.batch_mean_size"] = (
        prefix["batched_jobs"] / prefix["batches"] if prefix["batches"] else 0.0
    )
    counts["serve.jobs_simulated"] = prefix["simulated"]
    times["serve.diagnose_ms"] = med_ms(durations(spans, "serve.diagnose"))
    times["diagnosis.decode_ms"] = med_ms(durations(spans, "diagnosis.decode"))
    times["diagnosis.report_ms"] = med_ms(durations(spans, "diagnosis.report"))
    counts["store.fsyncs_per_sim_job"] = sum(r[6] for r in sim) / len(sim) if sim else 0.0
    counts["store.fsyncs_per_cached_job"] = (
        sum(r[6] for r in cached) / len(cached) if cached else 0.0
    )
    counts["robust.checkpoints_per_sim_job"] = (
        len(durations(spans, "robust.checkpoint")) / len(sim) if sim else 0.0
    )
    for name, seconds_total in layer_self_times(spans).items():
        if name in SELF_TIME_LAYERS:
            times[f"{name}.self_s"] = seconds_total / requests

    metrics: Dict[str, tuple] = {name: (0.0, 0.0) for name, _, _ in PER_LAYER}
    for name, value in times.items():
        metrics[name] = (value * factor, value)
    for name, value in list(counts.items()) + list(ratios.items()):
        metrics[name] = (value, value)
    classes = loop_latencies(plain)[0]
    for name, key in (("sim_job", "sim"), ("cached_job", "cached"), ("diagnose", "diagnose")):
        pairs = classes.get(key, [])
        scaled = timing_summary([p[0] for p in pairs], 1000.0)
        host = timing_summary([p[1] for p in pairs], 1000.0)
        if name != "sim_job":
            metrics[f"serve.{name}_p50_ms"] = (scaled["p50"], host["p50"])
        metrics[f"serve.{name}_p90_ms"] = (scaled["p90"], host["p90"])
    overhead = (
        median(p[0] for p in loop_latencies(traced)[0].get("sim", []))
        / median(p[0] for p in classes.get("sim", []))
        - 1.0
    )
    metrics["trace.overhead_ratio"] = (overhead, overhead)
    return {"loops": [plain, traced], "metrics": metrics, "spans": spans, "classes": classes}


# ----------------------------------------------------------------------
# the command
# ----------------------------------------------------------------------


def _fmt(name: str, value: float, unit: str, host: float, count: Optional[int] = None,
         extra: str = "") -> str:
    counted = f" n={count}" if count is not None else ""
    return f"  {name:34s} {value:14.6g} {unit:6s}{counted} [host {host:.6g}]{extra}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from a repository root holding src/repro", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    started = time.perf_counter()
    try:
        paths = bench.inputs()
    except BenchError as exc:
        print(f"error: input generation failed: {exc}", file=sys.stderr)
        return 2
    generation_s = time.perf_counter() - started
    units = []
    for path in paths:
        with open(path) as handle:
            units.append(json.load(handle))
    fingerprint = Bench.fingerprint(args.workload, units)
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {fingerprint}")
    print(f"inputs ready in {generation_s:.2f} s (cached per seed under perfbench/.state)")

    problems: List[str] = []
    pinned_path = os.path.join(HERE, "fingerprints.json")
    if os.path.exists(pinned_path):
        with open(pinned_path) as handle:
            pinned = json.load(handle).get(args.workload, {}).get(str(args.seed))
        if pinned is not None and pinned != fingerprint:
            problems.append(
                f"inputs sha256 {fingerprint} differs from the pinned {pinned}: the "
                "generator or ATPG changed, so this run must not be compared with "
                "runs of the pinned inputs"
            )

    failures: List[str] = []
    try:
        if args.workload == "serve-mixed":
            run = (serve_per_layer if args.trace else serve_end_to_end)(
                bench, paths[0], args.seconds
            )
            loops = run["loops"]
            failures += check_misses(bench, paths[0], loops)
            attempted = sum(loop["attempted"] for loop in loops)
            for loop in loops:
                failures += loop["failures"]
            prefixes = [loop["prefix"] for loop in loops]
            if any(p != prefixes[0] for p in prefixes):
                problems.append("serve-mixed prefix statistics differ between loops")
            observed = {"prefix": prefixes[0]}
        else:
            run = (campaign_per_layer if args.trace else campaign_end_to_end)(
                bench, paths, args.seconds
            )
            trials = run["trials"]
            attempted = sum(len(t["work"]) for t in trials)
            for trial in trials:
                failures += trial["failures"]
            observed, complaint = campaign_work(trials)
            if complaint:
                problems.append(complaint)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    repeat = bench.check_repeat(observed)
    if repeat:
        problems.append(repeat)

    failed = min(len(failures), attempted)
    metrics: Dict[str, dict] = {}
    if args.trace:
        trace_path = os.path.join(
            bench.state, "traces", f"{args.workload}-seed{args.seed}.json"
        )
        write_json(trace_path, run["spans"])
        print(f"{len(run['spans'])} spans written to {os.path.relpath(trace_path, root)}")
        for name, unit, _ in PER_LAYER:
            value, host = run["metrics"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(_fmt(name, value, unit, host))
    else:
        values = dict(run["metrics"])
        success = 1.0 - failed / attempted
        values["success_rate"] = (success, success, attempted)
        for name, unit, _, _ in END_TO_END:
            value, host, count = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(_fmt(name, value, unit, host, count))
        print(_fmt("error_rate", failed / attempted, "ratio", failed / attempted, attempted))
    if args.workload == "serve-mixed":
        for key, label in (("sim", "sim_job"), ("cached", "cached_job"),
                           ("diagnose", "diagnose")):
            pairs = run["classes"].get(key, [])
            scaled = timing_summary([p[0] for p in pairs], 1000.0)
            host = timing_summary([p[1] for p in pairs], 1000.0)
            print(_fmt(f"{label}_p50_ms", scaled["p50"], "ms", host["p50"], scaled["n"]))
            print(_fmt(f"{label}_p90_ms", scaled["p90"], "ms", host["p90"], scaled["n"],
                       f" beyond={scaled['beyond_p90']}"))
    print(f"exact-repeat statistics: {json.dumps(observed, sort_keys=True)}")
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    for message in problems:
        print(f"REFUSED: {message}", file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    if problems:
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
