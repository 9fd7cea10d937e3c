"""What the repo benchmark measures: workloads, metrics and predictions.

``BENCHMARK.json`` at the repository root is this catalogue in the
benchmark contract's format (``python3 perfbench/catalog.py`` prints it;
a unit test keeps the two equal).  The contract's format has no room for
the per-layer predictions, so they live here in :data:`PREDICTIONS`.

Every metric is reported on every workload, so the end-to-end names are
workload-neutral: ``op_p50_ms`` is a campaign's time on the campaign
workloads and a simulate-miss job's latency on serve-mixed, and
``ops_per_s`` is campaigns or requests per second.  The serve-only read
paths (cache hits, diagnose queries) and the sim-job p90 are per-layer
``serve.*`` metrics.  A per-layer metric of a layer the workload never
calls reads 0: that is the "flat" prediction made concrete.  Per-layer
times are seconds per workload operation: per trial (one set-up plus one
campaign over the workload's circuits) on the campaign workloads, per
request on serve-mixed.
"""

from __future__ import annotations

import json

#: (name, why).  Each workload sits on one side of a property the
#: engines or the service branch on, so an optimisation of that property
#: is exercised by one workload and bypassed by another.
WORKLOADS = (
    # Table 3 shape: csim-MV on ATPG sequences for s641 and s820.  Coverage
    # is ~76%, so fault dropping, visible lists and macro tables all work,
    # and engine construction is about half of each trial.
    ("csim-det", "csim-MV stuck-at campaigns on s641/s820 ATPG sequences: "
                 "high coverage, dropping and macro tables busy, set-up ~half the cost"),
    # Table 6 shape: the transition engine is a csim subclass with two
    # passes per vector, so a csim change that helps stuck-at faults but
    # hurts transition faults shows here.
    ("transition-det", "csim-V transition campaigns on the same circuits and sequences: "
                       "the csim code used with two passes per vector"),
    # Table 5 shape: vsim on full-scale s1494 with 128 random vectors;
    # coverage ~10%, so almost nothing drops and the pattern axis wins in
    # every window; the concurrent layer does nothing.
    ("vsim-random", "vsim on s1494 with 128 random vectors: ~10% coverage, little dropping, "
                    "pattern-axis windows, no concurrent-engine work"),
    # The service under one closed-loop client (test-flow scripts wait for
    # each reply): simulate-misses on six circuit sources against a
    # 4-entry resolver LRU, resubmissions that hit the result cache, and
    # diagnose queries against a warm dictionary per source.
    ("serve-mixed", "in-process service, one closed-loop client: ~50% simulate-misses "
                    "over 6 circuits, ~30% cache hits, ~20% warm diagnose queries"),
)

#: (name, unit, better, bound).  Times are host seconds calibrated for
#: the host's drifting speed (see calibrate.py).  The time bounds are the
#: widest allowed because the host is noisy: over ten seeds the quartile
#: spreads of op_p50_ms and ops_per_s reached 0.17 on vsim-random (numpy
#: work, which the interpreter-bound calibration kernel tracks least well,
#: and seed-dependent: fault evaluations vary by a spread of 0.18) and
#: 0.12 on the other workloads, while the medians of two such sets agreed
#: within 5%.
END_TO_END = (
    # Netlist text to a ready simulator (parse, universe, construction),
    # cold in a fresh process, summed over the workload's circuits; on
    # serve-mixed, service construction plus the warm dictionaries built
    # through it.  Median over the run's trials (serve-mixed: five cold
    # set-ups).  No bound is larger: set-up is the noisiest figure.
    ("setup_s", "s", "lower", 0.25),
    # Median latency of the workload's simulating operation: one campaign
    # over all the workload's circuits, or one simulate-miss job from
    # submit to result bytes.
    ("op_p50_ms", "ms", "lower", 0.25),
    # Closed-loop completions per second: campaigns with their set-up (one
    # over the median trial), or requests of the whole mix per second of
    # service busy time.
    ("ops_per_s", "1/s", "higher", 0.25),
    # Peak resident memory of the process that ran the timed operations.
    ("peak_rss_mb", "MB", "lower", 0.15),
    # 1 - error_rate: failed operations (raised, truncated, wrong answer)
    # over attempted ones.  Reported as a success rate because a metric
    # must never read 0.
    ("success_rate", "ratio", "higher", 0.01),
)

#: (name, unit, better).
PER_LAYER = (
    ("circuit.parse_s", "s", "lower"),
    ("faults.universe_s", "s", "lower"),
    ("faults.universe_size", "count", "lower"),
    ("concurrent.construct_s", "s", "lower"),
    ("concurrent.run_s", "s", "lower"),
    ("concurrent.element_visits", "count", "lower"),
    ("concurrent.fault_evaluations", "count", "lower"),
    ("concurrent.good_evaluations", "count", "lower"),
    ("concurrent.events", "count", "lower"),
    ("concurrent.peak_elements", "count", "lower"),
    ("concurrent.ns_per_visit", "ns", "lower"),
    ("transition.construct_s", "s", "lower"),
    ("transition.run_s", "s", "lower"),
    ("transition.element_visits", "count", "lower"),
    ("transition.fault_evaluations", "count", "lower"),
    ("transition.peak_elements", "count", "lower"),
    ("vector.construct_s", "s", "lower"),
    ("vector.run_s", "s", "lower"),
    ("vector.fault_evaluations", "count", "lower"),
    ("vector.good_evaluations", "count", "lower"),
    ("vector.axis_windows.pattern", "count", "lower"),
    ("vector.axis_windows.fault", "count", "lower"),
    ("sim.good_machine_s", "s", "lower"),
    ("serve.submit_ms.sim", "ms", "lower"),
    ("serve.submit_ms.cached", "ms", "lower"),
    ("serve.process_ms", "ms", "lower"),
    ("serve.result_read_ms", "ms", "lower"),
    ("serve.phase.setup_ms", "ms", "lower"),
    ("serve.phase.simulate_ms", "ms", "lower"),
    ("serve.phase.serialize_ms", "ms", "lower"),
    ("serve.phase.queue_wait_ms", "ms", "lower"),
    ("serve.overhead_ratio", "ratio", "lower"),
    ("serve.element_visits", "count", "lower"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    ("serve.batch_mean_size", "count", "higher"),
    ("serve.jobs_simulated", "count", "lower"),
    ("serve.sim_job_p90_ms", "ms", "lower"),
    ("serve.cached_job_p50_ms", "ms", "lower"),
    ("serve.cached_job_p90_ms", "ms", "lower"),
    ("serve.diagnose_p50_ms", "ms", "lower"),
    ("serve.diagnose_p90_ms", "ms", "lower"),
    ("serve.diagnose_ms", "ms", "lower"),
    ("store.fsyncs_per_sim_job", "count", "lower"),
    ("store.fsyncs_per_cached_job", "count", "lower"),
    ("robust.checkpoints_per_sim_job", "count", "lower"),
    ("diagnosis.decode_ms", "ms", "lower"),
    ("diagnosis.report_ms", "ms", "lower"),
    ("circuit.self_s", "s", "lower"),
    ("faults.self_s", "s", "lower"),
    ("concurrent.self_s", "s", "lower"),
    ("transition.self_s", "s", "lower"),
    ("vector.self_s", "s", "lower"),
    ("sim.self_s", "s", "lower"),
    ("serve.self_s", "s", "lower"),
    ("store.self_s", "s", "lower"),
    ("robust.self_s", "s", "lower"),
    ("diagnosis.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "circuit", "faults", "concurrent", "transition", "vector",
    "sim", "serve", "store", "robust", "diagnosis",
)

#: Per-layer metric prefix -> (end-to-end metrics it should move,
#: workloads it should move them on, workloads where it should stay flat).
#: ``serve.cache_hit_rate``, ``serve.batch_mean_size`` and
#: ``serve.jobs_simulated`` move nothing: they must repeat exactly, or the
#: traffic changed.
PREDICTIONS = {
    "circuit.": (("setup_s",), ("all",), ()),
    "faults.": (("setup_s",), ("csim-det", "transition-det", "vsim-random"), ()),
    "concurrent.construct_s": (
        ("setup_s", "op_p50_ms"), ("csim-det", "serve-mixed"), ("vsim-random",)
    ),
    "concurrent.": (("op_p50_ms", "peak_rss_mb"), ("csim-det",), ("vsim-random",)),
    "transition.": (("setup_s", "op_p50_ms"), ("transition-det",), ("vsim-random",)),
    "vector.": (
        ("setup_s", "op_p50_ms"), ("vsim-random",), ("csim-det", "transition-det")
    ),
    "sim.": (("op_p50_ms",), ("vsim-random",), ()),
    "serve.": (("op_p50_ms", "ops_per_s"), ("serve-mixed",), ("campaign workloads",)),
    "store.": (("op_p50_ms",), ("serve-mixed",), ()),
    "robust.": (("op_p50_ms",), ("serve-mixed",), ()),
    "diagnosis.": (("ops_per_s",), ("serve-mixed",), ("everything else",)),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
