"""Counter/telemetry reconciliation across every engine and process count.

The observability plane's core invariant: the work an engine *reports*
(:class:`repro.result.WorkCounters`) and the work a tracer *observes*
(:class:`repro.obs.tracer.RecordingTracer`) are the same numbers — every
counter field has a mirroring hook, the hooks fire exactly as often as
the counters increment, and merging per-shard telemetry across a process
pool preserves the equality.
"""

import dataclasses

import pytest

from repro.harness.runner import run_stuck_at, run_transition, workload_tests
from repro.obs.tracer import RecordingTracer, Tracer
from repro.parallel import run_parallel
from repro.patterns.random_gen import random_sequence
from repro.result import WorkCounters
from repro.robust import Budget, run_checkpointed

#: WorkCounters field -> the Tracer hook that mirrors it.  A new counter
#: field must be added here (and given a hook) or the test fails.
FIELD_HOOKS = {
    "cycles": "cycle_start",
    "good_evaluations": "good_evals",
    "fault_evaluations": "fault_evals",
    "element_visits": "element_visits",
    "events": "event",
    "gates_scheduled": "scheduled",
}

#: Every stuck-at engine, including the serial oracle.
STUCK_AT_ENGINES = (
    "serial", "csim", "csim-V", "csim-M", "csim-MV", "PROOFS", "vsim"
)


class TestHookMirror:
    @pytest.mark.parametrize(
        "field", [field.name for field in dataclasses.fields(WorkCounters)]
    )
    def test_every_counter_field_has_a_hook(self, field):
        assert field in FIELD_HOOKS, (
            f"WorkCounters.{field} has no mirroring tracer hook; "
            "extend the Tracer protocol and FIELD_HOOKS together"
        )
        assert callable(getattr(Tracer, FIELD_HOOKS[field]))

    def test_mapping_has_no_stale_fields(self):
        assert set(FIELD_HOOKS) == {
            field.name for field in dataclasses.fields(WorkCounters)
        }


def _assert_reconciled(tracer, result):
    assert tracer.totals == result.counters, (
        f"observed {tracer.totals} != reported {result.counters}"
    )
    assert result.telemetry is not None
    assert result.telemetry.totals == result.counters


class TestSingleProcess:
    @pytest.mark.parametrize("engine", STUCK_AT_ENGINES)
    def test_totals_equal_counters(self, s27, s27_tests, engine):
        tracer = RecordingTracer()
        result = run_stuck_at(s27, s27_tests, engine, tracer=tracer)
        assert result.counters.cycles > 0
        _assert_reconciled(tracer, result)

    def test_transition_engine(self, s27):
        tests = random_sequence(s27, 30, seed=5)
        tracer = RecordingTracer()
        result = run_transition(s27, tests, tracer=tracer)
        assert result.counters.cycles > 0
        _assert_reconciled(tracer, result)


class TestResumedRun:
    """A run resumed from a checkpoint reconciles over the whole run."""

    @pytest.mark.parametrize("engine", ["csim-MV", "PROOFS", "vsim", "transition"])
    def test_totals_equal_counters_after_resume(self, tmp_path, s27, engine):
        tests = workload_tests("s27")
        transition = engine == "transition"
        kwargs = dict(
            engine="csim-MV" if transition else engine,
            transition=transition,
            checkpoint_path=str(tmp_path / "run.ck"),
        )
        partial = run_checkpointed(
            s27, tests, budget=Budget(max_cycles=5), checkpoint_every=2, **kwargs
        )
        assert partial.truncated
        tracer = RecordingTracer()
        result = run_checkpointed(s27, tests, tracer=tracer, resume=True, **kwargs)
        assert result.counters.cycles == len(tests.vectors)
        _assert_reconciled(tracer, result)
        # Per-cycle rows cover only the cycles this process simulated.
        assert len(result.telemetry.cycles) == len(tests.vectors) - 5


class TestMergedAcrossShards:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_merged_telemetry_equals_merged_counters(self, s27, jobs):
        tests = random_sequence(s27, 24, seed=8)
        result = run_parallel(s27, tests, "csim-MV", jobs=jobs, telemetry=True)
        assert result.telemetry is not None
        assert result.telemetry.totals == result.counters
        assert result.counters.fault_evaluations > 0

    def test_merged_transition_telemetry(self, s27):
        tests = random_sequence(s27, 20, seed=9)
        result = run_parallel(
            s27, tests, "csim-MV", transition=True, jobs=2, telemetry=True
        )
        assert result.telemetry is not None
        assert result.telemetry.totals == result.counters


class TestCliComposition:
    """--profile composes with --jobs N (the old hard rejection is gone)."""

    def test_profile_with_jobs(self, capsys):
        from repro.cli import main

        argv = [
            "simulate", "s27", "--random-patterns", "16", "--seed", "2",
            "--jobs", "2", "--profile",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
