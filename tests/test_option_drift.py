"""Options that some campaign shapes used to drop or reinterpret.

Each test drives a public entry point — the harness, the parallel
runner, the service — with an option that was once silently lost on one
shape (sharded, served) and checks it is now honoured or refused.
"""

import json

import pytest

from repro.analyze.sanitize import FaultListSanitizer
from repro.circuit.library import load
from repro.concurrent.options import SimOptions
from repro.harness.runner import run_stuck_at, run_transition
from repro.parallel import SequentialExecutor, run_parallel
from repro.patterns.random_gen import random_sequence
from repro.plan import ENGINE_NAMES, RunPlan, execute
from repro.robust import Budget, run_with_ladder
from repro.serve import FaultSimService, ServeConfig, serialize_result
from repro.serve.spec import SpecError


@pytest.fixture(scope="module")
def s298():
    return load("s298")


def _count_checks(monkeypatch):
    calls = {"n": 0}
    real_check = FaultListSanitizer.check

    def counting(self, phase):
        calls["n"] += 1
        return real_check(self, phase)

    monkeypatch.setattr(FaultListSanitizer, "check", counting)
    return calls


class TestDroppedOptionRegressions:
    """The public entry points that used to drop an option on a shape."""

    def test_sharded_vsim_keeps_axis_mode(self, s298):
        tests = random_sequence(s298, 160, seed=1)
        single = run_stuck_at(s298, tests, "vsim", axis_mode="fault")
        sharded = run_stuck_at(s298, tests, "vsim", axis_mode="fault", jobs=2)
        assert set(single.axis_windows) == {"fault"}
        assert set(sharded.axis_windows) == {"fault"}
        assert sharded.detected == single.detected

    def test_sharded_transition_keeps_sanitize(self, s298, monkeypatch):
        tests = random_sequence(s298, 24, seed=2)
        calls = _count_checks(monkeypatch)
        run_parallel(
            s298,
            tests,
            transition=True,
            options=SimOptions(split_lists=True, sanitize=True),
            jobs=2,
            executor=SequentialExecutor(),
        )
        assert calls["n"] > 0


def make_service(tmp_path, name="state"):
    return FaultSimService(ServeConfig(state_dir=str(tmp_path / name), workers=0))


@pytest.fixture
def sequential_shards(monkeypatch):
    """Sharded plans run in-process; records the job counts asked for."""
    import repro.parallel.runner as parallel_runner

    asked = []

    def factory(jobs):
        asked.append(jobs)
        return SequentialExecutor()

    monkeypatch.setattr(parallel_runner, "MultiprocessExecutor", factory)
    return asked


class TestServedSpecs:
    def test_serial_engine_honours_jobs(self, tmp_path, sequential_shards):
        service = make_service(tmp_path)
        job = {"circuit": "s27", "engine": "serial", "random_patterns": 16, "seed": 4}
        sharded, _ = service.submit(dict(job, jobs=2))
        assert service.drain() == 1
        assert sequential_shards == [2]
        fresh = make_service(tmp_path, "fresh")
        single, _ = fresh.submit(job)
        assert fresh.drain() == 1
        assert service.result_bytes(sharded.job_id) == fresh.result_bytes(
            single.job_id
        )

    def test_transition_refuses_proofs(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(SpecError, match="transition"):
            service.submit({"circuit": "s27", "engine": "PROOFS", "transition": True})
        assert service.store.all_records() == []

    def test_default_transition_keeps_csim_tv_bytes(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(
            {"circuit": "s27", "transition": True, "random_patterns": 20, "seed": 3}
        )
        assert service.drain() == 1
        circuit = load("s27")
        direct = run_transition(circuit, random_sequence(circuit, 20, seed=3))
        blob = service.result_bytes(record.job_id)
        assert json.loads(blob)["engine"] == "csim-TV"
        assert blob == serialize_result(direct, circuit)

    def test_serial_transition_runs_the_serial_oracle(self, tmp_path):
        service = make_service(tmp_path)
        job = {"circuit": "s27", "transition": True, "random_patterns": 20, "seed": 3}
        serial, _ = service.submit(dict(job, engine="serial"))
        concurrent, _ = service.submit(dict(job))
        assert service.drain() == 2
        assert not service.status(concurrent.job_id).cache_hit
        serial_doc = json.loads(service.result_bytes(serial.job_id))
        concurrent_doc = json.loads(service.result_bytes(concurrent.job_id))
        assert serial_doc["engine"] == "serial-transition"
        assert serial_doc["detected"] == concurrent_doc["detected"]


# ----------------------------------------------------------------------
# A cycle budget means the same cut on every engine and every shape
# ----------------------------------------------------------------------

BUDGET_SHAPES = {
    "in-process": dict(),
    "sharded": dict(jobs=2),
    "checkpointed": dict(checkpoint=True),
}


def _budgeted(s298, tmp_path, shape, **plan_kwargs):
    """One s298 run of 64 random vectors under a 7-cycle budget."""
    tests = random_sequence(s298, 64, seed=3)
    kwargs = dict(plan_kwargs, jobs=BUDGET_SHAPES[shape].get("jobs", 1))
    if BUDGET_SHAPES[shape].get("checkpoint"):
        tmp_path.mkdir(parents=True, exist_ok=True)
        kwargs["checkpoint_path"] = str(tmp_path / "ck.pkl")
    plan = RunPlan(s298, tests, budget=Budget(max_cycles=7), **kwargs)
    return execute(plan, executor=SequentialExecutor())


def _outcome(result):
    return (
        result.detected,
        result.potentially_detected,
        result.num_vectors,
        result.truncation_reason,
    )


class TestCycleBudgetHonoured:
    @pytest.mark.parametrize("shape", BUDGET_SHAPES)
    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_stuck_at_matches_csim_mv(self, s298, engine, shape, tmp_path):
        if engine == "serial" and shape == "checkpointed":
            with pytest.raises(ValueError, match="serial"):
                _budgeted(s298, tmp_path, shape, engine=engine)
            return
        reference = _budgeted(s298, tmp_path / "ref", shape, engine="csim-MV")
        assert reference.truncated and reference.num_vectors == 7
        result = _budgeted(s298, tmp_path, shape, engine=engine)
        assert _outcome(result) == _outcome(reference)

    @pytest.mark.parametrize("shape", ["in-process", "sharded"])
    def test_serial_transition_matches_csim_tv(self, s298, shape, tmp_path):
        reference = _budgeted(s298, tmp_path, shape, transition=True)
        result = _budgeted(s298, tmp_path, shape, transition=True, engine="serial")
        assert reference.truncated and reference.num_vectors == 7
        assert _outcome(result) == _outcome(reference)

    def test_ladder_serial_rung(self, s298):
        tests = random_sequence(s298, 64, seed=3)
        budget = Budget(max_cycles=7)
        reference = run_stuck_at(s298, tests, budget=budget)
        result = run_with_ladder(s298, tests, ("serial",), budget=budget)
        assert _outcome(result) == _outcome(reference)

    def test_serial_memory_budget_against_its_model(self, s298):
        tests = random_sequence(s298, 8, seed=3)
        result = run_stuck_at(
            s298, tests, "serial", budget=Budget(max_memory_bytes=1)
        )
        assert result.truncated and "memory" in result.truncation_reason
        assert result.detected == {}

    def test_served_serial_job_truncates(self, tmp_path):
        service = make_service(tmp_path)
        record, _ = service.submit(
            {"circuit": "s27", "engine": "serial", "random_patterns": 40,
             "seed": 1, "max_cycles": 5}
        )
        assert service.drain() == 1
        document = json.loads(service.result_bytes(record.job_id))
        assert document["truncated"] and document["num_vectors"] == 5
        assert document["truncation_reason"] == "cycle budget exceeded (5 >= 5)"
