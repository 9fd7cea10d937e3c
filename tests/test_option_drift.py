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
