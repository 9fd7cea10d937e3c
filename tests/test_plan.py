"""One run plan, one executor: every accepted option is honoured or refused.

The same knob must mean the same thing whatever shape the campaign takes
— in-process, sharded, checkpointed, or both — and the CLI and the
service must lower equivalent requests to the same :class:`RunPlan`.
"""

import dataclasses

import pytest

from repro.analyze.collapse import collapse_universe
from repro.analyze.sanitize import FaultListSanitizer
from repro.circuit.library import load
from repro.cli import main
from repro.concurrent.options import SimOptions
from repro.faults.universe import all_stuck_at_faults
from repro.parallel import SequentialExecutor
from repro.parallel.runner import shard_checkpoint_path
from repro.parallel.sharding import DEFAULT_OVERSHARD, shard_faults
from repro.patterns.random_gen import random_sequence
from repro.plan import RunPlan, execute
from repro.robust.checkpoint import circuit_fingerprint, read_checkpoint
from repro.robust.runner import run_fingerprint
from repro.serve import FaultSimService, ServeConfig

SHAPES = {
    "in-process": dict(),
    "sharded": dict(jobs=2),
    "checkpointed": dict(checkpoint=True),
    "sharded+checkpointed": dict(jobs=2, checkpoint=True),
}


@pytest.fixture(scope="module")
def s298():
    return load("s298")


def _shaped(plan_kwargs, shape, tmp_path):
    kwargs = dict(plan_kwargs, jobs=shape.get("jobs", 1))
    if shape.get("checkpoint"):
        kwargs["checkpoint_path"] = str(tmp_path / "ck.pkl")
    return kwargs


def _run(plan_kwargs, shape, tmp_path):
    plan = RunPlan(**_shaped(plan_kwargs, shape, tmp_path))
    return execute(plan, executor=SequentialExecutor())


def _count_checks(monkeypatch):
    calls = {"n": 0}
    real_check = FaultListSanitizer.check

    def counting(self, phase):
        calls["n"] += 1
        return real_check(self, phase)

    monkeypatch.setattr(FaultListSanitizer, "check", counting)
    return calls


class TestOptionHonouredOnEveryShape:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_axis_mode(self, s298, shape, tmp_path):
        tests = random_sequence(s298, 160, seed=1)
        kwargs = dict(circuit=s298, tests=tests, engine="vsim", axis_mode="fault")
        if SHAPES[shape].get("checkpoint"):
            # Checkpointed vsim steps one cycle at a time: refused, not dropped.
            with pytest.raises(ValueError, match="axis_mode"):
                RunPlan(**_shaped(kwargs, SHAPES[shape], tmp_path))
            return
        result = _run(kwargs, SHAPES[shape], tmp_path)
        assert set(result.axis_windows) == {"fault"}

    @pytest.mark.parametrize("transition", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_sanitize(self, s298, shape, transition, tmp_path, monkeypatch):
        tests = random_sequence(s298, 24, seed=2)
        options = SimOptions(split_lists=True, use_macros=not transition, sanitize=True)
        kwargs = dict(circuit=s298, tests=tests, transition=transition, options=options)
        calls = _count_checks(monkeypatch)
        _run(kwargs, SHAPES["in-process"], tmp_path / "ref")
        per_engine = calls["n"]
        assert per_engine > 0
        calls["n"] = 0
        result = _run(kwargs, SHAPES[shape], tmp_path)
        # Every shard's engine runs the whole sequence with the sanitizer on.
        engines = SHAPES[shape].get("jobs", 1)
        assert calls["n"] == engines * per_engine
        assert result.num_detected > 0


class TestPlanRefusals:
    def test_transition_refuses_word_engines(self, s298):
        tests = random_sequence(s298, 4, seed=1)
        for engine in ("PROOFS", "vsim"):
            with pytest.raises(ValueError, match="transition"):
                RunPlan(s298, tests, engine=engine, transition=True)

    def test_serial_cannot_checkpoint(self, s298, tmp_path):
        tests = random_sequence(s298, 4, seed=1)
        with pytest.raises(ValueError, match="serial"):
            RunPlan(s298, tests, engine="serial", checkpoint_path=str(tmp_path / "c"))

    def test_options_need_a_concurrent_engine(self, s298):
        tests = random_sequence(s298, 4, seed=1)
        with pytest.raises(ValueError, match="concurrent"):
            RunPlan(s298, tests, engine="PROOFS", options=SimOptions())

    def test_axis_mode_needs_vsim(self, s298):
        tests = random_sequence(s298, 4, seed=1)
        with pytest.raises(ValueError, match="vsim"):
            RunPlan(s298, tests, engine="csim-MV", axis_mode="fault")

    def test_plan_is_picklable_and_canonical(self, s298):
        import pickle

        tests = random_sequence(s298, 4, seed=1)
        plan = RunPlan(s298, tests)
        assert plan.options == SimOptions(split_lists=True, use_macros=True)
        assert isinstance(plan.faults, tuple) and plan.faults
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults == plan.faults and clone.options == plan.options


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


# ----------------------------------------------------------------------
# CLI flags and served specs lower to the same plan
# ----------------------------------------------------------------------

#: Fields that describe where and how long a run happens, not what it is.
DEPLOYMENT_ONLY = {
    "circuit",
    "checkpoint_path",
    "resume",
    "checkpoint_every",
    "trace_dir",
    "trace_ctx",
    "budget",
}

#: (CLI argv, equivalent served spec).
LOWERING_CASES = [
    (["simulate", "s27"], {}),
    (["simulate", "s27", "--engine", "PROOFS", "--word-width", "16"],
     {"engine": "PROOFS", "word_width": 16}),
    (["simulate", "s27", "--engine", "vsim", "--jobs", "2"],
     {"engine": "vsim", "jobs": 2}),
    (["simulate", "s27", "--engine", "csim-V", "--sanitize", "--max-cycles", "9"],
     {"engine": "csim-V", "sanitize": True, "max_cycles": 9}),
    (["simulate", "s27", "--collapse", "--jobs", "2",
      "--shard-strategy", "level-balanced"],
     {"collapse": "equivalence", "jobs": 2, "shard_strategy": "level-balanced"}),
    (["simulate", "s27", "--engine", "serial", "--jobs", "2"],
     {"engine": "serial", "jobs": 2}),
    (["transition", "s27"], {"transition": True}),
    (["transition", "s27", "--sanitize", "--collapse", "--jobs", "2"],
     {"transition": True, "sanitize": True, "collapse": "equivalence", "jobs": 2}),
    (["build-dictionary", "s27", "--engine", "csim"],
     {"engine": "csim", "dictionary": "full", "collapse": "equivalence"}),
    (["build-dictionary", "s27", "--kind", "passfail", "--jobs", "2"],
     {"dictionary": "passfail", "collapse": "equivalence", "jobs": 2}),
    (["simulate", "s27", "--prune-untestable"], {"prune_untestable": True}),
    (["simulate", "s27", "--collapse", "dominance", "--jobs", "2"],
     {"collapse": "dominance", "jobs": 2}),
    (["transition", "s27", "--prune-untestable", "--collapse"],
     {"transition": True, "prune_untestable": True, "collapse": "equivalence"}),
]


def _captured_plans(monkeypatch, module):
    plans = []
    real = module.execute

    def capture(plan, *args, **kwargs):
        plans.append(plan)
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(module, "execute", capture)
    return plans


def _identity(plan):
    fields = {
        field.name: getattr(plan, field.name)
        for field in dataclasses.fields(plan)
        if field.name not in DEPLOYMENT_ONLY
    }
    fields["circuit"] = circuit_fingerprint(plan.circuit)
    return fields


@pytest.mark.parametrize("argv,spec", LOWERING_CASES)
def test_cli_and_serve_lower_to_the_same_plan(
    argv, spec, tmp_path, monkeypatch, sequential_shards
):
    import repro.cli
    import repro.diagnosis.dictionary
    import repro.serve.service

    workload = ["--random-patterns", "24", "--seed", "5"]
    if argv[0] == "build-dictionary":
        workload += ["-o", str(tmp_path / "dict.json")]
        cli_plans = _captured_plans(monkeypatch, repro.diagnosis.dictionary)
    else:
        cli_plans = _captured_plans(monkeypatch, repro.cli)
    assert main(argv + workload) == 0
    served_plans = _captured_plans(monkeypatch, repro.serve.service)
    service = make_service(tmp_path)
    record, _ = service.submit(
        dict(spec, circuit="s27", random_patterns=24, seed=5)
    )
    assert service.drain() == 1
    assert service.status(record.job_id).state == "done"
    assert len(cli_plans) == len(served_plans) == 1
    assert _identity(cli_plans[0]) == _identity(served_plans[0])


# ----------------------------------------------------------------------
# The collapse map's fingerprint material, exactly once per checkpoint
# ----------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_collapsed_checkpoint_fingerprint(jobs, tmp_path, sequential_shards):
    path = str(tmp_path / "ck.pkl")
    argv = ["simulate", "s27", "--random-patterns", "24", "--seed", "5",
            "--collapse", "--checkpoint", path, "--max-cycles", "5",
            "--jobs", str(jobs)]
    assert main(argv) == 0
    circuit = load("s27")
    tests = random_sequence(circuit, 24, seed=5)
    collapsed = collapse_universe(circuit, all_stuck_at_faults(circuit))
    material = collapsed.fingerprint_material()
    reps = collapsed.representatives
    if jobs == 1:
        expected = {path: run_fingerprint(circuit, tests, "csim-MV", reps, False, material)}
    else:
        shards = shard_faults(circuit, sorted(reps), jobs, "round-robin", DEFAULT_OVERSHARD)
        expected = {
            shard_checkpoint_path(path, index, len(shards)): run_fingerprint(
                circuit, tests, "csim-MV", shard, False,
                (*material, "shard", "round-robin", index, len(shards)),
            )
            for index, shard in enumerate(shards)
        }
    assert {p: read_checkpoint(p).fingerprint for p in expected} == expected
