"""Unit tests for span recording and self-time derivation."""

import itertools

import pytest

from spantree import SpanRecorder, durations, layer_of, layer_self_times, self_times


def _span(op, span_id, parent, name, start, end):
    return {"op": op, "id": span_id, "parent": parent, "name": name,
            "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [
        _span("r", 0, None, "serve.process", 0.0, 10.0),
        _span("r", 1, 0, "concurrent.construct", 1.0, 4.0),
        _span("r", 2, 0, "concurrent.step", 5.0, 6.0),
        _span("r", 3, 2, "robust.checkpoint", 5.5, 5.75),
    ]
    times = self_times(spans)
    assert times["serve.process"] == pytest.approx(6.0)
    assert times["concurrent.construct"] == pytest.approx(3.0)
    assert times["concurrent.step"] == pytest.approx(0.75)
    assert times["robust.checkpoint"] == pytest.approx(0.25)
    layers = layer_self_times(spans)
    assert layers == pytest.approx(
        {"serve": 6.0, "concurrent": 3.75, "robust": 0.25}
    )
    # Self times partition the root span's wall time.
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        _span("r", 0, None, "serve.submit", 0.0, 4.0),
        _span("r", 1, 0, "store.save", -1.0, 1.0),
        _span("r", 2, 0, "store.save", 0.5, 2.0),
        _span("r", 3, 0, "store.save", 3.5, 5.0),
    ]
    assert self_times(spans)["serve.submit"] == pytest.approx(1.5)


def test_children_of_other_operations_do_not_count():
    spans = [
        _span("a", 0, None, "serve.process", 0.0, 2.0),
        _span("b", 1, 0, "concurrent.step", 0.0, 2.0),
    ]
    assert self_times(spans)["serve.process"] == pytest.approx(2.0)


def test_recorder_nests_and_tags_operations():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.begin_op("trial-0")
    with recorder.span("bench.setup"):
        with recorder.span("circuit.parse"):
            pass
    by_name = {span["name"]: span for span in recorder.spans}
    assert by_name["circuit.parse"]["parent"] == by_name["bench.setup"]["id"]
    assert by_name["bench.setup"]["parent"] is None
    assert {span["op"] for span in recorder.spans} == {"trial-0"}
    assert durations(recorder.spans, "bench.setup") == [3.0]
    assert layer_of("vector.axis_windows.pattern") == "vector"


def test_wrap_spans_calls_and_unwrap_restores():
    class Service:
        def work(self, value):
            return value * 2

    recorder = SpanRecorder()
    original = Service.work
    recorder.wrap(Service, "work", "serve.work")
    assert Service().work(21) == 42
    assert [span["name"] for span in recorder.spans] == ["serve.work"]
    recorder.unwrap()
    assert Service.work is original


def test_inactive_recorder_records_nothing():
    recorder = SpanRecorder()
    recorder.active = False
    with recorder.span("circuit.parse"):
        pass
    assert recorder.spans == []
