"""Span recording and self-time arithmetic."""

import json

import pytest

from perfbench.spans import Span, Tracer, self_times


def _span(span_id, start, end, parent=None, name="s"):
    return Span(span_id, name, start, end, parent, None, 0)


def test_self_time_subtracts_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 6.0, 7.0, parent=1),
        _span(4, 1.5, 2.5, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_overlapping_children_count_once_and_are_clipped():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 2.0, 5.0, parent=1),
        _span(3, 4.0, 6.0, parent=1),  # overlaps span 2 on [4, 5]
        _span(4, 9.0, 12.0, parent=1),  # runs past its parent
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_times_sum_to_root_duration():
    spans = [
        _span(1, 0.0, 8.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),
        _span(4, 5.0, 7.5, parent=1),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Model:
    def outer(self, n):
        return self.inner(n) + [n]

    def inner(self, n):
        return list(range(n))

    def again(self, n):
        return self.again(n - 1) if n else "done"

    @classmethod
    def build(cls, value):
        return (cls.__name__, value)


def test_wrapped_calls_nest_and_share_the_operation_id():
    tracer = Tracer(clock=_Clock())
    tracer.wrap_method(_Model, "outer", "layer.outer")
    tracer.wrap_method(
        _Model, "inner", "layer.inner", counter=lambda a, k, r: {"rows": len(r)}
    )
    try:
        with tracer.operation("op", "op-7"):
            _Model().outer(3)
    finally:
        tracer.uninstall()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["layer.inner"].parent == by_name["layer.outer"].span_id
    assert by_name["layer.outer"].parent == by_name["op"].span_id
    assert {span.op_id for span in tracer.spans} == {"op-7"}
    assert tracer.counters["rows"] == 3
    calls, _ = tracer.by_name()["layer.inner"]
    assert calls == 1


def test_recursion_into_the_same_name_records_one_span():
    tracer = Tracer()
    tracer.wrap_method(_Model, "again", "layer.again")
    try:
        assert _Model().again(4) == "done"
    finally:
        tracer.uninstall()
    assert [span.name for span in tracer.spans] == ["layer.again"]


def test_root_spans_start_their_own_operations():
    tracer = Tracer()
    tracer.wrap_method(_Model, "inner", "layer.inner")
    try:
        _Model().inner(1)
        _Model().inner(2)
    finally:
        tracer.uninstall()
    assert len({span.op_id for span in tracer.spans}) == 2


def test_uninstall_restores_originals_and_classmethods_still_bind():
    originals = dict(_Model.__dict__)
    tracer = Tracer()
    tracer.wrap_method(_Model, "build", "layer.build")
    tracer.wrap_method(_Model, "inner", "layer.inner")
    assert _Model.build(5) == ("_Model", 5)
    tracer.uninstall()
    for attr in ("build", "inner"):
        assert _Model.__dict__[attr] is originals[attr]


def test_wrap_function_patches_every_importer():
    import repro.cli
    import repro.io

    original = repro.io.load_model
    tracer = Tracer()
    tracer.wrap_function("repro.io", "load_model", "io.load_model")
    try:
        assert repro.io.load_model is not original
        assert repro.cli.load_model is repro.io.load_model
    finally:
        tracer.uninstall()
    assert repro.io.load_model is original
    assert repro.cli.load_model is original


def test_uninstall_also_restores_bindings_made_while_installed():
    import sys
    import types

    import repro.io

    original = repro.io.load_model
    tracer = Tracer()
    tracer.wrap_function("repro.io", "load_model", "io.load_model")
    late = types.ModuleType("repro._late_importer")
    late.load_model = repro.io.load_model  # ``from repro.io import load_model``
    sys.modules[late.__name__] = late
    try:
        tracer.uninstall()
        assert late.load_model is original
    finally:
        del sys.modules[late.__name__]


def test_chrome_trace_is_complete_events(tmp_path):
    tracer = Tracer(clock=_Clock())
    with tracer.operation("op", "op-1"):
        pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert event["ph"] == "X"
    assert event["name"] == "op"
    assert event["dur"] == pytest.approx(1e6)
    assert event["args"]["op_id"] == "op-1"
