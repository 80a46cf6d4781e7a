"""Span self-time arithmetic and tracer install/uninstall."""

import types

import pytest

from spans import (
    Span,
    Tracer,
    layer_self_time,
    self_times,
    top_level_cover,
    totals_by_name,
)


def test_nested_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, -1),
        Span("middle", 1.0, 7.0, 0),
        Span("inner", 2.0, 5.0, 1),
    ]
    assert self_times(spans) == [4.0, 3.0, 3.0]


def test_sibling_children_both_subtract_from_parent():
    spans = [
        Span("parent", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 8.0, 0),
        Span("after", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [4.0, 2.0, 4.0, 1.0]


def test_totals_do_not_double_count_same_name_nesting():
    spans = [
        Span("f", 0.0, 10.0, -1),
        Span("g", 1.0, 9.0, 0),
        Span("f", 2.0, 4.0, 1),
        Span("f", 20.0, 21.0, -1),
    ]
    totals = totals_by_name(spans)
    assert totals["f"].calls == 3
    assert totals["f"].busy == pytest.approx(11.0)
    assert totals["g"].busy == pytest.approx(8.0)


def test_top_level_cover_clips_to_window():
    spans = [
        Span("setup", -5.0, 1.0, -1),
        Span("work", 2.0, 6.0, -1),
        Span("child", 3.0, 4.0, 1),
        Span("tail", 9.0, 12.0, -1),
    ]
    assert top_level_cover(spans, 0.0, 10.0) == pytest.approx(1.0 + 4.0 + 1.0)


def test_layer_self_time_sums_prefixes_inside_window():
    spans = [
        Span("service.stream.x", 0.0, 10.0, -1),
        Span("email_provider.attempt_logins", 1.0, 4.0, 0),
        Span("email_provider.evict_expired", 5.0, 6.0, 0),
        Span("email_provider.register", -3.0, -1.0, -1),
    ]
    assert layer_self_time(spans, ("email_provider.",), 0.0, 10.0) == pytest.approx(4.0)
    assert layer_self_time(spans, ("service.",), 0.0, 10.0) == pytest.approx(6.0)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    def boom(self):
        raise RuntimeError("boom")


def test_wrap_records_parented_spans_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace(helper=lambda value: _Target().method(value))
    tracer.wrap(_Target, "method", "target.method",
                lambda counts, result, *args: counts.__setitem__("n", result))
    tracer.wrap(module, "helper", "module.helper")
    try:
        assert module.helper(4) == 5
        assert _Target.build(3) == (_Target, 3)
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("module.helper", -1), ("target.method", 0)]
    assert tracer.counts["n"] == 5


def test_wrap_classmethod_keeps_binding():
    tracer = Tracer()
    tracer.wrap(_Target, "build", "target.build")
    try:
        assert _Target.build(1) == (_Target, 1)
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["target.build"]


def test_span_closes_when_call_raises():
    tracer = Tracer()
    tracer.wrap(_Target, "boom", "target.boom")
    try:
        with pytest.raises(RuntimeError):
            _Target().boom()
    finally:
        tracer.uninstall()
    (span,) = tracer.spans
    assert span.end >= span.start > 0.0
    assert tracer._stack == []


def test_uninstall_restores_every_attribute():
    before = dict(vars(_Target))
    tracer = Tracer()
    for attr in ("method", "build", "boom"):
        tracer.wrap(_Target, attr, attr)
    tracer.patch(_Target, "method", lambda self, x: x)
    assert vars(_Target)["method"] is not before["method"]
    tracer.uninstall()
    assert all(vars(_Target)[key] is value for key, value in before.items())


def test_wrap_refuses_inherited_attribute():
    class Child(_Target):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "method", "child.method")


def test_layer_install_uninstall_restores_program_attributes():
    import layers

    probe = Tracer()
    layers.install(probe)
    owners = {(owner, attr) for owner, attr, _ in probe._patches}
    probe.uninstall()
    before = {(owner, attr): vars(owner)[attr] for owner, attr in owners}

    tracer = Tracer()
    layers.install(tracer)
    assert any(vars(owner)[attr] is not original
               for (owner, attr), original in before.items())
    tracer.uninstall()
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, (owner, attr)
