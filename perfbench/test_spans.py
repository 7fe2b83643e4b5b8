"""Tests of the benchmark harness: the tracer, its aggregation and the
request generator.  Run with ``python3 -m pytest perfbench``."""

import itertools
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


@pytest.fixture
def fake_package():
    """fakepkg.base defines leaf and outer; fakepkg.user binds leaf by import."""
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return base.leaf(x) + user.leaf(x)

    base.leaf, base.outer = leaf, outer
    user.leaf = leaf
    sys.modules["fakepkg.base"], sys.modules["fakepkg.user"] = base, user
    yield base, user
    del sys.modules["fakepkg.base"], sys.modules["fakepkg.user"]


def _traced_calls(fake_package):
    base, user = fake_package
    original = base.leaf
    targets = [("fake.leaf", base, "leaf", None), ("fake.outer", base, "outer", None)]
    with Tracer(clock=_ticking_clock()).patch(targets, "fakepkg") as tracer:
        assert user.leaf is base.leaf and base.leaf is not original
        for request_id in (7, 8):
            with tracer.request(request_id):
                assert base.outer(1) == 4
        base.outer(1)  # outside a request: not recorded
    return tracer


def test_patch_rebinds_every_namespace_and_restores(fake_package):
    base, user = fake_package
    original = base.leaf
    tracer = _traced_calls(fake_package)
    assert base.leaf is original and user.leaf is original
    names = [s.name for s in tracer.spans]
    assert names == ["request", "fake.outer", "fake.leaf", "fake.leaf"] * 2


def test_self_time_plus_children_equals_duration(fake_package):
    spans = _traced_calls(fake_package).spans
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        children = sum(s.duration for s in spans if s.parent == i)
        assert selfs[i] + children == pytest.approx(span.duration)
        assert selfs[i] > 0
    assert sum(selfs) == pytest.approx(sum(s.duration for s in spans if s.name == "request"))


def test_every_span_chains_up_to_one_request(fake_package):
    spans = _traced_calls(fake_package).spans
    for span in spans:
        root = span
        while root.parent >= 0:
            root = spans[root.parent]
        assert root.name == "request"
        assert root.request == span.request
    assert {s.request for s in spans} == {7, 8}


def test_failed_call_is_recorded_and_closed():
    tracer = Tracer(clock=_ticking_clock())

    def boom():
        raise ValueError("boom")

    wrapped = tracer.wrap("fake.boom", boom, lambda args, kwargs, result: {"result": result})
    with pytest.raises(ValueError), tracer.request(0):
        wrapped()
    assert [s.failed for s in tracer.spans] == [True, True]
    assert tracer.spans[1].counts == {"result": None}
    assert all(s.end > s.start for s in tracer.spans)


def test_aggregate_top_level_self_times_sum_to_wall(fake_package):
    spans = _traced_calls(fake_package).spans
    metrics = layers.aggregate(spans)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER} - {
        "proc.cpu_s", "proc.trace_overhead_frac"}
    by_layer = layers.self_time_by_layer(spans)
    assert sum(by_layer.values()) == pytest.approx(metrics["trace.wall_s"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_request_generator_is_deterministic(name):
    a = workloads.build(name, 11, "w")
    b = workloads.build(name, 11, "w")
    c = workloads.build(name, 12, "w")
    assert (a.requests, a.files, a.expect, a.references) == (
        b.requests, b.files, b.expect, b.references)
    assert (a.requests, a.files) != (c.requests, c.files)
    # the seed changes values, never the shape of the request list
    shape = lambda wl: [(r["kind"], [x for x in r.get("argv", []) if x.startswith("--")])
                        for r in wl.requests]
    assert shape(a) == shape(c)


def test_sweep_small_has_at_least_100_requests():
    assert len(workloads.build("sweep-small", 3, "w").requests) >= 100
