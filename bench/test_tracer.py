"""Tests for the benchmark's span tracer.

    PYTHONPATH=src python3 -m pytest bench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from tracer import Target, Tracer, aggregate  # noqa: E402


class FakeClock:
    """Advances only when ``tick`` is called."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class Calls:
    """Synthetic nested calls: outer (3 s own) -> 2 × inner (2 s own) -> leaf
    (1 s).  Methods call each other through the instance, so wrappers the
    tracer puts in the instance ``__dict__`` see every call."""

    def __init__(self, clock):
        self.clock = clock

    def leaf(self):
        self.clock.tick(1.0)
        return "leaf"

    def inner(self):
        self.clock.tick(0.5)
        self.leaf()
        self.clock.tick(1.5)

    def outer(self):
        self.clock.tick(1.0)
        self.inner()
        self.clock.tick(2.0)
        self.inner()
        return 42


@pytest.fixture
def traced_calls():
    clock = FakeClock()
    calls = Calls(clock)
    tracer = Tracer(clock=clock)
    hooks = [Target(calls, name, name) for name in ("outer", "inner", "leaf")]
    return calls, clock, tracer, hooks


def test_self_time_of_nested_calls(traced_calls):
    calls, clock, tracer, hooks = traced_calls
    with tracer.patch(hooks):
        assert calls.outer() == 42
    table = aggregate(tracer.spans)
    assert table["outer"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}
    assert table["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}
    assert table["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    by_id = {s.span_id: s for s in tracer.spans}
    for span in tracer.spans:
        parent = by_id.get(span.parent)
        expected = {"outer": None, "inner": "outer", "leaf": "inner"}[span.name]
        assert (parent.name if parent else None) == expected


def test_root_span_and_operation_id(traced_calls):
    calls, clock, tracer, hooks = traced_calls
    tracer.op = 7
    with tracer.patch(hooks), tracer.span("op"):
        clock.tick(0.25)
        calls.leaf()
    table = aggregate(tracer.spans)
    assert table["op"]["self_s"] == 0.25
    assert table["op"]["total_s"] == 1.25
    assert {s.op for s in tracer.spans} == {7}


def test_counts_are_summed_and_skipped_on_error(traced_calls):
    _, _, tracer, _ = traced_calls
    sizes = iter([3, 4])

    def work(fail=False):
        if fail:
            raise ValueError("boom")
        return next(sizes)

    traced = tracer.wrap(work, "work", lambda args, kwargs, result: {"n3": result ** 3})
    traced()
    traced()
    with pytest.raises(ValueError):
        traced(fail=True)
    row = aggregate(tracer.spans)["work"]
    assert row["calls"] == 3
    assert row["n3"] == 27 + 64


def test_originals_restored_after_error(traced_calls):
    calls, _, tracer, hooks = traced_calls
    before = dict(vars(calls))
    with pytest.raises(RuntimeError):
        with tracer.patch(hooks):
            assert vars(calls).keys() > before.keys()
            raise RuntimeError
    assert vars(calls) == before


def test_grfspan_hooks_install_and_restore():
    hooks = layers.targets()
    owners = {id(t.owner): t.owner for t in hooks}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    tracer = Tracer()
    with tracer.patch(hooks):
        for t in hooks:
            assert getattr(t.owner, t.attr) is not before[id(t.owner)][t.attr]
    for key, owner in owners.items():
        after = vars(owner)
        for name, value in before[key].items():
            assert after[name] is value, name
        assert after.keys() == before[key].keys()


def test_grfspan_layer_counts_on_a_short_trajectory():
    from grfspan import SchoenbergMixture, fr_cg, lift_stationary, trajectories

    kernel = lift_stationary(SchoenbergMixture(atoms=((1.0, 1.0),)))
    plain = trajectories.simulate_info_path(kernel, fr_cg(0.3), 1.0, 10 ** 9, 4, 0, 5)
    tracer = Tracer()
    with tracer.patch(layers.targets()):
        traced = trajectories.simulate_info_path(kernel, fr_cg(0.3), 1.0, 10 ** 9, 4, 0, 5)
    assert (traced.G == plain.G).all() and (traced.f_values == plain.f_values).all()
    metrics = layers.layer_metrics(tracer.spans, ops=1)
    # step 0 plus three cov_block calls per step
    assert metrics["assembly.cov_block.calls"][0] == 1 + 3 * 4
    assert metrics["trajectories.simulate_info_path.calls"][0] == 1
    assert metrics["gaussianops.condition.calls"][0] == 2 * 4
    assert metrics["limits.limit_step.calls"][0] == 0
    assert metrics["limits.limit_step.s_at_10"][0] == 0.0
