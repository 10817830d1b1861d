"""Self-time arithmetic, the wrappers and the patcher, on hand-built inputs."""
import types

import pytest

from tracer import Patcher, Tracer, median_duration, self_times, summarize


def span(i, parent, name, start, end, attr=None):
    return [i, parent, name, start, end, attr]


def test_self_time_subtracts_children():
    spans = [
        span(0, None, "trial", 0.0, 10.0),
        span(1, 0, "train", 1.0, 4.0),
        span(2, 0, "attack", 5.0, 9.0),
        span(3, 2, "grad", 5.5, 6.5),
        span(4, 2, "grad", 7.0, 8.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0})
    # self times partition the root's interval
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span(0, None, "p", 0.0, 10.0),
        span(1, 0, "a", 2.0, 6.0),
        span(2, 0, "b", 4.0, 8.0),   # overlaps a: union is [2, 8]
        span(3, 0, "c", 9.0, 12.0),  # runs past the parent's end: [9, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_and_median():
    spans = [
        span(0, None, "run", 0.0, 4.0),
        span(1, 0, "train", 0.0, 1.0, "qunn"),
        span(2, 0, "train", 1.0, 3.0, "classical_cnn"),
        span(3, 0, "train", 3.0, 3.5, "qunn"),
    ]
    layers = summarize(spans)
    assert layers["train"] == pytest.approx({"calls": 3, "s": 3.5, "self_s": 3.5})
    assert layers["run"] == pytest.approx({"calls": 1, "s": 4.0, "self_s": 0.5})
    assert median_duration(spans, "train", lambda a: a == "qunn") == (0.75, 2)
    assert median_duration(spans, "missing") == (0.0, 0)


def test_wrap_records_parent_and_hook_attr():
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: x + 1, hook=lambda t, a, k, r: r * 10)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (i_id, i_parent, i_name, *_rest, i_attr), (o_id, o_parent, o_name, *_r, o_attr) = (
        sorted(tr.spans, key=lambda s: s[2]))
    assert (i_name, o_name) == ("inner", "outer")
    assert i_parent == o_id and o_parent is None
    assert i_attr == 20 and o_attr is None


def test_wrap_records_span_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tr.wrap("boom", boom)()
    assert len(tr.spans) == 1 and tr._stack == [None]


def test_wrap_iter_parents_items_and_not_the_consumer():
    tr = Tracer()
    work = tr.wrap("work", lambda i: i)

    def gen(n):
        for i in range(n):
            yield work(i)

    between = tr.wrap("between", lambda: None)
    out = []
    for item in tr.wrap_iter("sweep", gen)(3):
        out.append(item)
        between()
    assert out == [0, 1, 2]
    sweep = next(s for s in tr.spans if s[2] == "sweep")
    assert len(sweep[5]) == 3
    assert all(s[1] == sweep[0] for s in tr.spans if s[2] == "work")
    assert all(s[1] is None for s in tr.spans if s[2] == "between")
    assert tr._stack == [None]


def test_patcher_counts_an_alias_once_and_restores():
    def f(x):
        return x * 2

    home = types.SimpleNamespace(f=f)
    alias = types.SimpleNamespace(f=f)
    tr = Tracer()
    with Patcher() as patcher:
        make = lambda fn: tr.wrap("f", fn)
        patcher.patch(((home, "f"), (alias, "f")), make)
        patcher.patch(((alias, "f"),), make)  # patched twice: still one wrapper
        assert home.f is alias.f
        assert alias.f(3) == 6 and home.f(1) == 2
    assert len(tr.spans) == 2
    assert home.f is f and alias.f is f


def test_counter_counts_without_spans():
    tr = Tracer()
    g = tr.counter("evals", lambda: 7)
    assert [g(), g()] == [7, 7]
    assert tr.counts["evals"] == 2 and tr.spans == []
