"""Tests of the benchmark's own span arithmetic, wrapping and tail rule."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
from tracer import Tracer, install, tail  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 4] > a1 [2, 3];  op > b [5, 9]
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    op = tracer.begin("op")
    a = tracer.begin("a")
    a1 = tracer.begin("a1")
    tracer.end(a1)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(op)
    assert tracer.self_times() == {"op": 3, "a": 2, "a1": 1, "b": 4}
    assert tracer.totals() == {"op": 10, "a": 3, "a1": 1, "b": 4}
    assert [span[0] for span in tracer.spans] == [None, op, a, op]


def test_self_time_sums_spans_of_one_name():
    # two sibling spans named x inside op, one nested x inside the second
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 5, 6, 8, 9))
    op = tracer.begin("op")
    for i in range(2):
        x = tracer.begin("x")
        if i == 1:
            inner = tracer.begin("x")
            tracer.end(inner)
        tracer.end(x)
    tracer.end(op)
    # op 9 - (1 + 5) = 3; x: 1 + (5 - 1) + 1 = 6
    assert tracer.self_times() == {"op": 3, "x": 6}


def test_wrapped_exception_closes_span_and_is_counted():
    def boom():
        raise KeyError("x")

    tracer = Tracer()
    module = type(sys)("fake_module")
    module.boom = boom
    restore = install(tracer, [module], [(boom, "fake.boom", None)])
    try:
        with pytest.raises(KeyError):
            module.boom()
    finally:
        restore()
    assert module.boom is boom
    assert tracer.counts["fake.boom.raised.KeyError"] == 1
    assert tracer.spans[0][3] is not None


def test_reimported_names_are_wrapped_and_restored():
    from antictx import _cliques, antidist, antiset, ensembles, quantum

    originals = (quantum.gram, _cliques.maximal_cliques, antidist.triple_antidistinguishable)
    rays = ensembles.generate_states(ensembles.FamilySpec("yu_oh_rays"))
    basis = ensembles.generate_states(ensembles.FamilySpec("yu_oh_principal"))
    tracer = Tracer()
    targets = layers.targets()
    restore = install(tracer, layers.package_modules(), targets)
    try:
        for module in (antiset, antidist, ensembles):
            assert module.gram is quantum.gram
        assert quantum.gram.__perfbench_original__ is originals[0]
        assert antiset.maximal_cliques is quantum.maximal_cliques is _cliques.maximal_cliques
        assert quantum.maximal_cliques.__perfbench_original__ is originals[1]
        assert antiset.triple_antidistinguishable is antidist.triple_antidistinguishable
        assert antiset.triple_antidistinguishable.__perfbench_original__ is originals[2]

        op = tracer.begin("op")
        antiset.verify_strong_antiset(rays.union(basis), rays.labels, basis.labels)
        tracer.end(op)
    finally:
        restore()
    assert (quantum.gram, _cliques.maximal_cliques, antidist.triple_antidistinguishable) == originals
    assert antiset.gram is originals[0] and antiset.maximal_cliques is originals[1]

    calls = tracer.calls()
    assert calls["antiset.verify"] == 1
    assert calls["antidist.triple"] == calls["antidist.overlaps"] == 18
    assert calls["quantum.gram"] == 2  # the basis check and the triple overlaps
    names = [span[1] for span in tracer.spans]
    verify = names.index("antiset.verify")
    assert all(tracer.spans[i][0] == verify for i, name in enumerate(names) if name == "quantum.gram")
    metrics = layers.metrics(tracer)
    assert metrics["antidist.triple.accept_ratio"] == 1.0
    assert metrics["antiset.triple_reuse_ratio"] == 1.0
    assert metrics["quantum.gram.pairs"] == 3 + 21  # C(3,2) basis pairs, C(7,2) in the subset


@pytest.mark.parametrize(
    "n, value, percentile, beyond",
    [
        (5, 3, 50.0, 2),  # too few for any rung: the median, with the short count
        (19, 10, 50.0, 9),
        (20, 10, 50.0, 10),
        (39, 20, 50.0, 19),  # p75 would leave only 9 beyond
        (40, 30, 75.0, 10),
        (99, 75, 75.0, 24),  # p90 would leave only 9 beyond
        (100, 90, 90.0, 10),
        (999, 900, 90.0, 99),
        (1000, 990, 99.0, 10),
        (10000, 9990, 99.9, 10),
    ],
)
def test_tail_uses_highest_percentile_with_ten_samples_beyond(n, value, percentile, beyond):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    assert tail(samples) == (value, percentile, beyond)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])
