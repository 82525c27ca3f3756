import pytest
from hypothesis import given
from hypothesis import strategies as st

from conflux.aggregates import Partial, empty, from_summary, merge, of_values, single
from conflux.query import AggregationFunction

from oracle import close, direct_aggregate


def test_empty_finalizes_to_none():
    for fn in AggregationFunction:
        p = empty(fn)
        assert p.count == 0
        assert p.finalize() is None


def test_mean_update_sequence():
    p = merge(merge(empty(AggregationFunction.MEAN), single(AggregationFunction.MEAN, 2)), single(AggregationFunction.MEAN, 4))
    assert p.count == 2
    assert p.acc == 6.0
    assert p.finalize() == 3.0


def test_max_update_sequence():
    p = of_values(AggregationFunction.MAX, [3, 1])
    assert p.count == 2
    assert p.acc == 3.0


def test_min_single_negative():
    p = single(AggregationFunction.MIN, -5)
    assert p.count == 1
    assert p.finalize() == -5.0


def test_mean_merge_weighted():
    a = Partial(AggregationFunction.MEAN, 2, 6.0)
    b = Partial(AggregationFunction.MEAN, 3, 9.0)
    m = merge(a, b)
    assert (m.count, m.acc) == (5, 15.0)
    assert m.finalize() == 3.0


def test_max_merge():
    m = merge(Partial(AggregationFunction.MAX, 1, 7.0), Partial(AggregationFunction.MAX, 4, 5.5))
    assert (m.count, m.acc) == (5, 7.0)


def test_identity_both_sides():
    p = of_values(AggregationFunction.MIN, [4.0, 2.0])
    assert merge(p, empty(AggregationFunction.MIN)) == p
    assert merge(empty(AggregationFunction.MIN), p) == p


def test_merge_function_mismatch():
    with pytest.raises(ValueError):
        merge(empty(AggregationFunction.MIN), empty(AggregationFunction.MAX))


def test_single_rejects_non_finite():
    with pytest.raises(ValueError):
        single(AggregationFunction.MEAN, float("nan"))
    with pytest.raises(ValueError):
        single(AggregationFunction.MAX, float("inf"))


def test_empty_partial_invariant():
    with pytest.raises(ValueError):
        Partial(AggregationFunction.MEAN, 0, 1.0)
    with pytest.raises(ValueError):
        Partial(AggregationFunction.MEAN, -1, 0.0)


def test_from_summary_inverts_mean():
    p = from_summary(AggregationFunction.MEAN, 4, 2.5)
    assert (p.count, p.acc) == (4, 10.0)
    assert p.finalize() == 2.5


def test_from_summary_extremum_and_empty():
    p = from_summary(AggregationFunction.MAX, 7, 9.9)
    assert (p.count, p.acc) == (7, 9.9)
    assert from_summary(AggregationFunction.MIN, 0, None) == empty(AggregationFunction.MIN)
    with pytest.raises(ValueError):
        from_summary(AggregationFunction.MIN, 0, 1.0)
    with pytest.raises(ValueError):
        from_summary(AggregationFunction.MIN, 2, None)


_fns = st.sampled_from(list(AggregationFunction))
_values = st.lists(
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
    max_size=30,
)


@given(_fns, _values, _values, _values)
def test_merge_associative(fn, xs, ys, zs):
    a, b, c = (of_values(fn, v) for v in (xs, ys, zs))
    left = merge(merge(a, b), c)
    right = merge(a, merge(b, c))
    assert left.count == right.count
    assert close(left.finalize(), right.finalize())


@given(_fns, _values, _values)
def test_merge_commutative(fn, xs, ys):
    a, b = of_values(fn, xs), of_values(fn, ys)
    ab, ba = merge(a, b), merge(b, a)
    assert ab.count == ba.count
    assert close(ab.finalize(), ba.finalize())


@given(_fns, _values)
def test_finalize_matches_direct(fn, xs):
    got = of_values(fn, xs).finalize()
    want = direct_aggregate(fn, xs)
    if fn is AggregationFunction.MEAN:
        assert close(got, want)
    else:
        assert got == want
