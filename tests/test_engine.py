"""Event kernel and RNG stream tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.engine import _MASK64, Engine, RandomSource
from meshsim.errors import ConfigError


def test_schedule_at_now_is_accepted():
    eng = Engine()
    fired = []
    eng.schedule(0, fired.append, "a")
    assert eng.run_until_idle() == 1
    assert fired == ["a"]


def test_schedule_in_past_rejected():
    eng = Engine()
    eng.schedule(100, lambda: None)
    eng.run_until_idle()
    with pytest.raises(ConfigError):
        eng.schedule(99, lambda: None)


def test_fire_order_and_tie_break():
    eng = Engine()
    order = []
    eng.schedule(20, order.append, "first-at-20")
    eng.schedule(10, order.append, "at-10")
    eng.schedule(20, order.append, "second-at-20")
    eng.run_until_idle()
    assert order == ["at-10", "first-at-20", "second-at-20"]


def test_reentrant_scheduling_dispatches_in_same_run():
    eng = Engine()
    seen = []

    def outer():
        seen.append(("outer", eng.now))
        eng.schedule(15, inner)

    def inner():
        seen.append(("inner", eng.now))

    eng.schedule(10, outer)
    n = eng.run_until_idle()
    assert n == 2
    assert seen == [("outer", 10), ("inner", 15)]


def test_cancelled_event_not_dispatched_or_counted():
    eng = Engine()
    fired = []
    h = eng.schedule(10, fired.append, "x")
    eng.schedule(10, fired.append, "y")
    Engine.cancel(h)
    assert eng.run_until_idle() == 1
    assert fired == ["y"]


def test_run_until_idle_stops_clock_at_last_event():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.schedule(340, lambda: None)
    assert eng.run_until_idle() == 2
    assert eng.now == 340


def test_run_until_with_event_cap_leaves_clock_at_last_event():
    eng = Engine()
    fired = []
    for t in (10, 20, 30):
        eng.schedule(t, fired.append, t)
    assert eng.run_until_idle(1) == 1
    assert eng.now == 10
    # the events past the cap stay queued, in order, for the next call
    assert eng.run_until_idle() == 2
    assert fired == [10, 20, 30]
    assert eng.now == 30


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=40))
def test_every_noncancelled_event_dispatches_exactly_once(times):
    eng = Engine()
    hits = []
    for i, t in enumerate(times):
        eng.schedule(t, hits.append, (t, i))
    eng.run_until_idle()
    assert len(hits) == len(times)
    # (fire_at, insertion order) is exactly the sort the kernel promises
    assert hits == sorted(hits)


# fire times drawn from a narrow range, so most items share a time with another
tied_times = st.lists(st.integers(min_value=0, max_value=8), max_size=40)


def dispatch_order(load, early, bulk, late):
    """Labels in dispatch order after scheduling early one by one, loading
    bulk with load(engine, items), then scheduling late one by one."""
    eng = Engine()
    fired = []
    for i, t in enumerate(early):
        eng.schedule(t, fired.append, ("early", i))
    load(eng, [(t, fired.append, (("bulk", i),)) for i, t in enumerate(bulk)])
    for i, t in enumerate(late):
        eng.schedule(t, fired.append, ("late", i))
    assert eng.run_until_idle() == len(early) + len(bulk) + len(late)
    return fired


def one_by_one(eng, items):
    for fire_at, action, args in items:
        eng.schedule(fire_at, action, *args)


@settings(max_examples=200, deadline=None)
@given(tied_times, tied_times, tied_times)
def test_schedule_many_dispatches_as_per_item_schedule(early, bulk, late):
    # on an empty heap (no early items) and on a non-empty one, and with
    # later schedule() calls interleaving among the loaded items
    many = dispatch_order(Engine.schedule_many, early, bulk, late)
    assert many == dispatch_order(one_by_one, early, bulk, late)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=100, max_value=200), max_size=10),
       st.lists(st.integers(min_value=100, max_value=200), max_size=10),
       st.integers(min_value=0, max_value=99))
def test_schedule_many_past_item_queues_nothing(before, after, past):
    eng = Engine()
    eng.schedule(100, lambda: None)
    eng.run_until_idle()
    fired = []
    items = [(t, fired.append, (t,)) for t in [*before, past, *after]]
    with pytest.raises(ConfigError):
        eng.schedule_many(items)
    # none of the items was queued, not even those before the past one
    eng.schedule(150, fired.append, "x")
    assert eng.run_until_idle() == 1
    assert fired == ["x"]


def test_schedule_many_of_nothing_is_a_no_op():
    eng = Engine()
    eng.schedule_many([])
    assert eng.run_until_idle() == 0


def test_stream_generator_is_random_random_of_the_masked_seed():
    rng = random.Random(20)
    seeds = [0, 1, _MASK64, _MASK64 + 1, -1, 2 ** 70 + 5]
    seeds += [rng.getrandbits(70) - 2 ** 69 for _ in range(1000 - len(seeds))]
    for s in seeds:
        source = RandomSource(s)
        assert isinstance(source, random.Random)
        assert source.masked_seed == s & _MASK64
        assert source.getstate() == random.Random(s & _MASK64).getstate()
        # a derived stream is the Random of its own 64-bit seed
        child = source.stream("chan:a")
        assert child.getstate() == random.Random(child.masked_seed).getstate()
    # every draw is random.Random's own; a stream adds only its derivation
    assert {k for k in vars(RandomSource) if not k.startswith("__")} == {"stream"}


def test_same_seed_same_sequence():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.uniform(0, 1) for _ in range(50)] == [b.uniform(0, 1) for _ in range(50)]
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_streams_are_independent_and_reproducible():
    root = RandomSource(7)
    x = root.stream("node:a")
    y = root.stream("node:b")
    seq_x = [x.uniform(0, 1) for _ in range(10)]
    assert seq_x != [y.uniform(0, 1) for _ in range(10)]
    # re-deriving the stream replays it from the start
    assert [root.stream("node:a").uniform(0, 1) for _ in range(1)][0] == seq_x[0]


def test_degenerate_draws():
    rng = RandomSource(1)
    assert rng.uniform(5, 5) == 5


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0, max_value=1e3),
)
def test_uniform_draws_stay_in_bounds(seed, lo, width):
    # one generator step: lo + (hi - lo) * random()
    rng, ref = RandomSource(seed), random.Random(seed)
    v = rng.uniform(lo, lo + width)
    assert v == lo + (lo + width - lo) * ref.random()
    assert lo <= v <= lo + width
