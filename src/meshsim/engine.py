"""Deterministic discrete-event kernel with a virtual microsecond clock.

Every protocol module runs inside this kernel: code observes time only
through Engine.now and makes progress only via scheduled callbacks.
Randomness comes from RandomSource streams derived deterministically from
one master seed, so a run is fully reproducible from (config, seed).

Events dispatch in (fire_at, insertion counter) order.  schedule() queues
one event; schedule_many() queues a whole up-front schedule, numbering its
items in the order given and restoring the heap once, so its events
dispatch exactly as the same items passed one by one to schedule() would.
run_until_idle() is the one dispatch loop: it drains the queue, or stops
after max_events.
"""

import _random
import heapq
import random
from functools import lru_cache
# normal_quantile(p, mu, sigma) is the routine NormalDist.inv_cdf calls once
# it has checked 0 < p < 1; it also refuses sigma <= 0.  The medium's
# shadowing draw calls it directly
from statistics import _normal_dist_inv_cdf as normal_quantile

from .errors import ConfigError

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; stable across platforms."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# every run derives the same few labels per node ("proto:<id>", "chan:<id>")
@lru_cache(maxsize=1 << 14)
def _label_hash(label: str) -> int:
    # FNV-1a, 64 bit.  Does not depend on PYTHONHASHSEED.
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class RandomSource(random.Random):
    """A random.Random seeded from 64 bits, with deterministic child streams.

    Streams derived with different labels are independent: drawing from one
    never perturbs another.  masked_seed is the seed, reduced to 64 bits.
    """

    def __init__(self, seed: int):
        # the same state as random.Random(self.masked_seed): that seeds
        # through the Python-level seed(), the C seed sets the whole state
        # directly.  From 3.11 on __new__ leaves the state unseeded; on 3.10
        # it seeds first, and this seed overwrites it
        self.masked_seed = seed & _MASK64
        _random.Random.seed(self, self.masked_seed)
        self.gauss_next = None

    def stream(self, label: str) -> "RandomSource":
        """Derive an independent child stream; same (seed, label) -> same stream."""
        return RandomSource(_splitmix64(self.masked_seed ^ _label_hash(label)))


class Engine:
    """Single-threaded event loop ordered by (fire_at, insertion counter).

    Events that share a fire time dispatch in insertion order, which keeps
    replays byte-identical.  A handle returned by schedule() can be passed
    to cancel(); cancelled events are skipped and not counted.

    ``now`` is the virtual clock in µs.  It is a plain slot, read directly
    on the per-frame path; only the one dispatch loop, run_until_idle(),
    writes it, and callers must treat it as read-only.
    """

    __slots__ = ("_heap", "_counter", "now")

    def __init__(self):
        self._heap: list[list] = []
        self._counter = 0
        self.now = 0

    def schedule(self, fire_at: int, action, *args) -> list:
        """Queue action(*args) at fire_at (µs); returns a cancellable handle."""
        if fire_at < self.now:
            raise ConfigError(
                f"cannot schedule event at t={fire_at} µs: clock already at {self.now} µs"
            )
        entry = [fire_at, self._counter, action, args]
        self._counter += 1
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_many(self, items) -> None:
        """Queue action(*args) at fire_at for each (fire_at, action, args).

        The items take consecutive insertion counters in the order given,
        so they dispatch as per-item schedule() calls in that order would.
        Nothing is queued unless every fire_at is at or after now.  One
        heapify restores the heap: linear in its size, and a time-sorted
        schedule loaded onto an empty heap already is one.
        """
        entries = [[fire_at, counter, action, args]
                   for counter, (fire_at, action, args)
                   in enumerate(items, self._counter)]
        if not entries:
            return
        first = min(entries)[0]
        if first < self.now:
            raise ConfigError(
                f"cannot schedule event at t={first} µs: clock already at {self.now} µs"
            )
        self._counter += len(entries)
        self._heap += entries
        heapq.heapify(self._heap)

    def schedule_after(self, delay: int, action, *args) -> list:
        return self.schedule(self.now + delay, action, *args)

    @staticmethod
    def cancel(handle: list) -> None:
        """Mark a scheduled event as cancelled; it will be skipped on dispatch."""
        handle[2] = None

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Dispatch events in order; returns the number dispatched.

        The queue drains, events scheduled during dispatch included, or at
        most max_events run when it is given.  The clock stops at the last
        event dispatched.
        """
        count = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            fire_at, _, action, args = pop(heap)
            if action is None:
                continue
            self.now = fire_at
            action(*args)
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count
