"""Shared pieces of the benchmark: outcome bookkeeping, spans, and the
stub layers and forwarding proxies the per-layer breakdown
subtracts against.

Everything here sits outside ``src/repro``: the benchmark measures the
program only through its public functions, so a layer's self time is
either a span around a public call (:class:`Tracer`) or the difference
between a loop over the real layer and the same loop over a stub.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.events import AccessEvent
from repro.hierarchy.base import MultiLevelScheme


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def result_hash(result: object) -> str:
    """Content hash of a ``RunResult`` without its wall-clock extras."""
    payload = json.dumps(result.comparable(), sort_keys=True)  # type: ignore[attr-defined]
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Window:
    """Decides when a measurement loop stops.

    Another round starts while the projected end (elapsed time plus
    half a round at the running mean) stays inside ``seconds``; the
    first round always runs.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.rounds = 0
        self.started = perf_counter()

    def more(self) -> bool:
        if not self.rounds:
            return True
        elapsed = perf_counter() - self.started
        return elapsed + 0.5 * elapsed / self.rounds <= self.seconds

    def done_round(self) -> None:
        self.rounds += 1


class Outcome:
    """Operations attempted and correctness checks failed in one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        """A failed check counts as one failed operation."""
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {what}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Tracer:
    """Nested spans with self time.

    A span's self time is its duration minus the time of the spans
    opened inside it, so the self times of all spans under a root add
    up to the root's duration.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._children: List[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._children.append(0.0)
        started = perf_counter()
        try:
            yield
        finally:
            duration = perf_counter() - started
            inner = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - inner
            )
            self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(self, name: str, fn: Callable[..., object]) -> Callable[..., object]:
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args: object, **kwargs: object) -> object:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()


@contextmanager
def patched(target: object, name: str, value: object) -> Iterator[None]:
    """Rebind ``target.name`` to ``value`` for the duration of the block."""
    original = getattr(target, name)
    setattr(target, name, value)
    try:
        yield
    finally:
        setattr(target, name, original)


# ---------------------------------------------------------------------------
# Stub layers
# ---------------------------------------------------------------------------

#: The one event the null scheme reports: a pure level-1 hit.
NULL_EVENT = AccessEvent(block=0, client=0, hit_level=1, placed_level=1)


class NullScheme(MultiLevelScheme):
    """A scheme that caches nothing and reports :data:`NULL_EVENT` for
    every reference: driving it costs the drive loop plus one trivial
    call per reference."""

    name = "null"

    def access(self, client: int, block: int) -> AccessEvent:
        return NULL_EVENT


def null_access(first: int, second: int) -> AccessEvent:
    """The stub core: the call shape of ``ULCClient.access`` and
    ``ULCMultiSystem.access`` with no work behind it."""
    return NULL_EVENT


class NullCollector:
    """A metrics collector that records nothing."""

    def __init__(self, num_levels: int, num_clients: int = 1) -> None:
        self.num_levels = num_levels
        self.num_clients = num_clients

    def record(self, event: AccessEvent) -> None:
        pass

    def record_l1_hits(self, client: int, count: int) -> None:
        pass


# ---------------------------------------------------------------------------
# Forwarding proxies
# ---------------------------------------------------------------------------


class HitRunProbe:
    """Forwarding proxy around a scheme that times and counts its
    hit-run kernels.

    ``access`` is the wrapped scheme's own bound method, so the scalar
    drive through the proxy runs exactly the code it runs without it.
    """

    def __init__(self, scheme: MultiLevelScheme) -> None:
        self._scheme = scheme
        self.access = scheme.access
        self.calls = 0
        self.empty = 0
        self.consumed = 0
        self.seconds = 0.0

    def __getattr__(self, name: str) -> object:
        return getattr(self._scheme, name)

    def _count(self, started: float, consumed: int) -> int:
        self.seconds += perf_counter() - started
        self.calls += 1
        self.consumed += consumed
        if not consumed:
            self.empty += 1
        return consumed

    def access_hit_run(self, client: int, blocks: Sequence[int]) -> int:
        started = perf_counter()
        return self._count(started, self._scheme.access_hit_run(client, blocks))

    def access_hit_run_multi(
        self, clients: Sequence[int], blocks: Sequence[int]
    ) -> int:
        started = perf_counter()
        return self._count(
            started, self._scheme.access_hit_run_multi(clients, blocks)
        )


class CacheProbe:
    """Forwarding proxy around a result cache that counts hits and
    records ``get``/``put`` as spans."""

    def __init__(self, cache: object, tracer: Tracer) -> None:
        self._cache = cache
        self._tracer = tracer
        self.gets = 0
        self.hits = 0

    def __getattr__(self, name: str) -> object:
        return getattr(self._cache, name)

    def get(self, spec: object, accept: Optional[Callable] = None) -> object:
        with self._tracer.span("runner.cache.get"):
            result = self._cache.get(spec, accept=accept)  # type: ignore[attr-defined]
        self.gets += 1
        if result is not None:
            self.hits += 1
        return result

    def put(self, spec: object, result: object) -> object:
        with self._tracer.span("runner.cache.put"):
            return self._cache.put(spec, result)  # type: ignore[attr-defined]


def unattributed(wall: float, layers: Dict[str, float]) -> float:
    """The part of ``wall`` that no layer's self time accounts for.

    Reported rather than hidden: the layer times come from separate
    passes, so this absorbs their noise and any cost between layers.
    """
    return wall - sum(layers.values())
