"""Runtime invariant checking: the dynamic half of ``repro.checks``.

:class:`InvariantCheckedScheme` wraps any
:class:`~repro.hierarchy.base.MultiLevelScheme` and is *observationally
transparent*: it forwards every ``access`` untouched (same events, same
display name), so a checked run's :class:`~repro.sim.results.RunResult`
is bit-identical to the unchecked run and shares its result-cache entry.
On top it validates, every ``every`` references:

- the :class:`~repro.core.events.AccessEvent` itself (echoed block and
  client, level fields in range, demotions crossing adjacent boundaries),
- the scheme's structural invariants via :meth:`MultiLevelScheme
  .check_invariants` — per-level occupancy <= capacity, ULC L1/L2
  exclusivity per client, uniLRU stratification (see the per-scheme
  implementations in :mod:`repro.hierarchy`).

:func:`validate_structure` extends the same idea to the support
containers (Fenwick tree totals, order-statistic treap subtree sizes),
so tests and debugging sessions have one entry point for "is this thing
internally consistent?".

Any violation raises :class:`~repro.errors.ProtocolError` — loudly, at
the reference that exposed it, instead of surfacing later as a subtly
wrong (and cached) hit-ratio curve.
"""

from __future__ import annotations

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block
from repro.util.validation import check_int, check_positive

#: Default validation period for ``--check-invariants`` without a value.
DEFAULT_CHECK_EVERY = 1000


def validate_scheme(scheme: MultiLevelScheme) -> None:
    """Run a scheme's structural self-checks (raises ProtocolError)."""
    scheme.check_invariants()


def validate_event(
    scheme: MultiLevelScheme, client: int, block: Block, event: AccessEvent
) -> None:
    """Validate one emitted event against the scheme's geometry."""
    if event.block != block:
        raise ProtocolError(
            f"{scheme.name}: event echoes block {event.block!r} for a "
            f"reference to {block!r}"
        )
    if event.client != client:
        raise ProtocolError(
            f"{scheme.name}: event echoes client {event.client} for a "
            f"reference by client {client}"
        )
    levels = scheme.num_levels
    if event.hit_level is not None and not 1 <= event.hit_level <= levels:
        raise ProtocolError(
            f"{scheme.name}: hit_level {event.hit_level} outside "
            f"[1, {levels}]"
        )
    if event.placed_level is not None and not 1 <= event.placed_level <= levels:
        raise ProtocolError(
            f"{scheme.name}: placed_level {event.placed_level} outside "
            f"[1, {levels}]"
        )
    for demotion in event.demotions:
        if demotion.dst != demotion.src + 1:
            raise ProtocolError(
                f"{scheme.name}: demotion {demotion} skips a boundary"
            )
        # dst == num_levels + 1 encodes falling out of the hierarchy.
        if not 1 <= demotion.src <= levels:
            raise ProtocolError(
                f"{scheme.name}: demotion {demotion} from a level outside "
                f"[1, {levels}]"
            )


def validate_structure(obj: object) -> None:
    """Validate a support container or scheme, whichever ``obj`` is.

    Dispatches to the object's own ``check_invariants`` method — schemes,
    :class:`~repro.core.stack.UniLRUStack` and
    :class:`~repro.util.fenwick.FenwickTree` all provide one.
    """
    checker = getattr(obj, "check_invariants", None)
    if checker is None:
        raise ConfigurationError(
            f"{type(obj).__name__} exposes no check_invariants()"
        )
    checker()


class InvariantCheckedScheme(MultiLevelScheme):
    """Transparent invariant-checking wrapper around any scheme.

    Args:
        scheme: the scheme to wrap.
        every: validate structural invariants every this many references
            (event validation is per-reference and cheap). ``1`` checks
            after every access — the right setting for tests, far too
            slow for paper-scale runs.
    """

    def __init__(
        self, scheme: MultiLevelScheme, every: int = DEFAULT_CHECK_EVERY
    ) -> None:
        check_int("every", every)
        check_positive("every", every)
        super().__init__(scheme.capacities, scheme.num_clients)
        self.inner = scheme
        self.every = every
        self.references = 0
        self.validations = 0
        # Transparency: adopt the inner display name so RunResult rows
        # (and result-cache payloads) are identical with checking on/off.
        self.name = scheme.name

    def access(self, client: int, block: Block) -> AccessEvent:
        event = self.inner.access(client, block)
        self.references += 1
        validate_event(self.inner, client, block, event)
        if self.references % self.every == 0:
            self.check_invariants()
        return event

    def check_invariants(self) -> None:
        """Validate the wrapped scheme now (also runs on the period)."""
        validate_scheme(self.inner)
        self.validations += 1

    def describe(self) -> str:
        return (
            f"{self.inner.describe()} "
            f"[invariants checked every {self.every} refs]"
        )
