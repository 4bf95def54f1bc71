"""Support substrates shared by the rest of the library.

The modules in this package implement generic data structures and helpers
that the caching protocols and the analysis pipeline are built on:

- :mod:`repro.util.fenwick` — binary indexed trees with order-statistic
  queries, used for O(log n) recency ranks.
- :mod:`repro.util.intlist` — integer-slot doubly linked lists over a
  shared slab, the backbone of the LRU-family stacks.
- :mod:`repro.util.rng` — deterministic random number helpers.
- :mod:`repro.util.stats` — streaming statistics.
- :mod:`repro.util.tables` — plain-text table rendering for reports.
- :mod:`repro.util.validation` — argument-checking helpers.
"""

from repro.util.fenwick import FenwickTree
from repro.util.rng import make_rng, spawn_seeds
from repro.util.stats import RunningStats, Histogram
from repro.util.tables import format_table, format_grid
from repro.util.validation import (
    check_positive,
    check_non_negative,
    check_fraction,
    check_in,
)

__all__ = [
    "FenwickTree",
    "make_rng",
    "spawn_seeds",
    "RunningStats",
    "Histogram",
    "format_table",
    "format_grid",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_in",
]
