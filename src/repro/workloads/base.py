"""Trace containers.

A *trace* is an ordered sequence of block references, each attributed to a
client. Traces are stored column-wise in NumPy arrays so multi-million
reference streams stay compact, while iteration yields lightweight
:class:`Request` tuples for the simulation engine.

Block identifiers are plain integers; the unit is one cache block (the
paper uses 8 KB blocks, which only matters when converting byte sizes to
block counts — see :func:`repro.sim.costs.bytes_to_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_fraction


class Request(NamedTuple):
    """One block reference issued by a client."""

    client: int
    block: int


@dataclass(frozen=True)
class TraceInfo:
    """Descriptive metadata attached to a trace."""

    name: str = "unnamed"
    description: str = ""
    pattern: str = "unknown"  # looping / temporal / random / zipf / mixed ...
    seed: Optional[int] = None


#: Marker for "no next reference" in :attr:`TracePreprocess.next_ref`
#: (same convention as :data:`repro.core.measures.NO_VALUE`).
NO_NEXT = -1


class TracePreprocess:
    """One-pass derived data shared by every consumer of a trace.

    The measure analysis, OPT's next-use table and the trace statistics
    all need the same two preprocessing products; computing them once per
    trace (vectorised, cached on the :class:`Trace`) replaces per-
    consumer Python passes (cf. the miss-ratio-curve survey,
    arXiv:1804.01972, on sharing one reuse-distance pass).

    Attributes:
        unique_blocks: sorted distinct block ids (int64). The *dense id*
            of a block is its index in this array — the interning
            contract: dense ids are contiguous ``0..n_unique-1``,
            assigned in sorted block-id order, so any consumer can size
            flat arrays by ``len(unique_blocks)`` and index them by
            dense id.
        dense_ids: per-reference dense block id (int64, same length as
            the trace).
        next_ref: per-reference position of the *next* reference to the
            same block, :data:`NO_NEXT` when there is none (int64).
    """

    __slots__ = ("unique_blocks", "dense_ids", "next_ref")

    def __init__(self, blocks: np.ndarray) -> None:
        from repro.core.measures import next_reference_times

        self.unique_blocks, dense = np.unique(blocks, return_inverse=True)
        dense = dense.astype(np.int64, copy=False)
        nxt = next_reference_times(dense)
        for arr in (self.unique_blocks, dense, nxt):
            arr.setflags(write=False)
        self.dense_ids = dense
        self.next_ref = nxt


class Trace:
    """An immutable, column-stored reference stream.

    Args:
        blocks: block id per reference.
        clients: client id per reference; a scalar-free default of all
            zeros models the single-client structure.
        info: descriptive metadata.
    """

    def __init__(
        self,
        blocks: Sequence[int],
        clients: Optional[Sequence[int]] = None,
        info: Optional[TraceInfo] = None,
    ) -> None:
        self._blocks = np.asarray(blocks, dtype=np.int64)
        if self._blocks.ndim != 1:
            raise ConfigurationError("blocks must be a 1-D sequence")
        if clients is None:
            self._clients = np.zeros(len(self._blocks), dtype=np.int32)
        else:
            self._clients = np.asarray(clients, dtype=np.int32)
        if len(self._clients) != len(self._blocks):
            raise ConfigurationError(
                f"{len(self._clients)} client ids for {len(self._blocks)} blocks"
            )
        self._blocks.setflags(write=False)
        self._clients.setflags(write=False)
        self.info = info or TraceInfo()
        self._preprocess: Optional[TracePreprocess] = None
        self._num_unique: Optional[int] = None

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Request]:
        # memoryview iteration yields plain Python ints without
        # materialising list copies of the columns.
        for client, block in zip(
            memoryview(self._clients), memoryview(self._blocks)
        ):
            yield Request(client, block)

    def __getitem__(self, index: int) -> Request:
        return Request(int(self._clients[index]), int(self._blocks[index]))

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.info.name!r}, refs={len(self)}, "
            f"clients={self.num_clients}, unique_blocks={self.num_unique_blocks})"
        )

    # -- columns ---------------------------------------------------------------

    @property
    def blocks(self) -> np.ndarray:
        """Block id column (read-only int64 array)."""
        return self._blocks

    @property
    def clients(self) -> np.ndarray:
        """Client id column (read-only int32 array)."""
        return self._clients

    # -- derived properties -------------------------------------------------------

    @property
    def num_clients(self) -> int:
        """Number of distinct clients (1 for an empty trace)."""
        if len(self._clients) == 0:
            return 1
        return int(self._clients.max()) + 1

    @property
    def num_unique_blocks(self) -> int:
        """Number of distinct blocks referenced (computed once, cached)."""
        if self._num_unique is None:
            if self._preprocess is not None:
                self._num_unique = len(self._preprocess.unique_blocks)
            else:
                self._num_unique = (
                    int(np.unique(self._blocks).size) if len(self) else 0
                )
        return self._num_unique

    def preprocess(self) -> TracePreprocess:
        """The trace's shared :class:`TracePreprocess` (computed once).

        Consumers needing dense block ids or next-reference times
        (:mod:`repro.analysis.locality`, :mod:`repro.policies.opt`,
        :mod:`repro.core.measures` callers) should draw them from here
        rather than recomputing per consumer.
        """
        if self._preprocess is None:
            self._preprocess = TracePreprocess(self._blocks)
            self._num_unique = len(self._preprocess.unique_blocks)
        return self._preprocess

    # -- transformations --------------------------------------------------------

    def aggregate(self, name_suffix: str = "-aggregated") -> "Trace":
        """Merge all client streams into a single-client trace.

        The paper aggregates the seven httpd request streams "into a
        single stream in the order of the request times" for the
        single-client study; order is already request-time order here.
        """
        info = TraceInfo(
            name=self.info.name + name_suffix,
            description=self.info.description,
            pattern=self.info.pattern,
            seed=self.info.seed,
        )
        return Trace(self._blocks, None, info)

    def split_warmup(self, fraction: float = 0.1) -> Tuple["Trace", "Trace"]:
        """Split into (warm-up, measured) sub-traces.

        The paper uses "the first one tenth of block references in the
        traces to warm the system".
        """
        check_fraction("fraction", fraction)
        cut = int(len(self) * fraction)
        return self.slice(0, cut), self.slice(cut, len(self))

    def slice(self, start: int, stop: int) -> "Trace":
        """Contiguous sub-trace ``[start, stop)`` sharing storage."""
        return Trace(
            self._blocks[start:stop], self._clients[start:stop], self.info
        )

    def client_stream(self, client: int) -> "Trace":
        """The sub-trace of one client (client ids preserved)."""
        mask = self._clients == client
        return Trace(self._blocks[mask], self._clients[mask], self.info)

    @staticmethod
    def concat(traces: Iterable["Trace"], info: Optional[TraceInfo] = None) -> "Trace":
        """Concatenate traces back-to-back."""
        traces = list(traces)
        if not traces:
            return Trace([], None, info)
        blocks = np.concatenate([t.blocks for t in traces])
        clients = np.concatenate([t.clients for t in traces])
        return Trace(blocks, clients, info or traces[0].info)

    @staticmethod
    def interleave(
        streams: Sequence[np.ndarray],
        rng: np.random.Generator,
        info: Optional[TraceInfo] = None,
    ) -> "Trace":
        """Randomly interleave per-client block streams into one trace.

        Each stream keeps its internal order; the merge order is a random
        shuffle weighted by stream lengths, which models clients issuing
        requests concurrently at similar rates.
        """
        tags: List[np.ndarray] = [
            np.full(len(stream), client, dtype=np.int32)
            for client, stream in enumerate(streams)
        ]
        order = np.concatenate(tags)
        rng.shuffle(order)
        blocks = np.empty(sum(len(s) for s in streams), dtype=np.int64)
        # The positions tagged with client k consume stream k in order:
        # one vectorised scatter per stream replaces the per-reference
        # cursor loop, with an identical result.
        for client, stream in enumerate(streams):
            blocks[order == client] = stream
        return Trace(blocks, order, info)
