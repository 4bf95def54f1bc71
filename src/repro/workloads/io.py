"""Trace persistence and streaming ingestion.

Materialised formats:

- ``.npz`` — compact binary (NumPy archive) including metadata; the
  default for generated traces.
- text — one ``client block`` pair per line with ``#``-comments, for
  interoperability with external trace tools and hand-written fixtures.

Streaming formats (for traces too large to materialise):

- ``.ctr`` — a *columnar trace* directory: raw little-endian column
  files (``blocks.bin`` int64, optional ``clients.bin`` int32) plus a
  ``meta.json`` manifest. Written in one pass by
  :func:`convert_to_columnar` and read back chunk-wise through
  ``np.memmap`` by :class:`ColumnarTrace`, so a 10^8-reference trace
  costs O(chunk) resident memory on both sides.
- chunked readers for external block traces — :func:`stream_csv`,
  :func:`stream_text`, :func:`stream_binary` — each yielding
  :class:`TraceChunk` batches without ever holding the whole file.

:func:`open_trace_chunks` is the one map from a path to a reader, and
``materialize(*open_trace_chunks(path))`` the one way a trace file
becomes an in-memory :class:`Trace`.

:class:`StreamingTrace` is the chunk-wise consumption contract shared
by the simulation engine (``Engine.drive_stream``) and the approximate
MRC profilers (:mod:`repro.analysis.approx`); :func:`iter_chunks`
adapts an in-memory :class:`Trace` to the same protocol so every
consumer is written once against chunks.

:class:`DenseInterner` provides on-the-fly dense-id interning for
conversion pipelines. Its id-assignment order (first appearance, ties
within a chunk in sorted block-id order) intentionally differs from
:class:`~repro.workloads.base.TracePreprocess`'s whole-trace sorted
contract — a streaming pass cannot know the global sort order — so
interned ids are dense and deterministic but not sorted by block id.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from pathlib import Path
from tokenize import TokenError
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, TextIO, Tuple, Union)
from zipfile import BadZipFile

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError
from repro.util.validation import check_positive
from repro.workloads.base import Trace, TraceInfo

PathLike = Union[str, Path]

#: Default references per chunk for every chunk-wise reader/consumer:
#: 1 Mi references = 8 MiB of block ids, small enough to stay cache- and
#: memory-friendly, large enough to amortise per-chunk Python overhead.
DEFAULT_CHUNK_REFS = 1 << 20

#: Columnar trace directory layout.
COLUMNAR_SUFFIX = ".ctr"
COLUMNAR_FORMAT = "repro-columnar-trace"
COLUMNAR_VERSION = 1
_META_FILE = "meta.json"
_BLOCKS_FILE = "blocks.bin"
_CLIENTS_FILE = "clients.bin"
_BLOCK_DTYPE = "<i8"
_CLIENT_DTYPE = "<i4"


class TraceChunk(NamedTuple):
    """One contiguous batch of a reference stream.

    Attributes:
        blocks: int64 block ids (may be a view into an mmap).
        clients: int32 client ids, or ``None`` for a single-client
            stretch (client 0 implied).
        offset: global position of ``blocks[0]`` in the full stream.
    """

    blocks: np.ndarray
    clients: Optional[np.ndarray]
    offset: int


def save_npz(trace: Trace, path: PathLike) -> None:
    """Write a trace to a ``.npz`` archive (blocks, clients, metadata)."""
    meta = {
        "name": trace.info.name,
        "description": trace.info.description,
        "pattern": trace.info.pattern,
        "seed": trace.info.seed,
    }
    np.savez_compressed(
        Path(path),
        blocks=trace.blocks,
        clients=trace.clients,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
    )


def load_npz(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_npz`.

    Every failure — an unreadable or corrupt archive, a missing column,
    a column that is not integer-typed, a client id outside int32 or a
    block id outside int64 — raises :class:`TraceFormatError` naming
    the file, so no id is silently truncated or wrapped.
    """
    try:
        with np.load(Path(path)) as archive:
            blocks = archive["blocks"]
            clients = archive["clients"]
            meta = json.loads(archive["meta"].tobytes().decode())
    # EOFError onwards: a corrupt zip layer (RuntimeError: an entry
    # flagged as encrypted) or .npy header (TokenError: NumPy's header
    # filter hit the end of an unclosed dict or tuple).
    except (OSError, KeyError, ValueError, EOFError, NotImplementedError,
            BadZipFile, zlib.error, RuntimeError, TokenError) as exc:
        raise TraceFormatError(f"cannot load trace from {path}: {exc}") from exc
    for what, ids, dtype in (("block", blocks, np.int64),
                             ("client", clients, np.int32)):
        if not np.issubdtype(ids.dtype, np.integer):
            raise TraceFormatError(
                f"{path}: the {what}s column holds {ids.dtype}, not integers"
            )
        if ids.size == 0 or np.can_cast(ids.dtype, dtype):
            continue
        limits = np.iinfo(dtype)
        for index in (int(ids.argmax()), int(ids.argmin())):
            value = int(ids.flat[index])
            if not limits.min <= value <= limits.max:
                raise TraceFormatError(
                    f"{path}: {what} id {value} at reference {index} is "
                    f"outside {limits.dtype}"
                )
    info = TraceInfo(
        name=meta.get("name", "unnamed"),
        description=meta.get("description", ""),
        pattern=meta.get("pattern", "unknown"),
        seed=meta.get("seed"),
    )
    return Trace(blocks, clients, info)


def save_text(trace: Trace, path: PathLike) -> None:
    """Write a trace as ``client block`` lines with a metadata header."""
    with open(Path(path), "w", encoding="utf-8") as handle:
        handle.write(f"# name: {trace.info.name}\n")
        handle.write(f"# pattern: {trace.info.pattern}\n")
        for request in trace:
            handle.write(f"{request.client} {request.block}\n")


def load_text(path: PathLike) -> Trace:
    """Read a ``client block``-per-line text trace (see :func:`stream_text`).

    Lines may also hold a single block id (client 0 is assumed), matching
    common single-client trace dumps; the name and pattern come from the
    leading ``#`` header lines (:func:`text_trace_info`).
    """
    return materialize(*open_trace_chunks(path, fmt="text"))


def materialize(chunks: Iterable[TraceChunk], info: TraceInfo) -> Trace:
    """Concatenate a chunk stream into an in-memory :class:`Trace`.

    ``materialize(*open_trace_chunks(path))`` is how every trace file
    becomes a :class:`Trace`. Convenience for small streams and exact
    cross-checks; defeats the point for 10^8-reference traces.
    """
    blocks = [np.zeros(0, dtype=np.int64)]
    clients = [np.zeros(0, dtype=np.int32)]
    for chunk in chunks:
        blocks.append(np.asarray(chunk.blocks, dtype=np.int64))
        if chunk.clients is None:
            clients.append(np.zeros(len(chunk.blocks), dtype=np.int32))
        else:
            clients.append(np.asarray(chunk.clients, dtype=np.int32))
    return Trace(np.concatenate(blocks), np.concatenate(clients), info)


# ---------------------------------------------------------------------------
# Streaming consumption protocol
# ---------------------------------------------------------------------------


class StreamingTrace:
    """A length-known reference stream consumed chunk by chunk.

    The contract shared by the streaming profilers and
    ``Engine.drive_stream``: ``len(source)`` is the total reference
    count, ``source.info`` describes the trace, and
    ``source.chunks(chunk_size)`` yields :class:`TraceChunk` batches in
    stream order with correct global offsets. Implementations must
    never require the whole stream to be resident.
    """

    info: TraceInfo

    def __len__(self) -> int:
        raise NotImplementedError

    def chunks(
        self, chunk_size: int = DEFAULT_CHUNK_REFS
    ) -> Iterator[TraceChunk]:
        """Yield the stream as consecutive :class:`TraceChunk` batches."""
        raise NotImplementedError

    def materialize(self) -> Trace:
        """Load the whole stream into an in-memory :class:`Trace`."""
        return materialize(self.chunks(), self.info)


# repro: bound O(n) -- one pass over the trace by definition; the
# generator yields one zero-copy slice per chunk
def iter_chunks(
    source: Union[Trace, StreamingTrace],
    chunk_size: int = DEFAULT_CHUNK_REFS,
) -> Iterator[TraceChunk]:
    """Adapt a :class:`Trace` or :class:`StreamingTrace` to chunk form.

    In-memory traces are sliced without copying (the single-client case
    yields ``clients=None`` so consumers skip the client column);
    streaming sources pass through their own :meth:`~StreamingTrace.chunks`.
    """
    check_positive("chunk_size", chunk_size)
    if isinstance(source, Trace):
        blocks = source.blocks
        clients = source.clients if source.clients.any() else None
        for start in range(0, len(blocks), chunk_size):
            stop = min(start + chunk_size, len(blocks))
            yield TraceChunk(
                blocks[start:stop],
                None if clients is None else clients[start:stop],
                start,
            )
        return
    yield from source.chunks(chunk_size)


# ---------------------------------------------------------------------------
# Columnar on-disk format
# ---------------------------------------------------------------------------


class ColumnarTrace(StreamingTrace):
    """mmap-backed reader of a ``.ctr`` columnar trace directory.

    The manifest is read eagerly (so ``len``/``info`` are free); the
    column files are memory-mapped read-only on demand, and
    :meth:`chunks` yields zero-copy views into the map — the OS pages
    the trace in and out as the consumer walks it.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        meta_path = self.path / _META_FILE
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # bad UTF-8 or bad JSON
            raise TraceFormatError(
                f"cannot read columnar trace manifest {meta_path}: {exc}"
            ) from exc
        about = meta.get("info", {}) if isinstance(meta, dict) else None
        if not isinstance(about, dict):
            raise TraceFormatError(
                f"{meta_path}: the manifest and its \"info\" must be JSON "
                "objects"
            )
        if meta.get("format") != COLUMNAR_FORMAT:
            raise TraceFormatError(
                f"{meta_path}: not a columnar trace manifest "
                f"(format={meta.get('format')!r})"
            )
        try:
            version = int(meta.get("version", 0))
            self._num_refs = int(meta["refs"])
            num_unique = meta.get("num_unique")
            self.num_unique: Optional[int] = (
                None if num_unique is None else int(num_unique)
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(
                f"{meta_path}: missing or bad manifest field ({exc!r})"
            ) from exc
        if version != COLUMNAR_VERSION:
            raise TraceFormatError(
                f"{meta_path}: unsupported columnar version "
                f"{meta.get('version')!r} (this build reads "
                f"{COLUMNAR_VERSION})"
            )
        self._has_clients = bool(meta.get("has_clients", False))
        self.info = TraceInfo(
            name=about.get("name", self.path.stem),
            description=about.get("description", ""),
            pattern=about.get("pattern", "unknown"),
            seed=about.get("seed"),
        )
        self._check_column(_BLOCKS_FILE, 8)
        if self._has_clients:
            self._check_column(_CLIENTS_FILE, 4)

    def _check_column(self, filename: str, itemsize: int) -> None:
        column = self.path / filename
        try:
            actual = column.stat().st_size
        except OSError as exc:
            raise TraceFormatError(
                f"columnar trace column missing: {column} ({exc})"
            ) from exc
        expected = self._num_refs * itemsize
        if actual != expected:
            raise TraceFormatError(
                f"{column}: {actual} bytes on disk, manifest says "
                f"{self._num_refs} refs ({expected} bytes)"
            )

    def __len__(self) -> int:
        return self._num_refs

    def __repr__(self) -> str:
        return (
            f"ColumnarTrace(path={str(self.path)!r}, "
            f"refs={self._num_refs}, clients={self._has_clients})"
        )

    @property
    def has_clients(self) -> bool:
        return self._has_clients

    def _open_columns(
        self,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        blocks = np.memmap(
            self.path / _BLOCKS_FILE, dtype=np.dtype(_BLOCK_DTYPE),
            mode="r", shape=(self._num_refs,),
        )
        clients = None
        if self._has_clients:
            clients = np.memmap(
                self.path / _CLIENTS_FILE, dtype=np.dtype(_CLIENT_DTYPE),
                mode="r", shape=(self._num_refs,),
            )
        return blocks, clients

    def chunks(
        self, chunk_size: int = DEFAULT_CHUNK_REFS
    ) -> Iterator[TraceChunk]:
        check_positive("chunk_size", chunk_size)
        n = self._num_refs
        if n == 0:
            return
        blocks, clients = self._open_columns()
        for start in range(0, n, chunk_size):
            stop = min(start + chunk_size, n)
            yield TraceChunk(
                blocks[start:stop],
                None if clients is None else clients[start:stop],
                start,
            )


def convert_to_columnar(
    chunks: Iterable[TraceChunk],
    path: PathLike,
    info: Optional[TraceInfo] = None,
    interner: Optional["DenseInterner"] = None,
) -> ColumnarTrace:
    """Stream ``chunks`` into a ``.ctr`` columnar trace directory.

    One forward pass, O(chunk) resident memory: block ids (optionally
    mapped through ``interner`` on the fly) are appended to
    ``blocks.bin`` as they arrive. The client column is written lazily —
    a stream that never shows a nonzero client id produces no
    ``clients.bin`` at all; the first nonzero chunk backfills the zeros
    for everything already written. The manifest is written last, so a
    directory without ``meta.json`` is an aborted conversion, never a
    readable trace.
    """
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    info = info or TraceInfo(name=target.stem)
    refs = 0
    clients_handle = None
    try:
        with open(target / _BLOCKS_FILE, "wb") as blocks_handle:
            for chunk in chunks:
                blocks = np.asarray(chunk.blocks, dtype=np.int64)
                if interner is not None:
                    blocks = interner.intern(blocks)
                blocks.astype(_BLOCK_DTYPE, copy=False).tofile(blocks_handle)
                col = chunk.clients
                if col is not None and not np.any(col):
                    col = None
                if col is None and clients_handle is None:
                    refs += len(blocks)
                    continue
                if clients_handle is None:
                    # First nonzero-client chunk: open the column and
                    # backfill zeros for the single-client prefix.
                    clients_handle = open(target / _CLIENTS_FILE, "wb")
                    zeros = np.zeros(
                        min(refs, DEFAULT_CHUNK_REFS), dtype=_CLIENT_DTYPE
                    )
                    remaining = refs
                    while remaining > 0:
                        step = min(remaining, len(zeros))
                        zeros[:step].tofile(clients_handle)
                        remaining -= step
                if col is None:
                    np.zeros(len(blocks), dtype=_CLIENT_DTYPE).tofile(
                        clients_handle
                    )
                else:
                    np.asarray(col).astype(_CLIENT_DTYPE, copy=False).tofile(
                        clients_handle
                    )
                refs += len(blocks)
    finally:
        if clients_handle is not None:
            clients_handle.close()
    meta = {
        "format": COLUMNAR_FORMAT,
        "version": COLUMNAR_VERSION,
        "refs": refs,
        "block_dtype": _BLOCK_DTYPE,
        "client_dtype": _CLIENT_DTYPE,
        "has_clients": clients_handle is not None,
        "num_unique": len(interner) if interner is not None else None,
        "info": {
            "name": info.name,
            "description": info.description,
            "pattern": info.pattern,
            "seed": info.seed,
        },
    }
    (target / _META_FILE).write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8"
    )
    return ColumnarTrace(target)


def save_columnar(trace: Trace, path: PathLike) -> ColumnarTrace:
    """Write an in-memory trace as a ``.ctr`` columnar directory."""
    return convert_to_columnar(iter_chunks(trace), path, info=trace.info)


# ---------------------------------------------------------------------------
# Chunked readers for external trace dumps
# ---------------------------------------------------------------------------


def _flush_chunk(
    blocks: List[int], clients: List[int], offset: int
) -> TraceChunk:
    client_col: Optional[np.ndarray] = None
    if any(clients):
        client_col = np.asarray(clients, dtype=np.int32)
    return TraceChunk(
        np.asarray(blocks, dtype=np.int64), client_col, offset
    )


@contextmanager
def _open_text(path: PathLike) -> Iterator[TextIO]:
    """Open a text trace; an I/O or decoding failure anywhere inside the
    ``with`` block becomes a :class:`TraceFormatError` naming the file."""
    try:
        with open(Path(path), "r", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise TraceFormatError(f"{path}: not UTF-8 text ({bad!r})") from exc


def _read_lines(
    path: PathLike,
    fields: Callable[[str], Tuple[int, int]],
    chunk_size: int,
    skip_header: bool,
) -> Iterator[TraceChunk]:
    """The one line loop of the text and CSV readers.

    Skips blank and ``#`` lines (and, with ``skip_header``, the first
    data line), parses the rest into ``(client, block)`` with ``fields``
    and yields them in ``chunk_size`` batches. Every failure — unreadable
    file, non-UTF-8 bytes, a malformed line, a client id outside int32
    or a block id outside int64 — raises :class:`TraceFormatError`
    naming the file (and the line, where there is one).
    """
    check_positive("chunk_size", chunk_size)
    blocks: List[int] = []
    clients: List[int] = []
    offset = 0
    with _open_text(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            if skip_header:
                skip_header = False
                continue
            try:
                client, block = fields(line)
                # Constant bounds, not ``range`` membership: these two
                # tests run once per line.
                if not -(1 << 31) <= client < 1 << 31:
                    raise ValueError(f"client id {client} is outside int32")
                if not -(1 << 63) <= block < 1 << 63:
                    raise ValueError(f"block id {block} is outside int64")
            except (ValueError, IndexError) as exc:
                raise TraceFormatError(
                    f"{path}:{line_number}: bad trace line "
                    f"{line[:80]!r} ({exc})"
                ) from exc
            clients.append(client)
            blocks.append(block)
            if len(blocks) >= chunk_size:
                yield _flush_chunk(blocks, clients, offset)
                offset += len(blocks)
                blocks, clients = [], []
    if blocks:
        yield _flush_chunk(blocks, clients, offset)


def _text_fields(line: str) -> Tuple[int, int]:
    parts = line.split()
    if len(parts) == 2:
        return int(parts[0]), int(parts[1])
    if len(parts) == 1:
        return 0, int(parts[0])
    raise ValueError("expected 1 or 2 fields")


def stream_text(
    path: PathLike, chunk_size: int = DEFAULT_CHUNK_REFS
) -> Iterator[TraceChunk]:
    """Chunked reader for the ``client block``-per-line text format.

    Single-field lines imply client 0; ``#`` starts a comment. Never
    holds more than ``chunk_size`` references. Header metadata is
    skipped — use :func:`text_trace_info` to recover it.
    """
    return _read_lines(path, _text_fields, chunk_size, skip_header=False)


def text_trace_info(path: PathLike) -> TraceInfo:
    """Metadata of a text trace from its leading ``#`` header lines."""
    name = Path(path).stem
    pattern = "unknown"
    with _open_text(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            elif body.startswith("pattern:"):
                pattern = body[len("pattern:"):].strip()
    return TraceInfo(name=name, pattern=pattern)


def stream_csv(
    path: PathLike,
    block_column: int = 0,
    client_column: Optional[int] = None,
    delimiter: str = ",",
    skip_header: bool = False,
    chunk_size: int = DEFAULT_CHUNK_REFS,
) -> Iterator[TraceChunk]:
    """Chunked reader for delimited block traces (CSV and friends).

    ``block_column``/``client_column`` select 0-based fields; lines that
    are empty or start with ``#`` are skipped, and ``skip_header`` drops
    the first data line (a column-name row). Block ids may exceed 2^31 —
    the column is int64 end to end. An empty ``delimiter`` raises
    :class:`ConfigurationError` before the file is read.
    """
    if not delimiter:
        raise ConfigurationError(f"{path}: the CSV delimiter is empty")

    def fields(line: str) -> Tuple[int, int]:
        parts = line.split(delimiter)
        block = int(parts[block_column].strip())
        if client_column is None:
            return 0, block
        return int(parts[client_column].strip()), block

    return _read_lines(path, fields, chunk_size, skip_header)


def stream_binary(
    path: PathLike,
    dtype: str = _BLOCK_DTYPE,
    chunk_size: int = DEFAULT_CHUNK_REFS,
) -> Iterator[TraceChunk]:
    """Chunked reader for a flat binary array of block ids.

    ``dtype`` is a NumPy integer dtype string (default little-endian
    int64); any other dtype raises :class:`ConfigurationError` before
    the file is read. The stream is single-client, and the file size
    must be a whole number of items.
    """
    check_positive("chunk_size", chunk_size)
    try:
        item = np.dtype(dtype)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{path}: unknown binary dtype {dtype!r} ({exc})"
        ) from exc
    if item.kind not in "iu":
        raise ConfigurationError(
            f"{path}: binary dtype {dtype!r} is not an integer type"
        )
    return _read_binary(Path(path), item, chunk_size)


def _read_binary(
    source: Path, item: np.dtype, chunk_size: int
) -> Iterator[TraceChunk]:
    try:
        size = source.stat().st_size
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {source}: {exc}") from exc
    if size % item.itemsize:
        raise TraceFormatError(
            f"{source}: {size} bytes is not a whole number of "
            f"{item.itemsize}-byte ({item.str}) items"
        )
    unsigned64 = item.kind == "u" and item.itemsize == 8
    offset = 0
    try:
        with open(source, "rb") as handle:
            while True:
                raw = np.fromfile(handle, dtype=item, count=chunk_size)
                if len(raw) == 0:
                    break
                if unsigned64 and raw.max() >= 1 << 63:
                    raise TraceFormatError(
                        f"{source}: block id {raw.max()} at reference "
                        f"{offset + int(raw.argmax())} is outside int64"
                    )
                yield TraceChunk(
                    raw.astype(np.int64, copy=False), None, offset
                )
                offset += len(raw)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {source}: {exc}") from exc


def open_trace_chunks(
    path: PathLike,
    fmt: str = "auto",
    block_column: int = 0,
    client_column: Optional[int] = None,
    delimiter: str = ",",
    skip_header: bool = False,
    dtype: str = _BLOCK_DTYPE,
    chunk_size: int = DEFAULT_CHUNK_REFS,
) -> Tuple[Iterator[TraceChunk], TraceInfo]:
    """Open any supported trace as ``(chunk iterator, metadata)``.

    ``fmt`` of ``"auto"`` dispatches on the suffix (``.ctr`` columnar,
    ``.npz`` archive, ``.csv`` delimited, ``.bin``/``.raw`` flat binary,
    anything else text); the explicit names ``columnar``/``npz``/
    ``csv``/``binary``/``text`` override it.
    """
    source = Path(path)
    if fmt == "auto":
        suffix = source.suffix.lower()
        fmt = {
            COLUMNAR_SUFFIX: "columnar",
            ".npz": "npz",
            ".csv": "csv",
            ".bin": "binary",
            ".raw": "binary",
        }.get(suffix, "text")
    if fmt == "columnar":
        columnar = ColumnarTrace(source)
        return columnar.chunks(chunk_size), columnar.info
    if fmt == "npz":
        trace = load_npz(source)
        return iter_chunks(trace, chunk_size), trace.info
    if fmt == "csv":
        return (
            stream_csv(
                source,
                block_column=block_column,
                client_column=client_column,
                delimiter=delimiter,
                skip_header=skip_header,
                chunk_size=chunk_size,
            ),
            TraceInfo(name=source.stem),
        )
    if fmt == "binary":
        return (
            stream_binary(source, dtype=dtype, chunk_size=chunk_size),
            TraceInfo(name=source.stem),
        )
    if fmt == "text":
        return (
            stream_text(source, chunk_size=chunk_size),
            text_trace_info(source),
        )
    raise ConfigurationError(
        f"unknown trace format {fmt!r}; available: auto, columnar, npz, "
        "csv, binary, text"
    )


# ---------------------------------------------------------------------------
# Streaming dense-id interning
# ---------------------------------------------------------------------------


class DenseInterner:
    """On-the-fly dense block-id assignment for streaming pipelines.

    Maps arbitrary (possibly > 2^31) block ids to contiguous ids
    ``0..n_unique-1`` one chunk at a time; the only persistent state is
    one dict entry per *distinct* block, never per reference. Ids are
    assigned deterministically in first-appearance order, with ties
    inside a chunk broken by ascending block id (``np.unique`` order) —
    a different contract from :class:`~repro.workloads.base.
    TracePreprocess`, whose dense ids are sorted over the whole trace.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: Dict[int, int] = {}

    def __len__(self) -> int:
        """Distinct blocks interned so far."""
        return len(self._table)

    def intern(self, blocks: np.ndarray) -> np.ndarray:
        """Dense ids of ``blocks``, assigning fresh ids to new blocks.

        The Python-level work is bounded by the chunk's *distinct*
        block count (one dict probe per unique value); the per-reference
        mapping is a vectorised gather.
        """
        arr = np.asarray(blocks, dtype=np.int64)
        if len(arr) == 0:
            return np.zeros(0, dtype=np.int64)
        unique, inverse = np.unique(arr, return_inverse=True)
        table = self._table
        lut = np.empty(len(unique), dtype=np.int64)
        for index, block in enumerate(unique.tolist()):
            dense = table.get(block)
            if dense is None:
                dense = len(table)
                table[block] = dense
            lut[index] = dense
        return lut[inverse]
