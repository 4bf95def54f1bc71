"""Every trace file reaches the simulator through ``open_trace_chunks``.

One multi-client trace written as text, ``.npz`` and ``.ctr`` must build
the same :class:`Trace` through ``WorkloadSpec("file", path)`` — blocks,
clients, name and pattern — and its single-client form must give the
same blocks as a one-column ``.csv`` and as an int64 ``.bin`` file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.runner import WorkloadSpec
from repro.workloads import Trace, TraceInfo
from repro.workloads.io import (
    load_text,
    save_columnar,
    save_npz,
    save_text,
    stream_binary,
    stream_csv,
)


@pytest.fixture
def trace():
    rng = np.random.default_rng(11)
    blocks = rng.integers(0, 2**40, size=600)
    blocks[::7] = 2**31 + rng.integers(0, 50, size=len(blocks[::7]))
    clients = rng.integers(0, 4, size=600)
    return Trace(blocks, clients, TraceInfo(name="mixed", pattern="zipf"))


def built(path) -> Trace:
    return WorkloadSpec("file", str(path)).build()


class TestSameTraceFromEveryFormat:
    def test_text_npz_and_columnar_agree(self, tmp_path, trace):
        save_text(trace, tmp_path / "t.txt")
        save_npz(trace, tmp_path / "t.npz")
        save_columnar(trace, tmp_path / "t.ctr")
        for name in ("t.txt", "t.npz", "t.ctr"):
            loaded = built(tmp_path / name)
            np.testing.assert_array_equal(loaded.blocks, trace.blocks)
            np.testing.assert_array_equal(loaded.clients, trace.clients)
            assert loaded.info.name == "mixed", name
            assert loaded.info.pattern == "zipf", name

    def test_csv_and_binary_give_the_same_blocks(self, tmp_path, trace):
        single = Trace(trace.blocks, info=TraceInfo(name="single"))
        save_text(single, tmp_path / "s.txt")
        np.savetxt(tmp_path / "s.csv", trace.blocks, fmt="%d")
        trace.blocks.astype("<i8").tofile(tmp_path / "s.bin")
        expected = built(tmp_path / "s.txt")
        for name in ("s.csv", "s.bin"):
            loaded = built(tmp_path / name)
            np.testing.assert_array_equal(loaded.blocks, expected.blocks)
            np.testing.assert_array_equal(loaded.clients, expected.clients)
            assert loaded.info.name == "s"

    def test_whitespace_csv_is_rejected_not_misread(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1 5\n2 6\n", encoding="utf-8")
        with pytest.raises(TraceFormatError, match=r"pairs\.csv:1"):
            built(path)


class TestLineReader:
    def test_metadata_comes_from_the_leading_header_only(self, tmp_path):
        path = tmp_path / "header.txt"
        path.write_text("# pattern: loop\n1\n# name: late\n2\n")
        loaded = load_text(path)
        assert loaded.info.name == "header"  # the stem, not the late line
        assert loaded.info.pattern == "loop"
        assert list(loaded.blocks) == [1, 2]

    def test_chunks_hold_at_most_chunk_size(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("h\n" + "".join(f"{i},{i % 3}\n" for i in range(7)))
        chunks = list(stream_csv(
            path, client_column=1, skip_header=True, chunk_size=3
        ))
        assert [len(c.blocks) for c in chunks] == [3, 3, 1]
        assert [c.offset for c in chunks] == [0, 3, 6]
        assert chunks[0].clients.tolist() == [0, 1, 2]

    def test_long_bad_line_is_cut_in_the_message(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("x" * 10_000 + "\n")
        with pytest.raises(TraceFormatError) as info:
            load_text(path)
        assert "x" * 300 not in str(info.value)

    def test_unsigned_binary_accepts_ids_that_fit(self, tmp_path):
        path = tmp_path / "u.bin"
        np.array([0, 2**63 - 1, 7], dtype="<u8").tofile(path)
        blocks = np.concatenate(
            [c.blocks for c in stream_binary(path, dtype="<u8")]
        )
        assert blocks.tolist() == [0, 2**63 - 1, 7]
