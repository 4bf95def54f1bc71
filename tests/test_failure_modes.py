"""The failure-mode table of ``docs/checks.md``, one test per row.

Every malformed input must end the CLI with exit code 2 and one
``error:`` line naming the offending file (or, for a bad value, the
value) — never with a traceback or a silently wrong number. Each row
builds its input under ``tmp_path`` and returns the ``repro`` argv and
the text the error line must contain.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.cli import main
from repro.workloads import save_columnar, save_npz, zipf_trace

SIM = ["simulate", "--scheme", "ulc", "--levels", "8", "8"]


def _write(path, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)
    return path


def _columnar(tmp_path, edit_meta=None, meta_bytes=None):
    path = save_columnar(zipf_trace(32, 200, seed=1), tmp_path / "c.ctr").path
    meta = path / "meta.json"
    if edit_meta is not None:
        manifest = json.loads(meta.read_text(encoding="utf-8"))
        meta.write_text(json.dumps(edit_meta(manifest)), encoding="utf-8")
    if meta_bytes is not None:
        meta.write_bytes(meta_bytes)
    return path


def _without_refs(manifest):
    del manifest["refs"]
    return manifest


def _info_not_object(manifest):
    manifest["info"] = "zipf"
    return manifest


def binary_as_text(tmp_path):
    path = _write(tmp_path / "t.txt", bytes(range(256)) * 4)
    return SIM + ["--trace", str(path)], str(path)


def non_utf8_text(tmp_path):
    path = _write(tmp_path / "t.txt", "0 1\n# caf\xe9\n0 2\n".encode("latin-1"))
    return ["classify", "--trace", str(path)], str(path)


def client_above_int32(tmp_path):
    path = _write(tmp_path / "t.txt", "0 1\n3000000000 2\n")
    return SIM + ["--trace", str(path)], f"{path}:2"


def block_above_int64(tmp_path):
    path = _write(tmp_path / "t.txt", f"0 1\n0 {2**63}\n")
    return ["mrc", "--trace", str(path)], f"{path}:2"


def truncated_npz(tmp_path):
    path = tmp_path / "t.npz"
    save_npz(zipf_trace(32, 200, seed=1), path)
    path.write_bytes(path.read_bytes()[:100])
    return ["classify", "--trace", str(path)], str(path)


def _npz(path, blocks, clients):
    meta = np.frombuffer(b"{}", dtype=np.uint8)
    np.savez(path, blocks=blocks, clients=clients, meta=meta)
    return path


def npz_float_block_ids(tmp_path):
    path = _npz(tmp_path / "wide.npz", np.array([1.7, 2.2, 3.9]),
                np.array([0, 2**32 + 1, 5], dtype=np.int64))
    return ["classify", "--trace", str(path)], str(path)


def npz_client_above_int32(tmp_path):
    path = _npz(tmp_path / "wide.npz", np.array([1, 2, 3]),
                np.array([0, 2**32 + 1, 5], dtype=np.int64))
    return ["classify", "--trace", str(path)], str(path)


def npz_entry_flagged_encrypted(tmp_path):
    path = tmp_path / "x.npz"
    save_npz(zipf_trace(32, 10, seed=1), path)
    data = bytearray(path.read_bytes())
    entry = data.find(b"PK\x01\x02")  # the first central-directory entry
    data[entry + 8] |= 0x01  # general-purpose flag bit 0: encrypted
    path.write_bytes(bytes(data))
    return SIM + ["--trace", str(path)], str(path)


def npz_unclosed_array_header(tmp_path):
    path = tmp_path / "t.npz"
    save_npz(zipf_trace(32, 10, seed=1), path)
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    header_end = members["blocks.npy"].index(b"}")
    members["blocks.npy"] = (
        members["blocks.npy"][:header_end] + b" "
        + members["blocks.npy"][header_end + 1:]
    )
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return SIM + ["--trace", str(path)], str(path)


def manifest_without_refs(tmp_path):
    path = _columnar(tmp_path, edit_meta=_without_refs)
    return ["mrc", "--trace", str(path)], str(path)


def manifest_is_a_list(tmp_path):
    path = _columnar(tmp_path, edit_meta=lambda manifest: [manifest])
    return SIM + ["--trace", str(path)], str(path)


def manifest_info_not_object(tmp_path):
    path = _columnar(tmp_path, edit_meta=_info_not_object)
    argv = ["mrc", "--trace", str(path), "--approx-only", "--shards", "1.0"]
    return argv, str(path)


def manifest_not_utf8(tmp_path):
    path = _columnar(tmp_path, meta_bytes=b'{"format": "\xff"}')
    return ["trace", "info", "--trace", str(path)], str(path)


def _binary_convert(tmp_path, dtype, values="<i8"):
    path = tmp_path / "t.bin"
    np.array([1, 2, 3], dtype=values).tofile(path)
    argv = ["trace", "convert", "--trace", str(path), "--binary-dtype", dtype,
            "--out", str(tmp_path / "o.ctr")]
    return argv, str(path)


def unknown_binary_dtype(tmp_path):
    return _binary_convert(tmp_path, "foo")


def float_binary_dtype(tmp_path):
    return _binary_convert(tmp_path, "<f8")


def unsigned_block_above_int64(tmp_path):
    path = tmp_path / "t.bin"
    np.array([1, 2**63], dtype="<u8").tofile(path)
    argv = ["trace", "convert", "--trace", str(path), "--binary-dtype", "<u8",
            "--out", str(tmp_path / "o.ctr")]
    return argv, str(path)


def empty_csv_delimiter(tmp_path):
    path = _write(tmp_path / "t.csv", "1,2\n")
    argv = ["trace", "convert", "--trace", str(path), "--delimiter", "",
            "--out", str(tmp_path / "o.ctr")]
    return argv, str(path)


def missing_trace_file(tmp_path):
    path = tmp_path / "absent.txt"
    return SIM + ["--trace", str(path)], str(path)


def unparsable_source(tmp_path):
    path = _write(tmp_path / "bad.py", "def broken(:\n    pass\n")
    return ["check", str(path)], str(path)


def corrupt_baseline(tmp_path):
    (tmp_path / "pkg").mkdir()
    _write(tmp_path / "pkg" / "a.py", "x = 1\n")
    baseline = _write(tmp_path / "baseline.json", "{not json")
    argv = ["check", str(tmp_path / "pkg"), "--baseline", str(baseline)]
    return argv, str(baseline)


def truncated_column(tmp_path):
    path = _columnar(tmp_path)
    column = path / "blocks.bin"
    column.write_bytes(column.read_bytes()[:-8])
    return SIM + ["--trace", str(path)], str(column)


def garbage_csv_line(tmp_path):
    path = _write(tmp_path / "t.csv", "1\n2\nxyz\n")
    argv = ["trace", "convert", "--trace", str(path),
            "--out", str(tmp_path / "o.ctr")]
    return argv, f"{path}:3"


def zero_capacity(tmp_path):
    argv = ["simulate", "--scheme", "ulc", "--levels", "0", "8",
            "--workload", "zipf", "--refs", "1000"]
    return argv, "got 0"


ROWS = [
    binary_as_text,
    non_utf8_text,
    client_above_int32,
    block_above_int64,
    truncated_npz,
    npz_float_block_ids,
    npz_client_above_int32,
    npz_entry_flagged_encrypted,
    npz_unclosed_array_header,
    manifest_without_refs,
    manifest_is_a_list,
    manifest_info_not_object,
    manifest_not_utf8,
    unknown_binary_dtype,
    float_binary_dtype,
    unsigned_block_above_int64,
    empty_csv_delimiter,
    missing_trace_file,
    unparsable_source,
    corrupt_baseline,
    truncated_column,
    garbage_csv_line,
    zero_capacity,
]


@pytest.mark.parametrize("row", ROWS, ids=[row.__name__ for row in ROWS])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, row):
    argv, named = row(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("error:"), err
    assert named in last, last
