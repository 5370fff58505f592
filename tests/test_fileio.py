import gzip
import io

import pytest

from softmentions.errors import ConsistencyError, FormatError, RowError
from softmentions.fileio import (
    format_tsv,
    iter_tsv,
    open_text,
    read_tsv,
    write_text,
    write_tsv,
)


@pytest.mark.parametrize("name", ["out.tsv", "out.tsv.gz"])
def test_failed_write_keeps_previous_file(tmp_path, name):
    path = tmp_path / name
    write_text(path, "old\n")
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "new \ud800\n")  # a lone surrogate fails mid-write
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _chunks_failing_after(count):
    for index in range(count):
        yield f"row {index}\n" * 1000
    raise RuntimeError("source failed")


@pytest.mark.parametrize("name", ["out.tsv", "out.tsv.gz"])
@pytest.mark.parametrize("previous", [None, "old\n"], ids=["no_file", "old_file"])
def test_chunks_raising_partway_keep_previous_file(tmp_path, name, previous):
    path = tmp_path / name
    if previous is not None:
        write_text(path, previous)
    before = path.read_bytes() if previous is not None else None
    with pytest.raises(RuntimeError, match="source failed"):
        write_text(path, _chunks_failing_after(50))  # past the first buffer flushes
    assert (path.read_bytes() if path.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([name] if previous is not None else [])


@pytest.mark.parametrize("name", ["out.tsv", "out.tsv.gz"])
def test_text_written_in_chunks_equals_text_written_at_once(tmp_path, name):
    chunks = ["head\tcol\n", *(f"caf\u00e9 {i}\t{i * i}\n" for i in range(20000)), "", "tail"]
    whole, chunked = tmp_path / "whole" / name, tmp_path / "chunked" / name
    write_text(whole, "".join(chunks))
    write_text(chunked, iter(chunks))
    assert chunked.read_bytes() == whole.read_bytes()
    if name.endswith(".gz"):
        assert gzip.decompress(chunked.read_bytes()).decode("utf-8") == "".join(chunks)


def test_format_tsv_rejects_tabs_and_line_breaks(tmp_path):
    assert format_tsv(("a", "b"), [("x", "y")]) == "a\tb\nx\ty\n"
    for bad in ("y\tz", "y\nz", "y\rz"):
        with pytest.raises(FormatError, match="line 3: column 'b'"):
            format_tsv(("a", "b"), [("x", "y"), ("x", bad)])
    with pytest.raises(FormatError, match="bad.tsv: line 2: column 'a'"):
        write_tsv(tmp_path / "bad.tsv", ("a", "b"), [("x\ty", "z")])
    assert not (tmp_path / "bad.tsv").exists()


def test_read_tsv_contract(tmp_path):
    path = tmp_path / "t.tsv"
    ids = {"a": 0, "b": 1}
    path.write_text("name\tn\na\t1\n\nb\t2\n", encoding="utf-8")
    assert read_tsv(path, ("name", "n"), lambda f: (ids[f[0]], int(f[1]))) == [(0, 1), (1, 2)]
    cases = [
        ("", FormatError, "line 1: expected header"),
        ("name\tcount\n", FormatError, "line 1: expected header"),
        ("name\tn\na\t1\nb\n", RowError, "line 3: expected 2 columns, found 1"),
        ("name\tn\na\tone\n", RowError, "line 2: invalid literal"),
        ("name\tn\na\t1\nc\t2\n", ConsistencyError, "line 3: unknown mention 'c'"),
    ]
    for text, error, message in cases:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=f"t.tsv: {message}"):
            read_tsv(path, ("name", "n"), lambda f: (ids[f[0]], int(f[1])))


def test_iter_tsv_lenient_rows_name_the_stream_file(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("name\tn\na\t1\nb\n\nc\tx\nd\t4\n", encoding="utf-8")
    skipped = []
    with open_text(path) as fh:
        rows = list(iter_tsv(fh, ("name", "n"), lambda f: (f[0], int(f[1])), skipped))
    assert rows == [("a", 1), ("d", 4)]
    assert [err.line_number for err in skipped] == [3, 5]
    assert str(skipped[0]) == f"{path}: line 3: expected 2 columns, found 1"
    with pytest.raises(RowError, match=r"^line 3: expected 2 columns"):
        list(iter_tsv(io.StringIO("name\tn\na\t1\nb\n"), ("name", "n"), tuple))


@pytest.mark.parametrize("name", ["big.tsv", "big.tsv.gz"])
def test_read_tsv_names_first_line_that_is_not_utf8(tmp_path, name):
    # The bad byte sits far past the decoder's first chunk and its line.
    lines = ["name\tn"] + [f"m{i}\t{i}" for i in range(5000)]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    bad = data.replace(b"m2999\t", b"caf\xe9\t").replace(b"m4000\t", b"\xff\t")
    path = tmp_path / name
    path.write_bytes(gzip.compress(bad) if name.endswith(".gz") else bad)
    with pytest.raises(RowError, match=f"{name}: line 3001: not valid UTF-8"):
        read_tsv(path, ("name", "n"), lambda f: (f[0], int(f[1])))
    path.write_bytes(b"name\tn\xe9\n")
    with pytest.raises(RowError, match=f"{name}: line 1: not valid UTF-8"):
        read_tsv(path, ("name", "n"), tuple)


def _complete_gzip_lines(path) -> int:
    count = 0
    with gzip.open(path, "rb") as fh:
        try:
            for _ in fh:
                count += 1
        except EOFError:
            pass
    return count


def test_read_tsv_names_file_and_line_of_damaged_gzip(tmp_path):
    lines = ["name\tn"] + [f"m{i}\t{i}" for i in range(5000)]
    data = gzip.compress(("\n".join(lines) + "\n").encode("utf-8"), mtime=0)
    path = tmp_path / "big.tsv.gz"
    path.write_bytes(data[: len(data) // 2])
    line = _complete_gzip_lines(path) + 1
    with pytest.raises(RowError, match=f"big.tsv.gz: line {line}: gzip data is truncated"):
        read_tsv(path, ("name", "n"), lambda f: (f[0], int(f[1])))
    crc_flipped = data[:-8] + bytes([data[-8] ^ 0xFF]) + data[-7:]
    path.write_bytes(crc_flipped)
    with pytest.raises(RowError, match=r"big.tsv.gz: line \d+: gzip data is truncated or corrupt"):
        read_tsv(path, ("name", "n"), lambda f: (f[0], int(f[1])))
