import gzip
import io
import os
import re
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from softmentions import fileio
from softmentions.errors import ConsistencyError, FormatError, RowError
from softmentions.fileio import (
    CHUNK_LINES,
    count_line_ends,
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


def test_write_tsv_rejects_tabs_and_line_breaks(tmp_path):
    path = tmp_path / "t.tsv"
    write_tsv(path, ("a", "b"), [("x", "y")])
    assert path.read_bytes() == b"a\tb\nx\ty\n"
    for bad in ("y\tz", "y\nz", "y\rz"):
        with pytest.raises(FormatError, match="t.tsv: line 3: column 'b' holds a tab or line"):
            write_tsv(path, ("a", "b"), [("x", "y"), ("x", bad)])
    assert path.read_bytes() == b"a\tb\nx\ty\n"
    with pytest.raises(FormatError, match=re.escape(r"bad.tsv: line 1: column 'a\r'")):
        write_tsv(tmp_path / "bad.tsv", ("a\r", "b"), [])
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]


def test_write_tsv_takes_cells_joined_ahead_if_each_line_has_one_field_per_column(tmp_path):
    path = tmp_path / "t.tsv"
    write_tsv(path, ("a", "b", "c"), [("x\ty", "z"), ("x", "y\tz")])
    assert path.read_bytes() == b"a\tb\tc\nx\ty\tz\nx\ty\tz\n"
    cases = [
        (("x", "y"), "line 3: expected 3 fields, found 2"),
        (("x\ty\tz", "w"), "line 3: expected 3 fields, found 4"),
        (("x\ty\rw", "z"), r"line 3: column 'b' holds a tab or line break: 'y\rw'"),
    ]
    for row, message in cases:
        with pytest.raises(FormatError, match=re.escape(f"t.tsv: {message}")):
            write_tsv(path, ("a", "b", "c"), [("x\ty", "z"), row])
    assert path.read_bytes() == b"a\tb\tc\nx\ty\tz\nx\ty\tz\n"


# Any text a cell may hold; open_text must not split lines at the separators
# other than \n and \r that str.splitlines knows.
_CELLS = st.text(
    st.one_of(
        st.sampled_from("\u2028\u2029\x85\x0b\x0c\x1c"),
        st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",)),
    ),
    max_size=6,
)


@st.composite
def _tables(draw):
    """A header of 2-4 columns and rows repeating a few drawn rows over up to three chunks."""
    width = draw(st.integers(2, 4))
    row = st.lists(_CELLS, min_size=width, max_size=width)
    header, distinct = draw(row), draw(st.lists(row, min_size=1, max_size=4))
    count = draw(st.integers(0, 3 * CHUNK_LINES))
    return header, [distinct[i % len(distinct)] for i in range(count)]


@settings(max_examples=30, deadline=None)
@given(table=_tables(), name=st.sampled_from(["t.tsv", "t.tsv.gz"]))
def test_write_tsv_then_read_tsv_returns_the_rows(tmp_path_factory, table, name):
    header, rows = table
    path = tmp_path_factory.mktemp("tsv") / name
    write_tsv(path, header, rows)
    assert read_tsv(path, header, list) == rows


@settings(max_examples=20, deadline=None)
@given(
    lineno=st.integers(CHUNK_LINES + 1, 3 * CHUNK_LINES + 1),
    column=st.sampled_from(["name", "n"]),
    bad=st.sampled_from(["\t", "\n", "\r", "\r\n"]),
    name=st.sampled_from(["t.tsv", "t.tsv.gz"]),
)
def test_bad_cell_in_a_later_chunk_keeps_previous_file(tmp_path_factory, lineno, column, bad, name):
    path = tmp_path_factory.mktemp("tsv") / name
    write_text(path, "previous\n")
    before = path.read_bytes()
    rows = [{"name": f"m{i}", "n": str(i)} for i in range(3 * CHUNK_LINES)]
    rows[lineno - 2][column] += bad
    with pytest.raises(FormatError, match=f"{name}: line {lineno}: column '{column}'"):
        write_tsv(path, ("name", "n"), ([row["name"], row["n"]] for row in rows))
    assert path.read_bytes() == before
    assert os.listdir(path.parent) == [name]


@pytest.mark.parametrize(
    "ends, offered",
    [
        # Line 1 ends in \r\n, so chunk 0-3 is offered with \n in its place.
        ({1: "\r\n"}, [range(0, 4), range(4, 8), range(8, 12), range(12, 16)]),
        # Line 5 ends in a lone \r, which keeps chunk 4-7 from bulk.
        ({5: "\r"}, [range(0, 4), range(8, 12), range(12, 16)]),
    ],
)
def test_iter_tsv_sends_refused_chunks_through_row(monkeypatch, ends, offered):
    monkeypatch.setattr(fileio, "CHUNK_LINES", 4)
    rejected = {6, 14}  # row raises for these; bulk refuses their chunks
    # newline="" splits lines at a lone \r too, as open_text does.
    text = "n\n" + "".join(f"{i}{ends.get(i, chr(10))}" for i in range(16))
    stream = io.StringIO(text, newline="")
    seen = []

    def bulk(text):
        assert "\r" not in text
        numbers = [int(line) for line in text.split()]
        seen.append(numbers)
        return None if rejected & set(numbers) else [("bulk", n) for n in numbers]

    def row(fields):
        if int(fields[0]) in rejected:
            raise ValueError("rejected")
        return ("row", int(fields[0]))

    skipped = []
    got = list(iter_tsv(stream, ["n"], row, skipped, bulk))
    assert seen == [list(chunk) for chunk in offered]
    via_row = {*range(4, 8), *range(12, 16)}
    assert got == [("row" if n in via_row else "bulk", n) for n in range(16) if n not in rejected]
    assert [err.line_number for err in skipped] == [8, 16]


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


@given(st.text(alphabet="a\r\n").map(str.encode))
@example(b"a\r\nb\r\r\n\n")
def test_count_line_ends_counts_the_lines_open_text_ends_whole_or_byte_by_byte(data):
    ended = [line for line in io.StringIO(data.decode("ascii"), newline="") if line[-1] in "\r\n"]
    # One byte at a time splits every \r\n across two chunks.
    before, bytewise = b"", 0
    for i in range(len(data)):
        bytewise += count_line_ends(data[i : i + 1], before)
        before = data[i : i + 1]
    assert bytewise == count_line_ends(data) == len(ended)


def test_damaged_gzip_counts_carriage_returns_as_line_ends(tmp_path):
    lines = ["name\tn"] + [f"m{i}\t{i}" for i in range(5000)]
    text = "".join(line + ("\r\n", "\r")[i % 2] for i, line in enumerate(lines))
    data = gzip.compress(text.encode("utf-8"), mtime=0)
    path = tmp_path / "cr.tsv.gz"
    path.write_bytes(data[: len(data) // 2])
    decompressed = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS).decompress(path.read_bytes())
    ended = [line for line in io.StringIO(decompressed.decode("utf-8"), newline="")
             if line[-1] in "\r\n"]
    with pytest.raises(RowError, match=f"cr.tsv.gz: line {len(ended) + 1}: gzip data is truncated"):
        read_tsv(path, ("name", "n"), lambda f: (f[0], int(f[1])))


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
