"""Small file helpers: transparent gzip, crash-safe writes, the TSV contract.

Tab-separated files in this project carry no quoting semantics: embedded
quote characters are literal content, fields may not contain tabs or
line breaks. Comma-separated evaluation files do follow the usual CSV
conventions and are handled with the csv module where they are read.
"""
from __future__ import annotations

import gzip
import io
import json
import os
import re
import zlib
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ConsistencyError, FormatError, RowError

T = TypeVar("T")

GZIP_MAGIC = b"\x1f\x8b"

# About 40 KB of corpus lines: little memory, still in cache when counted.
CHUNK_LINES = 256


def _open_bytes(path: str | os.PathLike[str]) -> IO[bytes]:
    """Open a plain or gzipped file's content, sniffing the magic bytes."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == GZIP_MAGIC else open(path, "rb")


def open_text(path: str | os.PathLike[str]) -> IO[str]:
    """Open a plain or gzipped file as UTF-8 text."""
    return io.TextIOWrapper(_open_bytes(path), encoding="utf-8", newline="")


def write_text(path: str | os.PathLike[str], data: str | Iterable[str]) -> None:
    """Write UTF-8 text, given whole or as chunks; a .gz suffix selects gzip with mtime 0.

    Pinning mtime keeps gzipped outputs byte-identical across runs, which
    the determinism contract requires. The text goes to a temporary file
    in the same directory that then replaces ``path``, so a failed write,
    or chunks that raise partway, leave the previous file (or none), never
    a truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Named apart from ``path``, so any name the file system takes can be written.
    tmp = path.with_name(f".{os.getpid()}.tmp")
    chunks = [data] if isinstance(data, str) else data
    try:
        with open(tmp, "wb") as raw:
            # The gzip header records the file name: keep the final one.
            gz = None
            if path.suffix == ".gz":
                gz = gzip.GzipFile(str(path), "wb", fileobj=raw, mtime=0)
            with io.TextIOWrapper(gz or raw, encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The name of write_text's temporary file, which a process killed mid-write leaves behind.
TEMPORARY_NAME = re.compile(r"\.[0-9]+\.tmp")


def remove_temporaries(directory: str | os.PathLike[str]) -> None:
    """Delete every file in ``directory`` named as write_text's temporary files are.

    A process writing into the same directory at the time loses its
    temporary file, so its write fails and leaves the previous file.
    """
    try:
        names = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        return
    for name in names:
        if TEMPORARY_NAME.fullmatch(name):
            Path(directory, name).unlink(missing_ok=True)


def count_line_ends(data: bytes, before: bytes = b"") -> int:
    """The line ends in ``data`` where open_text splits lines: at \\n, \\r\\n and a lone \\r.

    ``before`` is the byte that precedes ``data``, if any: a \\r there and a
    \\n first in ``data`` are one line end, counted with the \\r.
    """
    ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
    return ends - (before == b"\r" and data[:1] == b"\n")


@contextmanager
def decode_errors(path: str | os.PathLike[str] | None) -> Iterator[None]:
    """Turn unreadable content of ``path`` into a RowError at its line.

    Bytes that are not UTF-8 and truncated gzip data are reported at the
    first line they spoil. Corrupt gzip data is reported at the first line
    left undecoded when decompressing 1 KB at a time stops at the damage.
    The decoders fail a whole chunk ahead of the lines they have handed
    out, so only this error path reads the raw bytes again to find the line.
    """
    try:
        yield
    except UnicodeDecodeError:
        if path is None:
            raise
        with _open_bytes(path) as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
            start = len(data)
        except UnicodeDecodeError as err:
            start = err.start
        raise RowError(count_line_ends(data[:start]) + 1, "not valid UTF-8", path) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        if path is None:
            raise
        lines, last = 0, b""
        decompressor = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        with open(path, "rb") as fh:
            try:
                for chunk in iter(lambda: fh.read(1024), b""):
                    text = decompressor.decompress(chunk)
                    lines += count_line_ends(text, last)
                    last = text[-1:] or last
            except zlib.error:
                pass
        message = f"gzip data is truncated or corrupt ({err})"
        raise RowError(lines + 1, message, path) from None


def iter_tsv(
    stream: IO[str],
    header: Sequence[str],
    row: Callable[[list[str]], T],
    skipped: list[RowError] | None = None,
    bulk: Callable[[str], list[T] | None] | None = None,
) -> Iterator[T]:
    """Convert each data row of a headed TSV stream with ``row(fields)``.

    The first line must equal ``header`` exactly, blank lines are skipped
    and every other line must have one field per header column. A line
    that still holds a carriage return once its terminator is stripped
    (open_text splits lines there, a stream such as io.StringIO does not)
    or a ValueError raised by ``row`` becomes a RowError (appended to
    ``skipped`` instead, when given), a KeyError (an unknown mention) a
    ConsistencyError; each names the stream's file, if any, and the line.

    Lines are read CHUNK_LINES at a time. With ``bulk``, each chunk is first
    offered whole to ``bulk(text)``, its \\r\\n line ends as \\n, unless a
    carriage return remains. ``bulk`` returns the item ``row`` would give for
    each line, in order, or None to send the whole chunk line by line through
    ``row``, as it must for a chunk holding a blank line or any line that
    ``row`` would reject or raise on.
    """
    name = getattr(stream, "name", None)
    where = "line" if name is None else f"{name}: line"
    header = list(header)
    width = len(header)
    with decode_errors(name):
        first = stream.readline()
        found = first.rstrip("\n").rstrip("\r").split("\t") if first else None
        if found != header:
            raise FormatError(f"{where} 1: expected header {header}, found {found}")
        start = 2
        while True:
            batch: list[str] = []
            failure = None
            try:
                # list.extend keeps the lines read before a read fails, so they
                # are converted before the failure is raised, as line by line.
                batch.extend(islice(stream, CHUNK_LINES))
            except (UnicodeDecodeError, EOFError, OSError, zlib.error) as err:
                failure = err
            items = None
            if bulk is not None and batch:
                text = "".join(batch).replace("\r\n", "\n")
                if "\r" not in text:
                    items = bulk(text)
            if items is not None:
                yield from items
            else:
                for lineno, line in enumerate(batch, start):
                    line = line.rstrip("\n").rstrip("\r")
                    fields = line.split("\t")
                    if fields == [""]:
                        continue
                    try:
                        if "\r" in line:
                            raise ValueError("carriage return inside the line")
                        if len(fields) != width:
                            raise ValueError(f"expected {width} columns, found {len(fields)}")
                        item = row(fields)
                    except ValueError as err:
                        if skipped is None:
                            raise RowError(lineno, str(err), name) from None
                        skipped.append(RowError(lineno, str(err), name))
                        continue
                    except KeyError as err:
                        message = f"{where} {lineno}: unknown mention {err.args[0]!r}"
                        raise ConsistencyError(message) from None
                    yield item
            if failure is not None:
                raise failure
            if len(batch) < CHUNK_LINES:
                return
            start += CHUNK_LINES


def read_tsv(
    path: str | os.PathLike[str], header: Sequence[str], row: Callable[[list[str]], T]
) -> list[T]:
    """Read a headed TSV artifact: every row ``iter_tsv`` converts from it."""
    with open_text(path) as fh:
        return list(iter_tsv(fh, header, row))


def _line_fault(header: Sequence[str], row: Sequence[str]) -> str | None:
    """What keeps ``row`` from being one line of ``header``'s fields, if anything."""
    fields = row if len(row) == len(header) else "\t".join(row).split("\t")
    for column, value in zip(header, fields):
        if "\t" in value or "\n" in value or "\r" in value:
            return f"column {column!r} holds a tab or line break: {value!r}"
    if len(fields) != len(header):
        return f"expected {len(header)} fields, found {len(fields)}"
    return None


def write_tsv(path: str | os.PathLike[str], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Stream a headed TSV artifact to ``path`` through write_text, CHUNK_LINES lines at a time.

    A row's cells may join several columns ahead if its line has one field
    per column. A chunk must hold one tab fewer than the header has columns
    per line, one newline per line and no carriage return (a line short of
    fields passes only beside one with as many tabs too many). Only a chunk
    that fails is searched for its first bad line, which raises FormatError
    naming ``path``, the line and, where it can, the column.
    """
    tabs = len(header) - 1
    lines = chain([header], rows)

    def chunks() -> Iterator[str]:
        start = 1
        while batch := list(islice(lines, CHUNK_LINES)):
            # The "" after the last line gives it its newline without copying the text.
            text, count = "\n".join(chain(map("\t".join, batch), [""])), len(batch)
            if text.count("\t") != tabs * count or text.count("\n") != count or "\r" in text:
                for lineno, row in enumerate(batch, start):
                    if fault := _line_fault(header, row):
                        raise FormatError(f"{path}: line {lineno}: {fault}")
            yield text
            start += count

    write_text(path, chunks())


def read_json(path: str | os.PathLike[str]):
    """A UTF-8 file's JSON; ValueError if it is not, or if UTF-8 cannot encode a string in it."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    document = json.loads(text)
    if "\\u" in text:  # only a \u escape can give a string a lone surrogate
        json.dumps(document, ensure_ascii=False).encode("utf-8")
    return document


def read_lines(path: str | os.PathLike[str]) -> list[str]:
    """Newline-delimited values; blank lines and '#' comments dropped."""
    out = []
    with open_text(path) as fh, decode_errors(path):
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if line and not line.startswith("#"):
                out.append(line)
    return out
