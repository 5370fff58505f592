"""Small file helpers: transparent gzip, crash-safe writes, the TSV contract.

Tab-separated files in this project carry no quoting semantics: embedded
quote characters are literal content, fields may not contain tabs or
newlines. Comma-separated evaluation files do follow the usual CSV
conventions and are handled with the csv module where they are read.
"""
from __future__ import annotations

import gzip
import io
import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ConsistencyError, FormatError, RowError

T = TypeVar("T")

GZIP_MAGIC = b"\x1f\x8b"


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
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
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
        raise RowError(data.count(b"\n", 0, start) + 1, "not valid UTF-8", path) from None
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        if path is None:
            raise
        lines = 0
        decompressor = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
        with open(path, "rb") as fh:
            try:
                for chunk in iter(lambda: fh.read(1024), b""):
                    lines += decompressor.decompress(chunk).count(b"\n")
            except zlib.error:
                pass
        message = f"gzip data is truncated or corrupt ({err})"
        raise RowError(lines + 1, message, path) from None


def iter_tsv(
    stream: IO[str],
    header: Sequence[str],
    row: Callable[[list[str]], T],
    skipped: list[RowError] | None = None,
) -> Iterator[T]:
    """Convert each data row of a headed TSV stream with ``row(fields)``.

    The first line must equal ``header`` exactly, blank lines are skipped
    and every other line must have one field per header column. A
    ValueError raised by ``row`` becomes a RowError (appended to
    ``skipped`` instead, when given), a KeyError (an unknown mention) a
    ConsistencyError; each names the stream's file, if any, and the line.
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
        for lineno, line in enumerate(stream, start=2):
            fields = line.rstrip("\n").rstrip("\r").split("\t")
            if fields == [""]:
                continue
            try:
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


def read_tsv(
    path: str | os.PathLike[str], header: Sequence[str], row: Callable[[list[str]], T]
) -> list[T]:
    """Read a headed TSV artifact: every row ``iter_tsv`` converts from it."""
    with open_text(path) as fh:
        return list(iter_tsv(fh, header, row))


def format_tsv(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Tab-join the header and rows; a field holding a tab or newline is an error.

    Every line holds one tab fewer than it has fields, so counting tabs and
    line breaks over the whole text finds a bad field without a per-field
    scan; the fields are inspected only to name the culprit.
    """
    rows = list(rows)
    lines = ["\t".join(header)]
    lines.extend("\t".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    tabs = len(header) - 1 + sum(map(len, rows)) - len(rows)
    if text.count("\t") != tabs or text.count("\n") != len(lines) or "\r" in text:
        for lineno, fields in enumerate([header, *rows], start=1):
            for column, value in zip(header, fields):
                if "\t" in value or "\n" in value or "\r" in value:
                    raise FormatError(
                        f"line {lineno}: column {column!r} holds a tab or line break: {value!r}"
                    )
    return text


def write_tsv(path: str | os.PathLike[str], header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    try:
        text = format_tsv(header, rows)
    except FormatError as err:
        raise FormatError(f"{path}: {err}") from None
    write_text(path, text)


def read_lines(path: str | os.PathLike[str]) -> list[str]:
    """Newline-delimited values; blank lines and '#' comments dropped."""
    out = []
    with open_text(path) as fh, decode_errors(path):
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if line and not line.startswith("#"):
                out.append(line)
    return out
