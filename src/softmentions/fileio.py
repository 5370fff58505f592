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
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import ConsistencyError, FormatError, RowError

T = TypeVar("T")

GZIP_MAGIC = b"\x1f\x8b"


def open_text(path: str | os.PathLike[str]) -> IO[str]:
    """Open a plain or gzipped file as UTF-8 text, sniffing the magic bytes."""
    path = Path(path)
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == GZIP_MAGIC:
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def write_text(path: str | os.PathLike[str], data: str) -> None:
    """Write UTF-8 text; a .gz suffix selects gzip with mtime pinned to 0.

    Pinning mtime keeps gzipped outputs byte-identical across runs, which
    the determinism contract requires. The text goes to a temporary file
    in the same directory that then replaces ``path``, so a failed write
    leaves the previous file (or none), never a truncated one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if path.suffix == ".gz":
            # The gzip header records the file name: keep the final one.
            with open(tmp, "wb") as raw:
                with gzip.GzipFile(str(path), "wb", fileobj=raw, mtime=0) as gz:
                    gz.write(data.encode("utf-8"))
        else:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def iter_tsv_rows(stream: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) pairs. Tabs separate, no quote handling."""
    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n").rstrip("\r")
        yield lineno, line.split("\t")


def read_tsv(
    path: str | os.PathLike[str], header: Sequence[str], row: Callable[[list[str]], T]
) -> list[T]:
    """Read a headed TSV artifact, converting each data row with ``row(fields)``.

    The first line must equal ``header`` exactly, blank lines are skipped
    and every other line must have one field per header column. A
    ValueError raised by ``row`` becomes a RowError, a KeyError (an unknown
    mention) a ConsistencyError; every error names the file and the line.
    """
    header = list(header)
    width = len(header)
    out = []
    with open_text(path) as fh:
        rows = iter_tsv_rows(fh)
        found = next(rows, (1, None))[1]
        if found != header:
            raise FormatError(f"{path}: line 1: expected header {header}, found {found}")
        for lineno, fields in rows:
            if fields == [""]:
                continue
            if len(fields) != width:
                raise RowError(lineno, f"expected {width} columns, found {len(fields)}", path)
            try:
                out.append(row(fields))
            except ValueError as err:
                raise RowError(lineno, str(err), path) from None
            except KeyError as err:
                raise ConsistencyError(
                    f"{path}: line {lineno}: unknown mention {err.args[0]!r}"
                ) from None
    return out


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
    with open_text(path) as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if line and not line.startswith("#"):
                out.append(line)
    return out
