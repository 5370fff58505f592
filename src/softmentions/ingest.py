"""Corpus ingestion: raw mention TSVs, stable mention IDs, paper frequencies.

Raw corpora come in two layouts. The main-collection files carry thirteen
columns including license and version; the publishers' collection omits
license, location, pmcid, pmid and version. Files are UTF-8, tab separated,
one header row, and embedded quote characters are literal content.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import IO, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import FormatError, RowError
from .fileio import iter_tsv, read_tsv, write_tsv

CURATION_LABELS = ("software", "not_software", "unclear", "not_curated")

MAIN_FIELDS = (
    "license",
    "location",
    "pmcid",
    "pmid",
    "doi",
    "pubdate",
    "source",
    "number",
    "text",
    "software",
    "version",
    "ID",
    "curation_label",
)
_PUBLISHERS_LACK = ("license", "location", "pmcid", "pmid", "version")
PUBLISHERS_FIELDS = tuple(name for name in MAIN_FIELDS if name not in _PUBLISHERS_LACK)

CORPUS_FIELDS: dict[str, tuple[str, ...]] = {
    "comm": MAIN_FIELDS,
    "non_comm": MAIN_FIELDS,
    "publishers": PUBLISHERS_FIELDS,
}


class CorpusRow(NamedTuple):
    """One corpus row: what the pipeline reads of it, and its text.

    ``line`` is the row's cells joined by tabs in the corpus kind's column
    order, with every integer cell in canonical decimal, an empty number as
    0 and an empty curation_label as not_curated; it is the row as
    disambiguated.tsv repeats it. pmcid is empty in a publishers corpus.
    """

    software: str
    pmcid: str
    doi: str
    line: str


def parse_mentions(
    stream: IO[str],
    corpus_kind: str,
    lenient: bool = False,
    errors: list[RowError] | None = None,
    known: Container[str] | None = None,
) -> Iterator[CorpusRow]:
    """Parse a raw mention TSV stream into CorpusRows.

    The stream follows the TSV contract of ``fileio.iter_tsv`` with the
    corpus kind's field list as its header. Malformed data rows raise
    RowError, or are skipped (and appended to ``errors``) when ``lenient``
    is set. With ``known``, a row whose mention it lacks raises
    ConsistencyError, lenient or not.
    """
    try:
        header = CORPUS_FIELDS[corpus_kind]
    except KeyError:
        raise FormatError(f"unknown corpus kind: {corpus_kind!r}") from None
    if lenient and errors is None:
        errors = []
    software_at, doi_at = header.index("software"), header.index("doi")
    number_at, label_at = header.index("number"), header.index("curation_label")
    pmcid_at = header.index("pmcid") if "pmcid" in header else None  # publishers lack it
    integers = [(header.index(name), name.lower()) for name in ("pubdate", "number", "ID")]
    labels = frozenset(CURATION_LABELS)

    # parse_chunk below must return None for every line that parse would
    # rewrite or reject: a check added here goes into parse_lines too.
    def parse(fields: list[str]) -> CorpusRow:
        software = fields[software_at]
        if not software.strip():
            raise ValueError("empty software mention")
        for index, name in integers:
            value = fields[index]
            if value:
                try:
                    fields[index] = str(int(value))
                except ValueError:
                    raise ValueError(f"{name} is not an integer: {value!r}") from None
        number = fields[number_at]
        if not number:
            fields[number_at] = "0"
        elif number[0] == "-":
            raise ValueError(f"negative number field: {number}")
        label = fields[label_at]
        if not label:
            fields[label_at] = "not_curated"
        elif label not in labels:
            raise ValueError(f"unknown curation_label: {label!r}")
        if known is not None and software not in known:
            raise KeyError(software)
        pmcid = "" if pmcid_at is None else fields[pmcid_at]
        return CorpusRow(software, pmcid, fields[doi_at], "\t".join(fields))

    width = len(header)

    def parse_chunk(text: str) -> list[CorpusRow | None]:
        """Each line's row where parse would keep the line as it is and raise nothing, else None."""
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the empty string after the last line's newline
        tabs = list(map(str.count, lines, repeat("\t")))
        if tabs.count(width - 1) == len(lines):
            return parse_lines(lines)
        # Blank lines and lines with a wrong column count are left to parse.
        rows: list[CorpusRow | None] = [None] * len(lines)
        at = [i for i, n in enumerate(tabs) if n == width - 1]
        for i, row in zip(at, parse_lines([lines[i] for i in at])):
            rows[i] = row
        return rows

    def parse_lines(lines: list[str]) -> list[CorpusRow | None]:
        """parse_chunk for lines of ``width`` cells each."""
        cells = "\t".join(lines).split("\t")
        software = cells[software_at::width]
        pmcids = repeat("") if pmcid_at is None else cells[pmcid_at::width]
        columns = zip(software, pmcids, cells[doi_at::width], lines)
        rows = list(map(tuple.__new__, repeat(CorpusRow), columns))
        # Each column is checked whole at C speed; only a column that fails
        # is checked cell by cell, to leave just its faulty lines to parse.
        checks = [
            (software, str.strip),
            (cells[number_at::width], len),
            (cells[label_at::width], labels.__contains__),
        ]
        if known is not None:
            checks.append((software, known.__contains__))
        for column, keep in checks:
            if not all(map(keep, column)):
                rows = [row if ok else None for row, ok in zip(rows, map(keep, column))]
        for index, _ in integers:
            column = cells[index::width]
            if not _canonical(column):
                rows = [row if ok else None for row, ok in zip(rows, map(_canonical_cell, column))]
        return rows

    return iter_tsv(stream, header, parse, errors if lenient else None, parse_chunk)


def _canonical(cells: list[str]) -> bool:
    """Whether each cell is empty or ASCII digits with no leading zero, which int and str keep."""
    digits = "".join(cells)
    if digits and not (digits.isascii() and digits.isdigit()):
        return False
    # Each cell that starts with a zero must be "0" itself.
    return ("\t" + "\t".join(cells)).count("\t0") == cells.count("0")


def _canonical_cell(cell: str) -> bool:
    """_canonical for one cell, to find the cells of a column that fails it."""
    return not cell or (cell.isascii() and cell.isdigit() and (cell[0] != "0" or cell == "0"))


def assign_ids(mentions: Iterable[str]) -> tuple[dict[str, int], list[str]]:
    """Assign dense IDs 0..N-1 over the sorted set of distinct mention strings.

    Returns the ID of each mention and the mentions in ID order. Deterministic
    and order-insensitive: the same multiset of inputs always produces the
    same tables.
    """
    distinct = sorted(set(mentions))
    return {mention: idx for idx, mention in enumerate(distinct)}, distinct


def compute_frequencies(
    rows: Iterable[CorpusRow], id_table: Mapping[str, int]
) -> tuple[dict[int, int], int]:
    """Each mention ID's number of distinct papers, and the number of rows without a paper key.

    A paper is its pmcid, else its doi, so a mention appearing many times
    within one paper counts once; rows with neither share one synthetic
    paper.
    """
    # Each mention's distinct pmcids and dois, kept apart so that a pmcid never
    # counts as the same paper as an equal doi; None is the synthetic paper.
    papers: dict[int, tuple[set[str], set[str | None]]] = defaultdict(lambda: (set(), set()))
    missing = 0
    for row in rows:
        pmcids, dois = papers[id_table[row.software]]
        if row.pmcid:
            pmcids.add(row.pmcid)
        elif row.doi:
            dois.add(row.doi)
        else:
            missing += 1
            dois.add(None)
    counts = {mention_id: len(pmcids) + len(dois) for mention_id, (pmcids, dois) in papers.items()}
    return counts, missing


ID_TABLE_HEADER = ("mention", "id")
FREQUENCIES_HEADER = ("mention", "frequency")


def write_id_table(path, mentions: Sequence[str]) -> None:
    write_tsv(path, ID_TABLE_HEADER, ((m, str(i)) for i, m in enumerate(mentions)))


def read_id_table(path) -> tuple[dict[str, int], list[str]]:
    """Each mention's ID and the mentions in ID order; row i must hold ID i and a new mention."""
    id_table: dict[str, int] = {}

    def row(fields: list[str]) -> str:
        mention, mention_id = fields[0], int(fields[1])
        if mention_id != len(id_table):
            raise ValueError(f"ID {mention_id} is not the row's position {len(id_table)}")
        if id_table.setdefault(mention, mention_id) != mention_id:
            raise ValueError(f"mention {mention!r} already has ID {id_table[mention]}")
        return mention

    mentions = read_tsv(path, ID_TABLE_HEADER, row)
    return id_table, mentions


def write_frequencies(path, freq: Mapping[int, int], mentions: Sequence[str]) -> None:
    rows = sorted(freq.items())
    write_tsv(path, FREQUENCIES_HEADER, ((mentions[i], str(n)) for i, n in rows))


def read_frequencies(path, id_table: Mapping[str, int]) -> dict[int, int]:
    """Each listed mention's paper count; a mention is listed once, with a count of 0 or more."""
    counts: dict[int, int] = {}

    def row(fields: list[str]) -> None:
        mention_id, count = id_table[fields[0]], int(fields[1])
        if count < 0:
            raise ValueError(f"negative frequency {count}")
        if mention_id in counts:
            raise ValueError(f"mention {fields[0]!r} is listed again")
        counts[mention_id] = count

    read_tsv(path, FREQUENCIES_HEADER, row)
    return counts
