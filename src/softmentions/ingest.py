"""Corpus ingestion: raw mention TSVs, stable mention IDs, paper frequencies.

Raw corpora come in two layouts. The main-collection files carry thirteen
columns including license and version; the publishers' collection omits
license, location, pmcid, pmid and version. Files are UTF-8, tab separated,
one header row, and embedded quote characters are literal content.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from typing import IO, Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Sequence

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

    ``line`` is the row's cells as the cell rules fix them, joined by tabs
    in the corpus kind's column order: the row as disambiguated.tsv repeats
    it. pmcid is empty in a publishers corpus.
    """

    software: str
    pmcid: str
    doi: str
    line: str


def parse_mentions(
    stream: IO[str],
    corpus_kind: str,
    skipped: list[RowError] | None = None,
    known: Container[str] | None = None,
) -> Iterator[CorpusRow]:
    """Parse a raw mention TSV stream into CorpusRows.

    The stream follows the TSV contract of ``fileio.iter_tsv`` with the
    corpus kind's field list as its header; each row's cells go through
    the cell rules. A malformed data row raises RowError or, when a
    ``skipped`` list is given, is appended to it. With ``known``, a row
    whose mention it lacks raises ConsistencyError, skipped or not.
    """
    try:
        header = CORPUS_FIELDS[corpus_kind]
    except KeyError:
        raise FormatError(f"unknown corpus kind: {corpus_kind!r}") from None
    software_at, doi_at = header.index("software"), header.index("doi")
    pmcid_at = header.index("pmcid") if "pmcid" in header else None  # publishers lack it
    rules = [(header.index(column), keeps, fix) for column, keeps, fix in _cell_rules(known)]
    width = len(header)

    def parse(fields: list[str]) -> CorpusRow:
        for at, _, fix in rules:
            fields[at] = fix(fields[at])
        pmcid = "" if pmcid_at is None else fields[pmcid_at]
        return CorpusRow(fields[software_at], pmcid, fields[doi_at], "\t".join(fields))

    def parse_chunk(text: str) -> list[CorpusRow] | None:
        """Each line's row, or None if a line is blank, misshapen or refused by a cell rule."""
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the empty string after the last line's newline
        if set(map(str.count, lines, repeat("\t"))) != {width - 1}:
            return None
        cells = "\t".join(lines).split("\t")
        changed = set()
        for at, keeps, fix in rules:
            column = cells[at::width]
            if keeps(column):
                continue
            for i, cell in enumerate(column):
                try:
                    fixed = fix(cell)
                except (ValueError, KeyError):
                    return None
                if fixed != cell:
                    cells[i * width + at] = fixed
                    changed.add(i)
        for i in changed:
            lines[i] = "\t".join(cells[i * width:(i + 1) * width])
        pmcids = repeat("") if pmcid_at is None else cells[pmcid_at::width]
        columns = zip(cells[software_at::width], pmcids, cells[doi_at::width], lines)
        return list(map(tuple.__new__, repeat(CorpusRow), columns))

    return iter_tsv(stream, header, parse, skipped, parse_chunk)


def _canonical(cells: list[str]) -> bool:
    """Whether each cell is empty or ASCII digits with no leading zero, which int and str keep."""
    digits = "".join(cells)
    if digits and not (digits.isascii() and digits.isdigit()):
        return False
    # Each cell that starts with a zero must be "0" itself.
    return ("\t" + "\t".join(cells)).count("\t0") == cells.count("0")


def _cell_rules(known: Container[str] | None) -> list[tuple[str, Callable, Callable]]:
    """Each rule a corpus cell must pass, in the order a row's first fault is reported.

    A rule is a column; a C-speed test that the whole column passes only
    where the fix keeps each cell, so that only a column that fails is
    fixed cell by cell; and the fix, which gives the cell as disambiguated.tsv
    writes it or raises the row's ValueError (KeyError for an unknown mention).
    """

    def mention(cell: str) -> str:
        if not cell.strip():
            raise ValueError("empty software mention")
        return cell

    def integer(name: str, cell: str) -> str:
        try:
            return str(int(cell)) if cell else cell
        except ValueError:
            raise ValueError(f"{name} is not an integer: {cell!r}") from None

    def number(cell: str) -> str:
        if cell.startswith("-"):
            raise ValueError(f"negative number field: {cell}")
        return cell or "0"

    def label(cell: str) -> str:
        if cell and cell not in CURATION_LABELS:
            raise ValueError(f"unknown curation_label: {cell!r}")
        return cell or "not_curated"

    def listed(cell: str) -> str:
        if cell not in known:
            raise KeyError(cell)
        return cell

    rules = [
        ("software", lambda column: all(map(str.strip, column)), mention),
        ("pubdate", _canonical, lambda cell: integer("pubdate", cell)),
        ("number", _canonical, lambda cell: integer("number", cell)),
        ("ID", _canonical, lambda cell: integer("id", cell)),
        # After the ID rule: a row with a negative number and a bad ID reports the ID.
        ("number", lambda column: all(column) and _canonical(column), number),
        ("curation_label", frozenset(CURATION_LABELS).issuperset, label),
    ]
    if known is not None:
        rules.append(("software", lambda column: all(map(known.__contains__, column)), listed))
    return rules


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
    """Each mention's ID and the mentions in ID order.

    Row i must hold ID i and a mention that sorts strictly after row i-1's,
    as assign_ids writes them, so the lower of two IDs is the smaller mention.
    """
    id_table: dict[str, int] = {}
    previous = ""

    def row(fields: list[str]) -> str:
        nonlocal previous
        mention, mention_id = fields[0], int(fields[1])
        if mention_id != len(id_table):
            raise ValueError(f"ID {mention_id} is not the row's position {len(id_table)}")
        if id_table and mention <= previous:
            raise ValueError(f"mention {mention!r} does not sort after {previous!r}")
        id_table[mention] = mention_id
        previous = mention
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
