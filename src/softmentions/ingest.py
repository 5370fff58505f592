"""Corpus ingestion: raw mention TSVs, stable mention IDs, paper frequencies.

Raw corpora come in two layouts. The main-collection files carry thirteen
columns including license and version; the publishers' collection omits
license, location, pmcid, pmid and version. Files are UTF-8, tab separated,
one header row, and embedded quote characters are literal content.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
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
PUBLISHERS_FIELDS = (
    "doi",
    "pubdate",
    "source",
    "number",
    "text",
    "software",
    "ID",
    "curation_label",
)

CORPUS_FIELDS: dict[str, tuple[str, ...]] = {
    "comm": MAIN_FIELDS,
    "non_comm": MAIN_FIELDS,
    "publishers": PUBLISHERS_FIELDS,
}


class MentionRecord(NamedTuple):
    """One NER-extracted software mention with its paper provenance.

    An immutable, hashable named tuple; ``_replace`` makes a changed copy.
    """

    software: str
    text: str = ""
    license: str = ""
    location: str = ""
    pmcid: str = ""
    pmid: str = ""
    doi: str = ""
    pubdate: int | None = None
    source: str = ""
    number: int = 0
    version: str = ""
    id: int | None = None
    curation_label: str = "not_curated"


@dataclass
class FrequencyTable:
    """Distinct-paper counts per mention ID.

    A mention appearing many times within one paper counts once; records
    lacking both pmcid and doi fall into one synthetic paper per call and
    are tallied in missing_paper_key_rows.
    """

    counts: dict[int, int] = field(default_factory=dict)
    missing_paper_key_rows: int = 0

    def get(self, mention_id: int) -> int:
        return self.counts.get(mention_id, 0)


# Each integer field's position, its name and the value an empty cell stands for.
_INTEGERS = tuple(
    (MentionRecord._fields.index(name), name, default)
    for name, default in (("pubdate", None), ("number", 0), ("id", None))
)
_NUMBER = MentionRecord._fields.index("number")
_LABEL = MentionRecord._fields.index("curation_label")


def _corpus_layout(corpus_kind: str) -> tuple[tuple[str, ...], list[str]]:
    """The corpus kind's header and the MentionRecord field of each column.

    Every column is named after its field, ID after id.
    """
    try:
        header = CORPUS_FIELDS[corpus_kind]
    except KeyError:
        raise FormatError(f"unknown corpus kind: {corpus_kind!r}") from None
    return header, [name.lower() for name in header]


def parse_mentions(
    stream: IO[str],
    corpus_kind: str,
    lenient: bool = False,
    errors: list[RowError] | None = None,
    known: Container[str] | None = None,
) -> Iterator[MentionRecord]:
    """Parse a raw mention TSV stream into MentionRecords.

    The stream follows the TSV contract of ``fileio.iter_tsv`` with the
    corpus kind's field list as its header. Malformed data rows raise
    RowError, or are skipped (and appended to ``errors``) when ``lenient``
    is set. With ``known``, a row whose mention it lacks raises
    ConsistencyError, lenient or not.
    """
    header, attrs = _corpus_layout(corpus_kind)
    if lenient and errors is None:
        errors = []
    # Each field's column; a field the layout lacks reads the empty cell
    # appended to every row, one past the last column.
    missing = len(header)
    take = itemgetter(
        *(attrs.index(name) if name in attrs else missing for name in MentionRecord._fields)
    )

    def record(fields: list[str]) -> MentionRecord:
        fields.append("")
        values = [*take(fields)]
        software = values[0]
        if not software.strip():
            raise ValueError("empty software mention")
        for index, name, default in _INTEGERS:
            value = values[index]
            try:
                values[index] = int(value) if value else default
            except ValueError:
                raise ValueError(f"{name} is not an integer: {value!r}") from None
        if values[_NUMBER] < 0:
            raise ValueError(f"negative number field: {values[_NUMBER]}")
        label = values[_LABEL] = values[_LABEL] or "not_curated"
        if label not in CURATION_LABELS:
            raise ValueError(f"unknown curation_label: {label!r}")
        if known is not None and software not in known:
            raise KeyError(software)
        return MentionRecord._make(values)

    return iter_tsv(stream, header, record, errors if lenient else None)


def corpus_rows(
    records: Iterable[MentionRecord], corpus_kind: str
) -> tuple[tuple[str, ...], list[list[str]]]:
    """The corpus kind's header and every record's fields in its column order.

    An integer field is written as its decimal digits, or empty for None.
    """
    header, attrs = _corpus_layout(corpus_kind)
    fields = MentionRecord._fields
    values = itemgetter(*(fields.index(name) for name in attrs))
    integers = [attrs.index(name) for _, name, _ in _INTEGERS]
    rows = []
    for rec in records:
        row = [*values(rec)]
        for index in integers:
            value = row[index]
            row[index] = "" if value is None else str(value)
        rows.append(row)
    return header, rows


def assign_ids(mentions: Iterable[str]) -> tuple[dict[str, int], list[str]]:
    """Assign dense IDs 0..N-1 over the sorted set of distinct mention strings.

    Returns the ID of each mention and the mentions in ID order. Deterministic
    and order-insensitive: the same multiset of inputs always produces the
    same tables.
    """
    distinct = sorted(set(mentions))
    return {mention: idx for idx, mention in enumerate(distinct)}, distinct


def compute_frequencies(
    records: Iterable[MentionRecord], id_table: Mapping[str, int]
) -> FrequencyTable:
    """Count the number of distinct papers each mention appears in.

    A paper is its pmcid, else its doi; rows with neither share one
    synthetic paper.
    """
    # Each mention's distinct pmcids and dois, kept apart so that a pmcid never
    # counts as the same paper as an equal doi; None is the synthetic paper.
    papers: dict[int, tuple[set[str], set[str | None]]] = defaultdict(lambda: (set(), set()))
    missing = 0
    for rec in records:
        pmcids, dois = papers[id_table[rec.software]]
        if rec.pmcid:
            pmcids.add(rec.pmcid)
        elif rec.doi:
            dois.add(rec.doi)
        else:
            missing += 1
            dois.add(None)
    counts = {mention_id: len(pmcids) + len(dois) for mention_id, (pmcids, dois) in papers.items()}
    return FrequencyTable(counts=counts, missing_paper_key_rows=missing)


def write_id_table(path, mentions: Sequence[str]) -> None:
    write_tsv(path, ("mention", "id"), ((m, str(i)) for i, m in enumerate(mentions)))


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

    mentions = read_tsv(path, ("mention", "id"), row)
    return id_table, mentions


def write_frequencies(path, freq: FrequencyTable, mentions: Sequence[str]) -> None:
    rows = sorted(freq.counts.items())
    write_tsv(
        path, ("mention", "frequency"), ((mentions[i], str(n)) for i, n in rows)
    )


def read_frequencies(path, id_table: Mapping[str, int]) -> FrequencyTable:
    rows = read_tsv(path, ("mention", "frequency"), lambda f: (id_table[f[0]], int(f[1])))
    return FrequencyTable(counts=dict(rows))
