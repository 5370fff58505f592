"""Corpus ingestion: raw mention TSVs, stable mention IDs, paper frequencies.

Raw corpora come in two layouts. The main-collection files carry thirteen
columns including license and version; the publishers' collection omits
license, location, pmcid, pmid and version. Files are UTF-8, tab separated,
one header row, and embedded quote characters are literal content.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import IO, Container, Iterable, Iterator, Mapping, NamedTuple

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


def assign_ids(mentions: Iterable[str]) -> tuple[dict[str, int], dict[int, str]]:
    """Assign dense IDs 0..N-1 over the sorted set of distinct mention strings.

    Deterministic and order-insensitive: the same multiset of inputs always
    produces the same tables.
    """
    distinct = sorted(set(mentions))
    id_table = {mention: idx for idx, mention in enumerate(distinct)}
    reverse = {idx: mention for mention, idx in id_table.items()}
    return id_table, reverse


def paper_key(record: MentionRecord) -> str | None:
    """Distinct-paper key: pmcid preferred, doi as fallback."""
    if record.pmcid:
        return f"pmcid:{record.pmcid}"
    if record.doi:
        return f"doi:{record.doi}"
    return None


def compute_frequencies(
    records: Iterable[MentionRecord], id_table: Mapping[str, int]
) -> FrequencyTable:
    """Count the number of distinct papers each mention appears in."""
    papers: dict[int, set[str]] = {}
    missing = 0
    for rec in records:
        mention_id = id_table[rec.software]
        key = paper_key(rec)
        if key is None:
            missing += 1
            key = "synthetic:missing-paper-key"
        papers.setdefault(mention_id, set()).add(key)
    counts = {mention_id: len(keys) for mention_id, keys in papers.items()}
    return FrequencyTable(counts=counts, missing_paper_key_rows=missing)


def write_id_table(path, id_table: Mapping[str, int]) -> None:
    rows = sorted(id_table.items(), key=lambda kv: kv[1])
    write_tsv(path, ("mention", "id"), ((m, str(i)) for m, i in rows))


def read_id_table(path) -> tuple[dict[str, int], dict[int, str]]:
    id_table = dict(read_tsv(path, ("mention", "id"), lambda f: (f[0], int(f[1]))))
    reverse = {i: m for m, i in id_table.items()}
    return id_table, reverse


def write_frequencies(path, freq: FrequencyTable, reverse: Mapping[int, str]) -> None:
    rows = sorted(freq.counts.items())
    write_tsv(
        path, ("mention", "frequency"), ((reverse[i], str(n)) for i, n in rows)
    )


def read_frequencies(path, id_table: Mapping[str, int]) -> FrequencyTable:
    rows = read_tsv(path, ("mention", "frequency"), lambda f: (id_table[f[0]], int(f[1])))
    return FrequencyTable(counts=dict(rows))
