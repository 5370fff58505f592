"""Corpus ingestion: raw mention TSVs, stable mention IDs, paper frequencies.

Raw corpora come in two layouts. The main-collection files carry thirteen
columns including license and version; the publishers' collection omits
license, location, pmcid, pmid and version. Files are UTF-8, tab separated,
one header row, and embedded quote characters are literal content.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Mapping

from .errors import FormatError, RowError
from .fileio import format_tsv, iter_tsv_rows, read_tsv, write_tsv

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


@dataclass(frozen=True)
class MentionRecord:
    """One NER-extracted software mention with its paper provenance."""

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


def _parse_int(value: str, what: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise RowError(lineno, f"{what} is not an integer: {value!r}") from None


def _record_from_fields(fields: Mapping[str, str], lineno: int) -> MentionRecord:
    software = fields.get("software", "")
    if not software.strip():
        raise RowError(lineno, "empty software mention")
    pubdate_raw = fields.get("pubdate", "")
    pubdate = _parse_int(pubdate_raw, "pubdate", lineno) if pubdate_raw else None
    number_raw = fields.get("number", "")
    number = _parse_int(number_raw, "number", lineno) if number_raw else 0
    if number < 0:
        raise RowError(lineno, f"negative number field: {number}")
    id_raw = fields.get("ID", "")
    mention_id = _parse_int(id_raw, "ID", lineno) if id_raw else None
    label = fields.get("curation_label", "") or "not_curated"
    if label not in CURATION_LABELS:
        raise RowError(lineno, f"unknown curation_label: {label!r}")
    return MentionRecord(
        software=software,
        text=fields.get("text", ""),
        license=fields.get("license", ""),
        location=fields.get("location", ""),
        pmcid=fields.get("pmcid", ""),
        pmid=fields.get("pmid", ""),
        doi=fields.get("doi", ""),
        pubdate=pubdate,
        source=fields.get("source", ""),
        number=number,
        version=fields.get("version", ""),
        id=mention_id,
        curation_label=label,
    )


def parse_mentions(
    stream: IO[str],
    corpus_kind: str,
    lenient: bool = False,
    errors: list[RowError] | None = None,
) -> Iterator[MentionRecord]:
    """Parse a raw mention TSV stream into MentionRecords.

    The header row must match the corpus kind's field list exactly; a
    missing or wrong header is fatal. Malformed data rows raise RowError,
    or are skipped (and appended to ``errors``) when ``lenient`` is set.
    """
    expected = CORPUS_FIELDS.get(corpus_kind)
    if expected is None:
        raise FormatError(f"unknown corpus kind: {corpus_kind!r}")
    rows = iter_tsv_rows(stream)
    try:
        _, header = next(rows)
    except StopIteration:
        raise FormatError("empty stream, header row missing") from None
    if tuple(header) != expected:
        raise FormatError(
            f"header does not match the {corpus_kind} field list: {header}"
        )
    for lineno, fields in rows:
        if fields == [""]:
            continue
        try:
            if len(fields) != len(expected):
                raise RowError(
                    lineno, f"expected {len(expected)} columns, found {len(fields)}"
                )
            yield _record_from_fields(dict(zip(expected, fields)), lineno)
        except RowError as err:
            if not lenient:
                raise
            if errors is not None:
                errors.append(err)


def serialize_mentions(records: Iterable[MentionRecord], corpus_kind: str) -> str:
    """Inverse of parse_mentions for well-formed data (round-trips byte-exactly)."""
    expected = CORPUS_FIELDS.get(corpus_kind)
    if expected is None:
        raise FormatError(f"unknown corpus kind: {corpus_kind!r}")
    rows = []
    for rec in records:
        values = {
            "license": rec.license,
            "location": rec.location,
            "pmcid": rec.pmcid,
            "pmid": rec.pmid,
            "doi": rec.doi,
            "pubdate": "" if rec.pubdate is None else str(rec.pubdate),
            "source": rec.source,
            "number": str(rec.number),
            "text": rec.text,
            "software": rec.software,
            "version": rec.version,
            "ID": "" if rec.id is None else str(rec.id),
            "curation_label": rec.curation_label,
        }
        rows.append([values[name] for name in expected])
    return format_tsv(expected, rows)


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
