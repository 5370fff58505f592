"""Evaluation metrics: synonym precision/recall/F1, Precision@k, and
chance-corrected inter-annotator agreement (Fleiss kappa, Krippendorff
alpha, nominal scale).

Undefined metrics (empty denominators, degenerate chance agreement) are
reported as None rather than 0 so callers can tell them apart.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from typing import IO, Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .config import LinkSource
from .errors import FormatError, RowError
from .fileio import decode_errors, iter_tsv, open_text

T = TypeVar("T")


class SynonymVerdict(str, Enum):
    EXACT = "Exact"
    NARROW = "Narrow"
    NOT_SYNONYM = "NotSynonym"
    UNCLEAR = "Unclear"
    NOT_SOFTWARE = "NotSoftware"


_VERDICT_ALIASES = {
    "exact": SynonymVerdict.EXACT,
    "narrow": SynonymVerdict.NARROW,
    "not synonym": SynonymVerdict.NOT_SYNONYM,
    "not_synonym": SynonymVerdict.NOT_SYNONYM,
    "notsynonym": SynonymVerdict.NOT_SYNONYM,
    "unclear": SynonymVerdict.UNCLEAR,
    "not software": SynonymVerdict.NOT_SOFTWARE,
    "not_software": SynonymVerdict.NOT_SOFTWARE,
    "notsoftware": SynonymVerdict.NOT_SOFTWARE,
}


def parse_verdict(text: str) -> SynonymVerdict:
    try:
        return _VERDICT_ALIASES[text.strip().lower()]
    except KeyError:
        raise FormatError(f"unknown synonym label: {text!r}") from None


@dataclass(frozen=True)
class SynonymLabel:
    """A curated verdict on one generated synonym pair."""

    mention: str
    synonym: str
    label: SynonymVerdict


@dataclass
class PrfResult:
    precision: float | None
    recall: float | None
    f1: float | None
    tp: int
    fp: int
    fn: int


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def synonym_prf(
    predicted: Iterable[tuple[str, str]],
    labeled: Sequence[SynonymLabel],
) -> PrfResult:
    """Precision/recall/F1 of predicted pairs against curated labels.

    Exact and Narrow verdicts are true synonyms and NotSynonym ones
    negatives. Unclear and NotSoftware pairs are excluded from both
    denominators, as are predicted pairs outside the labeled set.
    """
    true_set: set[tuple[str, str]] = set()
    negative: set[tuple[str, str]] = set()
    for row in labeled:
        key = _pair_key(row.mention, row.synonym)
        if row.label in (SynonymVerdict.EXACT, SynonymVerdict.NARROW):
            true_set.add(key)
        elif row.label is SynonymVerdict.NOT_SYNONYM:
            negative.add(key)
    predicted_keys = {_pair_key(a, b) for a, b in predicted}
    tp = len(predicted_keys & true_set)
    fp = len(predicted_keys & negative)
    fn = len(true_set - predicted_keys)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return PrfResult(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn)


CURATION_SOFTWARE = "software_and_algorithm"
CURATION_NOT_SOFTWARE = "not_software"
CURATION_UNCLEAR = "unclear"

_CURATION_ALIASES = {
    "software&algorithm": CURATION_SOFTWARE,
    "software & algorithm": CURATION_SOFTWARE,
    "software_and_algorithm": CURATION_SOFTWARE,
    "software": CURATION_SOFTWARE,
    "not_software": CURATION_NOT_SOFTWARE,
    "not software": CURATION_NOT_SOFTWARE,
    "not-software": CURATION_NOT_SOFTWARE,
    "unclear": CURATION_UNCLEAR,
}


@dataclass(frozen=True)
class CurationLabelRow:
    """One curated mention with its label, as parse_curation_label returns it."""

    mention: str
    label: str


def parse_curation_label(text: str) -> str:
    try:
        return _CURATION_ALIASES[text.strip().lower()]
    except KeyError:
        raise FormatError(f"unknown curation label: {text!r}") from None


def precision_at_k(rows: Sequence[CurationLabelRow], k: int) -> dict[str, float]:
    """Category shares (percent) over the top k rows.

    Rows must already be ordered by corpus frequency, most frequent first.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > len(rows):
        raise ValueError(f"k={k} exceeds the {len(rows)} available rows")
    top = rows[:k]
    def share(label: str) -> float:
        return 100.0 * sum(1 for r in top if r.label == label) / k
    return {
        "software": share(CURATION_SOFTWARE),
        "not_software": share(CURATION_NOT_SOFTWARE),
        "unclear": share(CURATION_UNCLEAR),
    }


def fleiss_kappa(matrix: Sequence[Sequence[int]]) -> float | None:
    """Fleiss kappa over an items-by-categories count matrix.

    Every row must sum to the same rater count n >= 2. Returns None when
    all mass sits in one category (chance agreement is 1, kappa undefined).
    """
    if not matrix:
        raise ValueError("empty rating matrix")
    n = sum(matrix[0])
    if n < 2:
        raise ValueError("need at least two raters per item")
    for row in matrix:
        if sum(row) != n:
            raise ValueError("rows must sum to a constant rater count")
        if any(v < 0 for v in row):
            raise ValueError("negative rating count")
    items = len(matrix)
    categories = len(matrix[0])
    p_bar = sum(
        (sum(v * v for v in row) - n) / (n * (n - 1)) for row in matrix
    ) / items
    p_j = [sum(row[j] for row in matrix) / (items * n) for j in range(categories)]
    p_e = sum(p * p for p in p_j)
    if p_e >= 1.0:
        return None
    return (p_bar - p_e) / (1.0 - p_e)


def krippendorff_alpha(
    ratings: Sequence[Sequence[Hashable | None]],
) -> float | None:
    """Krippendorff alpha, nominal scale, via the coincidence matrix.

    ``ratings`` is raters-by-items; None marks a missing rating. Items
    rated fewer than two times cannot be paired and are dropped.
    """
    if not ratings:
        raise ValueError("no ratings")
    n_items = len(ratings[0])
    if any(len(row) != n_items for row in ratings):
        raise ValueError("raters must rate the same item list")
    pairable_units = 0
    coincidence: dict[tuple[Hashable, Hashable], float] = {}
    totals: dict[Hashable, float] = {}
    for item in range(n_items):
        values = [row[item] for row in ratings if row[item] is not None]
        m = len(values)
        if m < 2:
            continue
        pairable_units += 1
        counts: dict[Hashable, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        for c, nc in counts.items():
            totals[c] = totals.get(c, 0.0) + nc
            for k, nk in counts.items():
                pairs = nc * nk - (nc if c == k else 0)
                if pairs:
                    coincidence[(c, k)] = coincidence.get((c, k), 0.0) + pairs / (m - 1)
    if pairable_units < 2:
        raise ValueError("need at least two items with two or more ratings")
    n_total = sum(totals.values())
    observed_disagreement = sum(
        v for (c, k), v in coincidence.items() if c != k
    )
    expected_pairs = sum(
        totals[c] * totals[k]
        for c in totals
        for k in totals
        if c != k
    )
    if expected_pairs == 0:
        return None
    return 1.0 - (n_total - 1.0) * observed_disagreement / expected_pairs


def ratings_to_matrix(
    ratings: Sequence[Sequence[Hashable]],
    categories: Sequence[Hashable],
) -> list[list[int]]:
    """Aggregate complete raters-by-items labels into a Fleiss count matrix."""
    index = {c: i for i, c in enumerate(categories)}
    n_items = len(ratings[0])
    matrix = [[0] * len(categories) for _ in range(n_items)]
    for row in ratings:
        for item, value in enumerate(row):
            matrix[item][index[value]] += 1
    return matrix


def agreement(ratings: Sequence[Sequence[Hashable | None]]) -> dict[str, float | None]:
    """Krippendorff alpha of a raters-by-items grid, plus Fleiss kappa when none is missing."""
    out = {"krippendorff_alpha": krippendorff_alpha(ratings)}
    if all(value is not None for row in ratings for value in row):
        categories = sorted({value for row in ratings for value in row})
        out["fleiss_kappa"] = fleiss_kappa(ratings_to_matrix(ratings, categories))
    return out


LINK_LABELS = ("correct", "incorrect", "unclear")


def parse_link_label(text: str) -> str:
    label = text.strip().lower()
    if label not in LINK_LABELS:
        raise FormatError(f"unknown link label: {text!r}")
    return label


@dataclass
class LinkEvalSummary:
    overall: dict[str, tuple[int, float]]
    excluding_code_host: dict[str, tuple[int, float]]


def link_eval_summary(rows: Sequence[tuple[str, str]]) -> LinkEvalSummary:
    """Label shares over (source, label) rows, overall and without code-host links."""
    if not rows:
        raise ValueError("no labeled links")
    def shares(subset: Sequence[tuple[str, str]]) -> dict[str, tuple[int, float]]:
        total = len(subset)
        out = {}
        for label in LINK_LABELS:
            count = sum(1 for _, l in subset if l == label)
            out[label] = (count, 100.0 * count / total if total else 0.0)
        return out
    non_code_host = [r for r in rows if r[0] != LinkSource.CODE_HOST]
    return LinkEvalSummary(
        overall=shares(rows),
        excluding_code_host=shares(non_code_host),
    )


def _csv_records(fh: IO[str], path) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record with the line it ends on; a csv.Error becomes a RowError there.

    A csv.Error (a field over the csv module's size limit, say) is not a
    ValueError, so a UnicodeDecodeError still passes to decode_errors.
    """
    reader = csv.reader(fh)
    try:
        for fields in reader:
            yield reader.line_num, fields
    except csv.Error as err:
        raise RowError(reader.line_num, str(err), path) from None


def _read_csv(
    path, columns: Mapping[str, Sequence[str]], row: Callable[..., T]
) -> list[T]:
    """``row(*values)`` for each data row of a headed CSV, one value per role.

    ``columns`` maps each role to the column names it accepts; the first
    that the header holds is read. A missing header or role column, a row
    with fewer fields than the header, a value ``row`` rejects, a line the
    csv module cannot parse and bytes that are not UTF-8 are errors that
    read ``<file>: line N: ...``. Blank lines are skipped and other columns
    are ignored.
    """
    with open_text(path) as fh, decode_errors(path):
        records = _csv_records(fh, path)
        _, header = next(records, (1, None))
        if header is None:
            raise FormatError(f"{path}: line 1: empty CSV, header missing")
        position = {name: i for i, name in enumerate(header)}
        picked = []
        for role, names in columns.items():
            found = [position[name] for name in names if name in position]
            if not found:
                raise FormatError(f"{path}: line 1: no {role} column among {header}")
            picked.append(found[0])
        out = []
        for lineno, fields in records:
            if not fields:
                continue
            try:
                if len(fields) < len(header):
                    raise ValueError(f"expected {len(header)} columns, found {len(fields)}")
                out.append(row(*(fields[i] for i in picked)))
            except (FormatError, ValueError) as err:
                raise RowError(lineno, str(err), path) from None
    return out


def read_synonym_labels(path) -> list[SynonymLabel]:
    """Curated synonym pairs from the disambiguation evaluation CSV."""
    columns = {
        "mention": ("software_mention", "link_label", "mention"),
        "synonym": ("synonym",),
        "label": ("synonym_label", "label"),
    }
    return _read_csv(path, columns, lambda mention, synonym, label: SynonymLabel(
        mention, synonym, parse_verdict(label)
    ))


def read_predicted_pairs(path) -> list[tuple[str, str]]:
    """Pairs from the first two columns of a TSV; the header may name further columns."""
    with open_text(path) as fh, decode_errors(path):
        header = fh.readline().rstrip("\n").rstrip("\r").split("\t")
        if header[:2] not in (["mention", "synonym"], ["software_mention", "synonym"]):
            raise FormatError(f"{path}: line 1: bad predicted pairs header: {header}")
        fh.seek(0)
        return list(iter_tsv(fh, header, lambda fields: (fields[0], fields[1])))


def read_curation_rows(path) -> list[CurationLabelRow]:
    """Curated mentions, preserving file order (most frequent first)."""
    columns = {"mention": ("software_mention", "mention"), "label": ("label",)}
    return _read_csv(path, columns, lambda mention, label: CurationLabelRow(
        mention, parse_curation_label(label)
    ))


_SOURCE_ALIASES = {
    "pypi": LinkSource.PKG_INDEX_PY,
    "pypi index": LinkSource.PKG_INDEX_PY,
    "cran": LinkSource.PKG_INDEX_R,
    "cran index": LinkSource.PKG_INDEX_R,
    "bioconductor": LinkSource.PKG_INDEX_BIOC,
    "bioconductor index": LinkSource.PKG_INDEX_BIOC,
    "scicrunch": LinkSource.KNOWLEDGE_BASE,
    "scicrunch api": LinkSource.KNOWLEDGE_BASE,
    "github": LinkSource.CODE_HOST,
    "github api": LinkSource.CODE_HOST,
}


def normalize_source_name(text: str) -> str:
    return _SOURCE_ALIASES.get(text.strip().lower(), text.strip())


def read_link_eval(path) -> list[tuple[str, str]]:
    """(source, label) rows from the linking evaluation CSV."""
    columns = {"source": ("source",), "label": ("link_label", "evaluation_label", "label")}
    return _read_csv(path, columns, lambda source, label: (
        normalize_source_name(source), parse_link_label(label)
    ))


def read_ratings_csv(path) -> list[list[str | None]]:
    """Long-format (item, rater, label) CSV into a raters-by-items grid.

    A missing rating is None; of two rows for one item and rater, the later wins.
    """
    columns = {"item": ("item",), "rater": ("rater",), "label": ("label",)}
    labels = {
        (rater, item): label
        for item, rater, label in _read_csv(path, columns, lambda *fields: fields)
    }
    items = sorted({item for _, item in labels})
    raters = sorted({rater for rater, _ in labels})
    return [[labels.get((rater, item)) for item in items] for rater in raters]
