"""Exact-match linking of mentions to registry and database records.

Lookups run offline-first against recorded snapshots: newline-delimited
name lists for the three package indices, and one JSON document per name
for the two API-backed sources. Live HTTP fetching is opt-in and writes
through to the same snapshot layout, so a live run leaves a reproducible
offline snapshot behind.

Raw per-source records are normalized to one schema, the LinkedMetadata
dataclass. The SCHEMA crosswalk below maps each source's raw field names
onto its fields; fields mapped to None are deliberately dropped, unknown
fields are dropped with a warning.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
import urllib.parse
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .clustering import Cluster
from .errors import ExternalServiceError
from .fileio import write_text, write_tsv

logger = logging.getLogger(__name__)


class LinkSource(str, Enum):
    PKG_INDEX_PY = "PkgIndexPy"
    PKG_INDEX_R = "PkgIndexR"
    PKG_INDEX_BIOC = "PkgIndexBioc"
    KNOWLEDGE_BASE = "KnowledgeBaseAPI"
    CODE_HOST = "CodeHostAPI"


INDEX_URL_TEMPLATES = {
    LinkSource.PKG_INDEX_PY: "https://pypi.org/project/{name}",
    LinkSource.PKG_INDEX_R: "https://cran.r-project.org/package={name}",
    LinkSource.PKG_INDEX_BIOC: "https://www.bioconductor.org/packages/{name}",
}

INDEX_RAW_FIELDS = {
    LinkSource.PKG_INDEX_PY: ("pypi package", "pypi_url"),
    LinkSource.PKG_INDEX_R: ("CRAN Package", "CRAN Link"),
    LinkSource.PKG_INDEX_BIOC: ("Bioconductor Package", "Bioconductor Link"),
}


@dataclass
class LinkedMetadata:
    """One mention's normalized registry record.

    The fields, in this order, are the columns of metadata.tsv and of the
    normalized CSVs. A field whose default is a list collects every value
    the crosswalk maps onto it, a bool field takes the value as a flag and
    any other field keeps its first non-empty value.
    """

    id: int = -1
    software_mention: str = ""
    mapped_to: list[str] = field(default_factory=list)
    source: str = ""
    platform: list[str] = field(default_factory=list)
    package_url: str = ""
    description: list[str] = field(default_factory=list)
    homepage_url: list[str] = field(default_factory=list)
    other_urls: list[str] = field(default_factory=list)
    license: list[str] = field(default_factory=list)
    github_repo: list[str] = field(default_factory=list)
    github_repo_licenses: list[str] = field(default_factory=list)
    exact_match: bool = True
    rrid: str | None = None
    reference: list[str] = field(default_factory=list)
    scicrunch_synonyms: list[str] = field(default_factory=list)


# Per-source crosswalk: raw field name -> LinkedMetadata field names. A raw
# field may feed several fields (the code-host URL populates package_url,
# homepage_url and github_repo). None marks a known raw field that is
# dropped on purpose.
SCHEMA: dict[LinkSource, dict[str, tuple[str, ...] | None]] = {
    LinkSource.PKG_INDEX_PY: {
        "pypi package": ("mapped_to",),
        "pypi_url": ("package_url",),
        "description": ("description",),
        "homepage_url": ("homepage_url",),
        "github_repo": ("github_repo",),
        "license": ("license",),
    },
    LinkSource.PKG_INDEX_R: {
        "CRAN Package": ("mapped_to",),
        "CRAN Link": ("package_url",),
        "Title": ("description",),
        "homepage_url": ("homepage_url",),
        "github_repo": ("github_repo",),
        "reference": ("reference",),
        "license": ("license",),
    },
    LinkSource.PKG_INDEX_BIOC: {
        "Bioconductor Package": ("mapped_to",),
        "Bioconductor Link": ("package_url",),
        "Title": ("description",),
        "Maintainer": None,
        "homepage_url": ("homepage_url",),
        "github_repo": ("github_repo",),
        "reference": ("reference",),
        "license": ("license",),
    },
    LinkSource.KNOWLEDGE_BASE: {
        "software_name": ("software_mention",),
        "Resource Name": ("mapped_to",),
        "Resource Name Link": ("homepage_url",),
        "Resource ID": ("rrid",),
        "Resource ID Link": ("package_url",),
        "Description": ("description",),
        "Alternate URLs": ("other_urls",),
        "Old URLs": ("other_urls",),
        "Reference Link": ("reference",),
        "Proper Citation": ("reference",),
        "scicrunch_synonyms": ("scicrunch_synonyms",),
        "synonyms": ("scicrunch_synonyms",),
        "github_repo": ("github_repo",),
        "license": ("license",),
        "Keywords": None,
        "Parent Organization": None,
        "Parent Organization Link": None,
        "Related Condition": None,
        "Funding Agency": None,
        "Relation": None,
        "Reference": None,
        "Website Status": None,
        "Alternate IDs": None,
    },
    LinkSource.CODE_HOST: {
        "software_mention": ("software_mention",),
        "best_github_match": ("mapped_to",),
        "description": ("description",),
        "github_url": ("package_url", "homepage_url", "github_repo"),
        "license": ("github_repo_licenses",),
        "exact_match": ("exact_match",),
    },
}


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("true", "1", "yes")


def _append_values(bucket: list[str], value) -> None:
    items = value if isinstance(value, (list, tuple)) else [value]
    for item in items:
        text = str(item).strip()
        if text and text not in bucket:
            bucket.append(text)


def normalize_metadata(
    raw: Mapping[str, object],
    source: LinkSource,
    mention_id: int = -1,
    software_mention: str = "",
) -> LinkedMetadata:
    """Rename and merge a raw source record into the normalized schema.

    Raw fields without a SCHEMA rule are dropped with a warning. Empty raw
    values never populate normalized fields.
    """
    rules = SCHEMA[source]
    meta = LinkedMetadata(
        id=mention_id,
        software_mention=software_mention,
        source=source.value,
        platform=[source.value],
    )
    for raw_field in sorted(raw):
        value = raw[raw_field]
        if value is None or (isinstance(value, str) and not value.strip()):
            continue
        if raw_field not in rules:
            logger.warning("%s: unmapped raw field %r dropped", source.value, raw_field)
            continue
        for target in rules[raw_field] or ():
            current = getattr(meta, target)
            if isinstance(current, list):
                _append_values(current, value)
            elif isinstance(current, bool):
                setattr(meta, target, _as_bool(value))
            elif not current:
                setattr(meta, target, str(value).strip())
    return meta


class RateLimiter:
    def __init__(self, min_interval: float):
        self.min_interval = min_interval
        self._last = 0.0

    def wait(self) -> None:
        now = time.monotonic()
        delta = now - self._last
        if delta < self.min_interval:
            time.sleep(self.min_interval - delta)
        self._last = time.monotonic()


@lru_cache(maxsize=1)
def _quote(name: str) -> str:
    """The name URL-quoted as one path segment.

    Every configured source looks a name up before the next name comes, so
    remembering the last name quotes each name once.
    """
    return urllib.parse.quote(name, safe="")


@dataclass
class RegistrySnapshot:
    """A package index: entry names, a URL template and optional page details."""

    source: LinkSource
    names: set[str]
    details: dict[str, dict] = field(default_factory=dict)

    def lookup(self, name: str) -> dict | None:
        if name not in self.names:
            return None
        name_field, url_field = INDEX_RAW_FIELDS[self.source]
        url = INDEX_URL_TEMPLATES[self.source].format(name=_quote(name))
        raw = {name_field: name, url_field: url}
        raw.update(self.details.get(name, {}))
        return raw


@dataclass
class ApiSnapshot:
    """Per-name JSON documents, optionally backed by a live fetcher.

    Live responses are written back into the snapshot directory, so a live
    run leaves behind the snapshot an offline rerun will read. The directory
    is listed once, at the first lookup; a document another process adds
    later is not seen. A name whose snapshot file name would exceed the file
    system's 255-byte limit can have no snapshot, so it is a miss both
    offline and live.
    """

    source: LinkSource
    directory: Path
    fetcher: Callable[[str], dict | None] | None = None
    limiter: RateLimiter | None = None
    _files: set[str] | None = field(default=None, init=False, repr=False)

    def lookup(self, name: str) -> dict | None:
        file_name = _quote(name) + ".json"
        if len(file_name) > 255:
            return None
        if self._files is None:
            try:
                self._files = set(os.listdir(self.directory))
            except (FileNotFoundError, NotADirectoryError):
                self._files = set()
        if file_name in self._files:
            path = Path(self.directory) / file_name
            try:
                raw = json.loads(path.read_text(encoding="utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise ExternalServiceError(self.source.value, f"bad snapshot {file_name}: {err}")
        elif self.fetcher is not None:
            if self.limiter is not None:
                self.limiter.wait()
            raw = self.fetcher(name)
            if raw is not None:
                write_text(
                    Path(self.directory) / file_name,
                    json.dumps(raw, ensure_ascii=False, sort_keys=True, indent=1),
                )
                self._files.add(file_name)
        else:
            return None
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ExternalServiceError(self.source.value, f"malformed record for {name!r}")
        if self.source is LinkSource.CODE_HOST:
            match = str(raw.get("best_github_match", ""))
            # Code-host matches are exact up to case.
            if match.lower() != name.lower():
                return None
        return raw


# The configured lookup backends in precedence order: the first source
# whose record carries a package URL supplies a mention's link.
Backends = Mapping[LinkSource, RegistrySnapshot | ApiSnapshot]


def exact_match_lookup(
    name: str,
    sources: Backends,
    soft_errors: list[str] | None = None,
) -> list[tuple[LinkSource, dict]]:
    """Exact-name candidates from every configured source, in precedence order.

    A failing source records a soft error and the remaining sources still
    run.
    """
    candidates: list[tuple[LinkSource, dict]] = []
    for source, backend in sources.items():
        try:
            raw = backend.lookup(name)
        except ExternalServiceError as err:
            logger.warning("lookup failed: %s", err)
            if soft_errors is not None:
                soft_errors.append(str(err))
            continue
        if raw is not None:
            candidates.append((source, raw))
    return candidates


def link_mentions(
    mentions: Sequence[str],
    sources: Backends,
    soft_errors: list[str] | None = None,
    collect_raw: dict[LinkSource, list[dict]] | None = None,
) -> dict[int, LinkedMetadata]:
    """Exact-match every mention; keep the highest-precedence usable record.

    Mention i has ID i, and the result maps IDs to records. mapped_to
    aggregates the names reported by every matching source, so
    lower-precedence hits stay visible in the final record.
    """
    linked: dict[int, LinkedMetadata] = {}
    for mention_id, name in enumerate(mentions):
        candidates = exact_match_lookup(name, sources, soft_errors=soft_errors)
        if collect_raw is not None:
            for source, raw in candidates:
                collect_raw.setdefault(source, []).append(dict(raw))
        normalized = [
            normalize_metadata(raw, source, mention_id=mention_id, software_mention=name)
            for source, raw in candidates
        ]
        chosen = next((meta for meta in normalized if meta.package_url), None)
        if chosen is None:
            continue
        for other in normalized:
            if other is not chosen:
                _append_values(chosen.mapped_to, other.mapped_to)
        linked[mention_id] = chosen
    return linked


def propagate_links(
    clusters: Iterable[Cluster],
    mentions: Sequence[str],
    links: Mapping[int, LinkedMetadata],
) -> dict[int, LinkedMetadata]:
    """Give every cluster member its cluster name's link, with fallbacks.

    A member of a cluster whose name has a link inherits that link. When
    the name has none, or the mention was never clustered, the mention's
    own exact-match link applies. Mentions with neither stay unlinked.
    Inherited records share their lists with the name's record.
    """
    propagated = dict(links)
    for cluster in clusters:
        name_link = links.get(cluster.name_id)
        if name_link is None:
            continue
        for member in cluster.members:
            propagated[member] = replace(name_link, id=member, software_mention=mentions[member])
    return propagated


def source_shares(counts: Mapping[str, int]) -> list[tuple[str, float]]:
    """Percent of linked mentions per source; shares sum to 100."""
    total = sum(counts.values())
    return [
        (source, 100.0 * count / total)
        for source, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


def link_report(linked: Mapping[int, LinkedMetadata]) -> list[tuple[str, int, float]]:
    """Per-source (source, count, percent) rows over linked mentions."""
    counts: dict[str, int] = {}
    for meta in linked.values():
        counts[meta.source] = counts.get(meta.source, 0) + 1
    return [(source, counts[source], pct) for source, pct in source_shares(counts)]


# The LinkedMetadata fields as metadata.tsv and the normalized CSVs name them.
MASTER_HEADER = tuple(
    {"id": "ID", "rrid": "RRID"}.get(f.name, f.name) for f in fields(LinkedMetadata)
)
_SOURCE_COLUMN = MASTER_HEADER.index("source")
_metadata_values = attrgetter(*(f.name for f in fields(LinkedMetadata)))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        # Most list fields are empty; json.dumps([]) is "[]".
        return json.dumps(list(value), ensure_ascii=False) if value else "[]"
    return str(value)


def metadata_row(meta: LinkedMetadata) -> list[str]:
    """The record's fields in schema order, lists as JSON arrays."""
    if not meta.package_url:
        raise ValueError(f"record for mention {meta.id} has no package_url")
    return [_csv_cell(value) for value in _metadata_values(meta)]


def write_metadata_tsv(path, rows: Sequence[Sequence[str]]) -> None:
    """metadata.tsv from metadata_row rows, in mention ID order."""
    write_tsv(path, MASTER_HEADER, rows)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """csv-module text, written through write_text so a crash leaves no torn file."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, text.getvalue())


def write_normalized_csvs(directory, rows: Iterable[Sequence[str]]) -> None:
    """One <source>.csv of metadata_row rows per link source."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_source: dict[str, list[Sequence[str]]] = {}
    for row in rows:
        by_source.setdefault(row[_SOURCE_COLUMN], []).append(row)
    for source, source_rows in sorted(by_source.items()):
        _write_csv(directory / f"{source}.csv", MASTER_HEADER, source_rows)


def write_raw_csvs(directory, collected: Mapping[LinkSource, Sequence[Mapping]]) -> None:
    """Dump raw per-source candidate records, columns = union of raw fields."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for source in sorted(collected, key=lambda s: s.value):
        rows = collected[source]
        columns = sorted({key for row in rows for key in row})
        _write_csv(
            directory / f"{source.value}.csv",
            columns,
            ([_csv_cell(row.get(col)) for col in columns] for row in rows),
        )


def write_link_report_tsv(path, report: Sequence[tuple[str, int, float]]) -> None:
    rows = [(source, str(count), f"{pct:.2f}") for source, count, pct in report]
    write_tsv(path, ("source", "linked_mentions", "percent"), rows)


def fetch_json(url: str, headers: Mapping[str, str] | None = None, timeout: float = 30.0):
    """GET a JSON document; None on HTTP 404, ExternalServiceError otherwise."""
    # Imported here: offline runs never fetch, and urllib.request (with
    # http.client, ssl and email) is most of the package's import time.
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            payload = response.read()
    except urllib.error.HTTPError as err:
        if err.code == 404:
            return None
        raise ExternalServiceError(url, f"HTTP {err.code}")
    except urllib.error.URLError as err:
        raise ExternalServiceError(url, str(err.reason))
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ExternalServiceError(url, f"malformed response: {err}")


def knowledge_base_fetcher(
    url_template: str, token: str = "", timeout: float = 30.0
) -> Callable[[str], dict | None]:
    """Live knowledge-base lookup; the response JSON is stored verbatim."""

    def fetch(name: str) -> dict | None:
        url = url_template.format(name=urllib.parse.quote(name, safe=""))
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        data = fetch_json(url, headers=headers, timeout=timeout)
        if data is None:
            return None
        if isinstance(data, dict) and isinstance(data.get("data"), dict):
            data = data["data"]
        if not isinstance(data, dict):
            raise ExternalServiceError(LinkSource.KNOWLEDGE_BASE.value, "unexpected payload")
        data.setdefault("software_name", name)
        return data

    return fetch


def code_host_fetcher(token: str = "", timeout: float = 30.0) -> Callable[[str], dict | None]:
    """Live code-host repository search, keeping only exact-name matches."""

    def fetch(name: str) -> dict | None:
        query = urllib.parse.quote(f"{name} in:name", safe="")
        url = f"https://api.github.com/search/repositories?q={query}&per_page=10"
        headers = {"Accept": "application/vnd.github+json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        data = fetch_json(url, headers=headers, timeout=timeout)
        if not isinstance(data, dict):
            return None
        for item in data.get("items", []):
            if str(item.get("name", "")).lower() == name.lower():
                license_info = item.get("license") or {}
                return {
                    "software_mention": name,
                    "best_github_match": item.get("name", ""),
                    "description": item.get("description") or "",
                    "github_url": item.get("html_url", ""),
                    "license": license_info.get("name", ""),
                    "exact_match": "True",
                }
        return None

    return fetch
