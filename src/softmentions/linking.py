"""Exact-match linking of mentions to registry and database records.

Lookups only read recorded snapshots: newline-delimited name lists for
the three package indices, and one JSON document per name for the two
API-backed sources. Live HTTP fetching is opt-in: before linking,
fetch_documents writes into a snapshot directory the documents it lacks,
so linking reads as offline and an offline rerun reproduces the run.

Raw per-source records are normalized to one schema, the LinkedMetadata
record. The SCHEMA crosswalk below maps each source's raw field names
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
from collections import Counter
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .clustering import Cluster
from .config import LinkSource
from .errors import ExternalServiceError
from .fileio import read_json, remove_temporaries, write_text, write_tsv

logger = logging.getLogger(__name__)


# Each package index's page: the raw fields of a hit's name and URL, and the URL's template.
INDEX_PAGES = {
    LinkSource.PKG_INDEX_PY: ("pypi package", "pypi_url", "https://pypi.org/project/{name}"),
    LinkSource.PKG_INDEX_R: (
        "CRAN Package", "CRAN Link", "https://cran.r-project.org/package={name}"
    ),
    LinkSource.PKG_INDEX_BIOC: (
        "Bioconductor Package", "Bioconductor Link", "https://www.bioconductor.org/packages/{name}"
    ),
}

# How long a live request may wait on the service.
FETCH_TIMEOUT_S = 30.0
# Where the live fetchers read their API tokens, so that manifests hold no secret.
KB_TOKEN_ENV = "SOFTMENTIONS_KB_TOKEN"
CODE_HOST_TOKEN_ENV = "SOFTMENTIONS_CODEHOST_TOKEN"


# Each LinkedMetadata field and its default, in the order of the columns of
# metadata.tsv and of the normalized CSVs. A field whose default is a list
# collects every value the crosswalk maps onto it, a bool field takes the
# value as a flag and any other field keeps its first non-empty value.
_DEFAULTS: dict[str, object] = {
    "id": -1,
    "software_mention": "",
    "mapped_to": [],
    "source": "",
    "platform": [],
    "package_url": "",
    "description": [],
    "homepage_url": [],
    "other_urls": [],
    "license": [],
    "github_repo": [],
    "github_repo_licenses": [],
    "exact_match": True,
    "rrid": None,
    "reference": [],
    "scicrunch_synonyms": [],
}
_LIST_FIELDS = tuple(name for name, default in _DEFAULTS.items() if type(default) is list)


class LinkedMetadata:
    """One mention's normalized registry record, made by keyword from any of its fields.

    A field not given takes its default, each list field a new empty list.
    """

    _fields = tuple(_DEFAULTS)

    def __init__(self, **values):
        record = _DEFAULTS.copy()
        for name in _LIST_FIELDS:
            record[name] = []
        record.update(values)
        if len(record) > len(_DEFAULTS):
            unknown = sorted(record.keys() - _DEFAULTS.keys())
            raise TypeError(f"LinkedMetadata has no field {', '.join(unknown)}")
        self.__dict__ = record

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is LinkedMetadata else NotImplemented

    def __repr__(self) -> str:
        return f"LinkedMetadata({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


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


# Each field's merge rule, told by its default as _DEFAULTS describes.
_LIST, _FLAG, _FIRST = range(3)
_FIELD_KINDS = {
    name: _LIST if type(default) is list else _FLAG if type(default) is bool else _FIRST
    for name, default in _DEFAULTS.items()
}
# SCHEMA with each target paired with its field's kind; None rules become ().
_MERGE_PLANS = {
    source: {
        raw_field: tuple((target, _FIELD_KINDS[target]) for target in targets or ())
        for raw_field, targets in rules.items()
    }
    for source, rules in SCHEMA.items()
}


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
    plan = _MERGE_PLANS[source]
    meta = LinkedMetadata(
        id=mention_id,
        software_mention=software_mention,
        source=source.value,
        platform=[source.value],
    )
    values = vars(meta)
    for raw_field in sorted(raw):
        value = raw[raw_field]
        if isinstance(value, str):
            value = value.strip()  # as each merge below would
            if not value:
                continue
        elif value is None:
            continue
        targets = plan.get(raw_field)
        if targets is None:
            logger.warning("%s: unmapped raw field %r dropped", source.value, raw_field)
            continue
        for target, kind in targets:
            if kind == _LIST:
                bucket = values[target]
                if type(value) is str:
                    if value not in bucket:
                        bucket.append(value)
                else:
                    _append_values(bucket, value)
            elif kind == _FLAG:
                values[target] = _as_bool(value)
            elif not values[target]:
                values[target] = str(value).strip()
    return meta


def _quote(name: str) -> str:
    """The name URL-quoted as one path segment."""
    return urllib.parse.quote(name, safe="")


class RegistrySnapshot(NamedTuple):
    """A package index: entry names and optional page details, never changed by a lookup."""

    source: LinkSource
    names: set[str]
    details: Mapping[str, dict] = {}

    def lookup(self, name: str) -> dict | None:
        if name not in self.names:
            return None
        name_field, url_field, template = INDEX_PAGES[self.source]
        raw = {name_field: name, url_field: template.format(name=_quote(name))}
        raw.update(self.details.get(name, {}))
        return raw


# A live lookup of one name: its raw record, or None for no match.
Fetcher = Callable[[str], dict | None]


class ApiSnapshot:
    """Per-name JSON documents, which a lookup only reads.

    A name's document is its URL-quoted name plus ``.json``. The directory
    is listed once, when the snapshot is made, into ``names``, a map from
    each name to its document: an entry counts only if unquoting it and
    quoting the result gives the entry back, so ``%2f.json``, ``a b.json``
    and ``x.JSON`` answer for no name, and on a case-insensitive file
    system ``spss.json`` does not answer for ``SPSS``. A missing directory,
    or a file in its place, maps no name. A document another process adds
    later is not seen; one that fetch_documents writes is added to the map.
    A name the map lacks is a miss without being quoted.
    """

    def __init__(self, source: LinkSource, directory: Path):
        self.source = source
        self.directory = directory
        self.names: dict[str, str] = {}
        try:
            entries = os.listdir(directory)
        except (FileNotFoundError, NotADirectoryError):
            return
        for entry in entries:
            # A quoted name is ASCII, so no other entry can be one.
            if entry.endswith(".json") and entry.isascii():
                name = urllib.parse.unquote(entry[:-5])
                if _quote(name) == entry[:-5]:
                    self.names[name] = entry

    def lookup(self, name: str) -> dict | None:
        file_name = self.names.get(name)
        if file_name is None:
            return None
        try:
            raw = read_json(os.path.join(self.directory, file_name))
        except (OSError, ValueError) as err:
            raise ExternalServiceError(self.source.value, f"bad snapshot {file_name}: {err}")
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
# whose record carries a package URL supplies a mention's link. Each
# backend's ``names`` holds every name it can answer.
Backends = Mapping[LinkSource, RegistrySnapshot | ApiSnapshot]


def _soft_error(message: str, soft_errors: list[str] | None) -> None:
    logger.warning("lookup failed: %s", message)
    if soft_errors is not None:
        soft_errors.append(message)


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
            _soft_error(str(err), soft_errors)
            continue
        if raw is not None:
            candidates.append((source, raw))
    return candidates


def fetch_documents(
    mentions: Sequence[str], sources: Backends, fetchers: Mapping[LinkSource, Fetcher],
    soft_errors: list[str] | None = None,
) -> None:
    """Write into the snapshot of each source in ``fetchers`` the documents it lacks.

    Names go in ID order, each to every such source in precedence order.
    Each answer, a miss as null, is added to the snapshot's names. A
    failed fetch is a soft error, and its source is asked nothing more.
    """
    live = {source: backend for source, backend in sources.items() if source in fetchers}
    for snapshot in live.values():
        remove_temporaries(snapshot.directory)  # left by a killed run
    for name in mentions:
        file_name = _quote(name) + ".json"
        if len(file_name) > 255:
            continue  # over the file system's 255-byte limit: it can have no snapshot
        for source in [source for source, snap in live.items() if name not in snap.names]:
            try:
                raw = fetchers[source](name)
            except ExternalServiceError as err:
                _soft_error(str(err), soft_errors)
                del live[source]
                continue
            text = json.dumps(raw, ensure_ascii=False, sort_keys=True, indent=1)
            try:
                write_text(os.path.join(live[source].directory, file_name), text)
                live[source].names[name] = file_name
            except UnicodeEncodeError as err:
                _soft_error(f"{source.value}: answer for {name!r}: {err}", soft_errors)


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

    Names are looked up in ID order, each in every source before the next
    name. A name that no source lists is not looked up at all. No lookup
    fetches or writes: a live run calls fetch_documents first.
    """
    answerable = set().union(*(backend.names for backend in sources.values()))
    linked: dict[int, LinkedMetadata] = {}
    for mention_id, name in enumerate(mentions):
        if name not in answerable:
            continue
        candidates = exact_match_lookup(name, sources, soft_errors=soft_errors)
        if collect_raw is not None:
            for source, raw in candidates:
                collect_raw.setdefault(source, []).append(raw)
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
    clusters: Iterable[Cluster], links: Mapping[int, LinkedMetadata]
) -> dict[int, int]:
    """Map each linked mention's ID to the ID of the mention whose record it takes.

    A member of a cluster whose name has a link takes the name's record.
    When the name has none, or the mention was never clustered, a mention
    with an exact-match link of its own takes that. Mentions with neither
    stay unlinked and are absent.
    """
    carriers = {mention_id: mention_id for mention_id in links}
    for cluster in clusters:
        if cluster.name_id in links:
            carriers.update(dict.fromkeys(cluster.members, cluster.name_id))
    return carriers


def source_shares(counts: Mapping[str, int]) -> list[tuple[str, float]]:
    """Percent of linked mentions per source; shares sum to 100."""
    total = sum(counts.values())
    return [
        (source, 100.0 * count / total)
        for source, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


# The LinkedMetadata fields as metadata.tsv and the normalized CSVs name them.
MASTER_HEADER = tuple({"id": "ID", "rrid": "RRID"}.get(name, name) for name in _DEFAULTS)
_SOURCE_COLUMN = MASTER_HEADER.index("source")
_metadata_values = attrgetter(*_DEFAULTS)


_encode_json = json.JSONEncoder(ensure_ascii=False).encode


def _csv_cell(value) -> str:
    """The value as a CSV or TSV cell: lists as json.dumps(value, ensure_ascii=False)."""
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        try:
            # The encoder's own output for a list of strings, without its per-call set-up.
            return f"[{', '.join(map(encode_basestring, value))}]"
        except TypeError:  # an item that is not a string
            return _encode_json(value)
    return str(value)


def metadata_row(meta: LinkedMetadata) -> list[str]:
    """The record's fields in schema order, lists as JSON arrays."""
    if not meta.package_url:
        raise ValueError(f"record for mention {meta.id} has no package_url")
    # Most list fields are empty.
    return ["[]" if value == [] else _csv_cell(value) for value in _metadata_values(meta)]


def metadata_rows(
    carriers: Mapping[int, int],
    mentions: Sequence[str],
    links: Mapping[int, LinkedMetadata],
) -> list[list[str]]:
    """The metadata_row of each propagate_links mention's record, in mention ID order.

    Each carried record of ``links`` is formatted once: a mention that takes
    another's record gets that row with its own ID and mention.
    """
    formatted = {carrier: metadata_row(links[carrier]) for carrier in set(carriers.values())}
    return [
        formatted[carrier] if carrier == mention_id
        else [str(mention_id), mentions[mention_id], *formatted[carrier][2:]]
        for mention_id, carrier in sorted(carriers.items())
    ]


def link_report(rows: Iterable[Sequence[str]]) -> list[tuple[str, int, float]]:
    """Per-source (source, count, percent) rows over metadata_row rows."""
    counts = Counter(row[_SOURCE_COLUMN] for row in rows)
    return [(source, counts[source], pct) for source, pct in source_shares(counts)]


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


def _csv_directory(directory, sources: Iterable[str]) -> Path:
    """The directory, made if need be, without the CSV of any link source not in ``sources``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for source in {source.value for source in LinkSource}.difference(sources):
        (directory / f"{source}.csv").unlink(missing_ok=True)
    return directory


def write_normalized_csvs(directory, rows: Iterable[Sequence[str]]) -> None:
    """One <source>.csv of metadata_row rows per link source that has rows."""
    by_source: dict[str, list[Sequence[str]]] = {}
    for row in rows:
        by_source.setdefault(row[_SOURCE_COLUMN], []).append(row)
    directory = _csv_directory(directory, by_source)
    for source, source_rows in sorted(by_source.items()):
        _write_csv(directory / f"{source}.csv", MASTER_HEADER, source_rows)


def write_raw_csvs(directory, collected: Mapping[LinkSource, Sequence[Mapping]]) -> None:
    """Dump raw per-source candidate records, columns = union of raw fields."""
    directory = _csv_directory(directory, (source.value for source in collected))
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


def fetch_json(url: str, headers: Mapping[str, str] | None = None):
    """GET a JSON document; None on HTTP 404, ExternalServiceError on any other failure."""
    # Imported here: offline runs never fetch, and urllib.request (with
    # http.client, ssl and email) is most of the package's import time.
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers=dict(headers or {}))
    try:
        with urllib.request.urlopen(request, timeout=FETCH_TIMEOUT_S) as response:
            payload = response.read()
    except urllib.error.HTTPError as err:
        if err.code == 404:
            return None
        raise ExternalServiceError(url, f"HTTP {err.code}")
    except (OSError, http.client.HTTPException) as err:
        raise ExternalServiceError(url, repr(err))
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ExternalServiceError(url, f"malformed response: {err}")


def _paced(interval: float, fetch: Fetcher) -> Fetcher:
    """``fetch`` made to start each request at least ``interval`` seconds after the last."""
    last = float("-inf")

    def paced(name: str) -> dict | None:
        nonlocal last
        time.sleep(max(0.0, last + interval - time.monotonic()))
        last = time.monotonic()
        return fetch(name)

    return paced


def knowledge_base_fetcher(url_template: str) -> Fetcher:
    """Live knowledge-base lookup, one request a second; the response JSON is stored verbatim.

    The token is read from KB_TOKEN_ENV once, here.
    """
    token = os.environ.get(KB_TOKEN_ENV, "")
    headers = {"Authorization": f"Bearer {token}"} if token else {}

    def fetch(name: str) -> dict | None:
        url = url_template.format(name=urllib.parse.quote(name, safe=""))
        data = fetch_json(url, headers=headers)
        if data is None:
            return None
        if isinstance(data, dict) and isinstance(data.get("data"), dict):
            data = data["data"]
        if not isinstance(data, dict):
            raise ExternalServiceError(LinkSource.KNOWLEDGE_BASE.value, "unexpected payload")
        data.setdefault("software_name", name)
        return data

    return _paced(1.0, fetch)


def code_host_fetcher() -> Fetcher:
    """Live code-host repository search, one request every 2 s, keeping only exact-name matches.

    The token is read from CODE_HOST_TOKEN_ENV once, here.
    """
    headers = {"Accept": "application/vnd.github+json"}
    if token := os.environ.get(CODE_HOST_TOKEN_ENV, ""):
        headers["Authorization"] = f"Bearer {token}"

    def fetch(name: str) -> dict | None:
        query = urllib.parse.quote(f"{name} in:name", safe="")
        url = f"https://api.github.com/search/repositories?q={query}&per_page=10"
        data = fetch_json(url, headers=headers)
        if not isinstance(data, dict):
            return None
        items = data.get("items", [])
        if not isinstance(items, list) or not all(
            isinstance(item, dict) and isinstance(item.get("license"), dict | None)
            for item in items
        ):
            raise ExternalServiceError(LinkSource.CODE_HOST.value, "unexpected payload")
        for item in items:
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

    return _paced(2.0, fetch)
