"""Independent reference implementations used to validate the fast paths.

Each oracle is written straight from the defining formulas with its own
data structures and enumeration order, deliberately not sharing code with
the package under test.
"""
from __future__ import annotations

import itertools
import json
import os
import re
import unicodedata
import urllib.parse
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from softmentions.errors import ExternalServiceError
from softmentions.fileio import iter_tsv
from softmentions.ingest import CORPUS_FIELDS, CURATION_LABELS, CorpusRow
from softmentions.linking import SCHEMA, ApiSnapshot, LinkedMetadata, LinkSource


def jaro_reference(a: str, b: str) -> float:
    """Jaro-Winkler from the textbook definition (boost gate at 0.7)."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    used_b: set[int] = set()
    matched_a_positions: list[int] = []
    matched_b_positions: list[int] = []
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if j not in used_b and b[j] == ch:
                used_b.add(j)
                matched_a_positions.append(i)
                matched_b_positions.append(j)
                break
    m = len(matched_a_positions)
    if m == 0:
        return 0.0
    seq_a = [a[i] for i in matched_a_positions]
    seq_b = [b[j] for j in sorted(matched_b_positions)]
    transpositions = sum(x != y for x, y in zip(seq_a, seq_b)) / 2.0
    jaro = (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0
    if jaro <= 0.7:
        return jaro
    prefix = 0
    for x, y in zip(a[:4], b[:4]):
        if x != y:
            break
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def bfs_components(n_vertices: int, edges: set[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Connected components over vertices that carry at least one edge."""
    adjacency: dict[int, set[int]] = {}
    for i, j in edges:
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
    seen: set[int] = set()
    components = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        frontier = [start]
        group = set()
        while frontier:
            vertex = frontier.pop()
            if vertex in group:
                continue
            group.add(vertex)
            frontier.extend(adjacency[vertex] - group)
        seen |= group
        components.append(tuple(sorted(group)))
    return sorted(components, key=lambda c: c[0])


def dbscan_reference(
    distances: dict[tuple[int, int], float],
    points: list[int],
    eps: float,
    min_pts: int,
) -> tuple[list[frozenset[int]], frozenset[int]]:
    """Core set plus reachability closure, computed declaratively.

    Clusters are the transitive closure of core points over <= eps links;
    a border point joins the earliest-seeded cluster (smallest minimum core
    ID) that has a core neighbor within eps. Everything else is noise.
    """
    within: dict[int, set[int]] = {p: set() for p in points}
    for (i, j), d in distances.items():
        if d <= eps and i in within and j in within:
            within[i].add(j)
            within[j].add(i)
    cores = {p for p in points if 1 + len(within[p]) >= min_pts}
    unassigned_cores = set(cores)
    core_clusters: list[set[int]] = []
    while unassigned_cores:
        seed = min(unassigned_cores)
        cluster = {seed}
        frontier = {seed}
        while frontier:
            reached = set()
            for p in frontier:
                reached |= within[p] & unassigned_cores
            reached -= cluster
            cluster |= reached
            frontier = reached
        unassigned_cores -= cluster
        core_clusters.append(cluster)
    core_clusters.sort(key=min)
    full_clusters = [set(c) for c in core_clusters]
    for p in sorted(points):
        if p in cores:
            continue
        for idx, cluster_cores in enumerate(core_clusters):
            if within[p] & cluster_cores:
                full_clusters[idx].add(p)
                break
    clustered = set().union(*full_clusters) if full_clusters else set()
    noise = frozenset(p for p in points if p not in clustered)
    return [frozenset(c) for c in full_clusters], noise


def neighbors_within(
    distances: dict[tuple[int, int], float], points: list[int], eps: float
) -> dict[int, list[int]]:
    """Each point's neighbours at distance <= eps, in the order the distance dict lists them."""
    neighbors: dict[int, list[int]] = {p: [] for p in points}
    for (i, j), d in distances.items():
        if d <= eps:
            neighbors[i].append(j)
            neighbors[j].append(i)
    return neighbors


def cluster_graph_reference(graph, freq, mentions, eps: float, min_pts: int):
    """cluster_graph from its definition, over the oracle's components.

    Every stored value becomes a distance rounded to 12 decimals, which
    dbscan_reference clusters per component. A cluster is named after its
    member of highest frequency (0 when absent), then of the smallest
    mention string, then of the smallest ID. Returns the (sorted members,
    name ID, name) of each cluster and the sorted noise.
    """
    distances = {key: round(1.0 - value, 12) for key, (value, _) in graph.entries.items()}
    clusters: list[frozenset[int]] = []
    noise: set[int] = set()
    for members in bfs_components(len(mentions), set(graph.entries)):
        found, component_noise = dbscan_reference(distances, list(members), eps, min_pts)
        clusters.extend(found)
        noise |= component_noise
    named = []
    for cluster in clusters:
        top = max(freq.get(m, 0) for m in cluster)
        tied = sorted(m for m in cluster if freq.get(m, 0) == top)
        smallest = min(mentions[m] for m in tied)
        name_id = next(m for m in tied if mentions[m] == smallest)
        named.append((tuple(sorted(cluster)), name_id, mentions[name_id]))
    return named, tuple(sorted(noise))


def fleiss_reference(matrix: list[list[int]]) -> float | None:
    """Fleiss kappa via pairwise agreement counts (n-choose-2 form)."""
    n = sum(matrix[0])
    def choose2(v: int) -> int:
        return v * (v - 1) // 2
    per_item = [sum(choose2(v) for v in row) / choose2(n) for row in matrix]
    p_bar = sum(per_item) / len(matrix)
    total = n * len(matrix)
    shares = [sum(row[j] for row in matrix) / total for j in range(len(matrix[0]))]
    p_e = sum(s * s for s in shares)
    if p_e >= 1.0:
        return None
    return (p_bar - p_e) / (1.0 - p_e)


def alpha_reference(ratings: list[list]) -> float | None:
    """Krippendorff alpha by explicit enumeration of rating pairs."""
    n_items = len(ratings[0])
    observed = 0.0
    pooled: Counter = Counter()
    n_total = 0.0
    for item in range(n_items):
        values = [row[item] for row in ratings if row[item] is not None]
        m = len(values)
        if m < 2:
            continue
        n_total += m
        pooled.update(values)
        for v1, v2 in itertools.permutations(values, 2):
            if v1 != v2:
                observed += 1.0 / (m - 1)
    expected = 0.0
    for c, k in itertools.permutations(pooled, 2):
        expected += pooled[c] * pooled[k]
    if expected == 0:
        return None
    d_o = observed / n_total
    d_e = expected / (n_total * (n_total - 1.0))
    return 1.0 - d_o / d_e


def prune_free_similarity_pairs(strings: dict[str, int], threshold: float, jaro):
    """Exhaustive double loop over all string pairs, no candidate pruning."""
    names = sorted(strings)
    out = set()
    for x, y in itertools.combinations(names, 2):
        score = jaro(x, y)
        if score >= threshold:
            a, b = strings[x], strings[y]
            out.add((min(a, b), max(a, b), score))
    return out


def scored_pairs_reference(strings: list[str], threshold: float) -> set[tuple[str, str]]:
    """The pairs the similarity join must score, by testing every pair.

    ``strings`` are the mentions in ID order; a pair is (string of the
    lower ID, string of the higher ID). A pair's level p is its common
    prefix, at most 4 characters; its Jaro floor is (t - 0.1p) / (1 - 0.1p)
    less a slack of 1e-9. It is scored unless the shorter length is below
    (3 floor - 2) times the longer, or c/short + c/long + 1 < 3 floor with
    c the characters the two share, counted with repeats. Empty strings are
    never scored.
    """
    counts = {s: Counter(s) for s in strings}
    out = set()
    for x, y in itertools.combinations(strings, 2):
        if not x or not y:
            continue
        p = 0
        while p < min(len(x), len(y), 4) and x[p] == y[p]:
            p += 1
        boost = p * 0.1
        floor = (threshold - boost) / (1.0 - boost) - 1e-9
        short, long_ = sorted((len(x), len(y)))
        if short < (3.0 * floor - 2.0) * long_:
            continue
        common = sum((counts[x] & counts[y]).values())
        if common / short + common / long_ + 1.0 < 3.0 * floor:
            continue
        out.add((x, y))
    return out


def keyword_pairs_reference(
    entries: set[str], keywords: tuple[str, ...], id_table: dict[str, int]
) -> tuple[list[tuple[int, int]], list[str]]:
    """Registry keyword pairs by testing every entry against every mention.

    Returns the sorted (low ID, high ID) pairs and the entries skipped as
    shorter than two characters.
    """
    def words(text: str) -> tuple[str, ...]:
        return tuple(t for t in re.split(r"[\W_]+", text) if t)

    def has_run(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
        return bool(needle) and any(
            haystack[i : i + len(needle)] == needle
            for i in range(len(haystack) - len(needle) + 1)
        )

    keyword_words = [words(k) for k in keywords]
    pairs: set[tuple[int, int]] = set()
    skipped: list[str] = []
    for entry in sorted(entries):
        if len(entry) < 2:
            skipped.append(entry)
            continue
        if entry not in id_table:
            continue
        for mention, mention_id in id_table.items():
            if mention == entry or entry not in mention:
                continue
            toks = words(mention)
            if has_run(toks, words(entry)) and any(has_run(toks, kw) for kw in keyword_words):
                a, b = id_table[entry], mention_id
                pairs.add((min(a, b), max(a, b)))
    return sorted(pairs), skipped


class MentionRecord(NamedTuple):
    """One corpus row with every column as a typed field; absent columns read empty."""

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


def _record_from_fields(fields: dict[str, str]) -> MentionRecord:
    """A record from one row's values keyed by attribute; bad values raise ValueError."""
    if not fields["software"].strip():
        raise ValueError("empty software mention")
    for name, default in (("pubdate", None), ("number", 0), ("id", None)):
        value = fields[name]
        try:
            fields[name] = int(value) if value else default
        except ValueError:
            raise ValueError(f"{name} is not an integer: {value!r}") from None
    if fields["number"] < 0:
        raise ValueError(f"negative number field: {fields['number']}")
    fields["curation_label"] = fields["curation_label"] or "not_curated"
    if fields["curation_label"] not in CURATION_LABELS:
        raise ValueError(f"unknown curation_label: {fields['curation_label']!r}")
    return MentionRecord(**fields)


def parse_mentions_reference(stream, corpus_kind, skipped=None, known=None):
    """The corpus parser as a typed record per row: a dict keyed by attribute, then keywords.

    It shares the TSV row loop with the package; only the conversion of a
    row into a record is its own.
    """
    header = CORPUS_FIELDS[corpus_kind]
    attrs = [name.lower() for name in header]

    def record(fields: list[str]) -> MentionRecord:
        rec = _record_from_fields(dict(zip(attrs, fields)))
        if known is not None and rec.software not in known:
            raise KeyError(rec.software)
        return rec

    return iter_tsv(stream, header, record, skipped)


def tsv_text_reference(header, rows) -> str:
    """A headed TSV text: each line's cells joined by tabs, each line ended by a newline.

    A cell holding a tab or line break fails the assertion, since no line
    could carry it.
    """
    text = []
    for cells in [header, *rows]:
        assert not any(ch in cell for cell in cells for ch in "\t\n\r"), cells
        text.append("\t".join(cells) + "\n")
    return "".join(text)


def corpus_rows_reference(records, corpus_kind) -> tuple[tuple[str, ...], list[list[str]]]:
    """The corpus kind's header and each record's cells in its column order.

    An integer field is written as its decimal digits, or empty for None.
    """
    header = CORPUS_FIELDS[corpus_kind]
    rows = []
    for rec in records:
        values = [getattr(rec, name.lower()) for name in header]
        rows.append(["" if value is None else str(value) for value in values])
    return header, rows


def corpus_row_reference(record: MentionRecord, corpus_kind: str) -> CorpusRow:
    """The package's row type for a typed record, its line rendered from the fields."""
    (cells,) = corpus_rows_reference([record], corpus_kind)[1]
    return CorpusRow(record.software, record.pmcid, record.doi, "\t".join(cells))


def disambiguated_tsv_reference(records, corpus_kind, id_table, clusters) -> str:
    """disambiguated.tsv rendered from typed records: every cell, then the row's cluster."""
    header, rows = corpus_rows_reference(records, corpus_kind)
    cluster_of = {member: cluster for cluster in clusters for member in cluster.members}
    for rec, row in zip(records, rows):
        cluster = cluster_of.get(id_table[rec.software])
        if cluster is None:
            row += ["", ""]
        else:
            row += [cluster.name, str(cluster.name_id)]
    return tsv_text_reference((*header, "mapped_to_software", "mapped_to_software_ID"), rows)


def strip_reference(text: str) -> str:
    """The text without its digits, its punctuation (categories P*) and the marks (c), (r), TM."""
    kept = []
    for ch in text:
        if ch.isdigit() or unicodedata.category(ch)[0] == "P" or ch in "\u00a9\u00ae\u2122":
            continue
        kept.append(ch)
    return "".join(kept)


def normalize_reference(raw, source, mention_id, software_mention) -> LinkedMetadata:
    """A raw record in the schema, merging by the type each field holds when the value comes.

    Raw fields are taken in sorted order; an empty value is skipped, a field
    without a SCHEMA rule is dropped.
    """
    meta = LinkedMetadata(
        id=mention_id, software_mention=software_mention,
        source=source.value, platform=[source.value],
    )
    for raw_field in sorted(raw):
        value = raw[raw_field]
        if value is None or (isinstance(value, str) and value.strip() == ""):
            continue
        for target in SCHEMA[source].get(raw_field) or ():
            current = getattr(meta, target)
            if isinstance(current, list):
                for item in value if isinstance(value, (list, tuple)) else [value]:
                    text = str(item).strip()
                    if text and text not in current:
                        current.append(text)
            elif isinstance(current, bool):
                setattr(meta, target, str(value).strip().lower() in ("true", "1", "yes"))
            elif not current:
                setattr(meta, target, str(value).strip())
    return meta


def _snapshot_lookup_reference(snapshot: ApiSnapshot, listing: set[str], name: str):
    """An offline snapshot lookup: quote the name and look for that file in the listing."""
    file_name = urllib.parse.quote(name, safe="") + ".json"
    if len(file_name) > 255 or file_name not in listing:
        return None
    try:
        text = (Path(snapshot.directory) / file_name).read_text(encoding="utf-8")
        raw = json.loads(text)
        json.dumps(raw, ensure_ascii=False).encode("utf-8")
    except ValueError as err:
        raise ExternalServiceError(snapshot.source.value, f"bad snapshot {file_name}: {err}")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ExternalServiceError(snapshot.source.value, f"malformed record for {name!r}")
    if snapshot.source is LinkSource.CODE_HOST:
        if str(raw.get("best_github_match", "")).lower() != name.lower():
            return None
    return raw


def fetch_documents_reference(mentions, live, present, answers):
    """A fetch pass over in-memory snapshots: its requests, written documents and soft errors.

    ``live`` lists the live sources in precedence order, ``present`` maps
    each to the names its directory already has a document for, and
    ``answers`` maps each (source, name) to the fetcher's record, None or
    ExternalServiceError. A name goes to each source that lacks it and has
    not failed, all before the next name; a name quoted to more than 250
    characters is asked of none. A record that cannot be written as UTF-8
    is not written.
    """
    requests, written, errors = [], {source: {} for source in live}, 0
    failed = set()
    for name in mentions:
        if len(urllib.parse.quote(name, safe="")) > 250:
            continue
        for source in live:
            if source in failed or name in present[source] or name in written[source]:
                continue
            requests.append((source, name))
            answer = answers[source, name]
            if isinstance(answer, ExternalServiceError):
                failed.add(source)
                errors += 1
                continue
            try:
                json.dumps(answer, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                errors += 1
                continue
            written[source][name] = answer
    return requests, written, errors


def link_mentions_reference(mentions, sources, soft_errors, collect_raw):
    """Offline linking that asks every source about every mention.

    A package index is asked through its own lookup; a snapshot directory
    is listed once and each name quoted and looked for in the listing. The
    first record with a package URL wins and takes every other record's
    mapped_to names.
    """
    listings = {}
    for source, backend in sources.items():
        if isinstance(backend, ApiSnapshot):
            directory = backend.directory
            listings[source] = set(os.listdir(directory)) if os.path.isdir(directory) else set()
    linked = {}
    for mention_id, name in enumerate(mentions):
        records = []
        for source, backend in sources.items():
            try:
                if source in listings:
                    raw = _snapshot_lookup_reference(backend, listings[source], name)
                else:
                    raw = backend.lookup(name)
            except ExternalServiceError as err:
                soft_errors.append(str(err))
                continue
            if raw is not None:
                collect_raw.setdefault(source, []).append(dict(raw))
                records.append(normalize_reference(raw, source, mention_id, name))
        with_url = [meta for meta in records if meta.package_url]
        if not with_url:
            continue
        chosen = with_url[0]
        for other in records:
            if other is not chosen:
                for text in other.mapped_to:
                    if text not in chosen.mapped_to:
                        chosen.mapped_to.append(text)
        linked[mention_id] = chosen
    return linked


def propagate_links_reference(clusters, mentions, links) -> dict[int, LinkedMetadata]:
    """Every linked mention's record, each inheriting member's a copy with its own ID and mention.

    A member of a cluster whose name has a link gets a copy of the name's
    record; any other mention with a link of its own keeps that record.
    """
    propagated = dict(links)
    for cluster in clusters:
        if cluster.name_id in links:
            for member in cluster.members:
                propagated[member] = LinkedMetadata(
                    **{**vars(links[cluster.name_id]), "id": member,
                       "software_mention": mentions[member]}
                )
    return propagated


def link_report_reference(records) -> list[tuple[str, int, float]]:
    """(source, count, percent of all records) per source, most records first, ties by name."""
    counts = Counter(meta.source for meta in records)
    total = sum(counts.values())
    return sorted(
        ((source, count, 100.0 * count / total) for source, count in counts.items()),
        key=lambda entry: (-entry[1], entry[0]),
    )
