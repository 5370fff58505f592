"""Output checks computed apart from the package.

Every check compares the program's artifacts with the generator's plan or
with a rule re-derived here from the documented behaviour (README and the
stage docstrings), using its own code: a Jaro-Winkler written from the
definition, its own union-find, its own TSV reading. A failed check raises
``CheckError`` naming the file and what differs.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path


class CheckError(Exception):
    """An output disagrees with the plan or with the documented rule."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def jaro_winkler_reference(a: str, b: str) -> float:
    """Jaro similarity with the Winkler boost (0.1 per shared prefix
    character, at most four, applied when Jaro exceeds 0.7)."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    reach = max(0, max(len(a), len(b)) // 2 - 1)
    taken = [False] * len(b)
    a_hits = []
    for i, ch in enumerate(a):
        for j in range(max(0, i - reach), min(len(b), i + reach + 1)):
            if not taken[j] and b[j] == ch:
                taken[j] = True
                a_hits.append(ch)
                break
    m = len(a_hits)
    if m == 0:
        return 0.0
    b_hits = [b[j] for j in range(len(b)) if taken[j]]
    t = sum(x != y for x, y in zip(a_hits, b_hits)) / 2.0
    jaro = (m / len(a) + m / len(b) + (m - t) / m) / 3.0
    if jaro <= 0.7:
        return jaro
    prefix = 0
    while prefix < min(4, len(a), len(b)) and a[prefix] == b[prefix]:
        prefix += 1
    return jaro + prefix * 0.1 * (1.0 - jaro)


def read_tsv(path: Path) -> tuple[list[str], list[list[str]]]:
    text = path.read_text(encoding="utf-8")
    _require(text.endswith("\n"), f"{path.name}: missing final newline")
    lines = text[:-1].split("\n")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:] if line]


def _require_same(name: str, found: list, want: list) -> None:
    if found == want:
        return
    k = next(k for k in range(max(len(found), len(want)))
             if k >= len(found) or k >= len(want) or found[k] != want[k])
    raise CheckError(
        f"{name}: data row {k + 1} is {found[k] if k < len(found) else 'missing'}, "
        f"expected {want[k] if k < len(want) else 'none'}"
    )


def _expected_tsv(header, rows) -> bytes:
    return ("\n".join(["\t".join(header)] + ["\t".join(r) for r in rows]) + "\n").encode()


def check_ingest(out: Path, plan: dict) -> None:
    """mention2id.tsv and frequencies.tsv hold exactly the planned tables."""
    mentions = plan["mentions"]
    _require(
        (out / "mention2id.tsv").read_bytes()
        == _expected_tsv(("mention", "id"), [(m, str(k)) for k, m in enumerate(mentions)]),
        "mention2id.tsv: differs from the sorted planned mentions",
    )
    freq = plan["frequencies"]
    _require(
        (out / "frequencies.tsv").read_bytes()
        == _expected_tsv(("mention", "frequency"), [(m, str(freq[m])) for m in mentions]),
        "frequencies.tsv: differs from the planned distinct-paper counts",
    )


def _manifest(out: Path, stage: str) -> dict:
    return json.loads((out / f"manifest_{stage}.json").read_text(encoding="utf-8"))["row_counts"]


def read_synonyms(out: Path, plan: dict) -> list[tuple[int, int, str, str, float, str]]:
    header, rows = read_tsv(out / "synonyms.tsv")
    _require(
        header == ["ID", "synonym_ID", "software_mention", "synonym", "synonym_conf", "synonym_source"],
        f"synonyms.tsv: bad header {header}",
    )
    mentions = plan["mentions"]
    pairs = []
    for row in rows:
        a, b = int(row[0]), int(row[1])
        _require(a < b, f"synonyms.tsv: pair {a}, {b} not in canonical order")
        _require(
            mentions[a] == row[2] and mentions[b] == row[3],
            f"synonyms.tsv: IDs {a}, {b} do not name {row[2]!r}, {row[3]!r}",
        )
        pairs.append((a, b, row[2], row[3], float(row[4]), row[5]))
    return pairs


def _string_pairs(pairs, source: str) -> set[tuple[str, str]]:
    return {tuple(sorted((p[2], p[3]))) for p in pairs if p[5] == source}


def check_synonyms(out: Path, plan: dict, pairs: list) -> None:
    """Channel by channel, the recorded pairs equal the planned ones; string
    pairs score as the reference says, and none that should is missing."""
    threshold = plan["record_threshold"]
    as_pairs = lambda items: {tuple(p) for p in items}  # noqa: E731
    _require(
        _string_pairs(pairs, "KnowledgeBase") == as_pairs(plan["kb_pairs"]),
        "synonyms.tsv: KnowledgeBase pairs differ from the planned dictionary pairs",
    )
    _require(
        _string_pairs(pairs, "KeywordIndex") == as_pairs(plan["keyword_pairs"]),
        "synonyms.tsv: KeywordIndex pairs differ from the planned registry pairs",
    )
    recorded = {}
    for a, b, sa, sb, conf, source in pairs:
        if source != "StringSimilarity":
            continue
        score = jaro_winkler_reference(sa, sb)
        _require(
            score >= threshold and abs(score - conf) <= 1e-12,
            f"synonyms.tsv: {sa!r} ~ {sb!r} recorded at {conf!r}, reference {score!r}",
        )
        recorded[(sa, sb) if sa < sb else (sb, sa)] = conf
    mentions = plan["mentions"]
    rng = random.Random(f"check:{plan['workload']}:{plan['seed']}")
    candidates = {tuple(sorted(p)) for p in plan["variant_pairs"]}
    by_prefix: dict[str, list[str]] = {}
    for m in mentions:
        by_prefix.setdefault(m[:3].lower(), []).append(m)
    for group in by_prefix.values():
        candidates.update(
            tuple(sorted((a, b))) for k, a in enumerate(group) for b in group[k + 1:]
        )
    for _ in range(20_000):
        a, b = rng.sample(mentions, 2)
        candidates.add(tuple(sorted((a, b))))
    for a, b in sorted(candidates):
        if jaro_winkler_reference(a, b) >= threshold:
            _require(
                (a, b) in recorded,
                f"synonyms.tsv: missing StringSimilarity pair {a!r} ~ {b!r}",
            )
    counts = _manifest(out, "synonyms")
    by_source: dict[str, int] = {}
    for p in pairs:
        by_source[p[5]] = by_source.get(p[5], 0) + 1
    _require(
        counts["pairs"] == len(pairs) and counts["by_source"] == by_source,
        "manifest_synonyms.json: row counts differ from synonyms.tsv",
    )


def expected_clusters(plan: dict, pairs: list) -> list[list[int]]:
    """Components of the edges clustering keeps.

    Knowledge-base and keyword pairs always count, string pairs from the
    use threshold on, and edges touching a stoplisted term are dropped.
    With eps at least 1 - use threshold and min_pts 2, every kept edge
    links two core points, so DBSCAN's clusters are these components.
    """
    stop = set(plan["stoplist"])
    parent: dict[int, int] = {}

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, sa, sb, conf, source in pairs:
        if sa in stop or sb in stop:
            continue
        if source == "StringSimilarity" and conf < plan["use_threshold"]:
            continue
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for v in sorted(parent):
        groups.setdefault(root(v), []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def check_clusters(out: Path, plan: dict, clusters: list[list[int]]) -> dict[int, tuple[str, int]]:
    """clusters.tsv holds the expected clusters, each named after its member
    with the highest frequency (ties: smallest string, then smallest ID), and
    the cluster manifest's accounting adds up. Returns member -> (name, name ID)."""
    mentions, freq = plan["mentions"], plan["frequencies"]
    header, rows = read_tsv(out / "clusters.tsv")
    _require(header == ["cluster", "name_id", "name", "member_id", "member"],
             f"clusters.tsv: bad header {header}")
    expected_rows = []
    mapping = {}
    for idx, members in enumerate(clusters):
        name_id = min(members, key=lambda m: (-freq[mentions[m]], mentions[m], m))
        for m in members:
            expected_rows.append([str(idx), str(name_id), mentions[name_id], str(m), mentions[m]])
            mapping[m] = (mentions[name_id], name_id)
    cluster_of: dict[str, str] = {}
    for row in rows:
        _require(cluster_of.setdefault(row[4], row[0]) == row[0],
                 f"clusters.tsv: {row[4]!r} is in clusters {cluster_of[row[4]]} and {row[0]}")
    _require_same("clusters.tsv", rows, expected_rows)
    counts = _manifest(out, "cluster")
    _require(
        counts["no_significant_synonyms"] + counts["no_cluster_output"] + counts["disambiguated"]
        == counts["unique_mentions"] == len(mentions),
        "manifest_cluster.json: the accounting identity does not hold",
    )
    _require(
        counts["disambiguated"] == len(mapping)
        and counts["clusters"] == len(clusters)
        and counts["no_cluster_output"] == 0,
        "manifest_cluster.json: counts differ from clusters.tsv",
    )
    return mapping


def check_planted_families(plan: dict, clusters: list[list[int]]) -> None:
    mentions = plan["mentions"]
    found = sorted(sorted(mentions[m] for m in members) for members in clusters)
    _require(found == plan["families"], "clusters differ from the planted families")


def check_disambiguated(workdir: Path, out: Path, plan: dict, mapping: dict) -> None:
    """Every corpus row, in order and byte for byte, plus its cluster."""
    ids = {m: k for k, m in enumerate(plan["mentions"])}
    corpus = (workdir / plan["corpus"]).read_text(encoding="utf-8").split("\n")
    result = (out / "disambiguated.tsv").read_text(encoding="utf-8").split("\n")
    _require(len(corpus) == len(result), "disambiguated.tsv: row count differs from the corpus")
    _require(result[0] == corpus[0] + "\tmapped_to_software\tmapped_to_software_ID",
             "disambiguated.tsv: bad header")
    for lineno, (raw, line) in enumerate(zip(corpus[1:], result[1:]), start=2):
        if not raw:
            _require(not line, f"disambiguated.tsv: line {lineno} should be empty")
            continue
        software = raw.split("\t")[9]
        name, name_id = mapping.get(ids[software], ("", ""))
        _require(
            line == f"{raw}\t{name}\t{name_id}",
            f"disambiguated.tsv: line {lineno} does not repeat the corpus row with its cluster",
        )


def check_links(out: Path, plan: dict, mapping: dict[int, tuple[str, int]]) -> None:
    """Members inherit the link of their cluster's name; otherwise a
    mention keeps its own exact-match link (README, pipeline step 4)."""
    mentions, links = plan["mentions"], plan["links"]
    expected = {k: (m, links[m]) for k, m in enumerate(mentions) if m in links}
    for member, (name, _) in mapping.items():
        if name in links:
            expected[member] = (mentions[member], links[name])
    header, rows = read_tsv(out / "metadata.tsv")
    _require(header[:4] == ["ID", "software_mention", "mapped_to", "source"],
             f"metadata.tsv: bad header {header}")
    want = sorted(expected.items())
    _require_same("metadata.tsv", [(int(r[0]), (r[1], r[3])) for r in rows], want)
    counts = _manifest(out, "link")
    _require(
        counts["linked_mentions"] == len(want) and counts["directly_linked_names"] == len(links),
        "manifest_link.json: counts differ from the planned links",
    )


def check_outputs(workdir: Path, plan: dict) -> None:
    """Run every check that applies to the workload's outputs."""
    out = workdir / "out"
    check_ingest(out, plan)
    pairs = read_synonyms(out, plan)
    if plan["mode"] == "run-all":
        counts = _manifest(out, "ingest")
        _require(
            counts == {"rows": plan["rows"], "unique_mentions": len(plan["mentions"]),
                       "rows_missing_paper_key": 0},
            f"manifest_ingest.json: row counts {counts} differ from the plan",
        )
        check_synonyms(out, plan, pairs)
    clusters = expected_clusters(plan, pairs)
    if plan["mode"] == "recluster":
        check_planted_families(plan, clusters)
    mapping = check_clusters(out, plan, clusters)
    check_disambiguated(workdir, out, plan, mapping)
    check_links(out, plan, mapping)


def digest(out: Path) -> str:
    """One sha256 over every file under ``out``, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
