"""Synonym-pair generation.

Three channels produce scored pairs between mention IDs:

* keyword expansion around package-registry entries (confidence 0.99),
* a knowledge-base synonym dictionary (confidence 1.0),
* Jaro-Winkler similarity over all mention pairs (confidence = score,
  recorded when the score clears the record threshold, 0.9 by default).

Pairs are stored canonically with a < b. The clustering stage later keeps
only pairs usable at its stricter threshold; everything recorded here goes
to the synonyms TSV for audit.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import LinkSource
from .fileio import read_tsv, write_tsv


class SynonymSource(str, Enum):
    KNOWLEDGE_BASE = "KnowledgeBase"
    KEYWORD_INDEX = "KeywordIndex"
    STRING_SIMILARITY = "StringSimilarity"
    POST_PROCESS = "PostProcess"


# Per-registry keyword lists used to qualify containment matches. Matching
# is case-sensitive; the lists carry both case variants on purpose.
_R_KEYWORDS = ("R", "r", "package", "Package", "R-package", "R-Package", "r-package")
REGISTRY_KEYWORDS: dict[LinkSource, tuple[str, ...]] = {
    LinkSource.PKG_INDEX_PY: ("python", "Python", "API"),
    LinkSource.PKG_INDEX_R: _R_KEYWORDS,
    LinkSource.PKG_INDEX_BIOC: (*_R_KEYWORDS, "bioconductor", "Bioconductor"),
}

KB_CONFIDENCE = 1.0
KEYWORD_CONFIDENCE = 0.99

WINKLER_PREFIX_SCALE = 0.1
WINKLER_MAX_PREFIX = 4
# Classic formulation: the prefix boost only kicks in above this Jaro score.
WINKLER_BOOST_THRESHOLD = 0.7


class SynonymPair(NamedTuple):
    """A scored, source-attributed edge between two mention IDs (a < b), made by ``of``."""

    a: int
    b: int
    confidence: float
    source: SynonymSource

    @classmethod
    def of(cls, a: int, b: int, confidence: float, source: SynonymSource) -> "SynonymPair":
        """The pair with a < b; ValueError for a self-pair or a confidence outside (0, 1]."""
        if a == b:
            raise ValueError(f"self-pair for mention id {a}")
        if not 0.0 < confidence <= 1.0:
            raise ValueError(f"confidence out of range: {confidence}")
        return cls(a, b, confidence, source) if a < b else cls(b, a, confidence, source)


_TOKEN_SPLIT = re.compile(r"[\W_]+", re.UNICODE)


def tokens(text: str) -> tuple[str, ...]:
    """Word tokens, splitting on whitespace, hyphens and other punctuation."""
    return tuple(t for t in _TOKEN_SPLIT.split(text) if t)


def contains_tokens(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    """True when needle occurs as a contiguous run of whole tokens."""
    if not needle or len(needle) > len(haystack):
        return False
    first = needle[0]
    span = len(needle)
    for i, tok in enumerate(haystack[: len(haystack) - span + 1]):
        if tok == first and haystack[i : i + span] == needle:
            return True
    return False


TokenTable = tuple[dict[str, tuple[str, ...]], dict[str, list[tuple[str, int]]]]


def token_table(id_table: Mapping[str, int]) -> TokenTable:
    """Each mention's tokens, and the (mention, ID) pairs that hold each token."""
    mention_tokens = {m: tokens(m) for m in id_table}
    # A mention can contain an entry's tokens only if it has the first one.
    by_token: dict[str, list[tuple[str, int]]] = {}
    for mention, mention_id in id_table.items():
        for tok in set(mention_tokens[mention]):
            by_token.setdefault(tok, []).append((mention, mention_id))
    return mention_tokens, by_token


def generate_keyword_synonyms(
    registry: LinkSource,
    entries: Iterable[str],
    id_table: Mapping[str, int],
    skip_report: list[str] | None = None,
    table: TokenTable | None = None,
) -> list[SynonymPair]:
    """Pair registry entries with mentions that contain them plus one of its REGISTRY_KEYWORDS.

    Containment means the entry appears literally inside the mention AND on
    whole-token boundaries, so "R" never matches inside "PRISM" and a
    hyphenated entry does not match a respelled variant. An entry
    participates only when it is itself a corpus mention. Entries shorter
    than two characters are skipped (and reported) to guard against
    pathological containment. ``table`` is ``token_table(id_table)``, made
    here when not given.
    """
    mention_tokens, by_token = table or token_table(id_table)
    keyword_token_seqs = [tokens(k) for k in REGISTRY_KEYWORDS[registry]]
    pairs: list[SynonymPair] = []
    for entry in sorted(entries):
        if len(entry) < 2:
            if skip_report is not None:
                skip_report.append(entry)
            continue
        entry_id = id_table.get(entry)
        if entry_id is None:
            continue
        entry_toks = mention_tokens[entry]
        if not entry_toks:
            continue
        for mention, mention_id in by_token[entry_toks[0]]:
            if mention == entry or entry not in mention:
                continue
            toks = mention_tokens[mention]
            if not contains_tokens(toks, entry_toks):
                continue
            if any(contains_tokens(toks, kw) for kw in keyword_token_seqs):
                pairs.append(
                    SynonymPair.of(
                        entry_id, mention_id, KEYWORD_CONFIDENCE, SynonymSource.KEYWORD_INDEX
                    )
                )
    return sorted(set(pairs))  # one source and confidence: tuple order is (a, b) order


def load_kb_synonyms(
    kb: Mapping[str, Sequence[str]],
    id_table: Mapping[str, int],
    unmatched: list[tuple[str, str]] | None = None,
) -> list[SynonymPair]:
    """Turn dictionary entries into pairs where both sides are corpus mentions."""
    pairs: list[SynonymPair] = []
    for key in sorted(kb):
        key_id = id_table.get(key)
        for syn in kb[key]:
            if syn == key:
                continue
            syn_id = id_table.get(syn)
            if key_id is None or syn_id is None:
                if unmatched is not None:
                    unmatched.append((key, syn))
                continue
            pairs.append(
                SynonymPair.of(key_id, syn_id, KB_CONFIDENCE, SynonymSource.KNOWLEDGE_BASE)
            )
    return sorted(set(pairs))  # one source and confidence: tuple order is (a, b) order


def read_kb_dict(path) -> dict[str, list[str]]:
    """Two-column TSV (key, synonym); values deduplicated, self-maps dropped."""
    kb: dict[str, list[str]] = {}
    for key, syn in read_tsv(path, ("key", "synonym"), tuple):
        if syn == key:
            continue
        bucket = kb.setdefault(key, [])
        if syn not in bucket:
            bucket.append(syn)
    return kb


def jaro_winkler(a: str, b: str) -> float:
    """Jaro similarity with the Winkler prefix boost.

    Boost parameters are the canonical defaults (scale 0.1 over at most 4
    prefix characters, applied when the Jaro score exceeds 0.7). Two empty
    strings compare equal (1.0 by convention); empty against non-empty is 0.
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    a_match = [False] * la
    b_match = [False] * lb
    matches = 0
    for i, ch in enumerate(a):
        lo = i - window if i > window else 0
        hi = i + window + 1
        if hi > lb:
            hi = lb
        # The first occurrence in the window that is not matched yet.
        j = b.find(ch, lo, hi)
        while j >= 0 and b_match[j]:
            j = b.find(ch, j + 1, hi)
        if j >= 0:
            a_match[i] = True
            b_match[j] = True
            matches += 1
    if matches == 0:
        return 0.0
    transposed = 0
    k = 0
    for i in range(la):
        if not a_match[i]:
            continue
        while not b_match[k]:
            k += 1
        if a[i] != b[k]:
            transposed += 1
        k += 1
    t = transposed / 2.0
    m = float(matches)
    jaro = (m / la + m / lb + (m - t) / m) / 3.0
    if jaro > WINKLER_BOOST_THRESHOLD:
        prefix = 0
        for ca, cb in zip(a, b):
            if ca != cb or prefix == WINKLER_MAX_PREFIX:
                break
            prefix += 1
        jaro += prefix * WINKLER_PREFIX_SCALE * (1.0 - jaro)
    return jaro


# Taken off every float bound of the join, so that rounding never drops a
# pair that scores exactly the threshold.
_BOUND_SLACK = 1e-9


def _count_needed(floor: float, la: int, lb: int) -> int:
    """Least shared-token count c with (c/la + c/lb + 1) / 3 >= floor, at least 1."""
    return max(1, math.ceil((3.0 * floor - 1.0) * la * lb / (la + lb)))


# Buckets of at most this many members are scanned pair by pair: for so few
# members the prefix index costs more than the candidates it would save.
SMALL = 16


def _join_shard(
    args: tuple[list[tuple[int, str]], float, int, int]
) -> list[tuple[int, int, float]]:
    """Triples (lower ID, higher ID, score) of one shard of the filtered join.

    A pair is found when its second member, in its bucket's shortest-first
    order, probes the index, or scans the members before it in a bucket of
    at most ``SMALL``. The shard makes the probes of the members whose
    position in ID order is ``shard`` modulo ``shards``; every shard builds
    the whole index.
    """
    items, threshold, shard, shards = args
    jw = jaro_winkler  # the module global at call time, so that a patched scorer is seen
    ids = [idx for idx, _ in items]
    strings = [mention for _, mention in items]
    lengths = [len(s) for s in strings]
    # A string's tokens, in string order, are (character, k-th occurrence),
    # so the size of a token-set intersection is the multiset intersection.
    tokens_of = []
    df: dict[tuple[str, int], int] = {}
    for s in strings:
        seen: dict[str, int] = {}
        toks = []
        for ch in s:
            tok = (ch, seen.get(ch, 0))
            seen[ch] = tok[1] + 1
            toks.append(tok)
            df[tok] = df.get(tok, 0) + 1
        tokens_of.append(toks)
    rank = {tok: r for r, tok in enumerate(sorted(df, key=lambda t: (df[t], t)))}
    ranks = [[rank[t] for t in toks] for toks in tokens_of]
    masks = [sum(1 << r for r in rs) for rs in ranks]
    distinct_lengths = set(lengths)
    out = []
    for p in range(WINKLER_MAX_PREFIX + 1):
        boost = p * WINKLER_PREFIX_SCALE
        floor = (threshold - boost) / (1.0 - boost) - _BOUND_SLACK
        min_ratio = 3.0 * floor - 2.0
        # Per length lb: the shortest partner the length bound allows, and
        # the tokens beyond the first p (the bucket key, which every member
        # shares) that a partner must share, against that shortest partner
        # when probing and against an equally long one when indexing.
        bounds = {}
        for lb in distinct_lengths:
            shortest = max(1, math.ceil(lb * min_ratio))
            probe_need = _count_needed(floor, lb, shortest) - p
            bounds[lb] = (shortest, probe_need, _count_needed(floor, lb, lb) - p)
        buckets: dict[str, list[int]] = {}
        for i, s in enumerate(strings):
            if lengths[i] >= max(p, 1):
                buckets.setdefault(s[:p], []).append(i)
        for members in buckets.values():
            if len(members) < 2:
                continue
            # Shortest first: every partner found in the index is no longer
            # than the probe, and every partner a member is indexed for is
            # no shorter than it.
            members.sort(key=lengths.__getitem__)
            scan = len(members) <= SMALL
            index: dict[int, list[int]] = {}
            skip: dict[int, int] = {}
            unindexed: list[int] = []
            for pos, i in enumerate(members):
                lb = lengths[i]
                shortest, probe_need, index_need = bounds[lb]
                rest = None if scan else sorted(ranks[i][p:])
                if i % shards == shard:
                    if scan or probe_need <= 0:
                        candidates = members[:pos]
                    else:
                        candidates = set(unindexed)
                        for r in rest[: lb - p - probe_need + 1]:
                            posting = index.get(r)
                            if posting:
                                # Postings and probes both grow in length, so
                                # a member too short for this probe is too
                                # short for every later one.
                                k = skip.get(r, 0)
                                while k < len(posting) and lengths[posting[k]] < shortest:
                                    k += 1
                                skip[r] = k
                                candidates.update(posting[k:])
                    # Both paths end here. The prefix filter and the skip
                    # pointer drop only pairs that these checks drop, so
                    # the pairs scored do not depend on the path. A pair
                    # sharing the next character belongs to a deeper level;
                    # la < shortest is la < min_ratio * lb for a whole la.
                    b = strings[i]
                    head = b[p : p + 1] if p < WINKLER_MAX_PREFIX else None
                    mask = masks[i]
                    for j in candidates:
                        la = lengths[j]
                        if la < shortest or strings[j][p : p + 1] == head:
                            continue
                        common = (mask & masks[j]).bit_count()
                        if common / la + common / lb + 1.0 < 3.0 * floor:
                            continue
                        lo, hi = (j, i) if j < i else (i, j)
                        score = jw(strings[lo], strings[hi])
                        if score >= threshold:
                            out.append((ids[lo], ids[hi], score))
                if scan:
                    continue
                if index_need <= 0:
                    unindexed.append(i)
                else:
                    for r in rest[: lb - p - index_need + 1]:
                        index.setdefault(r, []).append(i)
    return out


def all_pairs_similarity(
    id_table: Mapping[str, int],
    record_threshold: float = 0.9,
    workers: int = 1,
) -> list[SynonymPair]:
    """All mention pairs scoring at or above the record threshold.

    An exact filtered join: it returns what the exhaustive double loop
    returns, scoring far fewer pairs. With p the common prefix capped at 4,
    Jaro-Winkler reaches the threshold t only if Jaro >= (t - 0.1p) /
    (1 - 0.1p) (without the boost, Jaro >= t, which is higher). Each pair
    is enumerated once, at its own level p, among the mentions that share
    their first p characters, and three bounds that follow from that Jaro
    floor J drop it before scoring:

    * length: Jaro <= (2 + short/long) / 3, so short/long >= 3J - 2;
    * count: matches are at most c, the multiset intersection of the two
      strings' characters, so Jaro <= (c/la + c/lb + 1) / 3;
    * prefix filter (Bayardo et al., WWW 2007): with characters as
      (character, k-th occurrence) tokens sorted by global rarity, two
      strings that share at least c_min tokens share one within the first
      l - c_min + 1 tokens of each. c_min is the count J needs against the
      shortest partner the length bound allows; mentions are taken
      shortest first, so the indexed side needs only the count against a
      partner as long as itself (PPJoin, Xiao et al., WWW 2008).

    The bounds are worked out once per level and mention length. A bucket
    of at most ``SMALL`` mentions is scanned pair by pair without the
    prefix filter. The filter only passes over pairs that the length and
    count bounds drop, so how candidates are found never changes which
    pairs are scored.

    Every bound carries a slack of 1e-9, so a pair scoring exactly the
    threshold is kept. Survivors are scored with ``jaro_winkler(string of
    the lower ID, string of the higher ID)``. ``workers > 1`` splits the
    probes over processes; the result does not depend on it.
    """
    if not 0.0 < record_threshold <= 1.0:
        raise ValueError(f"record_threshold out of range: {record_threshold}")
    items = sorted((idx, mention) for mention, idx in id_table.items())
    shards = [(items, record_threshold, k, workers) for k in range(workers)]
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            triples = [t for part in pool.map(_join_shard, shards) for t in part]
    else:
        triples = _join_shard(shards[0])
    triples.sort()
    return [
        SynonymPair.of(a, b, score, SynonymSource.STRING_SIMILARITY)
        for a, b, score in triples
    ]


KbSynonymDict = Mapping[str, Sequence[str]]


def generate_synonym_pairs(
    id_table: Mapping[str, int],
    registries: Mapping[LinkSource, Iterable[str]] | None = None,
    kb: KbSynonymDict | None = None,
    record_threshold: float = 0.9,
    workers: int = 1,
    skip_report: list[str] | None = None,
    unmatched: list[tuple[str, str]] | None = None,
) -> list[SynonymPair]:
    """Run all three channels and return their pairs, sorted.

    ``registries`` holds the entry names of each package registry.

    Duplicate coverage across channels is kept; matrix assembly resolves
    precedence.
    """
    pairs: list[SynonymPair] = []
    if registries:
        table = token_table(id_table)
        for registry, entries in registries.items():
            pairs.extend(generate_keyword_synonyms(registry, entries, id_table, skip_report, table))
    if kb:
        pairs.extend(load_kb_synonyms(kb, id_table, unmatched))
    pairs.extend(all_pairs_similarity(id_table, record_threshold, workers=workers))
    return sorted(set(pairs), key=lambda p: (p.a, p.b, p.source.value))


SYNONYMS_HEADER = (
    "ID",
    "synonym_ID",
    "software_mention",
    "synonym",
    "synonym_conf",
    "synonym_source",
)


def write_synonyms_tsv(path, pairs: Iterable[SynonymPair], mentions: Sequence[str]) -> None:
    rows = (
        (str(p.a), str(p.b), mentions[p.a], mentions[p.b], repr(p.confidence), p.source.value)
        for p in sorted(pairs, key=lambda p: (p.a, p.b, p.source.value))
    )
    write_tsv(path, SYNONYMS_HEADER, rows)


# The sources a generator writes; PostProcess only marks edges the graph promotes.
_PAIR_SOURCES = {s.value: s for s in SynonymSource if s is not SynonymSource.POST_PROCESS}


def read_synonyms_tsv(path, mentions: Sequence[str]) -> list[SynonymPair]:
    """The pairs of synonyms.tsv; both IDs of each must index ``mentions``.

    Each row's software_mention and synonym must be the mentions of its ID
    and synonym_ID.
    """

    def row(fields: list[str]) -> SynonymPair:
        a, b = int(fields[0]), int(fields[1])
        for mention_id in (a, b):
            if not 0 <= mention_id < len(mentions):
                raise KeyError(mention_id)
        if fields[2] != mentions[a] or fields[3] != mentions[b]:
            column, mention_id = (2, a) if fields[2] != mentions[a] else (3, b)
            text, want = fields[column], mentions[mention_id]
            name = SYNONYMS_HEADER[column]
            raise ValueError(f"{name} {text!r} is not mention {mention_id}, {want!r}")
        confidence, source = float(fields[4]), _PAIR_SOURCES.get(fields[5])
        if source is None:
            raise ValueError(f"synonym_source {fields[5]!r} is not one of {sorted(_PAIR_SOURCES)}")
        return SynonymPair.of(a, b, confidence, source)

    return read_tsv(path, SYNONYMS_HEADER, row)
