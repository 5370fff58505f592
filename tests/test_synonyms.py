import math
import os
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from softmentions import synonyms
from softmentions.config import LinkSource
from softmentions.errors import FormatError
from softmentions.ingest import assign_ids
from softmentions.synonyms import (
    KB_CONFIDENCE,
    KEYWORD_CONFIDENCE,
    REGISTRY_KEYWORDS,
    SynonymPair,
    SynonymSource,
    all_pairs_similarity,
    contains_tokens,
    generate_keyword_synonyms,
    generate_synonym_pairs,
    jaro_winkler,
    load_kb_synonyms,
    read_kb_dict,
    read_synonyms_tsv,
    tokens,
    write_synonyms_tsv,
)

from oracles import (
    jaro_reference,
    keyword_pairs_reference,
    prune_free_similarity_pairs,
    scored_pairs_reference,
)

# Expected scores computed with the independent textbook oracle in
# tests/oracles.py and frozen here.
JARO_WINKLER_SUITE = [
    ("BLAST", "BLAST", 1.0),
    ("", "", 1.0),
    ("abc", "xyz", 0.0),
    ("", "nonempty", 0.0),
    ("MARTHA", "MARHTA", 0.9611111111111111),
    ("DIXON", "DICKSONX", 0.8133333333333332),
    ("JELLYFISH", "SMELLYFISH", 0.8962962962962964),
    ("DWAYNE", "DUANE", 0.8400000000000001),
    ("ImageJ", "Image J", 0.9714285714285714),
    ("ImageJ2", "ImageJ", 0.9714285714285714),
    ("scikit-learn", "scikit-learn python package", 0.888888888888889),
    ("sklearn", "scikit-learn", 0.875),
    ("BLAST", "SPSS", 0.48333333333333334),
    ("GraphPad Prism", "GraphPad prism", 0.9714285714285714),
    ("SPSS", "SPSS Statistics", 0.8533333333333333),
    ("a", "a", 1.0),
    ("a", "b", 0.0),
    ("ab", "ba", 0.0),
    ("CRATE", "TRACE", 0.7333333333333334),
    ("limma", "R package limma", 0.4222222222222222),
]


@pytest.mark.parametrize("a,b,expected", JARO_WINKLER_SUITE)
def test_jaro_winkler_reference_suite(a, b, expected):
    assert jaro_winkler(a, b) == pytest.approx(expected, abs=1e-9)
    assert jaro_reference(a, b) == pytest.approx(expected, abs=1e-9)


_chars = st.characters(blacklist_categories=("Cs",))
_strings = st.text(alphabet=_chars, max_size=16)


@given(_strings, _strings)
def test_jaro_winkler_symmetric_and_bounded(a, b):
    score = jaro_winkler(a, b)
    assert score == jaro_winkler(b, a)
    assert 0.0 <= score <= 1.0
    assert (score == 1.0) == (a == b)


@given(_strings)
def test_jaro_winkler_identity(a):
    assert jaro_winkler(a, a) == 1.0


# synonyms.tsv writes repr(score), so the kernel must give the oracle's float
# exactly. The examples hold repeats of a character in the window that an
# earlier character of the other string has already taken.
@given(_strings, _strings)
@example("aaaa", "aaab")
@example("abab", "baba")
@example("aab", "aba")
def test_jaro_winkler_matches_oracle(a, b):
    assert jaro_winkler(a, b) == jaro_reference(a, b)


def test_tokens_split_on_whitespace_hyphen_punctuation():
    assert tokens("R package limma") == ("R", "package", "limma")
    assert tokens("scikit-learn") == ("scikit", "learn")
    assert tokens('R package "limma"') == ("R", "package", "limma")
    assert tokens("R/Biconductor_package") == ("R", "Biconductor", "package")
    assert contains_tokens(tokens("PRISM tool"), tokens("R")) is False
    assert contains_tokens(tokens("R package limma"), tokens("R-package")) is True


def _ids(*mentions):
    return assign_ids(mentions)


def test_keyword_synonyms_limma():
    id_table, _ = _ids("limma", "R package limma", "limma R package", "ImageJ")
    pairs = generate_keyword_synonyms(LinkSource.PKG_INDEX_BIOC, {"limma"}, id_table)
    found = {(p.a, p.b) for p in pairs}
    limma = id_table["limma"]
    assert (min(limma, id_table["R package limma"]), max(limma, id_table["R package limma"])) in found
    assert (min(limma, id_table["limma R package"]), max(limma, id_table["limma R package"])) in found
    assert all(p.confidence == KEYWORD_CONFIDENCE for p in pairs)
    assert all(p.source is SynonymSource.KEYWORD_INDEX for p in pairs)
    assert len(pairs) == 2  # ImageJ has no containment


def test_keyword_synonyms_python_index():
    id_table, _ = _ids("scikit-learn", "scikit-learn python package", "scikit-learn bundle")
    pairs = generate_keyword_synonyms(LinkSource.PKG_INDEX_PY, {"scikit-learn"}, id_table)
    # "bundle" carries no index keyword, so only the python variant pairs
    assert len(pairs) == 1
    a, b = sorted([id_table["scikit-learn"], id_table["scikit-learn python package"]])
    assert (pairs[0].a, pairs[0].b) == (a, b)


def test_keyword_matching_is_case_sensitive():
    id_table, _ = _ids("limma", "LIMMA R package", "limma Package", "limma bundle")
    pairs = generate_keyword_synonyms(LinkSource.PKG_INDEX_BIOC, {"limma"}, id_table)
    matched = {p.b for p in pairs} | {p.a for p in pairs}
    assert id_table["limma Package"] in matched        # keyword "Package"
    assert id_table["LIMMA R package"] not in matched  # entry containment is exact
    assert id_table["limma bundle"] not in matched     # no keyword


def test_keyword_short_entries_skipped_and_reported():
    id_table, _ = _ids("R", "R package limma")
    report = []
    pairs = generate_keyword_synonyms(LinkSource.PKG_INDEX_R, {"R"}, id_table, skip_report=report)
    assert pairs == []
    assert report == ["R"]


def test_keyword_entry_absent_from_mentions_is_ignored():
    id_table, _ = _ids("R package limma")
    assert generate_keyword_synonyms(LinkSource.PKG_INDEX_BIOC, {"limma"}, id_table) == []


def test_keyword_containment_requires_literal_substring():
    # token boundaries alone are not enough: a respelled entry is no match
    id_table, _ = _ids("scikit-learn", "scikit learn python", "scikit-learn python")
    pairs = generate_keyword_synonyms(LinkSource.PKG_INDEX_PY, {"scikit-learn"}, id_table)
    matched = {p.a for p in pairs} | {p.b for p in pairs}
    assert id_table["scikit-learn python"] in matched
    assert id_table["scikit learn python"] not in matched


# Names over a few words, letters and separators, so that tokens repeat,
# entries nest inside mentions, keywords occur and some names have no token.
_name_words = st.sampled_from(["R", "r", "lim", "ma", "package", "Package", "python", "API", "a"])
_name_separators = st.sampled_from([" ", "-", "_", "-_", "  "])
_names = st.one_of(
    st.builds(
        lambda first, rest: first + "".join(sep + word for sep, word in rest),
        _name_words,
        st.lists(st.tuples(_name_separators, _name_words), max_size=3),
    ),
    st.text(alphabet="aRr -_", min_size=1, max_size=6),
)


@given(
    st.sets(_names, min_size=1, max_size=25),
    st.sets(_names, max_size=8),
    st.sampled_from(list(REGISTRY_KEYWORDS)),
)
def test_keyword_synonyms_match_exhaustive_oracle(mentions, others, registry):
    id_table, _ = assign_ids(sorted(mentions))
    # Entries: some mentions (only those can pair) and some other names.
    entries = set(sorted(mentions)[::2]) | others
    skipped = []
    pairs = generate_keyword_synonyms(registry, entries, id_table, skipped)
    expected = keyword_pairs_reference(entries, REGISTRY_KEYWORDS[registry], id_table)
    assert ([(p.a, p.b) for p in pairs], skipped) == expected


@given(
    st.sets(_names, min_size=1, max_size=25),
    st.sets(_names, max_size=8),
    st.sets(_names, max_size=8),
    st.sets(_names, max_size=8),
)
def test_keyword_channel_tokenises_each_mention_once(mentions, py, r, bioc):
    id_table, ordered = assign_ids(mentions)
    registries = {
        LinkSource.PKG_INDEX_PY: set(ordered[::3]) | py,
        LinkSource.PKG_INDEX_R: set(ordered[1::3]) | r,
        LinkSource.PKG_INDEX_BIOC: set(ordered[::2]) | bioc,
    }
    calls = Counter()

    def counted(text):
        calls[text] += 1
        return tokens(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synonyms, "tokens", counted)
        pairs = generate_synonym_pairs(id_table, registries=registries)
    # Each mention once, and each registry's keywords once per registry.
    assert calls == Counter(mentions) + Counter(
        keyword for registry in registries for keyword in REGISTRY_KEYWORDS[registry]
    )
    expected = set()
    for registry, entries in registries.items():
        expected.update(keyword_pairs_reference(entries, REGISTRY_KEYWORDS[registry], id_table)[0])
    keyword_pairs = {(p.a, p.b) for p in pairs if p.source is SynonymSource.KEYWORD_INDEX}
    assert keyword_pairs == expected


def test_keyword_pairs_satisfy_substring_invariant():
    rng = random.Random(17)
    words = ["limma", "edgeR", "R", "r", "package", "Package", "bioconductor",
             "python", "Python", "API", "tool", "suite"]
    mentions = set()
    for _ in range(80):
        mentions.add(" ".join(rng.sample(words, rng.randint(1, 4))))
    id_table, ordered = assign_ids(mentions)
    entries = {"limma", "edgeR", "tool suite"}
    for registry in (LinkSource.PKG_INDEX_PY, LinkSource.PKG_INDEX_R, LinkSource.PKG_INDEX_BIOC):
        for pair in generate_keyword_synonyms(registry, entries, id_table):
            entry, variant = ordered[pair.a], ordered[pair.b]
            if entry not in entries:
                entry, variant = variant, entry
            assert entry in entries
            assert entry in variant


def test_registry_default_keywords():
    assert "bioconductor" in REGISTRY_KEYWORDS[LinkSource.PKG_INDEX_BIOC]
    assert "API" in REGISTRY_KEYWORDS[LinkSource.PKG_INDEX_PY]


def test_kb_synonyms_connect_known_aliases():
    id_table, _ = _ids(
        "SPSS", "Statistical Package for the Social Sciences", "BLASTN", "Nucleotide BLAST"
    )
    kb = {
        "SPSS": ["Statistical Package for the Social Sciences"],
        "BLASTN": ["Nucleotide BLAST", "BLASTX9000"],
    }
    unmatched = []
    pairs = load_kb_synonyms(kb, id_table, unmatched=unmatched)
    assert all(p.confidence == KB_CONFIDENCE for p in pairs)
    assert all(p.source is SynonymSource.KNOWLEDGE_BASE for p in pairs)
    assert len(pairs) == 2
    assert unmatched == [("BLASTN", "BLASTX9000")]


def test_kb_key_absent_no_pair():
    id_table, _ = _ids("ImageJ")
    assert load_kb_synonyms({"SPSS": ["ImageJ"]}, id_table) == []


def test_read_kb_dict_dedupes_and_drops_self(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("key\tsynonym\nA\tB\nA\tB\nA\tA\nC\tD\n", encoding="utf-8")
    assert read_kb_dict(path) == {"A": ["B"], "C": ["D"]}
    (tmp_path / "bad.tsv").write_text("foo\tbar\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_kb_dict(tmp_path / "bad.tsv")


def test_all_pairs_examples():
    id_table, _ = _ids("ImageJ", "Image J")
    pairs = all_pairs_similarity(id_table, 0.9)
    assert len(pairs) == 1
    assert pairs[0].confidence >= 0.97
    assert pairs[0].source is SynonymSource.STRING_SIMILARITY

    id_table, _ = _ids("BLAST", "SPSS")
    assert all_pairs_similarity(id_table, 0.9) == []


def _random_strings(rng, n):
    alphabet = "abcdeABCDE -+912()"
    out = set()
    while len(out) < n:
        out.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12))))
    return out


@pytest.mark.parametrize("threshold", [0.85, 0.9, 0.97])
def test_all_pairs_equals_exhaustive_oracle(threshold):
    rng = random.Random(threshold)
    id_table, _ = assign_ids(_random_strings(rng, 200))
    produced = {(p.a, p.b, p.confidence) for p in all_pairs_similarity(id_table, threshold)}
    expected = prune_free_similarity_pairs(id_table, threshold, jaro_reference)
    assert produced == expected


def test_all_pairs_parallel_matches_serial(monkeypatch):
    rng = random.Random(99)
    id_table, _ = assign_ids(_random_strings(rng, 120))
    serial = all_pairs_similarity(id_table, 0.9, workers=1)
    # Two processes even on a one-CPU machine.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parallel = all_pairs_similarity(id_table, 0.9, workers=2)
    assert serial == parallel


def test_all_pairs_pool_is_no_larger_than_the_machine(monkeypatch):
    import concurrent.futures

    pools = []

    class InlinePool:
        """A process pool that starts no process: map runs each shard here."""

        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            shards = list(shards)
            pools.append(len(shards))
            return map(fn, shards)

    rng = random.Random(7)
    id_table, _ = assign_ids(_random_strings(rng, 60))
    serial = all_pairs_similarity(id_table, 0.7, workers=1)
    assert serial
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert all_pairs_similarity(id_table, 0.7, workers=64) == serial
    assert pools == [2, 2]  # the pool's size, then the number of shards it ran


_JOIN_ALPHABET = "abcé"


@st.composite
def _prefix_sharing_mentions(draw):
    """Mentions over a small alphabet that share 0-5 leading characters."""
    stem = draw(st.text(alphabet=_JOIN_ALPHABET, min_size=5, max_size=5))
    mention = st.builds(
        lambda shared, tail: (stem[:shared] + tail)[:12],
        st.integers(0, 5),
        st.text(alphabet=_JOIN_ALPHABET, min_size=1, max_size=12),
    )
    return draw(st.sets(mention, min_size=2, max_size=30))


@given(_prefix_sharing_mentions(), st.sampled_from([0.5, 0.7, 0.8, 0.9, 0.97, 1.0]))
def test_all_pairs_equals_oracle_on_shared_prefixes(mentions, threshold):
    id_table, _ = assign_ids(mentions)
    produced = {(p.a, p.b, p.confidence) for p in all_pairs_similarity(id_table, threshold)}
    assert produced == prune_free_similarity_pairs(id_table, threshold, jaro_reference)


@st.composite
def _stemmed_mentions(draw):
    """2 to 80 mentions over a small alphabet, each extending one of a few stems.

    A stem shared by many mentions makes a bucket larger than SMALL, while
    other buckets of the same level stay smaller, so both ways of finding
    candidates run in one join. The names come from a seeded Random, which
    keeps drawing 80 of them cheap.
    """
    size = draw(st.integers(2, 80))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def text(n):
        return "".join(rng.choice(_JOIN_ALPHABET) for _ in range(n))

    stems = [text(4) for _ in range(rng.randint(1, 3))]
    mentions = set()
    while len(mentions) < size:
        shared = rng.randint(0, 4)
        mentions.add((rng.choice(stems)[:shared] + text(rng.randint(1, 10)))[:12])
    return mentions


# No deadline: an example's time measures the host, not the join. A
# 76-mention example that takes 50-100 ms has run past Hypothesis's
# default 200 ms on a loaded host.
@settings(deadline=None)
@given(_stemmed_mentions(), st.sampled_from([0.5, 0.7, 0.8, 0.9, 0.97]))
def test_all_pairs_scores_exactly_the_scored_set_reference(mentions, threshold):
    id_table, ordered = assign_ids(mentions)
    expected = sorted(scored_pairs_reference(ordered, threshold))
    items = sorted((idx, mention) for mention, idx in id_table.items())
    scored = []

    def record(a, b):
        scored.append((a, b))
        return jaro_winkler(a, b)

    # A patch does not reach spawned workers, so the two shards of a
    # two-worker join run here.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synonyms, "jaro_winkler", record)
        all_pairs_similarity(id_table, threshold, workers=1)
        assert sorted(scored) == expected
        scored.clear()
        for shard in (0, 1):
            synonyms._join_shard((items, threshold, shard, 2))
        assert sorted(scored) == expected


# As floats these score exactly 0.5 (no boost), 0.8 (prefix 2), 0.9 (prefix 3)
# and 0.9611... (prefix 3).
@pytest.mark.parametrize(
    "a,b", [("aaa", "abbbba"), ("aaaa", "aababb"), ("aaaa", "aaabaaa"), ("MARHTA", "MARTHA")]
)
def test_all_pairs_keeps_a_pair_scoring_exactly_the_threshold(a, b):
    id_table, _ = _ids(a, b)
    score = jaro_winkler(a, b)
    [pair] = all_pairs_similarity(id_table, score)
    assert pair.confidence == score
    assert all_pairs_similarity(id_table, math.nextafter(score, 1.0)) == []


def test_pair_canonical_order_and_validation():
    pair = SynonymPair.of(5, 2, 0.99, SynonymSource.KEYWORD_INDEX)
    assert (pair.a, pair.b) == (2, 5)
    with pytest.raises(ValueError):
        SynonymPair.of(3, 3, 1.0, SynonymSource.KNOWLEDGE_BASE)
    with pytest.raises(ValueError):
        SynonymPair.of(1, 2, 0.0, SynonymSource.KNOWLEDGE_BASE)


@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1.0000000000000002]),
    st.sampled_from(SynonymSource),
)
def test_pair_of_is_the_one_checked_constructor(a, b, confidence, source):
    if a == b or not (confidence > 0.0 and confidence <= 1.0):
        with pytest.raises(ValueError):
            SynonymPair.of(a, b, confidence, source)
    else:
        pair = SynonymPair.of(a, b, confidence, source)
        assert type(pair) is SynonymPair
        assert pair == (min(a, b), max(a, b), confidence, source)


def test_confidence_matches_source_contract():
    id_table, _ = _ids(
        "limma", "R package limma", "SPSS", "Statistical Package for the Social Sciences",
        "ImageJ", "Image J",
    )
    pairs = generate_synonym_pairs(
        id_table,
        registries={LinkSource.PKG_INDEX_BIOC: {"limma"}},
        kb={"SPSS": ["Statistical Package for the Social Sciences"]},
        record_threshold=0.9,
    )
    assert pairs == sorted(pairs, key=lambda p: (p.a, p.b, p.source.value))
    for pair in pairs:
        if pair.source is SynonymSource.KNOWLEDGE_BASE:
            assert pair.confidence == 1.0
        elif pair.source is SynonymSource.KEYWORD_INDEX:
            assert pair.confidence == 0.99
        else:
            assert pair.confidence >= 0.9


def test_synonyms_tsv_round_trip(tmp_path):
    id_table, mentions = _ids("ImageJ", "Image J", "limma")
    pairs = [
        SynonymPair.of(0, 1, 0.9714285714285714, SynonymSource.STRING_SIMILARITY),
        SynonymPair.of(0, 2, 1.0, SynonymSource.KNOWLEDGE_BASE),
    ]
    path = tmp_path / "synonyms.tsv"
    write_synonyms_tsv(path, pairs, mentions)
    assert read_synonyms_tsv(path, mentions) == sorted(pairs, key=lambda p: (p.a, p.b))
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "ID\tsynonym_ID\tsoftware_mention\tsynonym\tsynonym_conf\tsynonym_source"
