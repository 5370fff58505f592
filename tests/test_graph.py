import random

import pytest
from hypothesis import given, strategies as st

from softmentions.errors import ConsistencyError
from softmentions.graph import (
    DEFAULT_STOPLIST,
    build_matrix,
    connected_components,
    post_process,
    read_stoplist,
    strip_for_comparison,
    write_matrix_tsv,
)
from softmentions.synonyms import SynonymPair, SynonymSource

from oracles import bfs_components

KB = SynonymSource.KNOWLEDGE_BASE
KW = SynonymSource.KEYWORD_INDEX
SS = SynonymSource.STRING_SIMILARITY


def pair(a, b, conf, source):
    return SynonymPair.of(a, b, conf, source)


def test_matrix_law_examples():
    mentions = ["SPSS", "Statistical Package for the Social Sciences", "limma",
                "R package limma", "alpha", "beta"]
    pairs = [
        pair(0, 1, 1.0, KB),
        pair(2, 3, 0.99, KW),
        pair(4, 5, 0.95, SS),
    ]
    graph = build_matrix(pairs, mentions)
    assert graph.entries[(0, 1)][0] == 1.0
    assert graph.entries[(2, 3)][0] == 0.99
    assert (4, 5) not in graph.entries
    graph2 = build_matrix([pair(4, 5, 0.975, SS)], mentions)
    assert graph2.entries[(4, 5)][0] == 0.975


def test_matrix_precedence_kb_over_keyword_over_string():
    mentions = ["a", "b"]
    graph = build_matrix(
        [pair(0, 1, 0.98, SS), pair(0, 1, 0.99, KW), pair(0, 1, 1.0, KB)], mentions
    )
    assert graph.entries[(0, 1)] == (1.0, KB)
    graph = build_matrix([pair(0, 1, 0.98, SS), pair(0, 1, 0.99, KW)], mentions)
    assert graph.entries[(0, 1)] == (0.99, KW)
    # order of arrival does not matter
    graph = build_matrix([pair(0, 1, 1.0, KB), pair(0, 1, 0.98, SS)], mentions)
    assert graph.entries[(0, 1)] == (1.0, KB)


def test_matrix_keyword_kept_even_below_use_threshold():
    # keyword and KB pairs enter unconditionally; only string pairs are gated
    graph = build_matrix([pair(0, 1, 0.99, KW)], ["a", "b"], use_threshold=0.995)
    assert graph.entries[(0, 1)][0] == 0.99


def test_matrix_unknown_mention_id_fatal():
    with pytest.raises(ConsistencyError):
        build_matrix([pair(0, 5, 1.0, KB)], ["a", "b"])


def test_strip_for_comparison():
    assert strip_for_comparison("ImageJ2") == "ImageJ"
    assert strip_for_comparison("Scikit-Learn®") == "ScikitLearn"
    assert strip_for_comparison("Image J©") == "Image J"
    assert strip_for_comparison("GraphPad.PRISM®") == "GraphPadPRISM"


def test_post_process_promotes_stripped_equal():
    mentions = ["ImageJ", "ImageJ2"]
    graph = build_matrix([pair(0, 1, 0.9714285714285714, SS)], mentions)
    processed = post_process(graph)
    assert processed.entries[(0, 1)] == (1.0, SynonymSource.POST_PROCESS)


def test_post_process_promotes_multi_token_case_insensitive():
    mentions = ["GraphPad Prism", "graphpad prism"]
    graph = build_matrix([pair(0, 1, 0.97, SS)], mentions)
    assert post_process(graph).entries[(0, 1)][0] == 1.0


def test_post_process_leaves_single_token_case_variants_alone():
    mentions = ["Blast", "BLAST"]
    graph = build_matrix([pair(0, 1, 0.975, SS)], mentions)
    assert post_process(graph).entries[(0, 1)] == (0.975, SS)


def test_post_process_removes_stoplisted_edges():
    mentions = ["R package", "R package limma", "limma"]
    graph = build_matrix(
        [pair(0, 1, 0.99, KW), pair(1, 2, 0.99, KW)], mentions
    )
    processed = post_process(graph)
    assert (0, 1) not in processed.entries
    assert (1, 2) in processed.entries
    assert post_process(graph, stoplist={"limma"}).entries.keys() == {(0, 1)}


def test_post_process_promotion_preserves_kb_source():
    # an already-maximal KB edge is not relabeled
    mentions = ["ImageJ", "ImageJ2"]
    graph = build_matrix([pair(0, 1, 1.0, KB)], mentions)
    assert post_process(graph).entries[(0, 1)] == (1.0, KB)


def _random_graph(rng, n_max=25):
    vocab = [
        "ImageJ", "ImageJ2", "Image J", "image j", "GraphPad Prism", "graphpad prism",
        "R package", "r package", "interface", "BLAST", "Blast", "BLAST+", "SPSS",
        "limma", "R package limma", "tool-9", "tool 9", "alpha", "beta", "gamma",
        "Delta®", "Delta", "x", "yy", "zzz",
    ]
    mentions = rng.sample(vocab, rng.randint(2, min(n_max, len(vocab))))
    pairs = []
    for _ in range(rng.randint(0, 12)):
        i, j = rng.sample(range(len(mentions)), 2)
        source = rng.choice([KB, KW, SS])
        conf = {KB: 1.0, KW: 0.99, SS: rng.choice([0.9, 0.95, 0.97, 0.975, 0.99, 1.0])}[source]
        pairs.append(pair(i, j, conf, source))
    return build_matrix(pairs, mentions)


def test_post_process_idempotent_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(150):
        graph = _random_graph(rng)
        once = post_process(graph)
        twice = post_process(once)
        assert once.entries == twice.entries
        assert len(once.entries) <= len(graph.entries)
        assert all(v >= 0.97 for v, _ in once.entries.values())


def test_components_path_graph():
    graph = build_matrix([pair(0, 1, 1.0, KB), pair(1, 2, 1.0, KB)], ["a", "b", "c"])
    assert connected_components(graph) == [(0, 1, 2)]


def test_components_empty_graph():
    graph = build_matrix([], ["a", "b"])
    assert connected_components(graph) == []


def test_components_isolated_vertices_excluded_and_order_deterministic():
    mentions = [str(i) for i in range(7)]
    graph = build_matrix(
        [pair(5, 6, 1.0, KB), pair(0, 2, 1.0, KB)], mentions
    )
    comps = connected_components(graph)
    assert comps == [(0, 2), (5, 6)]
    assert graph.covered_vertices() == {0, 2, 5, 6}


def test_components_match_bfs_oracle_on_random_graphs():
    rng = random.Random(7)
    cases = []
    for _ in range(60):
        n = rng.randint(2, 60)
        edges = set()
        for _ in range(rng.randint(0, n)):
            i, j = rng.sample(range(n), 2)
            edges.add((min(i, j), max(i, j)))
        cases.append((n, list(edges)))
    # Long paths, their edges added in descending and ascending order, build
    # deep union-find trees.
    path = [(i, i + 1) for i in range(19_999)]
    cases += [(20_000, path[::-1]), (20_000, path)]
    for n, edges in cases:
        graph = build_matrix([pair(i, j, 1.0, KB) for i, j in edges], [f"m{i}" for i in range(n)])
        assert connected_components(graph) == bfs_components(n, set(edges))


def test_submatrix_restricts_to_members():
    graph = build_matrix(
        [pair(0, 1, 1.0, KB), pair(2, 3, 0.99, KW)], ["a", "b", "c", "d"]
    )
    assert graph.submatrix([0, 1]) == {(0, 1): 1.0}
    assert graph.submatrix([0, 2]) == {}


def full_scan_submatrix(graph, members):
    keep = set(members)
    return {
        key: value
        for key, (value, _) in graph.entries.items()
        if key[0] in keep and key[1] in keep
    }


@given(
    st.integers(2, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60),
            st.lists(st.sets(st.integers(0, n - 1)), max_size=5),
        )
    )
)
def test_submatrix_matches_full_edge_scan(case):
    n, ends, subsets = case
    pairs = [pair(i, j, 0.97 + (i * j % 4) / 100, SS) for i, j in ends if i != j]
    graph = build_matrix(pairs, [f"m{i}" for i in range(n)])
    for members in connected_components(graph) + [tuple(s) for s in subsets]:
        assert graph.submatrix(members) == full_scan_submatrix(graph, members)


def test_matrix_dump_round_trip(tmp_path):
    mentions = ["a", "b", "c"]
    graph = build_matrix([pair(0, 1, 1.0, KB), pair(1, 2, 0.975, SS)], mentions)
    write_matrix_tsv(tmp_path / "m.tsv", graph)
    assert (tmp_path / "m.tsv").read_text(encoding="utf-8") == (
        "i\tj\tvalue\tsource\n"
        "0\t1\t1.0\tKnowledgeBase\n"
        "1\t2\t0.975\tStringSimilarity\n"
    )


def test_read_stoplist(tmp_path):
    (tmp_path / "stop.txt").write_text("R package\n# comment\ninterface\n", encoding="utf-8")
    assert read_stoplist(tmp_path / "stop.txt") == frozenset({"R package", "interface"})
    assert set(DEFAULT_STOPLIST) == {"R package", "r package", "interface"}
