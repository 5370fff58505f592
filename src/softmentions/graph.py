"""Sparse similarity matrix assembly, post-processing, connected components.

The matrix stores one value per unordered mention pair: 1.0 for
knowledge-base pairs, 0.99 for keyword-index pairs not covered by the
knowledge base, and the string-similarity score for remaining pairs at or
above the use threshold. Post-processing promotes a few classes of pairs
to 1.0 and deletes every edge touching a stoplisted broad term.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .errors import ConsistencyError
from .fileio import read_lines, write_tsv
from .synonyms import SynonymPair, SynonymSource

DEFAULT_STOPLIST = ("R package", "r package", "interface")

COPYRIGHT_MARKS = "©®™"  # (c), (r), TM

_PRECEDENCE = {
    SynonymSource.KNOWLEDGE_BASE: 3,
    SynonymSource.KEYWORD_INDEX: 2,
    SynonymSource.STRING_SIMILARITY: 1,
}


@dataclass
class SimilarityGraph:
    """Stored edges by mention pair; never mutated once built or post-processed."""

    mentions: Sequence[str]
    entries: dict[tuple[int, int], tuple[float, SynonymSource]]

    def covered_vertices(self) -> set[int]:
        covered: set[int] = set()
        for i, j in self.entries:
            covered.add(i)
            covered.add(j)
        return covered

    @cached_property
    def _keys_by_first(self) -> dict[int, list[tuple[int, int]]]:
        """Edge keys grouped by their first (lower) endpoint."""
        index: dict[int, list[tuple[int, int]]] = {}
        for key in self.entries:
            index.setdefault(key[0], []).append(key)
        return index

    def submatrix(self, members: Iterable[int]) -> dict[tuple[int, int], float]:
        """The stored values between members, in O(their edges) not O(all edges).

        Keys come in member order, not edge order; dbscan sorts adjacency.
        """
        keep = set(members)
        return {
            key: self.entries[key][0]
            for i in keep
            for key in self._keys_by_first.get(i, ())
            if key[1] in keep
        }


def build_matrix(
    pairs: Iterable[SynonymPair],
    mentions: Sequence[str],
    use_threshold: float = 0.97,
) -> SimilarityGraph:
    """Assemble the similarity matrix from canonical synonym pairs.

    Knowledge-base pairs enter at 1.0 and keyword pairs at 0.99 regardless
    of threshold; string-similarity pairs enter at their score only when it
    reaches ``use_threshold``. When several channels cover one pair the
    higher-precedence channel wins (knowledge base, then keywords, then
    string similarity).
    """
    n = len(mentions)
    entries: dict[tuple[int, int], tuple[float, SynonymSource]] = {}
    best_rank: dict[tuple[int, int], int] = {}
    for pair in pairs:
        if pair.b >= n or pair.a < 0:
            raise ConsistencyError(
                f"pair ({pair.a}, {pair.b}) references an unknown mention id"
            )
        rank = _PRECEDENCE.get(pair.source)
        if rank is None:
            raise ConsistencyError(f"unexpected pair source: {pair.source}")
        if pair.source is SynonymSource.KNOWLEDGE_BASE:
            value = 1.0
        elif pair.source is SynonymSource.KEYWORD_INDEX:
            value = 0.99
        else:
            if pair.confidence < use_threshold:
                continue
            value = pair.confidence
        key = (pair.a, pair.b)
        if rank > best_rank.get(key, 0):
            best_rank[key] = rank
            entries[key] = (value, pair.source)
    return SimilarityGraph(mentions=mentions, entries=entries)


def strip_for_comparison(text: str) -> str:
    """Drop digits, punctuation and copyright marks."""
    return "".join(
        ch
        for ch in text
        if not (
            ch.isdigit()
            or unicodedata.category(ch).startswith("P")
            or ch in COPYRIGHT_MARKS
        )
    )


def post_process(
    graph: SimilarityGraph, stoplist: Iterable[str] = DEFAULT_STOPLIST
) -> SimilarityGraph:
    """Apply the promotion and stoplist rules; idempotent.

    Stored pairs whose strings are equal once stripped, or that are
    multi-token and equal case-insensitively, are promoted to 1.0. Edges
    touching a stoplisted mention are removed.
    """
    stoplist = frozenset(stoplist)
    strip = cache(lambda i: strip_for_comparison(graph.mentions[i]))
    entries: dict[tuple[int, int], tuple[float, SynonymSource]] = {}
    for (i, j), (value, source) in graph.entries.items():
        a, b = graph.mentions[i], graph.mentions[j]
        if a in stoplist or b in stoplist:
            continue
        if value < 1.0 and (
            strip(i) == strip(j)
            or len(a.split()) > 1 and len(b.split()) > 1 and a.lower() == b.lower()
        ):
            entries[(i, j)] = (1.0, SynonymSource.POST_PROCESS)
        else:
            entries[(i, j)] = (value, source)
    return SimilarityGraph(mentions=graph.mentions, entries=entries)


def connected_components(graph: SimilarityGraph) -> list[tuple[int, ...]]:
    """Components over stored edges as sorted member tuples, ordered by smallest member.

    Vertices without edges belong to no component; they are the mentions
    with no significant synonyms.
    """
    parent = list(range(len(graph.mentions)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for i, j in graph.entries:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for vertex in sorted(graph.covered_vertices()):
        groups.setdefault(find(vertex), []).append(vertex)
    return sorted(map(tuple, groups.values()))


def read_stoplist(path) -> frozenset[str]:
    return frozenset(read_lines(path))


MATRIX_HEADER = ("i", "j", "value", "source")


def write_matrix_tsv(path, graph: SimilarityGraph) -> None:
    rows = (
        (str(i), str(j), repr(value), source.value)
        for (i, j), (value, source) in sorted(graph.entries.items())
    )
    write_tsv(path, MATRIX_HEADER, rows)
