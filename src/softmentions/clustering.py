"""Density clustering per connected component and cluster naming.

Two members of a component are neighbours when their stored similarity
lies within eps of 1 (distance = 1 - similarity); members without a stored
similarity never are. One submatrix read over all mentions builds every
neighbour list in one pass; no edge joins two components, so DBSCAN then
runs per component over these lists with deterministic tie-breaking.
Every cluster is named after its member with the highest distinct-paper
frequency.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, NamedTuple, Sequence

from .fileio import write_tsv
from .graph import (
    DEFAULT_STOPLIST,
    SimilarityGraph,
    build_matrix,
    connected_components,
    post_process,
)
from .ingest import CORPUS_FIELDS, CorpusRow
from .synonyms import SynonymPair


def dbscan(
    neighbors: Mapping[int, Sequence[int]],
    points: Sequence[int],
    min_pts: int,
) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """DBSCAN over each point's neighbours within eps, itself excluded, in any order.

    A point is core when it has at least min_pts neighbors within eps,
    counting itself. Cluster seeds are scanned in ascending ID order, so a
    border point reachable from several clusters joins the cluster whose
    core set was discovered first. Returns (clusters, noise); clusters keep
    discovery order and their members are sorted.
    """
    if min_pts < 1:
        raise ValueError(f"min_pts must be at least 1: {min_pts}")
    ordered = sorted(points)
    core = {p for p in ordered if len(neighbors[p]) + 1 >= min_pts}
    assigned: dict[int, int] = {}
    clusters: list[list[int]] = []
    for seed in ordered:
        if seed in assigned or seed not in core:
            continue
        label = len(clusters)
        clusters.append([seed])
        assigned[seed] = label
        queue = deque([seed])
        while queue:
            current = queue.popleft()
            for neighbor in neighbors[current]:
                if neighbor in assigned:
                    continue
                assigned[neighbor] = label
                clusters[label].append(neighbor)
                if neighbor in core:
                    queue.append(neighbor)
    noise = tuple(p for p in ordered if p not in assigned)
    return [tuple(sorted(c)) for c in clusters], noise


class Cluster(NamedTuple):
    """A disambiguated software entity."""

    members: tuple[int, ...]
    name_id: int
    name: str


def name_clusters(
    clusters: Iterable[Sequence[int]],
    freq: Mapping[int, int],
    mentions: Sequence[str],
) -> list[Cluster]:
    """Name each cluster after its highest-frequency member.

    Ties break on the lexicographically smallest mention string, then the
    smallest ID. Members absent from ``freq`` count as 0.
    """
    named = []
    for members in clusters:
        name_id = min(members, key=lambda m: (-freq.get(m, 0), mentions[m], m))
        named.append(
            Cluster(members=tuple(sorted(members)), name_id=name_id, name=mentions[name_id])
        )
    return named


class Accounting(NamedTuple):
    """Partition of all unique mentions by disambiguation outcome."""

    no_significant_synonyms: int
    no_cluster_output: int
    disambiguated: int

    @property
    def total(self) -> int:
        return self.no_significant_synonyms + self.no_cluster_output + self.disambiguated


class DisambiguationResult(NamedTuple):
    """The named clusters, the accounting and the graph."""

    clusters: list[Cluster]
    accounting: Accounting
    graph: SimilarityGraph


def cluster_graph(
    graph: SimilarityGraph,
    freq: Mapping[int, int],
    mentions: Sequence[str],
    eps: float = 0.03,
    min_pts: int = 2,
) -> tuple[list[Cluster], tuple[int, ...]]:
    """Run DBSCAN on every connected component and name the clusters."""
    if not eps > 0:
        raise ValueError(f"eps must be positive: {eps}")
    neighbors: dict[int, list[int]] = {}
    # One read of every stored value, not one per component; perfbench
    # times this submatrix call as clustering.submatrix.
    for (i, j), value in graph.submatrix(range(len(graph.mentions))).items():
        near_i, near_j = neighbors.setdefault(i, []), neighbors.setdefault(j, [])
        # Distances are rounded to 12 decimals so that binary float noise
        # cannot push an edge at the use threshold past an eps meant to
        # admit it (1 - 0.97 must compare equal to 0.03).
        if round(1.0 - value, 12) <= eps:
            near_i.append(j)
            near_j.append(i)
    raw_clusters: list[tuple[int, ...]] = []
    noise: list[int] = []
    for members in connected_components(graph):
        found, component_noise = dbscan(neighbors, members, min_pts)
        raw_clusters.extend(found)
        noise.extend(component_noise)
    return name_clusters(raw_clusters, freq, mentions), tuple(sorted(noise))


def disambiguate_pairs(
    pairs: Iterable[SynonymPair],
    mentions: Sequence[str],
    freq: Mapping[int, int],
    stoplist: Iterable[str] = DEFAULT_STOPLIST,
    use_threshold: float = 0.97,
    eps: float = 0.03,
    min_pts: int = 2,
) -> DisambiguationResult:
    """Cluster synonym pairs over ``mentions``, where mention i has ID i."""
    graph = post_process(build_matrix(pairs, mentions, use_threshold=use_threshold), stoplist)
    clusters, noise = cluster_graph(graph, freq, mentions, eps=eps, min_pts=min_pts)
    accounting = Accounting(
        no_significant_synonyms=len(mentions) - len(graph.covered_vertices()),
        no_cluster_output=len(noise),
        disambiguated=sum(len(cluster.members) for cluster in clusters),
    )
    return DisambiguationResult(clusters=clusters, accounting=accounting, graph=graph)


def write_disambiguated_tsv(
    path,
    rows: Iterable[CorpusRow],
    corpus_kind: str,
    id_table: Mapping[str, int],
    clusters: Iterable[Cluster],
) -> None:
    """Raw corpus rows plus mapped_to_software / mapped_to_software_ID, streamed to ``path``.

    Each row goes to write_tsv as its line and its cluster's two cells
    joined by a tab (two empty cells for a mention in no cluster).
    """
    header = (*CORPUS_FIELDS[corpus_kind], "mapped_to_software", "mapped_to_software_ID")
    cells: dict[int, str] = {}
    for cluster in clusters:
        cells.update(dict.fromkeys(cluster.members, f"{cluster.name}\t{cluster.name_id}"))
    write_tsv(path, header, ((row.line, cells.get(id_table[row.software], "\t")) for row in rows))
