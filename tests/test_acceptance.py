"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line. Criteria that need the published
evaluation dataset run only when SOFTMENTIONS_EVAL_DATA points at it.
"""
from __future__ import annotations

import functools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import softmentions
from softmentions.clustering import dbscan
from softmentions.evaluation import (
    fleiss_kappa,
    krippendorff_alpha,
    precision_at_k,
    read_curation_rows,
    read_ratings_csv,
    read_synonym_labels,
    synonym_prf,
)
from softmentions.fileio import open_text, read_lines
from softmentions.graph import DEFAULT_STOPLIST, build_matrix, connected_components, post_process
from softmentions.ingest import parse_mentions
from softmentions.linking import (
    MASTER_HEADER,
    LinkedMetadata,
    LinkSource,
    RegistrySnapshot,
    exact_match_lookup,
    link_mentions,
    metadata_rows,
    normalize_metadata,
    propagate_links,
)
from softmentions.synonyms import (
    SynonymPair,
    SynonymSource,
    jaro_winkler,
    read_kb_dict,
)

from conftest import BASE_NAMES, DATA_DIR, FIXTURE_DIR, run_chain
from oracles import bfs_components, dbscan_reference, jaro_reference, neighbors_within
from test_synonyms import JARO_WINKLER_SUITE
from test_evaluation import ALPHA_FIXTURES, FLEISS_FIXTURES

KB = SynonymSource.KNOWLEDGE_BASE
KW = SynonymSource.KEYWORD_INDEX
SS = SynonymSource.STRING_SIMILARITY


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as err:
                outcome = "SKIPPED" if isinstance(err, pytest.skip.Exception) else "FAIL"
                print(f"\nACCEPTANCE {name}: {outcome}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def fixture_pipeline():
    """One full disambiguation run over the bundled corpus."""
    with open_text(FIXTURE_DIR / "corpus.tsv") as fh:
        records = list(parse_mentions(fh, "comm"))
    registries = {
        LinkSource.PKG_INDEX_PY: set(read_lines(FIXTURE_DIR / "registry_py.txt")),
        LinkSource.PKG_INDEX_R: set(read_lines(FIXTURE_DIR / "registry_r.txt")),
        LinkSource.PKG_INDEX_BIOC: set(read_lines(FIXTURE_DIR / "registry_bioc.txt")),
    }
    kb = read_kb_dict(FIXTURE_DIR / "kb_synonyms.tsv")
    stoplist = read_lines(FIXTURE_DIR / "stoplist.txt")
    started = time.perf_counter()
    chain = run_chain(records, registries=registries, kb=kb, stoplist=stoplist)
    elapsed = time.perf_counter() - started
    return records, chain, elapsed


@criterion("jaro-winkler reference suite")
def test_criterion_jaro_winkler():
    started = time.perf_counter()
    assert jaro_winkler("BLAST", "BLAST") == 1.0
    assert jaro_winkler("abc", "xyz") == 0.0
    assert len(JARO_WINKLER_SUITE) == 20
    for a, b, expected in JARO_WINKLER_SUITE:
        assert abs(jaro_winkler(a, b) - expected) <= 1e-9, (a, b)
        assert abs(jaro_reference(a, b) - expected) <= 1e-9, (a, b)
    assert abs(jaro_winkler("MARTHA", "MARHTA") - 0.961111111111111) <= 1e-9
    assert time.perf_counter() - started < 1.0


@criterion("similarity matrix law, 10000 randomized cases")
def test_criterion_matrix_law():
    rng = random.Random(20240)
    confidences = [0.9, 0.93, 0.95, 0.9699, 0.97, 0.975, 0.98, 0.99, 1.0]
    for _ in range(10_000):
        n = rng.randint(2, 10)
        mentions = [f"m{i}" for i in range(n)]
        chosen: dict[tuple[int, int], dict] = {}
        for _ in range(rng.randint(1, 8)):
            i, j = rng.sample(range(n), 2)
            key = (min(i, j), max(i, j))
            channels = chosen.setdefault(key, {"kb": False, "kw": False, "ss": None})
            channel = rng.choice(["kb", "kw", "ss"])
            if channel == "ss":
                channels["ss"] = max(channels["ss"] or 0.0, rng.choice(confidences))
            else:
                channels[channel] = True
        pairs = []
        for (i, j), channels in chosen.items():
            if channels["kb"]:
                pairs.append(SynonymPair.of(i, j, 1.0, KB))
            if channels["kw"]:
                pairs.append(SynonymPair.of(i, j, 0.99, KW))
            if channels["ss"] is not None:
                pairs.append(SynonymPair.of(i, j, channels["ss"], SS))
        rng.shuffle(pairs)
        graph = build_matrix(pairs, mentions)
        for key, channels in chosen.items():
            got = graph.entries.get(key)
            if channels["kb"]:
                assert got == (1.0, KB), (key, channels, got)
            elif channels["kw"]:
                assert got == (0.99, KW), (key, channels, got)
            elif channels["ss"] is not None and channels["ss"] >= 0.97:
                assert got == (channels["ss"], SS), (key, channels, got)
            else:
                assert got is None, (key, channels, got)
        assert set(graph.entries) <= set(chosen)


def _random_promotion_graph(rng):
    vocab = [
        "ImageJ", "ImageJ2", "Image J", "image j", "GraphPad Prism", "graphpad prism",
        "R package", "r package", "interface", "BLAST", "Blast", "BLAST+", "SPSS",
        "limma", "R package limma", "tool-9", "tool 9", "alpha", "beta", "gamma",
        "Delta®", "Delta", "x1", "yy2", "zzz",
    ]
    mentions = rng.sample(vocab, rng.randint(2, len(vocab)))
    pairs = []
    for _ in range(rng.randint(0, 14)):
        i, j = rng.sample(range(len(mentions)), 2)
        source = rng.choice([KB, KW, SS])
        conf = {KB: 1.0, KW: 0.99, SS: rng.choice([0.9, 0.97, 0.975, 0.99, 1.0])}[source]
        pairs.append(SynonymPair.of(i, j, conf, source))
    return build_matrix(pairs, mentions)


@criterion("post-processing rules and idempotence, 1000 random graphs")
def test_criterion_post_processing():
    graph = build_matrix(
        [SynonymPair.of(0, 1, 0.9714285714285714, SS)], ["ImageJ2", "ImageJ"]
    )
    assert post_process(graph).entries[(0, 1)][0] == 1.0

    graph = build_matrix(
        [SynonymPair.of(0, 1, 0.97, SS)], ["GraphPad Prism", "graphpad prism"]
    )
    assert post_process(graph).entries[(0, 1)][0] == 1.0

    graph = build_matrix(
        [SynonymPair.of(0, 1, 0.99, KW)], ["R package", "R package limma"]
    )
    assert post_process(graph).entries == {}

    rng = random.Random(77)
    for _ in range(1_000):
        raw = _random_promotion_graph(rng)
        once = post_process(raw)
        assert post_process(once).entries == once.entries
        assert len(once.entries) <= len(raw.entries)
        for (i, j), (value, _) in once.entries.items():
            assert raw.mentions[i] not in DEFAULT_STOPLIST
            assert raw.mentions[j] not in DEFAULT_STOPLIST
            assert value >= 0.97


@criterion("connected components vs BFS oracle, 500 random graphs")
def test_criterion_connected_components():
    started = time.perf_counter()
    rng = random.Random(123)
    for _ in range(500):
        n = rng.randint(2, 200)
        mentions = [f"m{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, 2 * n)):
            i, j = rng.sample(range(n), 2)
            edges.add((min(i, j), max(i, j)))
        graph = build_matrix(
            [SynonymPair.of(i, j, 1.0, KB) for i, j in edges], mentions
        )
        assert connected_components(graph) == bfs_components(n, edges)
    assert time.perf_counter() - started < 10.0


@criterion("DBSCAN vs density-reachability oracle, 200 random instances")
def test_criterion_dbscan():
    started = time.perf_counter()
    rng = random.Random(321)
    grid = [(eps, min_pts) for eps in (0.01, 0.02, 0.03) for min_pts in (1, 2, 3)]
    for trial in range(200):
        n = rng.randint(2, 100)
        points = list(range(n))
        distances = {}
        for _ in range(rng.randint(0, 3 * n)):
            i, j = rng.sample(points, 2)
            distances[(min(i, j), max(i, j))] = rng.choice(
                [0.0, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1]
            )
        eps, min_pts = grid[trial % len(grid)]
        clusters, noise = dbscan(neighbors_within(distances, points, eps), points, min_pts)
        ref_clusters, ref_noise = dbscan_reference(distances, points, eps, min_pts)
        assert [frozenset(c) for c in clusters] == ref_clusters
        assert frozenset(noise) == ref_noise
    assert time.perf_counter() - started < 30.0


@criterion("fixture disambiguation, bundled variant lists")
def test_criterion_fixture_disambiguation(fixture_pipeline, variant_lists):
    records, chain, elapsed = fixture_pipeline
    result = chain.result
    assert elapsed < 60.0
    cluster_of = {
        member: idx
        for idx, cluster in enumerate(result.clusters)
        for member in cluster.members
    }
    for entity, variants in variant_lists.items():
        base = BASE_NAMES[entity]
        base_id = chain.id_table[base]
        assert base_id in cluster_of, f"{base} not clustered"
        home = cluster_of[base_id]
        cluster = result.clusters[home]
        captured = [v for v in variants if cluster_of.get(chain.id_table[v]) == home]
        stray = {
            cluster_of[chain.id_table[v]]
            for v in variants
            if chain.id_table[v] in cluster_of
        } - {home}
        assert not stray, f"{entity} split across clusters {stray}"
        assert len(captured) >= 0.9 * len(variants), (
            f"{entity}: {len(captured)}/{len(variants)} captured"
        )
        assert cluster.name == base
        top = max(cluster.members, key=chain.frequencies.get)
        assert chain.frequencies.get(cluster.name_id) == chain.frequencies.get(top)


@criterion("accounting identity")
def test_criterion_accounting_identity(fixture_pipeline):
    _, chain, _ = fixture_pipeline
    acc = chain.result.accounting
    assert (
        acc.no_significant_synonyms + acc.no_cluster_output + acc.disambiguated
        == len(chain.id_table)
    )
    from conftest import make_record

    rng = random.Random(6)
    vocab = ["ImageJ", "Image J", "ImageJ2", "BLAST", "Blast", "interface",
             "python interface", "limma", "R package limma", "solo-one", "solo two"]
    for _ in range(20):
        strings = rng.sample(vocab, rng.randint(2, len(vocab)))
        records = [make_record(s, pmcid=str(i % 3)) for i, s in enumerate(strings)]
        res = run_chain(
            records,
            registries={
                LinkSource.PKG_INDEX_BIOC: {"limma"}, LinkSource.PKG_INDEX_PY: {"interface"}
            },
            kb={"BLAST": ["Blast"]},
            min_pts=rng.choice([1, 2, 3]),
            eps=rng.choice([0.01, 0.02, 0.03]),
        )
        assert res.result.accounting.total == len(res.id_table)


@criterion("agreement and ranking metrics")
def test_criterion_metrics():
    # perfect agreement pins both statistics at 1
    assert fleiss_kappa([[3, 0], [0, 3], [3, 0]]) == pytest.approx(1.0, abs=1e-12)
    assert krippendorff_alpha([["a", "b"], ["a", "b"]]) == pytest.approx(1.0, abs=1e-12)
    assert len(FLEISS_FIXTURES) + len(ALPHA_FIXTURES) == 10
    for matrix, expected in FLEISS_FIXTURES:
        assert fleiss_kappa(matrix) == pytest.approx(expected, abs=1e-9)
    for grid, expected in ALPHA_FIXTURES:
        assert krippendorff_alpha(grid) == pytest.approx(expected, abs=1e-9)

    # confusion counts consistent with the reference evaluation reproduce
    # its precision/recall/F1 (full derivation in test_evaluation)
    from test_evaluation import crow, labeled
    from softmentions.evaluation import (
        CURATION_NOT_SOFTWARE,
        CURATION_SOFTWARE,
        CURATION_UNCLEAR,
        SynonymVerdict,
    )

    rows = [labeled(f"m{i}", "s", SynonymVerdict.EXACT) for i in range(4241)]
    rows += [labeled(f"n{i}", "s", SynonymVerdict.NOT_SYNONYM) for i in range(668)]
    predicted = [(f"m{i}", "s") for i in range(2367)] + [
        (f"n{i}", "s") for i in range(114)
    ]
    prf = synonym_prf(predicted, rows)
    assert prf.precision == pytest.approx(0.954, abs=0.005)
    assert prf.recall == pytest.approx(0.558, abs=0.005)
    assert prf.f1 == pytest.approx(0.704, abs=0.005)

    top1k = ([crow(CURATION_SOFTWARE)] * 795 + [crow(CURATION_NOT_SOFTWARE)] * 165
             + [crow(CURATION_UNCLEAR)] * 40)
    assert precision_at_k(top1k, 1000)["software"] == pytest.approx(79.5)
    top10k = ([crow(CURATION_SOFTWARE)] * 6966 + [crow(CURATION_NOT_SOFTWARE)] * 2155
              + [crow(CURATION_UNCLEAR)] * 879)
    assert precision_at_k(top10k, 10000)["software"] == pytest.approx(69.66)


@criterion("published evaluation files (conditional)")
def test_criterion_published_dataset_metrics():
    root = os.environ.get("SOFTMENTIONS_EVAL_DATA")
    if not root:
        pytest.skip("SOFTMENTIONS_EVAL_DATA not set; published files not supplied")
    root = Path(root)

    def find(*names):
        for name in names:
            for suffix in ("", ".gz"):
                candidate = root / (name + suffix)
                if candidate.exists():
                    return candidate
        return None

    checked = 0
    labels_path = find("evaluation_disambiguation.csv")
    predicted_path = find("predicted_synonyms.tsv", "predicted_pairs.tsv")
    if labels_path and predicted_path:
        labeled_rows = read_synonym_labels(labels_path)
        predicted = []
        with open_text(predicted_path) as fh:
            next(fh)
            for line in fh:
                a, b = line.rstrip("\n").split("\t")[:2]
                predicted.append((a, b))
        prf = synonym_prf(predicted, labeled_rows)
        assert prf.precision == pytest.approx(0.954, abs=0.005)
        assert prf.recall == pytest.approx(0.558, abs=0.005)
        assert prf.f1 == pytest.approx(0.704, abs=0.005)
        checked += 1
    multi = find("curation_top1k_mentions_multi_labels.csv")
    if multi:
        rows = read_curation_rows(multi)
        assert precision_at_k(rows, 1000)["software"] == pytest.approx(79.5, abs=0.01)
        checked += 1
    binary = find("curation_top10k_mentions_binary_labels.csv")
    if binary:
        rows = read_curation_rows(binary)
        assert precision_at_k(rows, 10000)["software"] == pytest.approx(69.66, abs=0.01)
        checked += 1
    two = find("ratings_two_categories.csv")
    five = find("ratings_five_categories.csv")
    if two and five:
        grid2, grid5 = read_ratings_csv(two), read_ratings_csv(five)
        cats2 = sorted({v for row in grid2 for v in row if v is not None})
        cats5 = sorted({v for row in grid5 for v in row if v is not None})
        from softmentions.evaluation import ratings_to_matrix

        assert fleiss_kappa(ratings_to_matrix(grid2, cats2)) == pytest.approx(0.639, abs=0.01)
        assert fleiss_kappa(ratings_to_matrix(grid5, cats5)) == pytest.approx(0.504, abs=0.01)
        assert krippendorff_alpha(grid2) == pytest.approx(0.686, abs=0.01)
        assert krippendorff_alpha(grid5) == pytest.approx(0.523, abs=0.01)
        checked += 1
    if not checked:
        pytest.skip(f"no recognized evaluation files under {root}")


@criterion("offline linking and schema normalization")
def test_criterion_linking(fixture_pipeline):
    # The curated Bioconductor index ranks above the Python one, as by default.
    sources = {
        source: RegistrySnapshot(source=source, names=set(read_lines(FIXTURE_DIR / name)))
        for source, name in (
            (LinkSource.PKG_INDEX_BIOC, "registry_bioc.txt"),
            (LinkSource.PKG_INDEX_PY, "registry_py.txt"),
        )
    }
    hits = exact_match_lookup("scikit-learn", sources)
    assert hits[0][0] is LinkSource.PKG_INDEX_PY
    assert hits[0][1]["pypi_url"] == "https://pypi.org/project/scikit-learn"
    hits = exact_match_lookup("limma", sources)
    assert hits[0][0] is LinkSource.PKG_INDEX_BIOC

    golden = json.loads((DATA_DIR / "golden_metadata.json").read_text(encoding="utf-8"))
    assert len(golden) == 30
    rrid_checked = description_checked = False
    for case in golden:
        source = LinkSource(case["source"])
        got = normalize_metadata(case["raw"], source)
        expected = LinkedMetadata(source=source.value, platform=[source.value])
        for field_name, value in case["expected"].items():
            setattr(expected, field_name, value)
        assert got == expected, case
        if "Resource ID" in case["raw"]:
            assert got.rrid == case["raw"]["Resource ID"]
            rrid_checked = True
        if "Title" in case["raw"]:
            assert case["raw"]["Title"] in got.description
            description_checked = True
    assert rrid_checked and description_checked

    _, chain, _ = fixture_pipeline
    links = link_mentions(chain.mentions, sources)
    carriers = propagate_links(chain.result.clusters, links)
    rows = metadata_rows(carriers, chain.mentions, links)
    package_url = {int(row[0]): row[MASTER_HEADER.index("package_url")] for row in rows}
    sk_url = "https://pypi.org/project/scikit-learn"
    assert package_url[chain.id_table["sklearn"]] == sk_url
    assert package_url[chain.id_table["scikit-learn"]] == sk_url
    limma_url = "https://www.bioconductor.org/packages/limma"
    assert package_url[chain.id_table["R package limma"]] == limma_url


EXPECTED_RUN_ALL_OUTPUTS = (
    "mention2id.tsv",
    "synonyms.tsv",
    "clusters.tsv",
    "disambiguated.tsv",
    "metadata.tsv",
    "manifest_ingest.json",
    "manifest_synonyms.json",
    "manifest_cluster.json",
    "manifest_link.json",
)


@criterion("pipeline determinism, byte-identical reruns")
def test_criterion_determinism(tmp_path):
    workdir = tmp_path / "fixture"
    shutil.copytree(FIXTURE_DIR, workdir)
    # The child runs from workdir, where a relative PYTHONPATH entry no longer
    # reaches the source tree; hand it the imported package's absolute parent.
    package_root = str(Path(softmentions.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=(
        package_root + os.pathsep + inherited if inherited else package_root
    ))

    def run_once() -> dict[str, bytes]:
        out = workdir / "out"
        if out.exists():
            shutil.rmtree(out)
        proc = subprocess.run(
            [sys.executable, "-m", "softmentions.cli", "run-all",
             "--config", "config.cfg"],
            cwd=workdir,
            env=env,
            capture_output=True,
            encoding="utf-8",
        )
        assert proc.returncode == 0, proc.stderr
        return {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }

    first = run_once()
    missing = [name for name in EXPECTED_RUN_ALL_OUTPUTS if name not in first]
    assert not missing, f"run-all did not write {missing}"
    second = run_once()
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
