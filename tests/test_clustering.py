import io
import random
import re

import pytest
from hypothesis import given, strategies as st

from softmentions.clustering import (
    dbscan,
    name_clusters,
    to_distance,
    write_disambiguated_tsv,
)
from softmentions.errors import FormatError
from softmentions.fileio import open_text, read_lines
from softmentions.graph import connected_components
from softmentions.ingest import CURATION_LABELS, assign_ids, parse_mentions
from softmentions.synonyms import Registry, read_kb_dict

from conftest import FIXTURE_DIR, make_record, run_chain
from oracles import (
    MentionRecord,
    corpus_rows_reference,
    dbscan_reference,
    disambiguated_tsv_reference,
    parse_mentions_reference,
    tsv_text_reference,
)

def test_to_distance_values():
    sub = {(0, 1): 1.0, (0, 2): 0.99, (1, 2): 0.97}
    dist = to_distance(sub)
    assert dist[(0, 1)] == 0.0
    assert dist[(0, 2)] == 0.01
    assert dist[(1, 2)] == 0.03  # exact despite binary float subtraction


def test_dbscan_clique_is_one_cluster():
    dist = {(0, 1): 0.01, (0, 2): 0.01, (1, 2): 0.01}
    clusters, noise = dbscan(dist, [0, 1, 2], eps=0.03, min_pts=2)
    assert clusters == [(0, 1, 2)]
    assert noise == ()


def test_dbscan_isolated_point_is_noise():
    clusters, noise = dbscan({(0, 1): 0.01}, [0, 1, 2], eps=0.03, min_pts=2)
    assert clusters == [(0, 1)]
    assert noise == (2,)


def test_dbscan_min_pts_one_makes_singleton_clusters():
    clusters, noise = dbscan({}, [4, 7], eps=0.03, min_pts=1)
    assert clusters == [(4,), (7,)]
    assert noise == ()


def test_dbscan_borders_join_first_discovered_cluster():
    # two star cores (0 and 10) share border 2; the cluster seeded at the
    # smaller core id claims it
    dist = {
        (0, 1): 0.01, (0, 2): 0.01, (0, 3): 0.01,
        (2, 10): 0.01, (10, 11): 0.01, (10, 12): 0.01,
    }
    points = [0, 1, 2, 3, 10, 11, 12]
    clusters, noise = dbscan(dist, points, eps=0.03, min_pts=4)
    assert clusters == [(0, 1, 2, 3), (10, 11, 12)]
    assert noise == ()


def test_dbscan_parameter_validation():
    with pytest.raises(ValueError):
        dbscan({}, [0], eps=0.0, min_pts=2)
    with pytest.raises(ValueError):
        dbscan({}, [0], eps=0.01, min_pts=0)


def _random_instance(rng, max_points=60):
    n = rng.randint(1, max_points)
    points = list(range(n))
    dist = {}
    for _ in range(rng.randint(0, 3 * n)):
        i, j = rng.sample(points, 2) if n > 1 else (0, 0)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        dist[key] = rng.choice([0.0, 0.01, 0.02, 0.03, 0.05, 0.1])
    return dist, points


def test_dbscan_matches_density_reachability_oracle():
    rng = random.Random(11)
    for trial in range(60):
        dist, points = _random_instance(rng)
        eps = rng.choice([0.01, 0.02, 0.03])
        min_pts = rng.choice([1, 2, 3])
        clusters, noise = dbscan(dist, points, eps, min_pts)
        ref_clusters, ref_noise = dbscan_reference(dist, points, eps, min_pts)
        assert [frozenset(c) for c in clusters] == ref_clusters
        assert frozenset(noise) == ref_noise


def test_dbscan_core_partition_invariant_under_relabeling():
    rng = random.Random(13)
    for _ in range(25):
        dist, points = _random_instance(rng, max_points=30)
        eps, min_pts = rng.choice([0.01, 0.03]), rng.choice([2, 3])
        cores = {
            p
            for p in points
            if 1 + sum(
                1
                for q in points
                if q != p and dist.get((min(p, q), max(p, q)), 1.0) <= eps
            )
            >= min_pts
        }
        clusters, _ = dbscan(dist, points, eps, min_pts)
        base_cores = {frozenset(set(c) & cores) for c in clusters}
        mapping = dict(zip(points, rng.sample(points, len(points))))
        relabeled = {
            (min(mapping[i], mapping[j]), max(mapping[i], mapping[j])): d
            for (i, j), d in dist.items()
        }
        clusters2, _ = dbscan(relabeled, points, eps, min_pts)
        inverse = {v: k for k, v in mapping.items()}
        back_cores = {
            frozenset({inverse[m] for m in c} & cores) for c in clusters2
        }
        assert base_cores == back_cores


def test_name_clusters_highest_frequency_wins():
    id_table, mentions = assign_ids(["ImageJ", "Image J", "Image-J"])
    freq = {id_table["ImageJ"]: 5000, id_table["Image J"]: 1200, id_table["Image-J"]: 40}
    named = name_clusters([tuple(id_table.values())], freq, mentions)
    assert named[0].name == "ImageJ"
    assert named[0].name_id == id_table["ImageJ"]


def test_name_clusters_singleton_and_ties():
    id_table, mentions = assign_ids(["abc", "abd", "only"])
    freq = {i: 3 for i in range(len(mentions))}
    named = name_clusters([(id_table["only"],)], freq, mentions)
    assert named[0].name == "only"
    named = name_clusters([(id_table["abd"], id_table["abc"])], freq, mentions)
    assert named[0].name == "abc"  # equal frequency, lexicographic tie-break


def test_name_clusters_monotone_frequency_invariance():
    rng = random.Random(3)
    mentions = [f"m{i}" for i in range(12)]
    id_table, ordered = assign_ids(mentions)
    ids = range(len(ordered))
    counts = {i: rng.randint(0, 50) for i in ids}
    clusters = [tuple(rng.sample(ids, rng.randint(1, 6))) for _ in range(5)]
    base = name_clusters(clusters, counts, ordered)
    scaled = name_clusters(clusters, {i: 3 * c + 1 for i, c in counts.items()}, ordered)
    assert [c.name_id for c in base] == [c.name_id for c in scaled]


def test_missing_frequency_defaults_to_zero():
    id_table, mentions = assign_ids(["a", "b"])
    named = name_clusters([(0, 1)], {1: 5}, mentions)
    assert named[0].name == "b"


def test_disambiguate_mutually_dissimilar_strings():
    records = [make_record(s, pmcid=str(i)) for i, s in enumerate(
        ["alpha", "Bowtie", "Cytoscape", "delta9", "epsilon"]
    )]
    result = run_chain(records).result
    assert result.clusters == []
    assert result.accounting.no_significant_synonyms == 5
    assert result.accounting.no_cluster_output == 0
    assert result.accounting.disambiguated == 0
    assert result.accounting.total == 5


def test_disambiguate_accounting_identity_random_corpora():
    rng = random.Random(5)
    vocab = ["ImageJ", "Image J", "ImageJ2", "BLAST", "Blast", "tool alpha",
             "tool  alpha", "SPSS", "spss", "R package limma", "limma",
             "interface", "python interface", "unrelated-one", "unrelated two"]
    for _ in range(25):
        strings = rng.sample(vocab, rng.randint(2, len(vocab)))
        records = [make_record(s, pmcid=str(i % 4)) for i, s in enumerate(strings)]
        kb = {"BLAST": ["Blast"], "SPSS": ["spss"]}
        chain = run_chain(
            records,
            registries={Registry.BIOC: {"limma"}, Registry.PY: {"interface"}},
            kb=kb,
            min_pts=rng.choice([1, 2, 3]),
            eps=rng.choice([0.01, 0.03]),
        )
        result = chain.result
        acc = result.accounting
        assert acc.total == len(chain.id_table)
        assert acc.no_significant_synonyms >= 0
        seen = set()
        for cluster in result.clusters:
            assert not (set(cluster.members) & seen)
            seen |= set(cluster.members)
            assert cluster.name_id in cluster.members
            assert cluster.name == chain.mentions[cluster.name_id]
        assert len(seen) == acc.disambiguated


def test_clusters_never_span_components():
    records = [make_record(s, pmcid=str(i)) for i, s in enumerate(
        ["ImageJ", "Image J", "GraphPad Prism4", "GraphPad Prism5"]
    )]
    result = run_chain(records).result
    comps = connected_components(result.graph)
    comp_of = {}
    for idx, comp in enumerate(comps):
        for member in comp:
            comp_of[member] = idx
    for cluster in result.clusters:
        assert len({comp_of[m] for m in cluster.members}) == 1


def test_limma_variants_form_single_cluster(variant_lists):
    variants = variant_lists["limma"]
    records = [make_record("limma", pmcid=str(i)) for i in range(40)]
    for idx, variant in enumerate(variants):
        records.append(make_record(variant, pmcid=f"v{idx}"))
    result = run_chain(
        records, registries={Registry.BIOC: {"limma"}}
    ).result
    assert len(result.clusters) == 1
    cluster = result.clusters[0]
    assert cluster.name == "limma"
    assert len(cluster.members) == len(variants) + 1


def test_write_disambiguated_tsv(tmp_path):
    records = [make_record("limma", pmcid="1"), make_record("limma", pmcid="4"),
               make_record("R package limma", pmcid="2"), make_record("Bowtie", pmcid="3")]
    chain = run_chain(
        records, registries={Registry.BIOC: {"limma"}}
    )
    out = tmp_path / "disambiguated.tsv"
    write_disambiguated_tsv(out, records, "comm", chain.id_table, chain.result)
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    assert header[-2:] == ["mapped_to_software", "mapped_to_software_ID"]
    rows = {line.split("\t")[9]: line.split("\t")[-2:] for line in lines[1:]}
    limma_id = str(chain.id_table["limma"])
    assert rows["limma"] == ["limma", limma_id]
    assert rows["R package limma"] == ["limma", limma_id]
    assert rows["Bowtie"] == ["", ""]


def test_write_disambiguated_tsv_rejects_a_line_break_in_a_row(tmp_path):
    rows = [make_record("SPSS", pmcid="1"), make_record("SPSS", pmcid="2", text="Used\rSPSS.")]
    chain = run_chain(rows)
    out = tmp_path / "disambiguated.tsv"
    message = f"{out}: line 3: column 'text' holds a tab or line break: 'Used\\rSPSS.'"
    with pytest.raises(FormatError, match=re.escape(message)):
        write_disambiguated_tsv(out, rows, "comm", chain.id_table, chain.result)
    assert list(tmp_path.iterdir()) == []


def _write_both(path, text, corpus_kind, **chain_params):
    """Write disambiguated.tsv from the parsed text; return the reference writer's text."""
    rows = list(parse_mentions(io.StringIO(text), corpus_kind))
    chain = run_chain(rows, **chain_params)
    write_disambiguated_tsv(path, rows, corpus_kind, chain.id_table, chain.result)
    records = list(parse_mentions_reference(io.StringIO(text), corpus_kind))
    return disambiguated_tsv_reference(records, corpus_kind, chain.id_table, chain.result)


_VOCABULARY = ["ImageJ", "Image J", "ImageJ2", "BLAST", "Blast", "limma", "R package limma", "solo"]


@given(
    st.sampled_from(["comm", "publishers"]),
    st.lists(
        st.builds(
            MentionRecord,
            software=st.sampled_from(_VOCABULARY),
            pmcid=st.sampled_from(["", "1", "2"]),
            doi=st.sampled_from(["", "10.1/a"]),
            pubdate=st.one_of(st.none(), st.integers(1990, 2030)),
            number=st.integers(0, 9),
            id=st.one_of(st.none(), st.integers(0, 99)),
            text=st.text(alphabet="ab \"'é", max_size=6),
            **dict.fromkeys(("license", "location", "pmid", "source", "version"), st.just("x")),
            curation_label=st.sampled_from(CURATION_LABELS),
        ),
        max_size=12,
    ),
)
def test_write_disambiguated_tsv_matches_reference_writer(tmp_path_factory, corpus_kind, records):
    if corpus_kind == "publishers":
        records = [rec._replace(pmcid="") for rec in records]
    text = tsv_text_reference(*corpus_rows_reference(records, corpus_kind))
    path = tmp_path_factory.mktemp("out") / "disambiguated.tsv"
    want = _write_both(
        path, text, corpus_kind,
        registries={Registry.BIOC: {"limma"}}, kb={"BLAST": ["Blast"]},
    )
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("name", ["disambiguated.tsv", "disambiguated.tsv.gz"])
def test_fixture_disambiguated_tsv_matches_reference_writer(tmp_path, name):
    with open_text(FIXTURE_DIR / "corpus.tsv") as fh:
        text = fh.read()
    registries = {
        registry: set(read_lines(FIXTURE_DIR / f"registry_{suffix}.txt"))
        for registry, suffix in ((Registry.PY, "py"), (Registry.R, "r"), (Registry.BIOC, "bioc"))
    }
    want = _write_both(
        tmp_path / name, text, "comm", registries=registries,
        kb=read_kb_dict(FIXTURE_DIR / "kb_synonyms.tsv"),
        stoplist=read_lines(FIXTURE_DIR / "stoplist.txt"),
    )
    with open_text(tmp_path / name) as fh:
        assert fh.read() == want
    assert "\tlimma\t" in want  # some rows carry a cluster
