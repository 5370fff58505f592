import json
import logging
from dataclasses import fields

import pytest

from softmentions.clustering import Cluster
from softmentions.errors import ExternalServiceError
from softmentions.ingest import assign_ids
from softmentions.linking import (
    MASTER_HEADER,
    SCHEMA,
    ApiSnapshot,
    LinkedMetadata,
    LinkSource,
    RegistrySnapshot,
    exact_match_lookup,
    link_mentions,
    link_report,
    metadata_row,
    normalize_metadata,
    propagate_links,
    source_shares,
    write_metadata_tsv,
    write_normalized_csvs,
    write_raw_csvs,
)

from conftest import DATA_DIR


def py_registry(*names):
    return RegistrySnapshot(source=LinkSource.PKG_INDEX_PY, names=set(names))


def bioc_registry(*names):
    return RegistrySnapshot(source=LinkSource.PKG_INDEX_BIOC, names=set(names))


def test_registry_lookup_builds_package_url():
    raw = py_registry("scikit-learn").lookup("scikit-learn")
    assert raw == {
        "pypi package": "scikit-learn",
        "pypi_url": "https://pypi.org/project/scikit-learn",
    }
    assert py_registry("scikit-learn").lookup("sklearn") is None
    raw = bioc_registry("limma").lookup("limma")
    assert raw["Bioconductor Link"] == "https://www.bioconductor.org/packages/limma"


def test_registry_lookup_is_byte_exact():
    assert py_registry("scikit-learn").lookup("Scikit-Learn") is None


def test_exact_match_lookup_runs_sources_in_precedence_order(tmp_path):
    sources = {
        LinkSource.PKG_INDEX_BIOC: bioc_registry("limma"),
        LinkSource.PKG_INDEX_PY: py_registry("limma", "zlib"),
    }
    hits = exact_match_lookup("limma", sources)
    assert [source for source, _ in hits] == [
        LinkSource.PKG_INDEX_BIOC,
        LinkSource.PKG_INDEX_PY,
    ]
    assert exact_match_lookup("zzz-no-such-package-qq", sources) == []


def _api_snapshot(tmp_path, source, name, doc):
    directory = tmp_path / source.value
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return ApiSnapshot(source=source, directory=directory)


def test_api_snapshot_lookup_and_code_host_case_rule(tmp_path):
    kb = _api_snapshot(
        tmp_path, LinkSource.KNOWLEDGE_BASE, "SPSS",
        {"software_name": "SPSS", "Resource ID": "SCR_002865",
         "Resource ID Link": "https://scicrunch.org/resolver/SCR_002865"},
    )
    assert kb.lookup("SPSS")["Resource ID"] == "SCR_002865"
    assert kb.lookup("absent") is None

    host = _api_snapshot(
        tmp_path, LinkSource.CODE_HOST, "TopHat",
        {"software_mention": "TopHat", "best_github_match": "tophat",
         "github_url": "https://github.com/infphilo/tophat"},
    )
    assert host.lookup("TopHat")["best_github_match"] == "tophat"
    mismatch = _api_snapshot(
        tmp_path, LinkSource.CODE_HOST, "cluster",
        {"software_mention": "cluster", "best_github_match": "ClusterM",
         "github_url": "https://github.com/x/ClusterM"},
    )
    assert mismatch.lookup("cluster") is None


def test_api_snapshot_live_fetch_writes_through(tmp_path):
    calls = []

    def fetcher(name):
        calls.append(name)
        return {"software_name": name, "Resource ID": "SCR_1", "Resource ID Link": "u"}

    snap = ApiSnapshot(
        source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path / "kb", fetcher=fetcher
    )
    assert snap.lookup("Fiji")["Resource ID"] == "SCR_1"
    assert calls == ["Fiji"]
    # second lookup reads the written snapshot, no new fetch
    assert snap.lookup("Fiji")["Resource ID"] == "SCR_1"
    assert calls == ["Fiji"]
    assert (tmp_path / "kb" / "Fiji.json").exists()


def test_api_snapshot_overlong_name_is_a_miss(tmp_path):
    calls = []
    snap = ApiSnapshot(
        source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path / "kb",
        fetcher=lambda name: calls.append(name) or {"Resource ID Link": "u"},
    )
    for name in ("x" * 251, "\u00e9" * 50):
        assert snap.lookup(name) is None
    assert calls == []
    assert not (tmp_path / "kb").exists()


def test_api_snapshot_lists_its_directory_once(tmp_path, monkeypatch):
    from softmentions import linking

    snap = _api_snapshot(
        tmp_path, LinkSource.KNOWLEDGE_BASE, "SPSS",
        {"software_name": "SPSS", "Resource ID Link": "u"},
    )
    listed = []
    real_listdir = linking.os.listdir

    def listdir(path):
        listed.append(path)
        return real_listdir(path)

    def no_stat(self, *args, **kwargs):
        raise AssertionError(f"per-name stat of {self}")

    monkeypatch.setattr(linking.os, "listdir", listdir)
    monkeypatch.setattr(linking.Path, "exists", no_stat)
    for _ in range(3):
        assert snap.lookup("SPSS")["Resource ID Link"] == "u"
        for name in ("absent", "SPSS Statistics", "spss", "SPSS.json"):
            assert snap.lookup(name) is None
    assert listed == [tmp_path / LinkSource.KNOWLEDGE_BASE.value]


def test_api_snapshot_missing_directory_is_all_misses(tmp_path):
    snap = ApiSnapshot(source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path / "absent")
    assert snap.lookup("SPSS") is None
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("content", [b'{"Resource ID Link": ', b'{"Resource ID Link": "caf\xe9"}'])
def test_api_snapshot_unreadable_document_is_a_soft_error(tmp_path, content):
    (tmp_path / "GraphPad.json").write_bytes(content)
    snap = ApiSnapshot(source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path)
    with pytest.raises(ExternalServiceError, match="bad snapshot GraphPad.json"):
        snap.lookup("GraphPad")
    sources = {LinkSource.KNOWLEDGE_BASE: snap}
    soft = []
    assert exact_match_lookup("GraphPad", sources, soft_errors=soft) == []
    assert len(soft) == 1


def test_lookup_soft_errors_keep_other_sources_running(tmp_path):
    class Failing:
        def lookup(self, name):
            raise ExternalServiceError("KnowledgeBaseAPI", "boom")

    sources = {LinkSource.KNOWLEDGE_BASE: Failing(), LinkSource.PKG_INDEX_PY: py_registry("numpy")}
    soft = []
    hits = exact_match_lookup("numpy", sources, soft_errors=soft)
    assert [s for s, _ in hits] == [LinkSource.PKG_INDEX_PY]
    assert len(soft) == 1 and "boom" in soft[0]


def test_normalize_metadata_golden_set(caplog):
    golden = json.loads((DATA_DIR / "golden_metadata.json").read_text(encoding="utf-8"))
    assert len(golden) == 30
    for case in golden:
        source = LinkSource(case["source"])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="softmentions.linking"):
            got = normalize_metadata(case["raw"], source)
        dropped = [
            record.args[1] for record in caplog.records if "unmapped raw field" in record.msg
        ]
        expected = LinkedMetadata(source=source.value, platform=[source.value])
        for field_name, value in case["expected"].items():
            setattr(expected, field_name, value)
        assert got == expected, case
        assert dropped == case.get("dropped", [])


def test_linked_metadata_fields_are_the_master_header():
    assert MASTER_HEADER == (
        "ID", "software_mention", "mapped_to", "source", "platform", "package_url",
        "description", "homepage_url", "other_urls", "license", "github_repo",
        "github_repo_licenses", "exact_match", "RRID", "reference", "scicrunch_synonyms",
    )


def test_schema_covers_every_source_and_targets_record_fields():
    assert set(SCHEMA) == set(LinkSource)
    names = {f.name for f in fields(LinkedMetadata)}
    for source, rules in SCHEMA.items():
        for raw_field, targets in rules.items():
            assert set(targets or ()) <= names, (source, raw_field)


def test_link_mentions_precedence_and_mapped_to_aggregation(tmp_path):
    id_table, mentions = assign_ids(["limma", "numpy"])
    sources = {
        LinkSource.PKG_INDEX_BIOC: bioc_registry("limma"),
        LinkSource.PKG_INDEX_PY: py_registry("limma", "numpy"),
    }
    collected = {}
    links = link_mentions(mentions, sources, collect_raw=collected)
    limma = links[id_table["limma"]]
    assert limma.source == "PkgIndexBioc"
    assert limma.package_url == "https://www.bioconductor.org/packages/limma"
    assert limma.mapped_to == ["limma"]  # same name from both sources, deduplicated
    numpy_meta = links[id_table["numpy"]]
    assert numpy_meta.source == "PkgIndexPy"
    assert len(collected[LinkSource.PKG_INDEX_BIOC]) == 1
    assert len(collected[LinkSource.PKG_INDEX_PY]) == 2


def _one_cluster(names, cluster_members, name_of_cluster):
    id_table, mentions = assign_ids(names)
    members = tuple(sorted(id_table[m] for m in cluster_members))
    cluster = Cluster(members=members, name_id=id_table[name_of_cluster], name=name_of_cluster)
    return [cluster], id_table, mentions


def test_propagate_links_cluster_members_inherit_name_link():
    clusters, id_table, mentions = _one_cluster(
        ["scikit-learn", "sklearn", "loner", "selflink"],
        ["scikit-learn", "sklearn"],
        "scikit-learn",
    )
    url = "https://pypi.org/project/scikit-learn"
    links = {
        id_table["scikit-learn"]: LinkedMetadata(
            id=id_table["scikit-learn"], software_mention="scikit-learn",
            source="PkgIndexPy", package_url=url,
        ),
        id_table["selflink"]: LinkedMetadata(
            id=id_table["selflink"], software_mention="selflink",
            source="CodeHostAPI", package_url="https://github.com/x/selflink",
        ),
    }
    propagated = propagate_links(clusters, mentions, links)
    sklearn = propagated[id_table["sklearn"]]
    assert sklearn.package_url == url
    assert sklearn.software_mention == "sklearn"
    assert sklearn.id == id_table["sklearn"]
    # unclustered mention keeps its own link, unknown mention stays unlinked
    assert propagated[id_table["selflink"]].package_url.endswith("selflink")
    assert id_table["loner"] not in propagated


def test_propagate_links_fallback_to_own_link_when_name_unlinked():
    clusters, id_table, mentions = _one_cluster(["alpha", "beta"], ["alpha", "beta"], "alpha")
    links = {
        id_table["beta"]: LinkedMetadata(
            id=id_table["beta"], software_mention="beta",
            source="CodeHostAPI", package_url="https://github.com/x/beta",
        )
    }
    propagated = propagate_links(clusters, mentions, links)
    assert id_table["alpha"] not in propagated
    assert propagated[id_table["beta"]].package_url.endswith("beta")


def test_link_report_counts_and_percentages():
    linked = {}
    for i in range(7):
        linked[i] = LinkedMetadata(id=i, source="CodeHostAPI", package_url="u")
    for i in range(7, 10):
        linked[i] = LinkedMetadata(id=i, source="PkgIndexR", package_url="u")
    report = link_report(linked)
    assert report == [("CodeHostAPI", 7, 70.0), ("PkgIndexR", 3, 30.0)]
    assert sum(pct for _, _, pct in report) == pytest.approx(100.0)
    assert link_report({}) == []


def test_source_shares_reproduce_reference_coverage_table():
    counts = {
        "CodeHostAPI": 155506,
        "KnowledgeBaseAPI": 43817,
        "PkgIndexR": 20202,
        "PkgIndexPy": 14154,
        "PkgIndexBioc": 7801,
    }
    shares = dict(source_shares(counts))
    # the published table truncates to two decimals, so compare within 0.01
    assert shares["CodeHostAPI"] == pytest.approx(64.39, abs=0.01)
    assert shares["KnowledgeBaseAPI"] == pytest.approx(18.14, abs=0.01)
    assert shares["PkgIndexR"] == pytest.approx(8.36, abs=0.01)
    assert shares["PkgIndexPy"] == pytest.approx(5.86, abs=0.01)
    assert shares["PkgIndexBioc"] == pytest.approx(3.23, abs=0.01)
    assert sum(shares.values()) == pytest.approx(100.0)


def test_metadata_row_requires_package_url(tmp_path):
    with pytest.raises(ValueError):
        metadata_row(LinkedMetadata(id=1, software_mention="x"))
    meta = LinkedMetadata(
        id=1, software_mention="x", source="PkgIndexPy", package_url="u",
        mapped_to=["x"], rrid="SCR_9",
    )
    row = metadata_row(meta)
    assert row[0] == "1" and row[5] == "u" and row[13] == "SCR_9"
    write_metadata_tsv(tmp_path / "m.tsv", [row])
    header = (tmp_path / "m.tsv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split("\t")[:3] == ["ID", "software_mention", "mapped_to"]
    write_normalized_csvs(tmp_path / "norm", [row])
    assert (tmp_path / "norm" / "PkgIndexPy.csv").exists()
    write_raw_csvs(tmp_path / "raw", {LinkSource.PKG_INDEX_PY: [{"pypi package": "x"}]})
    assert (tmp_path / "raw" / "PkgIndexPy.csv").exists()


def test_link_mentions_deterministic():
    _, mentions = assign_ids(["limma", "numpy", "absent-thing"])
    sources = {
        LinkSource.PKG_INDEX_BIOC: bioc_registry("limma"),
        LinkSource.PKG_INDEX_PY: py_registry("limma", "numpy"),
    }
    first = link_mentions(mentions, sources)
    second = link_mentions(mentions, sources)
    assert first == second


def test_rate_limiter_spaces_calls():
    import time

    from softmentions.linking import RateLimiter

    limiter = RateLimiter(0.05)
    limiter.wait()
    started = time.monotonic()
    limiter.wait()
    assert time.monotonic() - started >= 0.045


def test_knowledge_base_fetcher_parses_payloads(monkeypatch):
    import softmentions.linking as linking_mod

    payloads = {
        "https://kb.example/api?q=Fiji": {"data": {"Resource ID": "SCR_002285"}},
        "https://kb.example/api?q=gone": None,
    }

    def fake_fetch(url, headers=None, timeout=30.0):
        assert headers == {"Authorization": "Bearer tok"}
        return payloads[url]

    monkeypatch.setattr(linking_mod, "fetch_json", fake_fetch)
    fetch = linking_mod.knowledge_base_fetcher("https://kb.example/api?q={name}", token="tok")
    record = fetch("Fiji")
    assert record["Resource ID"] == "SCR_002285"
    assert record["software_name"] == "Fiji"
    assert fetch("gone") is None


def test_code_host_fetcher_keeps_exact_name_only(monkeypatch):
    import softmentions.linking as linking_mod

    def fake_fetch(url, headers=None, timeout=30.0):
        return {
            "items": [
                {"name": "bowtie2-helper", "html_url": "https://github.com/x/a"},
                {"name": "Bowtie", "html_url": "https://github.com/BenLangmead/bowtie",
                 "description": "short read aligner", "license": {"name": "Artistic-2.0"}},
            ]
        }

    monkeypatch.setattr(linking_mod, "fetch_json", fake_fetch)
    fetch = linking_mod.code_host_fetcher()
    record = fetch("bowtie")
    assert record["best_github_match"] == "Bowtie"
    assert record["github_url"] == "https://github.com/BenLangmead/bowtie"
    assert record["license"] == "Artistic-2.0"
    assert record["exact_match"] == "True"

    monkeypatch.setattr(linking_mod, "fetch_json", lambda *a, **k: {"items": []})
    assert linking_mod.code_host_fetcher()("bowtie") is None


def test_csv_writes_keep_previous_file_when_replace_fails(tmp_path, monkeypatch):
    import softmentions.fileio

    meta = LinkedMetadata(
        id=1, software_mention="x", source="PkgIndexPy", package_url="u", mapped_to=["x"]
    )
    write_normalized_csvs(tmp_path / "norm", [metadata_row(meta)])
    write_raw_csvs(tmp_path / "raw", {LinkSource.PKG_INDEX_PY: [{"pypi package": "x"}]})
    norm, raw = tmp_path / "norm" / "PkgIndexPy.csv", tmp_path / "raw" / "PkgIndexPy.csv"
    before = norm.read_bytes(), raw.read_bytes()
    assert before[1] == b"pypi package\r\nx\r\n"

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(softmentions.fileio.os, "replace", failing_replace)
    changed = LinkedMetadata(
        id=1, software_mention="y", source="PkgIndexPy", package_url="v", mapped_to=["y"]
    )
    with pytest.raises(OSError, match="disk full"):
        write_normalized_csvs(tmp_path / "norm", [metadata_row(changed)])
    with pytest.raises(OSError, match="disk full"):
        write_raw_csvs(tmp_path / "raw", {LinkSource.PKG_INDEX_PY: [{"pypi package": "y"}]})
    assert (norm.read_bytes(), raw.read_bytes()) == before
    assert [p.name for p in norm.parent.iterdir()] == [norm.name]
    assert [p.name for p in raw.parent.iterdir()] == [raw.name]
