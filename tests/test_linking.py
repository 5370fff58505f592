import http.client
import io
import json
import logging
import os
import socket
import tempfile
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
    fetch_documents,
    knowledge_base_fetcher,
    link_mentions,
    link_report,
    metadata_row,
    metadata_rows,
    normalize_metadata,
    propagate_links,
    source_shares,
    write_metadata_tsv,
    write_normalized_csvs,
    write_raw_csvs,
)

from conftest import DATA_DIR
from oracles import (
    fetch_documents_reference,
    link_mentions_reference,
    link_report_reference,
    normalize_reference,
    propagate_links_reference,
)


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
        if name == "absent":
            return None
        return {"software_name": name, "Resource ID": "SCR_1", "Resource ID Link": "u"}

    snap = ApiSnapshot(source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path / "kb")
    sources, fetchers = {LinkSource.KNOWLEDGE_BASE: snap}, {LinkSource.KNOWLEDGE_BASE: fetcher}
    fetch_documents(["Fiji"], sources, fetchers)
    assert calls == ["Fiji"]
    assert snap.lookup("Fiji")["Resource ID"] == "SCR_1"
    # A second pass finds the written document: no new fetch.
    fetch_documents(["Fiji"], sources, fetchers)
    assert calls == ["Fiji"]
    assert (tmp_path / "kb" / "Fiji.json").exists()
    # A miss is written as null: neither a live nor an offline rerun asks again.
    fetch_documents(["absent"], sources, fetchers)
    fetch_documents(["absent"], sources, fetchers)
    assert snap.lookup("absent") is None
    assert calls == ["Fiji", "absent"]
    assert (tmp_path / "kb" / "absent.json").read_text(encoding="utf-8") == "null"
    offline = ApiSnapshot(source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path / "kb")
    assert offline.lookup("absent") is None


def test_api_snapshot_live_answer_utf8_cannot_encode_is_a_soft_error(tmp_path):
    answer = {"software_name": "Fiji", "Description": "bad \ud800 text", "Resource ID Link": "u"}
    calls = []
    snap = ApiSnapshot(LinkSource.KNOWLEDGE_BASE, tmp_path / "kb")
    sources = {LinkSource.KNOWLEDGE_BASE: snap}
    soft = []
    fetchers = {LinkSource.KNOWLEDGE_BASE: lambda name: calls.append(name) or answer}
    fetch_documents(["Fiji", "ImageJ"], sources, fetchers, soft_errors=soft)
    assert exact_match_lookup("Fiji", sources, soft_errors=soft) == []
    assert len(soft) == 2 and "answer for 'Fiji'" in soft[0]
    assert list((tmp_path / "kb").iterdir()) == []
    # The error is the answer's, not the service's: the next name is still asked.
    assert calls == ["Fiji", "ImageJ"]


def test_api_snapshot_overlong_name_is_a_miss(tmp_path):
    calls = []

    def fetcher(name):
        calls.append(name)
        return {"Resource ID Link": "u"}

    snap = ApiSnapshot(source=LinkSource.KNOWLEDGE_BASE, directory=tmp_path / "kb")
    names = ("x" * 251, "\u00e9" * 50)
    fetch_documents(names, {LinkSource.KNOWLEDGE_BASE: snap}, {LinkSource.KNOWLEDGE_BASE: fetcher})
    for name in names:
        assert snap.lookup(name) is None
    assert calls == []
    assert not (tmp_path / "kb").exists()


@pytest.mark.parametrize("length", [240, 245, 250, 251])
def test_api_snapshot_live_fetch_writes_a_name_up_to_the_limit(tmp_path, length):
    # The document name is the name plus ".json": 255 bytes at 250 characters.
    name, hit = "a" * length, length <= 250
    answer = {"software_name": name, "Resource ID Link": "u"}
    snap = ApiSnapshot(LinkSource.KNOWLEDGE_BASE, tmp_path / "kb")
    sources = {LinkSource.KNOWLEDGE_BASE: snap}
    fetch_documents([name], sources, {LinkSource.KNOWLEDGE_BASE: lambda _: answer})
    assert snap.lookup(name) == (answer if hit else None)
    written = sorted(path.name for path in tmp_path.rglob("*"))
    assert written == ([f"{name}.json", "kb"] if hit else [])


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


@pytest.mark.parametrize(
    "content",
    [b'{"Resource ID Link": ', b'{"Resource ID Link": "caf\xe9"}', b'{"Description": "\\ud800"}'],
)
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


# Few distinct values, so that two raw fields often merge the same one into a list.
raw_values = st.one_of(
    st.none(),
    st.sampled_from(["", "  ", "x", " x ", "y", "True", "no", "1"]),
    st.integers(-1, 1),
    st.booleans(),
    st.lists(st.sampled_from(["x", " x", "z", "", 7]), max_size=3),
)


raw_records = st.sampled_from(list(LinkSource)).flatmap(
    lambda source: st.tuples(
        st.just(source),
        st.dictionaries(st.sampled_from([*sorted(SCHEMA[source]), "unknown"]), raw_values),
    )
)


@given(raw_records)
@example((LinkSource.KNOWLEDGE_BASE, {"Alternate URLs": ["x", "z"], "Old URLs": " x "}))
def test_normalize_metadata_matches_the_per_field_type_reference(record):
    source, raw = record
    got = normalize_metadata(raw, source, mention_id=3, software_mention="m")
    assert got == normalize_reference(raw, source, 3, "m")


def test_linked_metadata_fields_are_the_master_header():
    assert MASTER_HEADER == (
        "ID", "software_mention", "mapped_to", "source", "platform", "package_url",
        "description", "homepage_url", "other_urls", "license", "github_repo",
        "github_repo_licenses", "exact_match", "RRID", "reference", "scicrunch_synonyms",
    )


def test_schema_covers_every_source_and_targets_record_fields():
    assert set(SCHEMA) == set(LinkSource)
    names = set(LinkedMetadata._fields)
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
    carriers = propagate_links(clusters, links)
    # unclustered mention keeps its own link, unknown mention stays unlinked
    assert carriers == {
        id_table["scikit-learn"]: id_table["scikit-learn"],
        id_table["sklearn"]: id_table["scikit-learn"],
        id_table["selflink"]: id_table["selflink"],
    }
    rows = {int(row[0]): row for row in metadata_rows(carriers, mentions, links)}
    sklearn = rows[id_table["sklearn"]]
    assert sklearn[MASTER_HEADER.index("package_url")] == url
    assert sklearn[:2] == [str(id_table["sklearn"]), "sklearn"]
    assert rows[id_table["selflink"]][MASTER_HEADER.index("package_url")].endswith("selflink")
    assert id_table["loner"] not in rows


def test_propagate_links_fallback_to_own_link_when_name_unlinked():
    clusters, id_table, mentions = _one_cluster(["alpha", "beta"], ["alpha", "beta"], "alpha")
    links = {
        id_table["beta"]: LinkedMetadata(
            id=id_table["beta"], software_mention="beta",
            source="CodeHostAPI", package_url="https://github.com/x/beta",
        )
    }
    carriers = propagate_links(clusters, links)
    assert carriers == {id_table["beta"]: id_table["beta"]}
    (row,) = metadata_rows(carriers, mentions, links)
    assert row[MASTER_HEADER.index("package_url")].endswith("beta")


def test_metadata_rows_are_the_rows_of_the_propagated_records():
    clusters, id_table, mentions = _one_cluster(
        ["scikit-learn", "sklearn", "sk", "selflink"], ["scikit-learn", "sklearn", "sk"], "sklearn"
    )
    links = {
        mention_id: LinkedMetadata(
            id=mention_id, software_mention=mention, source="PkgIndexPy",
            package_url=f"https://pypi.org/project/{mention}", mapped_to=[mention, "\u00e9\"x"],
        )
        for mention, mention_id in id_table.items()
        if mention != "sk"
    }
    propagated = propagate_links_reference(clusters, mentions, links)
    expected = [metadata_row(propagated[mention_id]) for mention_id in sorted(propagated)]
    assert metadata_rows(propagate_links(clusters, links), mentions, links) == expected
    assert [row[1] for row in expected] == mentions
    assert {row[5] for row in expected} == {
        "https://pypi.org/project/sklearn", "https://pypi.org/project/selflink"
    }


mapped_texts = st.lists(st.text(alphabet="a\u00e9\u4e2d\"\\ ", min_size=1, max_size=4), max_size=3)


@st.composite
def propagation_worlds(draw):
    """Mentions, clusters of disjoint members each named by one of them, and some mentions' links."""
    names = st.text(alphabet="ab\u00e9", min_size=1, max_size=3)
    mentions = draw(st.lists(names, min_size=1, max_size=12, unique=True))
    ids = draw(st.permutations(range(len(mentions))))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids)))) | {0, len(ids)})
    clusters = []
    for start, end in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            name_id = draw(st.sampled_from(ids[start:end]))
            members = tuple(sorted(ids[start:end]))
            clusters.append(Cluster(members=members, name_id=name_id, name=mentions[name_id]))
    links = {}
    for mention_id in sorted(draw(st.sets(st.sampled_from(ids)))):
        source = draw(st.sampled_from(LinkSource)).value
        links[mention_id] = LinkedMetadata(
            id=mention_id, software_mention=mentions[mention_id], source=source,
            platform=[source], package_url=f"https://x.org/{mention_id}",
            mapped_to=draw(mapped_texts), description=draw(mapped_texts),
            rrid=draw(st.none() | st.just(f"SCR_{mention_id}")),
        )
    return mentions, clusters, links


@given(world=propagation_worlds())
def test_propagation_matches_the_record_copying_reference(world):
    mentions, clusters, links = world
    rows = metadata_rows(propagate_links(clusters, links), mentions, links)
    propagated = propagate_links_reference(clusters, mentions, links)
    assert rows == [metadata_row(propagated[mention_id]) for mention_id in sorted(propagated)]
    assert link_report(rows) == link_report_reference(propagated.values())


def test_link_report_counts_and_percentages():
    rows = [
        metadata_row(LinkedMetadata(id=i, source="CodeHostAPI" if i < 7 else "PkgIndexR",
                                    package_url="u"))
        for i in range(10)
    ]
    report = link_report(rows)
    assert report == [("CodeHostAPI", 7, 70.0), ("PkgIndexR", 3, 30.0)]
    assert sum(pct for _, _, pct in report) == pytest.approx(100.0)
    assert link_report([]) == []


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


@pytest.mark.parametrize(
    "value", [["a", 'say "hi"', "caf\u00e9\t"], ("x",), [], ["a", 2, None, ["b"]]],
    ids=["strings", "tuple", "empty", "not_all_strings"],
)
def test_list_cells_are_their_json_arrays(value):
    from softmentions.linking import _csv_cell

    assert _csv_cell(value) == json.dumps(value, ensure_ascii=False)


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


def test_knowledge_base_fetcher_parses_payloads(monkeypatch, clock):
    import softmentions.linking as linking_mod

    payloads = {
        "https://kb.example/api?q=Fiji": {"data": {"Resource ID": "SCR_002285"}},
        "https://kb.example/api?q=gone": None,
        "https://kb.example/api?q=odd": ["SCR_002285"],
    }

    def fake_fetch(url, headers=None, timeout=30.0):
        assert headers == {"Authorization": "Bearer tok"}
        return payloads[url]

    monkeypatch.setattr(linking_mod, "fetch_json", fake_fetch)
    monkeypatch.setenv("SOFTMENTIONS_KB_TOKEN", "tok")
    fetch = linking_mod.knowledge_base_fetcher("https://kb.example/api?q={name}")
    record = fetch("Fiji")
    assert record["Resource ID"] == "SCR_002285"
    assert record["software_name"] == "Fiji"
    assert fetch("gone") is None
    with pytest.raises(ExternalServiceError, match="unexpected payload"):
        fetch("odd")


def test_code_host_fetcher_keeps_exact_name_only(monkeypatch):
    import softmentions.linking as linking_mod

    def fake_fetch(url, headers=None, timeout=30.0):
        assert headers["Authorization"] == "Bearer tok"
        return {
            "items": [
                {"name": "bowtie2-helper", "html_url": "https://github.com/x/a"},
                {"name": "Bowtie", "html_url": "https://github.com/BenLangmead/bowtie",
                 "description": "short read aligner", "license": {"name": "Artistic-2.0"}},
            ]
        }

    monkeypatch.setattr(linking_mod, "fetch_json", fake_fetch)
    monkeypatch.setenv("SOFTMENTIONS_CODEHOST_TOKEN", "tok")
    fetch = linking_mod.code_host_fetcher()
    record = fetch("bowtie")
    assert record["best_github_match"] == "Bowtie"
    assert record["github_url"] == "https://github.com/BenLangmead/bowtie"
    assert record["license"] == "Artistic-2.0"
    assert record["exact_match"] == "True"

    # No exact match, no search answer (HTTP 404) and an answer that is no object.
    for answer in ({"items": []}, None, [{"name": "bowtie"}]):
        monkeypatch.setattr(linking_mod, "fetch_json", lambda *a, answer=answer, **k: answer)
        assert linking_mod.code_host_fetcher()("bowtie") is None


@pytest.mark.parametrize(
    "answer",
    [
        {"items": None},
        {"items": ["bowtie"]},
        {"items": [{"name": "bowtie", "license": "MIT"}]},
    ],
    ids=["items_not_a_list", "item_not_an_object", "license_not_an_object"],
)
def test_code_host_fetcher_refuses_a_malformed_answer(monkeypatch, clock, answer):
    import softmentions.linking as linking_mod

    monkeypatch.setattr(linking_mod, "fetch_json", lambda *a, **k: answer)
    with pytest.raises(ExternalServiceError, match="CodeHostAPI: unexpected payload"):
        linking_mod.code_host_fetcher()("bowtie")


@pytest.mark.parametrize(
    "answer, message",
    [(503, "HTTP 503"), (b'{"data": ', "malformed response"), (b"\xff", "malformed response")],
    ids=["server_error", "truncated_json", "not_utf8"],
)
def test_fetch_json_refuses_a_failed_or_malformed_answer(monkeypatch, answer, message):
    import urllib.error
    import urllib.request

    from softmentions.linking import fetch_json

    def urlopen(request, timeout):
        if isinstance(answer, int):
            raise urllib.error.HTTPError(request.full_url, answer, "unavailable", {}, None)
        return io.BytesIO(answer)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(ExternalServiceError, match=f"https://kb.example/x: {message}"):
        fetch_json("https://kb.example/x")


@pytest.mark.parametrize(
    "error",
    [TimeoutError("The read operation timed out"), http.client.IncompleteRead(b'{"da', 40)],
    ids=["timeout", "incomplete_read"],
)
def test_live_lookup_failing_mid_read_is_a_soft_error(tmp_path, monkeypatch, error):
    import urllib.request

    class Response(io.BytesIO):
        def read(self, *args):
            raise error

    monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: Response())
    fetcher = knowledge_base_fetcher("https://kb.example/resolve/{name}")
    sources = {
        LinkSource.KNOWLEDGE_BASE: ApiSnapshot(LinkSource.KNOWLEDGE_BASE, tmp_path),
        LinkSource.PKG_INDEX_PY: py_registry("numpy"),
    }
    soft_errors = []
    fetch_documents(["numpy"], sources, {LinkSource.KNOWLEDGE_BASE: fetcher}, soft_errors)
    hits = exact_match_lookup("numpy", sources, soft_errors=soft_errors)
    assert [s for s, _ in hits] == [LinkSource.PKG_INDEX_PY]
    assert len(soft_errors) == 1
    assert soft_errors[0].startswith("https://kb.example/resolve/numpy")
    assert type(error).__name__ in soft_errors[0]
    assert list(tmp_path.iterdir()) == []


def test_tests_cannot_reach_a_remote_address():
    # Connecting a UDP socket sends nothing, and a numeric address needs no
    # name lookup, so neither probe leaves the machine even without the guard.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        with pytest.raises(pytest.fail.Exception, match="192.0.2.1"):
            sock.connect(("192.0.2.1", 9))
        sock.connect(("127.0.0.1", 9))
    with pytest.raises(pytest.fail.Exception, match="192.0.2.1"):
        socket.getaddrinfo("192.0.2.1", 443)


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


# Names that quote to every kind of file name: escapes, a slash, a space,
# non-ASCII, a .json suffix, case twins and one whose file name is over 255 bytes.
NAME_POOL = (
    "limma", "a/b", "100%", "%2f", "/", "a b", "caf\u00e9", "x.json", "x", "X", "A",
    "sub", "README", "\u00e9" * 50,
)
# Directory entries that are no name's document, each with the name it would answer
# for if matched loosely (unquoted, case-folded or without the suffix rule).
NON_CANONICAL = {
    "%2f.json": "/", "a b.json": "a b", "x.JSON": "x", "README": "README", "%41.json": "A",
    "caf\u00e9.json": "caf\u00e9",
}
MALFORMED = b'{"Resource ID Link": '

mention_names = st.one_of(
    st.sampled_from(NAME_POOL), st.text(alphabet="aA%/ \u00e9.", min_size=1, max_size=5)
)
kb_documents = st.one_of(
    st.none(),
    st.just(MALFORMED),
    st.just([1]),
    st.fixed_dictionaries(
        {"Resource ID Link": st.sampled_from(["", "https://scicrunch.org/r/1"])},
        optional={"Resource Name": st.sampled_from(["KB name", " "]), "Keywords": st.just("k")},
    ),
)


def _write_snapshot(directory: Path, documents: dict, extras) -> None:
    directory.mkdir()
    for name, document in documents.items():
        file_name = urllib.parse.quote(name, safe="") + ".json"
        if len(file_name) <= 255:
            data = document if isinstance(document, bytes) else json.dumps(document).encode()
            (directory / file_name).write_bytes(data)
    for entry in extras:
        (directory / entry).write_text('{"Resource ID Link": "wrong"}', encoding="utf-8")
    (directory / "subdirectory").mkdir()


@st.composite
def link_worlds(draw):
    extras = draw(st.sets(st.sampled_from(sorted(NON_CANONICAL))))
    lures = [NON_CANONICAL[entry] for entry in sorted(extras)]
    mentions = list(dict.fromkeys(draw(st.lists(mention_names, max_size=8)) + lures))
    listed = st.sampled_from([*NAME_POOL, *mentions])
    code_host = {}
    for name in draw(st.sets(listed)):
        match = draw(st.sampled_from([name, name.upper(), "another"]))
        url = f"https://github.com/x/{match}"
        code_host[name] = {"best_github_match": match, "github_url": url}
    return {
        "mentions": mentions,
        "py": draw(st.sets(listed)),
        "bioc": draw(st.sets(listed)),
        "kb": draw(st.dictionaries(listed, kb_documents)),
        "codehost": code_host,
        "extras": extras,
        "precedence": draw(st.permutations(list(LinkSource))),
    }


def _world_sources(world, root: Path) -> dict:
    """The world's backends, each snapshot directory written under ``root`` once."""
    for source in (LinkSource.KNOWLEDGE_BASE, LinkSource.CODE_HOST):
        if not (root / source.value).exists():
            documents = world["kb" if source is LinkSource.KNOWLEDGE_BASE else "codehost"]
            _write_snapshot(root / source.value, documents, world["extras"])
    backends = {
        LinkSource.PKG_INDEX_PY: RegistrySnapshot(
            LinkSource.PKG_INDEX_PY, world["py"], details={"limma": {"description": "d"}}
        ),
        LinkSource.PKG_INDEX_R: RegistrySnapshot(LinkSource.PKG_INDEX_R, set()),
        LinkSource.PKG_INDEX_BIOC: RegistrySnapshot(LinkSource.PKG_INDEX_BIOC, world["bioc"]),
        LinkSource.KNOWLEDGE_BASE: ApiSnapshot(
            LinkSource.KNOWLEDGE_BASE, root / LinkSource.KNOWLEDGE_BASE.value
        ),
        LinkSource.CODE_HOST: ApiSnapshot(LinkSource.CODE_HOST, root / LinkSource.CODE_HOST.value),
    }
    return {source: backends[source] for source in world["precedence"]}


def test_api_snapshot_maps_only_exact_quoted_file_names(tmp_path):
    for entry in ("a%2Fb.json", "caf%C3%A9.json", "SPSS.json", *NON_CANONICAL):
        (tmp_path / entry).write_text("null", encoding="utf-8")
    (tmp_path / "subdirectory").mkdir()
    # A file name that is not UTF-8 lists as a surrogate escape, which no name quotes to.
    with open(os.path.join(os.fsencode(tmp_path), b"\xff.json"), "wb") as fh:
        fh.write(b"null")
    snap = ApiSnapshot(LinkSource.KNOWLEDGE_BASE, tmp_path)
    assert snap.documents == {
        "a/b": "a%2Fb.json", "caf\u00e9": "caf%C3%A9.json", "SPSS": "SPSS.json"
    }


@settings(max_examples=60, deadline=None)
@given(world=link_worlds())
def test_link_mentions_matches_the_ask_every_source_reference(world):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        found = {"soft_errors": [], "collect_raw": {}}
        links = link_mentions(world["mentions"], _world_sources(world, root), **found)
        expected = {"soft_errors": [], "collect_raw": {}}
        reference = link_mentions_reference(
            world["mentions"], _world_sources(world, root), **expected
        )
    assert links == reference
    assert found == expected


def test_live_link_asks_every_mention_in_order_with_sources_interleaved(tmp_path):
    calls = []

    def fetcher(tag):
        def fetch(name):
            calls.append((tag, name))
            return {"software_name": name, "Resource ID Link": "u"} if name == "Fiji" else None

        return fetch

    mentions = ["numpy", "absent", "a/b", "Fiji", "\u00e9" * 50]
    sources = {
        LinkSource.KNOWLEDGE_BASE: ApiSnapshot(LinkSource.KNOWLEDGE_BASE, tmp_path / "kb"),
        LinkSource.PKG_INDEX_PY: py_registry("numpy"),
        LinkSource.CODE_HOST: ApiSnapshot(LinkSource.CODE_HOST, tmp_path / "ch"),
    }
    fetchers = {LinkSource.CODE_HOST: fetcher("ch"), LinkSource.KNOWLEDGE_BASE: fetcher("kb")}
    fetch_documents(mentions, sources, fetchers)
    links = link_mentions(mentions, sources)
    # The last name's file name is over 255 bytes: it is never fetched.
    assert calls == [(tag, name) for name in mentions[:4] for tag in ("kb", "ch")]
    assert sorted(links) == [0, 3]
    assert (tmp_path / "kb" / "a%2Fb.json").read_text(encoding="utf-8") == "null"
    assert sorted(p.name for p in (tmp_path / "ch").iterdir()) == [
        "Fiji.json", "a%2Fb.json", "absent.json", "numpy.json"
    ]


def test_offline_link_looks_up_only_names_some_source_lists(tmp_path, monkeypatch):
    asked = []
    for cls in (RegistrySnapshot, ApiSnapshot):
        def lookup(self, name, original=cls.lookup):
            asked.append((self.source, name))
            return original(self, name)

        monkeypatch.setattr(cls, "lookup", lookup)
    kb = _api_snapshot(tmp_path, LinkSource.KNOWLEDGE_BASE, "SPSS", {"Resource ID Link": "u"})
    sources = {
        LinkSource.PKG_INDEX_PY: py_registry("numpy", "unmentioned"),
        LinkSource.KNOWLEDGE_BASE: kb,
    }
    links = link_mentions(["absent", "numpy", "SPSS", "spss", "SPSS.json"], sources)
    assert sorted(links) == [1, 2]
    assert asked == [(source, name) for name in ("numpy", "SPSS") for source in sources]


API_SOURCES = (LinkSource.KNOWLEDGE_BASE, LinkSource.CODE_HOST)
# Names whose document names hold escapes and a slash, or reach or pass 255 bytes.
FETCH_POOL = ("Fiji", "a/b", "/", "100%", "caf\u00e9", "a" * 250, "x" * 251, "\u00e9" * 50)


@st.composite
def fetch_worlds(draw):
    mentions = draw(st.lists(st.one_of(st.sampled_from(FETCH_POOL), mention_names), unique=True))
    precedence = draw(st.permutations(list(LinkSource)))
    live = draw(st.sets(st.sampled_from(API_SOURCES)))
    storable = [name for name in mentions if len(urllib.parse.quote(name, safe="")) <= 250]
    present = {
        source: draw(st.sets(st.sampled_from(storable))) if storable else set()
        for source in API_SOURCES
    }
    outcomes = st.sampled_from(["record", "miss", "error", "unwritable"])
    answers = {}
    for source in live:
        for name in mentions:
            answers[source, name] = {
                "record": {"software_name": name, "Resource ID Link": f"https://r/{name}"},
                "miss": None,
                "error": ExternalServiceError(source.value, f"down at {name!r}"),
                "unwritable": {"Description": "bad \ud800 text"},
            }[draw(outcomes)]
    return {
        "mentions": mentions,
        "precedence": precedence,
        "live": [source for source in precedence if source in live],
        "present": present,
        "answers": answers,
    }


@settings(max_examples=60, deadline=None)
@given(world=fetch_worlds())
def test_fetch_documents_matches_the_asking_reference(world):
    requests = []

    def fetcher(source):
        def fetch(name):
            requests.append((source, name))
            answer = world["answers"][source, name]
            if isinstance(answer, ExternalServiceError):
                raise answer
            return answer

        return fetch

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for source in API_SOURCES:
            directory = root / source.value
            directory.mkdir()
            for name in world["present"][source]:
                file_name = urllib.parse.quote(name, safe="") + ".json"
                (directory / file_name).write_text(json.dumps({"kept": name}), encoding="utf-8")
            (directory / ".4242.tmp").write_text("torn", encoding="utf-8")
        sources = {
            source: ApiSnapshot(source, root / source.value) if source in API_SOURCES
            else RegistrySnapshot(source, set(world["mentions"]))
            for source in world["precedence"]
        }
        # Given in another order than precedence, which the sources alone set.
        fetchers = {source: fetcher(source) for source in sorted(world["live"], key=str)}
        soft_errors = []
        fetch_documents(world["mentions"], sources, fetchers, soft_errors)
        found, kept_temporary, listed = {}, {}, {}
        for source in API_SOURCES:
            directory = root / source.value
            found[source] = {
                urllib.parse.unquote(path.stem): json.loads(path.read_text(encoding="utf-8"))
                for path in directory.glob("*.json")
            }
            kept_temporary[source] = (directory / ".4242.tmp").exists()
            listed[source] = ApiSnapshot(source, directory).documents
        mapped = {source: sources[source].documents for source in API_SOURCES}
    expected_requests, written, errors = fetch_documents_reference(
        world["mentions"], world["live"], world["present"], world["answers"]
    )
    assert requests == expected_requests
    assert found == {
        source: {name: {"kept": name} for name in world["present"][source]}
        | written.get(source, {})
        for source in API_SOURCES
    }
    assert mapped == listed
    assert kept_temporary == {source: source not in world["live"] for source in API_SOURCES}
    assert len(soft_errors) == errors
