import errno
import gzip
import hashlib
import io
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import softmentions
from softmentions import cli
from softmentions.cli import build_link_sources, main
from softmentions.config import PipelineConfig, apply_settings, load_config
from softmentions.errors import ValidationError
from softmentions.fileio import TEMPORARY_NAME
from softmentions.linking import LinkSource

from conftest import DATA_DIR, FIXTURE_DIR, VARIANTS_DIR


def run_cli(*argv) -> int:
    return main(list(argv))


STAGES = ("ingest", "synonyms", "cluster", "link")


def run_stage(fixture_copy: Path, stage: str, *extra) -> int:
    return run_cli(*stage_argv(fixture_copy, stage, *extra))


def stage_argv(fixture_copy: Path, stage: str, *extra) -> list[str]:
    """The command line that runs ``stage`` on the copy, every path setting naming its file."""
    return [
        stage, "--config", str(fixture_copy / "config.cfg"),
        "--out", str(fixture_copy / "out"),
        "--set", f"paths.corpus={fixture_copy / 'corpus.tsv'}",
        "--set", f"paths.registry_py={fixture_copy / 'registry_py.txt'}",
        "--set", f"paths.registry_r={fixture_copy / 'registry_r.txt'}",
        "--set", f"paths.registry_bioc={fixture_copy / 'registry_bioc.txt'}",
        "--set", f"paths.kb_dict={fixture_copy / 'kb_synonyms.tsv'}",
        "--set", f"paths.stoplist={fixture_copy / 'stoplist.txt'}",
        "--set", f"paths.kb_snapshots={fixture_copy / 'snapshots' / 'kb'}",
        "--set", f"paths.codehost_snapshots={fixture_copy / 'snapshots' / 'codehost'}",
        *extra,
    ]


def test_run_all_produces_stage_artifacts(fixture_copy):
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    for name in [
        "mention2id.tsv", "frequencies.tsv", "synonyms.tsv", "disambiguated.tsv",
        "clusters.tsv", "metadata.tsv", "link_report.tsv",
        "manifest_ingest.json", "manifest_synonyms.json",
        "manifest_cluster.json", "manifest_link.json",
    ]:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest_cluster.json").read_text(encoding="utf-8"))
    counts = manifest["row_counts"]
    assert counts["no_significant_synonyms"] + counts["no_cluster_output"] + counts[
        "disambiguated"
    ] == counts["unique_mentions"]
    assert counts["clusters"] == 7


def output_files(out: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


NO_LINK_SOURCE = tuple(
    arg
    for key in ("registry_py", "registry_r", "registry_bioc", "kb_snapshots", "codehost_snapshots")
    for arg in ("--set", f"paths.{key}=")
)


@pytest.mark.parametrize(
    "extra", [pytest.param((), id="fixture"), pytest.param(NO_LINK_SOURCE, id="no-link-source")]
)
def test_stages_run_separately_match_run_all(fixture_copy, extra):
    # With no link source, run-all still links and writes header-only outputs.
    assert_stages_run_separately_match_run_all(fixture_copy, *extra)


def assert_stages_run_separately_match_run_all(tree: Path, *extra) -> None:
    """run-all hands values from stage to stage; alone, each stage reads them back from out/.

    Both ways must write the same bytes everywhere, manifests included, so
    the stages run in the same directory.
    """
    assert run_stage(tree, "run-all", *extra) == 0
    out = tree / "out"
    expected = output_files(out)
    out.rename(tree / "out_run_all")
    for stage in ("ingest", "synonyms", "cluster", "link"):
        assert run_stage(tree, stage, *extra) == 0
    found = output_files(out)
    assert sorted(found) == sorted(expected)
    for name, data in expected.items():
        assert found[name] == data, name


VARIANT_LINES = sorted({
    line
    for path in VARIANTS_DIR.glob("*.txt")
    for line in path.read_text(encoding="utf-8").splitlines()
    if line.strip()
})
# Case, hyphen and suffix mutations of a variant line.
MUTATIONS = (
    str, str.lower, str.upper, str.swapcase,
    lambda m: m.replace(" ", "-"), lambda m: m.replace("-", ""),
    lambda m: m + " software", lambda m: m + "s",
)
# A row's pmcid and doi, either or both of which may be empty.
PAPER_KEYS = st.tuples(
    st.sampled_from(["", "9000001", "9000002", "9000003"]),
    st.sampled_from(["", "10.1000/a", "10.1000/b"]),
)


@st.composite
def drawn_corpora(draw) -> str:
    """A comm corpus of 1-40 mentions, each in 1-3 rows.

    The mentions are mutations of a few variant lines, so that many of them pair.
    """
    bases = draw(st.lists(st.sampled_from(VARIANT_LINES), min_size=1, max_size=6))
    mention = st.builds(lambda line, mutate: mutate(line),
                        st.sampled_from(bases), st.sampled_from(MUTATIONS))
    lines = [(FIXTURE_DIR / "corpus.tsv").read_text(encoding="utf-8").split("\n", 1)[0]]
    for software in draw(st.lists(mention, min_size=1, max_size=40)):
        for pmcid, doi in draw(st.lists(PAPER_KEYS, min_size=1, max_size=3)):
            lines.append("\t".join((
                "comm", f"comm/drawn/PMC{pmcid}.nxml", pmcid, "", doi, "2021",
                "materials and methods", "1", f"We used {software}.", software, "", "",
                "not_curated",
            )))
    return "\n".join(lines) + "\n"


@st.composite
def drawn_settings(draw) -> list[str]:
    """Valid thresholds and DBSCAN settings, eps sometimes below the edge-value bound.

    Every stored edge is worth at least min(use, 0.99), so an eps at or above
    1 - that value with min_pts <= 2 leaves each component one cluster.
    """
    record = draw(st.floats(0.8, 1))
    use = draw(st.floats(record, 1))
    eps = round(1 - min(use, 0.99), 12) * draw(st.floats(0.01, 3))
    settings = {
        "thresholds.record": record, "thresholds.use": use,
        "dbscan.eps": eps, "dbscan.min_pts": draw(st.sampled_from([1, 2, 3])),
    }
    return [arg for key, value in settings.items() for arg in ("--set", f"{key}={value}")]


@pytest.fixture(scope="module")
def handoff_base(tmp_path_factory) -> Path:
    """The fixture's registries, KB dictionary, snapshots and stoplist, without its corpus."""
    base = tmp_path_factory.mktemp("handoff") / "fixture"
    shutil.copytree(FIXTURE_DIR, base, ignore=shutil.ignore_patterns("out", "corpus.tsv"))
    return base


# One and a half times the profile's examples keep the default run near 4 s;
# the ci profile runs ten times as many.
@settings(
    max_examples=settings.default.max_examples * 3 // 2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(corpus=drawn_corpora(), extra=drawn_settings())
def test_stages_run_separately_match_run_all_on_drawn_corpora(handoff_base, corpus, extra):
    with tempfile.TemporaryDirectory(dir=handoff_base.parent) as scratch:
        tree = Path(scratch) / "fixture"
        shutil.copytree(handoff_base, tree)
        (tree / "corpus.tsv").write_text(corpus, encoding="utf-8")
        assert_stages_run_separately_match_run_all(tree, *extra)


# Each example spawns two worker processes, so the default run keeps to 5
# examples; the ci profile runs ten times as many.
@settings(
    max_examples=settings.default.max_examples // 20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(corpus=drawn_corpora(), extra=drawn_settings())
def test_two_workers_write_the_bytes_one_writes(handoff_base, corpus, extra):
    with tempfile.TemporaryDirectory(dir=handoff_base.parent) as scratch:
        tree = Path(scratch) / "fixture"
        shutil.copytree(handoff_base, tree)
        (tree / "corpus.tsv").write_text(corpus, encoding="utf-8")
        assert run_stage(tree, "run-all", *extra) == 0
        one = output_files(tree / "out")
        shutil.rmtree(tree / "out")
        assert run_stage(tree, "run-all", *extra, "--set", "parallelism.workers=2") == 0
        assert output_files_as_one_worker(tree / "out", echoed_workers="2") == one


def test_recluster_without_matrix_leaves_no_stale_matrix(fixture_copy):
    out = fixture_copy / "out"
    assert run_stage(fixture_copy, "run-all", "--set", "output.matrix=true") == 0
    assert (out / "matrix.tsv").exists()
    assert run_stage(fixture_copy, "cluster", "--set", "thresholds.use=0.99") == 0
    assert not (out / "matrix.tsv").exists()


def test_relink_with_fewer_sources_leaves_no_stale_csvs(fixture_copy):
    only_py = ("--set", "linking.precedence=PkgIndexPy")
    out = fixture_copy / "out"
    assert run_stage(fixture_copy, "run-all") == 0
    assert len(list((out / "normalized").glob("*.csv"))) > 1
    assert run_stage(fixture_copy, "link", *only_py) == 0
    relinked = output_files(out)
    shutil.rmtree(out)
    assert run_stage(fixture_copy, "run-all", *only_py) == 0
    fresh = output_files(out)
    for directory in ("normalized", "raw"):
        names = sorted(name for name in relinked if name.startswith(f"{directory}/"))
        assert names == [f"{directory}/PkgIndexPy.csv"]
        assert relinked[names[0]] == fresh[names[0]]


def _assert_run_all_outputs_hold_with_line_ends(fixture_copy, end: bytes):
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    lf = output_files(out)
    shutil.rmtree(out)
    corpus = fixture_copy / "corpus.tsv"
    corpus.write_bytes(corpus.read_bytes().replace(b"\n", end))
    assert run_stage(fixture_copy, "run-all") == 0
    found = output_files(out)
    for name in ("disambiguated.tsv", "clusters.tsv", "synonyms.tsv", "metadata.tsv"):
        assert found[name] == lf[name], name


def test_run_all_over_crlf_corpus_writes_the_same_outputs(fixture_copy):
    # The corpus parser takes CRLF chunks in bulk, with \n for each \r\n.
    _assert_run_all_outputs_hold_with_line_ends(fixture_copy, b"\r\n")


def test_run_all_over_cr_corpus_writes_the_same_outputs(fixture_copy):
    # A lone \r line end sends each chunk of the corpus through the per-line parser.
    _assert_run_all_outputs_hold_with_line_ends(fixture_copy, b"\r")


def test_run_all_digests_each_input_once(fixture_copy, monkeypatch):
    digested = []
    original = cli._digest
    monkeypatch.setattr(cli, "_digest", lambda path: digested.append(path) or original(path))
    assert run_stage(fixture_copy, "run-all") == 0
    assert digested and len(set(digested)) == len(digested)
    corpus = fixture_copy / "corpus.tsv"
    manifests = [fixture_copy / "out" / f"manifest_{stage}.json" for stage in ("ingest", "cluster")]
    for path in manifests:
        recorded = json.loads(path.read_text(encoding="utf-8"))["inputs"][str(corpus)]
        assert recorded == hashlib.sha256(corpus.read_bytes()).hexdigest()
    # Each run digests afresh: an edited corpus is not taken for the old one.
    corpus.write_bytes(corpus.read_bytes() + corpus.read_bytes().splitlines(keepends=True)[-1])
    assert run_stage(fixture_copy, "run-all") == 0
    for path in manifests:
        recorded = json.loads(path.read_text(encoding="utf-8"))["inputs"][str(corpus)]
        assert recorded == hashlib.sha256(corpus.read_bytes()).hexdigest()


# sha256sum lines ("<digest>  <path under out/>") for run-all on the fixture.
# Every later change must reproduce them; rewrite them only together with
# a deliberate change to an output format.
FIXTURE_DIGESTS = DATA_DIR / "fixture_out.sha256"


def output_files_as_one_worker(out: Path, echoed_workers: str) -> dict[str, bytes]:
    """output_files, with the worker count that each manifest echoes set back to 1."""
    files = output_files(out)
    echoed = f'"parallelism.workers": "{echoed_workers}"'.encode()
    for name, data in files.items():
        if name.startswith("manifest_"):
            assert echoed in data, name
            files[name] = data.replace(echoed, b'"parallelism.workers": "1"')
    return files


def pinned_digest_mismatches(
    out: Path, echoed_workers: str = "1", pins: Path = FIXTURE_DIGESTS
) -> list[str]:
    """Files under out/ whose digest differs from (or is missing in) ``pins``.

    Manifests echo the configuration, so their worker count is set back to
    1 before hashing.
    """
    expected = {}
    for line in pins.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        expected[name] = digest
    found = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in output_files_as_one_worker(out, echoed_workers).items()
    }
    return [name for name in sorted(expected.keys() | found.keys())
            if expected.get(name) != found.get(name)]


def test_run_all_reproduces_the_pinned_fixture_digests(fixture_copy, monkeypatch):
    # From the copy with the config's relative paths, so the manifests name
    # the same paths as when the digests were taken.
    monkeypatch.chdir(fixture_copy)
    assert run_cli("run-all", "--config", "config.cfg") == 0
    assert pinned_digest_mismatches(fixture_copy / "out") == []


def test_run_all_with_two_workers_reproduces_the_pinned_digests(fixture_copy, monkeypatch):
    # Only the manifests' echo of the worker count may differ.
    monkeypatch.chdir(fixture_copy)
    assert run_cli("run-all", "--config", "config.cfg", "--set", "parallelism.workers=2") == 0
    assert pinned_digest_mismatches(fixture_copy / "out", echoed_workers="2") == []


# Every eval.* key set, with the readers' alias headers, an extra
# predicted-pairs column, a complete two-category grid and a five-category
# grid missing one rating (so Fleiss kappa is left out).
EVALUATE_DIR = DATA_DIR / "evaluate"
EVALUATE_DIGESTS = DATA_DIR / "evaluate_out.sha256"


def test_evaluate_reproduces_the_pinned_digests(tmp_path, monkeypatch):
    inputs = tmp_path / "evaluate"
    shutil.copytree(EVALUATE_DIR, inputs)
    monkeypatch.chdir(inputs)
    assert run_cli("evaluate", "--config", "config.cfg") == 0
    assert pinned_digest_mismatches(inputs / "out", pins=EVALUATE_DIGESTS) == []


def test_run_all_reads_each_registry_name_list_once(fixture_copy, monkeypatch):
    read = []
    real_read_lines = cli.read_lines

    def read_lines(path):
        read.append(Path(path).name)
        return real_read_lines(path)

    monkeypatch.setattr(cli, "read_lines", read_lines)
    assert run_stage(fixture_copy, "run-all") == 0
    assert sorted(read) == ["registry_bioc.txt", "registry_py.txt", "registry_r.txt"]


def test_stages_read_each_artifact_they_need_once(fixture_copy, monkeypatch):
    read = []
    for owner, attr in (
        (cli.ingest, "read_id_table"),
        (cli.ingest, "read_frequencies"),
        (cli.synonyms, "read_synonyms_tsv"),
        (cli, "_read_clusters"),
    ):
        def counted(path, *args, real=getattr(owner, attr)):
            read.append(Path(path).name)
            return real(path, *args)

        monkeypatch.setattr(owner, attr, counted)
    assert run_stage(fixture_copy, "run-all") == 0
    assert read == []
    assert run_stage(fixture_copy, "cluster") == 0
    assert sorted(read) == ["frequencies.tsv", "mention2id.tsv", "synonyms.tsv"]
    read.clear()
    assert run_stage(fixture_copy, "link") == 0
    assert sorted(read) == ["clusters.tsv", "mention2id.tsv"]


def corrupt_corpus_number(corpus: Path, lineno: int) -> None:
    """Set the number field of the corpus line ``lineno`` (1-based) to 'three'."""
    lines = corpus.read_text(encoding="utf-8").splitlines()
    fields = lines[lineno - 1].split("\t")
    fields[lines[0].split("\t").index("number")] = "three"
    lines[lineno - 1] = "\t".join(fields)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_run_all_warns_once_per_skipped_corpus_row(fixture_copy, caplog):
    corpus = fixture_copy / "corpus.tsv"
    corrupt_corpus_number(corpus, 3)
    assert run_stage(fixture_copy, "run-all", "--lenient") == 0
    assert caplog.text.count(f"skipped row: {corpus}: line 3:") == 1


def test_corpus_newer_than_mention_table_fails_cluster(fixture_copy, caplog, capsys):
    assert run_stage(fixture_copy, "ingest") == 0
    assert run_stage(fixture_copy, "synonyms") == 0
    corpus = fixture_copy / "corpus.tsv"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[lines[0].split("\t").index("software")] = "BrandNewTool"
    lines.append("\t".join(fields))
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    caplog.clear()
    assert run_stage(fixture_copy, "cluster") == 2
    log = caplog.text + capsys.readouterr().err
    manifest = fixture_copy / "out" / "manifest_ingest.json"
    assert_data_error_names(log, f"{corpus} is not the file {manifest} records (rerun ingest)")
    # Without the manifest, the mention that mention2id.tsv lacks is named by its line.
    manifest.unlink()
    caplog.clear()
    assert run_stage(fixture_copy, "cluster") == 2
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{corpus}: line {len(lines)}: unknown mention 'BrandNewTool'")
    assert str(fixture_copy / "out" / "mention2id.tsv") in log
    assert not (fixture_copy / "out" / "disambiguated.tsv").exists()


def test_mention_table_edited_since_ingest_fails_cluster_naming_it(fixture_copy, caplog, capsys):
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    ids = out / "mention2id.tsv"
    # (BLAST( still sorts between (BLAST and (BLAST), so the table itself loads.
    renamed = ids.read_text(encoding="utf-8").replace("(BLAST\t", "(BLAST(\t", 1)
    ids.write_text(renamed, encoding="utf-8")
    caplog.clear()
    assert run_stage(fixture_copy, "cluster") == 2
    log = caplog.text + capsys.readouterr().err
    frequencies = out / "frequencies.tsv"
    where = f"{frequencies}: line 2: unknown mention '(BLAST', which {ids} does not list"
    assert_data_error_names(log, where)


def append_graphpad_rows(corpus: Path, count: int) -> None:
    """Append ``count`` rows of the known mention GraPhPad, each from a new paper."""
    lines = corpus.read_text(encoding="utf-8").splitlines()
    fields = next(line for line in lines if "\tGraPhPad\t" in line).split("\t")
    for i in range(count):
        fields[1:3] = f"comm/fixture/PMC{9100000 + i}.nxml", str(9100000 + i)
        lines.append("\t".join(fields))
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corpus_changed_since_ingest_fails_cluster(fixture_copy, caplog, capsys):
    # Every new row names a known mention, so only the digest in
    # manifest_ingest.json tells that frequencies.tsv, and with it the
    # cluster names, are stale: a clean run-all names cluster 4 GraPhPad.
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    corpus = fixture_copy / "corpus.tsv"
    append_graphpad_rows(corpus, 40)
    before = output_files(out)
    assert run_stage(fixture_copy, "synonyms") == 2
    caplog.clear()
    assert run_stage(fixture_copy, "cluster") == 2
    log = caplog.text + capsys.readouterr().err
    manifest = out / "manifest_ingest.json"
    assert_data_error_names(log, f"{corpus} is not the file {manifest} records (rerun ingest)")
    assert output_files(out) == before
    assert run_stage(fixture_copy, "ingest") == 0
    assert run_stage(fixture_copy, "cluster") == 0
    clusters = (out / "clusters.tsv").read_text(encoding="utf-8").splitlines()
    assert next(line for line in clusters if line.startswith("4\t")).split("\t")[2] == "GraPhPad"


@pytest.mark.parametrize("content", ["{", '{"inputs": {}}', "[]"])
@pytest.mark.parametrize(
    "upstream, stage", [("ingest", "cluster"), ("synonyms", "cluster"), ("cluster", "link")]
)
def test_unusable_ingest_manifest_fails_cluster_naming_it(
    fixture_copy, caplog, capsys, upstream, stage, content
):
    # Each upstream manifest is read by the later stage that loads one of its artifacts.
    assert run_stage(fixture_copy, "run-all") == 0
    manifest = fixture_copy / "out" / f"manifest_{upstream}.json"
    manifest.write_text(content, encoding="utf-8")
    caplog.clear()
    assert run_stage(fixture_copy, stage) == 2
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{manifest}: expected an object of input digests")


def test_cluster_without_ingest_manifest_compares_no_corpus(fixture_copy):
    # Artifacts written by other means, such as the benchmark's, carry no manifest.
    assert run_stage(fixture_copy, "run-all") == 0
    (fixture_copy / "out" / "manifest_ingest.json").unlink()
    append_graphpad_rows(fixture_copy / "corpus.tsv", 1)
    assert run_stage(fixture_copy, "cluster") == 0


def test_corpus_changed_since_ingest_fails_every_later_stage(fixture_copy, caplog, capsys):
    # link reads no corpus, yet its clusters.tsv is as stale as the frequencies.
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    corpus = fixture_copy / "corpus.tsv"
    append_graphpad_rows(corpus, 40)
    before = output_files(out)
    manifest = out / "manifest_ingest.json"
    for stage in ("synonyms", "cluster", "link"):
        caplog.clear()
        assert run_stage(fixture_copy, stage) == 2, stage
        log = caplog.text + capsys.readouterr().err
        assert_data_error_names(log, f"{corpus} is not the file {manifest} records (rerun ingest)")
    assert output_files(out) == before
    for stage in STAGES:
        assert run_stage(fixture_copy, stage) == 0
    rerun = output_files(out)
    shutil.rmtree(out)
    assert run_stage(fixture_copy, "run-all") == 0
    assert output_files(out) == rerun


# Each case: the input edited after run-all, the stage that refuses, and the
# upstream stage whose manifest records the input. link reaches
# manifest_synonyms.json through synonyms.tsv, an input manifest_cluster.json records.
EDITED_INPUTS = {
    "stoplist": ("stoplist.txt", "link", "cluster"),
    "registry_list": ("registry_py.txt", "cluster", "synonyms"),
    "registry_list_behind_clusters": ("registry_py.txt", "link", "synonyms"),
}


@pytest.mark.parametrize("name, stage, upstream", EDITED_INPUTS.values(), ids=EDITED_INPUTS)
def test_input_edited_since_upstream_stage_fails_naming_it(
    fixture_copy, caplog, capsys, name, stage, upstream
):
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    path = fixture_copy / name
    path.write_text(path.read_text(encoding="utf-8") + "edited\n", encoding="utf-8")
    before = output_files(out)
    caplog.clear()
    assert run_stage(fixture_copy, stage) == 2
    log = caplog.text + capsys.readouterr().err
    manifest = out / f"manifest_{upstream}.json"
    assert_data_error_names(log, f"{path} is not the file {manifest} records (rerun {upstream})")
    assert output_files(out) == before


# run-all's --out, then link's: () keeps run_stage's absolute one, and a
# relative one is read from the fixture copy.
OUT_SPELLINGS = {
    "absolute_then_relative": ((), ("--out", "out")),
    "absolute_then_dotted": ((), ("--out", "./out/")),
    "relative_then_absolute": (("--out", "out"), ()),
}


@pytest.mark.parametrize("first, then", OUT_SPELLINGS.values(), ids=OUT_SPELLINGS)
def test_input_edited_since_upstream_stage_fails_however_out_is_spelled(
    fixture_copy, monkeypatch, caplog, capsys, first, then
):
    monkeypatch.chdir(fixture_copy)
    assert run_stage(fixture_copy, "run-all", *first) == 0
    path = fixture_copy / "registry_py.txt"
    path.write_text(path.read_text(encoding="utf-8") + "edited\n", encoding="utf-8")
    before = output_files(fixture_copy / "out")
    caplog.clear()
    assert run_stage(fixture_copy, "link", *then) == 2
    manifest = Path(then[-1] if then else fixture_copy / "out") / "manifest_synonyms.json"
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{path} is not the file {manifest} records (rerun synonyms)")
    assert output_files(fixture_copy / "out") == before


def test_setting_naming_another_file_than_upstream_stage_read_fails(fixture_copy, caplog, capsys):
    # A recorded input that a path setting named is compared where that
    # setting points now: a clean run-all over corpus2.tsv names cluster 4
    # GraPhPad, so clusters from corpus.tsv's frequencies.tsv are stale.
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    corpus2 = fixture_copy / "corpus2.tsv"
    shutil.copyfile(fixture_copy / "corpus.tsv", corpus2)
    append_graphpad_rows(corpus2, 40)
    before = output_files(out)
    manifest = out / "manifest_ingest.json"
    for stage in ("synonyms", "cluster", "link"):
        caplog.clear()
        assert run_stage(fixture_copy, stage, "--set", f"paths.corpus={corpus2}") == 2, stage
        log = caplog.text + capsys.readouterr().err
        assert_data_error_names(log, f"{corpus2} is not the file {manifest} records (rerun ingest)")
    # A setting that now names no file is refused too.
    caplog.clear()
    assert run_stage(fixture_copy, "link", "--set", "paths.stoplist=") == 2
    log = caplog.text + capsys.readouterr().err
    manifest = out / "manifest_cluster.json"
    assert_data_error_names(log, f"paths.stoplist (unset) is not the file {manifest} records")
    assert output_files(out) == before
    # A file with the recorded digest is the recorded file, wherever it is.
    shutil.copyfile(fixture_copy / "corpus.tsv", corpus2)
    assert run_stage(fixture_copy, "cluster", "--set", f"paths.corpus={corpus2}") == 0


def test_manifest_recording_its_own_artifact_is_checked_once(fixture_copy):
    # The check visits each manifest once, so an edited one that lists its
    # own stage's artifact ends instead of recursing.
    assert run_stage(fixture_copy, "run-all") == 0
    ids = fixture_copy / "out" / "mention2id.tsv"
    manifest = fixture_copy / "out" / "manifest_ingest.json"
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    recorded["inputs"][str(ids)] = hashlib.sha256(ids.read_bytes()).hexdigest()
    manifest.write_text(json.dumps(recorded), encoding="utf-8")
    assert run_stage(fixture_copy, "synonyms") == 0


def run_all_writes(tree: Path) -> list[str]:
    """Run run-all on the copy; each file under out/ that it writes, in order."""
    writes = []
    replace = os.replace
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", lambda src, dst: writes.append(dst) or replace(src, dst))
        assert run_stage(tree, "run-all") == 0
    return [Path(dst).relative_to(tree / "out").as_posix() for dst in writes]


def write_stages(writes: list[str]) -> list[str]:
    """The stage of each of run-all's writes: the one whose manifest is the next written."""
    stages: list[str] = []
    for name in reversed(writes):
        if name.startswith("manifest_"):
            stage = name.removeprefix("manifest_").removesuffix(".json")
        stages.insert(0, stage)
    return stages


@pytest.fixture(scope="module")
def stale_out(tmp_path_factory):
    """A fixture copy whose out/ is from before 40 GraPhPad rows were appended to its corpus.

    Returns the copy, a copy of that out/, the files under out/ a clean
    run-all over the new corpus writes, in order, and the bytes it leaves.
    """
    tree = tmp_path_factory.mktemp("stale") / "fixture"
    shutil.copytree(FIXTURE_DIR, tree)
    assert run_stage(tree, "run-all") == 0
    old_out = shutil.copytree(tree / "out", tree.parent / "old_out")
    append_graphpad_rows(tree / "corpus.tsv", 40)
    writes = run_all_writes(tree)
    return tree, old_out, writes, output_files(tree / "out")


STALE = re.compile(r"(\S+) is not the file (\S+) records \(rerun (\w+)\)")


def test_write_failure_in_run_all_leaves_each_later_stage_refusing_or_exact(
    stale_out, caplog, capsys
):
    # run-all over the new corpus fails with ENOSPC at its k-th write, for
    # every k; then each stage after the failed one runs alone. It must exit
    # 2 naming a file its manifest records otherwise, writing nothing, or
    # write what a clean run-all writes.
    tree, old_out, writes, clean = stale_out
    out = tree / "out"
    stages = write_stages(writes)
    refused = 0
    for k, failed in enumerate(stages):
        shutil.rmtree(out)
        shutil.copytree(old_out, out)
        calls = iter(range(len(writes)))

        def replace(src, dst, real=os.replace):
            if next(calls) == k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            real(src, dst)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "replace", replace)
            assert run_stage(tree, "run-all") == 2, k
        for stage in STAGES[STAGES.index(failed) + 1:]:
            before = output_files(out)
            caplog.clear()
            capsys.readouterr()
            code = run_stage(tree, stage)
            log = caplog.text + capsys.readouterr().err
            assert code in (0, 2) and "Traceback" not in log, (k, stage, log)
            if code == 2:
                stale, manifest, upstream = STALE.search(log).groups()
                assert manifest == str(out / f"manifest_{upstream}.json"), (k, stage, log)
                recorded = json.loads(Path(manifest).read_text(encoding="utf-8"))["inputs"]
                assert not Path(stale).is_file() or recorded[stale] != hashlib.sha256(
                    Path(stale).read_bytes()
                ).hexdigest(), (k, stage, log)
                assert output_files(out) == before, (k, stage)
                refused += 1
            else:
                found = output_files(out)
                for name, made_by in zip(writes, stages):
                    if made_by == stage:
                        assert found[name] == clean[name], (k, stage, name)
    assert refused


@pytest.fixture(scope="module")
def killed_base(tmp_path_factory):
    """A fixture copy, the stage of each of run-all's writes, and the files a clean run-all leaves."""
    tree = tmp_path_factory.mktemp("killed") / "fixture"
    shutil.copytree(FIXTURE_DIR, tree)
    stages = write_stages(run_all_writes(tree))
    return tree, stages, output_files(tree / "out")


# The CLI run on sys.argv[2:], killed with SIGKILL at its os.replace number
# sys.argv[1] (from 0), before that write's temporary file is renamed.
KILL_AT_WRITE = """
import os, signal, sys
from softmentions import cli

done, replace = iter(range(int(sys.argv[1]))), os.replace

def replace_or_die(src, dst):
    if next(done, None) is None:
        os.kill(os.getpid(), signal.SIGKILL)
    replace(src, dst)

os.replace = replace_or_die
sys.exit(cli.main(sys.argv[2:]))
"""


# Hypothesis draws no write of a stage twice while others are left, so the
# default run kills run-all at two writes of each stage and the ci profile
# at every write.
@pytest.mark.parametrize("stage", STAGES)
@settings(max_examples=settings.default.max_examples // 50, deadline=None)
@given(data=st.data())
def test_run_all_killed_at_a_write_then_rerun_writes_a_clean_runs_bytes(killed_base, stage, data):
    # The killed process leaves write_text's temporary file; the next run
    # deletes it, so out/ holds exactly what a clean run leaves.
    tree, stages, clean = killed_base
    k = data.draw(st.sampled_from([k for k, made_by in enumerate(stages) if made_by == stage]))
    out = tree / "out"
    shutil.rmtree(out, ignore_errors=True)
    killed = subprocess.run(
        [sys.executable, "-c", KILL_AT_WRITE, str(k), *stage_argv(tree, "run-all")],
        env=_package_env(), capture_output=True, encoding="utf-8",
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert len([p for p in out.rglob("*") if TEMPORARY_NAME.fullmatch(p.name)]) == 1
    assert run_stage(tree, "run-all") == 0
    assert output_files(out) == clean


def test_min_pts_one_leaves_no_noise(fixture_copy):
    assert run_stage(fixture_copy, "run-all", "--set", "dbscan.min_pts=1") == 0
    manifest = json.loads(
        (fixture_copy / "out" / "manifest_cluster.json").read_text(encoding="utf-8")
    )
    assert manifest["row_counts"]["no_cluster_output"] == 0


def test_invalid_eps_is_a_validation_error(fixture_copy):
    assert run_stage(fixture_copy, "cluster", "--set", "dbscan.eps=0") == 1


def test_unknown_config_key_is_a_validation_error(fixture_copy):
    assert run_stage(fixture_copy, "ingest", "--set", "nope.key=1") == 1


def test_non_integer_workers_flag_is_a_validation_error(fixture_copy, caplog):
    assert run_stage(fixture_copy, "ingest", "--workers", "abc") == 1
    assert "parallelism.workers: expected an integer" in caplog.text


def test_missing_corpus_is_a_data_error(tmp_path, capsys):
    assert run_cli("ingest", "--out", str(tmp_path / "out"),
                   "--set", f"paths.corpus={tmp_path / 'absent.tsv'}") == 2


def test_stage_order_enforced(tmp_path, fixture_copy):
    # cluster before ingest/synonyms: missing artifact named in the error
    assert run_stage(fixture_copy, "cluster") == 2


def test_evaluate_without_inputs_is_a_data_error(fixture_copy):
    assert run_stage(fixture_copy, "evaluate") == 2


def test_evaluate_stage_writes_metrics(fixture_copy, tmp_path):
    links = tmp_path / "links.csv"
    links.write_text(
        "software_mention,source,link_label\n"
        "a,GitHub API,correct\nb,CRAN,correct\nc,GitHub API,unclear\n",
        encoding="utf-8",
    )
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(
        "item,rater,label\n"
        "m1,r1,software\nm1,r2,software\nm1,r3,software\n"
        "m2,r1,not_software\nm2,r2,not_software\nm2,r3,software\n"
        "m3,r1,software\nm3,r2,not_software\nm3,r3,not_software\n",
        encoding="utf-8",
    )
    code = run_stage(
        fixture_copy, "evaluate",
        "--set", f"eval.linking={links}",
        "--set", f"eval.ratings_two={ratings}",
    )
    assert code == 0
    metrics = json.loads((fixture_copy / "out" / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["linking"]["overall"]["correct"]["count"] == 2
    assert "krippendorff_alpha" in metrics["agreement"]["two_categories"]
    assert "fleiss_kappa" in metrics["agreement"]["two_categories"]
    text = (fixture_copy / "out" / "metrics.txt").read_text(encoding="utf-8")
    assert "linking.overall.correct.count = 2" in text


def test_evaluate_synonym_and_curation_metrics(fixture_copy, tmp_path):
    labels = tmp_path / "pairs.csv"
    labels.write_text(
        "link_label,synonym,synonym_label\n"
        "ImageJ,Image J,Exact\nImageJ,ImageJ2,Narrow\nBLAST,ballast,Not synonym\n",
        encoding="utf-8",
    )
    predicted = tmp_path / "predicted.tsv"
    predicted.write_text("mention\tsynonym\nImageJ\tImage J\n", encoding="utf-8")
    curation = tmp_path / "top.csv"
    curation.write_text(
        "ID,software_mention,multi_label,label\n"
        "1,SPSS,software,software&algorithm\n"
        "2,GitHub,database,not_software\n",
        encoding="utf-8",
    )
    code = run_stage(
        fixture_copy, "evaluate",
        "--set", f"eval.synonyms={labels}",
        "--set", f"eval.predicted_pairs={predicted}",
        "--set", f"eval.curation_multi={curation}",
    )
    assert code == 0
    metrics = json.loads((fixture_copy / "out" / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["synonyms"] == {
        "precision": 1.0, "recall": 0.5, "f1": pytest.approx(2 / 3),
        "tp": 1, "fp": 0, "fn": 1,
    }
    assert metrics["precision_at_1k"]["software"] == pytest.approx(50.0)


def test_synonym_metric_without_predicted_pairs_scores_the_labeled_set(fixture_copy, caplog):
    labels = fixture_copy / "pairs.csv"
    labels.write_text(
        "link_label,synonym,synonym_label\n"
        "ImageJ,Image J,Exact\nImageJ,ImageJ2,Narrow\nBLAST,ballast,Not synonym\n",
        encoding="utf-8",
    )
    assert run_stage(fixture_copy, "evaluate", "--set", f"eval.synonyms={labels}") == 0
    assert "no predicted pairs configured" in caplog.text
    metrics = json.loads((fixture_copy / "out" / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["synonyms"] == {
        "precision": pytest.approx(2 / 3), "recall": 1.0, "f1": pytest.approx(0.8),
        "tp": 2, "fp": 1, "fn": 0,
    }


def test_run_all_evaluates_when_an_eval_file_is_set(fixture_copy):
    links = fixture_copy / "links.csv"
    links.write_text("source,link_label\nPyPI,correct\nCRAN,unclear\n", encoding="utf-8")
    assert run_stage(fixture_copy, "run-all", "--set", f"eval.linking={links}") == 0
    out = fixture_copy / "out"
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["linking"]["overall"]["correct"]["count"] == 1
    assert (out / "manifest_evaluate.json").exists()


def test_registry_page_details_enrich_linking(fixture_copy):
    details_dir = fixture_copy / "details"
    details_dir.mkdir()
    (details_dir / "PkgIndexPy.json").write_text(
        json.dumps({"scikit-learn": {
            "description": "Machine learning in Python",
            "github_repo": "https://github.com/scikit-learn/scikit-learn",
        }}),
        encoding="utf-8",
    )
    code = run_stage(
        fixture_copy, "run-all", "--set", f"paths.registry_details={details_dir}"
    )
    assert code == 0
    metadata = (fixture_copy / "out" / "metadata.tsv").read_text(encoding="utf-8")
    header = metadata.splitlines()[0].split("\t")
    for line in metadata.splitlines()[1:]:
        row = dict(zip(header, line.split("\t")))
        if row["software_mention"] == "scikit-learn":
            assert "Machine learning in Python" in row["description"]
            assert "scikit-learn/scikit-learn" in row["github_repo"]
            break
    else:
        pytest.fail("scikit-learn row missing from metadata.tsv")
    manifest = json.loads((fixture_copy / "out" / "manifest_link.json").read_text(encoding="utf-8"))
    assert str(details_dir / "PkgIndexPy.json") in manifest["inputs"]


# Each case: the artifact, the stage that reads it, the 1-based line to
# rewrite (None appends a line) and the new fields of that line.
CORRUPT_ARTIFACTS = {
    "non_integer_id": ("mention2id.tsv", "synonyms", 2, lambda f: [f[0], "seven"]),
    "unknown_frequency_mention": (
        "frequencies.tsv", "cluster", None, lambda f: ["NotAMention", "3"]
    ),
    "bad_synonym_conf": ("synonyms.tsv", "cluster", 3, lambda f: f[:4] + ["high", f[5]]),
    "unknown_synonym_source": ("synonyms.tsv", "cluster", 3, lambda f: f[:5] + ["Oracle"]),
    # PostProcess is a valid source of a graph edge, but no synonym generator writes it.
    "post_process_synonym_source": (
        "synonyms.tsv", "cluster", 3, lambda f: f[:5] + ["PostProcess"]
    ),
    "clusters_wrong_header": ("clusters.tsv", "link", 1, lambda f: f[:4]),
    "clusters_unknown_name_id": ("clusters.tsv", "link", 2, lambda f: [f[0], "9999", *f[2:]]),
    "clusters_short_row": ("clusters.tsv", "link", None, lambda f: ["0"]),
    "unknown_synonym_id": ("synonyms.tsv", "cluster", 2, lambda f: [f[0], "9999", *f[2:]]),
    "synonym_mention_not_its_id": (
        "synonyms.tsv", "cluster", 2, lambda f: [*f[:2], "TOTALLY_OTHER", *f[3:]]
    ),
    "synonym_not_its_id": ("synonyms.tsv", "cluster", 2, lambda f: [*f[:3], "NAME", *f[4:]]),
    # Lone surrogates are written as the raw bytes they escape.
    "non_utf8_mention": ("mention2id.tsv", "synonyms", None, lambda f: ["caf\udce9", "9999"]),
    "non_utf8_synonym": ("synonyms.tsv", "cluster", 3, lambda f: f[:3] + ["\udcff", *f[4:]]),
    # mention2id.tsv line 7 is ANOVA with ID 5; line 6 is 2scikit-learn.
    "id_out_of_sequence": ("mention2id.tsv", "cluster", 7, lambda f: [f[0], "9999"]),
    "repeated_id": ("mention2id.tsv", "cluster", 7, lambda f: [f[0], "4"]),
    "repeated_mention": ("mention2id.tsv", "cluster", 7, lambda f: ["2scikit-learn", f[1]]),
    # A new mention, but one that sorts before line 6's.
    "mention_out_of_order": ("mention2id.tsv", "cluster", 7, lambda f: ["1ANOVA", f[1]]),
    # A negative ID must not wrap around to index the mention list from its end.
    "negative_synonym_id": ("synonyms.tsv", "cluster", 2, lambda f: [f[0], "-1", *f[2:]]),
    "negative_cluster_member": ("clusters.tsv", "link", 2, lambda f: [*f[:3], "-1", f[4]]),
    "repeated_frequency_mention": ("frequencies.tsv", "cluster", None, lambda f: ["(BLAST", "1"]),
    "negative_frequency": ("frequencies.tsv", "cluster", 2, lambda f: [f[0], "-7"]),
    # Member 0 is in cluster 0 already.
    "clusters_repeated_member": (
        "clusters.tsv", "link", None, lambda f: ["1", "183", "SPSS", "0", "(BLAST"]
    ),
    "clusters_disagree_on_name_id": (
        "clusters.tsv", "link", 3, lambda f: [f[0], "0", "(BLAST", *f[3:]]
    ),
    # Line 236 is the first row of cluster 6 and lists its name, MATLAB (109);
    # mention 2 is in no cluster.
    "clusters_name_id_not_a_member": (
        "clusters.tsv", "link", 236,
        lambda f: [*f[:3], "2", "(Statistical Package for Social Science)"],
    ),
    # Line 2 is member 0, (BLAST, of cluster 0, named BLAST (6).
    "clusters_name_not_its_mention": (
        "clusters.tsv", "link", 2, lambda f: [*f[:2], "NotBLAST", *f[3:]]
    ),
    "clusters_member_not_its_mention": ("clusters.tsv", "link", 2, lambda f: [*f[:4], "Whatever"]),
}


@pytest.mark.parametrize(
    "artifact, stage, lineno, edit", CORRUPT_ARTIFACTS.values(), ids=CORRUPT_ARTIFACTS.keys()
)
def test_corrupt_artifact_exits_2_naming_file_and_line(
    fixture_copy, caplog, capsys, artifact, stage, lineno, edit
):
    assert run_stage(fixture_copy, "run-all") == 0
    path = fixture_copy / "out" / artifact
    lines = path.read_text(encoding="utf-8").splitlines()
    if lineno is None:
        lines.append("\t".join(edit(None)))
        lineno = len(lines)
    else:
        lines[lineno - 1] = "\t".join(edit(lines[lineno - 1].split("\t")))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    caplog.clear()
    assert run_stage(fixture_copy, stage) == 2
    log = caplog.text + capsys.readouterr().err
    assert f"{path}: line {lineno}:" in log
    assert "Traceback" not in log


def assert_data_error_names(log: str, where: str) -> None:
    assert where in log
    assert "Traceback" not in log


def test_bad_corpus_row_names_file_and_line(fixture_copy, caplog, capsys):
    corpus = fixture_copy / "corpus.tsv"
    corrupt_corpus_number(corpus, 3)
    assert run_stage(fixture_copy, "ingest") == 2
    where = f"{corpus}: line 3: number is not an integer: 'three'"
    assert_data_error_names(caplog.text + capsys.readouterr().err, where)
    caplog.clear()
    assert run_stage(fixture_copy, "ingest", "--lenient") == 0
    assert f"skipped row: {corpus}: line 3: number" in caplog.text


@pytest.mark.parametrize("name", ["corpus.tsv", "corpus.tsv.gz"])
def test_non_utf8_corpus_names_file_and_line(fixture_copy, caplog, capsys, name):
    lines = (fixture_copy / "corpus.tsv").read_bytes().split(b"\n")
    lines[4] = lines[4].replace(b"\t", b"\xe9\t", 1)
    data = b"\n".join(lines)
    corpus = fixture_copy / name
    corpus.write_bytes(gzip.compress(data, mtime=0) if name.endswith(".gz") else data)
    assert run_stage(fixture_copy, "ingest", "--set", f"paths.corpus={corpus}") == 2
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{corpus}: line 5: not valid UTF-8")


BAD_EVALUATION_CSVS = {
    "empty": (b"", 1),
    "short_row": (b"source,link_label\nPyPI,correct\nCRAN\n", 3),
    "non_utf8": (b"source,link_label\nPyPI,caf\xe9\n", 2),
}


@pytest.mark.parametrize(
    "text, lineno", BAD_EVALUATION_CSVS.values(), ids=BAD_EVALUATION_CSVS.keys()
)
def test_bad_evaluation_csv_names_file_and_line(
    fixture_copy, tmp_path, caplog, capsys, text, lineno
):
    links = tmp_path / "links.csv"
    links.write_bytes(text)
    assert run_stage(fixture_copy, "evaluate", "--set", f"eval.linking={links}") == 2
    assert_data_error_names(caplog.text + capsys.readouterr().err, f"{links}: line {lineno}:")


UNKNOWN_EVALUATION_LABELS = {
    "synonyms": ("eval.synonyms", b"software_mention,synonym,label\nR,r,exact\nR,GNU R,maybe\n"),
    "curation": ("eval.curation_binary", b"mention,label\nR,software\nlimma,maybe\n"),
    "linking": ("eval.linking", b"source,link_label\nPyPI,correct\nPyPI,maybe\n"),
}


@pytest.mark.parametrize(
    "key, text", UNKNOWN_EVALUATION_LABELS.values(), ids=UNKNOWN_EVALUATION_LABELS.keys()
)
def test_unknown_evaluation_label_names_file_and_line(
    fixture_copy, tmp_path, caplog, capsys, key, text
):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(text)
    assert run_stage(fixture_copy, "evaluate", "--set", f"{key}={labels}") == 2
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{labels}: line 3: unknown")


# Files each reader accepts up to a missing column, or whose rows leave
# their metric undefined: (key, content, what follows the path in the error).
UNUSABLE_EVALUATION_FILES = {
    "curation_binary_header_only": ("eval.curation_binary", b"mention,label\n", "k must"),
    "curation_multi_header_only": ("eval.curation_multi", b"ID,mention,label\n", "k must"),
    "linking_header_only": ("eval.linking", b"source,link_label\n", "no labeled links"),
    "ratings_one_rater": (
        "eval.ratings_two", b"item,rater,label\na,r1,x\nb,r1,y\n", "need at least two items"
    ),
    "ratings_header_only": ("eval.ratings_five", b"item,rater,label\n", "no ratings"),
    "curation_no_mention_column": (
        "eval.curation_binary", b"name,label\nSPSS,software\n", "line 1: no mention column"
    ),
    "ratings_no_rater_column": (
        "eval.ratings_two", b"item,who,label\na,r1,x\n", "line 1: no rater column"
    ),
    "linking_oversized_field": (
        "eval.linking", b"source,link_label\nPyPI," + b"x" * 200_000 + b"\n",
        "line 2: field larger than field limit",
    ),
    "curation_oversized_header": (
        "eval.curation_binary", b"mention,label," + b"x" * 200_000 + b"\n", "line 1: field larger",
    ),
}


@pytest.mark.parametrize(
    "key, text, message",
    UNUSABLE_EVALUATION_FILES.values(),
    ids=UNUSABLE_EVALUATION_FILES.keys(),
)
def test_unusable_evaluation_file_exits_2_naming_it(
    fixture_copy, tmp_path, caplog, capsys, key, text, message
):
    path = tmp_path / "labels.csv"
    path.write_bytes(text)
    assert run_stage(fixture_copy, "evaluate", "--set", f"{key}={path}") == 2
    assert_data_error_names(caplog.text + capsys.readouterr().err, f"{path}: {message}")


def test_truncated_gzip_corpus_names_file(fixture_copy, caplog, capsys):
    data = gzip.compress((fixture_copy / "corpus.tsv").read_bytes(), mtime=0)
    corpus = fixture_copy / "corpus.tsv.gz"
    corpus.write_bytes(data[: len(data) // 2])
    assert run_stage(fixture_copy, "ingest", "--set", f"paths.corpus={corpus}") == 2
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{corpus}: line ")
    assert "truncated" in log
    assert not (fixture_copy / "out" / "mention2id.tsv").exists()


def _package_env() -> dict[str, str]:
    """The environment of a new interpreter that finds this package first."""
    package_root = str(Path(softmentions.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))


def _fresh_python(code: str, cwd: Path | None = None) -> str:
    """What ``code`` prints in a new interpreter, run in ``cwd``, that finds this package first."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_package_env(), cwd=cwd, capture_output=True,
        encoding="utf-8", check=True,
    )
    return proc.stdout.strip()


def test_cli_import_leaves_process_pool_and_http_client_unloaded():
    # Both are needed only by --workers > 1 and online fetches; importing
    # them costs every run tens of milliseconds.
    code = (
        "import sys, softmentions.cli; "
        "print([m for m in ('concurrent.futures.process', 'urllib.request') if m in sys.modules])"
    )
    assert _fresh_python(code) == "[]"


def test_cli_import_leaves_dataclasses_argparse_and_evaluation_unloaded():
    # No stage but evaluate runs them, and importing them took about a third
    # of each command's start-up. The baseline is taken in the new
    # interpreter, since site may load any module.
    code = (
        "import sys; before = set(sys.modules); import softmentions.cli; "
        "new = set(sys.modules) - before; "
        "print(sorted(new & {'dataclasses', 'argparse', 'softmentions.evaluation'})); "
        "from softmentions import synonym_prf, fleiss_kappa; "
        "print(synonym_prf.__module__, fleiss_kappa.__module__)"
    )
    assert _fresh_python(code).splitlines() == [
        "[]", "softmentions.evaluation softmentions.evaluation"
    ]


def test_package_imports_and_runs_on_the_standard_library_only(fixture_copy):
    # numpy and scipy are installed alongside, so an import of either would
    # go unnoticed until the package ran where they are not. The baseline is
    # taken in the new interpreter, since site may load third-party modules.
    code = (
        "import sys; before = set(sys.modules); "
        "import importlib, pkgutil, softmentions, softmentions.cli; "
        "[importlib.import_module(module.name) for module in "
        "pkgutil.iter_modules(softmentions.__path__, 'softmentions.')]; "
        "status = softmentions.cli.main(['run-all', '--config', 'config.cfg']); "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(status, sorted(loaded - set(sys.stdlib_module_names) - {'softmentions'}))"
    )
    assert _fresh_python(code, fixture_copy) == "0 []"


@pytest.mark.parametrize(
    "content", ['{"limma": ', '{"limma": "Bioconductor"}', "[]", '{"limma": {"Title": "\\ud800"}}']
)
def test_bad_registry_details_names_file(fixture_copy, caplog, capsys, content):
    details = fixture_copy / "details"
    details.mkdir()
    (details / "PkgIndexBioc.json").write_text(content, encoding="utf-8")
    assert run_stage(fixture_copy, "run-all", "--set", f"paths.registry_details={details}") == 2
    log = caplog.text + capsys.readouterr().err
    assert_data_error_names(log, f"{details / 'PkgIndexBioc.json'}: ")


def test_overlong_mentions_do_not_stop_linking(fixture_copy):
    corpus = fixture_copy / "corpus.tsv"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    long_names = ["x" * 251, "\u00e9" * 50]
    for name in long_names:
        fields = lines[1].split("\t")
        fields[header.index("software")] = name
        lines.append("\t".join(fields))
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_stage(fixture_copy, "run-all") == 0
    metadata = (fixture_copy / "out" / "metadata.tsv").read_text(encoding="utf-8")
    linked = {line.split("\t")[1] for line in metadata.splitlines()[1:]}
    assert linked and not linked & set(long_names)


def test_snapshot_string_utf8_cannot_encode_fails_only_its_lookup(fixture_copy, caplog):
    snapshot = fixture_copy / "snapshots" / "kb" / "GraphPad.json"
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    doc["Description"] = "bad \ud800 text"
    snapshot.write_text(json.dumps(doc), encoding="utf-8")  # json.dumps escapes the surrogate
    assert run_stage(fixture_copy, "run-all") == 0
    manifest = json.loads((fixture_copy / "out" / "manifest_link.json").read_text(encoding="utf-8"))
    assert manifest["row_counts"]["soft_errors"] == 1
    assert "bad snapshot GraphPad.json" in caplog.text


def test_snapshot_entry_that_is_a_directory_fails_only_its_lookup(fixture_copy, caplog):
    assert run_stage(fixture_copy, "run-all") == 0
    metadata = fixture_copy / "out" / "metadata.tsv"
    before = metadata.read_bytes()
    (fixture_copy / "snapshots" / "kb" / "limma.json").mkdir()
    assert run_stage(fixture_copy, "link") == 0
    manifest = json.loads((fixture_copy / "out" / "manifest_link.json").read_text(encoding="utf-8"))
    assert manifest["row_counts"]["soft_errors"] == 1
    assert "bad snapshot limma.json" in caplog.text
    # The package index still links limma, so the metadata is unchanged.
    assert metadata.read_bytes() == before


def test_tab_in_snapshot_field_is_a_data_error(fixture_copy, caplog):
    snapshot = fixture_copy / "snapshots" / "kb" / "GraphPad.json"
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    doc["Resource ID Link"] = "https://scicrunch.org/resolver/\tSCR_002798"
    snapshot.write_text(json.dumps(doc), encoding="utf-8")
    assert run_stage(fixture_copy, "run-all") == 2
    assert "metadata.tsv" in caplog.text
    assert "'package_url'" in caplog.text


def test_matrix_dump_flag(fixture_copy):
    assert run_stage(fixture_copy, "ingest") == 0
    assert run_stage(fixture_copy, "synonyms") == 0
    assert run_stage(fixture_copy, "cluster", "--set", "output.matrix=true") == 0
    matrix = fixture_copy / "out" / "matrix.tsv"
    assert matrix.exists()
    header = matrix.read_text(encoding="utf-8").splitlines()[0]
    assert header == "i\tj\tvalue\tsource"


def test_manifest_digests_stable_and_config_sensitive(fixture_copy):
    assert run_stage(fixture_copy, "ingest") == 0
    first = (fixture_copy / "out" / "manifest_ingest.json").read_bytes()
    assert run_stage(fixture_copy, "ingest") == 0
    assert (fixture_copy / "out" / "manifest_ingest.json").read_bytes() == first
    assert run_stage(fixture_copy, "ingest", "--set", "thresholds.use=0.98") == 0
    assert (fixture_copy / "out" / "manifest_ingest.json").read_bytes() != first


def test_workers_flag_does_not_change_synonyms_output(fixture_copy, tmp_path):
    assert run_stage(fixture_copy, "ingest") == 0
    assert run_stage(fixture_copy, "synonyms") == 0
    serial = (fixture_copy / "out" / "synonyms.tsv").read_bytes()
    assert run_stage(fixture_copy, "synonyms", "--workers", "2") == 0
    parallel = (fixture_copy / "out" / "synonyms.tsv").read_bytes()
    assert serial == parallel


def serve_live_lookups(fixture_copy: Path, monkeypatch, clock) -> tuple[list, dict, tuple]:
    """Answer live fetches in place of the network, and the settings that fetch into kb_live/.

    The fixture's knowledge-base documents are the live answers; every other
    name is a 404, and every code-host search finds nothing. Returns the
    request log of (source, clock time, Authorization header), the canned
    documents and the settings.
    """
    import urllib.error
    import urllib.parse
    import urllib.request

    canned = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in (fixture_copy / "snapshots" / "kb").glob("*.json")
    }
    requests = []

    def urlopen(request, timeout):
        url = request.full_url
        source = "kb" if url.startswith("https://kb.example/") else "codehost"
        requests.append((source, clock.now, request.get_header("Authorization")))
        if source == "codehost":
            return io.BytesIO(b'{"items": []}')
        name = urllib.parse.unquote(url.rpartition("/")[2])
        if name not in canned:
            raise urllib.error.HTTPError(url, 404, "Not Found", None, None)
        return io.BytesIO(json.dumps({"data": canned[name]}).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    kb_dir = fixture_copy / "kb_live"
    kb_dir.mkdir()
    kb = (
        "--set", f"paths.kb_snapshots={kb_dir}",
        "--set", "linking.kb_api_url=https://kb.example/resolve/{name}",
    )
    return requests, canned, kb


def test_online_link_paces_fetches_and_leaves_the_snapshot_an_offline_rerun_reads(
    fixture_copy, monkeypatch, clock
):
    requests, canned, kb = serve_live_lookups(fixture_copy, monkeypatch, clock)
    monkeypatch.setenv("SOFTMENTIONS_KB_TOKEN", "kb-token")
    monkeypatch.setenv("SOFTMENTIONS_CODEHOST_TOKEN", "host-token")
    kb_dir = fixture_copy / "kb_live"
    assert run_stage(fixture_copy, "run-all", *kb) == 0
    assert requests == []
    assert run_stage(fixture_copy, "link", "--online", *kb) == 0
    for source, token, interval in (("kb", "kb-token", 1.0), ("codehost", "host-token", 2.0)):
        sent = [(at, header) for name, at, header in requests if name == source]
        assert len(sent) > 100
        assert {header for _, header in sent} == {f"Bearer {token}"}
        assert min(b - a for (a, _), (b, _) in zip(sent, sent[1:])) >= interval
    written = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in kb_dir.iterdir()}
    # Each 404 is written as null.
    assert {name: doc for name, doc in written.items() if doc is not None} == canned
    assert len(written) > len(canned)
    online = (fixture_copy / "out" / "metadata.tsv").read_bytes()
    assert b"\tKnowledgeBaseAPI\t" in online
    fetched = len(requests)
    for mode in ("--offline", "--online"):
        assert run_stage(fixture_copy, "link", mode, *kb) == 0
        assert len(requests) == fetched, mode
        assert (fixture_copy / "out" / "metadata.tsv").read_bytes() == online


def test_online_link_writes_the_snapshot_of_a_long_mention(fixture_copy, monkeypatch, clock):
    # Its documents are named by 245 bytes, under the file system's 255.
    name = "a" * 240
    corpus = fixture_copy / "corpus.tsv"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    line = next(line for line in lines if "\tGraPhPad\t" in line)
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write(line.replace("\tGraPhPad\t", f"\t{name}\t") + "\n")
    requests, _, kb = serve_live_lookups(fixture_copy, monkeypatch, clock)
    assert run_stage(fixture_copy, "run-all", *kb) == 0
    assert run_stage(fixture_copy, "link", "--online", *kb) == 0
    assert (fixture_copy / "kb_live" / f"{name}.json").read_text(encoding="utf-8") == "null"
    assert (fixture_copy / "snapshots" / "codehost" / f"{name}.json").exists()
    assert not list(fixture_copy.rglob("*.tmp"))


def test_online_link_counts_a_malformed_code_host_answer_as_a_soft_error(
    fixture_copy, monkeypatch, clock
):
    import urllib.request

    requests, _, kb = serve_live_lookups(fixture_copy, monkeypatch, clock)
    serve = urllib.request.urlopen

    def urlopen(request, timeout):
        if request.full_url.startswith("https://api.github.com/"):
            requests.append(("codehost", clock.now, None))
            return io.BytesIO(b'{"items": null}')
        return serve(request, timeout)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    assert run_stage(fixture_copy, "run-all", *kb) == 0
    assert run_stage(fixture_copy, "link", "--online", *kb) == 0
    manifest = json.loads((fixture_copy / "out" / "manifest_link.json").read_text(encoding="utf-8"))
    assert manifest["row_counts"]["soft_errors"] == 1
    assert [source for source, _, _ in requests].count("codehost") == 1


def test_online_link_asks_an_unreachable_service_once(fixture_copy, monkeypatch, clock):
    import urllib.error
    import urllib.request

    _, _, kb = serve_live_lookups(fixture_copy, monkeypatch, clock)
    requests = []

    def urlopen(request, timeout):
        requests.append(request.full_url)
        raise urllib.error.URLError("no route to host")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    metadata = fixture_copy / "out" / "metadata.tsv"
    assert run_stage(fixture_copy, "run-all", "--offline", *kb) == 0
    offline = metadata.read_bytes()
    start = clock.now
    assert run_stage(fixture_copy, "link", "--online", *kb) == 0
    # One request to each live source, and no pacing sleep after it.
    assert sorted(url.split("/")[2] for url in requests) == ["api.github.com", "kb.example"]
    assert clock.now == start
    manifest = json.loads((fixture_copy / "out" / "manifest_link.json").read_text(encoding="utf-8"))
    assert manifest["row_counts"]["soft_errors"] == 2
    assert metadata.read_bytes() == offline


def test_live_link_removes_a_killed_runs_temporary_file_and_offline_link_writes_nothing(
    fixture_copy, monkeypatch, clock
):
    requests, _, kb = serve_live_lookups(fixture_copy, monkeypatch, clock)
    assert run_stage(fixture_copy, "run-all", *kb) == 0
    # What a live run killed at a snapshot write leaves behind.
    temporary = fixture_copy / "kb_live" / ".4242.tmp"
    temporary.write_text('{"da', encoding="utf-8")
    snapshots = (fixture_copy / "kb_live", fixture_copy / "snapshots")
    before = [output_files(directory) for directory in snapshots]
    assert run_stage(fixture_copy, "link", "--offline", *kb) == 0
    assert requests == []
    assert [output_files(directory) for directory in snapshots] == before
    assert run_stage(fixture_copy, "link", "--online", *kb) == 0
    assert requests and not temporary.exists()


def test_live_link_looks_up_what_an_offline_rerun_over_its_snapshot_does(
    fixture_copy, monkeypatch, clock
):
    from softmentions import linking

    requests, _, kb = serve_live_lookups(fixture_copy, monkeypatch, clock)
    assert run_stage(fixture_copy, "run-all", *kb) == 0
    asked = []
    for cls in (linking.RegistrySnapshot, linking.ApiSnapshot):
        def lookup(self, name, original=cls.lookup):
            asked.append((self.source, name))
            return original(self, name)

        monkeypatch.setattr(cls, "lookup", lookup)
    runs = {}
    for mode in ("--online", "--offline"):
        asked.clear()
        assert run_stage(fixture_copy, "link", mode, *kb) == 0
        runs[mode] = (list(asked), (fixture_copy / "out" / "metadata.tsv").read_bytes())
    assert requests
    assert LinkSource.KNOWLEDGE_BASE in {source for source, _ in runs["--online"][0]}
    assert runs["--online"] == runs["--offline"]


def test_link_sources_follow_configured_precedence(fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    cfg = load_config("config.cfg")
    # By default the curated indices rank first and the code host last.
    assert list(build_link_sources(cfg, cli.Products(cfg).names, set().add)) == [
        LinkSource.PKG_INDEX_BIOC,
        LinkSource.PKG_INDEX_R,
        LinkSource.PKG_INDEX_PY,
        LinkSource.KNOWLEDGE_BASE,
        LinkSource.CODE_HOST,
    ]
    cfg = apply_settings(cfg, {"linking.precedence": "CodeHostAPI,PkgIndexPy,KnowledgeBaseAPI"})
    assert list(build_link_sources(cfg, cli.Products(cfg).names, set().add)) == [
        LinkSource.CODE_HOST,
        LinkSource.PKG_INDEX_PY,
        LinkSource.KNOWLEDGE_BASE,
    ]


def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(
        "# comment\nthresholds.use = 0.98\ndbscan.min_pts = 3\n"
        "linking.offline = false\nlinking.precedence = PkgIndexPy,CodeHostAPI\n"
        # Only \n, \r\n and \r end a line, not the other breaks str.splitlines knows.
        "paths.corpus = a\x0bb\x85c\u2028d\n",
        encoding="utf-8",
    )
    cfg = load_config(cfg_path)
    assert cfg.corpus == "a\x0bb\x85c\u2028d"
    assert cfg.use_threshold == 0.98
    assert cfg.min_pts == 3
    assert cfg.offline is False
    assert cfg.precedence == ("PkgIndexPy", "CodeHostAPI")
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        load_config(bad)


# A --config file the pipeline cannot use: (its content, None for no file
# or "dir" for a directory, and what follows the path in the error).
BAD_CONFIG_FILES = {
    "missing": (None, ": cannot read configuration file"),
    "directory": ("dir", ": cannot read configuration file"),
    "non_utf8": (b"dbscan.eps = 0.03\n# caf\xe9\n", ":2: not valid UTF-8"),
    "unknown_key": (b"dbscan.min_pts = 2\ndbscan.epz = 0.1\n", ":2: unknown configuration key"),
    "form_feed_line_count": (
        b"# page\x0c\ndbscan.eps = 0.03\r\n\rdbscan.epz = 0.1\n", ":4: unknown configuration key"
    ),
    "carriage_return_line_count": (
        b"paths.out_dir = o\rdbscan.eps = \xe9\n", ":2: not valid UTF-8"
    ),
    "bad_value": (b"# wide\n\ndbscan.eps = wide\n", ":3: dbscan.eps: expected a number"),
    "no_equals_sign": (b"dbscan.eps = 0.03\njust words\n", ":2: expected key = value"),
}


@pytest.mark.parametrize(
    "content, message", BAD_CONFIG_FILES.values(), ids=BAD_CONFIG_FILES.keys()
)
def test_unusable_config_file_exits_1_naming_it(tmp_path, caplog, capsys, content, message):
    path = tmp_path / "k.cfg"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert run_cli("ingest", "--config", str(path)) == 1
    log = caplog.text + capsys.readouterr().err
    assert f"configuration error: {path}{message}" in log
    assert "Traceback" not in log


# A valid file and flags whose values break a validation rule: (the
# --config file's content, further arguments, the message after
# "configuration error: " with {path} for the file).
KB_API_URL_RULE = "linking.kb_api_url must be an http(s) URL whose only field is {{name}}"
INVALID_SETTINGS = {
    "file": ("dbscan.eps = 0\n", (), "{path}:1: dbscan.eps must be positive"),
    "set_flag": ("", ("--set", "dbscan.eps=0"), "--set dbscan.eps=0: dbscan.eps must be positive"),
    "set_wins_over_file": (
        "# eps\ndbscan.eps = 0.03\n", ("--set", "dbscan.eps=-1"),
        "--set dbscan.eps=-1: dbscan.eps must be positive",
    ),
    "nan_eps": (
        "", ("--set", "dbscan.eps=nan"), "--set dbscan.eps=nan: dbscan.eps must be positive"
    ),
    "kb_api_url_without_scheme": (
        "", ("--set", "linking.kb_api_url=example.org/{name}"),
        "--set linking.kb_api_url=example.org/{{name}}: " + KB_API_URL_RULE,
    ),
    "kb_api_url_other_field": (
        "linking.kb_api_url = https://kb.example/{nme}\n", (), "{path}:1: " + KB_API_URL_RULE,
    ),
    "kb_api_url_lone_brace": (
        "", ("--set", "linking.kb_api_url=https://kb.example/{name"),
        "--set linking.kb_api_url=https://kb.example/{{name: " + KB_API_URL_RULE,
    ),
    "workers_flag": ("", ("--workers", "0"), "--workers 0: parallelism.workers must be at least 1"),
    "cross_key": (
        "\nthresholds.use = 0.95\n", ("--set", "thresholds.record=0.96"),
        "{path}:2, --set thresholds.record=0.96: "
        "thresholds.use (0.95) must lie in [thresholds.record (0.96), 1]",
    ),
    "cross_key_one_set": (
        "thresholds.record = 0.98\n", (),
        "{path}:1: thresholds.use (0.97) must lie in [thresholds.record (0.98), 1]",
    ),
}


@pytest.mark.parametrize(
    "content, extra, message", INVALID_SETTINGS.values(), ids=INVALID_SETTINGS.keys()
)
def test_invalid_value_names_where_it_was_set(tmp_path, caplog, capsys, content, extra, message):
    path = tmp_path / "k.cfg"
    path.write_text(content, encoding="utf-8")
    assert run_cli("ingest", "--config", str(path), *extra) == 1
    log = caplog.text + capsys.readouterr().err
    assert f"configuration error: {message.format(path=path)}\n" in log
    assert "Traceback" not in log


def test_config_validation_rules():
    cfg = PipelineConfig()
    cfg.validate()
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"thresholds.record": "0"}).validate()
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"thresholds.use": "0.5"}).validate()  # below record
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"dbscan.min_pts": "0"}).validate()
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"parallelism.workers": "0"}).validate()
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"corpus.kind": "weird"}).validate()
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"linking.precedence": "NotASource"}).validate()
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"dbscan.min_pts": "two"})
    with pytest.raises(ValidationError):
        apply_settings(cfg, {"linking.offline": "perhaps"})


def test_bad_set_flag_is_a_validation_error(fixture_copy):
    assert run_stage(fixture_copy, "ingest", "--set", "noequalsign") == 1


def test_lenient_flag_skips_bad_rows(fixture_copy):
    corpus = fixture_copy / "corpus.tsv"
    with open(corpus, "a", encoding="utf-8") as fh:
        fh.write("short\trow\n")
    assert run_stage(fixture_copy, "ingest") == 2
    assert run_stage(fixture_copy, "ingest", "--lenient") == 0


# Each file the mutation fuzz edits, and the first stage that reads it.
FUZZ_FILES = {
    "corpus.tsv": "ingest",
    "registry_py.txt": "synonyms",
    "registry_r.txt": "synonyms",
    "registry_bioc.txt": "synonyms",
    "kb_synonyms.tsv": "synonyms",
    "out/mention2id.tsv": "synonyms",
    "stoplist.txt": "cluster",
    "out/frequencies.tsv": "cluster",
    "out/synonyms.tsv": "cluster",
    "out/manifest_ingest.json": "synonyms",
    "out/manifest_synonyms.json": "cluster",
    "out/manifest_cluster.json": "link",
    "snapshots/kb/BLAST.json": "link",
    "snapshots/codehost/Bowtie.json": "link",
    "out/clusters.tsv": "link",
}
# A bit flip, an inserted byte, a line deleted, duplicated or swapped with another, truncation.
EDITS = ("flip", b"\t", b"\r", b"\xe9", b"\x00", "delete", "duplicate", "swap", "truncate")


def mutate(data: bytes, edit, i: int, j: int) -> bytes:
    """``data`` with one ``edit`` at the byte or line that ``i`` (and ``j``) pick."""
    if edit == "flip":
        i %= len(data)
        return data[:i] + bytes([data[i] ^ 1 << j % 8]) + data[i + 1:]
    if isinstance(edit, bytes):
        i %= len(data) + 1
        return data[:i] + edit + data[i:]
    if edit == "truncate":
        return data[:i % len(data)]
    lines = data.splitlines(keepends=True)
    i, j = i % len(lines), j % len(lines)
    if edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory) -> Path:
    """A copy of the fixture after run-all, which each fuzz example copies again."""
    base = tmp_path_factory.mktemp("fuzz") / "fixture"
    shutil.copytree(FIXTURE_DIR, base)
    assert run_stage(base, "run-all") == 0
    return base


# Three quarters of the profile's examples keep the default run near 5 s;
# the ci profile runs ten times as many.
@settings(
    max_examples=settings.default.max_examples * 3 // 4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(sorted(FUZZ_FILES)),
    edit=st.sampled_from(EDITS),
    i=st.integers(0, 1 << 20),
    j=st.integers(0, 1 << 20),
)
def test_single_file_edit_exits_0_or_2_naming_the_file(fuzz_base, name, edit, i, j):
    # The stage that first reads the edited file runs, then each later one, as
    # in a rerun. Once a stage exits 2 the artifacts disagree with each other,
    # so only the first exit 2 must name the edited file.
    log = io.StringIO()
    handler = logging.StreamHandler(log)
    logger = logging.getLogger("softmentions")
    logger.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory(dir=fuzz_base.parent) as scratch:
            tree = Path(scratch) / "fixture"
            shutil.copytree(fuzz_base, tree)
            path = tree / name
            path.write_bytes(mutate(path.read_bytes(), edit, i, j))
            named = False
            for stage in STAGES[STAGES.index(FUZZ_FILES[name]):]:
                code = run_stage(tree, stage)
                assert code in (0, 2), log.getvalue()
                assert "Traceback" not in log.getvalue()
                if code == 2 and not named:
                    assert str(path) in log.getvalue(), log.getvalue()
                    named = True
    finally:
        logger.removeHandler(handler)
