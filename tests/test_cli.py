import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import softmentions
from softmentions import cli
from softmentions.cli import build_link_sources, main
from softmentions.config import PipelineConfig, apply_settings, load_config
from softmentions.errors import ValidationError
from softmentions.linking import LinkSource

from conftest import DATA_DIR


def run_cli(*argv) -> int:
    return main(list(argv))


def run_stage(fixture_copy: Path, stage: str, *extra) -> int:
    return run_cli(
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
    )


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


def test_stages_run_separately_match_run_all(fixture_copy):
    # run-all hands values from stage to stage; alone, each stage reads
    # them back from out/. Both ways must write the same bytes everywhere,
    # manifests included, so the stages run in the same directory.
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    expected = output_files(out)
    out.rename(fixture_copy / "out_run_all")
    for stage in ("ingest", "synonyms", "cluster", "link"):
        assert run_stage(fixture_copy, stage) == 0
    found = output_files(out)
    assert sorted(found) == sorted(expected)
    for name, data in expected.items():
        assert found[name] == data, name


def test_run_all_over_crlf_corpus_writes_the_same_outputs(fixture_copy):
    # CRLF line ends send every chunk of the corpus through the per-line
    # parser; the LF corpus takes the bulk one.
    assert run_stage(fixture_copy, "run-all") == 0
    out = fixture_copy / "out"
    lf = output_files(out)
    shutil.rmtree(out)
    corpus = fixture_copy / "corpus.tsv"
    corpus.write_bytes(corpus.read_bytes().replace(b"\n", b"\r\n"))
    assert run_stage(fixture_copy, "run-all") == 0
    crlf = output_files(out)
    for name in ("disambiguated.tsv", "clusters.tsv", "synonyms.tsv", "metadata.tsv"):
        assert crlf[name] == lf[name], name


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


def pinned_digest_mismatches(
    out: Path, echoed_workers: str = "1", pins: Path = FIXTURE_DIGESTS
) -> list[str]:
    """Files under out/ whose digest differs from (or is missing in) ``pins``.

    Manifests echo the configuration, so with ``echoed_workers`` other than
    1 their worker count is set back to 1 before hashing.
    """
    expected = {}
    for line in pins.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        expected[name] = digest
    found = {}
    for name, data in output_files(out).items():
        if echoed_workers != "1" and name.startswith("manifest_"):
            echoed = f'"parallelism.workers": "{echoed_workers}"'.encode()
            assert echoed in data, name
            data = data.replace(echoed, b'"parallelism.workers": "1"')
        found[name] = hashlib.sha256(data).hexdigest()
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
    assert_data_error_names(log, f"{corpus}: line {len(lines)}: unknown mention 'BrandNewTool'")
    assert str(fixture_copy / "out" / "mention2id.tsv") in log
    assert not (fixture_copy / "out" / "disambiguated.tsv").exists()


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
    # Lone surrogates are written as the raw bytes they escape.
    "non_utf8_mention": ("mention2id.tsv", "synonyms", None, lambda f: ["caf\udce9", "9999"]),
    "non_utf8_synonym": ("synonyms.tsv", "cluster", 3, lambda f: f[:3] + ["\udcff", *f[4:]]),
    # mention2id.tsv line 7 is ANOVA with ID 5; line 6 is 2scikit-learn.
    "id_out_of_sequence": ("mention2id.tsv", "cluster", 7, lambda f: [f[0], "9999"]),
    "repeated_id": ("mention2id.tsv", "cluster", 7, lambda f: [f[0], "4"]),
    "repeated_mention": ("mention2id.tsv", "cluster", 7, lambda f: ["2scikit-learn", f[1]]),
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


def _fresh_python(code: str) -> str:
    """What ``code`` prints in a new interpreter that finds this package first."""
    package_root = str(Path(softmentions.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True
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


def test_cli_import_loads_the_standard_library_only():
    # numpy and scipy are installed alongside, so an import of either would
    # go unnoticed until the package ran where they are not.
    code = (
        "import sys; before = set(sys.modules); import softmentions.cli; "
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'softmentions'}))"
    )
    assert _fresh_python(code) == "[]"


@pytest.mark.parametrize("content", ['{"limma": ', '{"limma": "Bioconductor"}', "[]"])
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


def test_link_sources_follow_configured_precedence(fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    cfg = load_config("config.cfg")
    # By default the curated indices rank first and the code host last.
    assert list(build_link_sources(cfg, cli.Products(cfg).names)) == [
        LinkSource.PKG_INDEX_BIOC,
        LinkSource.PKG_INDEX_R,
        LinkSource.PKG_INDEX_PY,
        LinkSource.KNOWLEDGE_BASE,
        LinkSource.CODE_HOST,
    ]
    cfg = apply_settings(cfg, {"linking.precedence": "CodeHostAPI,PkgIndexPy,KnowledgeBaseAPI"})
    assert list(build_link_sources(cfg, cli.Products(cfg).names)) == [
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
INVALID_SETTINGS = {
    "file": ("dbscan.eps = 0\n", (), "{path}:1: dbscan.eps must be positive"),
    "set_flag": ("", ("--set", "dbscan.eps=0"), "--set dbscan.eps=0: dbscan.eps must be positive"),
    "set_wins_over_file": (
        "# eps\ndbscan.eps = 0.03\n", ("--set", "dbscan.eps=-1"),
        "--set dbscan.eps=-1: dbscan.eps must be positive",
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
