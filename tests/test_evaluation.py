import gzip
import random
import re

import pytest
from hypothesis import given, strategies as st

from softmentions.errors import FormatError
from softmentions.evaluation import (
    CURATION_NOT_SOFTWARE,
    CURATION_SOFTWARE,
    CURATION_UNCLEAR,
    CurationLabelRow,
    SynonymLabel,
    SynonymVerdict,
    fleiss_kappa,
    krippendorff_alpha,
    link_eval_summary,
    parse_curation_label,
    parse_verdict,
    precision_at_k,
    ratings_to_matrix,
    read_curation_rows,
    read_link_eval,
    read_predicted_pairs,
    read_ratings_csv,
    read_synonym_labels,
    synonym_prf,
)

from oracles import alpha_reference, fleiss_reference

# Expected values computed with the pairwise-counting oracles in
# tests/oracles.py and frozen here.
FLEISS_FIXTURES = [
    ([[0, 0, 0, 0, 14], [0, 2, 6, 4, 2], [0, 0, 3, 5, 6], [0, 3, 9, 2, 0],
      [2, 2, 8, 1, 1], [7, 7, 0, 0, 0], [3, 2, 6, 3, 0], [2, 5, 3, 2, 2],
      [6, 5, 2, 1, 0], [0, 2, 2, 3, 7]], 0.20993070442195522),
    ([[3, 0], [0, 3], [2, 1], [1, 2], [3, 0]], 0.44444444444444453),
    ([[4, 0], [0, 4], [4, 0], [0, 4]], 1.0),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 0], [0, 1, 1], [1, 0, 1]], 0.25),
    ([[1, 1], [1, 1], [1, 1]], -1.0),
]

A, B, C = "a", "b", "c"
ALPHA_FIXTURES = [
    ([[A, B, A, C], [A, B, A, C], [A, B, A, C], [A, B, A, C]], 1.0),
    ([[A, A, B, B], [A, A, B, B], [A, B, B, None]], 0.6666666666666666),
    ([[A, A, B, B, None, C, C, A],
      [A, A, B, B, B, C, C, None],
      [None, A, B, B, B, C, None, A]], 1.0),
    ([[A, B, A, B], [B, A, B, A]], -0.75),
    ([[A, A, B, B, C], [A, A, B, C, C]], 0.7272727272727273),
]


def labeled(mention, synonym, verdict):
    return SynonymLabel(mention=mention, synonym=synonym, label=verdict)


def _ten_pair_fixture():
    rows = [
        labeled("ImageJ", "Image J", SynonymVerdict.EXACT),
        labeled("ImageJ", "ImageJ2", SynonymVerdict.NARROW),
        labeled("SPSS", "spss20", SynonymVerdict.NARROW),
        labeled("SPSS", "Statistical Package", SynonymVerdict.EXACT),
        labeled("BLAST", "Blast", SynonymVerdict.EXACT),
        labeled("BLAST", "ballast", SynonymVerdict.NOT_SYNONYM),
        labeled("Cluster", "ClusterM", SynonymVerdict.NOT_SYNONYM),
        labeled("MATLAB", "matlab!", SynonymVerdict.EXACT),
        labeled("GitHub", "github", SynonymVerdict.NOT_SOFTWARE),
        labeled("R", "random", SynonymVerdict.UNCLEAR),
    ]
    # hand-enumerated confusion: predicted hits 3 true pairs, 1 not-synonym,
    # 1 unclear (excluded); true set has 6 pairs so 3 are missed
    predicted = [
        ("ImageJ", "Image J"),
        ("SPSS", "Statistical Package"),
        ("BLAST", "Blast"),
        ("BLAST", "ballast"),
        ("R", "random"),
    ]
    return rows, predicted


def test_prf_perfect_prediction():
    rows, _ = _ten_pair_fixture()
    true_pairs = [
        (r.mention, r.synonym)
        for r in rows
        if r.label in (SynonymVerdict.EXACT, SynonymVerdict.NARROW)
    ]
    result = synonym_prf(true_pairs, rows)
    assert result.precision == 1.0 and result.recall == 1.0 and result.f1 == 1.0


def test_prf_hand_enumerated_confusion():
    rows, predicted = _ten_pair_fixture()
    result = synonym_prf(predicted, rows)
    assert (result.tp, result.fp, result.fn) == (3, 1, 3)
    assert result.precision == pytest.approx(0.75)
    assert result.recall == pytest.approx(0.5)
    assert result.f1 == pytest.approx(0.6)


def test_prf_pair_order_does_not_matter():
    rows, _ = _ten_pair_fixture()
    result = synonym_prf([("Image J", "ImageJ")], rows)
    assert result.tp == 1


def test_prf_undefined_denominators_are_none():
    rows = [labeled("a", "b", SynonymVerdict.UNCLEAR)]
    result = synonym_prf([], rows)
    assert result.precision is None and result.recall is None and result.f1 is None
    only_negative = [labeled("a", "b", SynonymVerdict.NOT_SYNONYM)]
    result = synonym_prf([], only_negative)
    assert result.precision is None and result.recall is None


def test_prf_reproduces_reference_confusion_counts():
    # composition of the reference curated pair set: 3147 + 1094 true pairs,
    # 668 not-synonym, 45 unclear, 930 not-software; a prediction hitting
    # 2367 true pairs and 114 negatives lands on the reference metrics
    rows = []
    for i in range(3147):
        rows.append(labeled(f"m{i}", f"s{i}", SynonymVerdict.EXACT))
    for i in range(3147, 4241):
        rows.append(labeled(f"m{i}", f"s{i}", SynonymVerdict.NARROW))
    for i in range(4241, 4909):
        rows.append(labeled(f"m{i}", f"s{i}", SynonymVerdict.NOT_SYNONYM))
    for i in range(4909, 4954):
        rows.append(labeled(f"m{i}", f"s{i}", SynonymVerdict.UNCLEAR))
    for i in range(4954, 5884):
        rows.append(labeled(f"m{i}", f"s{i}", SynonymVerdict.NOT_SOFTWARE))
    assert len(rows) == 5884
    predicted = [(f"m{i}", f"s{i}") for i in range(2367)]
    predicted += [(f"m{i}", f"s{i}") for i in range(4241, 4355)]
    result = synonym_prf(predicted, rows)
    assert result.precision == pytest.approx(0.954, abs=0.005)
    assert result.recall == pytest.approx(0.558, abs=0.005)
    assert result.f1 == pytest.approx(0.704, abs=0.005)


@given(st.integers(1, 200), st.integers(0, 200), st.integers(0, 200))
def test_prf_f1_is_harmonic_mean(tp, fp, fn):
    rows = []
    predicted = []
    for i in range(tp):
        rows.append(labeled(f"t{i}", "x", SynonymVerdict.EXACT))
        predicted.append((f"t{i}", "x"))
    for i in range(fp):
        rows.append(labeled(f"f{i}", "x", SynonymVerdict.NOT_SYNONYM))
        predicted.append((f"f{i}", "x"))
    for i in range(fn):
        rows.append(labeled(f"n{i}", "x", SynonymVerdict.EXACT))
    result = synonym_prf(predicted, rows)
    expected_f1 = 2 * result.precision * result.recall / (result.precision + result.recall)
    assert result.f1 == pytest.approx(expected_f1, abs=1e-9)


def crow(label, mention="m"):
    return CurationLabelRow(mention=mention, label=label)


def test_precision_at_k_reproduces_reference_shares():
    top1k = (
        [crow(CURATION_SOFTWARE)] * 795
        + [crow(CURATION_NOT_SOFTWARE)] * 165
        + [crow(CURATION_UNCLEAR)] * 40
    )
    shares = precision_at_k(top1k, 1000)
    assert shares == {"software": 79.5, "not_software": 16.5, "unclear": 4.0}
    top10k = (
        [crow(CURATION_SOFTWARE)] * 6966
        + [crow(CURATION_NOT_SOFTWARE)] * 2155
        + [crow(CURATION_UNCLEAR)] * 879
    )
    shares = precision_at_k(top10k, 10000)
    assert shares["software"] == pytest.approx(69.66)
    assert shares["not_software"] == pytest.approx(21.55)
    assert shares["unclear"] == pytest.approx(8.79)


def test_precision_at_k_all_software_and_validation():
    rows = [crow(CURATION_SOFTWARE)] * 5
    assert precision_at_k(rows, 5) == {"software": 100.0, "not_software": 0.0, "unclear": 0.0}
    with pytest.raises(ValueError):
        precision_at_k(rows, 0)
    with pytest.raises(ValueError):
        precision_at_k(rows, 6)


@given(st.lists(st.sampled_from([CURATION_SOFTWARE, CURATION_NOT_SOFTWARE, CURATION_UNCLEAR]),
                min_size=1, max_size=50))
def test_precision_at_k_shares_sum_to_100(labels):
    shares = precision_at_k([crow(l) for l in labels], len(labels))
    assert sum(shares.values()) == pytest.approx(100.0)


def test_curation_label_parsing():
    assert parse_curation_label("software&algorithm") == CURATION_SOFTWARE
    assert parse_curation_label("Not_Software") == CURATION_NOT_SOFTWARE
    assert parse_curation_label(" unclear ") == CURATION_UNCLEAR
    with pytest.raises(FormatError):
        parse_curation_label("banana")


@pytest.mark.parametrize("matrix,expected", FLEISS_FIXTURES)
def test_fleiss_kappa_hand_fixtures(matrix, expected):
    assert fleiss_kappa(matrix) == pytest.approx(expected, abs=1e-9)
    assert fleiss_reference(matrix) == pytest.approx(expected, abs=1e-9)


def test_fleiss_kappa_perfect_agreement_is_one():
    assert fleiss_kappa([[3, 0], [0, 3], [3, 0]]) == pytest.approx(1.0)


def test_fleiss_kappa_degenerate_and_invalid():
    assert fleiss_kappa([[4, 0], [4, 0]]) is None  # all mass in one category
    with pytest.raises(ValueError):
        fleiss_kappa([])
    with pytest.raises(ValueError):
        fleiss_kappa([[2, 0], [1, 0]])  # inconsistent rater counts
    with pytest.raises(ValueError):
        fleiss_kappa([[1, 0]])  # single rater
    with pytest.raises(ValueError, match="negative rating count"):
        fleiss_kappa([[3, -1], [2, 0]])


@pytest.mark.parametrize("grid,expected", ALPHA_FIXTURES)
def test_krippendorff_alpha_hand_fixtures(grid, expected):
    assert krippendorff_alpha(grid) == pytest.approx(expected, abs=1e-9)
    assert alpha_reference(grid) == pytest.approx(expected, abs=1e-9)


def test_krippendorff_alpha_degenerate_and_invalid():
    assert krippendorff_alpha([[A, A], [A, A]]) is None  # no label variation
    with pytest.raises(ValueError):
        krippendorff_alpha([])
    with pytest.raises(ValueError):
        krippendorff_alpha([[A, None], [None, A]])  # nothing pairable
    with pytest.raises(ValueError, match="same item list"):
        krippendorff_alpha([[A, A], [A]])


@given(st.lists(st.lists(st.sampled_from([0, 1, 2]), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_agreement_statistics_never_exceed_one(ratings):
    grid = [list(r) for r in ratings]
    alpha = krippendorff_alpha(grid)
    matrix = ratings_to_matrix(grid, [0, 1, 2])
    kappa = fleiss_kappa(matrix)
    if alpha is not None:
        assert alpha <= 1.0 + 1e-12
    if kappa is not None:
        assert kappa <= 1.0 + 1e-12


def test_two_category_matrix_equals_summed_five_category_matrix():
    rng = random.Random(8)
    five = ["software", "algorithm", "database", "web platform", "hardware"]
    collapse = {"software": "software", "algorithm": "software",
                "database": "not_software", "web platform": "not_software",
                "hardware": "not_software"}
    ratings5 = [[rng.choice(five) for _ in range(20)] for _ in range(4)]
    matrix5 = ratings_to_matrix(ratings5, five)
    ratings2 = [[collapse[v] for v in row] for row in ratings5]
    matrix2 = ratings_to_matrix(ratings2, ["software", "not_software"])
    assert [[row[0] + row[1], row[2] + row[3] + row[4]] for row in matrix5] == matrix2


def test_link_eval_summary_reproduces_reference_sample():
    rows = []
    rows += [("CodeHostAPI", "correct")] * 13
    rows += [("CodeHostAPI", "unclear")] * 19
    rows += [("CodeHostAPI", "incorrect")] * 3
    rows += [("PkgIndexR", "correct")] * 7
    rows += [("KnowledgeBaseAPI", "correct")] * 7
    rows += [("PkgIndexBioc", "unclear")] * 1
    assert len(rows) == 50
    summary = link_eval_summary(rows)
    assert summary.overall["correct"] == (27, pytest.approx(54.0))
    assert summary.overall["unclear"] == (20, pytest.approx(40.0))
    assert summary.overall["incorrect"] == (3, pytest.approx(6.0))
    assert summary.excluding_code_host["correct"][0] == 14
    assert summary.excluding_code_host["correct"][1] == pytest.approx(93.33, abs=0.01)
    assert summary.excluding_code_host["unclear"][1] == pytest.approx(6.66, abs=0.01)
    assert summary.excluding_code_host["incorrect"] == (0, pytest.approx(0.0))


def test_link_eval_summary_all_correct_and_errors():
    summary = link_eval_summary([("PkgIndexPy", "correct")] * 4)
    assert summary.overall["correct"] == (4, pytest.approx(100.0))
    with pytest.raises(ValueError):
        link_eval_summary([])


def test_verdict_parsing_aliases():
    assert parse_verdict("Not synonym") is SynonymVerdict.NOT_SYNONYM
    assert parse_verdict("not software") is SynonymVerdict.NOT_SOFTWARE
    assert parse_verdict("EXACT") is SynonymVerdict.EXACT
    with pytest.raises(FormatError):
        parse_verdict("kinda")


def test_read_synonym_labels_csv(tmp_path):
    path = tmp_path / "eval.csv.gz"
    content = (
        "link_label,synonym,text,synonym_label\n"
        'ImageJ,"Image J","a, quoted sentence",Exact\n'
        "BLAST,ballast,x,Not synonym\n"
    )
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(content)
    rows = read_synonym_labels(path)
    assert rows[0] == SynonymLabel("ImageJ", "Image J", SynonymVerdict.EXACT)
    assert rows[1].label is SynonymVerdict.NOT_SYNONYM


def test_bad_predicted_pairs_header_names_file_and_line(tmp_path):
    path = tmp_path / "predicted.tsv"
    path.write_text("synonym\tmention\nImage J\tImageJ\n", encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 1: bad predicted pairs header")):
        read_predicted_pairs(path)


def test_read_curation_rows_csv(tmp_path):
    path = tmp_path / "curation.csv"
    path.write_text(
        "ID,software_mention,text,multi_label,label\n"
        "1,SPSS,used spss,software,software&algorithm\n"
        "2,GitHub,repo,database,not_software\n"
        "3,XY,ambiguous,,unclear\n",
        encoding="utf-8",
    )
    rows = read_curation_rows(path)
    assert [r.label for r in rows] == [CURATION_SOFTWARE, CURATION_NOT_SOFTWARE, CURATION_UNCLEAR]


def test_read_link_eval_csv_normalizes_sources(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text(
        "software_mention,source,package_url,link_label\n"
        "x,GitHub API,u,correct\n"
        "y,Bioconductor,u,Unclear\n",
        encoding="utf-8",
    )
    rows = read_link_eval(path)
    assert rows == [("CodeHostAPI", "correct"), ("PkgIndexBioc", "unclear")]


def test_read_ratings_csv(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "item,rater,label\n"
        "m1,r1,software\nm1,r2,software\n"
        "m2,r1,not_software\nm2,r2,software\n",
        encoding="utf-8",
    )
    grid = read_ratings_csv(path)
    assert grid == [["software", "not_software"], ["software", "software"]]
