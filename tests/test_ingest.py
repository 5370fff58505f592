import io
import random

import pytest
from hypothesis import example, given, strategies as st

from softmentions.errors import ConsistencyError, FormatError, RowError, SoftMentionsError
from softmentions.fileio import format_tsv
from softmentions.ingest import (
    CORPUS_FIELDS,
    CURATION_LABELS,
    CorpusRow,
    assign_ids,
    compute_frequencies,
    parse_mentions,
    read_frequencies,
    read_id_table,
    write_frequencies,
    write_id_table,
)

from conftest import make_record
from oracles import (
    MentionRecord,
    corpus_row_reference,
    corpus_rows_reference,
    parse_mentions_reference,
)

MAIN_HEADER = "\t".join(CORPUS_FIELDS["comm"])


def comm_tsv(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join([MAIN_HEADER, *rows]) + "\n")


def comm_row(software="SPSS", source="materials and methods", number="3", **kw):
    fields = {
        "license": "comm",
        "location": "comm/Micropl/PMC8475362.nxml",
        "pmcid": "8475362",
        "pmid": "34580103",
        "doi": "10.1000/j.1",
        "pubdate": "2021",
        "source": source,
        "number": number,
        "text": f"Data were analysed in {software}.",
        "software": software,
        "version": "",
        "ID": "",
        "curation_label": "",
    }
    fields.update(kw)
    return "\t".join(fields[name] for name in CORPUS_FIELDS["comm"])


def cells(row: CorpusRow, corpus_kind: str = "comm") -> dict[str, str]:
    """The row's line as a cell per column."""
    return dict(zip(CORPUS_FIELDS[corpus_kind], row.line.split("\t"), strict=True))


def test_parse_maps_fields_directly():
    rows = list(parse_mentions(comm_tsv(comm_row()), "comm"))
    assert len(rows) == 1
    row = rows[0]
    assert (row.software, row.pmcid, row.doi) == ("SPSS", "8475362", "10.1000/j.1")
    assert row.line == comm_row(curation_label="not_curated")
    assert cells(row)["source"] == "materials and methods"
    assert (cells(row)["number"], cells(row)["pubdate"]) == ("3", "2021")


def test_embedded_quotes_are_literal():
    line = comm_row(software='R package "limma"', text='He said "quote" here')
    row = next(parse_mentions(comm_tsv(line), "comm"))
    assert row.software == 'R package "limma"'
    assert cells(row)["text"] == 'He said "quote" here'


def test_wrong_column_count_is_a_row_error_with_line_number():
    bad = "\t".join(["comm"] * 12)
    with pytest.raises(RowError) as err:
        list(parse_mentions(comm_tsv(comm_row(), bad), "comm"))
    assert err.value.line_number == 3
    assert "13" in str(err.value)


def test_lenient_mode_skips_bad_rows_and_reports_them():
    bad = "\t".join(["comm"] * 12)
    errors = []
    records = list(
        parse_mentions(comm_tsv(bad, comm_row()), "comm", lenient=True, errors=errors)
    )
    assert len(records) == 1
    assert len(errors) == 1
    assert errors[0].line_number == 2


def test_missing_header_is_fatal():
    stream = io.StringIO(comm_row() + "\n")
    with pytest.raises(FormatError):
        list(parse_mentions(stream, "comm"))
    with pytest.raises(FormatError):
        list(parse_mentions(io.StringIO(""), "comm"))


def test_empty_software_rejected():
    with pytest.raises(RowError):
        list(parse_mentions(comm_tsv(comm_row(software="  ")), "comm"))


def test_publishers_layout():
    header = "\t".join(CORPUS_FIELDS["publishers"])
    row = "\t".join(
        ["10.1000/x", "2020", "paper_abstract", "0", "Used ImageJ.", "ImageJ", "7", "software"]
    )
    parsed = next(parse_mentions(io.StringIO(header + "\n" + row + "\n"), "publishers"))
    assert (parsed.software, parsed.pmcid, parsed.doi) == ("ImageJ", "", "10.1000/x")
    assert parsed.line == row
    assert cells(parsed, "publishers")["ID"] == "7"


def test_unknown_corpus_kind():
    with pytest.raises(FormatError):
        list(parse_mentions(io.StringIO("x"), "nope"))


_safe_text = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=20,
)
_software_text = _safe_text.filter(lambda s: s.strip())


def _records(corpus_kind):
    """Records whose fields the corpus kind's columns can all hold."""
    fields = dict(
        software=_software_text,
        text=_safe_text,
        license=st.sampled_from(["comm", "non_comm"]),
        location=_safe_text,
        pmcid=st.sampled_from(["", "12345", "99"]),
        pmid=st.sampled_from(["", "777"]),
        doi=_safe_text,
        pubdate=st.one_of(st.none(), st.integers(1900, 2030)),
        source=_safe_text,
        number=st.integers(0, 50),
        version=_safe_text,
        id=st.one_of(st.none(), st.integers(0, 10**6)),
        curation_label=st.sampled_from(CURATION_LABELS),
    )
    if corpus_kind == "publishers":
        # The publishers layout has no column for these fields.
        fields.update(dict.fromkeys(("license", "location", "pmcid", "pmid", "version"), st.just("")))
    return st.lists(st.builds(MentionRecord, **fields), max_size=8)


@given(
    st.sampled_from(["comm", "publishers"]).flatmap(
        lambda kind: st.tuples(st.just(kind), _records(kind))
    )
)
def test_serialize_parse_round_trip(corpus):
    corpus_kind, records = corpus
    text = format_tsv(*corpus_rows_reference(records, corpus_kind))
    parsed = list(parse_mentions(io.StringIO(text), corpus_kind))
    assert parsed == [corpus_row_reference(rec, corpus_kind) for rec in records]
    assert [row.line for row in parsed] == text.split("\n")[1:-1]


def test_corpus_rows_normalize_integer_columns():
    odd = comm_row(pubdate="02021", number="+3", ID=" 7", curation_label="")
    empty = comm_row(pubdate="", number="", ID="٣")
    first, second = (cells(row) for row in parse_mentions(comm_tsv(odd, empty), "comm"))
    assert (first["pubdate"], first["number"], first["ID"]) == ("2021", "3", "7")
    assert first["curation_label"] == "not_curated"
    assert (second["pubdate"], second["number"], second["ID"]) == ("", "0", "3")


def test_corpus_row_is_immutable_and_hashable():
    row = make_record("SPSS", pmcid="1")
    with pytest.raises(AttributeError):
        row.software = "ImageJ"
    twin = make_record("SPSS", pmcid="1")
    assert twin == row and twin is not row
    assert hash(twin) == hash(row)
    assert len({row, twin, make_record("SPSS", pmcid="2")}) == 2


# Valid cell values for the parser oracle, some of them unusual integers.
_oracle_cells = {
    "software": st.sampled_from(["SPSS", "ImageJ", 'R package "limma"']),
    "pubdate": st.sampled_from(["", "2021", "02021", " 1999", "1_999", "-5"]),
    "number": st.sampled_from(["", "0", "3", "+4"]),
    "ID": st.sampled_from(["", "7", "-2", "٣"]),
    "curation_label": st.sampled_from(["", *CURATION_LABELS]),
}
# Faulty values per checked column; "width" adds or drops trailing cells.
_oracle_faults = {
    "software": ["", "  "],
    "pubdate": ["20x1"],
    "number": ["three", "2.5", "-1"],
    "ID": ["x7"],
    "curation_label": ["maybe", "Software"],
    "width": [-1, 1],
}


@st.composite
def _oracle_corpus(draw, corpus_kind):
    """A corpus text whose rows each carry no, one or several faults."""
    header = CORPUS_FIELDS[corpus_kind]
    lines = ["\t".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        cells = {name: draw(_oracle_cells.get(name, _safe_text)) for name in header}
        for column, values in _oracle_faults.items():
            if draw(st.integers(0, 3)) == 0:
                cells[column] = draw(st.sampled_from(values))
        width = cells.pop("width", 0)
        row = list(cells.values())
        lines.append("\t".join(row[:width] if width < 0 else row + ["extra"] * width))
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text, corpus_kind, lenient, known, convert=lambda row: row):
    """Every row (through ``convert``), every skipped row and the raised error."""
    rows, skipped, raised = [], [], None
    try:
        for parsed in parse(
            io.StringIO(text), corpus_kind, lenient=lenient, errors=skipped, known=known
        ):
            rows.append(convert(parsed))
    except SoftMentionsError as err:
        raised = (type(err).__name__, getattr(err, "line_number", None), str(err))
    return rows, [(err.line_number, str(err)) for err in skipped], raised


_SEVERAL_FAULTS = "\n".join([
    "\t".join(CORPUS_FIELDS["publishers"]),
    "10.1/x\t2020\tabstract\t-1\tUsed SPSS.\tSPSS\t\tmaybe",
    "10.1/x\tyear\tabstract\t-1\tUsed it.\t \tx\tmaybe",
    "",
])


@given(
    st.sampled_from(["comm", "publishers"]).flatmap(
        lambda kind: st.tuples(st.just(kind), _oracle_corpus(kind))
    ),
    st.booleans(),
    st.sampled_from([None, frozenset({"SPSS", 'R package "limma"'})]),
)
@example(("publishers", _SEVERAL_FAULTS), False, None)
@example(("publishers", _SEVERAL_FAULTS), True, frozenset({"SPSS"}))
def test_parse_mentions_matches_reference_parser(corpus, lenient, known):
    corpus_kind, text = corpus
    got = _parse_outcome(parse_mentions, text, corpus_kind, lenient, known)
    want = _parse_outcome(
        parse_mentions_reference, text, corpus_kind, lenient, known,
        lambda rec: corpus_row_reference(rec, corpus_kind),
    )
    assert got == want


@st.composite
def _valid_corpus(draw, corpus_kind):
    """A corpus text of valid rows, with unusual integer cells and empty labels."""
    header = CORPUS_FIELDS[corpus_kind]
    rows = [
        "\t".join(draw(_oracle_cells.get(name, _safe_text)) for name in header)
        for _ in range(draw(st.integers(0, 8)))
    ]
    return "\n".join(["\t".join(header), *rows]) + "\n"


@given(
    st.sampled_from(["comm", "publishers"]).flatmap(
        lambda kind: st.tuples(st.just(kind), _valid_corpus(kind))
    )
)
def test_row_line_equals_reference_rendering(corpus):
    corpus_kind, text = corpus
    rows = list(parse_mentions(io.StringIO(text), corpus_kind))
    records = list(parse_mentions_reference(io.StringIO(text), corpus_kind))
    _, reference = corpus_rows_reference(records, corpus_kind)
    assert [row.line for row in rows] == ["\t".join(cells) for cells in reference]
    assert rows == [corpus_row_reference(rec, corpus_kind) for rec in records]


@pytest.mark.parametrize(
    "faults, message",
    [
        (dict(software=" ", pubdate="x", number="-1", curation_label="maybe"),
         "empty software mention"),
        (dict(pubdate="x", number="y", ID="z"), "pubdate is not an integer: 'x'"),
        (dict(number="y", ID="z", curation_label="maybe"), "number is not an integer: 'y'"),
        (dict(number="-1", ID="z"), "id is not an integer: 'z'"),
        (dict(number="-1", curation_label="maybe"), "negative number field: -1"),
        (dict(curation_label="maybe"), "unknown curation_label: 'maybe'"),
    ],
)
def test_first_failing_check_names_the_row(faults, message):
    row = comm_row(**faults)
    with pytest.raises(RowError) as err:
        list(parse_mentions(comm_tsv(comm_row(), row), "comm"))
    assert str(err.value) == f"line 3: {message}"
    with pytest.raises(RowError) as ref:
        list(parse_mentions_reference(comm_tsv(comm_row(), row), "comm"))
    assert str(ref.value) == str(err.value)


@pytest.mark.parametrize("lenient", [False, True])
def test_parse_mentions_rejects_a_mention_missing_from_known(lenient):
    rows = [make_record("BLAST", pmcid="1"), make_record("BrandNewTool", pmcid="2")]
    text = "\n".join([MAIN_HEADER, *(row.line for row in rows)]) + "\n"
    parsed = parse_mentions(io.StringIO(text), "comm", lenient=lenient, known={"BLAST"})
    with pytest.raises(ConsistencyError, match="line 3: unknown mention 'BrandNewTool'"):
        list(parsed)


def test_assign_ids_dedupes_and_sorts():
    id_table, mentions = assign_ids(["BLAST", "BLAST", "SPSS"])
    assert id_table == {"BLAST": 0, "SPSS": 1}
    assert mentions == ["BLAST", "SPSS"]


def test_assign_ids_empty():
    assert assign_ids([]) == ({}, [])


@given(st.lists(_software_text, max_size=30))
def test_assign_ids_order_insensitive_and_idempotent(mentions):
    table, ordered = assign_ids(mentions)
    shuffled = list(mentions)
    random.Random(0).shuffle(shuffled)
    assert assign_ids(shuffled)[0] == table
    assert assign_ids(table)[0] == table
    assert sorted(table.values()) == list(range(len(table)))
    assert {m: i for i, m in enumerate(ordered)} == table


def test_frequency_counts_distinct_papers():
    records = [
        make_record("SPSS", pmcid="1"),
        make_record("SPSS", pmcid="1"),
        make_record("SPSS", pmcid="2"),
        make_record("ImageJ", pmcid="", doi="10.1/x"),
        make_record("ImageJ", pmcid="", doi="10.1/y"),
    ]
    id_table, _ = assign_ids(r.software for r in records)
    freq = compute_frequencies(records, id_table)
    assert freq.get(id_table["SPSS"]) == 2
    assert freq.get(id_table["ImageJ"]) == 2
    assert freq.missing_paper_key_rows == 0


def test_frequency_pmcid_preferred_over_doi():
    records = [
        make_record("SPSS", pmcid="1", doi="10.1/a"),
        make_record("SPSS", pmcid="1", doi="10.1/b"),
    ]
    id_table, _ = assign_ids(r.software for r in records)
    assert compute_frequencies(records, id_table).get(id_table["SPSS"]) == 1


def test_frequency_sum_equals_pairs_without_in_paper_duplicates():
    records = [
        make_record("A", pmcid="1"),
        make_record("A", pmcid="2"),
        make_record("B", pmcid="1"),
    ]
    id_table, _ = assign_ids(r.software for r in records)
    freq = compute_frequencies(records, id_table)
    assert sum(freq.counts.values()) == len({(r.software, r.pmcid) for r in records})


def test_frequency_missing_keys_use_synthetic_paper_and_tally():
    records = [make_record("X"), make_record("X"), make_record("X", pmcid="5")]
    id_table, _ = assign_ids(r.software for r in records)
    freq = compute_frequencies(records, id_table)
    assert freq.missing_paper_key_rows == 2
    assert freq.get(id_table["X"]) == 2  # synthetic key + pmcid 5


def test_frequencies_match_brute_force_oracle():
    rng = random.Random(42)
    mentions = [f"tool-{i}" for i in range(6)]
    papers = [f"{i}" for i in range(10)]
    records = [
        make_record(rng.choice(mentions), pmcid=rng.choice(papers)) for _ in range(120)
    ]
    id_table, _ = assign_ids(r.software for r in records)
    freq = compute_frequencies(records, id_table)
    oracle = {}
    for rec in records:
        oracle.setdefault(rec.software, set()).add(rec.pmcid)
    assert freq.counts == {id_table[m]: len(p) for m, p in oracle.items()}
    pair_count = len({(r.software, r.pmcid) for r in records})
    assert sum(freq.counts.values()) <= pair_count


def test_id_and_frequency_tables_round_trip(tmp_path):
    records = [make_record("b", pmcid="1"), make_record("a", pmcid="2"),
               make_record("a", pmcid="3")]
    id_table, mentions = assign_ids(r.software for r in records)
    freq = compute_frequencies(records, id_table)
    write_id_table(tmp_path / "m2i.tsv", mentions)
    write_frequencies(tmp_path / "freq.tsv", freq, mentions)
    table2, mentions2 = read_id_table(tmp_path / "m2i.tsv")
    assert table2 == id_table and mentions2 == mentions
    assert read_frequencies(tmp_path / "freq.tsv", table2).counts == freq.counts


def test_gzip_corpus_supported(tmp_path):
    import gzip

    from softmentions.fileio import open_text

    path = tmp_path / "c.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(MAIN_HEADER + "\n" + comm_row() + "\n")
    with open_text(path) as fh:
        rows = list(parse_mentions(fh, "comm"))
    assert rows[0].software == "SPSS"
