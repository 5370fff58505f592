import gzip
import io
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from softmentions import fileio, ingest
from softmentions.errors import ConsistencyError, FormatError, RowError, SoftMentionsError
from softmentions.fileio import open_text
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
    tsv_text_reference,
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
    text = tsv_text_reference(*corpus_rows_reference(records, corpus_kind))
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


# Cells a corpus row may carry as they are; the line separators other than
# "\n" must stay inside their cell.
_plain_cells = st.sampled_from(
    ["", "x", "caf\u00e9 au lait", '"quoted"', "a\x85b", "a\u2028b", "\x0c"]
)
_canonical_software = ["SPSS", "ImageJ", 'R package "limma"']
_canonical_cells = {
    "software": st.sampled_from(_canonical_software),
    "pubdate": st.sampled_from(["", "2021", "1999"]),
    "number": st.sampled_from(["0", "3", "40"]),
    "ID": st.sampled_from(["", "0", "7", "120"]),
    "curation_label": st.sampled_from(CURATION_LABELS),
}
# Valid cells that parse rewrites or, for "-5", that carry a sign.
_rewritten_cells = {
    "pubdate": ["02021", " 1999", "1_999", "-5", "\u0663"],
    "number": ["", "+4", "007", "-0"],
    "ID": ["-2", "\u0663", "00"],
    "curation_label": [""],
}
# Each way one line can stop being a row that parse leaves as it is.
_LINE_CHANGES = [
    *(("cell", column, value) for column, values in _rewritten_cells.items() for value in values),
    *(
        ("cell", column, value)
        for column, values in _oracle_faults.items() if column != "width"
        for value in values
    ),
    ("cell", "software", "ImageJ"),  # unknown where known holds SPSS alone
    ("cell", "text", "Used\rSPSS."),
    *(("width", "", value) for value in _oracle_faults["width"]),
    ("blank", "", ""),
    ("crlf", "", ""),
]


def _changed_line(cells: dict[str, str], change: tuple) -> str:
    """The line of a row's ``cells`` after one of _LINE_CHANGES."""
    kind, column, value = change
    if kind == "blank":
        return ""
    values = list({**cells, column: value}.values()) if kind == "cell" else list(cells.values())
    if kind == "width":
        values = values[:value] if value < 0 else values + ["extra"] * value
    return "\t".join(values) + ("\r" if kind == "crlf" else "")


def _chunked_outcomes(text, corpus_kind, chunk_lines, lenient, known, rest=0):
    """parse_mentions' outcome over ``chunk_lines``-line chunks, and the reference's.

    ``rest`` stands for fileio.BULK_REST. The reference reads the whole text
    as one chunk, line by line, so the line numbers it gives owe nothing to
    where chunks start.
    """
    assert text.count("\n") < fileio.CHUNK_LINES
    want = _parse_outcome(
        parse_mentions_reference, text, corpus_kind, lenient, known,
        lambda rec: corpus_row_reference(rec, corpus_kind),
    )
    with mock.patch.multiple(fileio, CHUNK_LINES=chunk_lines, BULK_REST=rest):
        got = _parse_outcome(parse_mentions, text, corpus_kind, lenient, known)
    return got, want


@st.composite
def _chunked_corpus(draw, corpus_kind, chunk_lines):
    """A corpus text of up to five chunks of rows that parse leaves as they are.

    A few drawn lines, often a chunk's first or last, take one of _LINE_CHANGES.
    """
    header = CORPUS_FIELDS[corpus_kind]
    count = draw(st.integers(0, 5 * chunk_lines))
    rows = [
        {name: draw(_canonical_cells.get(name, _plain_cells)) for name in header}
        for _ in range(count)
    ]
    lines = ["\t".join(row.values()) for row in rows]
    starts = range(0, count, chunk_lines)
    edges = [at for first in starts for at in (first, first + chunk_lines - 1) if at < count]
    for _ in range(draw(st.integers(0, 6)) if count else 0):
        at = draw(st.sampled_from(edges) | st.integers(0, count - 1))
        lines[at] = _changed_line(rows[at], draw(st.sampled_from(_LINE_CHANGES)))
    return "\n".join(["\t".join(header), *lines]) + "\n"


@settings(deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda chunk_lines: st.tuples(
            st.just(chunk_lines),
            st.sampled_from(["comm", "publishers"]).flatmap(
                lambda kind: st.tuples(st.just(kind), _chunked_corpus(kind, chunk_lines))
            ),
        )
    ),
    st.booleans(),
    st.sampled_from([None, frozenset(_canonical_software), frozenset(["SPSS"])]),
    st.sampled_from([0, 1, 15]),
)
# Line 2 lacks its last cell and line 3 has one too many, so the chunk has
# as many tabs as two good lines and every column check passes on it.
@example(
    (4, ("comm", comm_tsv(
        "\t".join(comm_row().split("\t")[:-1]),
        comm_row(license="software", source="3", text="5", version="SPSS", curation_label="7")
        + "\tnot_curated",
    ).getvalue())),
    False,
    None,
    0,
)
def test_parse_mentions_over_several_chunks_matches_reference_parser(drawn, lenient, known, rest):
    chunk_lines, (corpus_kind, text) = drawn
    got, want = _chunked_outcomes(text, corpus_kind, chunk_lines, lenient, known, rest)
    assert got == want


@pytest.mark.parametrize("corpus_kind", ["comm", "publishers"])
def test_each_line_change_at_a_chunk_edge_matches_reference_parser(corpus_kind):
    # Twelve rows in chunks of four; one line of the second chunk changes.
    header = CORPUS_FIELDS[corpus_kind]
    canonical = {"software": "SPSS", "pubdate": "2021", "number": "3", "ID": "7",
                 "curation_label": "software"}
    cells = {name: canonical.get(name, "x") for name in header}
    for change, at, lenient, known in product(
        _LINE_CHANGES, (4, 5, 7), (False, True), (None, frozenset(["SPSS"]))
    ):
        lines = ["\t".join(cells.values())] * 12
        lines[at] = _changed_line(cells, change)
        text = "\n".join(["\t".join(header), *lines]) + "\n"
        got, want = _chunked_outcomes(text, corpus_kind, 4, lenient, known)
        assert got == want, (change, at, lenient, known)


def test_bulk_path_leaves_only_changed_lines_to_parse(monkeypatch):
    # Three chunks of four rows; lines 7 and 9 hold a cell parse rewrites and
    # line 11 is blank. The bulk converter vouches for every other line.
    def row(**cells):
        return comm_row(**{"curation_label": "software", **cells})

    lines = [row(software=f"tool {i}", number=str(i)) for i in range(12)]
    lines[7 - 2] = row(number="007")
    lines[9 - 2] = row(curation_label="")
    lines[11 - 2] = ""
    text = comm_tsv(*lines).getvalue()
    verdicts = []

    def recording_iter_tsv(stream, header, row, skipped, bulk):
        def recording_bulk(chunk):
            items = bulk(chunk)
            verdicts.append([item is not None for item in items])
            return items

        return fileio.iter_tsv(stream, header, row, skipped, recording_bulk)

    monkeypatch.setattr(ingest, "iter_tsv", recording_iter_tsv)
    monkeypatch.setattr(fileio, "CHUNK_LINES", 4)
    monkeypatch.setattr(fileio, "BULK_REST", 0)
    got = _parse_outcome(parse_mentions, text, "comm", False, None)
    want = _parse_outcome(
        parse_mentions_reference, text, "comm", False, None,
        lambda rec: corpus_row_reference(rec, "comm"),
    )
    assert got == want
    assert verdicts == [[True] * 4, [True, False, True, False], [True, False, True, True]]


# Cells an integer column may hold: ASCII and other digits, signs, "_",
# spaces and leading zeros.
_integer_cells = st.one_of(
    st.text(alphabet="0123456789\u0663\u06f7\u0967\uff11\u00b2+-_ ", max_size=6),
    st.builds(
        "{}{}".format,
        st.sampled_from(["0", "00", "-0", "+0", " 0"]),
        st.text(alphabet="0123456789", max_size=3),
    ),
)


@given(st.lists(_integer_cells, max_size=8))
def test_canonical_column_check_agrees_with_its_cells_and_with_int(cells):
    assert ingest._canonical(cells) == all(map(ingest._canonical_cell, cells))
    for cell in filter(ingest._canonical_cell, cells):
        # Not the converse: "-1" is refused, so that parse can reject a negative number.
        assert not cell or (str(int(cell)) == cell and cell[0] not in "+-")


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


def test_carriage_return_inside_a_line_is_a_row_error():
    # io.StringIO splits lines at newlines only, so the carriage return reaches
    # the row loop; open_text would have split the line there.
    bad = comm_row(text="Used\rSPSS.")
    with pytest.raises(RowError, match="^line 3: carriage return inside the line$"):
        list(parse_mentions(comm_tsv(comm_row(), bad), "comm"))
    errors = []
    stream = comm_tsv(comm_row(), bad, comm_row(software="BLAST"))
    parsed = parse_mentions(stream, "comm", lenient=True, errors=errors)
    assert [row.software for row in parsed] == ["SPSS", "BLAST"]
    assert [err.line_number for err in errors] == [3]


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
    freq, missing = compute_frequencies(records, id_table)
    assert freq[id_table["SPSS"]] == 2
    assert freq[id_table["ImageJ"]] == 2
    assert missing == 0


def test_frequency_pmcid_preferred_over_doi():
    records = [
        make_record("SPSS", pmcid="1", doi="10.1/a"),
        make_record("SPSS", pmcid="1", doi="10.1/b"),
    ]
    id_table, _ = assign_ids(r.software for r in records)
    assert compute_frequencies(records, id_table)[0][id_table["SPSS"]] == 1


def test_frequency_sum_equals_pairs_without_in_paper_duplicates():
    records = [
        make_record("A", pmcid="1"),
        make_record("A", pmcid="2"),
        make_record("B", pmcid="1"),
    ]
    id_table, _ = assign_ids(r.software for r in records)
    freq, _ = compute_frequencies(records, id_table)
    assert sum(freq.values()) == len({(r.software, r.pmcid) for r in records})


def test_frequency_missing_keys_use_synthetic_paper_and_tally():
    records = [make_record("X"), make_record("X"), make_record("X", pmcid="5")]
    id_table, _ = assign_ids(r.software for r in records)
    freq, missing = compute_frequencies(records, id_table)
    assert missing == 2
    assert freq[id_table["X"]] == 2  # synthetic key + pmcid 5


def test_frequencies_match_brute_force_oracle():
    rng = random.Random(42)
    mentions = [f"tool-{i}" for i in range(6)]
    papers = [f"{i}" for i in range(10)]
    records = [
        make_record(rng.choice(mentions), pmcid=rng.choice(papers)) for _ in range(120)
    ]
    id_table, _ = assign_ids(r.software for r in records)
    freq, _ = compute_frequencies(records, id_table)
    oracle = {}
    for rec in records:
        oracle.setdefault(rec.software, set()).add(rec.pmcid)
    assert freq == {id_table[m]: len(p) for m, p in oracle.items()}
    pair_count = len({(r.software, r.pmcid) for r in records})
    assert sum(freq.values()) <= pair_count


def test_id_and_frequency_tables_round_trip(tmp_path):
    records = [make_record("b", pmcid="1"), make_record("a", pmcid="2"),
               make_record("a", pmcid="3")]
    id_table, mentions = assign_ids(r.software for r in records)
    freq, _ = compute_frequencies(records, id_table)
    write_id_table(tmp_path / "m2i.tsv", mentions)
    write_frequencies(tmp_path / "freq.tsv", freq, mentions)
    table2, mentions2 = read_id_table(tmp_path / "m2i.tsv")
    assert table2 == id_table and mentions2 == mentions
    assert read_frequencies(tmp_path / "freq.tsv", table2) == freq


def test_gzip_corpus_supported(tmp_path):
    path = tmp_path / "c.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(MAIN_HEADER + "\n" + comm_row() + "\n")
    with open_text(path) as fh:
        rows = list(parse_mentions(fh, "comm"))
    assert rows[0].software == "SPSS"


@pytest.mark.parametrize("name", ["corpus.tsv", "corpus.tsv.gz"])
def test_row_error_read_before_a_decoding_error_is_raised_first(tmp_path, name):
    # Lines 260 and 500 share the second chunk (lines 258-513). The byte that
    # is not UTF-8, on line 500, lies past the text decoded when 260 is read.
    rows = [comm_row(software=f"tool {i}", number=str(i)) for i in range(700)]
    rows[260 - 2] = comm_row(pubdate="20x1")
    data = comm_tsv(*rows).getvalue().encode("utf-8")
    data = data.replace(b"tool 498\t", b"tool \xff\t")
    path = tmp_path / name
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    with open_text(path) as fh, pytest.raises(RowError) as err:
        list(parse_mentions(fh, "comm"))
    assert str(err.value) == f"{path}: line 260: pubdate is not an integer: '20x1'"
    errors = []
    with open_text(path) as fh, pytest.raises(RowError) as err:
        list(parse_mentions(fh, "comm", lenient=True, errors=errors))
    assert str(err.value) == f"{path}: line 500: not valid UTF-8"
    assert [e.line_number for e in errors] == [260]
