from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from softmentions.clustering import DisambiguationResult, disambiguate_pairs
from softmentions.ingest import FrequencyTable, MentionRecord, assign_ids, compute_frequencies
from softmentions.synonyms import generate_synonym_pairs

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"
FIXTURE_DIR = DATA_DIR / "fixture"
VARIANTS_DIR = DATA_DIR / "variants"

sys.path.insert(0, str(TESTS_DIR))

BASE_NAMES = {
    "limma": "limma",
    "blast": "BLAST",
    "scikit_learn": "scikit-learn",
    "imagej": "ImageJ",
    "spss": "SPSS",
    "matlab": "MATLAB",
    "graphpad": "GraphPad",
}


@pytest.fixture(scope="session")
def variant_lists() -> dict[str, list[str]]:
    return {
        path.stem: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(VARIANTS_DIR.glob("*.txt"))
    }


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture()
def fixture_copy(tmp_path) -> Path:
    """A writable copy of the bundled corpus fixture."""
    import shutil

    dest = tmp_path / "fixture"
    shutil.copytree(FIXTURE_DIR, dest)
    return dest


def make_record(software: str, pmcid: str = "", doi: str = "", **kwargs):
    defaults = dict(
        software=software,
        text=f"We used {software}.",
        license="comm",
        source="materials and methods",
        number=1,
        pubdate=2021,
        pmcid=pmcid,
        doi=doi,
    )
    defaults.update(kwargs)
    return MentionRecord(**defaults)


class Chain(NamedTuple):
    """Every value of one in-memory run of the compute chain."""

    id_table: dict[str, int]
    mentions: list[str]
    frequencies: FrequencyTable
    result: DisambiguationResult


def run_chain(records, registries=(), kb=None, **cluster_params) -> Chain:
    """The compute functions run-all chains, from records to named clusters.

    ``cluster_params`` (stoplist, eps, min_pts, ...) go to disambiguate_pairs.
    """
    records = list(records)
    id_table, mentions = assign_ids(r.software for r in records)
    freq = compute_frequencies(records, id_table)
    pairs = generate_synonym_pairs(id_table, registries=registries, kb=kb)
    result = disambiguate_pairs(pairs, mentions=mentions, freq=freq, **cluster_params)
    return Chain(id_table, mentions, freq, result)
