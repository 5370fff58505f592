from __future__ import annotations

import ipaddress
import socket
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import settings

from softmentions.clustering import DisambiguationResult, disambiguate_pairs
from softmentions.ingest import assign_ids, compute_frequencies
from softmentions.synonyms import generate_synonym_pairs

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"
FIXTURE_DIR = DATA_DIR / "fixture"
VARIANTS_DIR = DATA_DIR / "variants"

sys.path.insert(0, str(TESTS_DIR))

from oracles import MentionRecord, corpus_row_reference  # noqa: E402

# Ten times the default examples, for CI runs of the join, pair-contract,
# Jaro-Winkler, link and corpus-parser oracle tests, the mutation fuzz, the
# stage hand-off, stage rerun, two-workers and killed-run tests
# (`--hypothesis-profile=ci`); plain runs keep the default. No deadline: a
# slow example measures the host.
settings.register_profile("ci", max_examples=1000, deadline=None)

BASE_NAMES = {
    "limma": "limma",
    "blast": "BLAST",
    "scikit_learn": "scikit-learn",
    "imagej": "ImageJ",
    "spss": "SPSS",
    "matlab": "MATLAB",
    "graphpad": "GraphPad",
}


def _refuse_remote(host) -> None:
    """Fail the test at once unless ``host`` is this machine: every live fetch must be stubbed."""
    try:
        local = host is None or host == "localhost" or ipaddress.ip_address(host).is_loopback
    except ValueError:
        local = False
    if not local:
        pytest.fail(f"a test tried to reach {host!r}; stub the request", pytrace=False)


@pytest.fixture(autouse=True, scope="session")
def no_remote_connections():
    """Refuse name lookups and connections beyond the loopback interface in every test.

    A test that forgets to stub a fetch fails at once (pytest.fail is no
    Exception, so no handler turns it into a soft error) instead of waiting
    on a timeout or reaching a live API.
    """
    connect, getaddrinfo = socket.socket.connect, socket.getaddrinfo

    def guarded_connect(sock, address):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            _refuse_remote(address[0])
        return connect(sock, address)

    def guarded_getaddrinfo(host, *args, **kwargs):
        _refuse_remote(host)
        return getaddrinfo(host, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(socket.socket, "connect", guarded_connect)
        patch.setattr(socket, "getaddrinfo", guarded_getaddrinfo)
        yield


class Clock:
    """Stands in for linking's time module: sleep moves the clock on at once."""

    def __init__(self):
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock(monkeypatch) -> Clock:
    """linking's clock replaced, so that paced fetchers never wait."""
    import softmentions.linking

    clock = Clock()
    monkeypatch.setattr(softmentions.linking, "time", clock)
    return clock


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
    """A comm corpus row for ``software``; ``kwargs`` set further MentionRecord fields."""
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
    return corpus_row_reference(MentionRecord(**defaults), "comm")


class Chain(NamedTuple):
    """Every value of one in-memory run of the compute chain."""

    id_table: dict[str, int]
    mentions: list[str]
    frequencies: dict[int, int]
    result: DisambiguationResult


def run_chain(rows, registries=None, kb=None, **cluster_params) -> Chain:
    """The compute functions run-all chains, from corpus rows to named clusters.

    ``cluster_params`` (stoplist, eps, min_pts, ...) go to disambiguate_pairs.
    """
    rows = list(rows)
    id_table, mentions = assign_ids(row.software for row in rows)
    freq, _ = compute_frequencies(rows, id_table)
    pairs = generate_synonym_pairs(id_table, registries=registries, kb=kb)
    result = disambiguate_pairs(pairs, mentions=mentions, freq=freq, **cluster_params)
    return Chain(id_table, mentions, freq, result)
