"""Command-line pipeline driver.

Subcommands mirror the stage boundaries: ingest, synonyms, cluster, link,
evaluate, run-all. Every stage writes its artifacts plus a manifest with
input digests, the effective configuration and row counts, so identical
inputs and configuration reproduce identical outputs byte for byte.

Each stage_* function takes its inputs from a Products store, calls the
pure compute functions of its module, saves, and puts its products in the
store's values. A store loads a product from the out/ directory the first
time a stage asks for one that no stage put there. A stage run alone gets a
fresh store; run-all hands one store to every stage, so it parses the
corpus once and reads back no artifact it wrote.

The store records each file a stage uses, loaded or handed on, for its
manifest. An artifact loaded from out/ is refused (exit 2) when its stage's
manifest records another value of a setting that STAGES says the artifact
depends on, or an input now missing or changed, artifact inputs in turn; an
input a paths.* setting named is looked for where that setting points now.

Exit codes: 0 success, 1 configuration problem, 2 data problem or missing
artifact.
"""
from __future__ import annotations

import hashlib
import json
import logging
import sys
from contextlib import contextmanager
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, TypeVar

from . import clustering, graph, ingest, linking, synonyms
from .config import LinkSource, PipelineConfig, Setting, read_config, resolve_config
from .errors import ConsistencyError, FormatError, SoftMentionsError, ValidationError
from .fileio import (
    open_text, read_json, read_lines, read_tsv, remove_temporaries, write_text, write_tsv,
)

logger = logging.getLogger(__name__)
T = TypeVar("T")

MENTION2ID = "mention2id.tsv"
FREQUENCIES = "frequencies.tsv"
SYNONYMS = "synonyms.tsv"
DISAMBIGUATED = "disambiguated.tsv"
CLUSTERS = "clusters.tsv"
CLUSTERS_HEADER = ("cluster", "name_id", "name", "member_id", "member")
MATRIX = "matrix.tsv"
METADATA = "metadata.tsv"
NORMALIZED = "normalized"
RAW = "raw"
LINK_REPORT = "link_report.tsv"
METRICS_JSON = "metrics.json"
METRICS_TXT = "metrics.txt"

# Each mention's ID and the mentions in ID order, as ingest.assign_ids returns them.
IdTables = tuple[dict[str, int], list[str]]
# The entry names of each configured package index.
RegistryNames = dict[LinkSource, set[str]]


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run: Products, stage: str, counts: dict) -> None:
    """Record the files the stage used, then start run-all's next stage on an empty record."""
    manifest = {
        "stage": stage,
        "inputs": {str(p): run.digest(p) for p in sorted(run.used)},
        "config": run.cfg.snapshot(),
        "row_counts": counts,
    }
    run.used.clear()
    out = run.out / f"manifest_{stage}.json"
    write_text(out, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@contextmanager
def _listed(out: Path) -> Iterator[None]:
    """Name mention2id.tsv in the error of a mention it does not list."""
    try:
        yield
    except ConsistencyError as err:
        id_path = out / MENTION2ID
        raise ConsistencyError(f"{err}, which {id_path} does not list (rerun ingest)") from None


def _read_corpus(
    cfg: PipelineConfig, corpus: Path, id_table: Mapping[str, int] | None = None
) -> list[ingest.CorpusRow]:
    """The corpus rows; with the ID table of mention2id.tsv, each mention must be in it."""
    skipped: list | None = None if cfg.strict else []
    with _listed(Path(cfg.out_dir)), open_text(corpus) as fh:
        rows = list(ingest.parse_mentions(fh, cfg.corpus_kind, skipped, known=id_table))
    for err in skipped or ():
        logger.warning("skipped row: %s", err)
    return rows


class Products:
    """One run's products, each loaded from its artifact on first use.

    A stage puts what it produces in ``values`` (``run.values["pairs"] = ...``),
    so later stages of the same run read the value instead of the file. Every
    use of a product, loaded or handed on, records its files.

    A run starts by deleting the temporary files that a killed run left in
    out/ and its CSV directories: no stage reads them, but they would make
    out/ differ from a clean run's.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        for directory in ("", *(name for stage in STAGES.values() for name in stage.directories)):
            remove_temporaries(self.out / directory)
        self.values: dict[str, object] = {}  # each product by name, loaded or handed on
        # A file's SHA-256, read once per run: no stage rewrites what an earlier one read.
        self.digest: Callable[[Path], str] = cache(_digest)
        self.used: set[Path] = set()  # the files the running stage uses
        self.checked: set[str] = set()  # the stages whose manifest was compared

    def use(self, path: str | Path, what: str) -> Path:
        """``path``, which must exist, recorded as an input of the running stage."""
        if not path or not Path(path).exists():
            problem = f"not found at {path}" if path else "is not configured"
            raise SoftMentionsError(f"missing input: {what} {problem}")
        self.used.add(Path(path))
        return Path(path)

    def artifact(self, name: str) -> Path:
        return self.use(self.out / name, f"{name} (run {ARTIFACTS[name]} first)")

    def check(self, path: Path) -> None:
        """Refuse an artifact whose stage's manifest, if any, records other settings or inputs."""
        stage = ARTIFACTS.get(path.name) if path.parent.resolve() == self.out.resolve() else None
        manifest = self.out / f"manifest_{stage}.json"
        if stage is None or stage in self.checked or not manifest.exists():
            return
        self.checked.add(stage)  # before its inputs, so a cycle ends
        try:
            record = read_json(manifest)
            inputs, then, now = record["inputs"], record.get("config", {}), self.cfg.snapshot()
            digests = inputs and all(isinstance(digest, str) for digest in inputs.values())
            if not digests or not isinstance(then, dict):
                raise TypeError
            # A recorded input that a path setting named is the file that setting names now.
            moved = {str(Path(then[key])): now[key] or f"{key} (unset)"
                     for key in now if key.startswith("paths.") and key in then}
        except (ValueError, TypeError, KeyError, AttributeError):
            raise FormatError(
                f"{manifest}: expected an object of input digests and a config object") from None
        for key in STAGES[stage].settings:
            if then.get(key) != now[key]:
                made = f"{key} = {then[key]}" if key in then else f"no {key}"
                raise ConsistencyError(f"{manifest} records {made} for {path}, this run has "
                                       f"{now[key]} (rerun {stage})")
        for name, digest in inputs.items():
            path = Path(moved.get(name, name))
            if not path.is_file() or self.digest(path) != digest:
                raise ConsistencyError(f"{path} is not the file {manifest} records (rerun {stage})")
            self.check(path)

    def _load(self, name: str, files: list[Path], load: Callable[..., T]) -> T:
        """The product ``name``, read by ``load(*files)`` unless a stage handed it on."""
        if name not in self.values:
            self.values[name] = load(*files)
            for path in files:  # after it parses, so a malformed artifact names its line
                self.check(path)
        return self.values[name]

    @property
    def ids(self) -> IdTables:
        return self._load("ids", [self.artifact(MENTION2ID)], ingest.read_id_table)

    @property
    def freq(self) -> dict[int, int]:
        read = _listed(self.out)(ingest.read_frequencies)  # an unknown mention names mention2id.tsv
        return self._load("freq", [self.artifact(FREQUENCIES)], lambda p: read(p, self.ids[0]))

    @property
    def pairs(self) -> list[synonyms.SynonymPair]:
        return self._load("pairs", [self.artifact(SYNONYMS)],
                          lambda p: synonyms.read_synonyms_tsv(p, self.ids[1]))

    @property
    def rows(self) -> list[ingest.CorpusRow]:
        """The corpus, which must hold no mention that mention2id.tsv lacks."""
        corpus = self.use(self.cfg.corpus, "corpus TSV (paths.corpus)")
        return self._load("rows", [corpus], lambda p: _read_corpus(self.cfg, p, self.ids[0]))

    @property
    def clusters(self) -> list[clustering.Cluster]:
        return self._load("clusters", [self.artifact(CLUSTERS)],
                          lambda p: _read_clusters(p, self.ids[1]))

    @property
    def names(self) -> RegistryNames:
        """The entry names of every configured package index."""
        cfg = self.cfg
        indexes = {LinkSource.PKG_INDEX_PY: cfg.registry_py, LinkSource.PKG_INDEX_R: cfg.registry_r,
                   LinkSource.PKG_INDEX_BIOC: cfg.registry_bioc}
        files = {source: self.use(path, f"{source.value} name list")
                 for source, path in indexes.items() if path}
        return self._load("names", [*files.values()],
                          lambda *paths: dict(zip(files, (set(read_lines(p)) for p in paths))))


def stage_ingest(cfg: PipelineConfig, run: Products | None = None) -> None:
    """Parse the corpus, assign mention IDs and count papers."""
    run = run or Products(cfg)
    rows = _read_corpus(cfg, run.use(cfg.corpus, "corpus TSV (paths.corpus)"))
    id_table, mentions = ingest.assign_ids(row.software for row in rows)
    freq, missing_paper_key = ingest.compute_frequencies(rows, id_table)
    run.values.update(rows=rows, ids=(id_table, mentions), freq=freq)
    ingest.write_id_table(run.out / MENTION2ID, mentions)
    ingest.write_frequencies(run.out / FREQUENCIES, freq, mentions)
    counts = {
        "rows": len(rows),
        "unique_mentions": len(mentions),
        "rows_missing_paper_key": missing_paper_key,
    }
    write_manifest(run, "ingest", counts)
    logger.info("ingest: %(rows)d rows, %(unique_mentions)d unique mentions", counts)


def stage_synonyms(cfg: PipelineConfig, run: Products | None = None) -> None:
    """Generate the synonym pairs of the ID table."""
    run = run or Products(cfg)
    id_table, mentions = run.ids
    kb = synonyms.read_kb_dict(run.use(cfg.kb_dict, "KB dictionary")) if cfg.kb_dict else None
    skip_report: list[str] = []
    unmatched: list[tuple[str, str]] = []
    pairs = synonyms.generate_synonym_pairs(
        id_table,
        registries=run.names,
        kb=kb,
        record_threshold=cfg.record_threshold,
        workers=cfg.workers,
        skip_report=skip_report,
        unmatched=unmatched,
    )
    run.values["pairs"] = pairs
    synonyms.write_synonyms_tsv(run.out / SYNONYMS, pairs, mentions)
    by_source: dict[str, int] = {}
    for pair in pairs:
        by_source[pair.source.value] = by_source.get(pair.source.value, 0) + 1
    counts = {
        "pairs": len(pairs),
        "by_source": by_source,
        "skipped_registry_entries": len(skip_report),
        "unmatched_kb_entries": len(unmatched),
    }
    write_manifest(run, "synonyms", counts)
    logger.info("synonyms: %d pairs", len(pairs))


def stage_cluster(cfg: PipelineConfig, run: Products | None = None) -> None:
    """Cluster the synonym pairs into named entities."""
    run = run or Products(cfg)
    out = run.out
    (id_table, mentions), freq, pairs, rows = run.ids, run.freq, run.pairs, run.rows
    stoplist = frozenset(graph.DEFAULT_STOPLIST)
    if cfg.stoplist:
        stoplist = graph.read_stoplist(run.use(cfg.stoplist, "stoplist"))
    result = clustering.disambiguate_pairs(
        pairs,
        mentions=mentions,
        freq=freq,
        stoplist=stoplist,
        use_threshold=cfg.use_threshold,
        eps=cfg.eps,
        min_pts=cfg.min_pts,
    )
    run.values["clusters"] = result.clusters
    clustering.write_disambiguated_tsv(
        out / DISAMBIGUATED, rows, cfg.corpus_kind, id_table, result.clusters
    )
    cluster_rows = (
        (str(idx), str(c.name_id), c.name, str(member), mentions[member])
        for idx, c in enumerate(result.clusters)
        for member in c.members
    )
    write_tsv(out / CLUSTERS, CLUSTERS_HEADER, cluster_rows)
    if cfg.write_matrix:
        graph.write_matrix_tsv(out / MATRIX, result.graph)
    else:  # an earlier run's matrix would disagree with these clusters
        (out / MATRIX).unlink(missing_ok=True)
    acc = result.accounting
    counts = {
        "unique_mentions": acc.total,
        "no_significant_synonyms": acc.no_significant_synonyms,
        "no_cluster_output": acc.no_cluster_output,
        "disambiguated": acc.disambiguated,
        "clusters": len(result.clusters),
    }
    write_manifest(run, "cluster", counts)
    logger.info(
        "cluster: %(disambiguated)d mentions in %(clusters)d entities, "
        "%(no_significant_synonyms)d without synonyms, %(no_cluster_output)d noise",
        counts,
    )


def _read_clusters(path, mentions: list[str]) -> list[clustering.Cluster]:
    """The clusters of clusters.tsv: one name_id each, among its members; one cluster per member.

    Each row's name and member must be the mentions of its name_id and member_id.
    """
    grouped: dict[int, tuple[int, list[int]]] = {}
    seen: set[int] = set()

    def row(fields: list[str]) -> None:
        idx, name_id, member_id = int(fields[0]), int(fields[1]), int(fields[3])
        checks = (("name", name_id, fields[2]), ("member", member_id, fields[4]))
        for column, mention_id, text in checks:
            if not 0 <= mention_id < len(mentions):
                raise KeyError(mention_id)
            if text != mentions[mention_id]:
                want = mentions[mention_id]
                raise ValueError(f"{column} {text!r} is not mention {mention_id}, {want!r}")
        if member_id in seen:
            raise ValueError(f"member {member_id} is listed again")
        seen.add(member_id)
        if grouped.setdefault(idx, (name_id, []))[0] != name_id:
            raise ValueError(f"cluster {idx} already has name_id {grouped[idx][0]}")
        grouped[idx][1].append(member_id)

    read_tsv(path, CLUSTERS_HEADER, row)
    unnamed = {idx for idx, (name_id, members) in grouped.items() if name_id not in members}

    def named(fields: list[str]) -> None:
        if int(fields[0]) in unnamed:
            raise ValueError(f"name_id {fields[1]} is not a member of cluster {fields[0]}")

    if unnamed:
        read_tsv(path, CLUSTERS_HEADER, named)  # again, only to find the line to name
    return [
        clustering.Cluster(
            members=tuple(sorted(members)), name_id=name_id, name=mentions[name_id]
        )
        for _, (name_id, members) in sorted(grouped.items())
    ]


def _read_registry_details(path: Path) -> dict[str, dict]:
    """Registry page details: a JSON object mapping entry names to objects."""
    try:
        details = read_json(path)
    except ValueError as err:
        raise FormatError(f"{path}: not a UTF-8 JSON document: {err}") from None
    if not isinstance(details, dict) or not all(isinstance(v, dict) for v in details.values()):
        raise FormatError(f"{path}: expected a JSON object of objects")
    return details


def build_link_sources(
    cfg: PipelineConfig, names: RegistryNames, record: Callable[[Path], object]
) -> linking.Backends:
    """The configured lookup backends, in linking.precedence order; ``record`` gets each file."""
    backends = {}
    for source, entries in names.items():
        path = cfg.registry_details and Path(cfg.registry_details, f"{source.value}.json")
        details = {}
        if path and path.exists():
            record(path)
            details = _read_registry_details(path)
        backends[source] = linking.RegistrySnapshot(source=source, names=entries, details=details)
    apis = (
        (LinkSource.KNOWLEDGE_BASE, cfg.kb_snapshots),
        (LinkSource.CODE_HOST, cfg.codehost_snapshots),
    )
    for source, directory in apis:
        if directory:
            backends[source] = linking.ApiSnapshot(source, Path(directory))
    precedence = map(LinkSource, cfg.precedence)
    return {source: backends[source] for source in precedence if source in backends}


def stage_link(cfg: PipelineConfig, run: Products | None = None) -> None:
    """Online, fetch what the snapshots lack; then link mentions and propagate cluster links."""
    run = run or Products(cfg)
    out = run.out
    mentions, clusters = run.ids[1], run.clusters
    sources = build_link_sources(cfg, run.names, run.used.add)
    soft_errors: list[str] = []
    if not cfg.offline:
        fetchers = {LinkSource.CODE_HOST: linking.code_host_fetcher()}
        if cfg.kb_api_url:
            fetchers[LinkSource.KNOWLEDGE_BASE] = linking.knowledge_base_fetcher(cfg.kb_api_url)
        linking.fetch_documents(mentions, sources, fetchers, soft_errors)
    collected: dict[LinkSource, list[dict]] = {}
    links = linking.link_mentions(
        mentions, sources, soft_errors=soft_errors, collect_raw=collected
    )
    rows = linking.metadata_rows(linking.propagate_links(clusters, links), mentions, links)
    linking.write_metadata_tsv(out / METADATA, rows)
    linking.write_normalized_csvs(out / NORMALIZED, rows)
    linking.write_raw_csvs(out / RAW, collected)
    report = linking.link_report(rows)
    linking.write_link_report_tsv(out / LINK_REPORT, report)
    counts = {
        "linked_mentions": len(rows),
        "directly_linked_names": len(links),
        "by_source": {source: count for source, count, _ in report},
        "soft_errors": len(soft_errors),
    }
    write_manifest(run, "link", counts)
    logger.info("link: %d mentions linked", len(rows))


def _eval_files(cfg: PipelineConfig) -> list[str]:
    """The eval.* files that each yield a metric; the predicted pairs only feed one."""
    return [
        cfg.eval_synonyms, cfg.eval_curation_multi, cfg.eval_curation_binary,
        cfg.eval_linking, cfg.eval_ratings_two, cfg.eval_ratings_five,
    ]


def stage_evaluate(cfg: PipelineConfig, run: Products | None = None) -> dict:
    """Score each configured evaluation file with its metric."""
    from . import evaluation  # here, so that no other stage loads it

    run = run or Products(cfg)
    if not any(_eval_files(cfg)):
        raise SoftMentionsError("missing input: no evaluation files configured (eval.*)")
    metrics: dict = {}
    opened: list[Path] = []

    def load(path: str, what: str, read: Callable[[Path], T]) -> T:
        opened.append(run.use(path, what))
        return read(opened[-1])

    # Each metric is computed right after its file is read, so a ValueError
    # (rows that leave the metric undefined) concerns the last file read.
    try:
        if cfg.eval_synonyms:
            labeled = load(cfg.eval_synonyms, "synonym labels", evaluation.read_synonym_labels)
            if cfg.eval_predicted_pairs:
                predicted = load(
                    cfg.eval_predicted_pairs, "predicted pairs", evaluation.read_predicted_pairs
                )
            else:
                predicted = [(row.mention, row.synonym) for row in labeled]
                logger.warning("no predicted pairs configured; evaluating the labeled set itself")
            metrics["synonyms"] = vars(evaluation.synonym_prf(predicted, labeled))
        for key, path, k in (
            ("precision_at_1k", cfg.eval_curation_multi, 1000),
            ("precision_at_10k", cfg.eval_curation_binary, 10000),
        ):
            if path:
                rows = load(path, f"curation ({key})", evaluation.read_curation_rows)
                metrics[key] = evaluation.precision_at_k(rows, min(k, len(rows)))
        if cfg.eval_linking:
            summary = evaluation.link_eval_summary(
                load(cfg.eval_linking, "link evaluation", evaluation.read_link_eval)
            )
            metrics["linking"] = {
                part: {label: {"count": c, "percent": p} for label, (c, p) in shares.items()}
                for part, shares in vars(summary).items()
            }
        for key, path in (
            ("two_categories", cfg.eval_ratings_two),
            ("five_categories", cfg.eval_ratings_five),
        ):
            if path:
                grid = load(path, f"ratings ({key})", evaluation.read_ratings_csv)
                metrics.setdefault("agreement", {})[key] = evaluation.agreement(grid)
    except ValueError as err:
        raise FormatError(f"{opened[-1]}: {err}") from None
    out = run.out
    write_text(out / METRICS_JSON, json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    lines = []
    def flatten(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                flatten(f"{prefix}.{key}" if prefix else key, value[key])
        else:
            lines.append(f"{prefix} = {value}")
    flatten("", metrics)
    write_text(out / METRICS_TXT, "\n".join(lines) + "\n")
    write_manifest(run, "evaluate", {"metrics": len(lines)})
    logger.info("evaluate: wrote %d metric values", len(lines))
    return metrics


def run_all(cfg: PipelineConfig) -> None:
    """Every stage in turn over one store, so each reads its predecessors' values, not files."""
    run = Products(cfg)
    stage_ingest(cfg, run)
    stage_synonyms(cfg, run)
    stage_cluster(cfg, run)
    # The corpus is the largest value; linking needs none of these.
    del run.values["rows"], run.values["freq"], run.values["pairs"]
    stage_link(cfg, run)
    if any(_eval_files(cfg)):
        stage_evaluate(cfg, run)


class Stage(NamedTuple):
    """One stage's facts: its command, and what the freshness rule and the sweep read."""

    run: Callable[..., object]
    artifacts: tuple[str, ...] = ()  # written here, loaded by a later stage
    settings: tuple[str, ...] = ()  # besides the files its manifest records, what those depend on
    directories: tuple[str, ...] = ()  # out/ subdirectories it writes, swept of temporaries


STAGES = {
    "ingest": Stage(stage_ingest, (MENTION2ID, FREQUENCIES), ("corpus.kind", "parsing.strict")),
    "synonyms": Stage(stage_synonyms, (SYNONYMS,), ("thresholds.record",)),
    "cluster": Stage(stage_cluster, (CLUSTERS,), ("thresholds.use", "dbscan.eps", "dbscan.min_pts")),
    "link": Stage(stage_link, directories=(NORMALIZED, RAW)),
    "evaluate": Stage(stage_evaluate),
}
# Each artifact a later stage loads, and the stage whose manifest records how it was made.
ARTIFACTS = {name: stage for stage, line in STAGES.items() for name in line.artifacts}
COMMANDS = {**{stage: line.run for stage, line in STAGES.items()}, "run-all": run_all}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so that a stage called from a script does not load it

    parser = argparse.ArgumentParser(
        prog="softmentions",
        description="Disambiguate software mentions and link them to registries.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument("--config", help="key = value configuration file")
        cmd.add_argument("--out", help="output directory (overrides paths.out_dir)")
        cmd.add_argument("--offline", dest="offline", action="store_true", default=None,
                         help="snapshot-only lookups (default)")
        cmd.add_argument("--online", dest="offline", action="store_false",
                         help="allow live API lookups")
        cmd.add_argument("--workers", help="parallel worker count")
        cmd.add_argument("--strict", dest="strict", action="store_true", default=None,
                         help="fail on malformed rows (default)")
        cmd.add_argument("--lenient", dest="strict", action="store_false",
                         help="skip malformed rows with a warning")
        cmd.add_argument("--set", dest="settings", action="append", default=[],
                         metavar="KEY=VALUE", help="override any configuration key")
    return parser


def configure(args: argparse.Namespace) -> PipelineConfig:
    """The --config file's settings, then each --set, then the flags, validated."""

    def settings() -> Iterator[Setting]:
        if args.config:
            yield from read_config(args.config)
        for item in args.settings:
            if "=" not in item:
                raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            yield f"--set {item}", key.strip(), value.strip()
        # Each flag is an alias of its key's --set and, coming last, wins over it.
        flags = (
            (f"--out {args.out}", "paths.out_dir", args.out or None),
            ("--offline" if args.offline else "--online", "linking.offline", args.offline),
            (f"--workers {args.workers}", "parallelism.workers", args.workers),
            ("--strict" if args.strict else "--lenient", "parsing.strict", args.strict),
        )
        for origin, key, value in flags:
            if value is not None:
                yield origin, key, str(value)

    return resolve_config(settings())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = configure(args)
        COMMANDS[args.command](cfg)
    except ValidationError as err:
        logger.error("configuration error: %s", err)
        return 1
    except (SoftMentionsError, OSError) as err:
        logger.error("%s", err)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
