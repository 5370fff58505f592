"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the package's public functions with timing
wrappers in every module namespace that binds them, which is where their
callers look them up, so no file of the package changes. Spans are kept in
memory as (name, start, end, parent) and summed at the end; a span's self
time is its duration minus the durations of its direct children. Some
functions only count (the Jaro-Winkler kernel and the snapshot lookups run
tens of thousands of times and would drown in span overhead).
"""
from __future__ import annotations

import os
import sys
import time
from collections import Counter

# (module, attribute, span name); "Class.method" patches a method.
SPANS = (
    ("cli", "stage_ingest", "cli.ingest"),
    ("cli", "stage_synonyms", "cli.synonyms"),
    ("cli", "stage_cluster", "cli.cluster"),
    ("cli", "stage_link", "cli.link"),
    ("cli", "write_manifest", "cli.manifest"),
    ("fileio", "open_text", "fileio.open"),
    ("fileio", "write_text", "fileio.write"),
    ("ingest", "parse_mentions", "ingest.parse"),
    ("ingest", "assign_ids", "ingest.assign_ids"),
    ("ingest", "compute_frequencies", "ingest.frequencies"),
    ("ingest", "read_id_table", "ingest.read_artifacts"),
    ("ingest", "read_frequencies", "ingest.read_artifacts"),
    ("synonyms", "generate_keyword_synonyms", "synonyms.keyword"),
    ("synonyms", "read_kb_dict", "synonyms.kb"),
    ("synonyms", "load_kb_synonyms", "synonyms.kb"),
    ("synonyms", "all_pairs_similarity", "synonyms.join"),
    ("synonyms", "read_synonyms_tsv", "synonyms.read_synonyms"),
    ("graph", "build_matrix", "graph.build_matrix"),
    ("graph", "post_process", "graph.post_process"),
    ("graph", "connected_components", "graph.components"),
    ("graph", "SimilarityGraph.submatrix", "clustering.submatrix"),
    ("clustering", "cluster_graph", "clustering.cluster_graph"),
    ("clustering", "dbscan", "clustering.dbscan"),
    ("clustering", "name_clusters", "clustering.name"),
    ("clustering", "write_disambiguated_tsv", "clustering.write_disambiguated"),
    ("linking", "link_mentions", "linking.link_mentions"),
    ("linking", "propagate_links", "linking.propagate"),
    ("linking", "write_metadata_tsv", "linking.write"),
    ("linking", "write_normalized_csvs", "linking.write"),
    ("linking", "write_raw_csvs", "linking.write"),
    ("linking", "write_link_report_tsv", "linking.write"),
)
COUNTS = (
    ("synonyms", "jaro_winkler", "synonyms.jw_calls"),
    ("linking", "RegistrySnapshot.lookup", "linking.lookups"),
    ("linking", "ApiSnapshot.lookup", "linking.lookups"),
)
GENERATORS = {"ingest.parse": "ingest.rows_parsed"}
# Counts taken when a span returns: name -> f(args, result) -> increments.
TALLIES = {
    "fileio.open": lambda args, _: {
        "fileio.files_opened": 1, "fileio.bytes_opened": os.path.getsize(args[0])
    },
    "fileio.write": lambda args, _: {"fileio.bytes_written": os.path.getsize(args[0])},
    "synonyms.keyword": lambda _, pairs: {"synonyms.keyword_pairs": len(pairs)},
    "synonyms.join": lambda _, pairs: {"synonyms.join_pairs": len(pairs)},
    "graph.post_process": lambda _, graph: {"graph.edges": len(graph.entries)},
    "graph.components": lambda _, components: {"graph.components": len(components)},
    "clustering.dbscan": lambda _, __: {"clustering.dbscan_calls": 1},
    "clustering.name": lambda _, clusters: {"clustering.clusters": len(clusters)},
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index]; the parent is -1 at top level.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if name in TALLIES:
                self.counts.update(TALLIES[name](args, result))
            return result

        return traced

    def generator_span(self, name: str, fn):
        rows = GENERATORS[name]

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                for item in fn(*args, **kwargs):
                    self.counts[rows] += 1
                    yield item
            finally:
                self._exit()

        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "linking.lookups" and result is not None:
                self.counts["linking.hits"] += 1
            return result

        return counted

    def install(self) -> None:
        for module, attr, name in SPANS:
            wrap = self.generator_span if name in GENERATORS else self.span
            _replace(module, attr, lambda fn, name=name, wrap=wrap: wrap(name, fn))
        for module, attr, name in COUNTS:
            _replace(module, attr, lambda fn, name=name: self.counter(name, fn))

    def summary(self) -> dict[str, float]:
        """Total seconds per span name, stage self times, and every count."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name + "_s"] = out.get(name + "_s", 0.0) + end - start
            if name.startswith("cli.") and name != "cli.manifest":
                key = name + "_self_s"
                out[key] = out.get(key, 0.0) + end - start - children
        out.update(self.counts)
        return out


def _replace(module: str, attr: str, make) -> None:
    """Swap ``attr`` of ``softmentions.<module>`` for ``make(original)``.

    Plain functions are replaced in every package module that binds the
    same object, since each caller looks the name up in its own module.
    """
    owner = sys.modules["softmentions." + module]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, method, make(getattr(cls, method)))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if (name == "softmentions" or name.startswith("softmentions.")) and getattr(
            mod, attr, None
        ) is original:
            setattr(mod, attr, wrapped)
