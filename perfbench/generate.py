"""Seeded, stdlib-only input generator for the benchmark workloads.

``generate(workload, seed, dest)`` writes every input file the program
reads into ``dest`` and returns the plan: what the inputs contain, written
down while they are made, so that the output checks never have to trust
the program to say what its inputs were. The same seed always produces the
same bytes.

Workloads:

* ``join``: run-all over a corpus of ``JOIN_MENTIONS`` unique mentions
  with one to three papers each. The mentions mix the spelling families
  in ``tests/data/variants`` with random single- and multi-token names
  and their case, typo, hyphen, suffix and version mutations.
* ``corpus``: run-all over ``CORPUS_ROWS`` rows that spread
  ``CORPUS_MENTIONS`` unique mentions over ``CORPUS_PAPERS`` papers with
  Zipf-like weights.
* ``recluster``: cluster then link over ``mention2id.tsv``,
  ``frequencies.tsv`` and ``synonyms.tsv`` written here, with
  ``RECLUSTER_FAMILIES`` planted families among ``RECLUSTER_MENTIONS``
  mentions, registry lists of about 2,000 names and about 1,600 JSON
  snapshot files.
"""
from __future__ import annotations

import json
import random
import urllib.parse
from pathlib import Path

JOIN_MENTIONS = 450
JOIN_VARIANT_LINES = 80
CORPUS_MENTIONS = 200
CORPUS_ROWS = 30_000
CORPUS_PAPERS = 8_000
RECLUSTER_MENTIONS = 8_000
RECLUSTER_FAMILIES = 1_600

RECORD_THRESHOLD = 0.9
USE_THRESHOLD = 0.97
PRECEDENCE = ("PkgIndexBioc", "PkgIndexR", "PkgIndexPy", "KnowledgeBaseAPI", "CodeHostAPI")
REGISTRY_FILES = {
    "PkgIndexPy": "registry_py.txt",
    "PkgIndexR": "registry_r.txt",
    "PkgIndexBioc": "registry_bioc.txt",
}
# Keyword lists the program documents for keyword expansion (README,
# "registry keyword expansion"); the generator plants mentions with them.
REGISTRY_KEYWORDS = {
    "PkgIndexPy": ("python", "Python", "API"),
    "PkgIndexR": ("R", "r", "package", "Package", "R-package", "R-Package", "r-package"),
    "PkgIndexBioc": (
        "R", "r", "package", "Package", "R-package", "R-Package", "r-package",
        "bioconductor", "Bioconductor",
    ),
}
STOPLIST = ("R package", "r package", "interface", "software", "toolbox", "program")

CORPUS_HEADER = (
    "license", "location", "pmcid", "pmid", "doi", "pubdate", "source",
    "number", "text", "software", "version", "ID", "curation_label",
)
SECTIONS = ("materials and methods", "results", "methods", "supplementary material")
TEMPLATES = (
    "Analysis was performed with {} as described.",
    "Images were processed in {} (see Methods).",
    "Statistics were computed using {}.",
    "Data were aligned with {} using default parameters.",
)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_SUFFIXES = (" software", " package", " toolbox", " suite", " tool", " program")
_VERSIONS = (" 2", " v2", " 3.1", " 1.0.2", " v4.2", " 2020", " II")
_MUTATIONS = ("case", "typo", "hyphen", "suffix", "version")

VARIANTS_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "variants"


def _word(rng: random.Random, length: int) -> str:
    letters = [
        rng.choice(_CONSONANTS if k % 2 == 0 else _VOWELS) for k in range(length)
    ]
    return "".join(letters)


def _cycle(k: int, lo: int, hi: int) -> int:
    return lo + k % (hi - lo + 1)


def random_name(rng: random.Random, k: int) -> str:
    """The k-th single-token or multi-token software-like name.

    Style and lengths follow ``k`` and only the letters are random, so the
    length profile, which sets the cost of the string join, is the same for
    every seed.
    """
    style, j = k % 6, k // 6
    if style == 0:
        return _word(rng, _cycle(j, 3, 5)).upper()
    if style == 1:
        return _word(rng, _cycle(j, 5, 11))
    if style == 2:
        return _word(rng, _cycle(j, 5, 10)).capitalize()
    if style == 3:
        return _word(rng, _cycle(j, 3, 6)).capitalize() + _word(rng, _cycle(j + 1, 3, 5)).capitalize()
    if style == 4:
        return " ".join(
            _word(rng, _cycle(j + t, 3, 8)).capitalize() for t in range(2 + j % 2)
        )
    return _word(rng, _cycle(j, 3, 7)) + "-" + _word(rng, _cycle(j + 2, 2, 6))


def mutate(rng: random.Random, name: str, kind: str) -> str:
    """One case, typo, hyphen, suffix or version variant of ``name``."""
    if kind == "case":
        choice = rng.randrange(3)
        if choice == 0 and name != name.lower():
            return name.lower()
        if choice == 1 and name != name.upper():
            return name.upper()
        return name[0].swapcase() + name[1:]
    if kind == "typo":
        pos = rng.randrange(1, len(name))
        op = rng.randrange(4)
        letter = rng.choice(_CONSONANTS + _VOWELS)
        if op == 0:
            return name[:pos] + letter + name[pos + 1:]
        if op == 1 and len(name) > 3:
            return name[:pos] + name[pos + 1:]
        if op == 2 and pos < len(name) - 1:
            return name[:pos] + name[pos + 1] + name[pos] + name[pos + 2:]
        return name[:pos] + letter + name[pos:]
    if kind == "hyphen":
        if " " in name:
            return name.replace(" ", "-", 1)
        if "-" in name:
            return name.replace("-", " ", 1)
        mid = max(1, len(name) // 2)
        return name[:mid] + "-" + name[mid:]
    if kind == "suffix":
        return name + rng.choice(_SUFFIXES)
    if kind == "version":
        return name + rng.choice(_VERSIONS)
    raise ValueError(f"unknown mutation {kind!r}")


def read_variant_families() -> dict[str, list[str]]:
    families = {}
    for path in sorted(VARIANTS_DIR.glob("*.txt")):
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        families[path.stem] = list(dict.fromkeys(lines))
    if not families:
        raise FileNotFoundError(f"no spelling families under {VARIANTS_DIR}")
    return families


def _tokens(text: str) -> tuple[str, ...]:
    """Maximal runs of alphanumeric characters (underscore separates)."""
    out, current = [], []
    for ch in text:
        if ch.isalnum():
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return tuple(out)


def _has_run(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    span = len(needle)
    return any(haystack[k:k + span] == needle for k in range(len(haystack) - span + 1))


def keyword_pairs(mentions: list[str], registries: dict[str, list[str]]) -> set[tuple[str, str]]:
    """Entry/mention pairs the documented keyword rule yields, as sorted string pairs."""
    mention_set = set(mentions)
    toks = {m: _tokens(m) for m in mentions}
    out = set()
    for source, entries in registries.items():
        keywords = [_tokens(k) for k in REGISTRY_KEYWORDS[source]]
        for entry in entries:
            if len(entry) < 2 or entry not in mention_set:
                continue
            entry_toks = toks[entry]
            for mention in mentions:
                if mention == entry or entry not in mention or not entry_toks:
                    continue
                if _has_run(toks[mention], entry_toks) and any(
                    _has_run(toks[mention], kw) for kw in keywords
                ):
                    out.add(tuple(sorted((entry, mention))))
    return out


def _tsv(header, rows) -> str:
    lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _corpus_row(rng: random.Random, mention: str, paper: tuple[str, str], number: int) -> tuple:
    pmcid, doi = paper
    location = f"comm/bench/PMC{pmcid}.nxml" if pmcid else "comm/bench/doi.nxml"
    return (
        "comm", location, pmcid, "", doi, str(rng.choice((2018, 2019, 2020, 2021))),
        rng.choice(SECTIONS), str(number), rng.choice(TEMPLATES).format(mention),
        mention, "", "", "not_curated",
    )


def _paper(index: int) -> tuple[str, str]:
    """Every tenth paper is known by its DOI only."""
    if index % 10 == 9:
        return "", f"10.5555/bench.{index}"
    return str(7_000_000 + index), ""


def _unique_names(
    rng: random.Random, count: int, taken: set[str], start: int = 0
) -> list[str]:
    """``count`` new names, from the ``start``-th name of the schedule on."""
    names = []
    k = start
    while len(names) < count:
        name = random_name(rng, k)
        k += 1
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


def _mutation_families(
    rng: random.Random, target: int, taken: set[str], per_base: int
) -> tuple[list[str], list[tuple[str, str]]]:
    """Random bases plus mutations until ``target`` new names exist."""
    names: list[str] = []
    pairs: list[tuple[str, str]] = []
    bases = 0
    while len(names) < target:
        base = _unique_names(rng, 1, taken, start=bases)[0]
        names.append(base)
        for i in range(per_base):
            if len(names) >= target:
                break
            variant = mutate(rng, base, _MUTATIONS[(bases + i) % len(_MUTATIONS)])
            if variant in taken or variant.strip() != variant:
                continue
            taken.add(variant)
            names.append(variant)
            pairs.append((base, variant))
        bases += 1
    return names, pairs


def _registries_and_kb(
    rng: random.Random, mentions: list[str], taken: set[str], per_registry: int
) -> tuple[dict[str, list[str]], list[str], dict[str, list[str]]]:
    """Small registries with planted keyword mentions, and a KB dictionary.

    Returns (registries, new keyword mentions, kb dictionary).
    """
    registries: dict[str, list[str]] = {}
    planted: list[str] = []
    pool = sorted(m for m in mentions if " " not in m and "-" not in m and len(m) >= 4)
    picks = rng.sample(pool, 3 * per_registry)
    for k, source in enumerate(("PkgIndexPy", "PkgIndexR", "PkgIndexBioc")):
        entries = picks[k * per_registry:(k + 1) * per_registry]
        fillers = _unique_names(rng, per_registry, taken)
        registries[source] = sorted(entries + fillers)
        for entry in entries:
            keyword = rng.choice(REGISTRY_KEYWORDS[source])
            for candidate in (f"{entry} {keyword}", f"{keyword} {entry}"):
                if candidate not in taken:
                    taken.add(candidate)
                    planted.append(candidate)
                    break
    everyone = mentions + planted
    kb: dict[str, list[str]] = {}
    for key in rng.sample(sorted(everyone), 2 * per_registry):
        others = rng.sample(everyone, 2)
        kb[key] = [s for s in others if s != key] + [key + " (unlisted)"]
    return registries, planted, kb


def _kb_doc(name: str, idx: int) -> dict:
    return {
        "Description": f"Benchmark record {idx}.",
        "Resource ID": f"SCR_{900000 + idx}",
        "Resource ID Link": f"https://scicrunch.org/resolver/SCR_{900000 + idx}",
        "Resource Name": name,
        "software_name": name,
    }


def _codehost_doc(name: str, matches: bool) -> dict:
    match = name.lower() if matches else name.lower() + "-fork"
    return {
        "best_github_match": match,
        "description": f"Repository for {name}.",
        "exact_match": "True",
        "github_url": f"https://github.com/bench/{match}",
        "license": "MIT",
        "software_mention": name,
    }


def _write_sources(
    dest: Path,
    registries: dict[str, list[str]],
    kb: dict[str, list[str]],
    kb_docs: dict[str, dict],
    codehost_docs: dict[str, dict],
) -> None:
    for source, names in registries.items():
        _write(dest / REGISTRY_FILES[source], "".join(n + "\n" for n in names))
    _write(dest / "kb_synonyms.tsv", _tsv(("key", "synonym"), [
        (key, syn) for key in sorted(kb) for syn in kb[key]
    ]))
    _write(dest / "stoplist.txt", "".join(s + "\n" for s in STOPLIST))
    for directory, docs in (("snapshots/kb", kb_docs), ("snapshots/codehost", codehost_docs)):
        (dest / directory).mkdir(parents=True, exist_ok=True)
        for name, doc in docs.items():
            _write(
                dest / directory / (urllib.parse.quote(name, safe="") + ".json"),
                json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1),
            )


def _direct_links(
    mentions: list[str],
    registries: dict[str, list[str]],
    kb_docs: dict[str, dict],
    codehost_docs: dict[str, dict],
) -> dict[str, str]:
    """The highest-precedence source whose record carries a package URL."""
    found = {}
    registry_sets = {source: set(names) for source, names in registries.items()}
    for mention in mentions:
        for source in PRECEDENCE:
            if source in registry_sets:
                hit = mention in registry_sets[source]
            elif source == "KnowledgeBaseAPI":
                hit = bool(kb_docs.get(mention, {}).get("Resource ID Link"))
            else:
                doc = codehost_docs.get(mention)
                hit = doc is not None and doc["best_github_match"].lower() == mention.lower()
            if hit:
                found[mention] = source
                break
    return found


def _config(dest: Path) -> None:
    lines = [
        "paths.corpus = corpus.tsv",
        "corpus.kind = comm",
        "paths.registry_py = registry_py.txt",
        "paths.registry_r = registry_r.txt",
        "paths.registry_bioc = registry_bioc.txt",
        "paths.kb_dict = kb_synonyms.tsv",
        "paths.stoplist = stoplist.txt",
        "paths.kb_snapshots = snapshots/kb",
        "paths.codehost_snapshots = snapshots/codehost",
        "paths.out_dir = out",
        f"thresholds.record = {RECORD_THRESHOLD}",
        f"thresholds.use = {USE_THRESHOLD}",
        "dbscan.eps = 0.03",
        "dbscan.min_pts = 2",
        "linking.offline = true",
        "parallelism.workers = 1",
    ]
    _write(dest / "config.cfg", "\n".join(lines) + "\n")


def _frequencies(rows: list[tuple]) -> dict[str, int]:
    papers: dict[str, set[str]] = {}
    for row in rows:
        key = f"pmcid:{row[2]}" if row[2] else f"doi:{row[4]}"
        papers.setdefault(row[9], set()).add(key)
    return {m: len(keys) for m, keys in papers.items()}


def _link_sources(
    rng: random.Random, mentions: list[str], n_kb: int, n_codehost: int
) -> tuple[dict[str, dict], dict[str, dict]]:
    ordered = sorted(mentions)
    kb_names = rng.sample(ordered, n_kb)
    kb_docs = {name: _kb_doc(name, k) for k, name in enumerate(kb_names)}
    codehost_docs = {
        name: _codehost_doc(name, matches=k % 5 != 4)
        for k, name in enumerate(rng.sample(ordered, n_codehost))
    }
    return kb_docs, codehost_docs


def _run_all_plan(
    rng: random.Random,
    dest: Path,
    mentions: list[str],
    rows: list[tuple],
    registries: dict[str, list[str]],
    kb: dict[str, list[str]],
    variant_pairs: list[tuple[str, str]],
) -> dict:
    kb_docs, codehost_docs = _link_sources(rng, mentions, 12, 12)
    _write(dest / "corpus.tsv", _tsv(CORPUS_HEADER, rows))
    _write_sources(dest, registries, kb, kb_docs, codehost_docs)
    _config(dest)
    mention_set = set(mentions)
    kb_pairs = {
        tuple(sorted((key, syn)))
        for key, syns in kb.items()
        for syn in syns
        if key != syn and key in mention_set and syn in mention_set
    }
    return {
        "mode": "run-all",
        "mentions": sorted(mentions),
        "frequencies": _frequencies(rows),
        "rows": len(rows),
        "corpus": "corpus.tsv",
        "variant_pairs": sorted(variant_pairs),
        "kb_pairs": sorted(kb_pairs),
        "keyword_pairs": sorted(keyword_pairs(mentions, registries)),
        "stoplist": list(STOPLIST),
        "links": _direct_links(mentions, registries, kb_docs, codehost_docs),
        "record_threshold": RECORD_THRESHOLD,
        "use_threshold": USE_THRESHOLD,
    }


def generate_join(seed: int, dest: Path) -> dict:
    rng = random.Random(f"join:{seed}")
    families = read_variant_families()
    # One line from each of JOIN_VARIANT_LINES length strata, so that every
    # seed draws the same length profile.
    lines = sorted({line for lines in families.values() for line in lines}, key=lambda l: (len(l), l))
    bounds = [round(k * len(lines) / JOIN_VARIANT_LINES) for k in range(JOIN_VARIANT_LINES + 1)]
    chosen = {lines[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])}
    variant_pairs = []
    for family in families.values():
        members = sorted(m for m in family if m in chosen)
        variant_pairs.extend(
            (a, b) for k, a in enumerate(members) for b in members[k + 1:]
        )
    taken = set(chosen)
    names, mutation_pairs = _mutation_families(
        rng, JOIN_MENTIONS - len(chosen) - 30, taken, per_base=3
    )
    mentions = sorted(chosen) + names
    registries, planted, kb = _registries_and_kb(rng, mentions, taken, 5)
    mentions += planted
    mentions += _unique_names(rng, JOIN_MENTIONS - len(mentions), taken)
    rows = []
    next_paper = 0
    for mention in mentions:
        for _ in range(rng.randint(1, 3)):
            rows.append(_corpus_row(rng, mention, _paper(next_paper), rng.randint(1, 40)))
            next_paper += 1
        if rng.random() < 0.1:
            rows.append(_corpus_row(rng, mention, _paper(next_paper - 1), rng.randint(1, 40)))
    rng.shuffle(rows)
    return _run_all_plan(
        rng, dest, mentions, rows, registries, kb, variant_pairs + mutation_pairs
    )


def generate_corpus(seed: int, dest: Path) -> dict:
    rng = random.Random(f"corpus:{seed}")
    taken: set[str] = set()
    names, mutation_pairs = _mutation_families(rng, CORPUS_MENTIONS - 30, taken, per_base=2)
    registries, planted, kb = _registries_and_kb(rng, names, taken, 5)
    mentions = names + planted
    mentions += _unique_names(rng, CORPUS_MENTIONS - len(mentions), taken)
    order = list(mentions)
    rng.shuffle(order)
    cumulative, total = [], 0.0
    for rank in range(len(order)):
        total += 1.0 / (rank + 1) ** 1.1
        cumulative.append(total)
    # Every mention appears at least once, the rest follow the Zipf weights.
    picks = list(order) + rng.choices(order, cum_weights=cumulative, k=CORPUS_ROWS - len(order))
    papers = [rng.randrange(CORPUS_PAPERS) for _ in picks]
    rows = [
        _corpus_row(rng, mention, _paper(paper), rng.randint(1, 80))
        for paper, mention in sorted(zip(papers, picks), key=lambda pm: pm[0])
    ]
    return _run_all_plan(rng, dest, mentions, rows, registries, kb, mutation_pairs)


def generate_recluster(seed: int, dest: Path) -> dict:
    """Stage artifacts for a cluster + link re-run with planted families.

    Families are chained by edges at or above the use threshold; other
    edges either fall below it, touch a stoplisted term or repeat a pair
    from another channel, so none of them may change the clusters.
    """
    rng = random.Random(f"recluster:{seed}")
    taken: set[str] = set(STOPLIST)
    families: list[list[str]] = []
    # Sizes cycle through 2..5 so that every seed has the same structure.
    for f, size in enumerate(([2, 3, 4, 5] * RECLUSTER_FAMILIES)[:RECLUSTER_FAMILIES]):
        base = _unique_names(rng, 1, taken, start=f)[0]
        members = [base]
        attempt = f
        while len(members) < size:
            variant = mutate(rng, base, _MUTATIONS[attempt % len(_MUTATIONS)])
            attempt += 1
            if variant not in taken and variant.strip() == variant:
                taken.add(variant)
                members.append(variant)
        families.append(members)
    in_families = sum(len(f) for f in families)
    singletons = _unique_names(rng, RECLUSTER_MENTIONS - in_families - len(STOPLIST), taken)
    mentions = sorted([m for f in families for m in f] + singletons + list(STOPLIST))
    ids = {m: k for k, m in enumerate(mentions)}

    def freq_draw() -> int:
        roll = rng.random()
        if roll < 0.7:
            return 1
        if roll < 0.9:
            return 2
        if roll < 0.97:
            return rng.randint(3, 6)
        return rng.randint(7, 40)

    frequencies = {m: freq_draw() for m in mentions}
    family_of = {m: k for k, f in enumerate(families) for m in f}
    edges: dict[tuple[int, int, str], float] = {}

    def edge(a: str, b: str, conf: float, source: str) -> None:
        key = (*sorted((ids[a], ids[b])), source)
        edges[key] = max(conf, edges.get(key, 0.0))

    def above_use() -> float:
        return round(rng.uniform(USE_THRESHOLD, 0.999), 6)

    for members in families:
        chain = list(members)
        rng.shuffle(chain)
        for a, b in zip(chain, chain[1:]):
            roll = rng.random()
            if roll < 0.15:
                edge(a, b, 1.0, "KnowledgeBase")
            elif roll < 0.3:
                edge(a, b, 0.99, "KeywordIndex")
            else:
                edge(a, b, above_use(), "StringSimilarity")
            if rng.random() < 0.1:
                edge(a, b, above_use(), "StringSimilarity")
        if len(chain) > 2 and rng.random() < 0.3:
            edge(chain[0], chain[-1], above_use(), "StringSimilarity")
    pool = [m for f in families for m in f] + singletons
    while len(edges) < 2 * len(families) + in_families:
        a, b = rng.sample(pool, 2)
        if family_of.get(a, -1) != family_of.get(b, -2):
            edge(a, b, round(rng.uniform(RECORD_THRESHOLD, 0.965), 6), "StringSimilarity")
    for term in STOPLIST:
        for other in rng.sample(pool, 25):
            if rng.random() < 0.3:
                edge(term, other, 1.0, "KnowledgeBase")
            else:
                edge(term, other, 0.98, "StringSimilarity")

    artifacts = dest / "artifacts"
    _write(artifacts / "mention2id.tsv", _tsv(("mention", "id"), [(m, str(ids[m])) for m in mentions]))
    _write(artifacts / "frequencies.tsv", _tsv(
        ("mention", "frequency"), [(m, str(frequencies[m])) for m in mentions]
    ))
    _write(artifacts / "synonyms.tsv", _tsv(
        ("ID", "synonym_ID", "software_mention", "synonym", "synonym_conf", "synonym_source"),
        [
            (str(i), str(j), mentions[i], mentions[j], repr(edges[(i, j, src)]), src)
            for i, j, src in sorted(edges)
        ],
    ))

    rows = []
    next_paper = 0
    for mention in mentions:
        for _ in range(frequencies[mention]):
            rows.append(_corpus_row(rng, mention, _paper(next_paper), rng.randint(1, 40)))
            next_paper += 1
    rng.shuffle(rows)
    _write(dest / "corpus.tsv", _tsv(CORPUS_HEADER, rows))

    ordered = sorted(pool)
    # About one mention in six is in a registry, one in ten has a knowledge
    # base record and one in ten a code-host record.
    sixth = len(ordered) // 6
    registry_names = rng.sample(ordered, sixth)
    registries = {
        "PkgIndexPy": registry_names[: sixth // 2],
        "PkgIndexR": registry_names[sixth // 2: sixth * 4 // 5],
        "PkgIndexBioc": registry_names[sixth * 4 // 5:],
    }
    for source in registries:
        registries[source] = sorted(registries[source] + _unique_names(rng, sixth // 6, taken))
    kb_docs, codehost_docs = _link_sources(rng, pool, len(pool) // 10, len(pool) // 10)
    _write_sources(dest, registries, {}, kb_docs, codehost_docs)
    _config(dest)
    return {
        "mode": "recluster",
        "mentions": mentions,
        "frequencies": frequencies,
        "rows": len(rows),
        "corpus": "corpus.tsv",
        "families": sorted(sorted(f) for f in families),
        "stoplist": list(STOPLIST),
        "links": _direct_links(mentions, registries, kb_docs, codehost_docs),
        "record_threshold": RECORD_THRESHOLD,
        "use_threshold": USE_THRESHOLD,
    }


GENERATORS = {
    "join": generate_join,
    "corpus": generate_corpus,
    "recluster": generate_recluster,
}


def generate(workload: str, seed: int, dest: Path) -> dict:
    """Write the workload's inputs under ``dest`` and return its plan."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    plan = GENERATORS[workload](seed, dest)
    plan.update(workload=workload, seed=seed)
    return plan


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write a workload's inputs and plan.json.")
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True, help="directory to write into")
    args = parser.parse_args()
    plan = generate(args.workload, args.seed, Path(args.dest))
    (Path(args.dest) / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
