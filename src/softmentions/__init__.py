"""softmentions: disambiguate software mentions and link them to registries."""

from .clustering import (
    Accounting,
    Cluster,
    DisambiguationResult,
    dbscan,
    disambiguate_pairs,
    name_clusters,
)
from .config import PipelineConfig, load_config
from .errors import (
    ConsistencyError,
    ExternalServiceError,
    FormatError,
    RowError,
    SoftMentionsError,
    ValidationError,
)
from .graph import (
    SimilarityGraph,
    build_matrix,
    connected_components,
    post_process,
)
from .ingest import (
    CorpusRow,
    assign_ids,
    compute_frequencies,
    parse_mentions,
)
from .linking import (
    LinkedMetadata,
    LinkSource,
    exact_match_lookup,
    link_mentions,
    link_report,
    normalize_metadata,
    propagate_links,
)
from .synonyms import (
    SynonymPair,
    SynonymSource,
    all_pairs_similarity,
    generate_keyword_synonyms,
    generate_synonym_pairs,
    jaro_winkler,
    load_kb_synonyms,
)

__version__ = "0.1.0"

# Only the evaluate stage needs these, so their module loads on first use.
_EVALUATION_NAMES = frozenset({
    "SynonymLabel",
    "SynonymVerdict",
    "fleiss_kappa",
    "krippendorff_alpha",
    "link_eval_summary",
    "precision_at_k",
    "synonym_prf",
})


def __getattr__(name: str):
    """An evaluation name, imported when first asked for (PEP 562)."""
    if name in _EVALUATION_NAMES:
        from . import evaluation

        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
