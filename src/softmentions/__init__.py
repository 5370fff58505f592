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
from .evaluation import (
    SynonymLabel,
    SynonymVerdict,
    fleiss_kappa,
    krippendorff_alpha,
    link_eval_summary,
    precision_at_k,
    synonym_prf,
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
