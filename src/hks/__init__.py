"""Corpus knowledge scoring and high-knowledge data selection.

Quantifies how much categorized knowledge a document carries by
matching it against a large element pool, scores it with
density * ln(coverage + 1), and selects training subsets by top-k,
softmax sampling, or high/low mixtures.
"""

from .analysis import (PreferencePair, bucket_distribution, correlation_matrix,
                       function_search, pairwise_function_correlation,
                       spearman)
from .errors import (DataError, DegenerateDocumentError, EmptyPoolError,
                     HksError, ResourceError, StratumExhaustedError,
                     UsageError)
from .matcher import (Document, KnowledgeProfile, MatcherConfig, annotate,
                      build_automaton)
from .metrics import (ScoreFunction, ScoreRecord, ScoreTable,
                      all_score_functions, coverage, density, domain_score,
                      eval_score_function, hks_score, score_record)
from .pool import DOMAINS, KnowledgeElement, KnowledgePool, load_pool
from .selection import (SelectionSpec, gumbel_topk_sample, mix, select,
                        threshold_split, top_k)
from .textnorm import normalize

__version__ = "0.1.0"

__all__ = [
    "DOMAINS", "DataError", "DegenerateDocumentError", "Document",
    "EmptyPoolError", "HksError", "KnowledgeElement", "KnowledgePool",
    "KnowledgeProfile", "MatcherConfig", "PreferencePair", "ResourceError",
    "ScoreFunction", "ScoreRecord", "ScoreTable", "SelectionSpec",
    "StratumExhaustedError", "UsageError", "all_score_functions", "annotate",
    "bucket_distribution", "build_automaton", "correlation_matrix",
    "coverage", "density", "domain_score", "eval_score_function",
    "function_search", "gumbel_topk_sample", "hks_score", "load_pool", "mix",
    "normalize", "pairwise_function_correlation", "score_record", "select",
    "spearman", "threshold_split", "top_k",
]
