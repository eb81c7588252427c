"""Retrieval and reranking laboratory.

A BM25 first stage, four pointwise LLM scoring strategies (direct decision,
reason-then-decide, forced no-reasoning, self-consistency averaging), exact
ranking metrics, and score-distribution analysis, all deterministic and
runnable offline against a mock backend.
"""

from .backend import (
    BackendConfig,
    BackendError,
    HttpCompletionsBackend,
    MockBackend,
    ProtocolError,
    ReplayBackend,
    SamplingParams,
)
from .bm25 import (
    AnalyzerConfig,
    Bm25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    load_index,
    retrieve_top_k,
    save_index,
    tokenize,
)
from .metrics import (
    ClassificationReport,
    EvalReport,
    ScoreDistribution,
    bin_scores,
    classify,
    ndcg_at_k,
)
from .prompts import DEFAULT_TEMPLATE, PromptMode, PromptTemplate, assemble_prompt, load_template
from .rerank import (
    RerankStrategy,
    StrategyKind,
    derive_seed,
    relevance_from_logits,
    rerank,
    score_candidates,
    score_pair,
)
from .types import (
    Corpus,
    DecisionLogits,
    Passage,
    Query,
    ReasoningTrace,
    RunEntry,
    ScoredPair,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerConfig",
    "BackendConfig",
    "BackendError",
    "Bm25Params",
    "ClassificationReport",
    "Corpus",
    "DecisionLogits",
    "DEFAULT_TEMPLATE",
    "EvalReport",
    "HttpCompletionsBackend",
    "InvertedIndex",
    "MockBackend",
    "Passage",
    "PromptMode",
    "PromptTemplate",
    "ProtocolError",
    "Query",
    "ReasoningTrace",
    "ReplayBackend",
    "RerankStrategy",
    "RunEntry",
    "SamplingParams",
    "ScoreDistribution",
    "ScoredPair",
    "StrategyKind",
    "ValidationError",
    "assemble_prompt",
    "bin_scores",
    "bm25_score",
    "build_index",
    "classify",
    "derive_seed",
    "load_index",
    "load_template",
    "ndcg_at_k",
    "relevance_from_logits",
    "rerank",
    "retrieve_top_k",
    "save_index",
    "score_candidates",
    "score_pair",
    "tokenize",
]
